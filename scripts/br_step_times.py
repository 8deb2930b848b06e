#!/usr/bin/env python3
"""Time max-gain best-response dynamics per step, one line per game kind,
split into set-up, walk and trace recording, and what reading the trace's
steps costs afterwards.

Each kind runs ``run_br`` on ``gen_random(n, m, kind, 1/16, seed=1)`` (m = 8
machines, 2 for the cut game) from one seeded random start.  One untimed
``run_br`` per kind warms up first, so first-call costs fall in no column
even at ``--repeats 1``.  Each of ``--repeats`` repeats then times the whole
``run_br``, two of its parts apart, and the read after it; every column comes
from the repeat with the fastest ``run_br``, so the parts add up to one run:

* set-up: a fresh ``StateEvaluator`` and its move table (the ``Walk`` at the
  start);
* walk: the ``Walk`` driven alone, ``best`` then ``move`` until no player
  improves, its set-up excluded;
* trace: the whole ``run_br`` minus the other two, which is what recording
  the trace costs (one tuple of scaled ints per step, and the potential
  check), plus the state's validation;
* views: ``tuple(trace.steps)`` on the finished trace, which builds every
  ``TraceStep`` and its exact ``Fraction``s, the cost a reader of the steps
  pays; it is not part of ``run_br``.

Set-up is printed in microseconds per run; walk, trace, views and the whole
``run_br`` in microseconds per step, and the trace's share of ``run_br``.

Usage:
    python scripts/br_step_times.py [--n 120] [--repeats 3]
"""

import argparse
import pathlib
import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from conflictgames.dynamics import random_start, run_br
from conflictgames.fastpath import StateEvaluator, to_internal
from conflictgames.games import GameKind
from conflictgames.instances import gen_random


def _walk(inst, start) -> float:
    """Seconds to drive a fresh ``Walk`` from ``start`` to its end, set-up
    excluded."""
    walk = StateEvaluator(inst).walk(to_internal(start))
    t0 = time.perf_counter()
    while (best := walk.best()) is not None:
        walk.move(best[1], best[2])
    return time.perf_counter() - t0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=120)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.n < 1 or args.repeats < 1:
        parser.error(f"need n, repeats >= 1, got {args.n}, {args.repeats}")

    print(
        f"us of set-up per run and us per BR step, n={args.n}, edge probability 1/16,"
        f" best of {args.repeats}"
    )
    print(f"{'kind':6} {'m':>2} {'steps':>5} {'set-up':>8} {'walk':>7} {'trace':>7}"
          f" {'views':>7} {'run_br':>7} {'trace%':>6}")
    for kind in GameKind:
        m = 2 if kind is GameKind.MAXCUT else 8
        inst = gen_random(args.n, m, kind, Fraction(1, 16), seed=1)
        start = random_start(inst, random.Random(1))
        run_br(inst, start)  # untimed warm-up: first-call costs are no repeat's
        runs = []
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            trace = run_br(inst, start)
            t1 = time.perf_counter()
            StateEvaluator(inst).walk(to_internal(start))
            t2 = time.perf_counter()
            walk = _walk(inst, start)
            t3 = time.perf_counter()
            tuple(trace.steps)
            runs.append((t1 - t0, t2 - t1, walk, time.perf_counter() - t3))
        total, setup, walk, views = min(runs)
        steps = max(len(trace.steps), 1)
        record = total - setup - walk
        print(
            f"{kind.value:6} {m:2} {len(trace.steps):5} {1e6 * setup:8.1f}"
            f" {1e6 * walk / steps:7.1f} {1e6 * record / steps:7.1f}"
            f" {1e6 * views / steps:7.1f} {1e6 * total / steps:7.1f}"
            f" {100 * record / total:5.0f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
