#!/usr/bin/env python3
"""Time max-gain best-response dynamics per step, one line per game kind,
split into set-up, walk and trace recording, and what reading the trace's
steps costs afterwards.

Each kind runs ``run_br`` on ``gen_random(n, m, kind, 1/16, seed=1)`` (m = 8
machines, 2 for the cut game) from one seeded random start.  One untimed
``run_br`` per kind warms up first, so first-call costs fall in no column
even at ``--repeats 1``.  Each of ``--repeats`` repeats makes a fresh
instance equal to that one and times two ``run_br`` on it with clocks inside
them, and then the read after the second.  The fresh column is the fastest
first set-up and the views column the fastest read; kept, walk, trace and
run_br come from the repeat whose second ``run_br`` is fastest (see
:func:`best`).  The clocks are wrappers on the classes
(``StateEvaluator.of`` and ``walk``, ``Walk.best`` and ``move``), restored
after each run, so the evaluator kept on the instance is never touched.
Kept, walk and trace are disjoint spans of the second run, so they add up to
it and none is negative:

* fresh: the set-up of the first run, from ``StateEvaluator.of`` to the
  return of the move table (the ``Walk`` at the start): it builds the
  instance's evaluator and then the move table;
* kept: the set-up of the second run, the same span, which finds the
  evaluator kept on the instance and builds the move table alone;
* walk: the time inside the walk's ``best`` and ``move`` calls, until no
  player improves;
* trace: the rest of the run, which is what recording the trace costs (one
  tuple of scaled ints per step, and the potential check), plus the state's
  validation and the loop itself;
* views: ``tuple(trace.steps)`` on the finished trace, which builds every
  ``TraceStep`` and its exact ``Fraction``s, the cost a reader of the steps
  pays; it is not part of ``run_br``.

The clocks wrap the walk's two calls per step in Python functions, which
makes the timed ``run_br`` slower than an untimed one by about 0.9 us per
step (0.45 us per wrapped call on a 2-vCPU VM, Python 3.11), shared between
walk and trace.  Both set-ups are printed in microseconds per run; walk,
trace, views and the whole second ``run_br`` in microseconds per step, and
the trace's share of that ``run_br``.

Usage:
    python scripts/br_step_times.py [--n 120] [--repeats 3]
"""

import argparse
import dataclasses
import pathlib
import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from conflictgames.dynamics import random_start, run_br
from conflictgames.fastpath import StateEvaluator, Walk
from conflictgames.games import GameKind
from conflictgames.instances import gen_random

clock = time.perf_counter


def timed_run(inst, start) -> tuple:
    """(trace, run_br s, set-up s, walk s) of one ``run_br`` from ``start``,
    the set-up and the walk timed by wrappers on the evaluator's and the
    walk's classes, which are restored before this returns."""
    spent = {"setup": 0.0, "walk": 0.0}
    began = []
    of, walk = StateEvaluator.of.__func__, StateEvaluator.walk

    def timed(call):
        def run(*args):
            t0 = clock()
            result = call(*args)
            spent["walk"] += clock() - t0
            return result
        return run

    def evaluator(cls, inst):
        began.append(clock())
        return of(cls, inst)

    def walked(ev, state):
        w = walk(ev, state)
        spent["setup"] += clock() - began.pop()
        return w

    patches = (
        (StateEvaluator, "of", classmethod(evaluator)),
        (StateEvaluator, "walk", walked),
        (Walk, "best", timed(Walk.best)),
        (Walk, "move", timed(Walk.move)),
    )
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    for owner, name, patch in patches:
        setattr(owner, name, patch)
    try:
        t0 = clock()
        trace = run_br(inst, start)
        total = clock() - t0
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    return trace, total, spent["setup"], spent["walk"]


def best(runs: list) -> tuple:
    """(run_br s, set-up s, walk s, views s) of the repeats ``runs``, each
    ``(run_br, set-up, walk, views)``: the first three from the repeat whose
    ``run_br`` is fastest, since they are disjoint spans of that one run, and
    the views, a separate call after it, their own fastest."""
    total, setup, walk, _ = min(runs, key=lambda run: run[0])
    return total, setup, walk, min(run[3] for run in runs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=120)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.n < 1 or args.repeats < 1:
        parser.error(f"need n, repeats >= 1, got {args.n}, {args.repeats}")

    print(
        f"us of set-up per run (fresh instance, kept evaluator) and us per BR step,"
        f" n={args.n}, edge probability 1/16, best of {args.repeats}"
    )
    print(f"{'kind':6} {'m':>2} {'steps':>5} {'fresh':>8} {'kept':>8} {'walk':>7}"
          f" {'trace':>7} {'views':>7} {'run_br':>7} {'trace%':>6}")
    for kind in GameKind:
        m = 2 if kind is GameKind.MAXCUT else 8
        inst = gen_random(args.n, m, kind, Fraction(1, 16), seed=1)
        start = random_start(inst, random.Random(1))
        run_br(inst, start)  # untimed warm-up: first-call costs are no repeat's
        runs, firsts = [], []
        for _ in range(args.repeats):
            fresh = dataclasses.replace(inst)  # equal, and with no evaluator yet
            firsts.append(timed_run(fresh, start)[2])
            trace, total, setup, walk = timed_run(fresh, start)
            t0 = clock()
            tuple(trace.steps)
            runs.append((total, setup, walk, clock() - t0))
        total, setup, walk, views = best(runs)
        steps = max(len(trace.steps), 1)
        record = total - setup - walk
        print(
            f"{kind.value:6} {m:2} {len(trace.steps):5} {1e6 * min(firsts):8.1f} {1e6 * setup:8.1f}"
            f" {1e6 * walk / steps:7.1f} {1e6 * record / steps:7.1f}"
            f" {1e6 * views / steps:7.1f} {1e6 * total / steps:7.1f}"
            f" {100 * record / total:5.0f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
