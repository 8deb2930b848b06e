#!/usr/bin/env python3
"""Time max-gain best-response dynamics per step, one line per game kind.

Each kind runs ``run_br`` on ``gen_random(n, m, kind, 1/16, seed=1)`` (m = 8
machines, 2 for the cut game) from one seeded random start; the whole run,
evaluator set-up included, is divided by its step count, and the best of
``--repeats`` runs is printed in microseconds per step.  Beside it stands the
set-up of one run alone, a fresh ``StateEvaluator`` and its move table (the
``Walk`` at the start), best of ``--repeats``, in microseconds.

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=120)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    print(
        f"us per BR step and us of set-up per run, n={args.n}, edge probability 1/16,"
        f" best of {args.repeats}"
    )
    for kind in GameKind:
        m = 2 if kind is GameKind.MAXCUT else 8
        inst = gen_random(args.n, m, kind, Fraction(1, 16), seed=1)
        start = random_start(inst, random.Random(1))
        best = setup = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            trace = run_br(inst, start)
            t1 = time.perf_counter()
            StateEvaluator(inst).walk(to_internal(start))
            setup = min(setup, time.perf_counter() - t1)
            best = min(best, t1 - t0)
        steps = len(trace.steps)
        print(
            f"  {kind.value:6} m={m}: {1e6 * best / max(steps, 1):7.1f} us/step ({steps} steps),"
            f" {1e6 * setup:7.1f} us set-up"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
