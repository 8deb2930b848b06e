#!/usr/bin/env python3
"""Time the exact worst-CCE LP per simplex pivot, count the pivots that ran
on each tableau dtype, and count the LPs the certified optimum settled.

One line per game kind sums the jobs of that kind in one cycle of the
benchmark's lp workload, drawn by ``perfbench/workloads.py`` from ``--seed``
(16-128 states).  Then one line per size in ``--bwc`` solves random BwC
``gen_random(n, m, BWC, 1/2, seed=1)`` at that many states (243 is n=5 m=3,
256 n=4 m=4, 729 n=6 m=3, 1024 n=10 m=2).  Each line prints the whole
``worst_cce_value`` time, best of ``--repeats``, divided by the pivot
count, how many pivots returned an int64 and an object tableau, and how
many LPs the certificate (``simplex._certified_optimum``, tried where an LP
would first pivot on object) settled and refused.  The counts come from one
extra run with ``simplex._pivot`` and ``simplex._certified_optimum``
wrapped, so the timed runs execute the package untouched.

Usage:
    python scripts/lp_pivot_times.py [--seed 1] [--repeats 3] [--bwc 243,256,729]
"""

import argparse
import pathlib
import sys
import time
from collections import Counter
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402 -- the benchmark's seeded instances
from conflictgames import oracle, simplex  # noqa: E402
from conflictgames.games import GameKind  # noqa: E402
from conflictgames.instances import gen_random  # noqa: E402

BWC_SHAPES = {243: (5, 3), 256: (4, 4), 729: (6, 3), 1024: (10, 2)}
LIMITS = oracle.OracleLimits(lp_max_states=max(BWC_SHAPES))


def pivot_counts(instances) -> Counter:
    """Pivots per dtype of the tableau each pivot returned, and the
    certificate's tries by outcome ("settled" or "refused")."""
    pivot, certified, counts = simplex._pivot, simplex._certified_optimum, Counter()

    def counting(*args):
        out = pivot(*args)
        counts["object" if out[0].dtype == object else "int64"] += 1
        return out

    def trying(*args):
        out = certified(*args)
        counts["refused" if out is None else "settled"] += 1
        return out

    simplex._pivot, simplex._certified_optimum = counting, trying
    try:
        for inst in instances:
            oracle.worst_cce_value(inst, LIMITS)
    finally:
        simplex._pivot, simplex._certified_optimum = pivot, certified
    return counts


def best_time(instances, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for inst in instances:
            oracle.worst_cce_value(inst, LIMITS)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--bwc", default="243,256,729",
                        help=f"comma-separated BwC sizes among {sorted(BWC_SHAPES)}, or ''")
    args = parser.parse_args()
    sizes = [int(s) for s in args.bwc.split(",") if s]
    if any(s not in BWC_SHAPES for s in sizes):
        parser.error(f"--bwc sizes must be among {sorted(BWC_SHAPES)}")

    jobs = workloads.generate(workloads.WORKLOADS["lp"], args.seed, 1)
    groups = [
        (kind.value, [job.inst for job in jobs if job.inst.kind is kind]) for kind in GameKind
    ]
    for size in sizes:
        n, m = BWC_SHAPES[size]
        groups.append((f"BwC {size}", [gen_random(n, m, GameKind.BWC, Fraction(1, 2), seed=1)]))

    print(f"us per pivot, worst-CCE LP, lp cycle of {len(jobs)} jobs (seed {args.seed}), "
          f"best of {args.repeats}")
    print(f"  {'LPs':10} {'states':>7} {'pivots':>7} {'int64':>7} {'object':>7} "
          f"{'settled':>7} {'refused':>7} {'us/pivot':>9} {'total s':>8}")
    for label, instances in groups:
        if not instances:
            continue
        counts = pivot_counts(instances)
        pivots = counts["int64"] + counts["object"]
        spent = best_time(instances, args.repeats)
        states = sum(inst.m ** inst.n for inst in instances)
        print(f"  {label:10} {states:7} {pivots:7} {counts['int64']:7} {counts['object']:7} "
              f"{counts['settled']:7} {counts['refused']:7} "
              f"{1e6 * spent / max(pivots, 1):9.1f} {spent:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
