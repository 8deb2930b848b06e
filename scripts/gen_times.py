#!/usr/bin/env python3
"""Time seeded instance generation, one line per workload and player count.

The slots are those of the benchmark's workloads in ``perfbench/workloads.py``:
scan (n = 5-11), lp (n = 3-7) and br (n = 40-120), each a kind, n, m, edge
probability and weights.  Every slot calls ``gen_random`` with seeds 0 to
``--seeds`` - 1; the best of ``--repeats`` such rounds, divided by the seed
count, is the slot's time per call.  A line gives the mean of that time over
the workload's slots with one n, in microseconds, and the mean vertex pairs
per call (one Bernoulli trial each, two on a BwCF pair without a conflict).
The lp slot of the named instance ``gen_bwc_multipartite(2)`` calls no
``gen_random`` and is left out.

Usage:
    python scripts/gen_times.py [--repeats 5] [--seeds 5]
"""

import argparse
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402 -- the benchmark's slot schedules
from conflictgames.instances import gen_random  # noqa: E402


def slot_us(slot, seeds: int, repeats: int) -> float:
    """Best-of-``repeats`` microseconds per ``gen_random`` call of ``slot``."""
    kwargs = dict(zip(("alpha", "beta", "gamma"), slot.weights or ()))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for seed in range(seeds):
            gen_random(slot.n, slot.m, slot.kind, slot.prob, seed,
                       weighted=slot.weighted, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return 1e6 * best / seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()
    if args.repeats < 1 or args.seeds < 1:
        parser.error(f"need repeats, seeds >= 1, got {args.repeats}, {args.seeds}")

    print(f"us per gen_random call, best of {args.repeats} over seeds 0-{args.seeds - 1}")
    print(f"{'workload':8} {'n':>4} {'slots':>5} {'pairs':>6} {'us/call':>9}")
    for name, workload in workloads.WORKLOADS.items():
        by_n: dict[int, list[float]] = {}
        for slot in workload.slots:
            if slot.kind is not None:
                by_n.setdefault(slot.n, []).append(slot_us(slot, args.seeds, args.repeats))
        for n, times in sorted(by_n.items()):
            print(f"{name:8} {n:4} {len(times):5} {n * (n - 1) // 2:6}"
                  f" {sum(times) / len(times):9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
