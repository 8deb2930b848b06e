#!/usr/bin/env python3
"""Time each exhaustive scan pass, with the state table built afresh (cold)
and read from the table the previous pass kept (warm), the table build on its
own, and the passes that stream past the kept-table budget.

One cycle is one cycle of the benchmark's scan workload, drawn by
``perfbench/workloads.py`` from ``--seed``: twelve instances of 1024-2187
states, all six kinds, with the strong scan on the three m = 3 ones.  Each
pass is timed cold (the kept table dropped just before the call, so the pass
builds its own) and then warm (right after, on the table it kept).  The last
line of this block times the build alone: ``oracle._whole_table`` with no table kept, once
per instance, which is what each cold pass pays on top of its warm time.
The best of ``--repeats`` cycles is printed in milliseconds per cycle.

A second block times the seven passes that stream past the kept-table
budget (``fastpath._TABLE_CELLS``): on ``gen_random(10, 3, BWC, 1/2,
seed=1)``, 59049 states, no table is kept, so every pass is cold and builds
its per-state columns block by block.  It prints the best of ``--repeats``
runs in milliseconds and, from one more run under ``tracemalloc``, the peak
of traced memory in MB.

Each block ends with the size of its strong scans: the pure equilibria the
scan takes as candidates, and the representatives it tests, one per orbit
under renaming the machines (``oracle.orbit_representatives``).

Usage:
    python scripts/scan_pass_times.py [--seed 1] [--repeats 3]
"""

import argparse
import pathlib
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402 -- the benchmark's seeded instances
from conflictgames import dynamics, oracle, smoothness  # noqa: E402
from conflictgames.games import GameKind  # noqa: E402
from conflictgames.instances import gen_random  # noqa: E402

PASSES = (
    ("optimum", lambda job: oracle.optimum(job.inst)),
    ("pure NE", lambda job: oracle.pure_nash_set(job.inst)),
    ("semi-smooth", lambda job: smoothness.check_semi_smooth(job.inst, job.params[0])),
    ("nice", lambda job: smoothness.check_nice(job.inst, job.params[0])),
    ("floors", lambda job: smoothness.check_opt_lower_bounds(job.inst)),
    ("sandwich", lambda job: dynamics.sandwich_constants(job.inst)),
    ("strong", lambda job: oracle.strong_nash_set(job.inst)),
)


def strong_scan_size(inst) -> tuple[int, int]:
    """(pure equilibria, representatives) the strong scan of ``inst`` tests."""
    minimizes = inst.kind.minimizes
    ev, (flags,) = oracle.state_columns(
        inst, oracle.DEFAULT_LIMITS,
        lambda vals, cur, social, phi: (oracle.pure_ne_flags(minimizes, vals, cur),),
    )
    candidates = np.flatnonzero(flags)
    return len(candidates), len(np.unique(oracle.orbit_representatives(ev, candidates)))


def print_strong_scan_size(insts) -> None:
    candidates, tested = (sum(pair) for pair in zip(*map(strong_scan_size, insts)))
    print(f"  strong scan: {candidates} pure NE candidates, {tested} representatives tested")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    jobs = workloads.generate(workloads.WORKLOADS["scan"], args.seed, 1)
    best = {name: [float("inf"), float("inf")] for name, _ in PASSES}
    build = float("inf")
    for _ in range(args.repeats):
        spent = {name: [0.0, 0.0] for name, _ in PASSES}
        built = 0.0
        for job in jobs:
            oracle._kept = None
            t0 = time.perf_counter()
            oracle._whole_table(job.inst)
            built += time.perf_counter() - t0
            for name, run in PASSES:
                if name == "strong" and not job.strong:
                    continue
                oracle._kept = None  # cold: the pass builds the table itself
                for warm in (0, 1):
                    t0 = time.perf_counter()
                    run(job)
                    spent[name][warm] += time.perf_counter() - t0
        for name, pair in spent.items():
            best[name] = [min(b, s) for b, s in zip(best[name], pair)]
        build = min(build, built)

    print(f"ms per scan pass, one cycle of {len(jobs)} instances (seed {args.seed}), "
          f"best of {args.repeats}")
    print(f"  {'pass':12} {'cold':>8} {'warm':>8}")
    for name, (cold, warm) in best.items():
        print(f"  {name:12} {1e3 * cold:8.2f} {1e3 * warm:8.2f}")
    cold, warm = (sum(pair[k] for pair in best.values()) for k in (0, 1))
    print(f"  {'all':12} {1e3 * cold:8.2f} {1e3 * warm:8.2f}")
    print(f"  {'table build':12} {1e3 * build:8.2f}")
    print_strong_scan_size(job.inst for job in jobs if job.strong)

    inst = gen_random(10, 3, GameKind.BWC, Fraction(1, 2), seed=1)
    job = SimpleNamespace(inst=inst, params=smoothness.certificate_params(inst.kind, inst.n, inst.m))
    print(f"ms and tracemalloc peak MB per streamed pass, BwC n={inst.n} m={inst.m} "
          f"({oracle.state_count(inst)} states), best of {args.repeats}")
    print(f"  {'pass':12} {'ms':>8} {'MB':>8}")
    for name, run in PASSES:
        spent = float("inf")
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            run(job)
            spent = min(spent, time.perf_counter() - t0)
        tracemalloc.start()
        run(job)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"  {name:12} {1e3 * spent:8.2f} {peak / 2**20:8.2f}")
    print_strong_scan_size([inst])
    return 0


if __name__ == "__main__":
    sys.exit(main())
