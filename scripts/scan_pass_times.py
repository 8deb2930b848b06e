#!/usr/bin/env python3
"""Time each exhaustive scan pass, with the state table built afresh (cold)
and read from the table the previous pass kept (warm), the table build and
the column build on their own, and the passes that stream past the
kept-table budget.

One cycle is one cycle of the benchmark's scan workload, drawn by
``perfbench/workloads.py`` from ``--seed``: twelve instances of 1024-2187
states, all six kinds, with the strong scan on the three m = 3 ones.  Each
pass is timed cold (the kept table dropped just before the call, so the pass
builds its own) and then warm (right after, on the table it kept).  Three
lines time builds alone, once per instance: "table build" is
``oracle._whole_table`` over the columns the scan passes read, with no table
kept and the columns cached, which is what each cold pass pays on top of its
warm time; "column build" is the uncached build of the columns those passes
read (``oracle._build_columns``) of every instance: the restricted growth
strings where the machines all have the same machine term, all the states
elsewhere; "orbit index build" is a fresh build of the index of each
string shape (``Orbits._index`` of the ``oracle.Orbits`` that
``oracle.orbits_of`` keeps: the column and the digits of every state, by
renaming every string once; the columns kept), which a scan pays once per
shape and a listing of equilibria reads from then on.  The states domain
has no index, as a column there is its own state, so it adds nothing.
The best of ``--repeats`` cycles is printed in milliseconds per cycle.  The
block ends with the columns the scan passes read per cycle, one per orbit
under renaming the machines where the machines are symmetric and one per
state elsewhere, against the states of the cycle,
and with the size of its strong scans: the pure equilibria the scan finds and
the strings among them it tests, one per orbit.

Two more blocks time the six passes that read one column per orbit on 531441
states, past the kept-table budget (``oracle._TABLE_CELLS``), so every pass
is cold and builds its columns block by block: ``gen_random(12, 3, BWC, 1/2,
seed=1)``, whose 88574 orbit strings are past the budget even so, and
``gen_random(12, 3, SWC, 1/2, seed=1)``, whose machine values differ, so it
reads every state (its floors hold without a scan, as on every payoff
kind, and are left out).  Each prints the best of ``--repeats`` runs in
milliseconds and, from one more run under ``tracemalloc``, the peak of
traced memory in MB.

A last block times the strong scan past 2^18 states, at the
``strong_max_players`` cap of ten players: on ``gen_random(10, m, BWC, 1/2,
seed=1)`` with m = 3 and 4 (59049 and 1048576 states, 9842 and 43947
orbit strings).  Each run starts with no table kept, so it builds the
table's columns and then tests its candidates' orbits against them; the
best of ``--repeats`` runs is printed in milliseconds, with the strong
equilibria found and, from one more run under ``tracemalloc``, the peak of
traced memory in MB.

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


def orbit_table(inst):
    """(evaluator, orbits, table) the scan passes over ``inst`` read."""
    return oracle._whole_table(inst, orbits=True)


def index_build(orbits) -> float:
    """Seconds to build the index of an indexed string shape afresh, beside
    the one it keeps, which the passes go on reading; 0 on any other."""
    if not orbits.indexed:
        return 0.0
    t0 = time.perf_counter()
    oracle.Orbits._index.func(orbits)
    return time.perf_counter() - t0


def strong_scan_size(inst) -> tuple[int, int]:
    """(pure equilibria, strings) the strong scan of ``inst`` tests."""
    minimizes = inst.kind.minimizes
    _, orbits, (flags,) = oracle.state_columns(
        inst, oracle.DEFAULT_LIMITS,
        lambda vals, cur, social, phi: (oracle.pure_ne_flags(minimizes, vals, cur),),
        orbits=True,
    )
    return int(orbits.sizes()[flags].sum()), int(flags.sum())


def streamed_passes(inst, repeats: int) -> None:
    """Print ms (best of ``repeats``) and tracemalloc peak MB of the six
    orbit passes over ``inst``, the floors only on a cost kind."""
    params = smoothness.certificate_params(inst.kind, inst.n, inst.m)
    job = SimpleNamespace(inst=inst, params=params)
    _, orbits, _ = orbit_table(inst)
    print(f"ms and tracemalloc peak MB per streamed pass, {inst.kind.value} n={inst.n} "
          f"m={inst.m} ({oracle.state_count(inst)} states, {orbits.count} columns), "
          f"best of {repeats}")
    print(f"  {'pass':12} {'ms':>8} {'MB':>8}")
    for name, run in PASSES[:-1]:
        if name == "floors" and not inst.kind.minimizes:
            continue
        spent = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            run(job)
            spent = min(spent, time.perf_counter() - t0)
        tracemalloc.start()
        run(job)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"  {name:12} {1e3 * spent:8.2f} {peak / 2**20:8.2f}")


def strong_at_scale(repeats: int) -> None:
    """Print ms (best of ``repeats``), the strong equilibria and the
    tracemalloc peak MB of the strong scan over ten players, each run with
    no table kept."""
    print(f"ms and tracemalloc peak MB per strong scan, BwC n=10, best of {repeats}")
    print(f"  {'m':>2} {'states':>8} {'strong':>7} {'ms':>9} {'MB':>8}")
    for m in (3, 4):
        inst = gen_random(10, m, GameKind.BWC, Fraction(1, 2), seed=1)
        spent = float("inf")
        for _ in range(repeats):
            oracle._kept = None
            t0 = time.perf_counter()
            strong = oracle.strong_nash_set(inst)
            spent = min(spent, time.perf_counter() - t0)
        oracle._kept = None
        tracemalloc.start()
        oracle.strong_nash_set(inst)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"  {m:2} {m**10:8} {len(strong):7} {1e3 * spent:9.1f} {peak / 2**20:8.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error(f"need repeats >= 1, got {args.repeats}")

    jobs = workloads.generate(workloads.WORKLOADS["scan"], args.seed, 1)
    best = {name: [float("inf"), float("inf")] for name, _ in PASSES}
    build = columns = index = float("inf")
    for _ in range(args.repeats):
        spent = {name: [0.0, 0.0] for name, _ in PASSES}
        built = enumerated = indexed = 0.0
        for job in jobs:
            oracle._kept = None
            t0 = time.perf_counter()
            _, orbits, _ = orbit_table(job.inst)
            built += time.perf_counter() - t0
            t0 = time.perf_counter()
            oracle._build_columns(job.inst.n, job.inst.m, orbits.symmetric)
            enumerated += time.perf_counter() - t0
            indexed += index_build(orbits)
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
        build, columns, index = min(build, built), min(columns, enumerated), min(index, indexed)

    print(f"ms per scan pass, one cycle of {len(jobs)} instances (seed {args.seed}), "
          f"best of {args.repeats}")
    print(f"  {'pass':17} {'cold':>8} {'warm':>8}")
    for name, (cold, warm) in best.items():
        print(f"  {name:17} {1e3 * cold:8.2f} {1e3 * warm:8.2f}")
    cold, warm = (sum(pair[k] for pair in best.values()) for k in (0, 1))
    print(f"  {'all':17} {1e3 * cold:8.2f} {1e3 * warm:8.2f}")
    print(f"  {'table build':17} {1e3 * build:8.2f}")
    print(f"  {'column build':17} {1e3 * columns:8.2f}")
    print(f"  {'orbit index build':17} {1e3 * index:8.2f}")
    domains = [orbit_table(job.inst)[1] for job in jobs]
    print(f"  columns read: {sum(d.count for d in domains)} of "
          f"{sum(job.states for job in jobs)} states "
          f"({sum(d.symmetric for d in domains)} of {len(jobs)} instances on strings)")
    candidates, tested = (
        sum(pair) for pair in zip(*(strong_scan_size(job.inst) for job in jobs if job.strong))
    )
    print(f"  strong scan: {candidates} pure NE candidates, {tested} strings tested")

    for kind in (GameKind.BWC, GameKind.SWC):
        streamed_passes(gen_random(12, 3, kind, Fraction(1, 2), seed=1), args.repeats)
    strong_at_scale(args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
