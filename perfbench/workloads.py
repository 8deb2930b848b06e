"""Seeded workloads: instance generation, the job each workload runs, and a
canonical text of every job's exact outputs.

Everything here is a pure function of the seed.  Per-instance seeds are drawn
from ``random.Random(seed)``; nothing calls ``hash()``, so the instances do
not depend on ``PYTHONHASHSEED``.

A run executes ``cycles`` cycles of the workload's slot schedule.  Every
cycle draws fresh instances for the same slots (kind, n, m, edge
probability), so the mix of sizes is the same for every seed and only the
graphs, values and start states change.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import checks
from conflictgames import dynamics, instances, oracle, smoothness
from conflictgames.games import GameKind, Instance

BWC, BWF, BWCF = GameKind.BWC, GameKind.BWF, GameKind.BWCF
SWC, SWF, MAXCUT = GameKind.SWC, GameKind.SWF, GameKind.MAXCUT

Q1, Q2, Q3 = Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)

# (alpha, beta, gamma) presets of the combined kind, both certificate branches
BWCF_GE = (Fraction(1), Fraction(1), Fraction(1, 2))  # alpha >= gamma
BWCF_LT = (Fraction(1), Fraction(1), Fraction(2))  # alpha < gamma


@dataclass(frozen=True)
class Slot:
    """One position of a workload's schedule.  ``kind`` None is the named
    criterion-04 instance, the complete bipartite conflict graph K_{2,2}."""

    kind: Optional[GameKind]
    n: int
    m: int
    prob: Fraction = Q2
    weighted: bool = False
    weights: Optional[tuple] = None  # BwCF (alpha, beta, gamma)


# scan: m^n of 1024-2187 states, all six kinds, and 3 of the 12 slots per
# cycle have m = 3, n = 7 (<= strong_max_players), which adds the
# strong-equilibrium pass.  Those jobs take 0.4-0.7 s against 0.05-0.3 s for
# the others, so they are the slowest quarter of the jobs and job_s_tail falls
# among them.  Small instances give the run enough jobs (>= 100) that the tail
# is at or above the 90th percentile.
SCAN_SLOTS = (
    Slot(BWC, 10, 2, Q2),
    Slot(BWF, 5, 4, Q1),
    Slot(BWCF, 10, 2, Q3, weights=BWCF_GE),
    Slot(SWC, 5, 4, Q2, weighted=True),
    Slot(SWF, 11, 2, Q1),
    Slot(MAXCUT, 11, 2, Q3),
    Slot(BWCF, 5, 4, Q1, weights=BWCF_LT),
    Slot(SWF, 10, 2, Q3, weighted=True),
    Slot(SWC, 10, 2, Q1),
    Slot(BWC, 7, 3, Q3),
    Slot(BWF, 7, 3, Q1),
    Slot(BWCF, 7, 3, Q2, weights=BWCF_LT),
)

# lp: 16-128 states, mostly small: LP time varies several-fold between random
# instances of one shape, so many small jobs keep the per-run medians steady.
# The three 64-state BwC slots per cycle are the slowest jobs, so job_s_tail
# falls among them.  A BwC instance is its labelled graph alone, and at n = 3
# the 8 possible graphs give LP times from 0.23 to 0.55 s, so a random draw of
# them moves the tail by which graphs came up.  Two of the three slots are
# therefore the complete graph K_3 (p = 1, the same instance every time): they
# form a dense group where the tail falls.  The third stays random (p = 1/4).
# The three are spread over the cycle, so one slow phase of the machine does
# not hit all of them.
# The 128-state slot is a sparse cut game, whose LP stays small.  Weighted
# sharing slots stay at 16 states.
LP_SLOTS = (
    Slot(BWC, 3, 4, Fraction(1)),
    Slot(None, 4, 2),
    Slot(BWC, 4, 2, Q2),
    Slot(BWF, 4, 2, Q1),
    Slot(BWCF, 4, 2, Q1, weights=BWCF_GE),
    Slot(SWC, 4, 2, Q2, weighted=True),
    Slot(SWF, 4, 2, Q1, weighted=True),
    Slot(BWC, 3, 4, Q1),
    Slot(MAXCUT, 4, 2, Q2),
    Slot(BWC, 3, 3, Q1),
    Slot(BWCF, 3, 3, Q2, weights=BWCF_LT),
    Slot(SWC, 3, 3, Q1),
    Slot(SWF, 3, 3, Q3),
    Slot(BWC, 3, 4, Fraction(1)),
    Slot(BWC, 5, 2, Q2),
    Slot(BWCF, 5, 2, Q3, weights=BWCF_GE),
    Slot(BWF, 5, 2, Q1),
    Slot(SWF, 5, 2, Q1),
    Slot(MAXCUT, 5, 2, Q3),
    Slot(MAXCUT, 7, 2, Fraction(1, 8)),
)

# br: far past every enumeration cap; sparse to medium graphs.  MaxCut has 2
# machines; SwF stops at m = 5, where its runs are already among the slowest
# (at m = 8 they took twice as long as any other kind's and set the tail alone).
BR_SLOTS = tuple(
    Slot(kind, n, 2 if kind is MAXCUT else min(m, 5) if kind is SWF else m, prob,
         weights=(BWCF_GE if idx % 2 == 0 else BWCF_LT) if kind is BWCF else None)
    for idx, (n, m, prob) in enumerate(
        ((40, 3, Fraction(1, 2)), (60, 5, Fraction(1, 4)), (90, 4, Fraction(1, 8)),
         (120, 8, Fraction(1, 16)))
    )
    for kind in (BWC, BWF, BWCF, SWC, SWF, MAXCUT)
)
BR_STARTS = 4  # seeded random starts per br instance


@dataclass
class Job:
    """One unit of the closed loop: an instance plus what to run on it."""

    key: str  # distinct per job
    inst: Instance
    states: int  # m^n
    start: Optional[tuple] = None  # br only
    strong: bool = False  # scan only
    params: object = None  # scan: the certificate (lambda, mu) and CCE bound


def _slot_instance(slot: Slot, seed: int) -> Instance:
    if slot.kind is None:
        return instances.gen_bwc_multipartite(2)
    kwargs = {}
    if slot.weights is not None:
        kwargs = dict(zip(("alpha", "beta", "gamma"), slot.weights))
    return instances.gen_random(
        slot.n, slot.m, slot.kind, slot.prob, seed=seed, weighted=slot.weighted, **kwargs
    )


def _label(slot: Slot) -> str:
    if slot.kind is None:
        return "bwc-multipartite(2)"
    return f"{slot.kind.value}(n={slot.n},m={slot.m},p={slot.prob})"


@dataclass
class Workload:
    name: str
    slots: tuple
    cycle_s: float  # nominal seconds of one cycle (2-vCPU VM, Python 3.11)
    run: Callable = field(repr=False)
    summarize: Callable = field(repr=False)
    check: Callable = field(repr=False)
    work_unit: str = "states"


def cycles_for(workload: Workload, seconds: int) -> int:
    """Fixed work per run: as many whole cycles as fit in ``seconds`` at the
    nominal cycle time.  A faster program measures the same jobs in less time."""
    return max(1, round(seconds / workload.cycle_s))


def generate(workload: Workload, seed: int, cycles: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for c in range(cycles):
        # br runs start r of every instance before start r + 1 of any, so the
        # starts of one instance are a quarter-cycle apart and one slow phase
        # of the machine does not hit all of them
        by_start = [[] for _ in range(BR_STARTS)]
        for idx, slot in enumerate(workload.slots):
            inst_seed = rng.getrandbits(32)
            inst = _slot_instance(slot, inst_seed)
            states = inst.m ** inst.n
            base = f"c{c}.{idx}.{_label(slot)}"
            if workload.name == "br":
                for r in range(BR_STARTS):
                    start = tuple(rng.randrange(1, inst.m + 1) for _ in range(inst.n))
                    by_start[r].append(Job(f"{base}.start{r}", inst, states, start=start))
            elif workload.name == "scan":
                params = smoothness.certificate_params(
                    inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma
                )
                strong = inst.m == 3 and inst.n <= oracle.DEFAULT_LIMITS.strong_max_players
                jobs.append(Job(base, inst, states, strong=strong, params=params))
            else:
                jobs.append(Job(base, inst, states))
        if workload.name == "br":
            jobs.extend(job for group in by_start for job in group)
    return jobs


def instances_digest(jobs: list[Job]) -> str:
    """sha256 over the canonical instance documents and br start states."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.key.encode())
        h.update(instances.write_instance(job.inst).encode())
        if job.start is not None:
            h.update(repr(job.start).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the jobs; each returns its raw outputs and the unit of work it did


def run_scan(job: Job):
    inst = job.inst
    params, _ = job.params
    out = {
        "optimum": oracle.optimum(inst),
        "pure": oracle.pure_nash_set(inst),
        "semi": smoothness.check_semi_smooth(inst, params),
        "nice": smoothness.check_nice(inst, params),
        "floors": smoothness.check_opt_lower_bounds(inst),
        "sandwich": dynamics.sandwich_constants(inst),
    }
    if job.strong:
        out["strong"] = oracle.strong_nash_set(inst)
    return out, job.states


def run_lp(job: Job):
    return oracle.worst_cce_value(job.inst), job.states


def run_br(job: Job):
    trace = dynamics.run_br(job.inst, job.start)
    return trace, len(trace.steps)


def _f(x) -> str:
    """Exact text of a rational (or None)."""
    return f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else str(x)


def summarize_scan(out) -> str:
    opt_state, opt_value = out["optimum"]
    lines = [f"opt {opt_state} {_f(opt_value)}"]
    lines += [f"ne {s} {_f(v)}" for s, v in out["pure"]]
    lines += [f"strong {s} {_f(v)}" for s, v in out.get("strong", ())]
    for name in ("semi", "nice"):
        v = out[name]
        lines.append(f"{name} {v.holds} {v.worst_state} {_f(v.slack)}")
    fl = out["floors"]
    lines.append(f"floors {fl.holds} {fl.checks} {fl.witness}")
    sw = out["sandwich"]
    lines.append(f"sandwich {_f(sw.a)} {_f(sw.b)} {sw.skipped}")
    return "\n".join(lines)


def summarize_lp(sol) -> str:
    lines = [f"{s} {_f(q)}" for s, q in sol.distribution]
    lines.append(f"value {_f(sol.value)}")
    return "\n".join(lines)


def summarize_br(trace) -> str:
    last = trace.steps[-1] if trace.steps else None
    return (
        f"end {trace.end} steps {len(trace.steps)} exhausted {trace.exhausted} "
        f"potential {_f(last.potential if last else trace.start_potential)} "
        f"social {_f(last.social if last else trace.start_social)}"
    )


def job_digest(job: Job, summary: str) -> str:
    """sha256 over one job's instance document, start state and exact outputs."""
    h = hashlib.sha256()
    h.update(instances.write_instance(job.inst).encode())
    if job.start is not None:
        h.update(repr(job.start).encode())
    h.update(summary.encode())
    return h.hexdigest()


WORKLOADS = {
    "scan": Workload("scan", SCAN_SLOTS, 2.8, run_scan, summarize_scan, checks.check_scan),
    "lp": Workload("lp", LP_SLOTS, 2.5, run_lp, summarize_lp, checks.check_lp),
    "br": Workload("br", BR_SLOTS, 5.0, run_br, summarize_br, checks.check_br,
                   work_unit="br_steps"),
}
