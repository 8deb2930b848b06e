"""Max-gain best-response dynamics, trace quality measurements, and the
convergence-theorem checks.

The mover each step is the player with the largest deviation gain (ties:
lowest player index, then lowest machine index), so traces are fully
deterministic.  The potential strictly improves every step, which both
terminates the dynamic and drives the quality guarantees checked here.

:func:`run_br` only loops and records: the state lives in the evaluator's
move table (:class:`conflictgames.fastpath.Walk`), which finds the max-gain
move in one pass over the n x m gains and applies it in O(n + m), and which
keeps the social value and the potential current as exact scaled integers,
the start's included.  Where exact gains fit int64 one argmax picks the move;
where they do not (the sharing kinds at large n), float gains propose
candidates and exact integers decide among them, so no float ever picks a
move.  No state is ever evaluated pointwise.  After every move :func:`run_br`
checks that the scaled potential moved by exactly the gain (times
``potential_scale // value_scale``) in the improving direction, so a move
table gone wrong raises instead of looping.

Each step is recorded as a tuple of Python ints: mover, source and target
(1-based), and the scaled gain, potential and social value after the move.
The :class:`Trace` keeps these records and the two scales, and builds no
``Fraction`` while the dynamic runs.  ``Fraction``s are built where a reader
asks: :attr:`Trace.steps` is a read-only view whose indexing, slicing and
iteration build :class:`TraceStep` named tuples with exact ``Fraction``s
(its ``len`` builds nothing), and :meth:`Trace.socials`,
:meth:`Trace.potentials` and :func:`trace_csv` read those views.  The
verdicts (:func:`steps_to_quality`, :func:`check_convergence_theorems`)
compare the scaled ints against thresholds put on the same scale, and build
only the few ``Fraction``s they report.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import oracle
from .fastpath import _INT64_BOUND, StateEvaluator, max_abs, to_internal, to_public
from .games import Instance, State, harmonic, validate_state
from .oracle import DEFAULT_LIMITS, OracleLimits
from .smoothness import certificate_params, pure_poa_bound
from .verdicts import VerdictReport, frac_str, make_verdict


class TraceStep(NamedTuple):
    index: int  # the state after this move is state number ``index``
    mover: int
    source: int
    target: int
    gain: Fraction
    potential: Fraction
    social: Fraction


# (mover, source, target, gain, potential, social): 1-based player and
# machines, the gain and the social value on the value scale, the potential
# on the potential scale, the last two after the move
StepRecord = tuple[int, int, int, int, int, int]


class TraceSteps(Sequence):
    """Read-only view of a trace's steps as :class:`TraceStep`s.

    ``len`` reads the records alone; indexing (negative too), slicing and
    iteration build the named tuples and their exact ``Fraction``s when
    read.  A slice is a tuple.  The view equals a tuple, or another view,
    with equal steps."""

    __slots__ = ("_records", "_value_scale", "_potential_scale")

    def __init__(self, records: tuple[StepRecord, ...], value_scale: int, potential_scale: int):
        self._records = records
        self._value_scale = value_scale
        self._potential_scale = potential_scale

    def _step(self, i: int, record: StepRecord) -> TraceStep:
        mover, source, target, gain, potential, social = record
        vs = self._value_scale
        return TraceStep(
            i + 1, mover, source, target,
            Fraction(gain, vs), Fraction(potential, self._potential_scale), Fraction(social, vs),
        )

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        records = self._records
        if isinstance(i, slice):
            return tuple(self._step(j, records[j]) for j in range(*i.indices(len(records))))
        i = index(i)
        record = records[i]  # IndexError past either end
        return self._step(i % len(records), record)

    def __iter__(self) -> Iterator[TraceStep]:
        for i, record in enumerate(self._records):
            yield self._step(i, record)

    def __eq__(self, other):
        if not isinstance(other, (TraceSteps, tuple)):
            return NotImplemented
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"TraceSteps({tuple(self)!r})"


def _on_scale(x: Fraction, scale: int) -> int:
    """``x * scale`` for a ``Fraction`` read from that scale (its reduced
    denominator divides ``scale``)."""
    return x.numerator * (scale // x.denominator)


@dataclass(frozen=True)
class Trace:
    """A best-response run: one :data:`StepRecord` of scaled ints per step,
    on the scales ``value_scale`` and ``potential_scale``, read as
    :class:`TraceStep` named tuples through :attr:`steps`."""

    start: State
    end: State
    records: tuple[StepRecord, ...]
    start_social: Fraction
    start_potential: Fraction
    maximizes: bool
    exhausted: bool  # step budget ran out while an improving move remained
    value_scale: int
    potential_scale: int

    @property
    def steps(self) -> TraceSteps:
        return TraceSteps(self.records, self.value_scale, self.potential_scale)

    def scaled_socials(self) -> list[int]:
        """Social value per state along the trace, index 0 = start, times
        ``value_scale``."""
        return [_on_scale(self.start_social, self.value_scale)] + [r[5] for r in self.records]

    def scaled_potentials(self) -> list[int]:
        """Potential per state along the trace, times ``potential_scale``."""
        return [_on_scale(self.start_potential, self.potential_scale)] + [
            r[4] for r in self.records
        ]

    def socials(self) -> list[Fraction]:
        """Social value per state along the trace, index 0 = start."""
        return [Fraction(v, self.value_scale) for v in self.scaled_socials()]

    def potentials(self) -> list[Fraction]:
        return [Fraction(p, self.potential_scale) for p in self.scaled_potentials()]


def run_br(inst: Instance, start: State, max_steps: Optional[int] = None) -> Trace:
    """Iterate max-gain best responses until no player improves (or the step
    budget runs out, which is flagged, not an error).

    Raises RuntimeError when a move does not change the potential by exactly
    its gain in the improving direction: the move table has gone wrong."""
    validate_state(inst, start)
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, got {max_steps}")
    ev = StateEvaluator.of(inst)
    walk = ev.walk(to_internal(start))
    start_social, start_potential = walk.social, walk.potential
    # the potential changes by the gain, on the potential scale
    rise = -ev.pot_per_value if ev.minimizes else ev.pot_per_value
    records: list[StepRecord] = []
    exhausted = False
    while (best := walk.best()) is not None:
        if max_steps is not None and len(records) >= max_steps:
            exhausted = True
            break
        gain, player, target = best
        before = walk.potential
        source = walk.move(player, target)
        potential = walk.potential
        if gain <= 0 or potential - before != rise * gain:
            raise RuntimeError(
                f"step {len(records) + 1}: the potential moved by {potential - before}"
                f" on a move of gain {gain}, not by {rise * gain}"
            )
        records.append((player + 1, source + 1, target + 1, gain, potential, walk.social))
    return Trace(
        start=tuple(start),
        end=to_public(walk.cur.tolist()),
        records=tuple(records),
        start_social=ev.as_value(start_social),
        start_potential=ev.as_potential(start_potential),
        maximizes=not ev.minimizes,
        exhausted=exhausted,
        value_scale=ev.value_scale,
        potential_scale=ev.potential_scale,
    )


TRACE_CSV_HEADER = "step,mover,from,to,gain,potential,social"


def trace_csv(trace: Trace) -> str:
    lines = [TRACE_CSV_HEADER]
    for s in trace.steps:
        lines.append(
            f"{s.index},{s.mover},{s.source},{s.target},"
            f"{frac_str(s.gain)},{frac_str(s.potential)},{frac_str(s.social)}"
        )
    return "\n".join(lines) + "\n"


def _first_past(
    values: list[int], threshold: Fraction, scale: int, at_least: bool
) -> tuple[Optional[int], bool]:
    """First position ``t`` whose ``values[t] / scale`` is at or past
    ``threshold`` (``>=`` when ``at_least``, else ``<=``), and whether every
    later one is too; (None, False) when none is.  The threshold is put on
    the scale once, rounded up or down, so each comparison is of ints."""
    num, den = threshold.numerator * scale, threshold.denominator
    bound = -(-num // den) if at_least else num // den
    met = [v >= bound if at_least else v <= bound for v in values]
    first = next((t for t, ok in enumerate(met) if ok), None)
    if first is None:
        return None, False
    return first, all(met[first:])


def steps_to_quality(
    trace: Trace, target_ratio: Fraction, opt_value: Fraction
) -> tuple[Optional[int], bool]:
    """First trace position (0 = start) whose social value is within
    ``target_ratio`` times the optimum, and whether that quality persists to
    the end of the trace.  (None, False) when the trace never gets there."""
    threshold = Fraction(target_ratio) * Fraction(opt_value)
    return _first_past(trace.scaled_socials(), threshold, trace.value_scale, trace.maximizes)


@dataclass(frozen=True)
class SandwichResult:
    """Tightest constants with value <= a * potential and potential <= b * value
    over every state but the ``skipped`` ones, whose potential is zero
    (possible only for zero-value sharing/cut states, where the value is zero
    too)."""

    a: Optional[Fraction]
    b: Optional[Fraction]
    skipped: int


def _max_ratio(num, den):
    """Exact maximum of num/den over all entries (every den > 0) as a pair of
    Python ints; None when there are none.  A float ratio only proposes the
    candidate: integer cross-multiplication confirms it, and any entry it
    finds above the candidate becomes the next candidate.  The products stay
    on int64 when max|num| * max|den| is below 2^63, else on object.

    Each round moves to a strictly larger ratio, so ``len(num)`` rounds
    suffice; more can only come from an inexact comparison, which raises
    RuntimeError."""
    if not len(num):
        return None
    if num.dtype == object or max_abs(num) * max_abs(den) >= _INT64_BOUND:
        num, den = num.astype(object), den.astype(object)
    idx = int(np.argmax(num / den))
    for _ in range(len(num)):
        p, q = num[idx], den[idx]
        above = np.flatnonzero(num * q > den * p)
        if not above.size:
            return int(p), int(q)
        idx = above[0]
    raise RuntimeError(f"no maximum ratio after {len(num)} rounds: inexact comparison")


def sandwich_constants(inst: Instance, limits: OracleLimits = DEFAULT_LIMITS) -> SandwichResult:
    """The :class:`SandwichResult` of ``inst``, over the social value and
    potential columns of its state table, one column per orbit."""
    ev, orbits, (u, phi) = oracle.state_columns(
        inst, limits, lambda vals, cur, social, phi: (social, phi), orbits=True
    )
    vs, ps = ev.value_scale, ev.potential_scale
    # max social/potential over phi != 0, and max potential/social over
    # phi != 0 and social != 0, as (num, den) pairs
    live = phi != 0
    skipped = int(orbits.sizes()[~live].sum())
    best_a = _max_ratio(u[live], phi[live])
    live &= u != 0
    best_b = _max_ratio(phi[live], u[live])
    # value/potential = (u * ps) / (phi * vs)
    return SandwichResult(
        a=Fraction(best_a[0] * ps, best_a[1] * vs) if best_a else None,
        b=Fraction(best_b[0] * vs, best_b[1] * ps) if best_b else None,
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# convergence-theorem verdicts


def random_start(inst: Instance, rng: random.Random) -> State:
    return tuple(rng.randrange(1, inst.m + 1) for _ in range(inst.n))


def check_convergence_theorems(
    inst: Instance,
    eps: Fraction,
    trials: int,
    seed: int,
    limits: OracleLimits = DEFAULT_LIMITS,
    c_report: int = 8,
    include_worst_start: bool = True,
    label: Optional[str] = None,
) -> list[VerdictReport]:
    """Quality-at-convergence rows (exact, theorem consequences) plus
    empirical step-count rows against the stated bound expressions with the
    explicit constant ``c_report`` (soft rows: floats appear only there).

    Cost kinds assert the best-response corollary: cost within
    coef*(1+eps)*OPT is reached and kept (cost only falls along a trace).
    Payoff kinds assert the two generic results: the rho/(1+eps) target is
    reached, and once the potential passes rho*(1-eps)/2 * OPT the value
    stays above rho*(1-eps)/(2*H_n) * OPT (H_n replaced by 1 for the cut
    game, whose potential is exactly half the value).

    Raises ValueError unless ``eps > 0`` and at least one start runs:
    ``trials >= 0``, and ``trials >= 1`` without the worst start.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if trials < 0 or trials == 0 and not include_worst_start:
        # with no trace every row would pass or fail on nothing measured
        raise ValueError(
            f"need at least one start: trials={trials}, include_worst_start={include_worst_start}"
        )
    inst_label = label or f"{inst.kind.value}(n={inst.n},m={inst.m})"
    _, opt_value = oracle.optimum(inst, limits)
    rng = random.Random(seed)
    starts = [random_start(inst, rng) for _ in range(trials)]
    if include_worst_start:
        starts.append(oracle.worst_social_state(inst, limits)[0])
    traces = [run_br(inst, s) for s in starts]

    # every comparison below is one of scaled ints against a threshold put
    # on the same scale; only the ratios reported are Fractions
    rows: list[VerdictReport] = []
    bad_end = sum(1 for t in traces if t.exhausted)
    rows.append(make_verdict("dyn.terminates", inst_label, 0, bad_end, "=="))
    mono_bad = 0
    for t in traces:
        pots = t.scaled_potentials()
        ok = all(
            (b > a) if t.maximizes else (b < a) for a, b in zip(pots, pots[1:])
        )
        mono_bad += 0 if ok else 1
    rows.append(make_verdict("dyn.potential_monotone", inst_label, 0, mono_bad, "=="))

    n, m = inst.n, inst.m
    weights = (inst.alpha, inst.beta, inst.gamma)

    if inst.kind.minimizes:
        tau = pure_poa_bound(inst.kind, n, m, *weights) * (1 + eps)
        reach_ratio = Fraction(0)
        persist_ratio = Fraction(0)
        steps_needed = 0
        for t in traces:
            first, _ = steps_to_quality(t, tau, opt_value)
            values = t.scaled_socials()
            vs = t.value_scale
            reach_ratio = max(reach_ratio, Fraction(min(values), vs) / opt_value)
            if first is None:
                persist_ratio = max(persist_ratio, Fraction(max(values), vs) / opt_value)
            else:
                persist_ratio = max(persist_ratio, Fraction(max(values[first:]), vs) / opt_value)
                steps_needed = max(steps_needed, first)
        rows.append(make_verdict("dyn.quality.reach", inst_label, tau, reach_ratio, "<="))
        rows.append(make_verdict("dyn.quality.persist", inst_label, tau, persist_ratio, "<="))
        bound = math.ceil(c_report * n * max(1.0, math.log(m / float(eps))))
        rows.append(
            make_verdict("dyn.steps", inst_label, bound, steps_needed, "<=", soft=True)
        )
        return rows

    # payoff kinds
    params, _ = certificate_params(inst.kind, n, m, *weights)
    rho = params.rho
    b_const = harmonic(n) if inst.machine_values else Fraction(1)
    mu = params.mu
    tau1 = rho / (1 + eps)
    tau2 = rho * (1 - eps) / (2 * b_const)
    phi_threshold = rho * (1 - eps) / 2 * opt_value

    if opt_value == 0:  # value-free instance: every target is trivially met
        rows.append(make_verdict("dyn.reach1", inst_label, 0, 0, ">="))
        rows.append(make_verdict("dyn.persist2", inst_label, 0, 0, ">="))
        return rows

    reach1 = None
    steps1 = 0
    persist2 = None
    steps2 = 0
    phi_missed = 0
    for t in traces:
        values = t.scaled_socials()
        vs = t.value_scale
        best = Fraction(max(values), vs) / opt_value
        reach1 = best if reach1 is None else min(reach1, best)
        met1, _ = steps_to_quality(t, tau1, opt_value)
        if met1 is not None:
            steps1 = max(steps1, met1)
        t0, _ = _first_past(t.scaled_potentials(), phi_threshold, t.potential_scale, True)
        if t0 is None:
            phi_missed += 1
            continue
        steps2 = max(steps2, t0)
        tail = Fraction(min(values[t0:]), vs) / opt_value
        persist2 = tail if persist2 is None else min(persist2, tail)
    rows.append(make_verdict("dyn.reach1", inst_label, tau1, reach1, ">="))
    rows.append(make_verdict("dyn.potential_threshold", inst_label, 0, phi_missed, "=="))
    if persist2 is not None:
        rows.append(make_verdict("dyn.persist2", inst_label, tau2, persist2, ">="))
    b_float = float(b_const)
    bound1 = math.ceil(
        c_report
        * (b_float * n / (float(eps) * float(1 + mu)))
        * max(1.0, math.log(max(math.e, b_float * float(opt_value))))
    )
    rows.append(make_verdict("dyn.steps1", inst_label, bound1, steps1, "<=", soft=True))
    bound2 = math.ceil(
        c_report * (n / (2 * float(1 + mu))) * max(1.0, math.log(1 / float(eps)))
    )
    rows.append(make_verdict("dyn.steps2", inst_label, bound2, steps2, "<=", soft=True))
    return rows
