"""Max-gain best-response dynamics, one pointwise evaluation per step, and
the convergence verdicts on ``Fraction``s.

``run_br_reference`` is the reference for ``conflictgames.dynamics.run_br``,
which keeps the state in a move table updated per move instead;
``test_br_equivalence`` requires equal ``Trace`` objects.  Every step here
re-analyzes the whole state, asks for every player's value on every machine,
and recomputes the social value and the potential from scratch.

``steps_to_quality_reference`` and ``check_convergence_theorems_reference``
are the verdicts as they read a trace's exact ``Fraction``s (the start's
fields and each ``TraceStep``), the references for ``steps_to_quality`` and
``check_convergence_theorems``, which compare scaled ints against thresholds
put on the same scale.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from conflictgames import oracle
from conflictgames.dynamics import Trace, random_start
from conflictgames.fastpath import StateEvaluator, to_internal, to_public
from conflictgames.games import GameKind, Instance, State, harmonic, validate_state
from conflictgames.oracle import DEFAULT_LIMITS, OracleLimits
from conflictgames.smoothness import certificate_params
from conflictgames.verdicts import VerdictReport, make_verdict

import reference_evaluator as pointwise


def run_br_reference(inst: Instance, start: State, max_steps: Optional[int] = None) -> Trace:
    """Iterate max-gain best responses until no player improves (or the step
    budget runs out, which is flagged, not an error)."""
    validate_state(inst, start)
    ev = StateEvaluator(inst)
    n, m = inst.n, inst.m
    minimizes = ev.minimizes
    cur = list(to_internal(start))
    records = []
    exhausted = False
    while True:
        aux = pointwise.analyze(ev, cur)
        best_gain = 0
        best_player = -1
        best_machine = -1
        for i in range(n):
            here = pointwise.value(ev, aux, i, cur[i])
            for k in range(m):
                if k == cur[i]:
                    continue
                dev = pointwise.value(ev, aux, i, k)
                gain = here - dev if minimizes else dev - here
                if gain > best_gain:
                    best_gain, best_player, best_machine = gain, i, k
        if best_gain <= 0:
            break
        if max_steps is not None and len(records) >= max_steps:
            exhausted = True
            break
        source = cur[best_player]
        cur[best_player] = best_machine
        records.append((best_player + 1, source + 1, best_machine + 1,
                        best_gain, pointwise.potential(ev, cur), pointwise.social(ev, cur)))
    start0 = to_internal(start)
    return Trace(
        start=tuple(start),
        end=to_public(cur),
        records=tuple(records),
        start_social=ev.as_value(pointwise.social(ev, start0)),
        start_potential=ev.as_potential(pointwise.potential(ev, start0)),
        maximizes=not minimizes,
        exhausted=exhausted,
        value_scale=ev.value_scale,
        potential_scale=ev.potential_scale,
    )


def _socials(trace: Trace) -> list[Fraction]:
    return [trace.start_social] + [s.social for s in trace.steps]


def _potentials(trace: Trace) -> list[Fraction]:
    return [trace.start_potential] + [s.potential for s in trace.steps]


def steps_to_quality_reference(
    trace: Trace, target_ratio: Fraction, opt_value: Fraction
) -> tuple[Optional[int], bool]:
    """First trace position (0 = start) whose social value is within
    ``target_ratio`` times the optimum, and whether that quality persists to
    the end of the trace.  (None, False) when the trace never gets there."""
    threshold = Fraction(target_ratio) * Fraction(opt_value)
    values = _socials(trace)
    if trace.maximizes:
        met = [v >= threshold for v in values]
    else:
        met = [v <= threshold for v in values]
    first = next((t for t, ok in enumerate(met) if ok), None)
    if first is None:
        return None, False
    return first, all(met[first:])


def check_convergence_theorems_reference(
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
    traces = [run_br_reference(inst, s) for s in starts]

    rows: list[VerdictReport] = []
    bad_end = sum(1 for t in traces if t.exhausted)
    rows.append(make_verdict("dyn.terminates", inst_label, 0, bad_end, "=="))
    mono_bad = 0
    for t in traces:
        pots = _potentials(t)
        ok = all(
            (b > a) if t.maximizes else (b < a) for a, b in zip(pots, pots[1:])
        )
        mono_bad += 0 if ok else 1
    rows.append(make_verdict("dyn.potential_monotone", inst_label, 0, mono_bad, "=="))

    params, _ = certificate_params(
        inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma
    )
    n, m = inst.n, inst.m

    if inst.kind.minimizes:
        if inst.kind is GameKind.BWC and n >= m:
            coef = 2 - Fraction(m, n)  # the niceness constant, tighter than lambda
        else:
            coef = params.lam
        tau = coef * (1 + eps)
        reach_ratio = Fraction(0)
        persist_ratio = Fraction(0)
        steps_needed = 0
        for t in traces:
            first, _ = steps_to_quality_reference(t, tau, opt_value)
            values = _socials(t)
            reach_ratio = max(reach_ratio, min(values) / opt_value)
            if first is None:
                persist_ratio = max(persist_ratio, max(values) / opt_value)
            else:
                persist_ratio = max(persist_ratio, max(values[first:]) / opt_value)
                steps_needed = max(steps_needed, first)
        rows.append(make_verdict("dyn.quality.reach", inst_label, tau, reach_ratio, "<="))
        rows.append(make_verdict("dyn.quality.persist", inst_label, tau, persist_ratio, "<="))
        bound = math.ceil(c_report * n * max(1.0, math.log(m / float(eps))))
        rows.append(
            make_verdict("dyn.steps", inst_label, bound, steps_needed, "<=", soft=True)
        )
        return rows

    # payoff kinds
    rho = params.rho
    b_const = Fraction(1) if inst.kind is GameKind.MAXCUT else harmonic(n)
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
        values = _socials(t)
        best = max(values)
        reach1 = best / opt_value if reach1 is None else min(reach1, best / opt_value)
        met1 = next((i for i, v in enumerate(values) if v >= tau1 * opt_value), None)
        if met1 is not None:
            steps1 = max(steps1, met1)
        pots = _potentials(t)
        t0 = next((i for i, p in enumerate(pots) if p >= phi_threshold), None)
        if t0 is None:
            phi_missed += 1
            continue
        steps2 = max(steps2, t0)
        tail = min(values[t0:]) / opt_value
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
