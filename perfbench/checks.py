"""Independent output checks through the exact Fraction API of
``conflictgames.games`` (never through the scaled-integer evaluator the
checked passes use).  Each check returns a list of failure messages; an empty
list means the job's outputs hold.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from conflictgames.games import (
    GameKind,
    canonical_deviation_profile,
    deviation_gain,
    harmonic,
    player_value,
    potential,
    social_value,
)
from conflictgames.smoothness import certificate_params


def _better(minimizes: bool, a: Fraction, b: Fraction) -> bool:
    """True when ``a`` is strictly better than ``b``."""
    return a < b if minimizes else a > b


def _with(state: tuple, i: int, k: int) -> tuple:
    return state[: i - 1] + (k,) + state[i:]


def _is_pure_ne(inst, state) -> bool:
    """No player strictly gains by a unilateral move."""
    minimizes = inst.kind.minimizes
    for i in range(1, inst.n + 1):
        here = player_value(inst, state, i)
        for k in range(1, inst.m + 1):
            if k != state[i - 1] and _better(minimizes, player_value(inst, _with(state, i, k), i),
                                             here):
                return False
    return True


def _within_bound(inst, opt: Fraction, value: Fraction, bound: Fraction) -> bool:
    """value/opt <= bound for cost kinds, opt/value <= bound for payoff kinds."""
    if inst.kind.minimizes:
        return value <= bound * opt
    return opt <= bound * value


def _slack(inst, params, opt: Fraction, state, lhs: Fraction) -> Fraction:
    """Semi-smoothness / niceness margin at one state (>= 0 when it holds)."""
    value = social_value(inst, state)
    if inst.kind.minimizes:
        return params.lam * opt + params.mu * value - lhs
    return lhs - (params.lam * opt - params.mu * value)


def check_scan(job, out) -> list[str]:
    inst = job.inst
    minimizes = inst.kind.minimizes
    params, bound = job.params
    bad = []
    opt_state, opt = out["optimum"]
    if social_value(inst, opt_state) != opt:
        bad.append("optimum value does not match its state")
    pure = out["pure"]
    if not pure:
        bad.append("empty pure Nash set in a potential game")
    for s, v in pure:
        if social_value(inst, s) != v:
            bad.append(f"pure NE {s} value mismatch")
        if not _is_pure_ne(inst, s):
            bad.append(f"pure NE {s} has an improving deviation")
        if _better(minimizes, v, opt):
            bad.append(f"pure NE {s} beats the optimum")
    if pure:
        worst = max(v for _, v in pure) if minimizes else min(v for _, v in pure)
        if not _within_bound(inst, opt, worst, bound):
            bad.append("pure price of anarchy exceeds the certified CCE bound")

    semi = out["semi"]
    profile = canonical_deviation_profile(inst)
    s = semi.worst_state
    lhs = sum(
        (
            profile[i - 1][k - 1] * player_value(inst, _with(s, i, k), i)
            for i in range(1, inst.n + 1)
            for k in range(1, inst.m + 1)
            if profile[i - 1][k - 1]
        ),
        Fraction(0),
    )
    if not semi.holds or semi.slack < 0:
        bad.append("semi-smoothness fails with the certificate parameters")
    if _slack(inst, params, opt, s, lhs) != semi.slack:
        bad.append("semi-smoothness slack does not match its worst state")

    nice = out["nice"]
    pick = min if minimizes else max
    s = nice.worst_state
    lhs = sum(
        (
            pick(player_value(inst, _with(s, i, k), i) for k in range(1, inst.m + 1))
            for i in range(1, inst.n + 1)
        ),
        Fraction(0),
    )
    if not nice.holds or nice.slack < 0:
        bad.append("niceness fails although semi-smoothness holds")
    if _slack(inst, params, opt, s, lhs) != nice.slack:
        bad.append("niceness slack does not match its worst state")

    floors = out["floors"]
    if not floors.holds:
        bad.append(f"optimum lower bound fails: {floors.witness}")
    if bool(floors.checks) != inst.kind.balancing:
        bad.append("lower-bound checks do not match the kind")

    sw = out["sandwich"]
    if inst.kind.balancing or inst.kind is GameKind.MAXCUT:
        if (sw.a, sw.b) != (2, Fraction(1, 2)):
            bad.append(f"sandwich constants {sw.a}, {sw.b} != 2, 1/2")
    elif sw.a is None or sw.a > 2 or sw.b > harmonic(inst.n):
        bad.append(f"sandwich constants {sw.a}, {sw.b} out of range")
    phi = potential(inst, opt_state)
    if phi != 0 and sw.a is not None and (opt > sw.a * phi or (sw.b and phi > sw.b * opt)):
        bad.append("sandwich constants violated at the optimum")

    if job.strong:
        pure_states = {s for s, _ in pure}
        for s, v in out["strong"]:
            if s not in pure_states:
                bad.append(f"strong NE {s} is not a pure NE")
            elif _pair_deviation(inst, s):
                bad.append(f"strong NE {s} has an improving pair deviation")
    return bad


def _pair_deviation(inst, state) -> bool:
    """True when two players can move jointly so that both strictly gain."""
    minimizes = inst.kind.minimizes
    for i, j in itertools.combinations(range(1, inst.n + 1), 2):
        vi, vj = player_value(inst, state, i), player_value(inst, state, j)
        for ki in range(1, inst.m + 1):
            for kj in range(1, inst.m + 1):
                if ki == state[i - 1] or kj == state[j - 1]:
                    continue
                t = _with(_with(state, i, ki), j, kj)
                if _better(minimizes, player_value(inst, t, i), vi) and _better(
                    minimizes, player_value(inst, t, j), vj
                ):
                    return True
    return False


def check_lp(job, sol) -> list[str]:
    inst = job.inst
    minimizes = inst.kind.minimizes
    bad = []
    dist = sol.distribution
    if any(q <= 0 for _, q in dist):
        bad.append("non-positive probability in the support")
    if sum((q for _, q in dist), Fraction(0)) != 1:
        bad.append("probabilities do not sum to 1")
    for i in range(1, inst.n + 1):
        for k in range(1, inst.m + 1):
            gain = sum((q * deviation_gain(inst, s, i, k) for s, q in dist), Fraction(0))
            if gain > 0:
                bad.append(f"deviation constraint ({i}, {k}) violated by {gain}")
    if sum((q * social_value(inst, s) for s, q in dist), Fraction(0)) != sol.value:
        bad.append("reported value differs from the distribution's social value")
    states = list(itertools.product(range(1, inst.m + 1), repeat=inst.n))
    values = [social_value(inst, s) for s in states]
    opt = min(values) if minimizes else max(values)
    ne_values = [v for s, v in zip(states, values) if _is_pure_ne(inst, s)]
    worst_ne = max(ne_values) if minimizes else min(ne_values)
    if _better(minimizes, sol.value, worst_ne):
        bad.append("worst CCE is better than the worst pure NE")
    _, bound = certificate_params(inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma)
    if not _within_bound(inst, opt, sol.value, bound):
        bad.append("worst CCE exceeds the certified bound")
    if job.key.endswith("bwc-multipartite(2)") and sol.value != 14:
        bad.append(f"criterion-04 worst CCE is {sol.value}, expected 14")
    return bad


def check_br(job, trace) -> list[str]:
    inst = job.inst
    minimizes = inst.kind.minimizes
    bad = []
    if trace.exhausted:
        bad.append("step budget exhausted")
    state = tuple(job.start)
    if trace.start != state:
        bad.append("trace start differs from the given start")
    phi = potential(inst, state)
    if phi != trace.start_potential or social_value(inst, state) != trace.start_social:
        bad.append("start potential or value mismatch")
    for step in trace.steps:
        if state[step.mover - 1] != step.source:
            bad.append(f"step {step.index}: mover not on its source machine")
            return bad
        gain = deviation_gain(inst, state, step.mover, step.target)
        if gain <= 0 or gain != step.gain:
            bad.append(f"step {step.index}: gain {step.gain} but recheck gives {gain}")
        # exact potential: every move shifts it by the mover's gain
        nxt = phi - gain if minimizes else phi + gain
        if step.potential != nxt or not _better(minimizes, nxt, phi):
            bad.append(f"step {step.index}: potential not strictly monotone")
        phi = nxt
        state = _with(state, step.mover, step.target)
    if state != trace.end:
        bad.append("replayed moves do not reach the reported end")
    if potential(inst, state) != phi:
        bad.append("end potential mismatch")
    if trace.steps and social_value(inst, state) != trace.steps[-1].social:
        bad.append("end value mismatch")
    if not _is_pure_ne(inst, state):
        bad.append("end state has an improving deviation")
    return bad
