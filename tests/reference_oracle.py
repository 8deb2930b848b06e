"""Definitional references for the fast routes, kept out of the package.

``social_value_from_players`` sums the per-player Fraction values; it must
equal ``games.social_value`` on every state.  ``strong_nash_set_by_coalitions``
tries every nonempty coalition and every joint deviation; it must equal
``oracle.strong_nash_set``, which tests only the pure equilibria against all
states at once.  Both are exponentially slower than what they check.
``strong_nash_set_by_candidates`` is the strong scan one pure equilibrium at
a time, on the evaluator's values; ``oracle.strong_nash_set``, which refutes
a chunk of candidates per array operation, must equal it.

The ``*_by_fractions`` functions recompute the table passes one public state
at a time through the Fraction API of :mod:`conflictgames.games`, never
through the scaled-integer evaluator.

``expected_player_value_by_kind`` is the per-kind closed form of a mixed
expectation, written from the neighbour lists of :mod:`conflictgames.games`;
``oracle.expected_player_value``, which reads the evaluator's machine terms
and signed edges with no kind branch, must equal it.
``max_rho_pure_sigma_by_bisection`` brackets the best pure-deviation ratio
by bisection on rho; the exact ``smoothness.max_rho_pure_sigma`` must lie in
its interval.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from conflictgames.fastpath import StateEvaluator, to_internal, to_public
from conflictgames.games import (
    GameKind,
    Instance,
    MixedProfile,
    State,
    player_values,
    potential,
    social_value,
    validate_profile,
    validate_state,
)
from conflictgames.oracle import (
    DEFAULT_LIMITS,
    OracleLimits,
    StateSpaceExceeded,
    _guard,
    pure_ne_flags,
    state_columns,
)

import reference_evaluator as pointwise
from reference_evaluator import state_blocks


def social_value_from_players(inst: Instance, state: State) -> Fraction:
    """Definitional route: sum of :func:`player_value`.  Must equal
    :func:`social_value` exactly on every state (tested exhaustively)."""
    return sum(player_values(inst, state), Fraction(0))


def strong_nash_set_by_coalitions(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> list[tuple[State, Fraction]]:
    """Literal definition: every nonempty coalition, every joint deviation.
    Exponentially slower than :func:`strong_nash_set`; kept as the reference
    the fast route is checked against."""
    if inst.n > limits.strong_max_players:
        raise StateSpaceExceeded("strong_max_players", inst.n, limits.strong_max_players)
    _guard(inst, limits.max_states, "max_states")
    ev = StateEvaluator(inst)
    n, m = inst.n, inst.m
    players = range(n)
    out = []
    for s in itertools.product(range(m), repeat=n):
        aux = pointwise.analyze(ev, s)
        vs = pointwise.values(ev, aux)
        stable = True
        for size in range(1, n + 1):
            for coalition in itertools.combinations(players, size):
                for joint in itertools.product(range(m), repeat=size):
                    t = list(s)
                    for i, k in zip(coalition, joint):
                        t[i] = k
                    if tuple(t) == s:
                        continue
                    taux = pointwise.analyze(ev, t)
                    if all(
                        (pointwise.value(ev, taux, i, t[i]) < vs[i])
                        if ev.minimizes
                        else (pointwise.value(ev, taux, i, t[i]) > vs[i])
                        for i in coalition
                    ):
                        stable = False
                        break
                if not stable:
                    break
            if not stable:
                break
        if stable:
            out.append((to_public(s), ev.as_value(pointwise.social(ev, s))))
    return out


def strong_nash_set_by_candidates(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> list[tuple[State, Fraction]]:
    """The strong scan one pure equilibrium at a time: each candidate against
    every state, on a table the evaluator builds afresh."""
    if inst.n > limits.strong_max_players:
        raise StateSpaceExceeded("strong_max_players", inst.n, limits.strong_max_players)
    _guard(inst, limits.max_states, "max_states")
    ev = StateEvaluator(inst)
    grids, curs, socials, flags = [], [], [], []
    for grid in state_blocks(inst.n, inst.m):
        vals, cur, social, _ = ev.table(grid)
        grids.append(grid)
        curs.append(cur)
        socials.append(social)
        flags.append(pure_ne_flags(ev.minimizes, vals, cur))
    grid, social = map(np.concatenate, (grids, socials))
    cur = np.concatenate(curs, axis=1).T  # [s, i]
    out = []
    for idx in np.flatnonzero(np.concatenate(flags)):
        moved = grid != grid[idx]
        better = cur < cur[idx] if ev.minimizes else cur > cur[idx]
        # a state refutes s when someone moves and every mover is better off
        if not ((better | ~moved).all(axis=1) & moved.any(axis=1)).any():
            out.append((to_public(grid[idx].tolist()), ev.as_value(int(social[idx]))))
    return out


def _public_states(inst: Instance):
    return itertools.product(range(1, inst.m + 1), repeat=inst.n)


def extreme_state_by_fractions(inst: Instance, lowest: bool) -> tuple[State, Fraction]:
    """Lex-smallest state of lowest (or highest) social value."""
    pick = min if lowest else max
    return pick(((s, social_value(inst, s)) for s in _public_states(inst)), key=lambda p: p[1])


def _deviation_values(inst: Instance):
    """Per state: rows[i][k], player i+1's value on machine k+1 with everyone
    else pinned, read from the player values of the moved state."""
    values = {s: player_values(inst, s) for s in _public_states(inst)}
    for s in values:
        yield s, [
            [values[s[:i] + (k,) + s[i + 1:]][i] for k in range(1, inst.m + 1)]
            for i in range(inst.n)
        ]


def profile_lhs_by_fractions(inst: Instance, profile: MixedProfile) -> dict:
    """Semi-smoothness LHS at every state: each player's value redrawn from
    the profile, everyone else pinned."""
    return {
        s: sum(
            (q * v for prow, row in zip(profile, rows) for q, v in zip(prow, row) if q),
            Fraction(0),
        )
        for s, rows in _deviation_values(inst)
    }


def best_response_lhs_by_fractions(inst: Instance) -> dict:
    """Niceness LHS at every state: each player's value at its best machine."""
    pick = min if inst.kind.minimizes else max
    return {s: sum(map(pick, rows), Fraction(0)) for s, rows in _deviation_values(inst)}


def slack_verdict_by_fractions(inst: Instance, params, lhs: dict) -> tuple[bool, State, Fraction]:
    """(holds, lex-smallest worst state, slack) of LHS(s) against
    lam * opt +/- mu * value(s), with ``lhs`` mapping every state to its
    Fraction LHS."""
    _, opt = extreme_state_by_fractions(inst, inst.kind.minimizes)
    worst = None
    for s in _public_states(inst):
        value = social_value(inst, s)
        if inst.kind.minimizes:
            slack = params.lam * opt + params.mu * value - lhs[s]
        else:
            slack = lhs[s] - (params.lam * opt - params.mu * value)
        if worst is None or slack < worst[1]:
            worst = (s, slack)
    return worst[1] >= 0, worst[0], worst[1]


def sandwich_by_fractions(inst: Instance):
    """(a, b, skipped): max value/potential and max potential/value over the
    states of nonzero potential (and nonzero value for b)."""
    a = b = None
    skipped = 0
    for s in _public_states(inst):
        value, phi = social_value(inst, s), potential(inst, s)
        if phi == 0:
            skipped += 1
            continue
        a = value / phi if a is None else max(a, value / phi)
        if value != 0:
            b = phi / value if b is None else max(b, phi / value)
    return a, b, skipped


def expected_player_value_by_kind(
    inst: Instance, profile: MixedProfile, i: int, k: int
) -> Fraction:
    """E[value of player i | s_i = k] with all other players drawn from the
    product profile.  Balancing kinds reduce to pairwise marginals; sharing
    kinds need the exact distribution of the co-located count (a dynamic
    program over the independent indicator sum)."""
    validate_profile(inst, profile)
    if not 1 <= i <= inst.n:
        raise ValueError(f"player id {i} out of range 1..{inst.n}")
    if not 1 <= k <= inst.m:
        raise ValueError(f"machine id {k} out of range 1..{inst.m}")
    kind = inst.kind
    if kind.minimizes:
        load = 1 + sum(profile[j - 1][k - 1] for j in range(1, inst.n + 1) if j != i)
        conf_here = sum(profile[j - 1][k - 1] for j in inst.conflict_neighbors[i - 1])
        friends_away = sum(1 - profile[j - 1][k - 1] for j in inst.friendship_neighbors[i - 1])
        return inst.alpha * load + inst.beta * conf_here + inst.gamma * friends_away
    if kind is GameKind.MAXCUT:
        return sum(
            (1 - profile[j - 1][k - 1] for j in inst.conflict_neighbors[i - 1]), Fraction(0)
        )
    # sharing kinds: share term p_k * E[1/(1+Y)], Y = co-located others
    dist = [Fraction(1)]
    for j in range(1, inst.n + 1):
        if j == i:
            continue
        q = profile[j - 1][k - 1]
        if q == 0:
            continue
        nxt = [Fraction(0)] * (len(dist) + 1)
        for cnt, pr in enumerate(dist):
            nxt[cnt] += pr * (1 - q)
            nxt[cnt + 1] += pr * q
        dist = nxt
    share = inst.machine_values[k - 1] * sum(
        (pr / (cnt + 1) for cnt, pr in enumerate(dist)), Fraction(0)
    )
    if kind is GameKind.SWC:
        edge = sum(
            (w * (1 - profile[j - 1][k - 1]) for j, w in inst.weighted_neighbors[i - 1]),
            Fraction(0),
        )
    else:
        edge = sum(
            (w * profile[j - 1][k - 1] for j, w in inst.weighted_neighbors[i - 1]),
            Fraction(0),
        )
    return share + edge


def max_rho_pure_sigma_by_bisection(
    inst: Instance,
    sigma_state: State,
    limits: OracleLimits = DEFAULT_LIMITS,
    width: Fraction = Fraction(1, 10**9),
) -> tuple[Fraction, Fraction]:
    """Certified interval [lo, hi) around the supremum of lambda/(1+mu) over
    nonnegative (lambda, mu) that satisfy the semi-smoothness inequality with
    the given PURE deviation state at every state.

    Binary search on rho; each candidate reduces to a one-dimensional linear
    feasibility problem in mu (one constraint per state), solved exactly.
    """
    if inst.kind.minimizes:
        raise ValueError("pure-deviation ratio search applies to payoff kinds only")
    validate_state(inst, sigma_state)
    sigma = np.array(to_internal(sigma_state), dtype=np.int64)
    ev, _, (social, lhs) = state_columns(
        inst, limits,
        lambda vals, cur, social, phi: (social, vals[sigma, np.arange(inst.n)].sum(0)),
    )
    rows = [(ev.as_value(u), ev.as_value(l)) for u, l in zip(social.tolist(), lhs.tolist())]
    opt_value = ev.as_value(int(social.max()))
    if opt_value == 0:
        raise ValueError("degenerate instance: the optimum value is 0, every ratio works")

    def feasible(rho: Fraction) -> bool:
        # lambda = rho * (1 + mu); need mu >= 0 with, per state s,
        #   mu * (rho * opt - u(s)) <= L(s) - rho * opt
        lower = Fraction(0)
        upper = None
        for u_s, l_s in rows:
            a = rho * opt_value - u_s
            b = l_s - rho * opt_value
            if a > 0:
                if b < 0:
                    return False
                bound = b / a
                if upper is None or bound < upper:
                    upper = bound
            elif a == 0:
                if b < 0:
                    return False
            else:
                bound = b / a
                if bound > lower:
                    lower = bound
        return upper is None or lower <= upper

    lo = Fraction(0)
    hi = Fraction(1)
    while feasible(hi):
        lo, hi = hi, hi * 2
    while hi - lo > width:
        mid = (lo + hi) / 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi
