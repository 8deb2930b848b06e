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
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from conflictgames.fastpath import StateEvaluator, state_blocks, to_public
from conflictgames.games import (
    Instance,
    MixedProfile,
    State,
    player_values,
    potential,
    social_value,
)
from conflictgames.oracle import (
    DEFAULT_LIMITS,
    OracleLimits,
    StateSpaceExceeded,
    _guard,
    pure_ne_flags,
)


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
        aux = ev.analyze(s)
        vs = ev.values(aux)
        stable = True
        for size in range(1, n + 1):
            for coalition in itertools.combinations(players, size):
                for joint in itertools.product(range(m), repeat=size):
                    t = list(s)
                    for i, k in zip(coalition, joint):
                        t[i] = k
                    if tuple(t) == s:
                        continue
                    taux = ev.analyze(t)
                    if all(
                        (ev.value(taux, i, t[i]) < vs[i])
                        if ev.minimizes
                        else (ev.value(taux, i, t[i]) > vs[i])
                        for i in coalition
                    ):
                        stable = False
                        break
                if not stable:
                    break
            if not stable:
                break
        if stable:
            out.append((to_public(s), ev.as_value(ev.social(s))))
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
        vals, cur, social = ev.table(grid)
        grids.append(grid)
        curs.append(cur)
        socials.append(social)
        flags.append(pure_ne_flags(ev, vals, cur))
    grid, cur, social = map(np.concatenate, (grids, curs, socials))
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
