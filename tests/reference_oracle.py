"""Definitional references for the fast routes, kept out of the package.

``social_value_from_players`` sums the per-player Fraction values; it must
equal ``games.social_value`` on every state.  ``strong_nash_set_by_coalitions``
tries every nonempty coalition and every joint deviation; it must equal
``oracle.strong_nash_set``, which tests only the pure equilibria against all
states at once.  Both are exponentially slower than what they check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from conflictgames.fastpath import StateEvaluator, to_public
from conflictgames.games import Instance, State, player_values
from conflictgames.oracle import (
    DEFAULT_LIMITS,
    OracleLimits,
    StateSpaceExceeded,
    _guard,
    _states0,
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
    for s in _states0(inst):
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
