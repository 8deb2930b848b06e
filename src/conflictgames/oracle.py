"""Brute-force ground truth: state enumeration, optima, pure/strong Nash sets,
exact expectations for product profiles, and the worst coarse-correlated
equilibrium via an exact-rational LP.

Enumeration passes, the worst-CCE LP's columns included, are whole-array
reductions: each pass asks :func:`state_columns` for the per-state arrays it
needs and reduces each of them once; every reported value is an exact
Fraction.  Entry ``i`` along the last axis of every such array is the state
of lex index ``i``, decoded to a tuple only where a pass reports it, so ties
(optimum, worst equilibrium, tightest slack) resolve to the lexicographically
smallest state through numpy's first ``argmin``/``argmax``/``flatnonzero``.

Expectations under a product profile read the evaluator's machine terms,
bases and signed edges with no kind branch: the machine term is averaged over
the exact distribution of the co-located count, and each signed edge is
weighted by its neighbour's probability.

One table per instance: :func:`state_columns` keeps the table of the last
instance it was asked for (one entry, keyed by instance equality, the last
one dropped before the next is built), so the optimum, the Nash and strong
sets, the smoothness and niceness checks, the floors and the sandwich
constants over one instance share one evaluator and one table build.  The
split into blocks is decided here alone, in :func:`_whole`, which serves
both cases:

* kept: the four arrays of :meth:`StateEvaluator.table` (``vals[k, i, s]``,
  ``cur[i, s]``, ``social[s]`` and the potential ``phi[s]``, the states
  innermost, as it lays them out) over all states at the evaluator's
  ``dtype()``, all read-only; the states themselves are not kept.  A table of
  one build block keeps the arrays :meth:`StateEvaluator.table` returned, a
  larger one is filled block by block, along the state axis, into arrays
  allocated once.  A pass maps the whole table to its columns in one call,
  each column with the states last, and reduces over the leading axes;
* budget: a table of more than ``fastpath._TABLE_CELLS`` (state, player,
  machine) cells is not kept.  The pass's columns are built block by block
  and filled into whole arrays, so memory is the tables of two blocks plus
  O(states) in columns, up to ``max_states``;
* widening: :func:`state_columns` is the one place that widens.  When a
  pass's ``factor`` needs ``object`` (see :meth:`StateEvaluator.dtype`) and
  the table is int64, its ``columns`` read the kept table, or each streamed
  block, through ``astype(object)``; the values are the same exact integers.

The strong scan (:func:`strong_nash_set`) tests one pure equilibrium per
orbit under renaming the machines (:func:`orbit_representatives`; an orbit
is one state when the machines' terms differ) and gives each verdict to the
whole orbit.  It tests the representatives in chunks of at most
``_STRONG_CELLS`` (candidate, state) cells.  Per player, one elementwise
``stay | better`` over (candidates x states) narrows the states that still
refute some candidate of the chunk; ``better`` compares the player's row of
``cur`` in place, ``<`` for the cost kinds and ``>`` for the payoff kinds
(exact on int64 and on ``object``).  A candidate survives when no state
other than itself is left for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from . import simplex
from .fastpath import _TABLE_CELLS, StateEvaluator, lex_states, state_blocks
from .games import (
    GameKind,
    Instance,
    MixedProfile,
    State,
    _check_machine,
    _check_player,
    validate_profile,
)


@dataclass(frozen=True)
class OracleLimits:
    """State-space caps; exceeding one raises :class:`StateSpaceExceeded`."""

    max_states: int = 2_000_000
    lp_max_states: int = 2_000
    strong_max_players: int = 10


DEFAULT_LIMITS = OracleLimits()


class StateSpaceExceeded(RuntimeError):
    def __init__(self, limit_name: str, needed, allowed):
        super().__init__(
            f"state space needs {needed} but the configured {limit_name} allows {allowed}"
        )
        self.limit_name = limit_name


def state_count(inst: Instance) -> int:
    return inst.m ** inst.n


def _guard(inst: Instance, cap: int, name: str) -> None:
    if state_count(inst) > cap:
        raise StateSpaceExceeded(name, state_count(inst), cap)


def enumerate_states(inst: Instance, limits: OracleLimits = DEFAULT_LIMITS) -> Iterator[State]:
    """All m^n states exactly once, lexicographic order, 1-based entries."""
    _guard(inst, limits.max_states, "max_states")
    return itertools.product(range(1, inst.m + 1), repeat=inst.n)


# the last state table within _TABLE_CELLS: (instance, evaluator, table)
_kept: Optional[tuple] = None


def _whole(ev: StateEvaluator, columns):
    """``columns`` of the state table of ``ev`` over all states, lex order,
    built block by block: the arrays of a single block as they are, those of
    several filled along their last (state) axis into arrays allocated once.
    Besides those arrays, no more than two blocks' tables are held at a
    time."""
    count = state_count(ev.inst)
    whole, start = None, 0
    for grid in state_blocks(ev.n, ev.m):
        # the last block's table is dropped only once this one is built, so
        # the allocator reuses its pages instead of faulting in fresh ones
        table = ev.table(grid)
        part = columns(*table)
        if len(grid) == count:
            return part
        if whole is None:
            whole = tuple(np.empty_like(a, shape=a.shape[:-1] + (count,)) for a in part)
        stop = start + len(grid)
        for array, column in zip(whole, part):
            array[..., start:stop] = column
        start = stop
    return whole


def _whole_table(inst: Instance):
    """(evaluator, table) of ``inst``: ``(vals, cur, social, phi)`` over all
    states at ``dtype()``, read-only; table is None when it has more than
    ``_TABLE_CELLS`` cells.  The last table within that budget is kept, so
    the passes over one instance build it once."""
    global _kept
    if _kept is not None and _kept[0] == inst:
        return _kept[1:]
    _kept = None  # free the last table before building the next
    ev = StateEvaluator(inst)
    if state_count(inst) * inst.n * inst.m > _TABLE_CELLS:
        return ev, None
    table = _whole(ev, lambda *table: table)
    for array in table:
        array.flags.writeable = False
    _kept = (inst, ev, table)
    return ev, table


def state_columns(inst: Instance, limits: OracleLimits, columns, factor: int = 1):
    """(evaluator, ``columns(vals, cur, social, phi)``) over all states, lex
    order; raises :class:`StateSpaceExceeded` first when the state space is
    too big.

    ``columns`` maps a state table (see :meth:`StateEvaluator.table`) to a
    tuple of arrays whose last axis is the states.  It is called once on the
    kept table, or past the budget once per block, the results filled into
    whole arrays along that axis.  Either way it reads the table widened to ``object`` when it
    multiplies the table by ``factor`` and ``dtype(factor)`` needs that."""
    _guard(inst, limits.max_states, "max_states")
    ev, table = _whole_table(inst)
    read = columns
    if ev.dtype(factor) is not ev.dtype():
        # the same exact values, on arrays that hold the caller's products
        def read(*table):
            return columns(*(a.astype(object) for a in table))
    if table is None:
        return ev, _whole(ev, read)
    return ev, read(*table)


def _public_states(inst: Instance, idx: np.ndarray) -> list[State]:
    """The public states of lex indexes ``idx``, an int64 array."""
    return [tuple(state) for state in (lex_states(inst.n, inst.m, idx) + 1).tolist()]


def _public(inst: Instance, idx: int) -> State:
    """The public state of lex index ``idx``."""
    return _public_states(inst, np.array([idx], dtype=np.int64))[0]


def _extreme_state(
    inst: Instance, limits: OracleLimits, lowest: bool
) -> tuple[State, Fraction]:
    """The state of lowest (or highest) social value; lex-smallest tie."""
    ev, (social,) = state_columns(inst, limits, lambda vals, cur, social, phi: (social,))
    idx = int(social.argmin() if lowest else social.argmax())
    return _public(inst, idx), ev.as_value(int(social[idx]))


def optimum(inst: Instance, limits: OracleLimits = DEFAULT_LIMITS) -> tuple[State, Fraction]:
    """Social optimum (min for cost kinds, max for payoff kinds); lex-smallest tie."""
    return _extreme_state(inst, limits, lowest=inst.kind.minimizes)


def worst_social_state(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> tuple[State, Fraction]:
    """The socially worst state (max cost / min utility); lex-smallest tie.
    Used by the worst-start mode of the dynamics."""
    return _extreme_state(inst, limits, lowest=not inst.kind.minimizes)


def pure_ne_flags(minimizes: bool, vals, cur):
    """Per state: no player has a strictly better machine.  One machine at a
    time, so a whole kept table needs only boolean temporaries."""
    stay = np.ones(cur.shape, dtype=bool)
    for row in vals:  # [i, s] of one machine
        stay &= (row >= cur) if minimizes else (row <= cur)
    return stay.all(0)


def pure_nash_set(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> list[tuple[State, Fraction]]:
    """All states with no strictly improving unilateral deviation, lex order."""
    minimizes = inst.kind.minimizes
    ev, (flags, social) = state_columns(
        inst, limits,
        lambda vals, cur, social, phi: (pure_ne_flags(minimizes, vals, cur), social),
    )
    idx = np.flatnonzero(flags)
    return _valued_states(ev, idx, social[idx])


def _valued_states(ev: StateEvaluator, idx, social) -> list[tuple[State, Fraction]]:
    """``(public state, value)`` pairs of the states of lex indexes ``idx``
    and their scaled social values."""
    social = social.tolist()
    value = {v: ev.as_value(v) for v in set(social)}
    return [(state, value[v]) for state, v in zip(_public_states(ev.inst, idx), social)]


# ---------------------------------------------------------------------------
# strong Nash equilibria
#
# A coalition deviation (C, s'_C) strictly improving every member exists iff
# the set D of players that actually change machines (nonempty, D subseteq C)
# strictly improves under the same outcome: non-movers in C never affect the
# outcome, and movers are themselves a valid coalition.  So a state is a
# strong equilibrium iff no alternative state strictly improves all of its
# movers.  Singleton coalitions make every strong equilibrium a pure one, so
# only the pure equilibria are tested, a chunk of them against all states at
# once.  The coalition definition itself is kept in the tests as the
# reference.
#
# A player's value is the machine term of its machine at its occupancy plus
# its base and the signed weights of its neighbours on the same machine.
# When every machine has the same machine term, renaming the machines by a
# permutation p therefore keeps every player's value at every state.  A
# deviation s -> t then maps to p(s) -> p(t), with the same movers and the
# same values on both sides, so s is strong exactly when p(s) is: one pure
# equilibrium per orbit is tested, and its verdict holds for the whole orbit.

# upper bound on the (candidate, state) cells of one chunk of the strong scan
_STRONG_CELLS = 1 << 18


def orbit_representatives(ev: StateEvaluator, idx: np.ndarray) -> np.ndarray:
    """The lex index of the representative of each state of lex index
    ``idx`` (an int64 array) under renaming the machines.  When every machine
    of ``ev`` has the same machine term, that is the state with its machines
    renumbered 0, 1, ... in order of first appearance, the lex-smallest state
    of its orbit; otherwise every state is its own representative."""
    if any(row != ev.mach[0] for row in ev.mach):
        return idx
    machine = lex_states(ev.n, ev.m, idx)
    label = np.empty_like(machine)
    seen = np.zeros(len(idx), dtype=np.int64)  # distinct machines before player i
    for i in range(ev.n):
        label[:, i] = seen
        for j in range(i):
            np.copyto(label[:, i], label[:, j], where=machine[:, j] == machine[:, i])
        seen += label[:, i] == seen
    return label @ ev.m ** np.arange(ev.n - 1, -1, -1, dtype=np.int64)


def strong_nash_set(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> list[tuple[State, Fraction]]:
    """All states no coalition can leave with every member strictly better off."""
    if inst.n > limits.strong_max_players:
        raise StateSpaceExceeded("strong_max_players", inst.n, limits.strong_max_players)
    minimizes = inst.kind.minimizes
    ev, (cur, social, flags) = state_columns(
        inst, limits,
        lambda vals, cur, social, phi: (cur, social, pure_ne_flags(minimizes, vals, cur)),
    )
    # row i of machine, like row i of cur, is player i's at every state
    shape = (inst.m,) * inst.n
    machine = np.indices(shape, np.min_scalar_type(inst.m - 1)).reshape(inst.n, -1)
    better = np.less if minimizes else np.greater
    candidates = np.flatnonzero(flags)
    reps, orbit = np.unique(orbit_representatives(ev, candidates), return_inverse=True)
    step = max(1, _STRONG_CELLS // len(social))
    strong = np.zeros(len(reps), dtype=bool)
    for start in range(0, len(reps), step):
        chunk = reps[start : start + step]
        # refutes[c, j]: at states[j] every player so far stays or is better
        # off than at candidate c.  Only the states where that holds for some
        # candidate of the chunk go on to the next player.
        states = np.arange(len(social))
        refutes = np.ones((len(chunk), len(states)), dtype=bool)
        for here, values in zip(machine, cur):
            ok = here[states] == here[chunk, None]
            ok |= better(values[states], values[chunk, None])
            refutes &= ok
            live = np.flatnonzero(refutes.any(0))
            states, refutes = states[live], refutes.take(live, axis=1)
        # the candidate itself is the one state where nobody moves
        refutes &= states != chunk[:, None]
        strong[start : start + step] = ~refutes.any(1)
    idx = candidates[strong[orbit]]
    return _valued_states(ev, idx, social[idx])


# ---------------------------------------------------------------------------
# exact expectations under product profiles


def _expected_value(ev: StateEvaluator, profile: MixedProfile, i: int, k: int) -> Fraction:
    """E[value of player i | s_i = k] (0-based) with all other players drawn
    from the product profile: ``(sum_c P(Y_k = c) mach[k][c + 1] + base[i] +
    sum_j W[i, j] q_jk) / value_scale``, with ``Y_k`` the number of others on
    ``k`` (a dynamic program over the independent indicator sum) and ``W``
    the signed weights of ``edges``."""
    dist = [Fraction(1)]  # dist[c] = P(Y_k = c) over the players so far
    for j, row in enumerate(profile):
        q = row[k]
        if j != i and q != 0:
            dist = [a * (1 - q) + b * q for a, b in zip(dist + [0], [0] + dist)]
    machine = sum(p * ev.mach[k][c + 1] for c, p in enumerate(dist))
    edges = sum(w * profile[a + b - i][k] for a, b, w in ev.edges if i in (a, b))
    return Fraction(machine + ev.base[i] + edges, ev.value_scale)


def expected_player_value(
    inst: Instance, profile: MixedProfile, i: int, k: int
) -> Fraction:
    """E[value of player i | s_i = k] with all other players drawn from the
    product profile."""
    validate_profile(inst, profile)
    _check_player(inst, i)
    _check_machine(inst, k)
    return _expected_value(StateEvaluator(inst), profile, i - 1, k - 1)


def _expected_row(ev: StateEvaluator, profile: MixedProfile, i: int) -> tuple[list, Fraction]:
    """(E[value of player i | s_i = k] for every machine k, E[value of player
    i]) with everyone drawn from the profile (0-based i)."""
    row = [_expected_value(ev, profile, i, k) for k in range(ev.m)]
    return row, sum((q * v for q, v in zip(profile[i], row) if q != 0), Fraction(0))


def profile_expected_value(inst: Instance, profile: MixedProfile, i: int) -> Fraction:
    """E[value of player i] with everyone (including i) drawn from the profile."""
    validate_profile(inst, profile)
    _check_player(inst, i)
    return _expected_row(StateEvaluator(inst), profile, i - 1)[1]


def verify_mixed_ne(inst: Instance, profile: MixedProfile) -> bool:
    """Exact check: no player can improve in expectation by a pure deviation."""
    validate_profile(inst, profile)
    ev = StateEvaluator(inst)
    for i in range(inst.n):
        row, current = _expected_row(ev, profile, i)
        if (min(row) < current) if ev.minimizes else (max(row) > current):
            return False
    return True


# ---------------------------------------------------------------------------
# worst coarse-correlated equilibrium (exact LP)


@dataclass(frozen=True)
class CceSolution:
    """Worst CCE: positive-mass states with probabilities, and the social value."""

    distribution: tuple[tuple[State, Fraction], ...]
    value: Fraction


def worst_cce_value(inst: Instance, limits: OracleLimits = DEFAULT_LIMITS) -> CceSolution:
    """Extremal social value over the CCE polytope (max cost / min utility).

    One LP variable per state; n*m unilateral-deviation constraints plus the
    probability simplex; solved with the exact simplex.  The polytope always
    contains the pure equilibria, so infeasibility is an internal error.
    """
    count = state_count(inst)
    if count > limits.lp_max_states:
        raise StateSpaceExceeded("lp_max_states", count, limits.lp_max_states)
    minimizes = inst.kind.minimizes

    def columns(vals, cur, social, phi):
        # cost: E[dev - cur] >= 0;  payoff: E[cur - dev] >= 0; one row per
        # (player, machine), in that order
        diff = vals - cur if minimizes else cur - vals
        return social, diff.transpose(1, 0, 2).reshape(-1, len(social))

    ev, (social, diff) = state_columns(inst, limits, columns)
    try:
        sol = simplex.solve(
            objective=social.tolist(),
            a_eq=[[1] * count],
            b_eq=[1],
            a_ge=diff,
            b_ge=[0] * (inst.n * inst.m),
            maximize=ev.minimizes,
        )
    except simplex.LpInfeasible as exc:  # pure equilibria always exist
        raise RuntimeError("internal error: CCE polytope reported empty") from exc
    idx = np.flatnonzero([q != 0 for q in sol.x])
    support = tuple(zip(_public_states(inst, idx), (sol.x[i] for i in idx.tolist())))
    return CceSolution(distribution=support, value=sol.value / ev.value_scale)


# ---------------------------------------------------------------------------
# full per-instance report


@dataclass(frozen=True)
class EquilibriumReport:
    optimum: tuple[State, Fraction]
    pure_ne: tuple[tuple[State, Fraction], ...]
    strong_ne: tuple[tuple[State, Fraction], ...]
    poa: Optional[Fraction]
    pos: Optional[Fraction]
    strong_poa: Optional[Fraction]


def _ratio(kind: GameKind, opt_value: Fraction, eq_value: Fraction) -> Optional[Fraction]:
    """Quality ratio >= 1; None when the payoff-side denominator is zero."""
    if eq_value == opt_value:
        return Fraction(1)
    if kind.minimizes:
        return eq_value / opt_value
    return opt_value / eq_value if eq_value != 0 else None


def equilibrium_report(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS, with_strong: bool = True
) -> EquilibriumReport:
    opt_state, opt_value = optimum(inst, limits)
    pure = pure_nash_set(inst, limits)
    if not pure:
        raise RuntimeError("internal error: potential games always have a pure equilibrium")
    values = [v for _, v in pure]
    if inst.kind.minimizes:
        worst, best = max(values), min(values)
    else:
        worst, best = min(values), max(values)
    strong: tuple = ()
    strong_poa = None
    if with_strong:
        strong = tuple(strong_nash_set(inst, limits))
        if strong:
            svalues = [v for _, v in strong]
            sworst = max(svalues) if inst.kind.minimizes else min(svalues)
            strong_poa = _ratio(inst.kind, opt_value, sworst)
    return EquilibriumReport(
        optimum=(opt_state, opt_value),
        pure_ne=tuple(pure),
        strong_ne=strong,
        poa=_ratio(inst.kind, opt_value, worst),
        pos=_ratio(inst.kind, opt_value, best),
        strong_poa=strong_poa,
    )
