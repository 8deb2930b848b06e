"""Brute-force ground truth: state enumeration, optima, pure/strong Nash sets,
exact expectations for product profiles, and the worst coarse-correlated
equilibrium via an exact-rational LP.

Enumeration passes, the worst-CCE LP's columns included, are whole-array
reductions: each pass asks :func:`state_columns` for the arrays it needs, one
entry per column of the state table, and reduces each of them once; every
reported value is an exact Fraction.  The columns, in order, are those of an
:class:`Orbits`:

* one per orbit under renaming the machines, for the passes that read only
  what is constant on an orbit (the social value, the potential, the pure-NE
  flag, the niceness best-response sum, the semi-smoothness LHS under a
  profile whose rows are uniform over all m machines) when every machine has
  the same machine term.  That holds for every conflict, friendship and cut
  instance and for the sharing kinds with equal machine values, and is read
  from the evaluator's ``symmetric``, never from the kind: renaming the
  machines then keeps every player's value at every state.  A column is the
  orbit's restricted growth string, in lex order, about m^n/m! of them;
* one per state, column ``i`` the state of lex index ``i``, otherwise: for
  the strong scan's deviations, the worst-CCE LP, the pure-deviation ratio
  (its sigma-row sum depends on the machine labels) and semi-smoothness with
  a non-uniform profile, and on every instance whose machines differ.

Both are one form, read by one code path, and this module alone builds it
(:class:`Orbits`, behind :func:`orbits_of`): the digits of the columns,
player-major on the smallest unsigned dtype, in lex order, and each one's
orbit size; only :meth:`Orbits._members` and :attr:`Orbits.indexed` know
which group acts.  The strings, ``sum_{j <= m} S(n, j)`` of them
(:func:`column_count`), are grown one position at a time with whole-array
operations, each extended by every machine up to one above its largest so
far; the states' digits come from ``np.indices``.  A column is the lex-smallest state of its orbit, so it is
decoded to a state only where a pass reports it, and ties (optimum, worst
equilibrium, tightest slack, first failing floor) resolve to the
lexicographically smallest state through numpy's first
``argmin``/``argmax``/``flatnonzero`` over the columns.  A count weights each
column by its orbit's size (``m!/(m - j)!`` for a string on ``j`` machines,
1 for a state).  A table is built over blocks of the columns of at most
``_BLOCK_CELLS`` (2^16) (column, player, machine) cells each
(:func:`column_blocks`), so the memory of a build stays flat however many
columns there are.

One cache per shape: every :class:`Orbits` comes from :func:`orbits_of`,
which keeps those of the last eight ``(n, m, symmetric)`` whose table fits
``_TABLE_CELLS`` (2^20) cells, the same budget as the kept table below.  A
kept one builds its columns once, and each stands alone: none reads another
shape.  A kept string shape of at most ``_INDEX_STATES`` (2^16) states is
also indexed: one renaming of every string into its orbit builds its index,
the column of each state and each state's digits as a row, the states in
lex order, and it is kept read-only.  The pure and the strong equilibria of
an indexed shape are listed by lookup (:meth:`Orbits.expand`): their
distinct columns are marked, the mark is read through the index, and the
rows of the states so selected are read off, already in lex order.  On the
states domain a column is the state of that lex index, so a listing reads
the columns themselves; any other string shape lists by renaming its
columns into every state of their orbits, sorted, and a shape past the
budget keeps nothing.

``max_states`` bounds what a pass reads and lists: the columns of its table
(the strings of an orbit pass, all m^n states otherwise) and the
equilibria :func:`pure_nash_set` lists.  :func:`strong_nash_set` keeps
guarding m^n, as its candidates' orbits may hold every state.

Expectations under a product profile sum :meth:`StateEvaluator.expected`,
which averages the machine term over the exact distribution of the
co-located count and weights each signed edge by its neighbour's
probability, with no kind branch; this module reads none of the evaluator's
arrays.  The semi-smoothness LHS at one state sums the same expectations
under the point mass of that state, so every state table of the package is
built in :func:`_whole`.

Every evaluator here is the instance's own, from
:meth:`StateEvaluator.of`, so the passes, the expectations and the
verification over one instance share it.  One table per instance:
:func:`state_columns` keeps the table of the last instance it was asked for
in ``_kept``, ``(instance, table, orbits)`` (one entry, keyed by the
instance object, as its evaluator is, and by its columns, the last one
dropped before the next is built; an equal but distinct instance builds its
own), so the optimum, the Nash and strong sets, the smoothness and niceness
checks, the floors and the sandwich constants over one instance share one
table build, over the strings when the machines are symmetric.  A pass over the other
columns of the kept instance builds its table anew with the same evaluator.
The split into blocks is decided here alone, in :func:`_whole`, which
serves both cases:

* kept: the four arrays of :meth:`StateEvaluator.table` (``vals[k, i, c]``,
  ``cur[i, c]``, ``social[c]`` and the potential ``phi[c]``, the columns
  innermost, as it lays them out) over all columns at the evaluator's
  ``dtype()``, all read-only; the states themselves are not kept.  A table of
  one build block keeps the arrays :meth:`StateEvaluator.table` returned, a
  larger one is filled block by block, along the column axis, into arrays
  allocated once.  A pass maps the whole table to its columns in one call,
  each with the columns last, and reduces over the leading axes;
* budget: a table of more than ``_TABLE_CELLS`` (column, player, machine)
  cells is not kept.  The pass's columns are built block by block
  (:func:`column_blocks` of the digits) and filled into whole arrays, so
  memory is the tables of two blocks plus O(columns), up to ``max_states``,
  and the columns' digits, one byte per player and column;
* widening: :func:`state_columns` is the one place that widens.  When a
  pass's ``factor`` needs ``object`` (see :meth:`StateEvaluator.dtype`) and
  the table is int64, its ``columns`` read the kept table, or each streamed
  block, through ``astype(object)``; the values are the same exact integers.

The strong scan (:func:`strong_nash_set`) reads the orbit table's columns
alone, as every pass does: its candidates are its pure equilibria among the
columns, one per orbit, each verdict holding for the whole orbit.  Every
state takes the values of its orbit's column, so each state of the
candidates' orbits (:meth:`Orbits._members`) is tested against the
columns, with no value spread over the states.  The members
are tested 64 at a time, one bit each in a ``uint64`` word per column.  Per
player, ``searchsorted`` places each column's value among the members' own
values, sorted (exact on int64 and on ``object``), and ``stays | beats``
is ANDed into the column's word, two lookups by the column's machine and by
that place: the members whose player sits on that machine, or is strictly
better off at the column (``<`` for the cost kinds, ``>`` for the payoff
kinds).  A member is refuted when its bit survives every player at some
column other than itself, a candidate survives when none of its members is
refuted, and the surviving columns are expanded into their orbits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import perm
from typing import Iterator, Optional

import numpy as np

from . import simplex
from .fastpath import _INT64_BOUND, StateEvaluator
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
    """State-space caps; exceeding one raises :class:`StateSpaceExceeded`.
    ``max_states`` bounds the columns a pass reads (one per orbit under
    renaming the machines where the pass allows it and the machines are
    symmetric, one per state otherwise) and the equilibria
    :func:`pure_nash_set` lists."""

    max_states: int = 2_000_000
    # every kind's random LP of 128-196 states took at most 2.2 s, one of 216
    # states (SwC, n = 3, m = 6) 5-7 s (edge probability 1/2, seeds 0-4,
    # 2-vCPU VM)
    lp_max_states: int = 196
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


# ---------------------------------------------------------------------------
# the column domain

# upper bound on the (column, player, machine) cells of one table block
_BLOCK_CELLS = 1 << 16

# upper bound on the cells of a state table kept between passes, and of the
# table of a shape whose Orbits is kept; a larger table streams block by block
_TABLE_CELLS = 1 << 20

# the most states of a kept string shape whose index is built
_INDEX_STATES = 1 << 16


def orbit_count(n: int, m: int) -> int:
    """The number of restricted growth strings of length ``n`` on at most
    ``m`` machines, ``sum_{j <= m} S(n, j)`` (Stirling numbers of the second
    kind): the orbits of the m^n states under renaming the machines."""
    row = [1]  # row[j] = S(players so far, j), j <= m
    for _ in range(n):
        row.append(0)
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, min(len(row) - 1, m) + 1)]
    return sum(row)


def column_count(n: int, m: int, symmetric: bool) -> int:
    """The number of columns of :class:`Orbits`."""
    return orbit_count(n, m) if symmetric else m**n


def _build_columns(n: int, m: int, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(digits, sizes)`` of :class:`Orbits`, read-only, built afresh.  The
    strings grow one position at a time: every string with ``j`` machines so
    far extends by machines ``0 .. min(j, m - 1)``, in that order, so the
    strings stay in lex order; the digits are read back along the parent
    links at the end."""
    dtype = np.min_scalar_type(m - 1)
    if not symmetric:
        digits = np.indices((m,) * n, dtype=dtype).reshape(n, -1)
        digits.flags.writeable = False
        return digits, np.broadcast_to(np.int64(1), digits.shape[1])
    used = np.ones(1, dtype=np.int64)  # the one string of length 1
    links = []  # per position after the first: (digit, parent)
    for _ in range(1, n):
        count = np.minimum(used + 1, m)
        parent = np.repeat(np.arange(len(used)), count)
        digit = np.arange(len(parent)) - (np.cumsum(count) - count)[parent]
        used = np.maximum(used[parent], digit + 1)
        links.append((digit, parent))
    digits = np.zeros((n, len(used)), dtype=dtype)
    at = np.arange(len(used))
    for i in range(n - 1, 0, -1):
        digit, parent = links[i - 1]
        digits[i] = digit[at]
        at = parent[at]
    # a string on j machines stands for its m!/(m - j)! renamings
    perms = [perm(m, j) for j in range(min(n, m) + 1)]
    sizes = np.array(perms, dtype=np.int64 if m**n < _INT64_BOUND else object)[used]
    for array in (digits, sizes):
        array.flags.writeable = False
    return digits, sizes


def column_blocks(digits: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """The columns of ``digits`` (``digits[i, c]``, as :attr:`Orbits.digits`)
    in order, as ``(S, n)`` grids of at most ``_BLOCK_CELLS`` (column, player,
    machine) cells, stored player-major."""
    n, count = digits.shape
    step = max(1, _BLOCK_CELLS // (n * m))
    for start in range(0, count, step):
        yield digits[:, start : start + step].T


class Orbits:
    """The columns of a state table and what they stand for: one orbit of
    the m^n states of ``n`` players on ``m`` machines per column, in lex
    order, each column the lex-smallest state of its orbit.  With
    ``symmetric`` the orbits are those under renaming the machines, the
    columns their restricted growth strings (every entry at most one above
    the largest before it); without, every state is its own orbit and column
    ``c`` is the state of lex index ``c``.  Past the columns themselves, only
    :meth:`_members` (through :meth:`_renamings`) and :attr:`indexed` depend
    on which group acts.  The columns are built on first use.

    Build one through :func:`orbits_of`, which keeps it (``kept``) when its
    table fits ``_TABLE_CELLS``; no method reads another shape.  A kept
    string shape of at most ``_INDEX_STATES`` states is indexed: its index,
    the column and the digits of every state, is built once and kept, and
    :meth:`expand` lists states by one lookup through it.  Any other string
    shape renames its columns on every call; on the states domain a column
    is its own orbit's one state."""

    def __init__(self, n: int, m: int, symmetric: bool, kept: bool):
        self.n, self.m, self.symmetric, self.kept = n, m, symmetric, kept
        self.count = column_count(n, m, symmetric)

    @property
    def indexed(self) -> bool:
        """Whether :meth:`expand` reads the kept index: a kept string shape
        of at most ``_INDEX_STATES`` states, read on every call."""
        return self.kept and self.symmetric and self.m**self.n <= _INDEX_STATES

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        return _build_columns(self.n, self.m, self.symmetric)

    @property
    def digits(self) -> np.ndarray:
        """``digits[i, c]``: player ``i``'s machine in column ``c``,
        read-only, on the smallest unsigned dtype that holds ``m - 1``; its
        transpose is a grid for :meth:`StateEvaluator.table`."""
        return self._columns[0]

    def blocks(self) -> Iterator[np.ndarray]:
        """The columns' states in order, as grids for :meth:`StateEvaluator.table`."""
        return column_blocks(self.digits, self.m)

    def sizes(self) -> np.ndarray:
        """The number of states in each column's orbit, read-only:
        ``m!/(m - j)!`` for a string on ``j`` machines (on ``object`` where
        m^n passes int64), and a broadcast 1 for a state."""
        return self._columns[1]

    def state(self, col: int) -> State:
        """The public state of column ``col``, the lex-smallest of its orbit."""
        return tuple(k + 1 for k in self.digits[:, col].tolist())

    def expand(self, cols: np.ndarray) -> tuple[list[State], np.ndarray]:
        """(every state in the orbits of columns ``cols``, distinct column
        indexes, as a public state, in lex order; the column of each)."""
        if self.indexed:
            of, rows = self._index
            mark = np.zeros(self.count, dtype=bool)
            mark[cols] = True
            lex = np.flatnonzero(mark[of])  # already in lex order
            grid, cols = rows[lex], of[lex]
        else:
            grid, cols = self._members(cols)
            order = (grid @ self._place).argsort()  # by lex index
            grid, cols = grid[order], cols[order]
        states = np.add(grid, 1, dtype=np.int64).tolist()
        return list(map(tuple, states)), cols

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept, read-only index of an indexed shape, built by renaming
        every string once: (the column of each state, each state's digits as
        a row), the states in lex order."""
        grid, cols = self._members(np.arange(self.count))
        lex = grid @ self._place
        of, states = np.empty(len(lex), dtype=np.int64), np.empty_like(grid)
        of[lex], states[lex] = cols, grid
        for array in (of, states):
            array.flags.writeable = False
        return of, states

    @cached_property
    def _place(self) -> np.ndarray:
        """The lex place value of each player, on ``object`` where a lex
        index can pass int64."""
        dtype = np.int64 if self.m**self.n <= _INT64_BOUND else object
        return np.array([self.m**i for i in range(self.n - 1, -1, -1)], dtype=dtype)

    def _members(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(every state in the orbits of columns ``cols``, as an ``(S, n)``
        grid of the digits' dtype in no particular order; the column of
        each).  On the states domain these are the columns themselves."""
        grid = self.digits.take(cols, axis=1).T  # [c, i]
        if not self.symmetric:
            return grid, cols
        top = grid.max(1, initial=0)  # the largest machine of each column
        grids, of = [grid[:0]], [cols[:0]]
        for j in set(top.tolist()):
            picked = top == j
            # renamed[p, c, i]: column c's player i under renaming p
            renamed = self._renamings(j + 1)[:, grid[picked]]
            grids.append(renamed.reshape(-1, self.n))
            of.append(np.repeat(cols[picked][None], len(renamed), axis=0).ravel())
        return np.concatenate(grids), np.concatenate(of)

    def _renamings(self, j: int) -> np.ndarray:
        """The renamings of machines 0..j-1 that map a string on them to
        every state of its orbit, one per row: every injective one into the
        m machines."""
        renamings = itertools.permutations(range(self.m), j)
        return np.array(list(renamings), dtype=self.digits.dtype)


# one seed-1 scan cycle of the benchmark reads 7 shapes: 4 string shapes and
# 3 state shapes
_kept_orbits = lru_cache(maxsize=8)(Orbits)


def orbits_of(n: int, m: int, symmetric: bool) -> Orbits:
    """The :class:`Orbits` of ``n`` players on ``m`` machines, the one way
    the package builds them, and its one per-shape cache.  Those of the last
    eight ``(n, m, symmetric)`` whose table fits ``_TABLE_CELLS`` (2^20)
    cells are kept and shared: their columns, at most 2^20 / m digits, with
    the sizes at most 768 KiB on two or more machines (the 32768 strings of
    16 players on 2 machines), and where indexed (a string shape) an index
    of 8 bytes per state for its column and one byte per player and state
    (two past 256 machines) for its digits.  Each is built from its own key
    alone.  A larger shape gets a fresh :class:`Orbits` on every call."""
    if column_count(n, m, symmetric) * n * m <= _TABLE_CELLS:
        return _kept_orbits(n, m, symmetric, True)
    return Orbits(n, m, symmetric, False)


# the last state table within _TABLE_CELLS: (instance, table, orbits); the
# evaluator is the instance's own
_kept: Optional[tuple] = None


def _whole(ev: StateEvaluator, orbits: Orbits, columns):
    """``columns`` of the state table of ``ev`` over the columns of
    ``orbits``, in order, built block by block: the arrays of a single block
    as they are, those of several filled along their last (column) axis into
    arrays allocated once.  Besides those arrays, no more than two blocks'
    tables are held at a time."""
    count = orbits.count
    whole, start = None, 0
    for grid in orbits.blocks():
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


def _whole_table(inst: Instance, limits: OracleLimits = DEFAULT_LIMITS, orbits: bool = False):
    """(evaluator, :class:`Orbits`, table) of ``inst``: ``(vals, cur, social,
    phi)`` at ``dtype()``, read-only, over one column per orbit when
    ``orbits`` asks for them and the machines are symmetric, else over all
    states; table is None when :func:`orbits_of` keeps no :class:`Orbits`
    for its shape, as its table has more than ``_TABLE_CELLS`` cells.
    Raises :class:`StateSpaceExceeded` first when the columns pass
    ``max_states``.  The last table within the budget is kept, so the passes
    over one instance build it once; the evaluator is the instance's own."""
    global _kept
    domain = table = None
    if _kept is not None and _kept[0] is inst:
        _, table, domain = _kept
    ev = StateEvaluator.of(inst)
    if domain is not None and domain.symmetric != (orbits and ev.symmetric):
        domain = table = None
    if domain is None:
        domain = orbits_of(ev.n, ev.m, orbits and ev.symmetric)
    if domain.count > limits.max_states:
        raise StateSpaceExceeded("max_states", domain.count, limits.max_states)
    if table is not None:
        return ev, domain, table
    _kept = None  # free the last table before building the next
    if not domain.kept:
        return ev, domain, None
    table = _whole(ev, domain, lambda *table: table)
    for array in table:
        array.flags.writeable = False
    _kept = (inst, table, domain)
    return ev, domain, table


def state_columns(
    inst: Instance, limits: OracleLimits, columns, factor: int = 1, orbits: bool = False
):
    """(evaluator, :class:`Orbits`, ``columns(vals, cur, social, phi)``) over
    the columns of the table, in order: one per orbit under renaming the
    machines when ``orbits`` (the pass reads only what is constant on an
    orbit) and every machine has the same machine term, else one per state;
    raises :class:`StateSpaceExceeded` first when there are more columns than
    ``max_states``.

    ``columns`` maps a state table (see :meth:`StateEvaluator.table`) to a
    tuple of arrays whose last axis is the columns.  It is called once on the
    kept table, or past the budget once per block, the results filled into
    whole arrays along that axis.  Either way it reads the table widened to
    ``object`` when it multiplies the table by ``factor`` and
    ``dtype(factor)`` needs that."""
    ev, domain, table = _whole_table(inst, limits, orbits)
    read = columns
    if ev.dtype(factor) is not ev.dtype():
        # the same exact values, on arrays that hold the caller's products
        def read(*table):
            return columns(*(a.astype(object) for a in table))
    if table is None:
        return ev, domain, _whole(ev, domain, read)
    return ev, domain, read(*table)


def _extreme_state(
    inst: Instance, limits: OracleLimits, lowest: bool
) -> tuple[State, Fraction]:
    """The state of lowest (or highest) social value; lex-smallest tie."""
    ev, orbits, (social,) = state_columns(
        inst, limits, lambda vals, cur, social, phi: (social,), orbits=True
    )
    idx = int(social.argmin() if lowest else social.argmax())
    return orbits.state(idx), ev.as_value(int(social[idx]))


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
    """All states with no strictly improving unilateral deviation, lex order.
    Raises :class:`StateSpaceExceeded` when there are more than
    ``max_states`` of them."""
    minimizes = inst.kind.minimizes
    ev, orbits, (flags, social) = state_columns(
        inst, limits,
        lambda vals, cur, social, phi: (pure_ne_flags(minimizes, vals, cur), social),
        orbits=True,
    )
    cols = np.flatnonzero(flags)
    count = int(orbits.sizes()[cols].sum())
    if count > limits.max_states:
        raise StateSpaceExceeded("max_states", count, limits.max_states)
    states, cols = orbits.expand(cols)
    return _valued_states(ev, states, social[cols])


def _valued_states(ev: StateEvaluator, states, social) -> list[tuple[State, Fraction]]:
    """``(public state, value)`` pairs of ``states`` and their scaled social
    values."""
    social = social.tolist()
    value = {v: ev.as_value(v) for v in set(social)}
    return [(state, value[v]) for state, v in zip(states, social)]


# ---------------------------------------------------------------------------
# strong Nash equilibria
#
# A coalition deviation (C, s'_C) strictly improving every member exists iff
# the set D of players that actually change machines (nonempty, D subseteq C)
# strictly improves under the same outcome: non-movers in C never affect the
# outcome, and movers are themselves a valid coalition.  So a state is a
# strong equilibrium iff no alternative state strictly improves all of its
# movers.  Singleton coalitions make every strong equilibrium a pure one, so
# only the pure equilibria are tested.  The coalition definition itself is
# kept in the tests as the reference.
#
# A player's value is the machine term of its machine at its occupancy plus
# its base and the signed weights of its neighbours on the same machine.
# When every machine has the same machine term, renaming the machines by a
# permutation p therefore keeps every player's value at every state.  A
# deviation s -> t then maps to p(s) -> p(t), with the same movers and the
# same values on both sides, so s is strong exactly when p(s) is: only the
# pure equilibria among the orbit table's strings are candidates, and each
# verdict holds for the whole orbit.
#
# Every state t is p(o) for a column o, and takes o's values.  So t refutes
# candidate c iff, at o, each player sits where it sits in c' = p^-1(c) or is
# strictly better off than at c: the states c' of c's orbit are tested
# against the columns, and the one pairing left out is c' = o (then t = c,
# where nobody moves).  On the states domain each orbit is the candidate
# alone and the columns are all the states.


def strong_nash_set(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> list[tuple[State, Fraction]]:
    """All states no coalition can leave with every member strictly better off."""
    if inst.n > limits.strong_max_players:
        raise StateSpaceExceeded("strong_max_players", inst.n, limits.strong_max_players)
    _guard(inst, limits.max_states, "max_states")
    minimizes = inst.kind.minimizes
    ev, orbits, (cur, social, flags) = state_columns(
        inst, limits,
        lambda vals, cur, social, phi: (cur, social, pure_ne_flags(minimizes, vals, cur)),
        orbits=True,
    )
    candidates = np.flatnonzero(flags)  # columns: one pure equilibrium per orbit
    grid, of = orbits._members(candidates)  # grid[b, i]: member b's player i
    itself = (grid == orbits.digits.T[of]).all(1)  # the member that is its column
    side = "right" if minimizes else "left"
    # the machines the columns sit on, at most n on the strings: a member's
    # player on any other machine stays at no column, so it is filed past them
    n, reach = len(cur), int(orbits.digits.max(initial=0)) + 1
    slot = np.minimum(grid, reach, dtype=np.intp) + np.arange(0, n * (reach + 1), reach + 1)
    refuted = np.zeros(orbits.count, dtype=bool)  # by column
    for start in range(0, len(of), 64):
        chunk = slice(start, start + 64)
        bits = np.left_shift(np.uint64(1), np.arange(len(of[chunk]), dtype=np.uint64))
        # stays[i, k]: the members whose player i sits on machine k
        stays = np.zeros((n, reach + 1), dtype=np.uint64)
        np.bitwise_or.at(stays.ravel(), slot[chunk].ravel(), np.repeat(bits, n))
        # beats[i, r]: the members whose player i is strictly worse off than
        # at a column whose value searchsorted places at r among theirs
        own = cur[:, of[chunk]]
        order = own.argsort(1)
        own = np.take_along_axis(own, order, 1)
        beats = np.zeros((n, len(bits) + 1), dtype=np.uint64)
        np.cumsum(bits[order], axis=1, out=beats[:, 1:])
        if minimizes:
            beats = beats[:, -1:] - beats
        # word[o]: the members column o refutes for every player so far
        word = np.full(orbits.count, ~np.uint64(0))
        for i, values in enumerate(cur):
            rank = own[i].searchsorted(values, side)
            word &= stays[i].take(orbits.digits[i]) | beats[i].take(rank)
        word[of[chunk][itself[chunk]]] &= ~bits[itself[chunk]]  # where nobody moves
        refuted[of[chunk][(np.bitwise_or.reduce(word) & bits) != 0]] = True
    states, cols = orbits.expand(candidates[~refuted[candidates]])
    return _valued_states(ev, states, social[cols])


# ---------------------------------------------------------------------------
# exact expectations under product profiles


def expected_player_value(
    inst: Instance, profile: MixedProfile, i: int, k: int
) -> Fraction:
    """E[value of player i | s_i = k] with all other players drawn from the
    product profile."""
    validate_profile(inst, profile)
    _check_player(inst, i)
    _check_machine(inst, k)
    return StateEvaluator.of(inst).expected(profile, i - 1, k - 1)


def _expected_row(ev: StateEvaluator, profile: MixedProfile, i: int) -> tuple[list, Fraction]:
    """(E[value of player i | s_i = k] for every machine k, E[value of player
    i]) with everyone drawn from the profile (0-based i)."""
    row = [ev.expected(profile, i, k) for k in range(ev.m)]
    return row, sum((q * v for q, v in zip(profile[i], row) if q != 0), Fraction(0))


def profile_expected_value(inst: Instance, profile: MixedProfile, i: int) -> Fraction:
    """E[value of player i] with everyone (including i) drawn from the profile."""
    validate_profile(inst, profile)
    _check_player(inst, i)
    return _expected_row(StateEvaluator.of(inst), profile, i - 1)[1]


def verify_mixed_ne(inst: Instance, profile: MixedProfile) -> bool:
    """Exact check: no player can improve in expectation by a pure deviation."""
    validate_profile(inst, profile)
    ev = StateEvaluator.of(inst)
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

    ev, orbits, (social, diff) = state_columns(inst, limits, columns)
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
    support = tuple((orbits.state(i), q) for i, q in enumerate(sol.x) if q != 0)
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
