"""Scaled-integer state evaluation for enumeration-heavy passes.

Everything here is 0-based: a state is any sequence of machine indexes in
0..m-1 and players are 0..n-1.  Each quantity is an exact integer equal to
the true rational times a fixed per-instance scale: player values and the
social value carry ``value_scale``, the potential carries ``potential_scale``.
Comparisons between like-scaled integers are therefore exact, and the
Fraction API is recovered by dividing out the scale (``as_value`` /
``as_potential``).

The six kinds share one shape, and the kind is decided once, when the tables
are built:

* machine term: ``mach[k][x]`` is a player's value on machine ``k`` at
  occupancy ``x`` (``alpha*x`` for the cost kinds, ``p_k/x`` for the sharing
  kinds, 0 for the cut game); ``pot[k][x]`` is the potential's machine term
  (``alpha*x^2``, ``p_k*H_x``, 0);
* signed edges: ``edges`` holds ``(a, b, w)`` with ``w > 0`` for an edge that
  counts when its ends share a machine (BwC/BwCF conflicts at beta, SwF
  friends) and ``w < 0`` for one that counts when they are separated (BwF/BwCF
  friends at gamma, SwC enemies, cut edges at 1); zero weights are dropped;
* base: ``base[i]`` is the separated-edge weight at player ``i`` (what ``i``
  would collect with every such neighbour elsewhere), and ``w_sep`` is
  ``sum(base) / 2``.

A player's value is then ``mach[k][occupancy] + base[i]`` plus the signed
weights of its neighbours on ``k``.

Three ways read these tables.  :meth:`StateEvaluator.analyze` and
:meth:`StateEvaluator.value` evaluate one state at a time, for single-state
left-hand sides, the start of a best-response run and the test references.
Best-response runs read a move table instead:

* walk: :meth:`StateEvaluator.walk` returns a :class:`Walk`, which holds the
  state, its loads, ``bt[i, k] = base[i] + sum_j W[i, j] [s_j = k]`` and the
  social value and potential as exact ints.  :meth:`Walk.best` forms every
  player's gain on every machine from ``bt`` and ``mach[k][load + 1]`` and
  returns the first maximum in (player, machine) order; :meth:`Walk.move`
  updates the two loads, the two columns of ``bt`` and both aggregates, which
  change only on the mover's two machines and the mover's edges.

Every enumeration pass reads the state table:

* blocks: :func:`state_blocks` yields the m^n states in lex order as ``(S, n)``
  int64 arrays, built from the mixed-radix digits of ``arange``; a block holds
  at most ``_BLOCK_CELLS`` (state, player, machine) cells, so memory stays flat
  however many states there are;
* table: :meth:`StateEvaluator.table` turns a block into ``vals[s, i, k]`` (the
  value of player ``i`` on machine ``k`` with everyone else at ``s``, equal to
  ``value(analyze(s), i, k)``), ``cur[s, i]`` (the value at ``s``) and
  ``social = cur.sum(1)``, plus the potential when asked.  It is the same
  formula on arrays: a one-hot of the block, its loads, the neighbour weights
  ``tab = W @ onehot`` (``W`` the n x n signed adjacency of ``edges``) and
  ``mach[k][load + (s_i != k)] + base[i] + tab``;
* dtype: int64 only when a bound computed from the tables shows that no value,
  no sum of values over all players and machines, and no multiple of such a
  sum by the caller's ``factor`` (its slack combination) can reach
  ``_INT64_SAFE``; otherwise the same code runs on ``dtype=object`` arrays of
  exact Python ints.  The move table takes the same rule with ``factor`` 1.
  No float ever decides a result.

Equivalence of all three ways with the public Fraction evaluation in
:mod:`conflictgames.games` is enforced exhaustively by the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from operator import add
from typing import Iterator

import numpy as np

from .games import GameKind, Instance, sharing_weights

# magnitudes at or above this may overflow an int64 expression; use object
_INT64_SAFE = 1 << 60

# upper bound on the (state, player, machine) cells of one table block
_BLOCK_CELLS = 1 << 13


class StateEvaluator:
    """Per-instance tables, O(n*m + |E|) evaluation of one state, the state
    table over a block of states, and the move table of a best-response run."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.n = n = inst.n
        self.m = m = inst.m
        self.minimizes = inst.kind.minimizes
        # every use of the edges sums over them, so their order does not matter
        conf, fr = inst.conflict_edges, inst.friendship_edges

        if inst.kind.minimizes:
            den = lcm(inst.alpha.denominator, inst.beta.denominator, inst.gamma.denominator)
            self.value_scale = den
            self.potential_scale = 2 * den
            a, b, g = int(inst.alpha * den), int(inst.beta * den), int(inst.gamma * den)
            self.mach = [[a * x for x in range(n + 1)]] * m
            self.pot = [[a * x * x for x in range(n + 1)]] * m
            signed = [(e, b) for e in conf] + [(e, -g) for e in fr]
        elif inst.kind.sharing:
            weights = sharing_weights(inst)
            dens = [p.denominator for p in inst.machine_values]
            dens += [w.denominator for w in weights.values()]
            d = lcm(*dens) if dens else 1
            ell = lcm(*range(1, n + 1))
            self.value_scale = d * ell
            self.potential_scale = d * ell
            p_scaled = [p.numerator * (d // p.denominator) for p in inst.machine_values]
            # index 0 is never read as a value and contributes 0 to sums
            shares = [0] + [ell // x for x in range(1, n + 1)]
            self.mach = [[pk * q for q in shares] for pk in p_scaled]
            hsum = list(accumulate(shares))
            self.pot = [[pk * h for h in hsum] for pk in p_scaled]
            sign = -1 if inst.kind is GameKind.SWC else 1
            signed = [
                (e, sign * w.numerator * (d // w.denominator) * ell)
                for e, w in weights.items()
            ]
        else:  # cut game
            self.value_scale = 1
            self.potential_scale = 1
            self.mach = [[0] * (n + 1)] * m
            self.pot = self.mach
            signed = [(e, -1) for e in conf]

        self.edges = [(a - 1, b - 1, w) for (a, b), w in signed if w]
        self.base = [0] * n
        for a, b, w in self.edges:
            if w < 0:
                self.base[a] -= w
                self.base[b] -= w
        self.w_sep = sum(self.base) // 2
        self._arrays_by_dtype = {}

    # -- conversions --------------------------------------------------------

    def as_value(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.value_scale)

    def as_potential(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.potential_scale)

    # -- whole-state aggregates (no deviation tables) ------------------------

    def loads(self, state) -> list[int]:
        loads = [0] * self.m
        for k in state:
            loads[k] += 1
        return loads

    def _edge_term(self, state) -> int:
        """Separated-edge weight at ``state``: w_sep plus the signed weight of
        every co-located edge."""
        return self.w_sep + sum(w for a, b, w in self.edges if state[a] == state[b])

    def social(self, state) -> int:
        machines = sum(x * row[x] for row, x in zip(self.mach, self.loads(state)))
        return machines + 2 * self._edge_term(state)

    def potential(self, state) -> int:
        machines = sum(row[x] for row, x in zip(self.pot, self.loads(state)))
        return machines + self.potential_scale // self.value_scale * self._edge_term(state)

    # -- per-state deviation tables ------------------------------------------

    def analyze(self, state):
        """Aux bundle for :meth:`value`: (state, loads, table).  The table is
        a flat n*m list; entry i*m+k is the signed weight of i's neighbours
        on machine k."""
        m = self.m
        tab = [0] * (self.n * m)
        for a, b, w in self.edges:
            tab[a * m + state[b]] += w
            tab[b * m + state[a]] += w
        return (tuple(state), self.loads(state), tab)

    def value(self, aux, i: int, k: int) -> int:
        """Scaled value of player ``i`` if assigned to ``k``, all others fixed
        at the analyzed state.  Exact both for k == s_i and for deviations."""
        state, loads, tab = aux
        occ = loads[k] if state[i] == k else loads[k] + 1
        return self.mach[k][occ] + self.base[i] + tab[i * self.m + k]

    def values(self, aux) -> list[int]:
        state = aux[0]
        return [self.value(aux, i, state[i]) for i in range(self.n)]

    # -- the state table -------------------------------------------------------

    @cached_property
    def _magnitude(self) -> int:
        """Bound on |any table entry summed over all players and machines|
        and on |any potential|."""
        touching = list(self.base)  # |w| summed over the edges at each player
        positive = 0
        for a, b, w in self.edges:
            if w > 0:
                touching[a] += w
                touching[b] += w
                positive += w
        # every machine and potential term is >= 0 (alpha > 0, p_k >= 0), and
        # w_sep is the sum of |w| over the negative edges
        value = max(map(max, self.mach)) + max(map(add, self.base, touching))
        potential = sum(map(max, self.pot)) + (
            self.potential_scale // self.value_scale
        ) * (2 * self.w_sep + positive)
        return max(self.n * self.m * value, potential)

    def dtype(self, factor: int = 1):
        """np.int64 when ``factor`` times :attr:`_magnitude` stays below
        ``_INT64_SAFE``, else ``object``."""
        return np.int64 if factor * self._magnitude < _INT64_SAFE else object

    def _arrays(self, dtype):
        """The tables as arrays of ``dtype``: mach (with one spare column, so
        that ``load + 1`` is a valid index even when everyone shares a
        machine), base, W transposed, pot, edge ends, edge weights."""
        arrays = self._arrays_by_dtype.get(dtype)
        if arrays is None:
            ends = np.array([(a, b) for a, b, _ in self.edges], dtype=np.int64).reshape(-1, 2).T
            weights = np.array([w for _, _, w in self.edges], dtype=dtype)
            adj = np.zeros((self.n, self.n), dtype=dtype)
            np.add.at(adj, (ends[0], ends[1]), weights)
            adj = adj + adj.T
            arrays = self._arrays_by_dtype[dtype] = (
                np.array([row + [0] for row in self.mach], dtype=dtype),
                np.array(self.base, dtype=dtype),
                adj.T,
                np.array(self.pot, dtype=dtype),
                ends,
                weights,
            )
        return arrays

    def table(self, grid, factor: int = 1, potential: bool = False):
        """(vals, cur, social[, potential]) at every state of ``grid``, an
        ``(S, n)`` array of internal states; the dtype is ``dtype(factor)``.

        ``vals`` is indexed ``[s, i, k]`` but laid out machine-major, so the
        reductions over machines are elementwise operations on ``(S, n)``
        slices."""
        mach, base, adj_t, pot, (ea, eb), weights = self._arrays(self.dtype(factor))
        count, m = len(grid), self.m
        machines = np.arange(m)
        onehot = grid == machines[:, None, None]  # [k, s, i]
        loads = np.bincount((grid + m * np.arange(count)[:, None]).ravel(), minlength=count * m)
        loads = loads.reshape(count, m)
        here = mach[machines, loads].T[:, :, None]  # i on k already
        there = mach[machines, loads + 1].T[:, :, None]  # i joins k
        tab = onehot.astype(adj_t.dtype) @ adj_t  # [k, s, i]: neighbour weight on k
        vals = np.where(onehot, here, there) + base + tab
        cur = (vals * onehot).sum(0)
        vals = vals.transpose(1, 2, 0)
        social = cur.sum(1)
        if not potential:
            return vals, cur, social
        colocated = (grid[:, ea] == grid[:, eb]).astype(weights.dtype) @ weights
        phi = pot[machines, loads].sum(1) + (self.potential_scale // self.value_scale) * (
            self.w_sep + colocated
        )
        return vals, cur, social, phi

    def walk(self, state) -> "Walk":
        """A :class:`Walk` from ``state``, an internal state."""
        return Walk(self, state)


class Walk:
    """The state of a best-response run, kept current move by move.

    ``cur`` and ``loads`` are the state and its machine loads; ``bt[i, k]`` is
    ``base[i]`` plus the signed weight of ``i``'s neighbours on ``k``, so a
    player's value on ``k`` is ``mach[k][occupancy] + bt[i, k]``; ``social``
    and ``potential`` are the scaled aggregates as exact Python ints.  One
    move touches two columns of ``bt`` and two loads, so :meth:`move` costs
    O(n) and :meth:`best` one pass over the n x m gains.  The arrays have the
    evaluator's ``dtype()``: int64 when that bound allows, else exact ints.
    """

    def __init__(self, ev: StateEvaluator, state):
        self.ev = ev
        mach, base, adj, _, (ea, eb), weights = ev._arrays(ev.dtype())
        self._mach, self._adj = mach, adj  # adj is symmetric
        self._players, self._machines = np.arange(ev.n), np.arange(ev.m)
        self.cur = cur = np.array(state, dtype=np.int64)
        self.loads = np.bincount(cur, minlength=ev.m)
        self.bt = np.repeat(base[:, None], ev.m, axis=1)
        np.add.at(self.bt, (ea, cur[eb]), weights)
        np.add.at(self.bt, (eb, cur[ea]), weights)
        self.social = ev.social(state)
        self.potential = ev.potential(state)

    def best(self):
        """``(gain, player, machine)`` of the max-gain move, or None at a pure
        NE.  Ties go to the first maximum in (player, machine) order."""
        players, cur, loads = self._players, self.cur, self.loads
        here = self._mach[cur, loads[cur]] + self.bt[players, cur]
        there = self.bt + self._mach[self._machines, loads + 1]
        gain = here[:, None] - there if self.ev.minimizes else there - here[:, None]
        gain[players, cur] = 0
        flat = int(gain.argmax())
        top = int(gain.flat[flat])
        if top <= 0:
            return None
        return (top,) + divmod(flat, self.ev.m)

    def move(self, p: int, t: int) -> int:
        """Move player ``p`` to machine ``t``; returns its source machine."""
        ev, loads, bt = self.ev, self.loads, self.bt
        s = int(self.cur[p])
        xs, xt = int(loads[s]), int(loads[t])
        edges = int(bt[p, t] - bt[p, s])  # change of the co-located edge weight
        ms, mt, ps, pt = ev.mach[s], ev.mach[t], ev.pot[s], ev.pot[t]
        self.social += (
            (xs - 1) * ms[xs - 1] - xs * ms[xs] + (xt + 1) * mt[xt + 1] - xt * mt[xt] + 2 * edges
        )
        self.potential += (
            ps[xs - 1] - ps[xs] + pt[xt + 1] - pt[xt]
            + ev.potential_scale // ev.value_scale * edges
        )
        loads[s] -= 1
        loads[t] += 1
        column = self._adj[:, p]
        bt[:, s] -= column
        bt[:, t] += column
        self.cur[p] = t
        return s


def state_blocks(n: int, m: int) -> Iterator[np.ndarray]:
    """All m^n internal states in lex order, as ``(S, n)`` int64 blocks of at
    most ``_BLOCK_CELLS`` (state, player, machine) cells."""
    count = m**n
    step = max(1, _BLOCK_CELLS // (n * m))
    place = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, count, step):
        index = np.arange(start, min(start + step, count), dtype=np.int64)
        yield index[:, None] // place % m


def to_internal(state: tuple[int, ...]) -> tuple[int, ...]:
    """Public 1-based state -> internal 0-based."""
    return tuple(k - 1 for k in state)


def to_public(state) -> tuple[int, ...]:
    """Internal 0-based state -> public 1-based."""
    return tuple(k + 1 for k in state)
