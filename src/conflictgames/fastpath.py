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

Two ways read these tables.  :meth:`StateEvaluator.analyze` and
:meth:`StateEvaluator.value` evaluate one state at a time, for the passes that
cannot enumerate (best-response runs, single-state left-hand sides).  Every
enumeration pass instead reads the state table:

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
  exact Python ints.  No float ever decides a result.

Equivalence of both ways with the public Fraction evaluation in
:mod:`conflictgames.games` is enforced exhaustively by the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator

import numpy as np

from .games import GameKind, Instance, sharing_weights

# magnitudes at or above this may overflow an int64 expression; use object
_INT64_SAFE = 1 << 60

# upper bound on the (state, player, machine) cells of one table block
_BLOCK_CELLS = 1 << 13


class StateEvaluator:
    """Per-instance tables, O(n*m + |E|) evaluation of one state, and the
    state table over a block of states."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.n = n = inst.n
        self.m = m = inst.m
        self.minimizes = inst.kind.minimizes
        conf = sorted(inst.conflict_edges)
        fr = sorted(inst.friendship_edges)

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
            p_scaled = [int(p * d) for p in inst.machine_values]
            # index 0 is never read as a value and contributes 0 to sums
            self.mach = [[0] + [pk * (ell // x) for x in range(1, n + 1)] for pk in p_scaled]
            hsum = [0]
            for x in range(1, n + 1):
                hsum.append(hsum[-1] + ell // x)
            self.pot = [[pk * h for h in hsum] for pk in p_scaled]
            sign = -1 if inst.kind is GameKind.SWC else 1
            signed = [(e, sign * int(w * d) * ell) for e, w in sorted(weights.items())]
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
        for a, b, w in self.edges:
            if w > 0:
                touching[a] += w
                touching[b] += w
        value = max(abs(v) for row in self.mach for v in row) + max(
            base + touch for base, touch in zip(self.base, touching)
        )
        potential = sum(max(abs(v) for v in row) for row in self.pot) + (
            self.potential_scale // self.value_scale
        ) * (self.w_sep + sum(abs(w) for _, _, w in self.edges))
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
            adj = np.zeros((self.n, self.n), dtype=dtype)
            for a, b, w in self.edges:
                adj[a, b] += w
                adj[b, a] += w
            ends = np.array([(a, b) for a, b, _ in self.edges], dtype=np.int64).reshape(-1, 2)
            arrays = self._arrays_by_dtype[dtype] = (
                np.array([row + [0] for row in self.mach], dtype=dtype),
                np.array(self.base, dtype=dtype),
                adj.T,
                np.array(self.pot, dtype=dtype),
                ends.T,
                np.array([w for _, _, w in self.edges], dtype=dtype),
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
