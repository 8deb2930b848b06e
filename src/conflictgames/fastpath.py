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
* signed edges: two arrays, ``ends`` (``(2, E)`` int64, the 0-based ends of
  each edge) and ``w`` (its weight), with ``w > 0`` for an edge that counts
  when its ends share a machine (BwC/BwCF conflicts at beta, SwF friends) and
  ``w < 0`` for one that counts when they are separated (BwF/BwCF friends at
  gamma, SwC enemies, cut edges at 1); zero weights are dropped.  ``w`` is in
  units of one Python int ``unit``, which divides every scaled weight: 1 for
  the cost kinds and the cut game, ``lcm(1..n)`` for the sharing kinds.  So
  ``w`` stays small: int64, and ``object`` only when a weight itself passes
  int64.  The instance's edge sets are converted once, when the evaluator is
  built, and every other edge quantity is derived from these arrays with
  whole-array operations.  ``edges``, the same edges as ``(a, b, w)`` Python
  triples in value-scale units, is built only on first use: the mixed
  expectations and the test suite's pointwise reference evaluator
  (``tests/reference_evaluator.py``) read it, the state table and the move
  table do not;
* base: ``base[i]`` is the separated-edge weight at player ``i`` (what ``i``
  would collect with every such neighbour elsewhere), and ``w_sep`` is
  ``sum(base) / 2``.

A player's value is then ``mach[k][occupancy] + base[i]`` plus the signed
weights of its neighbours on ``k``.

Two ways read these tables, the move table and the state table, and the
exact mixed expectations of :mod:`conflictgames.oracle` read them directly.
One state is evaluated only by the move table:
:meth:`StateEvaluator.analyze`, :meth:`StateEvaluator.social` and
:meth:`StateEvaluator.potential` are one-line reads of it, kept for the call
counters of ``perfbench/tracing.py``.  The same formulas one state at a
time, as loops over ``edges``, are the test suite's reference
(``tests/reference_evaluator.py``), not the package's.  Best-response runs
keep a move table current move by move:

* walk: :meth:`StateEvaluator.walk` returns a :class:`Walk`, which holds the
  state, its loads, ``bt[i, k] = (base[i] + sum_j W[i, j] [s_j = k]) / u`` and
  the social value and potential as exact ints.  The start's aggregates come
  from the table too: ``sum_i bt[i, s_i] * u`` is twice ``w_sep`` plus twice
  the co-located signed weight.  :meth:`Walk.best` forms every player's gain
  on every machine, ``sg * (mach[t][x_t + 1] - mach[s][x_s]) / u + sg *
  (bt[i, t] - bt[i, s])`` (``sg`` -1 for the cost kinds), and returns the
  first maximum in (player, machine) order; :meth:`Walk.move` updates the two
  loads, the two columns of ``bt`` and both aggregates, which change only on
  the mover's two machines and the mover's edges.
* unit and mode: when :meth:`StateEvaluator.dtype` allows int64, ``u`` is 1,
  every gain is an exact int64 and one argmax decides.  Otherwise (the
  sharing kinds from about n = 40 on: their value scale is ``d * lcm(1..n)``)
  ``u``
  is the gcd of the value scale and every edge weight, so ``bt`` holds small
  exact ints, and the machine terms ``mach / u`` are floats, correctly
  rounded from the exact ints.  Floats propose and integers decide: every
  entry within ``2 * tol`` of the float maximum is a candidate, and exact
  Python-int gains pick the first maximum among the candidates and make the
  ``> 0`` test.  No float is ever accumulated: each step converts the exact
  ``bt`` and the two changed machine terms afresh.
* tol: ``S`` bounds every ``bt`` entry (the |w| summed at one player, over
  ``u``) plus every machine term over ``u``.  Both parts are >= 0, so the two
  exact sums of a gain ("there" and "here") lie in ``[0, S]`` and their
  difference in ``[-S, S]``.  A float gain takes seven roundings of relative
  error at most ``2^-53`` (per side a ``bt`` conversion, a machine term and
  their sum, then the difference), which together err by less than ``6 *
  2^-53 * S``.  With ``tol = 2^-49 * S`` every exact maximum's float is
  therefore at least the float maximum minus ``2 * tol``, with room left for
  rounding that threshold.  Where ``S`` reaches ``_FLOAT_SAFE`` floats cannot
  hold the gains, and the exact argmax runs on ``dtype=object``.

Every enumeration pass reads the state table over a grid of states it is
handed: which states are the columns of a table, and how they are cut into
blocks, is decided in :class:`conflictgames.oracle.Orbits`.  Nothing here is
kept between evaluators:

* table: :meth:`StateEvaluator.table` turns a grid, one block of columns,
  into ``vals[k, i, s]`` (the value of player ``i`` on machine ``k`` with
  everyone else at state ``s``, equal to the reference's ``value(ev,
  analyze(ev, s), i, k)``), ``cur[i, s]``
  (the value at ``s``), ``social[s] = sum_i cur[i, s]`` and the potential
  ``phi[s]``, always these four, always at ``dtype()``, with the states
  innermost: every reduction over machines or players runs along contiguous
  rows of states.
  It is the same formula on arrays: the one-hot ``onehot[k, i, s]`` of the
  player-major digits, the loads as its sum over players, the neighbour
  weights ``adj @ onehot`` (``adj`` the n x n signed adjacency of the edges)
  and ``mach[k][load + (s_i != k)] + base[i]``, the machine and potential
  terms read with flat ``take``s.  On int64 the product runs on float64
  (BLAS) when the |w| summed at any one player is below 2^53: every partial
  sum is then an integer below 2^53, exact in any order, and the result is
  cast back; otherwise it runs on int64 or ``object``.  The potential needs
  no pass over the edges: ``social`` is the machine terms ``sum_k load_k *
  mach[k][load_k]`` plus ``2 * (w_sep + co-located weight)``, so the edge
  part of the potential is half of what is left (times ``potential_scale /
  value_scale``), the way :class:`Walk` derives its aggregates;
* dtype: :meth:`StateEvaluator.dtype` is int64 only when a bound computed
  from the tables shows that no value, no sum of values over all players and
  machines, and no multiple of such a sum by ``factor`` can reach
  ``_INT64_SAFE``; otherwise the same code runs on ``dtype=object`` arrays of
  exact Python ints.  No float ever decides a result.  The table itself is
  built at ``dtype()``.  A pass whose slack combination multiplies it by a
  ``factor`` that needs ``object`` reads it through ``astype(object)``:
  :func:`conflictgames.oracle.state_columns` is the one place that widens a
  table, and the only source of tables in the package.  Both dtypes hold the
  same exact values.

Equivalence of both ways, through the pointwise reference, with the public
Fraction evaluation in :mod:`conflictgames.games` is enforced exhaustively by
the test suite: every entry of the state table, and the aggregates and every
gain of the move table at every state of small instances.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, lcm, ldexp
from operator import add

import numpy as np

from .games import GameKind, Instance

# magnitudes at or above this may overflow an int64 expression; use object
_INT64_SAFE = 1 << 60

# one int64 product or sum whose exact magnitude is below this cannot overflow
_INT64_BOUND = 1 << 63

# integers below this in magnitude, and their sums while below it, are exact
# on float64
_FLOAT_EXACT = 1 << 53

# a move table whose gains reach this (in units of its unit) stays exact
_FLOAT_SAFE = 1 << 1000


class StateEvaluator:
    """Per-instance tables, the state table over a block of states, and the
    move table of a best-response run, which also evaluates one state."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.n = n = inst.n
        self.m = m = inst.m
        self.minimizes = inst.kind.minimizes
        # every use of the edges sums over them, so their order does not matter
        conf, fr = inst.conflict_edges, inst.friendship_edges

        # groups of signed edges: (edge set, weight of each edge in units of
        # ``unit``)
        if self.minimizes:
            combination = inst.alpha, inst.beta, inst.gamma
            den = lcm(*(f.denominator for f in combination))
            self.value_scale = den
            self.potential_scale = 2 * den
            a, b, g = (f.numerator * (den // f.denominator) for f in combination)
            self.mach = [[a * x for x in range(n + 1)]] * m
            self.pot = [[a * x * x for x in range(n + 1)]] * m
            unit = 1
            groups = [(conf, b), (fr, -g)]
        elif inst.kind.sharing:
            explicit = inst.edge_weights or ()  # every other edge weighs 1
            dens = [p.denominator for p in inst.machine_values]
            dens += [w.denominator for _, w in explicit]
            d = lcm(*dens) if dens else 1
            unit = lcm(*range(1, n + 1))
            self.value_scale = d * unit
            self.potential_scale = d * unit
            p_scaled = [p.numerator * (d // p.denominator) for p in inst.machine_values]
            # index 0 is never read as a value and contributes 0 to sums
            shares = [0] + [unit // x for x in range(1, n + 1)]
            self.mach = [[pk * q for q in shares] for pk in p_scaled]
            hsum = list(accumulate(shares))
            self.pot = [[pk * h for h in hsum] for pk in p_scaled]
            sign = -1 if inst.kind is GameKind.SWC else 1
            own = conf if inst.kind is GameKind.SWC else fr
            groups = [(own - {e for e, _ in explicit} if explicit else own, sign * d)]
            groups += [((e,), sign * w.numerator * (d // w.denominator)) for e, w in explicit]
        else:  # cut game
            self.value_scale = 1
            self.potential_scale = 1
            self.mach = [[0] * (n + 1)] * m
            self.pot = self.mach
            unit = 1
            groups = [(conf, -1)]
        # 2 for the cost kinds, 1 for the others
        self.pot_per_value = self.potential_scale // self.value_scale

        # every branch lists its positive weights before its negative ones;
        # the first ``split`` edges are the positive ones
        sets, counts, weights = [], [], []
        split = top = w_sep = 0
        for edges, w in groups:
            if w and edges:
                sets.append(edges)
                counts.append(len(edges))
                weights.append(w)
                top = max(top, abs(w))
                if w > 0:
                    split += len(edges)
                else:
                    w_sep -= len(edges) * w
        count = sum(counts)
        self.w_sep = unit * w_sep
        weights = np.array(weights, dtype=np.int64 if top < _INT64_BOUND else object)
        # both ends of every edge, edge by edge, 0-based: a0, b0, a1, b1, ...
        ends = np.fromiter(chain.from_iterable(chain(*sets)), np.int64, 2 * count) - 1
        self.unit = unit
        self.ends = ends.reshape(count, 2).T  # (2, E)
        self.w = weights.repeat(counts)  # (E,), in units of ``unit``

        # per player, in units of ``unit``: the separated weight (``_sep``,
        # the base) and |w| summed over the edges at the player
        # (``_touching``, which bounds every ``bt[i, k]`` of a move table), on
        # object where a sum over all players could pass int64
        w = self.w.astype(object) if top * 2 * count >= _INT64_BOUND else self.w
        self._sep = np.zeros(n, dtype=w.dtype)
        if split < count:
            np.add.at(self._sep, ends[2 * split:], -w[split:].repeat(2))
        self._touching = self._sep
        if split:
            self._touching = self._sep.copy()
            np.add.at(self._touching, ends[:2 * split], w[:split].repeat(2))

    @cached_property
    def edges(self) -> list[tuple[int, int, int]]:
        """The signed edges as ``(a, b, w)`` triples of Python ints, ``w`` in
        value-scale units."""
        return list(zip(*self.ends.tolist(), _times(self.w, self.unit)))

    @cached_property
    def base(self) -> list[int]:
        """The separated weight at each player, in value-scale units."""
        return _times(self._sep, self.unit)

    # -- conversions --------------------------------------------------------

    def as_value(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.value_scale)

    def as_potential(self, scaled: int) -> Fraction:
        return Fraction(scaled, self.potential_scale)

    # -- one state, read off the move table ----------------------------------
    # no pass calls these three; they stay only because ``perfbench/tracing.py``
    # counts their calls by name

    def analyze(self, state) -> "Walk":
        return self.walk(state)

    def social(self, state) -> int:
        return self.walk(state).social

    def potential(self, state) -> int:
        return self.walk(state).potential

    # -- the state table -------------------------------------------------------

    @cached_property
    def _mach_max(self) -> int:
        """The largest machine term.  Every machine term is >= 0 (alpha > 0,
        p_k >= 0) and monotone in the occupancy (``alpha*x`` rises, ``p_k/x``
        falls, 0 stays), and so is every potential term (it rises)."""
        return max(max(row[1], row[-1]) for row in self.mach)

    @cached_property
    def _magnitude(self) -> int:
        """Bound on |any table entry summed over all players and machines|
        and on |any potential|."""
        touching = self._touching.tolist()
        value = self._mach_max + self.unit * max(map(add, self._sep.tolist(), touching))
        # the edges at all players count every edge twice, w_sep of them
        # negative
        potential = sum(row[-1] for row in self.pot) + self.pot_per_value * (
            self.w_sep + self.unit * (sum(touching) // 2)
        )
        return max(self.n * self.m * value, potential)

    def dtype(self, factor: int = 1):
        """np.int64 when ``factor`` times :attr:`_magnitude` stays below
        ``_INT64_SAFE``, else ``object``.  The state table and a move table
        whose gains are all exact take ``dtype()``; a pass that multiplies
        the state table by ``factor`` reads it at ``dtype(factor)``."""
        return np.int64 if factor * self._magnitude < _INT64_SAFE else object

    def _edge_arrays(self, dtype, unit: int = 1):
        """Edge ends, and as multiples of ``unit`` the edge weights, the
        symmetric n x n signed adjacency and the base of each player, in
        ``dtype``.  ``unit`` divides every edge weight, and either it divides
        :attr:`unit` or :attr:`unit` divides it."""
        weights = self._rescaled(self.w, dtype, unit)
        adj = np.zeros((self.n, self.n), dtype=dtype)
        ea, eb = self.ends
        adj[ea, eb] = weights  # every pair appears once
        adj[eb, ea] = weights
        return self.ends, weights, adj, self._rescaled(self._sep, dtype, unit)

    def _rescaled(self, values, dtype, unit: int):
        """``values``, in units of :attr:`unit`, in units of ``unit`` and in
        ``dtype``; exact whenever the results fit ``dtype``."""
        if unit % self.unit:
            ratio, op = self.unit // unit, np.multiply
        else:
            ratio, op = unit // self.unit, np.floor_divide
        if ratio != 1:
            if dtype is object or ratio >= _INT64_BOUND:
                values = values.astype(object)
            values = op(values, ratio)
        return values.astype(dtype, copy=False)

    @cached_property
    def _table_arrays(self):
        """The tables of :meth:`table` as arrays of ``dtype()``: mach (with
        one spare column, so that ``load + 1`` is a valid index even when
        everyone shares a machine), base, the adjacency and pot (padded to
        the shape of mach, so that one flat index reads both).  On int64 the
        adjacency is float64 when every neighbour sum is exact there (see
        :meth:`table`)."""
        dtype = self.dtype()
        _, _, adj, base = self._edge_arrays(dtype)
        if dtype is np.int64 and int(self._touching.max()) * self.unit < _FLOAT_EXACT:
            adj = adj.astype(np.float64)
        mach = np.array([row + [0] for row in self.mach], dtype=dtype)
        pot = np.array([row + [0] for row in self.pot], dtype=dtype)
        return mach, base, adj, pot

    def table(self, grid):
        """(vals, cur, social, phi) at every state of ``grid``, an ``(S, n)``
        array of internal states, at ``dtype()``; ``phi`` is the potential.

        The states are the last, contiguous axis of every array:
        ``vals[k, i, s]``, ``cur[i, s]``, ``social[s]`` and ``phi[s]``, so
        each reduction over machines or players runs along rows of states."""
        mach, base, adj, pot = self._table_arrays
        n, m = self.n, self.m
        digits = grid.T  # [i, s]: rows of the player-major column digits
        # [k, i, s]; on the grid's own dtype, as the columns' uint8 compares fastest
        onehot = digits == np.arange(m, dtype=grid.dtype)[:, None, None]
        # [k, s]; uint8, the fastest sum, holds every load below 256
        loads = onehot.sum(1, dtype=np.uint8 if n < 256 else np.int64)
        at = loads + (np.arange(m) * (n + 2))[:, None]  # flat index of mach[k][load_k]
        here = mach.take(at)
        # neighbour weight of i on k; on float64 every partial sum is an
        # integer below 2^53, so the product is exact in any order
        vals = (adj @ onehot.astype(adj.dtype)).astype(self.dtype(), copy=False)
        vals += base[:, None]
        # mach[k][load_k] where i is on k, mach[k][load_k + 1] where i joins k
        vals += np.where(onehot, here[:, None], mach.take(at + 1)[:, None])
        cur = vals[0].copy()
        for k in range(1, m):
            np.copyto(cur, vals[k], where=onehot[k])
        social = cur.sum(0)
        # social is the machine terms plus 2 * (w_sep + co-located weight)
        edges = (social - (loads * here).sum(0)) // 2
        phi = pot.take(at).sum(0) + self.pot_per_value * edges
        return vals, cur, social, phi

    @cached_property
    def _move_mode(self):
        """``(unit, tol, dtype)`` of a move table, see :class:`Walk`.

        Gains are exact in value-scale units (``unit`` 1, ``tol`` None) when
        :meth:`dtype` allows int64, or when even floats cannot hold them.
        Otherwise ``unit`` is the gcd of the value scale and every edge
        weight, floats propose within ``tol`` and ``dtype`` is that of ``bt``
        in units of ``unit``."""
        if self.dtype() is np.int64:
            return 1, None, np.int64
        unit = self.unit * gcd(self.value_scale // self.unit, *set(self.w.tolist()))
        edges = self.unit * max(self._touching.tolist()) // unit
        scale = edges + self._mach_max // unit + 1
        if scale >= _FLOAT_SAFE:
            return 1, None, object
        dtype = np.int64 if self.n * edges < _INT64_SAFE else object
        return unit, ldexp(scale, -49), dtype

    def walk(self, state) -> "Walk":
        """A :class:`Walk` from ``state``, an internal state."""
        return Walk(self, state)


class Walk:
    """The state of a best-response run, kept current move by move.

    ``cur`` and ``loads`` are the state and its machine loads; ``bt[i, k]``
    times ``unit`` is ``base[i]`` plus the signed weight of ``i``'s neighbours
    on ``k``, so a player's value on ``k`` is ``mach[k][occupancy] + unit *
    bt[i, k]``; ``social`` and ``potential`` are the scaled aggregates as
    exact Python ints.  One move touches two columns of ``bt`` and two loads,
    so :meth:`move` costs O(n) and :meth:`best` one pass over the n x m
    gains.

    ``_own[i]`` is ``i * m + s_i``, the flat index of player ``i``'s own cell
    in any n x m array; :meth:`move` keeps it current, and :meth:`best` reads
    the own cells of ``bt`` through it with one ``take`` and masks the own
    cells of the gains with one ``put``.

    With ``tol`` None every gain is exact (``unit`` 1, ``bt`` of the
    evaluator's ``dtype()``) and one argmax decides.  Otherwise ``bt`` holds
    small exact ints, the machine terms are floats, and :meth:`best` lets the
    float gains propose candidates and exact Python ints decide among them.
    """

    def __init__(self, ev: StateEvaluator, state):
        self.ev = ev
        self.unit, self.tol, dtype = ev._move_mode
        (ea, eb), weights, self._adj, base = ev._edge_arrays(dtype, self.unit)
        self._m = m = ev.m
        self.cur = cur = np.array(state, dtype=np.int64)
        self._own = np.arange(ev.n) * m + cur
        self.loads = np.bincount(cur, minlength=m).tolist()
        self.bt = np.repeat(base[:, None], m, axis=1)
        np.add.at(self.bt, (ea, cur[eb]), weights)
        np.add.at(self.bt, (eb, cur[ea]), weights)
        terms = dtype if self.tol is None else np.float64
        self._here = np.zeros(m, dtype=terms)  # mach[k][load] / unit
        self._there = np.zeros(m, dtype=terms)  # mach[k][load + 1] / unit
        for k in range(m):
            self._set_terms(k)
        # sum_i bt[i, s_i] counts every separated edge and every co-located
        # signed weight twice: it is 2 * (w_sep + co-located weight)
        edges = self.unit * int(self.bt.take(self._own).sum())
        loads = self.loads
        self.social = sum(x * row[x] for row, x in zip(ev.mach, loads)) + edges
        self.potential = sum(row[x] for row, x in zip(ev.pot, loads)) + (
            ev.pot_per_value * edges // 2
        )

    def _set_terms(self, k: int) -> None:
        row, x = self.ev.mach[k], self.loads[k]
        here, there = row[x], row[x + 1] if x < self.ev.n else 0
        if self.tol is not None:  # correctly rounded
            here, there = here / self.unit, there / self.unit
        self._here[k], self._there[k] = here, there

    def gain(self, i: int, k: int) -> int:
        """Exact scaled gain of player ``i`` moving to machine ``k != s_i``."""
        ev, loads, bt = self.ev, self.loads, self.bt
        s = self.cur.item(i)
        delta = ev.mach[k][loads[k] + 1] - ev.mach[s][loads[s]]
        delta += self.unit * (bt.item(i, k) - bt.item(i, s))
        return -delta if ev.minimizes else delta

    def best(self):
        """``(gain, player, machine)`` of the max-gain move, or None at a pure
        NE.  Ties go to the first maximum in (player, machine) order."""
        own = self._own
        bt = self.bt if self.tol is None else self.bt.astype(np.float64)
        here = self._here[self.cur] + bt.take(own)
        there = bt + self._there
        gain = here[:, None] - there if self.ev.minimizes else there - here[:, None]
        if self.tol is None:
            gain.put(own, 0)
            flat = gain.argmax().item()
            top = gain.item(flat)
            return (top,) + divmod(flat, self._m) if top > 0 else None
        # every float gain is within tol of its exact value, so the exact
        # maxima all lie within 2 * tol of the float maximum
        gain.put(own, -np.inf)
        top = gain.max()
        best = (0,)
        if top > -np.inf:  # else one machine: no move at all
            for flat in np.flatnonzero(gain >= top - 2 * self.tol).tolist():
                move = divmod(flat, self._m)
                exact = self.gain(*move)
                if exact > best[0]:
                    best = (exact,) + move
        return best if best[0] > 0 else None

    def move(self, p: int, t: int) -> int:
        """Move player ``p`` to machine ``t``; returns its source machine."""
        ev, loads, bt = self.ev, self.loads, self.bt
        s = self.cur.item(p)
        xs, xt = loads[s], loads[t]
        # change of the co-located edge weight
        edges = self.unit * (bt.item(p, t) - bt.item(p, s))
        ms, mt, ps, pt = ev.mach[s], ev.mach[t], ev.pot[s], ev.pot[t]
        self.social += (
            (xs - 1) * ms[xs - 1] - xs * ms[xs] + (xt + 1) * mt[xt + 1] - xt * mt[xt] + 2 * edges
        )
        self.potential += ps[xs - 1] - ps[xs] + pt[xt + 1] - pt[xt] + ev.pot_per_value * edges
        loads[s] -= 1
        loads[t] += 1
        column = self._adj[:, p]
        bt[:, s] -= column
        bt[:, t] += column
        self.cur[p] = t
        self._own[p] = p * self._m + t
        self._set_terms(s)
        self._set_terms(t)
        return s


def _times(a: np.ndarray, factor: int) -> list[int]:
    """``a`` times ``factor`` as a list of Python ints."""
    return a.tolist() if factor == 1 else [x * factor for x in a.tolist()]


def max_abs(a: np.ndarray) -> int:
    """max |a| as a Python int (0 when empty), exact on int64 and object."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def to_internal(state: tuple[int, ...]) -> tuple[int, ...]:
    """Public 1-based state -> internal 0-based."""
    return tuple(k - 1 for k in state)


def to_public(state) -> tuple[int, ...]:
    """Internal 0-based state -> public 1-based."""
    return tuple(k + 1 for k in state)
