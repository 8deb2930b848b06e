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

Equivalence with the public Fraction evaluation in :mod:`conflictgames.games`
is enforced exhaustively by the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .games import GameKind, Instance, sharing_weights


class StateEvaluator:
    """Per-instance tables plus O(n*m + |E|) per-state evaluation."""

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

    def uniform_deviation_lhs(self, state, support) -> int:
        """Semi-smoothness left-hand side at ``state`` for the profile that is
        uniform over the machines in ``support``, scaled by
        ``len(support) * value_scale``: every player's value summed over
        every support machine, everyone else pinned at ``state``."""
        n, loads = self.n, self.loads(state)
        in_support = [False] * self.m
        for l in support:
            in_support[l] = True
        total = 2 * len(support) * self.w_sep
        for l in support:
            x, row = loads[l], self.mach[l]
            total += x * row[x]
            if x < n:
                total += (n - x) * row[x + 1]
        for a, b, w in self.edges:
            total += w * (in_support[state[a]] + in_support[state[b]])
        return total


def to_internal(state: tuple[int, ...]) -> tuple[int, ...]:
    """Public 1-based state -> internal 0-based."""
    return tuple(k - 1 for k in state)


def to_public(state) -> tuple[int, ...]:
    """Internal 0-based state -> public 1-based."""
    return tuple(k + 1 for k in state)
