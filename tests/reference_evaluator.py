"""The evaluator's signed edges, set up edge by edge in Python, and the state
table from them state by state.

The reference for the array set-up of ``conflictgames.fastpath.StateEvaluator``,
which converts the instance's edge sets once into an ``ends`` array and a
small-weight array ``w`` and derives everything else from them;
``test_evaluator_setup`` requires the same edges, per-player sums, move-table
mode and edge arrays.  Here every signed edge is a Python triple in
value-scale units, and each derived quantity is its own loop over them.
:func:`reference_table` is the reference for the state table that
``conflictgames.oracle`` keeps between passes, and :func:`state_blocks`
decodes every state from its lex index by division, independently of the
digits of ``conflictgames.oracle.Orbits``.

:func:`analyze`, :func:`value`, :func:`values`, :func:`social` and
:func:`potential` evaluate one state of an evaluator at a time, each a loop
over its ``(a, b, w)`` edge triples: the references for every entry of the
state table, and for the gains of the move table
``conflictgames.fastpath.Walk`` and the aggregates that
``StateEvaluator.social`` and ``potential`` read off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, ldexp
from typing import Iterator

import numpy as np

from conflictgames import oracle
from conflictgames.fastpath import _FLOAT_SAFE, _INT64_SAFE, StateEvaluator
from conflictgames.games import GameKind, Instance


@dataclass
class Setup:
    n: int
    value_scale: int
    edges: list  # (a, b, w), 0-based ends, w in value-scale units
    base: list
    w_sep: int
    touching: list


def reference_setup(inst: Instance) -> Setup:
    n = inst.n
    conf, fr = inst.conflict_edges, inst.friendship_edges
    if inst.kind.minimizes:
        den = lcm(inst.alpha.denominator, inst.beta.denominator, inst.gamma.denominator)
        value_scale = den
        b, g = int(inst.beta * den), int(inst.gamma * den)
        signed = [(e, b) for e in conf] + [(e, -g) for e in fr]
    elif inst.kind.sharing:
        explicit = inst.edge_weights or ()
        dens = [p.denominator for p in inst.machine_values]
        dens += [w.denominator for _, w in explicit]
        d = lcm(*dens) if dens else 1
        ell = lcm(*range(1, n + 1))
        value_scale = d * ell
        sign = -1 if inst.kind is GameKind.SWC else 1
        own = conf if inst.kind is GameKind.SWC else fr
        scaled = dict.fromkeys(own, sign * d * ell)
        scaled.update((e, sign * w.numerator * (d // w.denominator) * ell) for e, w in explicit)
        signed = scaled.items()
    else:
        value_scale = 1
        signed = [(e, -1) for e in conf]

    edges = [(a - 1, b - 1, w) for (a, b), w in signed if w]
    base = [0] * n
    for a, b, w in edges:
        if w < 0:
            base[a] -= w
            base[b] -= w
    touching = list(base)
    for a, b, w in edges:
        if w > 0:
            touching[a] += w
            touching[b] += w
    return Setup(n, value_scale, edges, base, sum(base) // 2, touching)


def magnitude(ref: Setup, ev: StateEvaluator) -> int:
    """``StateEvaluator._magnitude`` from the reference sums and the
    evaluator's machine terms."""
    value = ev._mach_max + max(b + t for b, t in zip(ref.base, ref.touching))
    potential = sum(row[-1] for row in ev.pot) + (ev.potential_scale // ev.value_scale) * (
        ref.w_sep + sum(ref.touching) // 2
    )
    return max(ref.n * ev.m * value, potential)


def move_mode(ref: Setup, ev: StateEvaluator):
    """``StateEvaluator._move_mode`` from the reference edges."""
    if magnitude(ref, ev) < _INT64_SAFE:
        return 1, None, np.int64
    unit = gcd(ref.value_scale, *{w for _, _, w in ref.edges})
    edges = max(ref.touching) // unit
    scale = edges + ev._mach_max // unit + 1
    if scale >= _FLOAT_SAFE:
        return 1, None, object
    dtype = np.int64 if ref.n * edges < _INT64_SAFE else object
    return unit, ldexp(scale, -49), dtype


def edge_arrays(ref: Setup, dtype, unit: int = 1):
    """``StateEvaluator._edge_arrays(dtype, unit)`` from the reference edges:
    ends, weights, adjacency and base."""
    a, b, w = tuple(zip(*ref.edges)) or ((), (), ())

    def scaled(values):
        return (np.array(values, dtype=object) // unit).astype(dtype)

    ends = np.array([a, b], dtype=np.int64).reshape(2, -1)
    weights = scaled(w)
    adj = np.zeros((ref.n, ref.n), dtype=dtype)
    adj[ends[0], ends[1]] = weights
    adj[ends[1], ends[0]] = weights
    return ends, weights, adj, scaled(ref.base)


def reference_table(inst: Instance):
    """``(vals, cur, social, potential)`` of ``StateEvaluator.table`` over all
    states in lex order, as nested lists of Python ints in the table's index
    order (``vals[k][i][s]``, ``cur[i][s]``), computed one state at a time
    from the reference edges.  The machine terms ``mach`` and ``pot`` are the
    evaluator's."""
    ev = StateEvaluator(inst)
    ref = reference_setup(inst)
    n, m = inst.n, inst.m
    vals = [[[] for _ in range(n)] for _ in range(m)]
    cur = [[] for _ in range(n)]
    social, potential = [], []
    for state in itertools.product(range(m), repeat=n):
        loads = [state.count(k) for k in range(m)]
        neighbours = [[0] * m for _ in range(n)]  # signed weight of i's neighbours on k
        colocated = 0
        for a, b, w in ref.edges:
            neighbours[a][state[b]] += w
            neighbours[b][state[a]] += w
            if state[a] == state[b]:
                colocated += w
        for i in range(n):
            for k in range(m):
                value = ev.mach[k][loads[k] + (state[i] != k)] + ref.base[i] + neighbours[i][k]
                vals[k][i].append(value)
            cur[i].append(vals[state[i]][i][-1])
        social.append(sum(row[-1] for row in cur))
        potential.append(
            sum(ev.pot[k][loads[k]] for k in range(m))
            + ev.potential_scale // ev.value_scale * (ref.w_sep + colocated)
        )
    return vals, cur, social, potential


def loads(ev: StateEvaluator, state) -> list[int]:
    loads = [0] * ev.m
    for k in state:
        loads[k] += 1
    return loads


def edge_term(ev: StateEvaluator, state) -> int:
    """Separated-edge weight at ``state``: w_sep plus the signed weight of
    every co-located edge."""
    return ev.w_sep + sum(w for a, b, w in ev.edges if state[a] == state[b])


def social(ev: StateEvaluator, state) -> int:
    machines = sum(x * row[x] for row, x in zip(ev.mach, loads(ev, state)))
    return machines + 2 * edge_term(ev, state)


def potential(ev: StateEvaluator, state) -> int:
    machines = sum(row[x] for row, x in zip(ev.pot, loads(ev, state)))
    return machines + ev.pot_per_value * edge_term(ev, state)


def analyze(ev: StateEvaluator, state):
    """Aux bundle for :func:`value`: (state, loads, table).  The table is
    a flat n*m list; entry i*m+k is the signed weight of i's neighbours
    on machine k."""
    m = ev.m
    tab = [0] * (ev.n * m)
    for a, b, w in ev.edges:
        tab[a * m + state[b]] += w
        tab[b * m + state[a]] += w
    return (tuple(state), loads(ev, state), tab)


def value(ev: StateEvaluator, aux, i: int, k: int) -> int:
    """Scaled value of player ``i`` if assigned to ``k``, all others fixed
    at the analyzed state.  Exact both for k == s_i and for deviations."""
    state, loads, tab = aux
    occ = loads[k] if state[i] == k else loads[k] + 1
    return ev.mach[k][occ] + ev.base[i] + tab[i * ev.m + k]


def values(ev: StateEvaluator, aux) -> list[int]:
    state = aux[0]
    return [value(ev, aux, i, state[i]) for i in range(ev.n)]


def lex_states(n: int, m: int, idx: np.ndarray) -> np.ndarray:
    """The internal states of lex indexes ``idx`` (an int64 array), as an
    ``(S, n)`` int64 array: the mixed-radix digits of each index, stored
    player-major (its transpose is contiguous)."""
    place = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return (idx // place[:, None] % m).T


def state_blocks(n: int, m: int) -> Iterator[np.ndarray]:
    """All m^n internal states in lex order, as ``(S, n)`` int64 grids for
    ``StateEvaluator.table``, cut where ``oracle.column_blocks`` cuts the
    states: at most ``oracle._BLOCK_CELLS`` (state, player, machine) cells
    each."""
    count = m**n
    step = max(1, oracle._BLOCK_CELLS // (n * m))
    for start in range(0, count, step):
        yield lex_states(n, m, np.arange(start, min(start + step, count), dtype=np.int64))
