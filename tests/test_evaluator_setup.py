"""The array set-up of ``StateEvaluator`` against the per-edge reference.

The evaluator converts the instance's edge sets once, into ``ends`` (0-based,
``(2, E)`` int64) and ``w`` (small weights in units of ``unit``, int64 unless
a weight itself passes int64), and derives the base, the separated weight,
the per-player |w| sums, the move-table mode and every edge array from them;
``reference_evaluator`` builds the same quantities edge by edge in Python,
in value-scale units, and the arrays times ``unit`` are compared with them.
The two must agree on every kind, with weighted sharing, with weights and
sums beyond int64, with zero weights dropped, without edges and at n = 1.
"""

from collections import Counter
from fractions import Fraction
from math import lcm

import numpy as np

from conflictgames.fastpath import _INT64_BOUND, StateEvaluator
from conflictgames.games import GameKind, make_instance
from conflictgames.instances import gen_random

from conftest import ALL_KINDS, beyond_int64_pool, kind_pool
from reference_evaluator import edge_arrays, magnitude, move_mode, reference_setup

F = Fraction


def _make(kind, n, m=2, **edges):
    values = {"machine_values": [F(k + 1, 3) for k in range(m)]} if kind.sharing else {}
    return make_instance(kind, n, m, **edges, **values)


def _large(kind):
    m = 2 if kind is GameKind.MAXCUT else 5
    return [
        gen_random(40, min(m, 3), kind, F(1, 2), seed=43),
        gen_random(60, m, kind, F(1, 8), seed=65, weighted=kind.sharing),
    ]


def _sums_past_int64():
    # int64 weights whose sums at player 1 and over all players do not fit
    return make_instance(
        GameKind.BWCF, 4, 2, conflict_edges=[(1, 2), (1, 3)],
        friendship_edges=[(1, 4), (2, 3)], alpha=1, beta=2**62 - 1, gamma=2**61 + 1,
    )


def _scaled_weights_past_int64():
    # int64 small weights (d = 2^60 + 1) whose value-scale weights d * 12 do not fit
    return make_instance(
        GameKind.SWC, 4, 2, conflict_edges=[(1, 2), (2, 3), (1, 4)],
        machine_values=(F(1, 2**60 + 1), F(1)),
    )


def _huge_cost_weights():
    return make_instance(
        GameKind.BWCF, 3, 2, conflict_edges=[(1, 2)], friendship_edges=[(2, 3)],
        alpha=F(1, 2**61 + 1), beta=F(3, 2**62 + 5), gamma=F(1, 3),
    )


def _zero_weights():
    return [
        gen_random(8, 3, GameKind.BWCF, F(1, 2), seed=seed, alpha=1, beta=beta, gamma=gamma)
        for seed, (beta, gamma) in enumerate(((0, 2), (1, 0), (F(1, 2), 0), (0, 0)))
    ]


def _edgeless():
    pool = [_make(kind, n, m) for kind in ALL_KINDS for n, m in ((1, 2), (5, 2), (60, 2))]
    # a move-table unit, the whole value scale, past int64
    pool += [
        make_instance(kind, 3, 2, machine_values=(F(1, 2**64 + 1), F(1)))
        for kind in (GameKind.SWC, GameKind.SWF)
    ]
    return pool


def _single_player():
    return [
        _make(kind, 1, 2 if kind is GameKind.MAXCUT else 3) for kind in ALL_KINDS
    ] + [gen_random(1, 2, kind, F(1), seed=1) for kind in ALL_KINDS]


def setup_pool():
    pool = [inst for kind in ALL_KINDS for inst in kind_pool(kind, 8)]
    pool += [inst for kind in ALL_KINDS for inst in _large(kind)]
    pool += beyond_int64_pool() + [_huge_cost_weights(), _sums_past_int64()]
    pool.append(_scaled_weights_past_int64())
    pool += _zero_weights() + _edgeless() + _single_player()
    return pool


def _triples(ends, weights):
    return Counter(zip(ends[0].tolist(), ends[1].tolist(), weights.tolist()))


def assert_same_setup(inst):
    ev, ref = StateEvaluator(inst), reference_setup(inst)
    count = len(ref.edges)
    assert ev.ends.dtype == np.int64 and ev.ends.shape == (2, count)
    assert ev.w.shape == (count,)
    assert ev.unit == (lcm(*range(1, inst.n + 1)) if inst.kind.sharing else 1)
    small = all(abs(w) < _INT64_BOUND * ev.unit for _, _, w in ref.edges)
    assert ev.w.dtype == (np.int64 if small else object)
    # the arrays, times ``unit``, are the reference's edges, bases and
    # separated weight
    weights, sep = ev.w.tolist(), ev._sep.tolist()
    assert all(type(v) is int for v in weights + sep)
    assert _triples(ev.ends, ev.w.astype(object) * ev.unit) == Counter(ref.edges)
    assert [ev.unit * b for b in sep] == ref.base
    assert [ev.unit * t for t in ev._touching.tolist()] == ref.touching
    assert ev.unit * -sum(w for w in weights if w < 0) == ref.w_sep
    assert ev._magnitude == magnitude(ref, ev)
    mode = ev._move_mode
    assert mode == move_mode(ref, ev)
    # the state table's arrays at dtype(), the same on object, and the walk's
    # move table
    unit, _, dtype = mode
    for key in {(ev.dtype(), 1), (object, 1), (dtype, unit)}:
        got, want = ev._edge_arrays(*key), edge_arrays(ref, *key)
        assert _triples(*got[:2]) == _triples(*want[:2])
        assert got[1].dtype == want[1].dtype == key[0]
        for a, b in zip(got[2:], want[2:]):  # adjacency and base
            assert a.dtype == b.dtype == key[0] and a.tolist() == b.tolist()
    return ev


def test_every_kind_and_edge_case_matches_the_reference():
    pool = setup_pool()
    evs = [assert_same_setup(inst) for inst in pool]
    assert {inst.kind for inst in pool} == set(ALL_KINDS)
    assert any(inst.kind.sharing and inst.edge_weights for inst in pool)
    assert any(ev.w.dtype == object for ev in evs)
    assert any(ev.w.dtype == object and inst.kind.sharing and inst.edge_weights
               for inst, ev in zip(pool, evs))
    # exact gains on int64, and floats proposing over bt on int64 and object
    modes = {(tol is None, dtype) for _, tol, dtype in (ev._move_mode for ev in evs)}
    assert modes >= {(True, np.int64), (False, np.int64), (False, object)}


def test_zero_combination_weights_drop_their_edges():
    for inst in _zero_weights():
        kept = (inst.conflict_edges if inst.beta else set()) | (
            inst.friendship_edges if inst.gamma else set()
        )
        assert len(kept) < len(inst.conflict_edges) + len(inst.friendship_edges)
        assert {(a + 1, b + 1) for a, b in StateEvaluator(inst).ends.T.tolist()} == kept


def test_int64_weights_past_int64_once_summed_or_scaled():
    # player 1's |w| sum, 2 * (2^62 - 1) + 2^61 + 1, is kept on object, and
    # weights are widened before they are scaled to value-scale units
    ev = StateEvaluator(_sums_past_int64())
    assert ev.w.dtype == np.int64 and ev._touching.dtype == object
    assert max(ev._touching) >= _INT64_BOUND
    ev = StateEvaluator(_scaled_weights_past_int64())
    assert ev.w.dtype == np.int64 and ev.dtype() is object
    assert ev._edge_arrays(object)[1].min() <= -_INT64_BOUND
