"""The scaled-integer evaluator must agree with the Fraction API everywhere.

This is the chain of trust for every enumeration pass and every
best-response run.  The pointwise reference evaluator of
``reference_evaluator`` is compared exhaustively with the Fraction API on
small instances of every kind, including weighted sharing and rational
combination weights: values, socials, potentials and deviation values.  Every
entry of the state table, and the aggregates and gains of the move table at
every state, are then compared with that reference.
"""

import itertools
import random
from fractions import Fraction

import numpy as np

from conflictgames.fastpath import StateEvaluator, to_internal, to_public
from conflictgames.games import (
    GameKind,
    make_instance,
    player_value,
    player_values,
    potential,
    social_value,
)
from conflictgames.instances import gen_random

import reference_evaluator as pointwise
from conftest import ALL_KINDS, beyond_int64_pool, kind_pool
from reference_evaluator import state_blocks

F = Fraction


def _all_states(inst):
    return itertools.product(range(1, inst.m + 1), repeat=inst.n)


def test_round_trip_state_conversion():
    assert to_public(to_internal((1, 3, 2))) == (1, 3, 2)


def test_values_social_potential_match_fraction_api():
    for kind in ALL_KINDS:
        for inst in kind_pool(kind, 4, n_max=4):
            ev = StateEvaluator(inst)
            for state in _all_states(inst):
                s0 = to_internal(state)
                aux = pointwise.analyze(ev, s0)
                got = [ev.as_value(v) for v in pointwise.values(ev, aux)]
                assert tuple(got) == player_values(inst, state)
                assert ev.as_value(pointwise.social(ev, s0)) == social_value(inst, state)
                assert ev.as_potential(pointwise.potential(ev, s0)) == potential(inst, state)


def test_deviation_values_match_mutated_states():
    for kind in ALL_KINDS:
        for inst in kind_pool(kind, 3, n_max=4):
            ev = StateEvaluator(inst)
            for state in _all_states(inst):
                s0 = to_internal(state)
                aux = pointwise.analyze(ev, s0)
                for i in range(inst.n):
                    for k in range(inst.m):
                        moved = state[:i] + (k + 1,) + state[i + 1:]
                        expected = player_value(inst, moved, i + 1)
                        assert ev.as_value(pointwise.value(ev, aux, i, k)) == expected


def _assert_walk_matches_pointwise(inst, states):
    """At every state: the evaluator's social value and potential, read off
    the move table, against the reference and the Fraction API, and every
    gain of the move table against the reference values.  Returns the last
    walk."""
    ev = StateEvaluator(inst)
    for state in states:
        s0 = to_internal(state)
        social, phi = ev.social(s0), ev.potential(s0)
        assert social == pointwise.social(ev, s0)
        assert ev.as_value(social) == social_value(inst, state)
        assert phi == pointwise.potential(ev, s0)
        assert ev.as_potential(phi) == potential(inst, state)
        walk, aux = ev.walk(s0), pointwise.analyze(ev, s0)
        for i in range(inst.n):
            here = pointwise.value(ev, aux, i, s0[i])
            for k in range(inst.m):
                if k != s0[i]:
                    delta = pointwise.value(ev, aux, i, k) - here
                    assert walk.gain(i, k) == (-delta if ev.minimizes else delta), (state, i, k)
    return walk


def test_walk_matches_pointwise_at_every_state():
    pool = [inst for kind in ALL_KINDS for inst in kind_pool(kind, 4, n_max=4)]
    for inst in pool + beyond_int64_pool():
        _assert_walk_matches_pointwise(inst, _all_states(inst))


def test_walk_matches_pointwise_while_floats_propose():
    # the sharing kinds at n = 40 pass int64: floats propose, exact ints decide
    for kind in (GameKind.SWC, GameKind.SWF):
        inst = gen_random(40, 3, kind, F(1, 4), seed=1)
        rng = random.Random(40)
        states = [tuple(rng.randint(1, 3) for _ in range(40)) for _ in range(50)]
        assert _assert_walk_matches_pointwise(inst, states).tol is not None


def _table_pool():
    pool = [inst for kind in ALL_KINDS for inst in kind_pool(kind, 4, n_max=4)]
    pool += [  # rational combination weights, weighted sharing
        gen_random(3, 3, GameKind.BWCF, F(1, 2), seed=5,
                   alpha=F(2, 3), beta=F(3, 5), gamma=F(5, 7)),
        gen_random(4, 3, GameKind.SWC, F(1, 2), seed=1, weighted=True),
        gen_random(4, 3, GameKind.SWF, F(3, 4), seed=2, weighted=True),
    ]
    return pool


def _assert_table_matches_pointwise(ev):
    inst = ev.inst
    for grid in state_blocks(inst.n, inst.m):
        vals, cur, social, phi = ev.table(grid)
        assert vals.shape == (inst.m, inst.n, len(grid))
        for s, state in enumerate(grid.tolist()):
            aux = pointwise.analyze(ev, state)
            assert vals[:, :, s].tolist() == [
                [pointwise.value(ev, aux, i, k) for i in range(inst.n)] for k in range(inst.m)
            ]
            assert cur[:, s].tolist() == pointwise.values(ev, aux)
            assert social[s] == pointwise.social(ev, state)
            assert phi[s] == pointwise.potential(ev, state)
    return vals.dtype


def test_table_matches_pointwise_evaluator():
    pool = _table_pool()
    assert {inst.kind for inst in pool} == set(ALL_KINDS)
    assert any(inst.kind.sharing and inst.edge_weights for inst in pool)
    for inst in pool:
        assert _assert_table_matches_pointwise(StateEvaluator(inst)) == np.int64


def test_table_beyond_int64_is_exact_on_object_dtype():
    for inst in beyond_int64_pool():
        assert _assert_table_matches_pointwise(StateEvaluator(inst)) == object


def test_neighbour_sums_on_float64_only_while_exact():
    # a weight of 2^53 + 1 rounds on float64, so its sums take the integer
    # product; with every |w| sum at one player below 2^53 they are exact on
    # float64 and take the float product
    for beta, on_float in ((2**53 + 1, False), (2**52 - 1, True)):
        inst = make_instance(
            GameKind.BWCF, 3, 2, conflict_edges=[(1, 2), (2, 3)],
            alpha=F(1), beta=F(beta), gamma=F(0),
        )
        ev = StateEvaluator(inst)
        assert ev.dtype() is np.int64
        adjacency = ev._table_arrays[2]
        assert (adjacency.dtype == np.float64) is on_float
        assert _assert_table_matches_pointwise(ev) == np.int64
