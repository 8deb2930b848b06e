"""The scaled-integer evaluator must agree with the Fraction API everywhere.

This is the chain of trust for every enumeration pass: values, socials,
potentials, and deviation values are compared exhaustively on small instances
of every kind, including weighted sharing and rational combination weights,
and every entry of the state table is compared with the pointwise evaluator.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from conflictgames import fastpath
from conflictgames.fastpath import (
    StateEvaluator,
    column_blocks,
    orbit_columns,
    orbit_count,
    to_internal,
    to_public,
)
from conflictgames.games import (
    GameKind,
    make_instance,
    player_value,
    player_values,
    potential,
    social_value,
)
from conflictgames.instances import gen_random
from conflictgames.oracle import Orbits

from conftest import ALL_KINDS, beyond_int64_pool, kind_pool
from reference_evaluator import lex_states, state_blocks

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
                aux = ev.analyze(s0)
                got = [ev.as_value(v) for v in ev.values(aux)]
                assert tuple(got) == player_values(inst, state)
                assert ev.as_value(ev.social(s0)) == social_value(inst, state)
                assert ev.as_potential(ev.potential(s0)) == potential(inst, state)


def test_deviation_values_match_mutated_states():
    for kind in ALL_KINDS:
        for inst in kind_pool(kind, 3, n_max=4):
            ev = StateEvaluator(inst)
            for state in _all_states(inst):
                s0 = to_internal(state)
                aux = ev.analyze(s0)
                for i in range(inst.n):
                    for k in range(inst.m):
                        moved = state[:i] + (k + 1,) + state[i + 1:]
                        expected = player_value(inst, moved, i + 1)
                        assert ev.as_value(ev.value(aux, i, k)) == expected


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
            aux = ev.analyze(state)
            assert vals[:, :, s].tolist() == [
                [ev.value(aux, i, k) for i in range(inst.n)] for k in range(inst.m)
            ]
            assert cur[:, s].tolist() == ev.values(aux)
            assert social[s] == ev.social(state)
            assert phi[s] == ev.potential(state)
    return vals.dtype


def test_state_blocks_cover_every_state_in_lex_order(monkeypatch):
    shapes = ((1, 1), (1, 3), (3, 1), (4, 3), (10, 2), (11, 2), (5, 4), (1, 12), (3, 10))
    # the default blocks, and blocks small enough that 1024 states need several
    for cells in (fastpath._BLOCK_CELLS, 1 << 13):
        monkeypatch.setattr(fastpath, "_BLOCK_CELLS", cells)
        for n, m in shapes:
            digits, sizes = orbit_columns(n, m, False)
            assert digits.shape == (n, m**n) and digits.dtype == np.min_scalar_type(m - 1)
            assert not digits.flags.writeable and not sizes.flags.writeable
            assert sizes.shape == (m**n,) and sizes.strides == (0,) and int(sizes.sum()) == m**n
            blocks = list(column_blocks(digits, m))
            assert all(b.dtype == digits.dtype and b.shape[1] == n for b in blocks)
            assert all(len(b) * n * m <= cells for b in blocks)
            states = [tuple(s) for b in blocks for s in b.tolist()]
            assert states == list(itertools.product(range(m), repeat=n))
            # the reference cuts the states where the columns are cut
            reference = list(state_blocks(n, m))
            assert [len(b) for b in reference] == [len(b) for b in blocks]
    assert len(list(column_blocks(orbit_columns(10, 2, False)[0], 2))) > 1
    # a state is its lex index: the digits, the division and the decoding of
    # a column all give the same states
    for n, m in shapes:
        expected = list(itertools.product(range(m), repeat=n))
        decoded = lex_states(n, m, np.arange(m**n))
        assert decoded.dtype == np.int64
        assert [tuple(s) for s in decoded.tolist()] == expected
        every = Orbits(n, m, symmetric=False)
        assert [every.state(idx) for idx in range(m**n)] == [to_public(s) for s in expected]


def _stirling(n, j):
    """S(n, j) by inclusion-exclusion."""
    terms = ((-1) ** i * math.comb(j, i) * (j - i) ** n for i in range(j + 1))
    return sum(terms) // math.factorial(j)


def test_orbit_strings_count_order_and_sizes(monkeypatch):
    shapes = ((1, 1), (1, 3), (3, 1), (4, 3), (5, 2), (3, 4), (6, 4), (7, 3), (4, 6), (10, 2))
    # the default blocks, and blocks small enough that the strings need several
    for cells in (fastpath._BLOCK_CELLS, 1 << 6):
        monkeypatch.setattr(fastpath, "_BLOCK_CELLS", cells)
        for n, m in shapes:
            digits, sizes = orbit_columns(n, m, True)
            strings = [tuple(s) for s in digits.T.tolist()]
            assert len(strings) == orbit_count(n, m) == sum(
                _stirling(n, j) for j in range(1, m + 1)
            )
            # lex order, and each entry at most one above the largest before it
            assert strings == sorted(set(strings))
            assert all(
                s[0] == 0 and all(k <= max(s[:i]) + 1 for i, k in enumerate(s) if i)
                for s in strings
            )
            # orbit sizes: m!/(m - j)! for a string on j machines, m^n in all
            assert sizes.tolist() == [math.perm(m, len(set(s))) for s in strings]
            assert sizes.dtype == np.int64 and int(sizes.sum()) == m**n
            assert digits.dtype == np.min_scalar_type(m - 1)
            assert not digits.flags.writeable and not sizes.flags.writeable
            # blocks: the strings in order, none past the cell budget
            blocks = list(column_blocks(digits, m))
            assert [tuple(s) for b in blocks for s in b.tolist()] == strings
            assert all(b.shape[1] == n and len(b) * n * m <= max(cells, n * m) for b in blocks)
        several = len(list(column_blocks(orbit_columns(7, 3, True)[0], 3))) > 1
        assert several == (cells == 1 << 6)


def test_orbit_strings_cache_is_bounded():
    # one cache for both column domains, keyed by (n, m, symmetric)
    fastpath._cached_columns.cache_clear()
    assert fastpath._cached_columns.cache_info().maxsize == 8
    # the columns of a table within the budget are kept, the same arrays
    for symmetric in (True, False):
        assert orbit_columns(7, 3, symmetric)[0] is orbit_columns(7, 3, symmetric)[0]
        assert orbit_columns(7, 3, symmetric)[1] is orbit_columns(7, 3, symmetric)[1]
    assert fastpath._cached_columns.cache_info().currsize == 2
    # past the budget (88574 strings, 531441 states of 12 players on 3
    # machines) they are not
    assert orbit_count(12, 3) * 12 * 3 > fastpath._TABLE_CELLS
    for symmetric in (True, False):
        assert orbit_columns(12, 3, symmetric)[0] is not orbit_columns(12, 3, symmetric)[0]
    assert fastpath._cached_columns.cache_info().currsize == 2
    for n in range(2, 9):
        for symmetric in (True, False):
            orbit_columns(n, 2, symmetric)
    assert fastpath._cached_columns.cache_info().currsize == 8
    # an orbit size past int64 stays exact
    _, sizes = orbit_columns(3, 2**21, True)
    assert sizes.dtype == object and sizes.tolist()[-1] == 2**21 * (2**21 - 1) * (2**21 - 2)


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
