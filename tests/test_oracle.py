"""Enumeration oracle: optima, Nash sets, mixed verification, worst CCE."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conflictgames import oracle
from conflictgames.fastpath import _INT64_SAFE, StateEvaluator, to_internal, to_public
from conflictgames.games import (
    GameKind,
    make_instance,
    player_value,
    point_mass_profile,
    social_value,
    uniform_profile,
)
from conflictgames.instances import (
    gen_bwc_multipartite,
    gen_bwcf_lower,
    gen_bwf_cliques,
    gen_maxcut_edge,
    gen_path4,
    gen_random,
    gen_swc_pos,
    gen_swf_nostrong,
)
from conflictgames.oracle import (
    OracleLimits,
    StateSpaceExceeded,
    enumerate_states,
    equilibrium_report,
    expected_player_value,
    optimum,
    profile_expected_value,
    pure_nash_set,
    state_count,
    strong_nash_set,
    verify_mixed_ne,
    worst_cce_value,
    worst_social_state,
)

from reference_oracle import (
    expected_player_value_by_kind,
    strong_nash_set_by_candidates,
    strong_nash_set_by_coalitions,
)
from conftest import (
    ALL_KINDS,
    BWCF_PRESETS,
    beyond_int64_pool,
    kind_pool,
    small_instance,
    with_machine_values,
)
import reference_evaluator as pointwise
from reference_evaluator import lex_states, state_blocks

F = Fraction


class TestEnumeration:
    @pytest.mark.parametrize("n,m,count", [(4, 2, 16), (3, 3, 27), (9, 3, 19683)])
    def test_state_counts(self, n, m, count):
        inst = make_instance(GameKind.BWC, n, m)
        states = list(enumerate_states(inst))
        assert len(states) == count == state_count(inst)
        assert states == sorted(states)  # lexicographic

    def test_cap_raises_with_limit_name(self):
        inst = make_instance(GameKind.BWC, 10, 3)
        with pytest.raises(StateSpaceExceeded) as err:
            enumerate_states(inst, OracleLimits(max_states=100))
        assert err.value.limit_name == "max_states"


class TestOptimum:
    def test_multipartite_m2(self):
        state, value = optimum(gen_bwc_multipartite(2))
        assert value == 8 and state == (1, 1, 2, 2)  # lex-smallest optimum

    def test_path4(self):
        assert optimum(gen_path4())[1] == 8

    def test_swc_pos(self):
        assert optimum(gen_swc_pos(3, F(1, 10)))[1] == F(121, 10)

    def test_exhaustive_scan_agrees(self, mixed_pool):
        for inst in mixed_pool:
            if state_count(inst) > 512:
                continue
            values = {
                s: social_value(inst, s) for s in enumerate_states(inst)
            }
            extremal = min(values.values()) if inst.kind.minimizes else max(values.values())
            state, value = optimum(inst)
            assert value == extremal
            assert state == min(s for s, v in values.items() if v == extremal)

    def test_worst_social_state_is_other_extreme(self):
        inst = gen_bwc_multipartite(2)
        state, value = worst_social_state(inst)
        assert value == max(social_value(inst, s) for s in enumerate_states(inst))


class TestPureNash:
    def test_swc_pos_unique(self):
        ne = pure_nash_set(gen_swc_pos(3, F(1, 10)))
        assert ne == [((1, 1, 1), F(61, 10))]

    def test_multipartite_m2_exact_set(self):
        ne = dict(pure_nash_set(gen_bwc_multipartite(2)))
        assert ne == {
            (1, 1, 2, 2): 8,
            (2, 2, 1, 1): 8,
            (1, 2, 1, 2): 12,
            (1, 2, 2, 1): 12,
            (2, 1, 1, 2): 12,
            (2, 1, 2, 1): 12,
        }

    def test_single_player(self):
        inst = make_instance(GameKind.SWC, 1, 3, machine_values=[1, 5, 2])
        assert pure_nash_set(inst) == [((2,), F(5))]

    def test_never_empty_on_pool(self, mixed_pool):
        for inst in mixed_pool:
            if state_count(inst) <= 512:
                assert pure_nash_set(inst)

    def test_definition_against_direct_check(self):
        inst = small_instance(GameKind.BWCF, 3, n_max=4)
        from conflictgames.games import deviation_gain

        expected = []
        for s in enumerate_states(inst):
            if all(
                deviation_gain(inst, s, i, k) <= 0
                for i in range(1, inst.n + 1)
                for k in range(1, inst.m + 1)
            ):
                expected.append(s)
        assert [s for s, _ in pure_nash_set(inst)] == expected


class TestStrongNash:
    def test_path4_set(self):
        strong = dict(strong_nash_set(gen_path4()))
        assert strong == {
            (1, 2, 1, 2): 8,
            (2, 1, 2, 1): 8,
            (1, 2, 2, 1): 10,
            (2, 1, 1, 2): 10,
        }

    def test_swf_nostrong_empty(self):
        assert strong_nash_set(gen_swf_nostrong(F(1, 10))) == []

    def test_optimum_is_strong_for_two_machine_conflicts(self):
        for seed in range(6):
            inst = gen_random(5, 2, GameKind.BWC, F(1, 2), seed=seed)
            rep = equilibrium_report(inst)
            assert rep.optimum in rep.strong_ne

    def test_two_machine_friendship_strong_poa_bound(self):
        # optimum stays strong and the worst strong NE is within 4/3, n <= 8
        for seed in range(8):
            n = 3 + seed % 6
            inst = gen_random(n, 2, GameKind.BWF, F(1, 2), seed=40 + seed)
            rep = equilibrium_report(inst)
            assert rep.optimum in rep.strong_ne
            assert rep.strong_poa <= F(4, 3)

    def test_fast_scan_matches_coalition_reference(self):
        for kind in ALL_KINDS:
            pool = [small_instance(kind, seed, n_max=4) for seed in range(4)]
            if kind is not GameKind.MAXCUT:  # n = 4, m = 3; SwC/SwF refute some pure NE
                for seed, prob in ((7, F(1, 2)), (5, F(1))):
                    pool.append(gen_random(4, 3, kind, prob, seed=seed, weighted=kind.sharing))
            for inst in pool:
                assert strong_nash_set(inst) == strong_nash_set_by_coalitions(inst)

    def test_fast_scan_matches_reference_beyond_int64(self):
        # scaled values above the int64-safe bound take the object-dtype scan
        pool = beyond_int64_pool()
        for inst in pool:
            top = max(
                abs(v)
                for s in enumerate_states(inst)
                for v in pointwise.values(inst, pointwise.analyze(inst, to_internal(s)))
            )
            assert top >= _INT64_SAFE
            assert strong_nash_set(inst) == strong_nash_set_by_coalitions(inst)

    def test_subset_of_pure(self, mixed_pool):
        for inst in mixed_pool:
            if inst.n > 8 or state_count(inst) > 512:
                continue
            pure = set(s for s, _ in pure_nash_set(inst))
            strong = set(s for s, _ in strong_nash_set(inst))
            assert strong <= pure

    def test_machines_past_one_byte(self):
        # every state of one player on 300 machines is strong; machine 300
        # must not wrap around in a small-int machine dtype
        inst = make_instance(GameKind.BWC, 1, 300)
        strong = strong_nash_set(inst)
        assert [s for s, _ in strong] == [(k,) for k in range(1, 301)]
        assert strong == pure_nash_set(inst)

    def test_player_cap(self):
        inst = make_instance(GameKind.BWC, 11, 2)
        with pytest.raises(StateSpaceExceeded) as err:
            strong_nash_set(inst)
        assert err.value.limit_name == "strong_max_players"


def _strong_pool(kind):
    """n = 7, m = 3 (the cut game: n = 8, m = 2), sparse and dense, weighted
    sharing on seed 1; every kind but BwF refutes some pure equilibria."""
    n, m = (8, 2) if kind is GameKind.MAXCUT else (7, 3)
    pool = []
    for seed in range(3):
        kwargs = {}
        if kind is GameKind.BWCF:
            kwargs = dict(zip(("alpha", "beta", "gamma"), BWCF_PRESETS[seed]))
        for prob in (F(1, 4), F(3, 4)):
            pool.append(gen_random(
                n, m, kind, prob, seed=seed, weighted=kind.sharing and seed == 1, **kwargs
            ))
    return pool


HUGE = F(3, 2**61 - 1)


def _word_pool():
    """(instance, members, symmetric): the members of the strong scan's
    candidate orbits are the pure equilibria, 63, 64, 65 and more than 128 of
    them, so a chunk of 64 falls short of one word, fills it, spills into a
    second, and a third (the 151 of SwC refute the last member of the first
    word, the first of the second and the first of the third, and keep 18);
    on both column domains, cost and payoff kinds, int64 and ``object``
    tables, with strings on fewer machines than m (the 64 of BwF are 32
    strings on one or two machines, the 65 of BwCF one on a single machine
    and one on three of five), and one machine."""
    swc, dense = (gen_random(5, 4, GameKind.SWC, prob, seed=0) for prob in (F(1, 4), F(1)))
    return [
        (gen_random(6, 4, GameKind.SWC, F(1), seed=7, weighted=True), 63, False),
        (gen_random(6, 4, GameKind.SWC, F(3, 4), seed=1, weighted=True), 64, False),
        (gen_random(6, 2, GameKind.BWF, F(1), seed=0), 64, True),
        (gen_random(8, 3, GameKind.SWF, F(1), seed=10), 65, False),
        (gen_random(4, 5, GameKind.BWCF, F(3, 4), seed=11), 65, True),
        (gen_random(5, 4, GameKind.BWC, F(1, 4), seed=0), 216, True),
        (gen_random(6, 4, GameKind.SWC, F(1, 4), seed=0), 159, False),
        (gen_random(7, 3, GameKind.SWC, F(3, 4), seed=6), 151, False),
        (with_machine_values(swc, (HUGE,) * 4), 216, True),
        (with_machine_values(dense, (HUGE,) + (F(1),) * 3), 180, False),
        (make_instance(GameKind.BWC, 4, 1), 1, True),
        (make_instance(GameKind.SWF, 3, 1, friendship_edges=[(1, 2)], machine_values=[2]), 1,
         True),
    ]


WORD_POOL = [
    pytest.param(*case, id=f"{case[1]}-{case[0].kind.value}-m{case[0].m}") for case in _word_pool()
]


class TestChunkedStrongScan:
    """The strong scan, 64 members of the candidates' orbits to a word,
    against the one-candidate-at-a-time scan of ``reference_oracle``, across
    the word boundaries; and the orbit reduction behind it."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_matches_candidate_scan(self, kind):
        refuted = 0
        for inst in _strong_pool(kind):
            expected = strong_nash_set_by_candidates(inst)
            assert strong_nash_set(inst) == expected
            # every machine has the same machine term unless the machine
            # values differ, which they do in this pool
            candidates, tested = _representatives(inst)
            assert (len(np.unique(tested)) < len(candidates)) == (not kind.sharing)
            refuted += len(candidates) - len(expected)
        assert (refuted == 0) == (kind is GameKind.BWF)

    def test_more_candidates_than_one_chunk(self):
        inst = make_instance(GameKind.BWC, 7, 3)  # every balanced state
        strong = strong_nash_set(inst)
        # the 630 members of the 105 candidate strings fill nine words and
        # part of a tenth
        assert len(strong) == len(pure_nash_set(inst)) == 630 > 9 * 64
        assert strong == strong_nash_set_by_candidates(inst)

    @pytest.mark.parametrize("inst,members,symmetric", WORD_POOL)
    def test_members_across_word_boundaries(self, inst, members, symmetric):
        ev = StateEvaluator(inst)
        assert len(pure_nash_set(inst)) == members and ev.symmetric == symmetric
        assert (ev.dtype() is object) == (HUGE in (inst.machine_values or ()))
        strong = strong_nash_set(inst)
        assert strong == strong_nash_set_by_candidates(inst)
        if inst.m == 1:
            assert strong == strong_nash_set_by_coalitions(inst)

    def test_object_values(self):
        for inst in beyond_int64_pool():
            assert StateEvaluator(inst).dtype() is object
            assert strong_nash_set(inst) == strong_nash_set_by_candidates(inst)

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 3), (4, 3), (3, 4), (5, 2)])
    def test_orbit_representative_is_the_smallest_relabelling(self, monkeypatch, n, m):
        # the strings are the smallest relabelling of each state, one per
        # orbit, in lex order; and the column of each state's orbit is the
        # one of its smallest relabelling
        place = [m ** (n - 1 - i) for i in range(n)]
        smallest = [
            min(
                sum(perm[k] * p for k, p in zip(state, place))
                for perm in itertools.permutations(range(m))
            )
            for state in itertools.product(range(m), repeat=n)
        ]
        columns = oracle.orbits_of(n, m, symmetric=True)
        digits, sizes = columns.digits, columns.sizes()
        strings = [sum(k * p for k, p in zip(string, place)) for string in digits.T.tolist()]
        assert strings == sorted(set(smallest))
        assert sizes.tolist() == [smallest.count(string) for string in strings]
        for cap in (oracle._INDEX_STATES, 0):  # indexed, and renamed on every call
            monkeypatch.setattr(oracle, "_INDEX_STATES", cap)
            orbits = oracle.orbits_of(n, m, symmetric=True)
            assert orbits.indexed == (cap > 0)
            assert _lex(orbits, _orbit_map(orbits)).tolist() == smallest

    def test_orbit_expansion_past_int64_lex_indexes(self):
        # 256^8 = 2^64 states: lex indexes pass int64, so the expansion
        # orders the states of several orbits as exact ints
        n, m = 8, 256
        orbits = oracle.orbits_of(n, m, symmetric=True)
        assert not orbits.indexed and orbits is not oracle.orbits_of(n, m, symmetric=True)
        digits, sizes = orbits.digits, orbits.sizes()
        assert orbits.count == len(sizes) == 4140 and sizes.dtype == object
        cols = np.array([0, 1, 2], dtype=np.int64)  # all on machine 1, then two on 2 machines
        strings = [tuple(digits[:, c].tolist()) for c in cols]
        assert strings == [(0,) * 8, (0,) * 7 + (1,), (0,) * 6 + (1, 0)]
        expected = sorted(
            (tuple(perm[k] + 1 for k in string), col)
            for col, string in zip(cols.tolist(), strings)
            for perm in itertools.permutations(range(m), len(set(string)))
        )
        states, got = orbits.expand(cols)
        assert len(states) == sum(sizes[cols]) == m + 2 * m * (m - 1)
        assert list(zip(states, got.tolist())) == expected

    def test_sharing_with_equal_machine_values_takes_the_orbits(self):
        # all three machine values equal: the orbits; two of three: every
        # candidate is its own representative
        equal, huge = F(7, 2), F(3, 2**61 - 1)
        refuted = 0
        for kind in (GameKind.SWC, GameKind.SWF):
            for n, prob, seed in ((3, F(1), 0), (4, F(1, 2), 1), (4, F(3, 4), 2), (6, F(1, 2), 3)):
                base = gen_random(n, 3, kind, prob, seed=seed, weighted=seed % 2 == 1)
                for values in (
                    (equal,) * 3, (huge,) * 3, (equal, equal, F(9, 2)), (F(9, 2), equal, equal),
                ):
                    inst = with_machine_values(base, values)
                    candidates, tested = _representatives(inst)
                    if len(set(values)) == 1:
                        assert len(np.unique(tested)) < len(candidates)
                    else:
                        assert np.array_equal(tested, candidates)
                    strong = strong_nash_set(inst)
                    assert strong == strong_nash_set_by_candidates(inst)
                    if n <= 4:
                        assert strong == strong_nash_set_by_coalitions(inst)
                    refuted += len(candidates) - len(strong)
        assert refuted > 0

    def test_orbits_of_equilibria_that_leave_machines_empty(self):
        # pure equilibria on fewer than m machines; the orbit of one on k
        # machines has m!/(m-k)! states, fewer than m! when k <= m - 2
        friends = gen_random(4, 4, GameKind.SWF, F(1, 2), seed=3)
        pool = [
            gen_random(2, 3, GameKind.BWC, F(1), seed=0),
            make_instance(GameKind.BWC, 2, 3),
            gen_random(5, 4, GameKind.BWF, F(3, 4), seed=2),
            with_machine_values(friends, (F(1),) * 4),
        ]
        smaller = refuted = 0
        for inst in pool:
            assert min(len(set(s)) for s, _ in pure_nash_set(inst)) < inst.m
            candidates, tested = _representatives(inst)
            sizes = np.unique(tested, return_counts=True)[1]
            assert sizes.sum() == len(candidates) > len(sizes)
            smaller += int(sizes.min() < math.factorial(inst.m))
            expected = strong_nash_set_by_candidates(inst)
            assert strong_nash_set(inst) == expected
            if inst.n <= 4:
                assert expected == strong_nash_set_by_coalitions(inst)
            refuted += len(candidates) - len(expected)
        assert smaller == 2 and refuted > 0


class TestOrbits:
    """Both column domains against brute force over every state: the orbits
    under renaming the machines, and every state its own orbit; each on both
    sides of the index cap, so both the kept index and the renaming on every
    call are checked."""

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (3, 1), (2, 3), (4, 3), (3, 4), (5, 2)])
    def test_columns_match_brute_force(self, monkeypatch, n, m, symmetric):
        states = list(itertools.product(range(m), repeat=n))
        renamings = list(itertools.permutations(range(m))) if symmetric else [range(m)]
        # each state's orbit, sorted, and the lex-smallest states of all orbits
        orbit_of = [sorted({tuple(p[k] for k in s) for p in renamings}) for s in states]
        smallest = sorted({orbit[0] for orbit in orbit_of})
        column = {state: c for c, state in enumerate(smallest)}

        for cap in (oracle._INDEX_STATES, m**n - 1):
            monkeypatch.setattr(oracle, "_INDEX_STATES", cap)
            orbits = oracle.orbits_of(n, m, symmetric)
            assert orbits.indexed == (cap >= m**n)
            assert orbits.count == len(smallest)
            sizes = orbits.sizes()
            assert int(sizes.sum()) == m**n
            assert sizes.tolist() == [len(orbit_of[states.index(s)]) for s in smallest]
            assert [orbits.state(c) for c in range(orbits.count)] == [
                tuple(k + 1 for k in s) for s in smallest
            ]
            assert [tuple(s) for s in orbits.state_digits.T.tolist()] == states
            every = np.arange(orbits.count)
            assert _lex(orbits, every).tolist() == [states.index(s) for s in smallest]
            assert _orbit_map(orbits).tolist() == [column[orbit[0]] for orbit in orbit_of]
            for cols in ([], [0], every[::2].tolist(), every[::-3].tolist(), every.tolist()):
                got, of = orbits.expand(np.array(cols, dtype=np.int64))
                expected = [
                    (tuple(k + 1 for k in state), column[orbit[0]])
                    for state, orbit in zip(states, orbit_of)
                    if column[orbit[0]] in cols
                ]
                assert list(zip(got, of.tolist())) == expected

    def test_one_read_only_index_per_shape(self):
        # two instances of one shape share the kept Orbits and its index
        first = gen_random(7, 3, GameKind.BWC, F(1, 2), seed=1)
        second = gen_random(7, 3, GameKind.BWF, F(1, 2), seed=2)
        (_, one, _), (_, other, _) = (oracle._whole_table(i, orbits=True) for i in (first, second))
        assert one is other and one.indexed and one.symmetric
        index = one._index
        assert index is other._index and not index.flags.writeable
        assert np.array_equal(index, one._map())
        with pytest.raises(ValueError):
            index[0] = 1
        # the states domain's index is the identity
        states = oracle.orbits_of(7, 3, False)
        assert states is not one and np.array_equal(states._index, np.arange(3**7))
        # a kept shape is one of the last eight; past the table budget (65536
        # strings of 17 players on 2 machines) none is kept
        assert oracle._kept_orbits.cache_info().maxsize == 8
        assert oracle.orbits_of(16, 2, True) is oracle.orbits_of(16, 2, True)
        assert oracle.orbits_of(17, 2, True) is not oracle.orbits_of(17, 2, True)
        # the index goes with the kept shape: 2^16 states past the budget keep
        # none, the 29525 strings of 3^11 states are kept with no index
        assert oracle.orbits_of(16, 2, True).indexed
        assert not oracle.orbits_of(16, 2, False).kept
        assert not oracle.orbits_of(16, 2, False).indexed
        eleven = oracle.orbits_of(11, 3, True)
        assert eleven is oracle.orbits_of(11, 3, True) and not eleven.indexed

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_equilibria_on_both_sides_of_the_index_cap(self, monkeypatch, kind):
        # listed by lookup in the index, and by renaming the columns
        for inst in kind_pool(kind, 4):
            listed = []
            for cap in (oracle._INDEX_STATES, 0):
                monkeypatch.setattr(oracle, "_INDEX_STATES", cap)
                monkeypatch.setattr(oracle, "_kept", None)
                listed.append((pure_nash_set(inst), strong_nash_set(inst)))
            assert listed[0] == listed[1]


def _representatives(inst):
    """(lex indexes of the pure equilibria, the lex index of the string of
    each one's orbit; every state is its own orbit unless every machine has
    the same machine term)."""
    candidates = np.array(
        [sum((k - 1) * inst.m ** (inst.n - 1 - i) for i, k in enumerate(state))
         for state, _ in pure_nash_set(inst)],
        dtype=np.int64,
    )
    orbits = oracle.orbits_of(inst.n, inst.m, StateEvaluator(inst).symmetric)
    return candidates, _lex(orbits, orbits._map())[candidates]


def _orbit_map(orbits):
    """The column of every state's orbit, the states in lex order: the kept
    index where the shape is indexed, else built afresh."""
    return orbits._index if orbits.indexed else orbits._map()


def _lex(orbits, cols):
    """The lex indexes of the states of columns ``cols``."""
    return orbits._place @ orbits.digits.take(cols, axis=1)


def test_state_blocks_cover_every_state_in_lex_order(monkeypatch):
    shapes = ((1, 1), (1, 3), (3, 1), (4, 3), (10, 2), (11, 2), (5, 4), (1, 12), (3, 10))
    # the default blocks, and blocks small enough that 1024 states need several
    for cells in (oracle._BLOCK_CELLS, 1 << 13):
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
        for n, m in shapes:
            orbits = oracle.orbits_of(n, m, False)
            digits, sizes = orbits.digits, orbits.sizes()
            assert digits.shape == (n, m**n) and digits.dtype == np.min_scalar_type(m - 1)
            assert not digits.flags.writeable and not sizes.flags.writeable
            assert sizes.shape == (m**n,) and sizes.strides == (0,) and int(sizes.sum()) == m**n
            blocks = list(orbits.blocks())
            assert all(b.dtype == digits.dtype and b.shape[1] == n for b in blocks)
            assert all(len(b) * n * m <= cells for b in blocks)
            states = [tuple(s) for b in blocks for s in b.tolist()]
            assert states == list(itertools.product(range(m), repeat=n))
            # the reference cuts the states where the columns are cut
            reference = list(state_blocks(n, m))
            assert [len(b) for b in reference] == [len(b) for b in blocks]
    assert len(list(oracle.orbits_of(10, 2, False).blocks())) > 1
    # a state is its lex index: the digits, the division and the decoding of
    # a column all give the same states
    for n, m in shapes:
        expected = list(itertools.product(range(m), repeat=n))
        decoded = lex_states(n, m, np.arange(m**n))
        assert decoded.dtype == np.int64
        assert [tuple(s) for s in decoded.tolist()] == expected
        every = oracle.orbits_of(n, m, symmetric=False)
        assert [every.state(idx) for idx in range(m**n)] == [to_public(s) for s in expected]


def _stirling(n, j):
    """S(n, j) by inclusion-exclusion."""
    terms = ((-1) ** i * math.comb(j, i) * (j - i) ** n for i in range(j + 1))
    return sum(terms) // math.factorial(j)


def test_orbit_strings_count_order_and_sizes(monkeypatch):
    shapes = ((1, 1), (1, 3), (3, 1), (4, 3), (5, 2), (3, 4), (6, 4), (7, 3), (4, 6), (10, 2))
    # the default blocks, and blocks small enough that the strings need several
    for cells in (oracle._BLOCK_CELLS, 1 << 6):
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", cells)
        for n, m in shapes:
            orbits = oracle.orbits_of(n, m, True)
            digits, sizes = orbits.digits, orbits.sizes()
            strings = [tuple(s) for s in digits.T.tolist()]
            assert len(strings) == oracle.orbit_count(n, m) == sum(
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
            blocks = list(orbits.blocks())
            assert [tuple(s) for b in blocks for s in b.tolist()] == strings
            assert all(b.shape[1] == n and len(b) * n * m <= max(cells, n * m) for b in blocks)
        several = len(list(oracle.orbits_of(7, 3, True).blocks())) > 1
        assert several == (cells == 1 << 6)


def test_orbit_strings_cache_is_bounded():
    # one cache for both column domains, keyed by (n, m, symmetric)
    oracle._kept_orbits.cache_clear()
    assert oracle._kept_orbits.cache_info().maxsize == 8
    # a shape whose table fits the budget is kept: the same Orbits and the
    # same column arrays on every call
    for symmetric in (True, False):
        orbits = oracle.orbits_of(7, 3, symmetric)
        assert orbits.kept and orbits is oracle.orbits_of(7, 3, symmetric)
        assert orbits.digits is oracle.orbits_of(7, 3, symmetric).digits
        assert orbits.sizes() is oracle.orbits_of(7, 3, symmetric).sizes()
    assert oracle._kept_orbits.cache_info().currsize == 2
    # past the budget (88574 strings, 531441 states of 12 players on 3
    # machines) a shape is fresh on every call
    assert oracle.orbit_count(12, 3) * 12 * 3 > oracle._TABLE_CELLS
    for symmetric in (True, False):
        first, second = (oracle.orbits_of(12, 3, symmetric) for _ in range(2))
        assert not first.kept and first is not second
        assert first.digits is not second.digits
    assert oracle._kept_orbits.cache_info().currsize == 2
    for n in range(2, 9):
        for symmetric in (True, False):
            oracle.orbits_of(n, 2, symmetric)
    assert oracle._kept_orbits.cache_info().currsize == 8
    # an orbit size past int64 stays exact
    sizes = oracle.orbits_of(3, 2**21, True).sizes()
    assert sizes.dtype == object and sizes.tolist()[-1] == 2**21 * (2**21 - 1) * (2**21 - 2)


class TestExpectedValues:
    def test_uniform_multipartite_closed_form(self):
        for m in (2, 3):
            inst = gen_bwc_multipartite(m)
            prof = uniform_profile(inst)
            expected = F(2 * inst.n - 1, m)
            for i in (1, inst.n):
                for k in (1, m):
                    assert expected_player_value(inst, prof, i, k) == expected

    def test_uniform_bwcf_lower_closed_form(self):
        inst = gen_bwcf_lower(2, 1, 1, 1)
        prof = uniform_profile(inst)
        n, m = inst.n, inst.m
        expected = 1 * (1 + F(n - 1, m)) + 1 * F(n - m, m) + 1 * F((m - 1) ** 2, m)
        assert expected == 4
        assert expected_player_value(inst, prof, 1, 2) == expected

    def test_point_mass_profile_matches_player_value(self, mixed_pool):
        for inst in mixed_pool:
            if state_count(inst) > 128:
                continue
            for state in itertools.islice(enumerate_states(inst), 16):
                prof = point_mass_profile(inst, state)
                for i in range(1, inst.n + 1):
                    for k in range(1, inst.m + 1):
                        moved = state[: i - 1] + (k,) + state[i:]
                        assert expected_player_value(inst, prof, i, k) == player_value(
                            inst, moved, i
                        )

    def test_sharing_count_distribution(self):
        # two other players on machine 1 w.p. 1/2 each: E[p/(1+Y)] enumerated by hand
        inst = make_instance(
            GameKind.SWC, 3, 2, machine_values=[6, 0], conflict_edges=[]
        )
        prof = uniform_profile(inst)
        # Y ~ Bin(2, 1/2): E[6/(1+Y)] = 6*(1/4 + 1/2/2 + 1/4/3) = 6*(1/4+1/4+1/12)
        assert expected_player_value(inst, prof, 1, 1) == 6 * (F(1, 4) + F(1, 4) + F(1, 12))


def _random_profile(inst, rng):
    """Rational rows with denominators up to 12 and some zero entries."""
    rows = []
    for _ in range(inst.n):
        weights = [rng.randrange(0, 4) for _ in range(inst.m)]
        weights[rng.randrange(inst.m)] += 1
        rows.append(tuple(F(w, sum(weights)) for w in weights))
    return tuple(rows)


def _expectation_pool():
    pool = [inst for kind in ALL_KINDS for inst in kind_pool(kind, 8)]
    pool += [gen_random(2, 4, GameKind.SWC, F(1), seed=s, weighted=s % 2 == 0) for s in range(3)]
    pool += [gen_random(3, 5, GameKind.SWC, F(1, 2), seed=4, weighted=True)]
    return pool + beyond_int64_pool()


class TestKindFreeExpectations:
    """The expectations read the evaluator's tables with no kind branch; the
    per-kind closed forms are the reference."""

    def test_equals_per_kind_closed_form(self):
        rng = random.Random(8)
        pool = _expectation_pool()
        assert {inst.kind for inst in pool} == set(ALL_KINDS)
        assert any(inst.kind is GameKind.SWC and inst.n < inst.m for inst in pool)
        assert any(inst.kind.sharing and inst.edge_weights for inst in pool)
        for inst in pool:
            for profile in (_random_profile(inst, rng), uniform_profile(inst)):
                for i in range(1, inst.n + 1):
                    row = [
                        expected_player_value_by_kind(inst, profile, i, k)
                        for k in range(1, inst.m + 1)
                    ]
                    assert [
                        expected_player_value(inst, profile, i, k) for k in range(1, inst.m + 1)
                    ] == row
                    assert profile_expected_value(inst, profile, i) == sum(
                        (q * v for q, v in zip(profile[i - 1], row)), F(0)
                    )

    def test_mixed_ne_verdict_matches_closed_form(self):
        rng = random.Random(9)
        verdicts = set()
        for inst in _expectation_pool():
            profiles = [_random_profile(inst, rng), uniform_profile(inst)]
            profiles.append(point_mass_profile(inst, pure_nash_set(inst)[0][0]))
            for profile in profiles:
                better = min if inst.kind.minimizes else max
                expected = True
                for i in range(1, inst.n + 1):
                    row = [
                        expected_player_value_by_kind(inst, profile, i, k)
                        for k in range(1, inst.m + 1)
                    ]
                    current = sum((q * v for q, v in zip(profile[i - 1], row)), F(0))
                    expected &= better(row + [current]) == current
                assert verify_mixed_ne(inst, profile) == expected
                verdicts.add(expected)
        assert verdicts == {True, False}

    def test_argument_checks(self):
        inst = gen_bwc_multipartite(2)
        prof = uniform_profile(inst)
        for i, k in ((0, 1), (5, 1), (1, 0), (1, 3)):
            with pytest.raises(ValueError, match="out of range"):
                expected_player_value(inst, prof, i, k)
        for i in (0, 5):
            with pytest.raises(ValueError, match="out of range"):
                profile_expected_value(inst, prof, i)
        with pytest.raises(ValueError):
            verify_mixed_ne(inst, prof[:-1])


class TestMixedNe:
    def test_uniform_is_ne_on_multipartite(self):
        for m in (2, 3):
            inst = gen_bwc_multipartite(m)
            assert verify_mixed_ne(inst, uniform_profile(inst))

    def test_uniform_is_ne_on_bwcf_lower(self):
        inst = gen_bwcf_lower(2, 1, 1, 1)
        assert verify_mixed_ne(inst, uniform_profile(inst))
        inst = gen_bwcf_lower(2, 1, 2, 3)
        assert verify_mixed_ne(inst, uniform_profile(inst))

    def test_point_mass_at_non_ne_rejected(self):
        inst = gen_swc_pos(3, F(1, 10))
        prof = point_mass_profile(inst, (2, 1, 1))
        assert not verify_mixed_ne(inst, prof)

    def test_point_mass_at_pure_ne_accepted(self):
        inst = gen_swc_pos(3, F(1, 10))
        assert verify_mixed_ne(inst, point_mass_profile(inst, (1, 1, 1)))


class TestWorstCce:
    def test_multipartite_value(self):
        sol = worst_cce_value(gen_bwc_multipartite(2))
        assert sol.value == 14
        assert sum(q for _, q in sol.distribution) == 1

    def test_maxcut_edge(self):
        assert worst_cce_value(gen_maxcut_edge()).value == 1

    def test_single_player_forces_best_play(self):
        inst = make_instance(GameKind.SWC, 1, 3, machine_values=[1, 5, 2])
        assert worst_cce_value(inst).value == 5

    def test_no_better_than_worst_pure_ne(self):
        for kind in ALL_KINDS:
            inst = small_instance(kind, 1, n_max=4)
            if state_count(inst) > 100:
                continue
            ne_values = [v for _, v in pure_nash_set(inst)]
            worst_ne = max(ne_values) if inst.kind.minimizes else min(ne_values)
            cce = worst_cce_value(inst).value
            assert cce >= worst_ne if inst.kind.minimizes else cce <= worst_ne

    def test_distribution_satisfies_cce_constraints(self):
        inst = gen_bwc_multipartite(2)
        sol = worst_cce_value(inst)
        for i in range(1, inst.n + 1):
            current = sum(q * player_value(inst, s, i) for s, q in sol.distribution)
            for k in range(1, inst.m + 1):
                dev = sum(
                    q * player_value(inst, s[: i - 1] + (k,) + s[i:], i)
                    for s, q in sol.distribution
                )
                assert dev >= current  # cost kind: deviating never helps

    def test_lp_cap(self):
        inst = make_instance(GameKind.BWC, 12, 2)
        with pytest.raises(StateSpaceExceeded) as err:
            worst_cce_value(inst)
        assert err.value.limit_name == "lp_max_states"


class TestEquilibriumReport:
    def test_multipartite_ratios(self):
        rep = equilibrium_report(gen_bwc_multipartite(2))
        assert (rep.poa, rep.pos) == (F(3, 2), 1)

    def test_path4_strong_poa(self):
        rep = equilibrium_report(gen_path4())
        assert rep.strong_poa == F(5, 4)

    def test_cliques_poa(self):
        rep = equilibrium_report(gen_bwf_cliques(2), with_strong=False)
        assert rep.poa == F(3, 2)
        assert rep.strong_poa is None

    def test_balancing_pos_is_one_everywhere(self):
        for kind in (GameKind.BWC, GameKind.BWF, GameKind.BWCF):
            for seed in range(4):
                inst = small_instance(kind, seed, n_max=4)
                rep = equilibrium_report(inst, with_strong=False)
                assert rep.pos == 1
                assert rep.optimum in rep.pure_ne

    def test_ratios_at_least_one(self, mixed_pool):
        for inst in mixed_pool:
            if state_count(inst) > 512 or inst.n > 8:
                continue
            rep = equilibrium_report(inst)
            assert rep.poa is None or rep.poa >= rep.pos >= 1
