"""Every enumeration pass as a reduction over the state table.

The passes must give the lex-smallest tie across table blocks, keep their
state-space guard, read no pointwise evaluation (nor do the single-state
LHS and the mixed expectations), and stay exact on the object dtype.  Expected values come from the Fraction API through
``reference_oracle``.  The kept table must equal the streamed blocks and
``reference_evaluator.reference_table`` entry for entry.
"""

from fractions import Fraction

import numpy as np
import pytest

from conflictgames import dynamics, oracle, smoothness
from conflictgames.fastpath import StateEvaluator
from conflictgames.games import (
    GameKind,
    canonical_deviation_profile,
    deviation_gain,
    make_instance,
    point_mass_profile,
    social_value,
    uniform_profile,
)
from conflictgames.instances import gen_random
from conflictgames.oracle import (
    _TABLE_CELLS,
    OracleLimits,
    StateSpaceExceeded,
    enumerate_states,
    orbit_count,
)
from conflictgames.smoothness import certificate_params, make_params

from conftest import ALL_KINDS, beyond_int64_pool, kind_pool, with_machine_values
from reference_oracle import (
    best_response_lhs_by_fractions,
    expected_player_value_by_kind,
    extreme_state_by_fractions,
    profile_lhs_by_fractions,
    sandwich_by_fractions,
    slack_verdict_by_fractions,
)
from reference_evaluator import reference_table, state_blocks

F = Fraction


def _param_sets(inst):
    certified, _ = certificate_params(
        inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma
    )
    # a nonzero mu exercises the whole slack combination
    other = (
        make_params(inst.kind, F(7, 5), F(1, 3))
        if inst.kind.minimizes
        else make_params(inst.kind, F(1, 3), F(1, 7))
    )
    return certified, other


def _assert_passes_match_fractions(inst):
    minimizes = inst.kind.minimizes
    assert oracle.optimum(inst) == extreme_state_by_fractions(inst, minimizes)
    assert oracle.worst_social_state(inst) == extreme_state_by_fractions(inst, not minimizes)
    profile = canonical_deviation_profile(inst)
    nice_lhs = best_response_lhs_by_fractions(inst)
    semi_lhs = profile_lhs_by_fractions(inst, profile)
    for params in _param_sets(inst):
        nice = smoothness.check_nice(inst, params)
        assert (nice.holds, nice.worst_state, nice.slack) == slack_verdict_by_fractions(
            inst, params, nice_lhs
        )
        semi = smoothness.check_semi_smooth(inst, params)
        assert (semi.holds, semi.worst_state, semi.slack) == slack_verdict_by_fractions(
            inst, params, semi_lhs
        )
    sandwich = dynamics.sandwich_constants(inst)
    assert (sandwich.a, sandwich.b, sandwich.skipped) == sandwich_by_fractions(inst)


# more than one table block each at 2^13 cells a block: 1024 and 2048 states
EDGELESS_BWC = make_instance(GameKind.BWC, 10, 2)
MAXCUT_11 = gen_random(11, 2, GameKind.MAXCUT, F(1, 2), seed=3)
SMALL_BLOCK_CELLS = 1 << 13


def _block_of(inst, state):
    """Index of the table block that holds a public state."""
    target = [k - 1 for k in state]
    for idx, grid in enumerate(state_blocks(inst.n, inst.m)):
        if target in grid.tolist():
            return idx
    raise AssertionError(state)


def _kept_then_streamed(monkeypatch):
    """Yields twice: for passes over a kept table built afresh, and for
    passes that stream the blocks."""
    monkeypatch.setattr(oracle, "_kept", None)
    yield
    assert oracle._kept is not None
    monkeypatch.setattr(oracle, "_kept", None)
    monkeypatch.setattr(oracle, "_TABLE_CELLS", 0)
    yield
    assert oracle._kept is None


class TestBlockBoundaries:
    """Ties across blocks of 2^13 cells: the kept table is filled from
    several blocks, and the streamed passes read several."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK_CELLS", SMALL_BLOCK_CELLS)

    def test_optimum_ties_spread_over_blocks(self):
        for inst in (EDGELESS_BWC, MAXCUT_11):
            assert len(list(state_blocks(inst.n, inst.m))) > 1
            _, best = extreme_state_by_fractions(inst, inst.kind.minimizes)
            ties = [s for s in enumerate_states(inst) if social_value(inst, s) == best]
            assert len({_block_of(inst, s) for s in ties}) > 1

    def test_edgeless_bwc_pins(self, monkeypatch):
        inst = EDGELESS_BWC
        params, _ = certificate_params(inst.kind, inst.n, inst.m)
        for _ in _kept_then_streamed(monkeypatch):
            assert oracle.optimum(inst) == ((1,) * 5 + (2,) * 5, 50)
            assert oracle.worst_social_state(inst) == ((1,) * 10, 100)
            # the balanced states tie for niceness, and every state ties for
            # the uniform semi-smoothness LHS (55 everywhere): the first wins
            nice = smoothness.check_nice(inst, params)
            assert (nice.worst_state, nice.slack) == ((1,) * 5 + (2,) * 5, 30)
            semi = smoothness.check_semi_smooth(inst, params)
            assert (semi.worst_state, semi.slack) == ((1,) * 10, 25)
        _assert_passes_match_fractions(inst)

    def test_maxcut_state_and_complement_tie_in_different_blocks(self, monkeypatch):
        inst = MAXCUT_11
        for _ in _kept_then_streamed(monkeypatch):
            state, value = oracle.optimum(inst)
            complement = tuple(3 - k for k in state)
            assert state[0] == 1 and social_value(inst, complement) == value
            assert _block_of(inst, state) < _block_of(inst, complement)
            assert oracle.worst_social_state(inst) == ((1,) * 11, 0)
            _assert_passes_match_fractions(inst)


def _every_pass(inst):
    params, _ = certificate_params(inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma)
    results = [
        oracle.optimum(inst),
        oracle.worst_social_state(inst),
        oracle.pure_nash_set(inst),
        oracle.strong_nash_set(inst),
        oracle.worst_cce_value(inst),
        smoothness.check_semi_smooth(inst, params),
        smoothness.check_nice(inst, params),
        smoothness.check_opt_lower_bounds(inst),
        dynamics.sandwich_constants(inst),
    ]
    if not inst.kind.minimizes and oracle.optimum(inst)[1] != 0:
        results.append(smoothness.max_rho_pure_sigma(inst, (1,) * inst.n))
    return results


def test_streamed_columns_equal_the_kept_table(monkeypatch):
    # every pass gives the same result from the kept table of one build
    # block, from the kept table filled from blocks of 64 cells, and from
    # the columns streamed block by block past the budget
    layouts = ((oracle._BLOCK_CELLS, _TABLE_CELLS), (64, _TABLE_CELLS), (64, 0))
    pool = [
        gen_random(5, 2, kind, F(1, 2), seed=1) if kind is GameKind.MAXCUT
        else gen_random(4, 3, kind, F(1, 2), seed=1,
                        **(dict(alpha=F(1), beta=F(1), gamma=F(1, 2)) if kind is GameKind.BWCF else {}))
        for kind in ALL_KINDS
    ]
    pool += [
        inst for kind in ALL_KINDS
        for inst in kind_pool(kind, 3, n_max=4, allow_small_n=False)
    ]
    pool += beyond_int64_pool()[1:]  # the first one's object LP takes seconds
    several = 0
    for inst in pool:
        results = []
        for block_cells, table_cells in layouts:
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", block_cells)
            monkeypatch.setattr(oracle, "_TABLE_CELLS", table_cells)
            monkeypatch.setattr(oracle, "_kept", None)
            results.append(_every_pass(inst))
            assert (oracle._kept is None) == (table_cells == 0)
        several += len(list(state_blocks(inst.n, inst.m))) > 1
        assert results[0] == results[1] == results[2]
    assert several > len(pool) // 2


def _skewed_profile(inst):
    """Player i puts weight proportional to 1 + (k + i) mod m on machine k:
    no row is uniform once m >= 2."""
    total = inst.m * (inst.m + 1) // 2
    return tuple(
        tuple(F(1 + (k + i) % inst.m, total) for k in range(inst.m)) for i in range(inst.n)
    )


def _orbit_passes(inst):
    """(the results of every pass that reads one column per orbit, and of
    semi-smoothness with a non-uniform profile, which reads every state;
    whether the table kept after the orbit passes is over the strings)."""
    params = _param_sets(inst)
    results = [
        oracle.optimum(inst),
        oracle.worst_social_state(inst),
        oracle.pure_nash_set(inst),
        oracle.strong_nash_set(inst),
        smoothness.check_opt_lower_bounds(inst),
        dynamics.sandwich_constants(inst),
    ]
    for p in params:
        results += [smoothness.check_semi_smooth(inst, p), smoothness.check_nice(inst, p)]
    strings = oracle._kept is not None and oracle._kept[3].symmetric
    results += [smoothness.check_semi_smooth(inst, p, _skewed_profile(inst)) for p in params]
    return results, strings


def _orbit_pool():
    pool = [inst for kind in ALL_KINDS for inst in kind_pool(kind, 5)]
    # symmetric instances with pure equilibria that are not strong
    pool += [
        gen_random(5, 3, GameKind.BWC, F(1, 2), seed=2),
        gen_random(5, 3, GameKind.BWCF, F(1, 2), seed=2, alpha=F(1), beta=F(1), gamma=F(1, 2)),
        gen_random(6, 2, GameKind.MAXCUT, F(1, 2), seed=5),
    ]
    for kind in (GameKind.SWC, GameKind.SWF):
        for seed, values in ((1, (F(7, 2),) * 3), (2, (F(3, 2**61 - 1),) * 3)):
            base = gen_random(4, 3, kind, F(1, 2), seed=seed, weighted=seed == 2)
            pool.append(with_machine_values(base, values))
    return pool + beyond_int64_pool()


@pytest.mark.parametrize("table_cells", [_TABLE_CELLS, 0], ids=["kept", "streamed"])
def test_orbit_table_equals_the_full_table(monkeypatch, table_cells):
    # every pass gives the same result over one column per orbit as over
    # every state, the full table forced by declaring no instance symmetric
    monkeypatch.setattr(oracle, "_TABLE_CELLS", table_cells)
    pool = _orbit_pool()
    on_strings = set()
    refuted = 0
    for inst in pool:
        ev = StateEvaluator(inst)
        monkeypatch.setattr(oracle, "_kept", None)
        on_orbits, strings = _orbit_passes(inst)
        if table_cells:
            assert strings == oracle._symmetric(ev)
        else:
            assert oracle._kept is None
        with monkeypatch.context() as full:
            full.setattr(oracle, "_symmetric", lambda ev: False)
            full.setattr(oracle, "_kept", None)
            on_states, strings = _orbit_passes(inst)
            assert not strings
        assert on_orbits == on_states
        if oracle._symmetric(ev) and inst.m > 1:
            on_strings.add((inst.kind, ev.dtype()))
            refuted += len(on_orbits[2]) - len(on_orbits[3])  # pure, strong
    # every kind, and the object dtype, on the strings; the sharing kinds
    # through equal machine values
    assert {kind for kind, _ in on_strings} == set(ALL_KINDS)
    assert (GameKind.SWC, object) in on_strings
    assert refuted > 0


def test_state_cap_bounds_the_strings_a_pass_reads():
    # 1024 states in 512 orbits: a cap of 600 admits the passes over one
    # column per orbit and stops those over every state
    cost = make_instance(GameKind.BWC, 10, 2)
    payoff = gen_random(10, 2, GameKind.MAXCUT, F(1, 2), seed=1)
    params, _ = certificate_params(cost.kind, cost.n, cost.m)
    cap, states = OracleLimits(max_states=600), OracleLimits(max_states=1024)
    assert oracle.optimum(cost, cap) == oracle.optimum(cost)
    assert oracle.worst_social_state(cost, cap) == oracle.worst_social_state(cost)
    assert len(oracle.pure_nash_set(cost, cap)) == 252  # the balanced states
    assert smoothness.check_semi_smooth(cost, params, limits=cap).holds
    assert smoothness.check_nice(cost, params, cap).holds
    assert smoothness.check_opt_lower_bounds(cost, cap).holds
    assert dynamics.sandwich_constants(cost, cap).skipped == 0
    full_table = {
        "strong_nash_set": lambda lim: oracle.strong_nash_set(cost, lim),
        "skewed semi-smoothness": lambda lim: smoothness.check_semi_smooth(
            cost, params, _skewed_profile(cost), lim
        ),
        "max_rho_pure_sigma": lambda lim: smoothness.max_rho_pure_sigma(
            payoff, (1,) * payoff.n, lim
        ),
    }
    for name, run in full_table.items():
        with pytest.raises(StateSpaceExceeded) as err:
            run(cap)
        assert (err.value.limit_name, str(err.value)) == (
            "max_states", "state space needs 1024 but the configured max_states allows 600"
        ), name
        run(states)  # at the cap it runs
    # fewer strings than the cap, but more equilibria: every state of the
    # edgeless cut game is one, and the list would pass the cap
    edgeless = make_instance(GameKind.MAXCUT, 10, 2)
    with pytest.raises(StateSpaceExceeded) as err:
        oracle.pure_nash_set(edgeless, cap)
    assert str(err.value) == "state space needs 1024 but the configured max_states allows 600"
    assert len(oracle.pure_nash_set(edgeless, states)) == 1024
    # more strings than the cap: raised before any table is built
    oracle._kept = None
    with pytest.raises(StateSpaceExceeded) as err:
        oracle.optimum(cost, OracleLimits(max_states=511))
    assert str(err.value) == "state space needs 512 but the configured max_states allows 511"
    assert oracle._kept is None


class TestBeyondInt64:
    def test_every_pass_matches_fractions_on_object_dtype(self):
        cost = make_instance(  # huge weight denominators on a cost kind
            GameKind.BWCF, 3, 2, conflict_edges=[(1, 2)], friendship_edges=[(2, 3)],
            alpha=F(1, 2**61 + 1), beta=F(3, 2**62 + 5), gamma=F(1, 3),
        )
        assert smoothness.check_opt_lower_bounds(cost).holds
        for inst in beyond_int64_pool() + [cost]:
            assert StateEvaluator(inst).dtype() is object
            _assert_passes_match_fractions(inst)
            expected = [
                s for s in enumerate_states(inst)
                if all(
                    deviation_gain(inst, s, i, k) <= 0
                    for i in range(1, inst.n + 1)
                    for k in range(1, inst.m + 1)
                )
            ]
            assert [s for s, _ in oracle.pure_nash_set(inst)] == expected


    def test_slack_combination_past_int64_runs_on_object_dtype(self, monkeypatch):
        # values fit int64 (about 2^54), but lam.den * mu.den * t times them
        # would not: the checks must widen the kept table, and past the budget
        # every streamed block, not wrap around
        inst = make_instance(
            GameKind.SWF, 3, 2, friendship_edges=[(1, 2)],
            machine_values=(F(2**52 + 1, 2**52 + 3), F(1)),
        )
        ev = StateEvaluator(inst)
        assert ev.dtype() is np.int64
        params = make_params(inst.kind, F(1, 10**6), F(3, 10**6 + 3))
        assert ev.dtype(10**6 * (10**6 + 6)) is object
        profile = canonical_deviation_profile(inst)
        checks = (
            (smoothness.check_nice, best_response_lhs_by_fractions(inst)),
            (smoothness.check_semi_smooth, profile_lhs_by_fractions(inst, profile)),
        )
        for cells in (_TABLE_CELLS, 0):  # the kept table, then streamed blocks
            monkeypatch.setattr(oracle, "_TABLE_CELLS", cells)
            monkeypatch.setattr(oracle, "_kept", None)
            oracle.optimum(inst)  # an int64 pass first, which keeps the table
            kept = oracle._kept
            if cells:
                assert kept[0] is inst and kept[2][0].dtype == np.int64
            else:
                assert kept is None
            for check, lhs in checks:
                verdict = check(inst, params)
                assert (verdict.holds, verdict.worst_state, verdict.slack) == (
                    slack_verdict_by_fractions(inst, params, lhs)
                )
            assert oracle._kept is kept  # read, widened, and not replaced


def _capped_passes():
    cost = make_instance(GameKind.BWC, 10, 2)  # 1024 states
    payoff = gen_random(7, 2, GameKind.SWC, F(1, 2), seed=1)  # 128 states
    params, _ = certificate_params(cost.kind, cost.n, cost.m)
    return {
        "optimum": lambda lim: oracle.optimum(cost, lim),
        "pure_nash_set": lambda lim: oracle.pure_nash_set(cost, lim),
        "check_semi_smooth": lambda lim: smoothness.check_semi_smooth(cost, params, limits=lim),
        "check_nice": lambda lim: smoothness.check_nice(cost, params, lim),
        "check_opt_lower_bounds": lambda lim: smoothness.check_opt_lower_bounds(cost, lim),
        "sandwich_constants": lambda lim: dynamics.sandwich_constants(cost, lim),
        "max_rho_pure_sigma": lambda lim: smoothness.max_rho_pure_sigma(
            payoff, (1,) * payoff.n, lim
        ),
    }


@pytest.mark.parametrize("name", sorted(_capped_passes()))
def test_state_cap_guards_every_pass(name):
    run = _capped_passes()[name]
    with pytest.raises(StateSpaceExceeded) as err:
        run(OracleLimits(max_states=100))
    assert err.value.limit_name == "max_states"
    run(OracleLimits(max_states=1024))  # at the cap it runs


def _raise(*args, **kwargs):
    raise AssertionError("pointwise evaluation inside a table pass")


def test_table_passes_use_no_pointwise_evaluation(monkeypatch):
    inst = gen_random(4, 3, GameKind.BWCF, F(1, 2), seed=2,
                      alpha=F(1), beta=F(1), gamma=F(1, 2))
    swc = gen_random(4, 2, GameKind.SWC, F(1, 2), seed=2)
    params, _ = certificate_params(inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma)
    for attr in ("analyze", "social", "potential", "walk"):
        monkeypatch.setattr(StateEvaluator, attr, _raise)
    assert oracle.optimum(inst)
    assert oracle.worst_social_state(inst)
    monkeypatch.setattr(oracle, "optimum", _raise)
    assert oracle.pure_nash_set(inst)
    assert oracle.strong_nash_set(inst) is not None
    assert smoothness.check_semi_smooth(inst, params).holds
    assert smoothness.check_nice(inst, params).holds
    assert smoothness.check_opt_lower_bounds(inst).holds
    assert dynamics.sandwich_constants(inst).a is not None
    assert oracle.worst_cce_value(inst).distribution
    assert smoothness.max_rho_pure_sigma(swc, (1, 2, 1, 2)) >= 0
    profile = uniform_profile(inst)
    assert smoothness.semi_smooth_lhs(inst, (1, 2, 3, 1), profile) > 0
    assert oracle.expected_player_value(inst, profile, 2, 3) == (
        expected_player_value_by_kind(inst, profile, 2, 3)
    )
    equilibrium = oracle.pure_nash_set(swc)[0][0]
    assert oracle.verify_mixed_ne(swc, point_mass_profile(swc, equilibrium))


class TestKeptTable:
    """The state table a scan keeps between passes over one instance."""

    def test_holds_one_instance(self, monkeypatch):
        monkeypatch.setattr(oracle, "_kept", None)
        first = gen_random(5, 3, GameKind.BWC, F(1, 2), seed=1)
        second = gen_random(5, 3, GameKind.BWC, F(1, 2), seed=2)
        oracle.optimum(first)
        assert oracle._kept[0] is first
        oracle.pure_nash_set(second)
        assert oracle._kept[0] is second
        equal = gen_random(5, 3, GameKind.BWC, F(1, 2), seed=2)
        assert equal is not second
        oracle.optimum(equal)
        assert oracle._kept[0] is second  # an equal instance reads the same table

    def test_arrays_are_read_only(self):
        inst = gen_random(4, 3, GameKind.SWC, F(1, 2), seed=1)
        _, _, table = oracle.state_columns(inst, OracleLimits(), lambda *table: table)
        assert len(table) == 4
        for array in table:
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1

    @pytest.mark.parametrize("block_cells", [None, 64])
    def test_equals_streamed_blocks_and_reference(self, monkeypatch, block_cells):
        # None: one build block per table; 64 cells: a table filled from
        # several blocks
        if block_cells:
            monkeypatch.setattr(oracle, "_BLOCK_CELLS", block_cells)
        pool = [inst for kind in ALL_KINDS for inst in kind_pool(kind, 3, n_max=5)]
        pool += beyond_int64_pool()
        assert {StateEvaluator(inst).dtype() for inst in pool} == {np.int64, object}
        several = 0
        for inst in pool:
            monkeypatch.setattr(oracle, "_kept", None)
            ev, _, kept = oracle._whole_table(inst)
            blocks = list(state_blocks(inst.n, inst.m))
            several += len(blocks) > 1
            streamed = [ev.table(block) for block in blocks]
            # the states innermost, as table() lays them out
            count = oracle.state_count(inst)
            assert kept[0].shape == (inst.m, inst.n, count) and kept[0].flags.c_contiguous
            assert kept[1].shape == (inst.n, count) and kept[1].flags.c_contiguous
            for array, parts, expected in zip(kept, zip(*streamed), reference_table(inst)):
                assert array.dtype == ev.dtype()
                assert all(part.dtype == ev.dtype() for part in parts)
                assert array.tolist() == np.concatenate(parts, axis=-1).tolist() == expected
        assert several if block_cells else not several

    def test_table_over_budget_is_not_kept(self):
        kept = gen_random(4, 2, GameKind.BWC, F(1, 2), seed=1)
        oracle.optimum(kept)
        # 59049 states, but the optimum reads the 9842 orbits, within the budget
        inst = make_instance(GameKind.BWC, 10, 3)
        assert oracle.state_count(inst) * inst.n * inst.m > _TABLE_CELLS
        assert orbit_count(inst.n, inst.m) * inst.n * inst.m <= _TABLE_CELLS
        assert oracle.optimum(inst) == ((1,) * 4 + (2,) * 3 + (3,) * 3, 34)
        assert oracle._kept[0] is inst and oracle._kept[3].count == 9842
        # 131072 states in 65536 orbits, more than the budget even so
        inst = make_instance(GameKind.BWC, 17, 2)
        assert orbit_count(inst.n, inst.m) * inst.n * inst.m > _TABLE_CELLS
        assert oracle.optimum(inst) == ((1,) * 9 + (2,) * 8, 145)
        assert oracle._kept is None

    def test_one_evaluator_for_every_pass(self, monkeypatch):
        built = []
        init = StateEvaluator.__init__

        def counted(self, inst):
            built.append(inst)
            init(self, inst)

        monkeypatch.setattr(StateEvaluator, "__init__", counted)
        monkeypatch.setattr(oracle, "_kept", None)
        inst = gen_random(7, 3, GameKind.BWCF, F(1, 2), seed=3,
                          alpha=F(1), beta=F(1), gamma=F(2))
        params, _ = certificate_params(inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma)
        oracle.optimum(inst)
        oracle.pure_nash_set(inst)
        smoothness.check_semi_smooth(inst, params)
        smoothness.check_nice(inst, params)
        smoothness.check_opt_lower_bounds(inst)
        dynamics.sandwich_constants(inst)
        oracle.strong_nash_set(inst)
        assert built == [inst]
        # the worst-CCE LP reads the same kept table as the scans
        small = gen_random(3, 3, GameKind.SWC, F(1, 2), seed=3, weighted=True)
        oracle.worst_cce_value(small)
        oracle.optimum(small)
        smoothness.check_semi_smooth(small, certificate_params(small.kind, 3, 3)[0])
        oracle.worst_cce_value(small)
        assert built == [inst, small]
