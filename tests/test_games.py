"""Per-player values, aggregates, potentials, deviations, and validation."""

import dataclasses
import pickle
from fractions import Fraction

import numpy as np
import pytest

from conflictgames import games
from conflictgames.dynamics import run_br
from conflictgames.games import (
    GameKind,
    InvalidInstanceError,
    best_response,
    canonical_deviation_profile,
    deviation_gain,
    harmonic,
    make_instance,
    player_value,
    player_values,
    point_mass_profile,
    potential,
    social_value,
    uniform_profile,
    validate_profile,
)
from conflictgames.instances import (
    gen_bwc_multipartite,
    gen_bwf_cliques,
    gen_maxcut_edge,
    gen_swc_pos,
)

from reference_oracle import social_value_from_players

F = Fraction


class TestPlayerValue:
    def test_bwc_k22_split_state_costs_three_each(self):
        # one node of each part per machine: load 2 plus one same-machine conflict
        inst = gen_bwc_multipartite(2)
        state = (1, 2, 1, 2)
        assert player_values(inst, state) == (F(3),) * 4

    def test_lone_player_pays_own_load(self):
        inst = make_instance(GameKind.BWC, 1, 1)
        assert player_value(inst, (1,), 1) == 1

    def test_swc_crowded_machine_splits_value(self):
        inst = gen_swc_pos(3, F(1, 10))
        state = (1, 1, 1)
        values = player_values(inst, state)
        assert values == (F(61, 30),) * 3
        assert sum(values) == F(61, 10) == social_value(inst, state)

    def test_bwf_counts_friends_elsewhere(self):
        inst = gen_bwf_cliques(2)
        state = (1, 2, 1, 2)  # each clique split
        assert player_values(inst, state) == (F(3),) * 4

    def test_maxcut_counts_cut_edges(self):
        inst = gen_maxcut_edge()
        assert player_value(inst, (1, 2), 1) == 1
        assert player_value(inst, (1, 1), 1) == 0

    def test_player_id_out_of_range(self):
        inst = gen_maxcut_edge()
        with pytest.raises(ValueError):
            player_value(inst, (1, 2), 3)


class TestSocialValue:
    def test_bwc_k22_balanced_split_is_optimal_value(self):
        inst = gen_bwc_multipartite(2)
        assert social_value(inst, (1, 1, 2, 2)) == 8  # m**3

    def test_bwf_cliques_together(self):
        inst = gen_bwf_cliques(2)
        assert social_value(inst, (1, 1, 2, 2)) == 8

    def test_maxcut_same_partition_zero(self):
        inst = gen_maxcut_edge()
        assert social_value(inst, (1, 1)) == 0
        assert social_value(inst, (2, 2)) == 0
        assert social_value(inst, (1, 2)) == 2

    def test_aggregate_matches_player_sum(self, mixed_pool):
        import itertools

        for inst in mixed_pool:
            count = 0
            for state in itertools.product(range(1, inst.m + 1), repeat=inst.n):
                assert social_value(inst, state) == social_value_from_players(inst, state)
                count += 1
                if count >= 40:
                    break


class TestPotential:
    def test_bwc_half_social(self):
        inst = gen_bwc_multipartite(2)
        assert potential(inst, (1, 1, 2, 2)) == 4

    def test_swc_harmonic_share(self):
        inst = gen_swc_pos(3, F(1, 10))
        assert potential(inst, (1, 1, 1)) == F(61, 10) * (1 + F(1, 2) + F(1, 3)) == F(671, 60)

    def test_maxcut_cut_size(self):
        inst = gen_maxcut_edge()
        assert potential(inst, (1, 2)) == 1
        assert potential(inst, (1, 1)) == 0

    def test_harmonic_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(4) == F(25, 12)


class TestDeviationGain:
    def test_worst_ne_move_makes_things_worse(self):
        inst = gen_bwc_multipartite(2)
        state = (1, 2, 1, 2)
        for i in range(1, 5):
            other = 2 if state[i - 1] == 1 else 1
            assert deviation_gain(inst, state, i, other) == -1

    def test_staying_put_gains_nothing(self, mixed_pool):
        for inst in mixed_pool:
            state = tuple(1 + (j % inst.m) for j in range(inst.n))
            for i in range(1, inst.n + 1):
                assert deviation_gain(inst, state, i, state[i - 1]) == 0

    def test_swc_pos_leaving_the_crowd(self):
        inst = gen_swc_pos(3, F(1, 10))
        assert deviation_gain(inst, (1, 1, 1), 1, 2) == 2 - F(61, 30) == F(-1, 30)


class TestBestResponse:
    def test_at_equilibrium_stays_put(self):
        inst = gen_swc_pos(3, F(1, 10))
        for i in range(1, 4):
            assert best_response(inst, (1, 1, 1), i) == (1, 0)

    def test_returns_to_valuable_machine(self):
        inst = gen_swc_pos(3, F(1, 10))
        k, gain = best_response(inst, (2, 1, 1), 1)
        assert k == 1 and gain > 0

    def test_matches_exhaustive_scan(self):
        from conflictgames.instances import gen_random

        inst = gen_random(5, 3, GameKind.BWC, F(1, 2), seed=11)
        state = (1, 3, 2, 1, 3)
        for i in range(1, 6):
            best_k, best_gain = best_response(inst, state, i)
            gains = {k: deviation_gain(inst, state, i, k) for k in range(1, 4)}
            assert best_gain == max(gains.values())
            if best_gain > 0:
                assert best_k == min(k for k, g in gains.items() if g == best_gain)
            else:
                assert best_k == state[i - 1]


# every public entry point that takes a state, with a valid player and machine
_STATE_ENTRY_POINTS = {
    "player_value": lambda inst, state: player_value(inst, state, 1),
    "player_values": player_values,
    "social_value": social_value,
    "potential": potential,
    "deviation_gain": lambda inst, state: deviation_gain(inst, state, 1, 2),
    "best_response": lambda inst, state: best_response(inst, state, 1),
    "point_mass_profile": point_mass_profile,
}


class TestEntryPointChecks:
    """Each public call validates once, and still rejects what it rejected."""

    @pytest.mark.parametrize("name", sorted(_STATE_ENTRY_POINTS))
    @pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
    def test_bad_states(self, name, kind):
        inst = make_instance(kind, 3, 2, machine_values=(1, 2) if kind.sharing else None)
        call = _STATE_ENTRY_POINTS[name]
        for state, message in (
            ((1, 2), "state length 2 != n = 3"),
            ((1, 2, 3), "state[3] = 3 not a machine id in 1..2"),
            ((1, 0, 1), "state[2] = 0 not a machine id in 1..2"),
            ((1, "2", 1), "state[2] = '2' not a machine id in 1..2"),
        ):
            with pytest.raises(ValueError) as err:
                call(inst, state)
            assert str(err.value) == message

    @pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
    def test_bad_ids(self, kind):
        inst = make_instance(kind, 3, 2, machine_values=(1, 2) if kind.sharing else None)
        state = (1, 2, 1)
        for call, message in (
            (lambda: player_value(inst, state, 4), "player id 4 out of range 1..3"),
            (lambda: deviation_gain(inst, state, 0, 1), "player id 0 out of range 1..3"),
            (lambda: deviation_gain(inst, state, 1, 3), "machine id 3 out of range 1..2"),
            (lambda: best_response(inst, state, 4), "player id 4 out of range 1..3"),
            # ids are checked before the state
            (lambda: deviation_gain(inst, (1,), 1, 3), "machine id 3 out of range 1..2"),
            (lambda: best_response(inst, (1,), 4), "player id 4 out of range 1..3"),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    @pytest.mark.parametrize("kind", list(GameKind), ids=lambda k: k.value)
    def test_bools_are_not_ids(self, kind):
        # True == 1 and False == 0, yet neither names a player or a machine
        inst = make_instance(kind, 3, 2, machine_values=(1, 2) if kind.sharing else None)
        state = (1, 2, 1)
        for call, message in (
            (lambda: player_value(inst, state, True), "player id True out of range 1..3"),
            (lambda: player_value(inst, (True, 2, 1), 1),
             "state[1] = True not a machine id in 1..2"),
            (lambda: deviation_gain(inst, state, True, 2), "player id True out of range 1..3"),
            (lambda: deviation_gain(inst, state, 1, True), "machine id True out of range 1..2"),
            (lambda: deviation_gain(inst, (1, 2, False), 1, 2),
             "state[3] = False not a machine id in 1..2"),
            (lambda: best_response(inst, state, True), "player id True out of range 1..3"),
            (lambda: best_response(inst, (1, True, 1), 1),
             "state[2] = True not a machine id in 1..2"),
            (lambda: run_br(inst, (True, True, True)), "state[1] = True not a machine id in 1..2"),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == message

    def test_each_call_validates_the_state_once(self, monkeypatch):
        calls = []
        original = games.validate_state
        monkeypatch.setattr(
            games, "validate_state", lambda inst, state: calls.append(state) or original(inst, state)
        )
        for kind in GameKind:
            inst = make_instance(kind, 3, 2, machine_values=(1, 2) if kind.sharing else None)
            for name in ("social_value", "potential", "best_response", "deviation_gain"):
                calls.clear()
                _STATE_ENTRY_POINTS[name](inst, (1, 2, 1))
                assert calls == [(1, 2, 1)], (kind, name)


class TestValidation:
    def test_overlapping_edge_sets_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(
                GameKind.BWCF, 3, 2, conflict_edges=[(1, 2)], friendship_edges=[(2, 1)]
            )

    def test_endpoint_out_of_range(self):
        with pytest.raises(InvalidInstanceError) as err:
            make_instance(GameKind.BWC, 2, 2, conflict_edges=[(1, 5)])
        assert err.value.field == "conflict_edges"

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(GameKind.BWC, 2, 2, conflict_edges=[(1, 1)])

    @pytest.mark.parametrize("kind, kwargs, field, message", [
        (GameKind.BWCF, dict(conflict_edges=[(2, 2)]), "conflict_edges", "self-loop at player 2"),
        (GameKind.BWCF, dict(conflict_edges=[(1, 5)]), "conflict_edges",
         "endpoint out of range 1..3: (1, 5)"),
        (GameKind.BWCF, dict(friendship_edges=[(4, 2)]), "friendship_edges",
         "endpoint out of range 1..3: (4, 2)"),
        (GameKind.BWCF, dict(conflict_edges=[(0, 1)]), "conflict_edges",
         "endpoint out of range 1..3: (0, 1)"),
        (GameKind.BWCF, dict(friendship_edges=[(1, 2, 3)]), "friendship_edges",
         "not a pair of player ids: (1, 2, 3)"),
        (GameKind.BWCF, dict(conflict_edges=[7]), "conflict_edges", "not a pair of player ids: 7"),
        # the first offender in the caller's order is the one named
        (GameKind.BWCF, dict(conflict_edges=[(1, 2), (3, 3), (1, 9)]), "conflict_edges",
         "self-loop at player 3"),
        (GameKind.BWCF, dict(conflict_edges=[(1, 2), (2, 3)], friendship_edges=[(3, 2), (2, 1)]),
         "friendship_edges", "edges appear in both sets: [(1, 2), (2, 3)]"),
        (GameKind.BWC, dict(friendship_edges=[(1, 2)]), "friendship_edges",
         "BwC uses conflict edges only"),
        (GameKind.MAXCUT, dict(friendship_edges=[(1, 2)]), "friendship_edges",
         "MaxCut uses conflict edges only"),
        (GameKind.BWF, dict(conflict_edges=[(1, 2)]), "conflict_edges",
         "BwF uses friendship edges only"),
        (GameKind.SWC, dict(conflict_edges=[(1, 2)], machine_values=[1, 1],
                            edge_weights={(3, 1): 1}), "edge_weights", "weight for non-edge (1, 3)"),
        (GameKind.SWC, dict(conflict_edges=[(1, 2)], machine_values=[1, 1],
                            edge_weights={(1, 2): 1, (2, 1): 5}), "edge_weights",
         "two weights for edge (1, 2)"),
        (GameKind.BWC, dict(conflict_edges=[(1, 2)], edge_weights={(1, 2): 2}), "edge_weights",
         "only the sharing kinds take weights"),
    ])
    def test_edge_errors_name_field_and_first_offender(self, kind, kwargs, field, message):
        with pytest.raises(InvalidInstanceError) as err:
            make_instance(kind, 3, 2, **kwargs)
        assert err.value.field == field
        assert str(err.value) == f"{field}: {message}"

    @pytest.mark.parametrize("edge", [(1.7, 2), (2.0, 3), (True, 2), (1, False), ("1", "3"),
                                      (F(1), 2), (np.True_, 2)])
    def test_endpoints_must_be_integers(self, edge):
        with pytest.raises(InvalidInstanceError) as err:
            make_instance(GameKind.BWC, 3, 2, conflict_edges=[edge])
        assert str(err.value) == f"conflict_edges: not a pair of player ids: {edge!r}"
        with pytest.raises(InvalidInstanceError) as err:
            make_instance(GameKind.SWC, 3, 2, conflict_edges=[(1, 2), (2, 3)],
                          machine_values=[1, 1], edge_weights={edge: 1})
        assert str(err.value) == f"edge_weights: not a pair of player ids: {edge!r}"

    def test_numpy_integer_endpoints_become_ints(self):
        a, b, c = np.int64(1), np.int32(2), np.uint8(3)
        inst = make_instance(GameKind.SWF, 3, 2, friendship_edges=[(b, a), [c, b]],
                             machine_values=[1, 1], edge_weights={(c, b): 5})
        assert inst.friendship_edges == frozenset({(1, 2), (2, 3)})
        assert inst.edge_weights == (((2, 3), F(5)),)
        ids = [x for e in inst.friendship_edges for x in e] + list(inst.edge_weights[0][0])
        assert all(type(x) is int for x in ids)

    @pytest.mark.parametrize("field, n, m", [("n", True, 2), ("m", 2, True), ("n", 2.0, 2),
                                             ("m", 2, 0)])
    def test_counts_must_be_integers(self, field, n, m):
        with pytest.raises(InvalidInstanceError) as err:
            make_instance(GameKind.BWC, n, m)
        assert err.value.field == field

    def test_sharing_needs_machine_values(self):
        with pytest.raises(InvalidInstanceError) as err:
            make_instance(GameKind.SWC, 2, 2, conflict_edges=[(1, 2)])
        assert err.value.field == "machine_values"

    def test_machine_values_allow_zero_but_not_negative(self):
        make_instance(GameKind.SWC, 2, 2, machine_values=[0, 1])
        with pytest.raises(InvalidInstanceError):
            make_instance(GameKind.SWC, 2, 2, machine_values=[-1, 1])

    def test_maxcut_needs_two_machines(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(GameKind.MAXCUT, 2, 3, conflict_edges=[(1, 2)])

    def test_weights_only_on_sharing_kinds(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(
                GameKind.BWC, 2, 2, conflict_edges=[(1, 2)], edge_weights={(1, 2): 2}
            )

    def test_weight_for_missing_edge_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(
                GameKind.SWC, 3, 2, conflict_edges=[(1, 2)],
                machine_values=[1, 1], edge_weights={(1, 3): 1},
            )

    def test_fixed_weights_enforced_for_named_kinds(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(GameKind.BWC, 2, 2, alpha=2)

    def test_float_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(GameKind.SWC, 2, 2, machine_values=[0.5, 1])

    def test_bwcf_weight_signs(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(GameKind.BWCF, 2, 2, alpha=0)
        with pytest.raises(InvalidInstanceError):
            make_instance(GameKind.BWCF, 2, 2, beta=-1)


class TestProfiles:
    def test_uniform_rows_sum_to_one(self, mixed_pool):
        for inst in mixed_pool:
            validate_profile(inst, uniform_profile(inst))
            validate_profile(inst, canonical_deviation_profile(inst))

    def test_point_mass(self):
        inst = gen_maxcut_edge()
        prof = point_mass_profile(inst, (2, 1))
        assert prof == ((F(0), F(1)), (F(1), F(0)))

    def test_bad_row_sum_rejected(self):
        inst = gen_maxcut_edge()
        bad = ((F(1, 2), F(1, 3)),) * 2
        with pytest.raises(ValueError):
            validate_profile(inst, bad)

    def test_canonical_swc_small_n_spreads_over_top_values(self):
        inst = make_instance(
            GameKind.SWC, 2, 4, machine_values=[1, 7, 3, 7], conflict_edges=[(1, 2)]
        )
        prof = canonical_deviation_profile(inst)
        assert prof[0] == (F(0), F(1, 2), F(0), F(1, 2))

    def test_canonical_swf_small_n_stays_uniform(self):
        inst = make_instance(
            GameKind.SWF, 2, 4, machine_values=[1, 7, 3, 7], friendship_edges=[(1, 2)]
        )
        assert canonical_deviation_profile(inst) == uniform_profile(inst)


class TestCaches:
    CACHED = ("conflict_neighbors", "friendship_neighbors", "sharing_weights", "weighted_neighbors")

    def test_equal_instances_share_hash_and_cache_entries(self):
        def build():
            return make_instance(
                GameKind.SWF, 4, 2, friendship_edges=[(1, 2), (3, 4)],
                machine_values=[Fraction(7, 3), 1], edge_weights={(1, 2): Fraction(5, 2)},
            )

        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        # the structures kept on an instance change none of its fields
        for name in self.CACHED:
            getattr(a, name)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert [f.name for f in dataclasses.fields(a)] == [
            "kind", "n", "m", "conflict_edges", "friendship_edges", "machine_values",
            "edge_weights", "alpha", "beta", "gamma",
        ]
        # each structure is built once per instance, and equal instances
        # build equal ones
        for name in self.CACHED:
            assert getattr(a, name) is getattr(a, name)
            assert getattr(a, name) == getattr(b, name) and getattr(a, name) is not getattr(b, name)
        assert a.weighted_neighbors[0] == ((2, Fraction(5, 2)),)
        assert pickle.loads(pickle.dumps(a)) == a
