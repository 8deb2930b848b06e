"""Property-based invariants over randomly generated instances and states."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conflictgames.games import (
    GameKind,
    best_response,
    deviation_gain,
    harmonic,
    machine_loads,
    make_instance,
    player_value,
    player_values,
    potential,
    social_value,
)
from conflictgames.instances import parse_instance, write_instance
from conflictgames.oracle import expected_player_value
from conflictgames.games import point_mass_profile

from reference_oracle import social_value_from_players

F = Fraction

SETTINGS = settings(max_examples=60, deadline=None)

small_fractions = st.fractions(min_value=0, max_value=10, max_denominator=8)
positive_fractions = st.fractions(min_value=F(1, 8), max_value=10, max_denominator=8)


@st.composite
def instances(draw, kinds=tuple(GameKind)):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 5))
    m = 2 if kind is GameKind.MAXCUT else draw(st.integers(1, 3))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    conflict, friendship = [], []
    if kind in (GameKind.BWC, GameKind.SWC, GameKind.MAXCUT):
        conflict = edges
    elif kind in (GameKind.BWF, GameKind.SWF):
        friendship = edges
    else:
        split = draw(st.integers(0, len(edges)))
        conflict, friendship = edges[:split], edges[split:]
    machine_values = None
    weights = None
    if kind.sharing:
        machine_values = draw(
            st.lists(small_fractions, min_size=m, max_size=m)
        )
        own = conflict if kind is GameKind.SWC else friendship
        if own and draw(st.booleans()):
            ws = draw(st.lists(positive_fractions, min_size=len(own), max_size=len(own)))
            weights = dict(zip(own, ws))
    alpha = beta = gamma = None
    if kind is GameKind.BWCF:
        alpha = draw(positive_fractions)
        beta = draw(small_fractions)
        gamma = draw(small_fractions)
    return make_instance(
        kind, n, m,
        conflict_edges=conflict, friendship_edges=friendship,
        machine_values=machine_values, edge_weights=weights,
        alpha=alpha, beta=beta, gamma=gamma,
    )


@st.composite
def instance_and_state(draw, kinds=tuple(GameKind)):
    inst = draw(instances(kinds))
    state = tuple(
        draw(st.integers(1, inst.m)) for _ in range(inst.n)
    )
    return inst, state


@SETTINGS
@given(instance_and_state())
def test_exact_potential_law(pair):
    inst, state = pair
    phi = potential(inst, state)
    for i in range(1, inst.n + 1):
        before = player_value(inst, state, i)
        for k in range(1, inst.m + 1):
            moved = state[: i - 1] + (k,) + state[i:]
            assert potential(inst, moved) - phi == player_value(inst, moved, i) - before


@SETTINGS
@given(instance_and_state())
def test_aggregate_identity(pair):
    inst, state = pair
    assert social_value(inst, state) == social_value_from_players(inst, state)


@SETTINGS
@given(instance_and_state())
def test_values_and_potential_nonnegative(pair):
    inst, state = pair
    assert all(v >= 0 for v in player_values(inst, state))
    assert social_value(inst, state) >= 0
    assert potential(inst, state) >= 0


@SETTINGS
@given(instance_and_state((GameKind.SWC,)))
def test_share_sums_recover_machine_values(pair):
    inst, state = pair
    loads = machine_loads(inst, state)
    for k in range(1, inst.m + 1):
        occupants = [i for i in range(1, inst.n + 1) if state[i - 1] == k]
        if occupants:
            shares = sum(
                inst.machine_values[k - 1] / loads[k - 1] for _ in occupants
            )
            assert shares == inst.machine_values[k - 1]


@SETTINGS
@given(instance_and_state((GameKind.SWC,)))
def test_sharing_sandwich(pair):
    inst, state = pair
    u = social_value(inst, state)
    phi = potential(inst, state)
    assert phi <= harmonic(inst.n) * u
    assert u <= 2 * phi


@SETTINGS
@given(instances())
def test_document_round_trip(inst):
    assert parse_instance(write_instance(inst)) == inst


@SETTINGS
@given(instance_and_state())
def test_point_mass_expectation_is_player_value(pair):
    inst, state = pair
    prof = point_mass_profile(inst, state)
    for i in (1, inst.n):
        for k in (1, inst.m):
            moved = state[: i - 1] + (k,) + state[i:]
            assert expected_player_value(inst, prof, i, k) == player_value(inst, moved, i)


@SETTINGS
@given(instance_and_state())
def test_best_response_dominates_all_deviations(pair):
    inst, state = pair
    for i in range(1, inst.n + 1):
        k, gain = best_response(inst, state, i)
        assert gain >= 0
        assert gain == max(
            deviation_gain(inst, state, i, kk) for kk in range(1, inst.m + 1)
        )


@SETTINGS
@given(instance_and_state((GameKind.BWC,)))
def test_bwcf_with_conflict_weights_matches_bwc(pair):
    inst, state = pair
    combined = make_instance(
        GameKind.BWCF, inst.n, inst.m,
        conflict_edges=inst.conflict_edges, alpha=1, beta=1, gamma=0,
    )
    assert player_values(combined, state) == player_values(inst, state)
    assert potential(combined, state) == potential(inst, state)


@SETTINGS
@given(instance_and_state((GameKind.BWF,)))
def test_bwcf_with_friendship_weights_matches_bwf(pair):
    inst, state = pair
    combined = make_instance(
        GameKind.BWCF, inst.n, inst.m,
        friendship_edges=inst.friendship_edges, alpha=1, beta=0, gamma=1,
    )
    assert player_values(combined, state) == player_values(inst, state)
    assert potential(combined, state) == potential(inst, state)
