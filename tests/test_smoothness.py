"""Semi-smoothness scans, niceness, the pure-deviation ratio search,
certificate parameters, and the optimum floors."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from conflictgames import oracle, smoothness
from conflictgames.fastpath import _INT64_SAFE, StateEvaluator, to_public
from conflictgames.games import (
    GameKind,
    canonical_deviation_profile,
    harmonic,
    make_instance,
    player_value,
    uniform_profile,
)
from conflictgames.instances import (
    gen_bwc_multipartite,
    gen_bwcf_lower,
    gen_bwf_cliques,
    gen_maxcut_edge,
    gen_random,
    gen_swc_pos,
)
from conflictgames.oracle import enumerate_states, state_count
from conflictgames.smoothness import (
    cce_bound,
    certificate_params,
    check_nice,
    check_opt_lower_bounds,
    check_semi_smooth,
    deviation_weights,
    make_params,
    max_rho_pure_sigma,
    pure_poa_bound,
    semi_smooth_lhs,
    strong_poa_bound,
)

from conftest import ALL_KINDS, beyond_int64_pool, kind_pool, small_instance
from reference_evaluator import state_blocks
from reference_oracle import max_rho_pure_sigma_by_bisection, slack_verdict_by_fractions

F = Fraction


def _definitional_lhs(inst, state, profile):
    total = F(0)
    for i in range(1, inst.n + 1):
        for k in range(1, inst.m + 1):
            q = profile[i - 1][k - 1]
            if q:
                moved = state[: i - 1] + (k,) + state[i:]
                total += q * player_value(inst, moved, i)
    return total


class TestLhs:
    def test_bwc_uniform_per_player_form(self):
        # per player the uniform deviation costs (n + d_i + m - 1) / m
        inst = gen_bwc_multipartite(2)
        prof = uniform_profile(inst)
        n, m = inst.n, inst.m
        expected = sum(F(n + 2 + m - 1, m) for _ in range(n))  # every degree is 2
        for state in [(1, 1, 1, 1), (1, 2, 1, 2), (1, 1, 2, 2)]:
            assert semi_smooth_lhs(inst, state, prof) == expected

    def test_maxcut_uniform_is_edge_count(self):
        inst = gen_maxcut_edge()
        prof = uniform_profile(inst)
        for state in enumerate_states(inst):
            assert semi_smooth_lhs(inst, state, prof) == 1

    def test_edgeless_two_by_two(self):
        inst = make_instance(GameKind.BWC, 2, 2)
        assert semi_smooth_lhs(inst, (1, 1), uniform_profile(inst)) == 3

    def test_matches_definitional_double_sum(self, mixed_pool):
        cases = [
            (inst, canonical_deviation_profile(inst))
            for inst in mixed_pool + beyond_int64_pool()
            if state_count(inst) <= 256
        ]
        # t = 2^70 + 1 passes the int64-safe bound: weights and table widen
        tiny = F(1, 2**70 + 1)
        cases += [
            (inst, ((tiny, 1 - tiny) + (F(0),) * (inst.m - 2),) * inst.n)
            for inst, _ in cases[::5]
            if inst.m >= 2
        ]
        assert deviation_weights(cases[-1][1])[0] >= _INT64_SAFE
        # values near 2^54 fit int64, but t = 2^10 times their sum does not
        near = make_instance(
            GameKind.SWF, 3, 2, friendship_edges=[(1, 2)],
            machine_values=(F(2**52 + 1, 2**52 + 3), F(1)),
        )
        assert StateEvaluator(near).dtype() is np.int64
        assert StateEvaluator(near).dtype(2**10) is object
        cases.append((near, ((F(1, 2**10), 1 - F(1, 2**10)),) * near.n))
        for inst, prof in cases:
            for state in itertools.islice(enumerate_states(inst), 7):
                assert semi_smooth_lhs(inst, state, prof) == _definitional_lhs(
                    inst, state, prof
                )


def _closed_form_pool():
    pool = [inst for kind in ALL_KINDS for inst in kind_pool(kind, 6, n_max=4)]
    pool += [  # rational combination weights, weighted sharing, SwC with n < m
        gen_random(3, 3, GameKind.BWCF, F(1, 2), seed=5,
                   alpha=F(2, 3), beta=F(3, 5), gamma=F(5, 7)),
        gen_random(4, 2, GameKind.BWCF, F(3, 4), seed=6,
                   alpha=F(1, 3), beta=F(7, 2), gamma=F(4, 3)),
        gen_random(4, 3, GameKind.SWC, F(1, 2), seed=1, weighted=True),
        gen_random(4, 3, GameKind.SWF, F(3, 4), seed=2, weighted=True),
    ]
    pool += [gen_random(2, 3, GameKind.SWC, F(1), seed=s, weighted=s % 2 == 0) for s in range(3)]
    return pool


# one explicit non-uniform profile, denominators 3 and 5 (t = 15)
THIRDS_FIFTHS = (F(1, 3), F(2, 3), F(0)), (F(2, 5), F(0), F(3, 5))


def _thirds_fifths(inst):
    return tuple(THIRDS_FIFTHS[i % 2] for i in range(inst.n))


class TestClosedFormLhs:
    def test_equals_definitional_double_sum_at_every_state(self):
        # t * value_scale * (Fraction double sum), t the lcm of the profile's
        # denominators: the support size for the canonical profile
        cases = [(inst, canonical_deviation_profile(inst)) for inst in _closed_form_pool()]
        cases += [
            (inst, _thirds_fifths(inst))
            for inst in (
                gen_random(3, 3, GameKind.BWCF, F(1, 2), seed=5,
                           alpha=F(2, 3), beta=F(3, 5), gamma=F(5, 7)),
                gen_random(4, 3, GameKind.SWC, F(1, 2), seed=1, weighted=True),
            )
        ]
        assert {inst.kind for inst, _ in cases} == set(ALL_KINDS)
        assert any(inst.kind.sharing and inst.edge_weights for inst, _ in cases)
        narrow = 0
        for inst, prof in cases:
            ev = StateEvaluator(inst)
            t, weights = deviation_weights(prof)
            if prof == canonical_deviation_profile(inst):
                assert t == sum(1 for q in prof[0] if q)
                assert set(weights.ravel().tolist()) <= {0, 1}
            else:
                assert t == 15
            if inst.kind is GameKind.SWC and inst.n < inst.m:
                assert t == inst.n
                narrow += 1
            for grid in state_blocks(inst.n, inst.m):
                lhs = (ev.table(grid)[0] * weights.T[:, :, None]).sum((0, 1))
                for state, got in zip(grid.tolist(), lhs.tolist()):
                    expected = t * ev.value_scale * _definitional_lhs(inst, to_public(state), prof)
                    assert got == expected
        assert narrow

    def test_semi_smooth_verdict_matches_fraction_reference(self):
        for inst in _closed_form_pool()[::3]:
            params, _ = certificate_params(
                inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma
            )
            profiles = [canonical_deviation_profile(inst)]
            if inst.m >= 2:
                tiny = F(1, 2**70 + 1)  # t past int64: weights and table widen
                profiles.append(((tiny, 1 - tiny) + (F(0),) * (inst.m - 2),) * inst.n)
            if inst.m == 3:
                profiles.append(_thirds_fifths(inst))
            for prof in profiles:
                verdict = check_semi_smooth(inst, params, profile=prof)
                lhs = {s: _definitional_lhs(inst, s, prof) for s in enumerate_states(inst)}
                expected = slack_verdict_by_fractions(inst, params, lhs)
                assert (verdict.holds, verdict.worst_state, verdict.slack) == expected


class TestCheckSemiSmooth:
    def test_bwc_certificate_passes(self):
        for m in (2, 3):
            inst = gen_bwc_multipartite(m)
            params, _ = certificate_params(inst.kind, inst.n, inst.m)
            assert check_semi_smooth(inst, params).holds

    def test_k22_certificate_is_tight(self):
        inst = gen_bwc_multipartite(2)
        params, _ = certificate_params(inst.kind, inst.n, inst.m)
        verdict = check_semi_smooth(inst, params)
        assert verdict.holds and verdict.slack == 0

    def test_swc_certificate_passes(self):
        for seed in range(5):
            inst = gen_random(4, 3, GameKind.SWC, F(1, 2), seed=seed, weighted=seed % 2 == 0)
            params, _ = certificate_params(inst.kind, inst.n, inst.m)
            assert check_semi_smooth(inst, params).holds

    def test_lambda_one_fails_with_witness(self):
        inst = gen_bwc_multipartite(2)
        verdict = check_semi_smooth(inst, make_params(inst.kind, 1, 0))
        assert not verdict.holds
        assert verdict.slack < 0
        # the witness is a genuine violation of the per-state inequality
        prof = canonical_deviation_profile(inst)
        lhs = semi_smooth_lhs(inst, verdict.worst_state, prof)
        assert lhs > 1 * 8  # lam * OPT with mu = 0

    def test_monotone_in_parameters(self):
        # payoff orientation: smaller lambda / larger mu only weakens the bound
        inst = gen_random(4, 2, GameKind.SWC, F(1, 2), seed=2)
        params, _ = certificate_params(inst.kind, inst.n, inst.m)
        assert check_semi_smooth(inst, params).holds
        weaker = make_params(inst.kind, params.lam / 2, params.mu + 1)
        assert check_semi_smooth(inst, weaker).holds

    def test_explicit_profile_respected(self):
        inst = gen_maxcut_edge()
        point = ((F(1), F(0)), (F(1), F(0)))  # both deviate to partition 1
        params = make_params(inst.kind, F(1, 2), 0)
        assert not check_semi_smooth(inst, params, profile=point).holds

    def test_n_below_m_branches(self):
        # BwC uses its small-n parameter branch; sharing scales with support
        inst = make_instance(GameKind.BWC, 2, 3, conflict_edges=[(1, 2)])
        params, _ = certificate_params(GameKind.BWC, 2, 3)
        assert params.lam == 1 + F(2, 3)
        assert check_semi_smooth(inst, params).holds
        for seed in range(4):
            swc = gen_random(2, 3, GameKind.SWC, F(1, 2), seed=seed)
            p, pota = certificate_params(GameKind.SWC, 2, 3)
            assert (p.lam, p.mu, pota) == (F(1, 2), F(0), 2)
            assert check_semi_smooth(swc, p).holds


class TestCheckNice:
    def test_bwc_niceness_constant(self):
        inst = gen_bwc_multipartite(2)
        assert check_nice(inst, make_params(inst.kind, 2 - F(2, 4), 0)).holds

    def test_lambda_one_fails(self):
        inst = gen_bwc_multipartite(2)
        assert not check_nice(inst, make_params(inst.kind, 1, 0)).holds

    def test_single_player_best_response_is_optimal(self):
        inst = make_instance(GameKind.BWC, 1, 3)
        assert check_nice(inst, make_params(inst.kind, 1, 0)).holds

    def test_semi_smooth_implies_nice(self, mixed_pool):
        # the joint best response dominates any fixed deviation profile
        for inst in mixed_pool[::4]:
            if state_count(inst) > 256:
                continue
            params, _ = certificate_params(
                inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma
            )
            if inst.kind is GameKind.BWCF and inst.n < inst.m:
                continue  # combined-kind certificate assumes n >= m
            if check_semi_smooth(inst, params).holds:
                assert check_nice(inst, params).holds


class TestPureSigmaRatio:
    def test_split_deviation_caps_at_one_third(self):
        assert max_rho_pure_sigma(gen_maxcut_edge(), (1, 2)) == F(1, 3)

    def test_clustered_deviation_gives_zero(self):
        assert max_rho_pure_sigma(gen_maxcut_edge(), (1, 1)) == 0

    def test_max_over_all_pure_profiles(self):
        inst = gen_maxcut_edge()
        best = max(
            max_rho_pure_sigma(inst, sigma) for sigma in itertools.product((1, 2), repeat=2)
        )
        assert best == F(1, 3)

    def test_cost_kind_rejected(self):
        with pytest.raises(ValueError):
            max_rho_pure_sigma(gen_bwc_multipartite(2), (1, 1, 2, 2))

    def test_supremum_approached_as_mu_grows(self):
        # min_s u(s) / opt = 7/14 is the limit of mu -> infinity, and no
        # finite mu reaches it: the bound t = mu/(1+mu) <= 1 is what binds
        inst = make_instance(
            GameKind.SWF, 2, 2, friendship_edges=[(1, 2)], machine_values=(1, 6),
            edge_weights={(1, 2): 4},
        )
        rho = max_rho_pure_sigma(inst, (1, 1))
        assert rho == F(1, 2)
        lo, hi = max_rho_pure_sigma_by_bisection(inst, (1, 1))
        assert lo < rho == hi

    def test_zero_optimum_rejected(self):
        with pytest.raises(ValueError, match="optimum value is 0"):
            max_rho_pure_sigma(make_instance(GameKind.MAXCUT, 3, 2), (1, 2, 1))

    def test_within_the_bisection_interval(self):
        # the exact supremum lies in the interval that bisection brackets, on
        # every payoff kind, weighted sharing included
        seen = set()
        for kind in (GameKind.SWC, GameKind.SWF, GameKind.MAXCUT):
            for inst in kind_pool(kind, 8, n_max=4):
                if inst.m < 2:
                    continue
                states = list(enumerate_states(inst))
                for sigma in states[:: max(1, len(states) // 4)]:
                    try:
                        lo, hi = max_rho_pure_sigma_by_bisection(inst, sigma)
                    except ValueError:  # zero optimum: no ratio to bracket
                        assert oracle.optimum(inst)[1] == 0
                        continue
                    rho = max_rho_pure_sigma(inst, sigma)
                    assert type(rho) is F and lo <= rho <= hi, (inst, sigma)
                    seen.add((kind, bool(inst.edge_weights)))
        assert {kind for kind, _ in seen} == {GameKind.SWC, GameKind.SWF, GameKind.MAXCUT}
        assert any(weighted for _, weighted in seen)


class TestCertificateParams:
    def test_known_values(self):
        params, pota = certificate_params(GameKind.BWC, 4, 2)
        assert (params.lam, params.mu, pota) == (F(7, 4), 0, F(7, 4))
        params, pota = certificate_params(GameKind.BWF, 9, 3)
        assert pota == F(5, 3)
        params, pota = certificate_params(GameKind.SWC, 5, 3)
        assert (params.lam, params.mu, pota) == (F(2, 3), F(1, 3), 2)
        params, pota = certificate_params(GameKind.SWF, 5, 3)
        assert pota == 3
        params, pota = certificate_params(GameKind.MAXCUT, 5, 2)
        assert (params.lam, pota) == (F(1, 2), 2)

    def test_bwc_small_n_branch(self):
        params, _ = certificate_params(GameKind.BWC, 2, 5)
        assert params.lam == 1 + F(2, 5)

    def test_bwcf_branches_meet_at_equal_weights(self):
        n, m = 6, 3
        a = g = F(2)
        b = F(1)
        hi, _ = certificate_params(GameKind.BWCF, n, m, a, b, g)
        # alpha == gamma sits in the first branch; the second branch formula
        # evaluates to the same lambda there
        low_form = 1 + (b / a) * F(m - 1, m) + (g / a) * F(m - 1, m)
        assert hi.lam == low_form

    def test_degenerate_single_machine(self):
        for kind in ALL_KINDS:
            if kind is GameKind.MAXCUT:
                continue
            params, pota = certificate_params(kind, 3, 1, F(1), F(1), F(1))
            assert (params.lam, params.mu, pota) == (1, 0, 1)

    def test_pota_orientation(self):
        _, pota_cost = certificate_params(GameKind.BWF, 4, 2)
        assert pota_cost == F(3, 2)  # lambda / (1 - mu)
        params, pota_payoff = certificate_params(GameKind.SWC, 4, 2)
        assert pota_payoff == (1 + params.mu) / params.lam

    def test_cce_bound_is_the_certified_ratio(self):
        for kind in ALL_KINDS:
            for n, m in ((1, 1), (3, 1), (2, 3), (4, 2), (9, 3)):
                params, pota = certificate_params(kind, n, m, F(1), F(1), F(1, 2))
                assert cce_bound(kind, params) == pota
        assert cce_bound(GameKind.BWC, make_params(GameKind.BWC, 2, F(1, 2))) == 4
        assert cce_bound(GameKind.SWC, make_params(GameKind.SWC, 2, F(1, 2))) == F(3, 4)

    def test_pure_poa_bound(self):
        # BwC with n >= m: the niceness constant 2 - m/n, below lambda
        assert pure_poa_bound(GameKind.BWC, 4, 2) == F(3, 2)
        assert pure_poa_bound(GameKind.BWC, 9, 3) == F(5, 3)
        assert pure_poa_bound(GameKind.BWC, 4, 2) < certificate_params(GameKind.BWC, 4, 2)[0].lam
        # otherwise the certified lambda
        assert pure_poa_bound(GameKind.BWC, 2, 5) == 1 + F(2, 5)
        assert pure_poa_bound(GameKind.BWF, 4, 2) == F(3, 2)
        lam = certificate_params(GameKind.BWCF, 6, 3, F(1), F(1), F(1, 2))[0].lam
        assert pure_poa_bound(GameKind.BWCF, 6, 3, F(1), F(1), F(1, 2)) == lam
        for kind in (GameKind.SWC, GameKind.SWF, GameKind.MAXCUT):
            with pytest.raises(ValueError):
                pure_poa_bound(kind, 4, 2)

    def test_strong_poa_bound(self):
        assert [strong_poa_bound(GameKind.BWC, n, 2) for n in (2, 4, 8)] == [
            F(5, 3), F(3, 2), F(17, 12)
        ]
        for kind, m in ((GameKind.BWF, 2), (GameKind.BWC, 3)):
            with pytest.raises(ValueError):
                strong_poa_bound(kind, 4, m)


class TestMakeParams:
    def test_payoff_kinds_need_positive_lambda_and_mu_above_minus_one(self):
        for kind in (GameKind.SWC, GameKind.SWF, GameKind.MAXCUT):
            for lam, mu in ((0, 0), (1, -1), (1, -2), (-1, 0), (0, F(1, 2))):
                with pytest.raises(ValueError):
                    make_params(kind, lam, mu)
            assert make_params(kind, F(1, 2), F(-1, 2)).rho == 1
            assert make_params(kind, 1, 3).rho == F(1, 4)

    def test_cost_kinds_take_zero_lambda_and_negative_mu(self):
        for kind in (GameKind.BWC, GameKind.BWF, GameKind.BWCF):
            assert make_params(kind, 0, 0).rho == 0
            assert make_params(kind, 1, -2).rho == F(1, 3)
            for lam, mu in ((-1, 0), (1, 1)):
                with pytest.raises(ValueError):
                    make_params(kind, lam, mu)


class TestOptLowerBounds:
    def test_k22_floors(self):
        verdict = check_opt_lower_bounds(gen_bwc_multipartite(2))
        assert verdict.holds
        assert set(verdict.checks) == {"load_floor", "conflict_volume"}

    def test_k22_floor_values_tight_at_optimum(self):
        # both floors evaluate to 8 on this instance
        inst = gen_bwc_multipartite(2)
        from conflictgames.games import social_value

        assert all(
            social_value(inst, s) >= 8 for s in enumerate_states(inst)
        )

    def test_edgeless_bwf_reduces_to_load(self):
        inst = make_instance(GameKind.BWF, 3, 2)
        assert check_opt_lower_bounds(inst).holds

    def test_bwcf_both_branches_on_random_pool(self):
        for seed in range(40):
            inst = small_instance(GameKind.BWCF, seed, n_max=5)
            if state_count(inst) > 512:
                continue
            verdict = check_opt_lower_bounds(inst)
            assert verdict.holds, (seed, verdict.witness)

    def test_heavy_friendship_floor_holds_when_friends_cluster(self):
        # alpha < gamma with every friend co-located: the alpha*n constant is
        # exactly what keeps this floor true
        inst = make_instance(
            GameKind.BWCF, 2, 2, friendship_edges=[(1, 2)], alpha=1, beta=0, gamma=2
        )
        verdict = check_opt_lower_bounds(inst)
        assert verdict.holds
        from conflictgames.games import social_value

        assert social_value(inst, (1, 1)) == 4  # 2*alpha*|E+| + alpha*n = 4 exactly

    def test_payoff_kinds_trivially_hold(self):
        assert check_opt_lower_bounds(gen_swc_pos(3, F(1, 10))).holds

    @pytest.mark.parametrize(
        "first, later, name", [(10, 5, "conflict_volume"), (5, 10, "load_floor")]
    )
    def test_failing_witness(self, monkeypatch, first, later, name):
        # K4 on two machines (value scale 1): a social cost below 8 fails
        # load_floor, one below 12 conflict_volume.  With columns 1 and 5 of
        # the social column lowered, the witness is the lex-smallest failing
        # state, column 1's (1, 1, 1, 2), its first failing check and value
        inst = make_instance(
            GameKind.BWC, 4, 2, conflict_edges=itertools.combinations(range(1, 5), 2),
            alpha=1, beta=1,
        )
        real = smoothness.state_columns

        def lowered(*args, **kwargs):
            ev, orbits, (social,) = real(*args, **kwargs)
            assert orbits.state(1) == (1, 1, 1, 2) and ev.value_scale == 1
            social = social.copy()  # the kept table is read-only
            social[[1, 5]] = first, later
            return ev, orbits, (social,)

        monkeypatch.setattr(smoothness, "state_columns", lowered)
        verdict = check_opt_lower_bounds(inst)
        assert not verdict.holds
        assert verdict.checks == ("load_floor", "conflict_volume")
        assert verdict.witness == (name, (1, 1, 1, 2), F(first))
