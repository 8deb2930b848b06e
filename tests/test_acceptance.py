"""Acceptance suite: every criterion at its stated tolerance (exact rational
comparisons throughout; the only floats are in reported step-count bounds).

Each criterion prints one pass/fail line, echoed in the terminal summary.
Criteria 13 and 15 run on criterion 10's instance pool, and criterion 14
reuses it as well.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from conflictgames.dynamics import check_convergence_theorems, run_br, random_start
from conflictgames.fastpath import StateEvaluator
from conflictgames.games import (
    GameKind,
    best_response,
    harmonic,
    uniform_profile,
)
from conflictgames.instances import (
    gen_bwc_multipartite,
    gen_bwf_cliques,
    gen_maxcut_edge,
    gen_path4,
    gen_random,
    gen_swc_pos,
    gen_swf_nostrong,
)
from conflictgames.oracle import (
    equilibrium_report,
    expected_player_value,
    optimum,
    pure_nash_set,
    state_count,
    strong_nash_set,
    verify_mixed_ne,
    worst_cce_value,
)
from conflictgames.smoothness import (
    certificate_params,
    check_opt_lower_bounds,
    check_semi_smooth,
    max_rho_pure_sigma,
)

import reference_evaluator as pointwise
from conftest import acceptance_lines

F = Fraction

EPS = F(1, 10)
C_REPORT = 8


@contextmanager
def criterion(number: int, summary: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        acceptance_lines.append(f"criterion {number:02d} FAIL  {summary}")
        raise
    elapsed = time.perf_counter() - start
    acceptance_lines.append(f"criterion {number:02d} PASS  {elapsed:6.2f}s  {summary}")


# --------------------------------------------------------------------------
# criterion 10's instance pool, shared with 13, 14, and 15

POOL_BWCF_WEIGHTS = (
    (F(1), F(1), F(0)),       # alpha >= gamma
    (F(1), F(1), F(1, 2)),    # alpha >= gamma
    (F(2), F(0), F(2)),       # boundary alpha == gamma
    (F(1), F(1), F(2)),       # alpha < gamma
    (F(1, 2), F(2), F(3)),    # alpha < gamma
    (F(1), F(0), F(3)),       # alpha < gamma
)

PROBS = (F(1, 4), F(1, 2), F(3, 4))


def _pool_instance(kind: GameKind, t: int):
    m = 2 + t % 2
    if kind is GameKind.BWCF:
        n = m + t % (7 - m)  # n >= m, up to 6
        a, b, g = POOL_BWCF_WEIGHTS[t % len(POOL_BWCF_WEIGHTS)]
        return gen_random(n, m, kind, PROBS[t % 3], seed=t, alpha=a, beta=b, gamma=g)
    n = 2 + t % 5  # 2..6; n < m occurs for m = 3
    weighted = kind.sharing and t % 3 == 0
    return gen_random(n, m, kind, PROBS[t % 3], seed=t, weighted=weighted)


@pytest.fixture(scope="module")
def pool():
    kinds = (GameKind.BWC, GameKind.BWF, GameKind.BWCF, GameKind.SWC, GameKind.SWF)
    return {kind: [_pool_instance(kind, t) for t in range(100)] for kind in kinds}


# --------------------------------------------------------------------------


def test_criterion_01_bwc_multipartite_two():
    with criterion(1, "bwc-multipartite(2): OPT=8, worst NE=12, pure PoA=3/2"):
        inst = gen_bwc_multipartite(2)
        assert state_count(inst) == 16
        rep = equilibrium_report(inst, with_strong=False)
        assert rep.optimum[1] == 8
        assert max(v for _, v in rep.pure_ne) == 12
        assert rep.poa == F(3, 2) == 2 - F(inst.m, inst.n)


def test_criterion_02_bwc_multipartite_three():
    with criterion(2, "bwc-multipartite(3): OPT=27, worst NE=45, pure PoA=5/3"):
        inst = gen_bwc_multipartite(3)
        assert state_count(inst) == 19683
        rep = equilibrium_report(inst, with_strong=False)
        assert rep.optimum[1] == 27
        assert max(v for _, v in rep.pure_ne) == 45
        assert rep.poa == F(5, 3) == 2 - F(3, 9)


def test_criterion_03_uniform_mixed_equilibrium():
    with criterion(3, "uniform profile is a mixed NE on multipartite, value (2n-1)/m"):
        for m in (2, 3):
            inst = gen_bwc_multipartite(m)
            profile = uniform_profile(inst)
            assert verify_mixed_ne(inst, profile)
            expected = F(2 * inst.n - 1, m)
            for i in range(1, inst.n + 1):
                for k in range(1, m + 1):
                    assert expected_player_value(inst, profile, i, k) == expected


def test_criterion_04_worst_cce_exact():
    with criterion(4, "worst CCE on bwc-multipartite(2) = 14, ratio 7/4 = bound"):
        inst = gen_bwc_multipartite(2)
        sol = worst_cce_value(inst)
        assert sol.value == 14
        _, opt_value = optimum(inst)
        ratio = sol.value / opt_value
        bound = 2 - F(1, inst.m) + F(inst.m - 1, inst.n)
        assert ratio == F(7, 4) == bound


def test_criterion_05_bwf_cliques():
    with criterion(5, "bwf-cliques(2): OPT=8, worst NE=12, PoA=3/2=2-1/m"):
        inst = gen_bwf_cliques(2)
        rep = equilibrium_report(inst, with_strong=False)
        assert rep.optimum[1] == 8
        assert max(v for _, v in rep.pure_ne) == 12
        assert rep.poa == F(3, 2) == 2 - F(1, inst.m)


def test_criterion_06_path4_strong():
    with criterion(6, "path4: strong NE at 10, strong PoA=5/4 <= 3/2, OPT strong"):
        inst = gen_path4()
        rep = equilibrium_report(inst)
        strong_values = {v for _, v in rep.strong_ne}
        assert 10 in strong_values
        assert rep.strong_poa == F(5, 4)
        assert rep.optimum in rep.strong_ne
        assert rep.strong_poa <= F(4, 3) + F(2, 3 * inst.n) == F(3, 2)


def test_criterion_07_strong_sweep_two_machines():
    with criterion(7, "100 random BwC m=2, n=2..8: OPT strong, strong PoA within bound"):
        for t in range(100):
            n = 2 + t % 7
            inst = gen_random(n, 2, GameKind.BWC, PROBS[t % 3], seed=7000 + t)
            rep = equilibrium_report(inst)
            assert rep.optimum in rep.strong_ne, (n, t)
            assert rep.strong_poa <= F(4, 3) + F(2, 3 * n), (n, t, rep.strong_poa)


def test_criterion_08_swc_pos_sweep():
    with criterion(8, "swc-pos(3,eps): unique NE on machine 1, PoS climbing to 2"):
        previous = None
        for eps in (F(1, 2), F(1, 10), F(1, 100)):
            inst = gen_swc_pos(3, eps)
            rep = equilibrium_report(inst, with_strong=False)
            assert rep.pure_ne == (((1, 1, 1), F(6) + eps),)
            expected = (F(12) + eps) / (F(6) + eps)
            assert rep.pos == expected < 2
            if previous is not None:
                assert rep.pos > previous
            previous = rep.pos


def test_criterion_09_swf_no_strong_equilibrium():
    with criterion(9, "swf-nostrong(1/10): empty strong set, nonempty pure set"):
        inst = gen_swf_nostrong(F(1, 10))
        assert strong_nash_set(inst) == []
        assert pure_nash_set(inst)


def test_criterion_10_semi_smoothness_suite(pool):
    with criterion(10, "500 random instances: certificate semi-smoothness exact"):
        seen_low, seen_high = False, False
        for kind, insts in pool.items():
            for inst in insts:
                params, _ = certificate_params(
                    kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma
                )
                verdict = check_semi_smooth(inst, params)
                assert verdict.holds, (kind, inst.n, inst.m, verdict.slack)
                if kind is GameKind.BWCF:
                    if inst.alpha >= inst.gamma:
                        seen_high = True
                    else:
                        seen_low = True
        assert seen_low and seen_high


def test_criterion_11_maxcut_certificates():
    with criterion(11, "cut game: LHS=|E| on 50 graphs, pure-sigma rho = 1/3"):
        params, _ = certificate_params(GameKind.MAXCUT, 2, 2)
        for t in range(50):
            n = 2 + t % 5
            inst = gen_random(n, 2, GameKind.MAXCUT, PROBS[t % 3], seed=1100 + t)
            edges = len(inst.conflict_edges)
            ev = StateEvaluator(inst)
            for s in itertools.product(range(2), repeat=n):
                aux = pointwise.analyze(ev, s)
                lhs_doubled = sum(
                    pointwise.value(ev, aux, i, 0) + pointwise.value(ev, aux, i, 1)
                    for i in range(n)
                )
                assert lhs_doubled == 2 * edges  # uniform LHS equals |E| exactly
            assert check_semi_smooth(inst, params).holds
        edge = gen_maxcut_edge()
        rho_max = max(
            max_rho_pure_sigma(edge, sigma) for sigma in itertools.product((1, 2), repeat=2)
        )
        assert rho_max == F(1, 3)


def test_criterion_12_exact_potential_law():
    with criterion(12, "exact potential law, 6 kinds x 20 instances, all moves"):
        kinds = (
            GameKind.BWC, GameKind.BWF, GameKind.BWCF,
            GameKind.SWC, GameKind.SWF, GameKind.MAXCUT,
        )
        for kind in kinds:
            for t in range(20):
                m = 2 if kind is GameKind.MAXCUT else 2 + t % 2
                n = 2 + t % 4  # 2..5
                kwargs = {}
                if kind is GameKind.BWCF:
                    a, b, g = POOL_BWCF_WEIGHTS[t % len(POOL_BWCF_WEIGHTS)]
                    kwargs = dict(alpha=a, beta=b, gamma=g)
                inst = gen_random(
                    n, m, kind, PROBS[t % 3], seed=1200 + t,
                    weighted=kind.sharing and t % 3 == 0, **kwargs,
                )
                ev = StateEvaluator(inst)
                vs, ps = ev.value_scale, ev.potential_scale
                for s in itertools.product(range(m), repeat=n):
                    aux = pointwise.analyze(ev, s)
                    base_pot = pointwise.potential(ev, s)
                    for i in range(n):
                        base_val = pointwise.value(ev, aux, i, s[i])
                        for k in range(m):
                            moved = s[:i] + (k,) + s[i + 1:]
                            d_pot = pointwise.potential(ev, moved) - base_pot
                            d_val = pointwise.value(ev, aux, i, k) - base_val
                            assert d_pot * vs == d_val * ps, (kind, s, i, k)


def test_criterion_13_opt_lower_bound_floors(pool):
    with criterion(13, "cost floors hold at every state of the criterion-10 pool"):
        for kind in (GameKind.BWC, GameKind.BWF, GameKind.BWCF):
            for inst in pool[kind]:
                verdict = check_opt_lower_bounds(inst)
                assert verdict.holds, (kind, inst.n, inst.m, verdict.witness)


def test_criterion_14_dynamics_on_pool(pool):
    with criterion(14, "BR traces: monotone potential, NE endpoint, BwC quality"):
        worst_soft = 0.0
        for kind, insts in pool.items():
            for idx, inst in enumerate(insts):
                rows = check_convergence_theorems(
                    inst, EPS, trials=2, seed=1400 + idx, c_report=C_REPORT
                )
                for r in rows:
                    assert r.passed, (kind, idx, r)
                    if r.soft and r.bound:
                        worst_soft = max(worst_soft, float(r.measured / r.bound))
                # endpoint is a pure Nash equilibrium (point check)
                trace = run_br(inst, random_start(inst, random.Random(idx)))
                assert not trace.exhausted
                for i in range(1, inst.n + 1):
                    assert best_response(inst, trace.end, i)[1] == 0
        assert worst_soft <= 1.0


def test_criterion_15_sharing_sandwich(pool):
    with criterion(15, "conflict sharing: potential <= H_n * value, value <= 2 * potential"):
        for inst in pool[GameKind.SWC]:
            ev = StateEvaluator(inst)
            hn = harmonic(inst.n)
            a, b = hn.numerator, hn.denominator
            for s in itertools.product(range(inst.m), repeat=inst.n):
                u = pointwise.social(ev, s)
                phi = pointwise.potential(ev, s)  # same scale as u for sharing kinds
                assert phi * b <= a * u
                assert u <= 2 * phi
