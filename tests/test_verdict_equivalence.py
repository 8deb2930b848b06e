"""The convergence verdicts on scaled ints against their ``Fraction`` form.

``dynamics.steps_to_quality`` and ``dynamics.check_convergence_theorems``
compare a trace's scaled ints against thresholds put on the same scale;
``reference_dynamics`` keeps the versions that compare the trace's exact
``Fraction``s.  Both must give the same answers and equal ``VerdictReport``
rows, on every kind, at several ``eps``, with and without the worst start.
"""

import random
from fractions import Fraction

import pytest

import reference_dynamics
from conflictgames import dynamics, oracle, smoothness
from conflictgames.dynamics import (
    check_convergence_theorems,
    random_start,
    run_br,
    steps_to_quality,
)
from conflictgames.games import GameKind, make_instance
from conflictgames.instances import gen_random
from conflictgames.smoothness import cce_bound, make_params

from conftest import ALL_KINDS, beyond_int64_pool, kind_pool
from reference_dynamics import check_convergence_theorems_reference, steps_to_quality_reference

F = Fraction


def _assert_same_rows(inst, eps, trials, seed, include_worst_start):
    got = check_convergence_theorems(
        inst, eps, trials, seed, include_worst_start=include_worst_start
    )
    want = check_convergence_theorems_reference(
        inst, eps, trials, seed, include_worst_start=include_worst_start
    )
    assert got == want, (inst, eps, trials, seed, include_worst_start)
    assert repr(got) == repr(want)
    return got


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_kind_pools(kind):
    for seed, inst in enumerate(kind_pool(kind, 8)):
        for eps in (F(1, 10), F(1, 2), F(9, 10)):
            _assert_same_rows(inst, eps, 3, seed, True)
            _assert_same_rows(inst, eps, 2, seed, False)
            _assert_same_rows(inst, eps, 0, seed, True)


def test_beyond_int64_pool():
    for seed, inst in enumerate(beyond_int64_pool()):
        for eps in (F(1, 10), F(1, 3)):
            _assert_same_rows(inst, eps, 2, seed, True)
            _assert_same_rows(inst, eps, 2, seed, False)


def test_payoff_instances_with_zero_optimum():
    pool = [
        make_instance(GameKind.SWC, 3, 2, machine_values=(0, 0)),
        make_instance(GameKind.SWF, 4, 3, machine_values=(0, 0, 0)),
        make_instance(GameKind.MAXCUT, 4, 2),
    ]
    for inst in pool:
        assert oracle.optimum(inst)[1] == 0
        for eps in (F(1, 10), F(1, 2)):
            for worst in (True, False):
                rows = _assert_same_rows(inst, eps, 2, 1, worst)
                assert {"dyn.reach1", "dyn.persist2"} <= {r.claim_id for r in rows}


def _certifying(lam, mu):
    """A ``certificate_params`` that certifies (lam, mu) for every kind."""

    def certified(kind, n, m, *weights):
        params = make_params(kind, lam, mu)
        return params, cce_bound(kind, params)

    return certified


def test_cost_traces_that_never_get_within_tau(monkeypatch):
    # a certified lambda of 1/2 puts tau = (1/2)(1 + eps) below 1, which no
    # cost ratio meets: each trace's persist ratio is its whole maximum and
    # no trace counts steps.  BwF's bound is its lambda in both versions
    certified = _certifying(F(1, 2), 0)
    monkeypatch.setattr(smoothness, "certificate_params", certified)  # pure_poa_bound's
    monkeypatch.setattr(reference_dynamics, "certificate_params", certified)
    inst = gen_random(5, 3, GameKind.BWF, F(1, 2), seed=1)
    rows = {r.claim_id: r for r in _assert_same_rows(inst, F(1, 10), 3, 1, True)}
    persist = rows["dyn.quality.persist"]
    assert persist.bound == F(11, 20) and persist.measured >= 1 and not persist.passed
    assert rows["dyn.steps"].measured == 0


@pytest.mark.parametrize("kind", [GameKind.SWC, GameKind.SWF, GameKind.MAXCUT],
                         ids=lambda k: k.value)
def test_payoff_traces_that_miss_the_potential_threshold(monkeypatch, kind):
    # a certified rho of 100 puts the threshold 100 (1 - eps) / 2 * OPT past
    # every potential: every trace misses it and no persist row is made
    certified = _certifying(100, 0)
    monkeypatch.setattr(dynamics, "certificate_params", certified)
    monkeypatch.setattr(reference_dynamics, "certificate_params", certified)
    inst = gen_random(5, 2 if kind is GameKind.MAXCUT else 3, kind, F(1, 2), seed=1)
    rows = {r.claim_id: r for r in _assert_same_rows(inst, F(1, 10), 3, 1, True)}
    missed = rows["dyn.potential_threshold"]
    assert missed.measured == 4 and not missed.passed  # three random starts, the worst
    assert "dyn.persist2" not in rows


def _ratios(values, opt):
    """Every value / opt ratio on the trace, and a hair to either side."""
    exact = {v / opt for v in values}
    hair = F(1, 10**30)
    return sorted(exact | {r + hair for r in exact} | {r - hair for r in exact})


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_steps_to_quality_at_every_boundary(kind):
    for seed, inst in enumerate(kind_pool(kind, 8)):
        _, opt = oracle.optimum(inst)
        if opt == 0:
            continue
        rng = random.Random(seed)
        for _ in range(2):
            trace = run_br(inst, random_start(inst, rng))
            for ratio in _ratios(trace.socials(), opt) + [F(0), F(10**9)]:
                got = steps_to_quality(trace, ratio, opt)
                assert got == steps_to_quality_reference(trace, ratio, opt), (inst, ratio)


def test_steps_to_quality_beyond_int64():
    for seed, inst in enumerate(beyond_int64_pool()):
        _, opt = oracle.optimum(inst)
        trace = run_br(inst, random_start(inst, random.Random(seed)))
        for ratio in _ratios(trace.socials(), opt):
            assert steps_to_quality(trace, ratio, opt) == steps_to_quality_reference(
                trace, ratio, opt
            )
