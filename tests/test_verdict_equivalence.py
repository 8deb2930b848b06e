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

from conflictgames import oracle
from conflictgames.dynamics import (
    check_convergence_theorems,
    random_start,
    run_br,
    steps_to_quality,
)
from conflictgames.games import GameKind, make_instance

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
