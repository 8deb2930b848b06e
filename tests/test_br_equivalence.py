"""``dynamics.run_br`` against the pointwise reference loop.

``run_br`` keeps the state in a move table updated move by move and picks the
max-gain move with one argmax; ``reference_dynamics.run_br_reference`` is the
loop it replaced, which re-evaluates the whole state every step.  The two must
return equal ``Trace`` objects, down to the types of their fields, on every
kind, on both dtypes, and under every step budget.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from conflictgames.dynamics import random_start, run_br
from conflictgames.fastpath import StateEvaluator
from conflictgames.games import GameKind, make_instance
from conflictgames.instances import gen_random
from conflictgames.oracle import pure_nash_set

from conftest import ALL_KINDS, BWCF_PRESETS, beyond_int64_pool, kind_pool
from reference_dynamics import run_br_reference

F = Fraction


def _assert_same_traces(inst, starts, max_steps=None):
    for start in starts:
        got = run_br(inst, start, max_steps)
        want = run_br_reference(inst, start, max_steps)
        assert got == want, (inst, start, max_steps)
        assert repr(got) == repr(want)  # same field types, not only equal values


def _starts(inst, count, seed):
    rng = random.Random(seed)
    return [random_start(inst, rng) for _ in range(count)]


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_kind_pools(kind):
    for seed, inst in enumerate(kind_pool(kind, 12)):
        _assert_same_traces(inst, _starts(inst, 3, seed))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_large_instances_on_both_dtypes(kind):
    for n, m, prob in ((40, 3, F(1, 2)), (60, 5, F(1, 8))):
        m = 2 if kind is GameKind.MAXCUT else m
        inst = gen_random(n, m, kind, prob, seed=n + m, weighted=kind.sharing and n == 60)
        expected = object if kind.sharing else np.int64
        assert StateEvaluator(inst).dtype() is expected
        _assert_same_traces(inst, _starts(inst, 2, n))


def test_beyond_int64_pool():
    for seed, inst in enumerate(beyond_int64_pool()):
        assert StateEvaluator(inst).dtype() is object
        _assert_same_traces(inst, _starts(inst, 6, seed))


def test_weighted_sharing():
    for kind in (GameKind.SWC, GameKind.SWF):
        for seed in range(4):
            inst = gen_random(9, 3, kind, F(1, 2), seed=seed, weighted=True)
            assert inst.edge_weights
            _assert_same_traces(inst, _starts(inst, 3, seed))


def test_bwcf_on_both_sides_of_alpha_vs_gamma():
    for alpha, beta, gamma in BWCF_PRESETS:
        inst = gen_random(12, 3, GameKind.BWCF, F(1, 2), seed=5,
                          alpha=alpha, beta=beta, gamma=gamma)
        _assert_same_traces(inst, _starts(inst, 3, 5))


def test_edgeless_bwc_ties_go_to_the_first_maximum():
    inst = make_instance(GameKind.BWC, 10, 4)
    crowd = (1,) * 10
    trace = run_br(inst, crowd)
    # every player gains the same on every empty machine: player 1, machine 2
    first = trace.steps[0]
    assert (first.mover, first.source, first.target) == (1, 1, 2)
    _assert_same_traces(inst, [crowd, (4,) * 10] + _starts(inst, 4, 1))


def test_equilibrium_start():
    for kind in ALL_KINDS:
        inst = kind_pool(kind, 1, n_max=4)[0]
        start = pure_nash_set(inst)[0][0]
        trace = run_br(inst, start)
        assert trace.steps == () and trace.end == start and not trace.exhausted
        _assert_same_traces(inst, [start])


@pytest.mark.parametrize("max_steps", [0, 1, 3])
def test_step_budgets(max_steps):
    pool = [gen_random(30, 3, kind, F(1, 4), seed=7) for kind in ALL_KINDS if kind.minimizes]
    pool += [gen_random(30, 2, kind, F(1, 4), seed=7) for kind in ALL_KINDS if not kind.minimizes]
    for inst in pool + beyond_int64_pool():
        _assert_same_traces(inst, _starts(inst, 2, max_steps), max_steps)


def test_run_br_evaluates_no_state_pointwise(monkeypatch):
    calls = {"social": 0, "potential": 0}

    def _raise(*args, **kwargs):
        raise AssertionError("pointwise evaluation inside run_br")

    def _counted(name):
        original = getattr(StateEvaluator, name)

        def wrapper(self, state):
            calls[name] += 1
            return original(self, state)

        return wrapper

    monkeypatch.setattr(StateEvaluator, "analyze", _raise)
    monkeypatch.setattr(StateEvaluator, "value", _raise)
    for name in calls:
        monkeypatch.setattr(StateEvaluator, name, _counted(name))
    for kind in ALL_KINDS:
        inst = gen_random(20, 2 if kind is GameKind.MAXCUT else 3, kind, F(1, 4), seed=3)
        calls.update(social=0, potential=0)
        trace = run_br(inst, (1,) * inst.n)
        assert trace.steps
        assert calls == {"social": 1, "potential": 1}
