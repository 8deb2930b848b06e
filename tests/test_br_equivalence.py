"""``dynamics.run_br`` against the pointwise reference loop.

``run_br`` keeps the state in a move table updated move by move and picks the
max-gain move with one argmax, or, where exact gains would not fit int64, lets
float gains propose and exact ints decide; ``reference_dynamics.run_br_reference``
is the loop it replaced, which re-evaluates the whole state every step.  The
two must return equal ``Trace`` objects, down to the types of their fields, on
every kind, in every mode of the move table, and under every step budget, and
their steps must read as equal ``TraceStep``s and ``Fraction``s.
"""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from conflictgames.dynamics import Trace, random_start, run_br
from conflictgames.fastpath import StateEvaluator, Walk, to_internal
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
        got_steps, want_steps = tuple(got.steps), tuple(want.steps)
        assert got_steps == want_steps and repr(got_steps) == repr(want_steps)
        for read in (Trace.socials, Trace.potentials):
            values = read(got)
            assert values == read(want) and all(type(v) is Fraction for v in values)


def _starts(inst, count, seed):
    rng = random.Random(seed)
    return [random_start(inst, rng) for _ in range(count)]


def _move_table(inst, start):
    """(whether floats propose, dtype of ``bt``) of the walk from ``start``."""
    walk = StateEvaluator(inst).walk(to_internal(start))
    return walk.tol is not None, walk.bt.dtype


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
        starts = _starts(inst, 2, n)
        # the sharing kinds' gains pass int64, but their edge terms do not
        assert _move_table(inst, starts[0]) == (kind.sharing, np.int64)
        _assert_same_traces(inst, starts)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
def test_runs_on_one_instance_equal_runs_on_fresh_ones(kind):
    # every run from one instance reads the evaluator kept on it: four starts
    # there trace as on a fresh equal instance each, also where floats propose
    # (the sharing kinds at n = 40)
    m = 2 if kind is GameKind.MAXCUT else 3

    def build():
        return gen_random(40, m, kind, F(1, 4), seed=40)

    inst = build()
    starts = _starts(inst, 4, 40)
    kept = [run_br(inst, start) for start in starts]
    fresh = [run_br(build(), start) for start in starts]
    assert kept == fresh and repr(kept) == repr(fresh)
    assert StateEvaluator.of(inst) is StateEvaluator.of(inst)
    assert _move_table(inst, starts[0])[0] is kind.sharing


def test_beyond_int64_pool():
    for seed, inst in enumerate(beyond_int64_pool()):
        assert StateEvaluator(inst).dtype() is object
        starts = _starts(inst, 6, seed)
        assert _move_table(inst, starts[0])[0]
        _assert_same_traces(inst, starts)


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


def _near_tie_instance(kind, seed, n=40):
    """Four machines whose shares nearly tie at the start: a player joining
    machine 2 gets exactly 1/lcm(1..n) more than one on machine 1 has, and
    one joining machine 4 exactly that much less than one on machine 3 has.
    The graph is a sparse random one, so edge terms mix into every gain."""
    rng = random.Random(seed)
    ell = lcm(*range(1, n + 1))
    cuts = sorted(rng.sample(range(1, n), 3))
    x = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    h1, h3 = F(rng.randrange(1, 400), 100), F(rng.randrange(1, 400), 100)
    values = (h1 * x[0], (x[1] + 1) * (h1 + F(1, ell)),
              h3 * x[2], (x[3] + 1) * (h3 - F(1, ell)))
    graph = gen_random(n, 4, kind, F(1, 20), seed=seed)
    inst = make_instance(kind, n, 4, graph.conflict_edges, graph.friendship_edges,
                         machine_values=values)
    start = [k + 1 for k in range(4) for _ in range(x[k])]
    rng.shuffle(start)
    return inst, tuple(start)


@pytest.mark.parametrize("kind", (GameKind.SWC, GameKind.SWF), ids=lambda k: k.value)
def test_near_ties_between_shares(kind):
    for seed in range(20):
        inst, start = _near_tie_instance(kind, seed)
        assert _move_table(inst, start) == (True, np.int64)
        _assert_same_traces(inst, [start] + _starts(inst, 1, seed))


def test_equal_gains_on_different_machines():
    # player 1, alone on machine 1 with its only friend on machine 3, gains
    # p_2/21 - p_1 on machine 2 and 1 + p_3/20 - p_1 on machine 3: equal,
    # the largest of all, but formed from different float terms
    n = 40
    start = (1, 3) + (2,) * 20 + (3,) * 18
    inst = make_instance(GameKind.SWF, n, 3, friendship_edges=[(1, 2)],
                         machine_values=(F(1, 100), F(70), F(140, 3)))
    assert _move_table(inst, start) == (True, np.int64)
    walk = StateEvaluator(inst).walk(to_internal(start))
    assert walk.gain(0, 1) == walk.gain(0, 2)
    first = run_br(inst, start).steps[0]
    assert (first.mover, first.source, first.target) == (1, 1, 2)
    _assert_same_traces(inst, [start, (1,) * n] + _starts(inst, 2, 3))


@pytest.mark.parametrize("kind", (GameKind.SWC, GameKind.SWF), ids=lambda k: k.value)
def test_many_way_ties(kind):
    n, m = 40, 8
    inst = make_instance(kind, n, m, machine_values=(F(7, 3),) * m)
    crowd = (1,) * n
    assert _move_table(inst, crowd) == (True, np.int64)
    # every player gains the same on every other machine: player 1, machine 2
    first = run_br(inst, crowd).steps[0]
    assert (first.mover, first.source, first.target) == (1, 1, 2)
    _assert_same_traces(inst, [crowd, (m,) * n] + _starts(inst, 2, 5))
    # one machine: every gain is a masked diagonal entry, nobody moves
    single = make_instance(kind, n, 1, machine_values=(F(7, 3),))
    assert _move_table(single, crowd) == (True, np.int64)
    assert run_br(single, crowd).steps == ()
    _assert_same_traces(single, [crowd])


def test_edge_terms_beyond_int64():
    huge = (F(1, 2**61 - 1), F(1, 2**62 + 3))
    for kind in (GameKind.SWC, GameKind.SWF):
        graph = gen_random(40, 3, kind, F(1, 8), seed=11)
        edges = sorted(graph.conflict_edges | graph.friendship_edges)
        inst = make_instance(kind, 40, 3, graph.conflict_edges, graph.friendship_edges,
                             machine_values=graph.machine_values,
                             edge_weights={edges[0]: huge[0], edges[-1]: huge[1]})
        starts = _starts(inst, 3, 11)
        assert _move_table(inst, starts[0]) == (True, object)
        _assert_same_traces(inst, starts)


def test_gains_past_any_float_stay_exact():
    inst = make_instance(GameKind.SWC, 6, 3, conflict_edges=[(1, 2), (2, 3), (4, 6)],
                         machine_values=(F(2**1100), F(3, 7), F(2**1100 + 1)))
    starts = [(1,) * 6] + _starts(inst, 3, 2)
    assert _move_table(inst, starts[0]) == (False, object)
    _assert_same_traces(inst, starts)


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
    for name in calls:
        monkeypatch.setattr(StateEvaluator, name, _counted(name))
    for kind in ALL_KINDS:
        inst = gen_random(20, 2 if kind is GameKind.MAXCUT else 3, kind, F(1, 4), seed=3)
        calls.update(social=0, potential=0)
        trace = run_br(inst, (1,) * inst.n)
        assert trace.steps
        # the start's aggregates come from the move table too
        assert calls == {"social": 0, "potential": 0}


def test_own_cell_index_follows_every_move():
    # seeded runs on all six kinds at n = 40 (int64 tables, floats proposing
    # on the sharing kinds), the beyond-int64 pool (object tables, floats
    # proposing) and gains past any float (object tables, exact argmax)
    pool = [gen_random(40, 2 if kind is GameKind.MAXCUT else 4, kind, F(1, 8), seed=4)
            for kind in ALL_KINDS]
    pool += beyond_int64_pool()
    pool.append(make_instance(GameKind.SWC, 6, 3, conflict_edges=[(1, 2), (2, 3), (4, 6)],
                              machine_values=(F(2**1100), F(3, 7), F(2**1100 + 1))))
    modes = set()
    for seed, inst in enumerate(pool):
        for start in _starts(inst, 2, seed):
            want = tuple(run_br_reference(inst, start).steps)
            walk = StateEvaluator(inst).walk(to_internal(start))
            modes.add((walk.tol is not None, walk.bt.dtype.name))
            players = np.arange(inst.n)
            assert np.array_equal(walk._own, players * inst.m + walk.cur)
            # one move past the reference's, so a wrong index ends the loop
            for step in want + (None,):
                best = walk.best()
                assert (best is None) == (step is None)
                if best is None:
                    break
                _, player, target = best
                assert (player + 1, target + 1) == (step.mover, step.target)
                assert walk.move(player, target) + 1 == step.source
                assert walk._own.dtype == np.int64
                assert np.array_equal(walk._own, players * inst.m + walk.cur)
    assert modes == {(False, "int64"), (True, "int64"), (True, "object"), (False, "object")}


def test_a_stale_own_cell_index_raises_within_a_few_steps(monkeypatch):
    # a move table that goes wrong without raising: ``move`` leaves the
    # mover's own-cell index where it was, so later gains are misread;
    # run_br must notice the potential not moving by the recorded gain
    move = Walk.move

    def stale_move(self, p, t):
        own = self._own.item(p)
        source = move(self, p, t)
        self._own[p] = own
        return source

    monkeypatch.setattr(Walk, "move", stale_move)
    for kind in ALL_KINDS:
        inst = gen_random(30, 2 if kind is GameKind.MAXCUT else 4, kind, F(1, 8), seed=1)
        start = random_start(inst, random.Random(1))
        # the cap only keeps a missed check from hanging the test
        with pytest.raises(RuntimeError, match=r"^step ([2-9]|10):") as err:
            run_br(inst, start, max_steps=10_000)
        assert "the potential moved by" in str(err.value)


def test_a_non_improving_move_raises(monkeypatch):
    # past the pure NE the table offers player 1's exact gain on another
    # machine, which is <= 0: the potential moves by exactly that gain, but
    # not in the improving direction
    best = Walk.best

    def never_done(self):
        found = best(self)
        if found is not None:
            return found
        target = (self.cur.item(0) + 1) % self._m
        return self.gain(0, target), 0, target

    monkeypatch.setattr(Walk, "best", never_done)
    for kind in ALL_KINDS:
        inst = gen_random(12, 2 if kind is GameKind.MAXCUT else 3, kind, F(1, 4), seed=2)
        start = random_start(inst, random.Random(2))
        steps = len(run_br_reference(inst, start).steps)
        with pytest.raises(RuntimeError, match=rf"^step {steps + 1}:"):
            run_br(inst, start, max_steps=steps + 5)
