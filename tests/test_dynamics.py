"""Best-response traces, quality measurement, sandwich constants, and the
convergence verdicts."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from conflictgames import dynamics, oracle
from conflictgames.dynamics import (
    Trace,
    TraceStep,
    TraceSteps,
    check_convergence_theorems,
    random_start,
    run_br,
    sandwich_constants,
    steps_to_quality,
    trace_csv,
)
from conflictgames.fastpath import max_abs
from conflictgames.games import GameKind, harmonic, make_instance
from conflictgames.instances import (
    gen_bwc_multipartite,
    gen_random,
    gen_swc_pos,
)
from conflictgames.oracle import optimum, pure_nash_set, state_count

from conftest import ALL_KINDS, beyond_int64_pool, small_instance

F = Fraction


class TestRunBr:
    def test_equilibrium_start_makes_no_moves(self):
        inst = gen_swc_pos(3, F(1, 10))
        trace = run_br(inst, (1, 1, 1))
        assert trace.steps == () and trace.end == (1, 1, 1) and not trace.exhausted

    def test_swc_pos_converges_to_the_crowd(self):
        inst = gen_swc_pos(3, F(1, 10))
        trace = run_br(inst, (1, 2, 3))
        assert trace.end == (1, 1, 1)

    def test_terminates_at_pure_ne(self, mixed_pool):
        rng = random.Random(4)
        for inst in mixed_pool:
            if state_count(inst) > 512:
                continue
            ne_states = {s for s, _ in pure_nash_set(inst)}
            trace = run_br(inst, random_start(inst, rng))
            assert trace.end in ne_states

    def test_multipartite_seeded_starts_end_in_the_nash_set(self):
        inst = gen_bwc_multipartite(2)
        ne_states = {s for s, _ in pure_nash_set(inst)}
        rng = random.Random(21)
        for _ in range(10):
            assert run_br(inst, random_start(inst, rng)).end in ne_states

    def test_deterministic(self):
        inst = gen_bwc_multipartite(2)
        a = run_br(inst, (1, 1, 1, 1))
        b = run_br(inst, (1, 1, 1, 1))
        assert a == b

    def test_max_steps_flagged(self):
        inst = gen_bwc_multipartite(2)
        trace = run_br(inst, (1, 1, 1, 1), max_steps=1)
        assert trace.exhausted and len(trace.steps) == 1

    def test_negative_step_budget_rejected(self):
        inst = gen_swc_pos(3, F(1, 10))
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            run_br(inst, (1, 2, 3), max_steps=-1)
        assert run_br(inst, (1, 2, 3), max_steps=0).exhausted

    def test_potential_strictly_monotone_and_no_revisits(self, mixed_pool):
        rng = random.Random(9)
        for inst in mixed_pool:
            if state_count(inst) > 512:
                continue
            trace = run_br(inst, random_start(inst, rng))
            pots = trace.potentials()
            if trace.maximizes:
                assert all(b > a for a, b in zip(pots, pots[1:]))
            else:
                assert all(b < a for a, b in zip(pots, pots[1:]))
            visited = [trace.start]
            state = list(trace.start)
            for step in trace.steps:
                state[step.mover - 1] = step.target
                visited.append(tuple(state))
            assert len(set(visited)) == len(visited)
            assert len(trace.steps) <= state_count(inst)

    def test_gains_positive_and_mover_tiebreak(self):
        inst = gen_bwc_multipartite(2)
        trace = run_br(inst, (1, 1, 1, 1))
        assert all(s.gain > 0 for s in trace.steps)
        assert trace.steps[0].mover == 1  # lowest player index wins the tie


class TestTraceStep:
    def test_fields_in_order(self):
        assert TraceStep._fields == (
            "index", "mover", "source", "target", "gain", "potential", "social"
        )

    def test_keyword_construction(self):
        fields = dict(index=1, mover=2, source=1, target=3, gain=F(1, 2),
                      potential=F(3), social=F(5, 2))
        step = TraceStep(**fields)
        assert step == TraceStep(*fields.values())
        assert step._asdict() == fields
        assert repr(step) == (
            "TraceStep(index=1, mover=2, source=1, target=3, gain=Fraction(1, 2), "
            "potential=Fraction(3, 1), social=Fraction(5, 2))"
        )

    def test_fields_cannot_be_assigned(self):
        step = run_br(gen_bwc_multipartite(2), (1, 1, 1, 1)).steps[0]
        for name in TraceStep._fields:
            with pytest.raises(AttributeError):
                setattr(step, name, 0)


class TestTraceSteps:
    @staticmethod
    def _trace():
        inst = gen_random(30, 4, GameKind.SWF, F(1, 8), seed=3)
        return run_br(inst, random_start(inst, random.Random(3)))

    def test_len_builds_nothing(self, monkeypatch):
        trace = self._trace()
        built = []

        def counted(cls):
            class Counted(cls):
                def __new__(klass, *args, **kwargs):
                    built.append(cls.__name__)
                    return super().__new__(klass, *args, **kwargs)

            return Counted

        monkeypatch.setattr(dynamics, "TraceStep", counted(TraceStep))
        monkeypatch.setattr(dynamics, "Fraction", counted(Fraction))
        assert len(trace.steps) == len(trace.records) > 3
        assert built == []
        # the counting patch sees what a read builds
        trace.steps[0]
        assert sorted(set(built)) == ["Fraction", "TraceStep"]

    def test_indexing_slicing_iteration(self):
        trace = self._trace()
        steps = tuple(trace.steps)
        n = len(steps)
        assert [s.index for s in steps] == list(range(1, n + 1))
        assert list(trace.steps) == list(steps)
        for i in range(-n, n):
            assert trace.steps[i] == steps[i]
        for cut in (slice(None), slice(1, 3), slice(-2, None), slice(None, None, -2),
                    slice(5, 1), slice(-100, 100, 3)):
            got = trace.steps[cut]
            assert type(got) is tuple and got == steps[cut]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                trace.steps[bad]
        with pytest.raises(TypeError):
            trace.steps["1"]
        assert trace.steps[np.int64(1)] == steps[1]
        assert steps[-1] in trace.steps and trace.steps.index(steps[2]) == 2
        assert list(reversed(trace.steps)) == list(steps[::-1])
        assert trace.steps == steps and trace.steps == trace.steps
        assert trace.steps != steps[:-1] and trace.steps != list(steps)
        assert hash(trace.steps) == hash(steps)
        assert isinstance(trace.steps, TraceSteps)
        assert repr(trace.steps) == f"TraceSteps({steps!r})"

    def test_steps_carry_the_scaled_records(self):
        trace = self._trace()
        vs, ps = trace.value_scale, trace.potential_scale
        for step, record in zip(trace.steps, trace.records):
            assert all(type(v) is int for v in record)
            assert (step.mover, step.source, step.target) == record[:3]
            assert (step.gain, step.potential, step.social) == (
                F(record[3], vs), F(record[4], ps), F(record[5], vs)
            )
        assert trace.scaled_socials() == [v * vs for v in trace.socials()]
        assert trace.scaled_potentials() == [p * ps for p in trace.potentials()]

    def test_zero_step_trace(self):
        trace = run_br(gen_swc_pos(3, F(1, 10)), (1, 1, 1))
        assert trace.steps == () and len(trace.steps) == 0 and not trace.steps
        assert list(trace.steps) == [] and trace.steps[:] == ()
        for i in (0, -1):
            with pytest.raises(IndexError):
                trace.steps[i]
        assert trace.socials() == [trace.start_social]
        assert trace.scaled_potentials() == [trace.start_potential * trace.potential_scale]

    def test_trace_frozen_and_hashable(self):
        trace = self._trace()
        assert hash(trace) == hash(self._trace()) and trace == self._trace()
        assert {trace: 1}[self._trace()] == 1
        for name in ("records", "steps", "value_scale", "start_social"):
            with pytest.raises(AttributeError):
                setattr(trace, name, None)
        assert trace != Trace(**{**trace.__dict__, "exhausted": True})


class TestTraceCsv:
    def test_format(self):
        inst = gen_bwc_multipartite(2)
        text = trace_csv(run_br(inst, (1, 1, 1, 1)))
        lines = text.strip().split("\n")
        assert lines[0] == "step,mover,from,to,gain,potential,social"
        assert lines[1] == "1,1,1,2,5/1,7/1,14/1"

    def test_bytes_pinned(self):
        # sha256 over the CSV of one seeded run per kind, n = 40, as the
        # dataclass-recorded traces wrote them
        h = hashlib.sha256()
        steps = 0
        for kind in ALL_KINDS:
            inst = gen_random(40, 2 if kind is GameKind.MAXCUT else 4, kind, F(1, 8), seed=2)
            trace = run_br(inst, random_start(inst, random.Random(2)))
            steps += len(trace.steps)
            h.update(trace_csv(trace).encode())
        assert steps == 96
        assert h.hexdigest() == "87cd0596ec5b5514aeb154fcae09eec5b9bc714ab0f19c0a12bc0397c1a2821b"


class TestStepsToQuality:
    def test_start_at_optimum(self):
        inst = gen_bwc_multipartite(2)
        trace = run_br(inst, (1, 1, 2, 2))
        assert steps_to_quality(trace, F(11, 10), F(8)) == (0, True)

    def test_never_reached_from_bad_equilibrium(self):
        inst = gen_bwc_multipartite(2)
        trace = run_br(inst, (1, 2, 1, 2))  # already a pure NE at value 12
        assert steps_to_quality(trace, F(11, 10), F(8)) == (None, False)

    def test_quality_found_along_the_way(self):
        inst = gen_bwc_multipartite(2)
        trace = run_br(inst, (1, 1, 1, 1))
        tau = (2 - F(2, 4)) * (1 + F(1, 10))
        step, persists = steps_to_quality(trace, tau, F(8))
        assert step is not None and persists


class TestSandwich:
    def test_bwc_is_exactly_half(self):
        result = sandwich_constants(gen_bwc_multipartite(2))
        assert (result.a, result.b) == (2, F(1, 2))
        assert result.skipped == 0

    def test_sharing_bounds(self):
        for seed in range(8):
            inst = gen_random(5, 3, GameKind.SWC, F(1, 2), seed=seed, weighted=seed % 2 == 0)
            r = sandwich_constants(inst)
            assert r.a <= 2 and r.b <= harmonic(inst.n)

    def test_zero_potential_states_skipped(self):
        inst = make_instance(GameKind.SWC, 2, 2, machine_values=[0, 0])
        r = sandwich_constants(inst)
        assert r.a is None and r.skipped == 4

    def test_max_ratio_on_int64_matches_object(self):
        # the ratios sandwich_constants takes, on the kept table of every
        # kind: where the int64 products are provably exact they must give
        # the all-object maximum, and both the maximum over Fractions
        on_int64, widened = set(), 0
        pool = [small_instance(kind, seed) for kind in ALL_KINDS for seed in range(6)]
        # an int64 table whose 38-bit values have 76-bit products
        pool.append(make_instance(
            GameKind.SWF, 4, 3, friendship_edges=[(1, 2), (3, 4), (2, 3)],
            machine_values=(F(7, 2**30 + 3), F(1), F(2, 3)),
        ))
        for inst in pool + beyond_int64_pool():
            _, _, (u, phi) = oracle.state_columns(
                inst, oracle.DEFAULT_LIMITS,
                lambda vals, cur, social, phi: (social, phi),
            )
            live = phi != 0
            pairs = [(u[live], phi[live])]
            live &= u != 0
            pairs.append((phi[live], u[live]))
            for num, den in pairs:
                got = dynamics._max_ratio(num, den)
                wide = dynamics._max_ratio(num.astype(object), den.astype(object))
                if not len(num):
                    assert got is wide is None
                    continue
                assert all(type(v) is int for v in got + wide)
                best = max(F(int(a), int(b)) for a, b in zip(num, den))
                assert F(*got) == F(*wide) == best
                if num.dtype == np.int64 and max_abs(num) * max_abs(den) < 2**63:
                    on_int64.add(inst.kind)
                elif num.dtype == np.int64:
                    widened += 1
        assert on_int64 == set(ALL_KINDS)
        assert widened

    def test_max_ratio_raises_on_an_inexact_comparison(self, monkeypatch):
        # 40-bit entries whose int64 products wrap around: with the bound
        # lifted, the wrapped comparisons send the candidate round a cycle
        num = np.array([163567761245, 1069416690308, 978494491486])
        den = np.array([904209585762, 527752303419, 255496727124])
        best = max(F(int(a), int(b)) for a, b in zip(num, den))
        assert F(*dynamics._max_ratio(num, den)) == best
        monkeypatch.setattr(dynamics, "_INT64_BOUND", 1 << 200)
        with pytest.raises(RuntimeError, match="inexact comparison"):
            dynamics._max_ratio(num, den)


class TestConvergenceVerdicts:
    def test_cost_kind_rows_pass(self):
        inst = gen_bwc_multipartite(2)
        rows = check_convergence_theorems(inst, F(1, 10), trials=4, seed=3)
        assert rows and all(r.passed for r in rows)
        ids = {r.claim_id for r in rows}
        assert {"dyn.terminates", "dyn.quality.reach", "dyn.quality.persist"} <= ids

    def test_payoff_kind_rows_pass(self):
        for kind in (GameKind.SWC, GameKind.SWF, GameKind.MAXCUT):
            for seed in (0, 3):
                inst = small_instance(kind, seed, n_max=5)
                rows = check_convergence_theorems(inst, F(1, 10), trials=3, seed=seed)
                assert all(r.passed for r in rows), (kind, seed, rows)

    def test_soft_rows_flagged(self):
        inst = gen_bwc_multipartite(2)
        rows = check_convergence_theorems(inst, F(1, 10), trials=2, seed=0)
        assert any(r.soft for r in rows)
        assert all(r.claim_id.startswith("dyn.steps") for r in rows if r.soft)

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError):
            check_convergence_theorems(gen_bwc_multipartite(2), F(0), 1, 0)

    def test_no_start_rejected(self):
        # no trace to measure: every theorem row would read 0 or None
        for kind in (GameKind.BWC, GameKind.SWF):
            inst = gen_random(4, 2, kind, F(1, 2), seed=1)
            for trials, worst in ((0, False), (-3, True), (-3, False)):
                with pytest.raises(ValueError, match="need at least one start"):
                    check_convergence_theorems(
                        inst, F(1, 10), trials, 0, include_worst_start=worst
                    )
            # the worst start alone is one trace
            rows = check_convergence_theorems(inst, F(1, 10), 0, 0)
            assert all(r.passed for r in rows)
