"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public module functions (and the evaluator's
methods) with wrappers.  Spanned calls record (name, start, end, parent, job);
count-only wrappers on the per-state evaluator methods and the simplex pivot
only bump a counter, because a span per state would cost more than the work.
Spans stay in memory until ``write_spans``; self time is a span's duration
minus the durations of its direct children.  ``uninstall`` restores every
original, so the timed, untraced runs execute the package untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter

from conflictgames import dynamics, fastpath, instances, oracle, simplex, smoothness

LAYERS = ("instances", "fastpath", "oracle", "simplex", "smoothness", "dynamics")

# (owner, attribute, span name)
SPANNED = (
    (instances, "gen_random", "instances.gen"),
    (instances, "gen_bwc_multipartite", "instances.gen"),
    (fastpath.StateEvaluator, "__init__", "fastpath.init"),
    (oracle, "optimum", "oracle.optimum"),
    (oracle, "pure_nash_set", "oracle.pure_nash"),
    (oracle, "strong_nash_set", "oracle.strong_nash"),
    (oracle, "worst_cce_value", "oracle.worst_cce"),
    (simplex, "solve", "simplex.solve"),
    (smoothness, "check_semi_smooth", "smoothness.semi_smooth"),
    (smoothness, "check_nice", "smoothness.nice"),
    (smoothness, "check_opt_lower_bounds", "smoothness.floors"),
    (dynamics, "sandwich_constants", "dynamics.sandwich"),
    (dynamics, "run_br", "dynamics.run_br"),
)

# (owner, attribute, counter name)
COUNTED = (
    (fastpath.StateEvaluator, "analyze", "fastpath.analyze_calls"),
    (fastpath.StateEvaluator, "social", "fastpath.social_calls"),
    (fastpath.StateEvaluator, "potential", "fastpath.potential_calls"),
    (simplex, "_pivot", "simplex.pivots"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._last_pure: dict[int, int] = {}

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        hooks = self._hooks()
        for owner, attr, name in SPANNED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._spanned(name, fn, hooks.get(name)))
        for owner, attr, name in COUNTED:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counted(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _spanned(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        failed = name.split(".")[0] + ".failed"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[failed] += 1
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks: work counts read off the returned values ---------------

    def _hooks(self) -> dict:
        counts = self.counts
        solve_sig = inspect.signature(simplex.solve)

        def solve(args, kwargs, sol):
            bound = solve_sig.bind(*args, **kwargs).arguments
            counts["simplex.rows"] += len(bound.get("a_eq", ())) + len(bound.get("a_ge", ()))
            counts["simplex.cols"] += len(bound["objective"])
            counts["simplex.support"] += sum(1 for q in sol.x if q != 0)

        def pure(args, kwargs, result):
            inst = args[0]
            counts["oracle.pure_ne"] += len(result)
            counts["oracle.pure_states"] += inst.m ** inst.n
            self._last_pure[id(inst)] = len(result)

        def strong(args, kwargs, result):
            counts["oracle.strong_ne"] += len(result)
            counts["oracle.strong_of_pure"] += self._last_pure.get(id(args[0]), 0)

        def run_br(args, kwargs, trace):
            counts["dynamics.br_steps"] += len(trace.steps)

        return {
            "simplex.solve": solve,
            "oracle.pure_nash": pure,
            "oracle.strong_nash": strong,
            "dynamics.run_br": run_br,
        }

    # -- reduction ------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """(calls, inclusive seconds, self seconds) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[idx]
        return calls, incl, self_s

    def layer_metrics(self, work_states: int) -> dict[str, float]:
        """Every per-layer metric.  ``work_states`` is the denominator of
        ``fastpath.evals_per_state``: the instance states of the scan and lp
        jobs, the states a br trace visits (steps plus start) on br."""
        calls, incl, self_s = self.totals()
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        evals = c["fastpath.analyze_calls"] + c["fastpath.social_calls"] + c[
            "fastpath.potential_calls"]
        out = {
            "instances.gen_s": incl["instances.gen"],
            "fastpath.init_calls": calls["fastpath.init"],
            "fastpath.init_s": incl["fastpath.init"],
            "fastpath.analyze_calls": c["fastpath.analyze_calls"],
            "fastpath.social_calls": c["fastpath.social_calls"],
            "fastpath.potential_calls": c["fastpath.potential_calls"],
            "fastpath.evals_per_state": ratio(evals, work_states),
            "oracle.optimum_calls": calls["oracle.optimum"],
            "oracle.optimum_s": incl["oracle.optimum"],
            "oracle.pure_nash_s": incl["oracle.pure_nash"],
            "oracle.pure_ne_yield": ratio(c["oracle.pure_ne"], c["oracle.pure_states"]),
            "oracle.strong_nash_s": incl["oracle.strong_nash"],
            "oracle.strong_yield": ratio(c["oracle.strong_ne"], c["oracle.strong_of_pure"]),
            "smoothness.semi_smooth_self_s": self_s["smoothness.semi_smooth"],
            "smoothness.nice_self_s": self_s["smoothness.nice"],
            "smoothness.floors_s": incl["smoothness.floors"],
            "dynamics.sandwich_s": incl["dynamics.sandwich"],
            "oracle.worst_cce_self_s": self_s["oracle.worst_cce"],
            "simplex.solve_s": incl["simplex.solve"],
            "simplex.pivots": c["simplex.pivots"],
            "simplex.rows": c["simplex.rows"],
            "simplex.cols": c["simplex.cols"],
            "simplex.support": c["simplex.support"],
            "dynamics.run_br_s": incl["dynamics.run_br"],
            "dynamics.br_steps": c["dynamics.br_steps"],
            "dynamics.us_per_step": 1e6 * ratio(incl["dynamics.run_br"], c["dynamics.br_steps"]),
        }
        for layer in LAYERS:
            out[f"{layer}.failed"] = c[f"{layer}.failed"]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "job": job}
                ) + "\n")
