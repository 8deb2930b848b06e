"""Max-gain best-response dynamics, one pointwise evaluation per step.

The reference for ``conflictgames.dynamics.run_br``, which keeps the state in
a move table updated per move instead; ``test_br_equivalence`` requires equal
``Trace`` objects.  Every step here re-analyzes the whole state, asks for
every player's value on every machine, and recomputes the social value and
the potential from scratch.
"""

from __future__ import annotations

from typing import Optional

from conflictgames.dynamics import Trace, TraceStep
from conflictgames.fastpath import StateEvaluator, to_internal, to_public
from conflictgames.games import Instance, State, validate_state


def run_br_reference(inst: Instance, start: State, max_steps: Optional[int] = None) -> Trace:
    """Iterate max-gain best responses until no player improves (or the step
    budget runs out, which is flagged, not an error)."""
    validate_state(inst, start)
    ev = StateEvaluator(inst)
    n, m = inst.n, inst.m
    minimizes = ev.minimizes
    cur = list(to_internal(start))
    steps: list[TraceStep] = []
    exhausted = False
    while True:
        aux = ev.analyze(cur)
        best_gain = 0
        best_player = -1
        best_machine = -1
        for i in range(n):
            here = ev.value(aux, i, cur[i])
            for k in range(m):
                if k == cur[i]:
                    continue
                dev = ev.value(aux, i, k)
                gain = here - dev if minimizes else dev - here
                if gain > best_gain:
                    best_gain, best_player, best_machine = gain, i, k
        if best_gain <= 0:
            break
        if max_steps is not None and len(steps) >= max_steps:
            exhausted = True
            break
        source = cur[best_player]
        cur[best_player] = best_machine
        steps.append(
            TraceStep(
                index=len(steps) + 1,
                mover=best_player + 1,
                source=source + 1,
                target=best_machine + 1,
                gain=ev.as_value(best_gain),
                potential=ev.as_potential(ev.potential(cur)),
                social=ev.as_value(ev.social(cur)),
            )
        )
    start0 = to_internal(start)
    return Trace(
        start=tuple(start),
        end=to_public(cur),
        steps=tuple(steps),
        start_social=ev.as_value(ev.social(start0)),
        start_potential=ev.as_potential(ev.potential(start0)),
        maximizes=not minimizes,
        exhausted=exhausted,
    )
