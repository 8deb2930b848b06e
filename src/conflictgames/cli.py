"""Command-line entry point.

Subcommands: gen, eval, enumerate, dynamics, smoothness, cce, reproduce.
gen writes the instance --generator builds; the others but reproduce read
one from --instance or build one (exactly one of the two).  Generators are
called through ``instances.GENERATORS``, each parameter from the flag of the
same name; a parameter flag the generator does not take, or one given with
--instance, is a usage error.  --seed is such a flag, read by the random
generator, save that dynamics also reads it for its random start (no --start
or --worst-start); reproduce takes its own --seed, like its --trials,
--max-n and --max-m read only with --table.
Output goes to --out or stdout and is byte-identical for identical (argv,
instance file, seed).

Exit codes: 0 success, 1 failed verdicts in reproduce mode, 2 usage or
input/cap errors.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from fractions import Fraction
from typing import Optional

from . import dynamics, oracle, report, smoothness, verdicts
from .games import (
    GameKind,
    Instance,
    InvalidInstanceError,
    player_values,
    potential,
    social_value,
)
from .instances import GENERATORS, load_instance, write_instance
from .oracle import OracleLimits, StateSpaceExceeded
from .verdicts import frac_str


# the seed of the random generator and of dynamics's random start when no
# --seed is given
SEED = 0


class UsageError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _add_common(p: argparse.ArgumentParser, formats: bool = True, limits: bool = True) -> None:
    p.add_argument("--out", help="write output to this file instead of stdout")
    if formats:
        p.add_argument("--format", choices=("text", "csv"), default="text")
    if limits:
        p.add_argument("--max-states", type=int, default=None,
                       help="cap on the states, or orbits of states, one pass reads; "
                            "the CCE LP takes the smaller of this and its own "
                            f"{OracleLimits().lp_max_states}-state cap, so it can lower "
                            "that cap, never raise it "
                            "(the cap keeps an LP to seconds: past it, a random "
                            "256-state SwF LP took half a minute)")


def _add_instance_source(p: argparse.ArgumentParser, from_file: bool = True) -> None:
    if from_file:
        p.add_argument("--instance", help="instance document path")
    p.add_argument("--generator", choices=sorted(GENERATORS), help="build instead of reading")
    g = p.add_argument_group(
        "generator parameters", "a generator reads only its own; any other given is an error"
    )
    g.add_argument("--n", type=int)
    g.add_argument("--m", type=int)
    g.add_argument("--kind", choices=[k.value for k in GameKind])
    g.add_argument("--alpha", type=_fraction)
    g.add_argument("--beta", type=_fraction)
    g.add_argument("--gamma", type=_fraction)
    g.add_argument("--eps", type=_fraction)
    g.add_argument("--edge-prob", type=_fraction)
    g.add_argument("--weighted", action="store_true", default=None)
    g.add_argument("--seed", type=int,
                   help=f"seed of random, and of dynamics's random start (default {SEED})")
    p.set_defaults(generator_flags={a.dest: a.option_strings[0] for a in g._group_actions})


def _given_flags(args, reads_seed: bool) -> dict[str, str]:
    """The generator parameter flags given on the command line, by dest,
    but --seed where the subcommand reads it itself (``reads_seed``)."""
    return {
        dest: flag for dest, flag in args.generator_flags.items()
        if getattr(args, dest) is not None and not (reads_seed and dest == "seed")
    }


def _seed(args) -> int:
    return SEED if args.seed is None else args.seed


def _build_generated(args, reads_seed: bool = False) -> Instance:
    name = args.generator
    params = inspect.signature(GENERATORS[name]).parameters
    stray = [flag for dest, flag in _given_flags(args, reads_seed).items() if dest not in params]
    if stray:
        raise UsageError(f"generator {name!r} takes no {', '.join(stray)}")
    given = {dest: getattr(args, dest) for dest in params if getattr(args, dest) is not None}
    if "seed" in params:
        given["seed"] = _seed(args)
    for dest, param in params.items():
        if dest not in given and param.default is param.empty:
            raise UsageError(f"generator {name!r} needs {args.generator_flags[dest]}")
    if "kind" in given:
        given["kind"] = GameKind(given["kind"])
    return GENERATORS[name](**given)


def _resolve_instance(args, reads_seed: bool = False) -> Instance:
    """The instance of --instance or --generator; ``reads_seed`` when the
    subcommand itself reads --seed, so it is no generator flag here."""
    if args.instance and args.generator:
        raise UsageError("give either --instance or --generator, not both")
    if args.instance:
        if given := _given_flags(args, reads_seed):
            raise UsageError(f"--instance takes no {', '.join(given.values())}")
        return load_instance(args.instance)
    if args.generator:
        return _build_generated(args, reads_seed)
    raise UsageError("an instance is required: --instance PATH or --generator NAME")


def _limits(args) -> OracleLimits:
    if args.max_states is None:
        return OracleLimits()
    return OracleLimits(
        max_states=args.max_states,
        lp_max_states=min(args.max_states, OracleLimits().lp_max_states),
    )


def _parse_state(text: str, inst: Instance) -> tuple[int, ...]:
    try:
        state = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"--state must be comma-separated machine ids: {text!r}") from exc
    if len(state) != inst.n:
        raise UsageError(f"--state needs {inst.n} entries, got {len(state)}")
    return state


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args) -> int:
    if args.generator is None:
        raise UsageError("gen needs --generator NAME")
    inst = _build_generated(args)
    _emit(args, write_instance(inst))
    return 0


def _cmd_eval(args) -> int:
    inst = _resolve_instance(args)
    state = _parse_state(args.state, inst)
    values = player_values(inst, state)
    social = social_value(inst, state)
    pot = potential(inst, state)
    if args.format == "csv":
        lines = ["player,value"]
        lines += [f"{i},{frac_str(v)}" for i, v in enumerate(values, start=1)]
        lines.append(f"social,{frac_str(social)}")
        lines.append(f"potential,{frac_str(pot)}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [f"{inst.kind.value} n={inst.n} m={inst.m} state={','.join(map(str, state))}"]
        lines += [f"player {i}: {frac_str(v)}" for i, v in enumerate(values, start=1)]
        lines.append(f"social value: {frac_str(social)}")
        lines.append(f"potential: {frac_str(pot)}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _states_str(state) -> str:
    return "".join(str(k) for k in state) if max(state) <= 9 else ",".join(map(str, state))


def _cmd_enumerate(args) -> int:
    inst = _resolve_instance(args)
    limits = _limits(args)
    do_strong = args.strong or (
        args.strong is None
        and inst.n <= limits.strong_max_players
        and oracle.state_count(inst) <= 4096
    )
    rep = oracle.equilibrium_report(inst, limits, with_strong=bool(do_strong))
    lines = []
    if args.format == "csv":
        lines.append("item,state,value")
        lines.append(f"optimum,{_states_str(rep.optimum[0])},{frac_str(rep.optimum[1])}")
        for s, v in rep.pure_ne:
            lines.append(f"pure_ne,{_states_str(s)},{frac_str(v)}")
        for s, v in rep.strong_ne:
            lines.append(f"strong_ne,{_states_str(s)},{frac_str(v)}")
        lines.append(f"poa,,{frac_str(rep.poa)}")
        lines.append(f"pos,,{frac_str(rep.pos)}")
        lines.append(f"strong_poa,,{frac_str(rep.strong_poa)}")
    else:
        lines.append(f"{inst.kind.value} n={inst.n} m={inst.m}: {oracle.state_count(inst)} states")
        lines.append(
            f"optimum: state {_states_str(rep.optimum[0])} value {frac_str(rep.optimum[1])}"
        )
        lines.append(f"pure Nash equilibria: {len(rep.pure_ne)}")
        for s, v in rep.pure_ne:
            lines.append(f"  {_states_str(s)}  {frac_str(v)}")
        if do_strong:
            lines.append(f"strong Nash equilibria: {len(rep.strong_ne)}")
            for s, v in rep.strong_ne:
                lines.append(f"  {_states_str(s)}  {frac_str(v)}")
        else:
            lines.append("strong Nash equilibria: skipped (size; force with --strong)")
        lines.append(f"price of anarchy: {frac_str(rep.poa)}")
        lines.append(f"price of stability: {frac_str(rep.pos)}")
        lines.append(f"strong price of anarchy: {frac_str(rep.strong_poa)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_dynamics(args) -> int:
    # without --start or --worst-start the start is drawn from --seed
    inst = _resolve_instance(args, reads_seed=not (args.start or args.worst_start))
    limits = _limits(args)
    if args.start:
        start = _parse_state(args.start, inst)
    elif args.worst_start:
        start, _ = oracle.worst_social_state(inst, limits)
    else:
        import random as _random

        start = dynamics.random_start(inst, _random.Random(_seed(args)))
    trace = dynamics.run_br(inst, start, max_steps=args.max_steps)
    csv = dynamics.trace_csv(trace)
    if args.format == "csv":
        _emit(args, csv)
    else:
        summary = (
            f"start {_states_str(trace.start)} -> end {_states_str(trace.end)} "
            f"in {len(trace.steps)} steps"
            f"{' (step budget exhausted)' if trace.exhausted else ''}\n"
        )
        _emit(args, summary + csv)
    return 0


def _cmd_smoothness(args) -> int:
    inst = _resolve_instance(args)
    limits = _limits(args)
    if args.lam is not None or args.mu is not None:
        if args.lam is None or args.mu is None:
            raise UsageError("--lam and --mu go together")
        params = smoothness.make_params(inst.kind, args.lam, args.mu)
        pota = smoothness.cce_bound(inst.kind, params)
    else:
        params, pota = smoothness.certificate_params(
            inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma
        )
    rows = []
    v = smoothness.check_semi_smooth(inst, params, limits=limits)
    label = f"{inst.kind.value}(n={inst.n},m={inst.m})"
    rows.append(verdicts.make_verdict("semi_smooth.slack", label, 0, v.slack, ">="))
    nice = smoothness.check_nice(inst, params, limits=limits)
    rows.append(verdicts.make_verdict("nice.slack", label, 0, nice.slack, ">="))
    lb = smoothness.check_opt_lower_bounds(inst, limits)
    rows.append(verdicts.make_verdict("opt_lower_bounds", label, 1, int(lb.holds), "=="))
    # the CCE bound follows from semi-smoothness, so it is quoted only when
    # that check holds
    bound = (
        f"rho={frac_str(params.rho)} cce_bound={frac_str(pota)}"
        if v.holds
        else "rho and cce_bound not certified: semi-smoothness fails"
    )
    header = f"lambda={frac_str(params.lam)} mu={frac_str(params.mu)} {bound}\n"
    body = verdicts.render_csv(rows) if args.format == "csv" else verdicts.render_text(rows)
    _emit(args, body if args.format == "csv" else header + body)
    return 0


def _cmd_cce(args) -> int:
    inst = _resolve_instance(args)
    limits = _limits(args)
    sol = oracle.worst_cce_value(inst, limits)
    if args.format == "csv":
        lines = ["state,probability"]
        lines += [f"{_states_str(s)},{frac_str(q)}" for s, q in sol.distribution]
        lines.append(f"value,{frac_str(sol.value)}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [f"worst coarse-correlated equilibrium value: {frac_str(sol.value)}"]
        lines += [f"  {_states_str(s)}  {frac_str(q)}" for s, q in sol.distribution]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_reproduce(args) -> int:
    given = {dest: getattr(args, dest) for dest in args.table_flags}
    given = {dest: value for dest, value in given.items() if value is not None}
    if given and not args.table:  # nothing would read them
        flags = ", ".join(args.table_flags[dest] for dest in given)
        raise UsageError(f"reproduce without --table takes no {flags}")
    limits = _limits(args)
    rows = []
    if not args.table or args.named:
        rows += report.reproduce_named_examples(limits)
    if args.table:
        # a flag not given takes the bound table's default, and the seed SEED
        rows += report.reproduce_bound_table(**{"seed": SEED, **given}, limits=limits)
    text = verdicts.render_csv(rows) if args.format == "csv" else verdicts.render_text(rows)
    _emit(args, text)
    return 0 if all(r.passed for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conflictgames",
        description="Assignment games with conflicts/friendships: equilibria, "
        "bound certificates, and best-response dynamics.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="write an instance document")
    _add_instance_source(p, from_file=False)
    _add_common(p, formats=False, limits=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", help="player values, social value, potential of one state")
    _add_instance_source(p)
    p.add_argument("--state", required=True, help="comma-separated machine ids")
    _add_common(p, limits=False)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("enumerate", help="optimum, Nash sets, and quality ratios")
    _add_instance_source(p)
    p.add_argument("--strong", action="store_true", default=None,
                   help="force the coalition scan even on large instances")
    _add_common(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("dynamics", help="run max-gain best-response dynamics")
    _add_instance_source(p)
    p.add_argument("--start", help="comma-separated start state")
    p.add_argument("--worst-start", action="store_true")
    p.add_argument("--max-steps", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser("smoothness", help="certificate and floor checks")
    _add_instance_source(p)
    p.add_argument("--lam", type=_fraction, help="override lambda")
    p.add_argument("--mu", type=_fraction, help="override mu")
    _add_common(p)
    p.set_defaults(func=_cmd_smoothness)

    p = sub.add_parser("cce", help="worst coarse-correlated equilibrium (exact LP)")
    _add_instance_source(p)
    _add_common(p)
    p.set_defaults(func=_cmd_cce)

    p = sub.add_parser("reproduce", help="run the verification batteries")
    p.add_argument("--named", action="store_true", help="named worked examples (default)")
    p.add_argument("--table", action="store_true", help="per-kind bound table")
    g = p.add_argument_group("bound table parameters", "read only with --table")
    g.add_argument("--trials", type=int)
    g.add_argument("--max-n", type=int)
    g.add_argument("--max-m", type=int)
    g.add_argument("--seed", type=int, help="seed of the bound table's trials")
    p.set_defaults(table_flags={a.dest: a.option_strings[0] for a in g._group_actions})
    _add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidInstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 2
    except StateSpaceExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
