"""End-to-end CLI behaviour: exit codes, formats, and determinism."""

import inspect
import io
import pathlib
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from conflictgames.cli import build_parser, main
from conflictgames.dynamics import run_br, trace_csv
from conflictgames.games import GameKind, player_values, potential, social_value
from conflictgames.instances import GENERATORS, write_instance
from conflictgames.oracle import worst_cce_value, worst_social_state


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        code, out, err = run_cli()
        assert code == 2
        assert "usage" in err.lower()

    def test_unknown_flag_exits_two(self):
        for argv in (
            ("enumerate", "--bogus"),
            # gen builds an instance and writes it: it reads no file, no
            # format and no cap; eval reads no cap
            ("gen", "--instance", "x.game", "--generator", "path4"),
            ("gen", "--generator", "path4", "--format", "csv"),
            ("gen", "--generator", "path4", "--max-states", "9"),
            ("eval", "--generator", "path4", "--state", "1,2,1,2", "--max-states", "9"),
        ):
            with pytest.raises(SystemExit) as err:
                run_cli(*argv)
            assert err.value.code == 2

    def test_instance_and_generator_conflict(self):
        code, _, err = run_cli(
            "enumerate", "--instance", "x.game", "--generator", "path4"
        )
        assert code == 2 and "either" in err
        # a generator parameter given with --instance would be read by nothing
        for argv, flags in (
            (("enumerate", "--m", "3"), "--m"),
            (("eval", "--state", "1,2,1,2", "--weighted", "--eps", "1"), "--eps, --weighted"),
        ):
            code, out, err = run_cli(argv[0], "--instance", "x.game", *argv[1:])
            assert (code, out, err) == (2, "", f"error: --instance takes no {flags}\n")

    def test_missing_instance(self):
        code, _, err = run_cli("enumerate")
        assert code == 2

    def test_unreadable_file(self):
        code, _, err = run_cli("enumerate", "--instance", "/nonexistent/x.game")
        assert code == 2


# a value for every generator parameter: the flag's text (None for a switch)
# and what the generator function gets
PARAM_VALUES = {
    "n": ("5", 5),
    "m": ("2", 2),
    "kind": ("BwCF", GameKind.BWCF),
    "alpha": ("3/2", Fraction(3, 2)),
    "beta": ("2", Fraction(2)),
    "gamma": ("1/2", Fraction(1, 2)),
    "eps": ("1/10", Fraction(1, 10)),
    "edge_prob": ("1/2", Fraction(1, 2)),
    "seed": ("3", 3),
    "weighted": (None, True),
}
GENERATOR_FLAGS = build_parser().parse_args(["gen"]).generator_flags


def _params(name):
    return inspect.signature(GENERATORS[name]).parameters


# every generator with all of its parameters, save that random takes alpha,
# beta and gamma only on BwCF and the weights only on the sharing kinds
FULL = {name: {p: PARAM_VALUES[p] for p in _params(name)} for name in sorted(GENERATORS)}
del FULL["random"]["weighted"]
RANDOM_WEIGHTED = {
    p: PARAM_VALUES[p] for p in _params("random") if p not in ("alpha", "beta", "gamma")
}
RANDOM_WEIGHTED["kind"] = ("SwC", GameKind.SWC)


def _flag(name):
    return "--" + name.replace("_", "-")


def _argv(values):
    argv = []
    for name, (text, _) in values.items():
        argv += [_flag(name)] if text is None else [_flag(name), text]
    return argv


class TestRegistryBuilder:
    def test_flags_are_the_generator_parameters(self):
        params = {p for name in GENERATORS for p in _params(name)}
        assert set(GENERATOR_FLAGS) == params
        assert set(PARAM_VALUES) == params
        assert all(flag == _flag(dest) for dest, flag in GENERATOR_FLAGS.items())

    @pytest.mark.parametrize(
        "name,values", [*FULL.items(), ("random", RANDOM_WEIGHTED)], ids=[*FULL, "random-SwC"]
    )
    def test_gen_writes_the_generator_document(self, name, values):
        code, out, err = run_cli("gen", "--generator", name, *_argv(values))
        direct = GENERATORS[name](**{p: value for p, (_, value) in values.items()})
        assert (code, out, err) == (0, write_instance(direct), "")

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_flags_the_generator_does_not_take_exit_two(self, name):
        stray = [dest for dest in GENERATOR_FLAGS if dest not in _params(name)]
        assert stray or name == "random"
        for dest in stray:
            values = {**FULL[name], dest: PARAM_VALUES[dest]}
            code, out, err = run_cli("gen", "--generator", name, *_argv(values))
            assert (code, out) == (2, "")
            assert err == f"error: generator {name!r} takes no {_flag(dest)}\n"

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_missing_parameter_exits_two(self, name):
        for dest, param in _params(name).items():
            if dest == "seed" or param.default is not param.empty:
                continue
            values = {p: v for p, v in FULL[name].items() if p != dest}
            code, out, err = run_cli("gen", "--generator", name, *_argv(values))
            assert (code, out) == (2, "")
            assert err == f"error: generator {name!r} needs {_flag(dest)}\n"

    def test_every_stray_flag_is_named(self):
        code, out, err = run_cli(
            "enumerate", "--generator", "path4", "--m", "7", "--kind", "SwC", "--weighted"
        )
        assert (code, out) == (2, "")
        assert err == "error: generator 'path4' takes no --m, --kind, --weighted\n"


class TestSeed:
    """--seed is a generator flag: read by random alone, and by dynamics's
    random start; given where nothing reads it, it exits 2 naming it."""

    @pytest.mark.parametrize("command", ["gen", "eval", "enumerate", "smoothness", "cce"])
    def test_unread_seed_exits_two(self, tmp_path, command):
        state = ("--state", "1,2,1,2") if command == "eval" else ()
        code, out, err = run_cli(command, "--generator", "path4", "--seed", "5", *state)
        assert (code, out, err) == (2, "", "error: generator 'path4' takes no --seed\n")
        if command == "gen":
            return
        path = tmp_path / "path4.game"
        path.write_text(write_instance(GENERATORS["path4"]()))
        code, out, err = run_cli(command, "--instance", str(path), "--seed", "5", *state)
        assert (code, out, err) == (2, "", "error: --instance takes no --seed\n")

    def test_random_reads_seed_zero_by_default(self):
        args = ("gen", "--generator", "random", "--n", "5", "--m", "2", "--kind", "BwC",
                "--edge-prob", "1/2")
        assert run_cli(*args) == run_cli(*args, "--seed", "0") != run_cli(*args, "--seed", "1")

    def test_dynamics_reads_seed_for_its_random_start(self, tmp_path):
        path = tmp_path / "path4.game"
        path.write_text(write_instance(GENERATORS["path4"]()))
        for source in (("--generator", "path4"), ("--instance", str(path))):
            code, out, err = run_cli("dynamics", *source, "--seed", "5")
            assert code == 0 and err == ""
            assert (code, out, err) == run_cli("dynamics", *source, "--seed", "5")
        # a given start reads no seed
        for start in (("--start", "1,1,1,1"), ("--worst-start",)):
            code, out, err = run_cli("dynamics", "--generator", "path4", *start, "--seed", "5")
            assert (code, out, err) == (2, "", "error: generator 'path4' takes no --seed\n")
            code, out, err = run_cli("dynamics", "--instance", str(path), *start, "--seed", "5")
            assert (code, out, err) == (2, "", "error: --instance takes no --seed\n")


class TestGenAndEnumerate:
    def test_gen_without_generator_exits_two(self):
        code, out, err = run_cli("gen")
        assert (code, out, err) == (2, "", "error: gen needs --generator NAME\n")

    def test_path4_round_trip(self, tmp_path):
        path = tmp_path / "path4.game"
        code, _, _ = run_cli("gen", "--generator", "path4", "--out", str(path))
        assert code == 0
        code, out, _ = run_cli("enumerate", "--instance", str(path))
        assert code == 0
        assert "value 8/1" in out          # the optimum
        assert "1221  10/1" in out         # the worst strong equilibrium
        assert "strong price of anarchy: 5/4" in out

    def test_csv_format(self):
        code, out, _ = run_cli(
            "enumerate", "--generator", "bwc-multipartite", "--m", "2", "--format", "csv"
        )
        assert code == 0
        assert out.startswith("item,state,value")
        assert "poa,,3/2" in out

    def test_strong_set_by_default_up_to_the_player_cap(self):
        # at most 4096 states: strong set listed for n <= strong_max_players
        # (10), skipped past it
        for n, listed in (("10", True), ("11", False)):
            code, out, _ = run_cli(
                "enumerate", "--generator", "random", "--kind", "BwC", "--n", n,
                "--m", "2", "--edge-prob", "1/2",
            )
            assert code == 0
            assert ("strong Nash equilibria: skipped" not in out) == listed
            assert ("strong price of anarchy: undefined" not in out) == listed

    def test_cap_violation_names_limit(self):
        code, _, err = run_cli(
            "enumerate", "--generator", "bwc-multipartite", "--m", "3",
            "--max-states", "100",
        )
        assert code == 2 and "max_states" in err

    def test_byte_identical_reruns(self):
        args = ("enumerate", "--generator", "bwcf-lower", "--m", "2",
                "--alpha", "1", "--beta", "1", "--gamma", "2")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first == second


class TestEval:
    def test_values(self):
        code, out, _ = run_cli(
            "eval", "--generator", "path4", "--state", "1,2,1,2"
        )
        assert code == 0
        assert "social value: 8/1" in out

    def test_bad_state_length(self):
        code, _, err = run_cli("eval", "--generator", "path4", "--state", "1,2")
        assert code == 2

    def test_csv_format(self):
        code, out, err = run_cli(
            "eval", "--generator", "path4", "--state", "1,2,2,1", "--format", "csv"
        )
        inst, state = GENERATORS["path4"](), (1, 2, 2, 1)
        lines = ["player,value"]
        lines += [f"{i},{v.numerator}/{v.denominator}"
                  for i, v in enumerate(player_values(inst, state), start=1)]
        for name, v in (("social", social_value(inst, state)),
                        ("potential", potential(inst, state))):
            lines.append(f"{name},{v.numerator}/{v.denominator}")
        assert (code, out, err) == (0, "\n".join(lines) + "\n", "")

    def test_malformed_state_exits_two(self):
        code, out, err = run_cli("eval", "--generator", "path4", "--state", "1,x,1,2")
        assert (code, out) == (2, "")
        assert err == "error: --state must be comma-separated machine ids: '1,x,1,2'\n"


class TestDynamics:
    def test_trace_csv(self):
        code, out, _ = run_cli(
            "dynamics", "--generator", "bwc-multipartite", "--m", "2",
            "--start", "1,1,1,1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "step,mover,from,to,gain,potential,social"
        assert out.splitlines()[1] == "1,1,1,2,5/1,7/1,14/1"

    def test_worst_start(self):
        # the summary line, then the trace of the run from the worst state
        code, out, err = run_cli(
            "dynamics", "--generator", "bwc-multipartite", "--m", "2", "--worst-start"
        )
        inst = GENERATORS["bwc-multipartite"](m=2)
        trace = run_br(inst, worst_social_state(inst)[0])
        assert trace.steps
        summary = (
            f"start {''.join(map(str, trace.start))} -> end {''.join(map(str, trace.end))} "
            f"in {len(trace.steps)} steps\n"
        )
        assert (code, out, err) == (0, summary + trace_csv(trace), "")

    def test_seeded_start_deterministic(self):
        args = ("dynamics", "--generator", "bwc-multipartite", "--m", "2",
                "--seed", "5", "--format", "csv")
        assert run_cli(*args) == run_cli(*args)

    def test_negative_step_budget_exits_two(self):
        code, out, err = run_cli(
            "dynamics", "--generator", "swc-pos", "--m", "3", "--eps", "1/10",
            "--start", "1,2,3", "--max-steps", "-1",
        )
        assert code == 2 and out == ""
        assert "max_steps must be >= 0, got -1" in err


class TestSmoothnessAndCce:
    def test_smoothness_defaults_pass(self):
        code, out, _ = run_cli("smoothness", "--generator", "path4")
        assert code == 0
        assert "0 failed" in out

    def test_smoothness_rejects_payoff_params_outside_the_range(self):
        for lam, mu in (("0", "0"), ("1", "-1"), ("1", "-2")):
            code, out, err = run_cli(
                "smoothness", "--generator", "maxcut-edge", "--lam", lam, "--mu", mu
            )
            assert code == 2 and out == ""
            assert err.startswith("error: payoff-side lambda must be > 0 and mu > -1")
        code, out, _ = run_cli(
            "smoothness", "--generator", "maxcut-edge", "--lam", "1/2", "--mu", "0"
        )
        assert code == 0 and "cce_bound=2/1" in out

    def test_smoothness_quotes_no_bound_when_semi_smoothness_fails(self):
        code, out, _ = run_cli("smoothness", "--generator", "path4", "--lam", "0", "--mu", "0")
        assert code == 0 and "cce_bound=" not in out
        assert out.splitlines()[0] == (
            "lambda=0/1 mu=0/1 rho and cce_bound not certified: semi-smoothness fails"
        )
        assert "-13/1" in out and "2 failed" in out

    def test_lam_without_mu_exits_two(self):
        for flag in ("--lam", "--mu"):
            code, out, err = run_cli("smoothness", "--generator", "path4", flag, "1")
            assert (code, out, err) == (2, "", "error: --lam and --mu go together\n")

    def test_cce_text_format(self):
        code, out, err = run_cli("cce", "--generator", "bwc-multipartite", "--m", "2")
        sol = worst_cce_value(GENERATORS["bwc-multipartite"](m=2))
        lines = [f"worst coarse-correlated equilibrium value: {sol.value.numerator}/1"]
        lines += [f"  {''.join(map(str, s))}  {q.numerator}/{q.denominator}"
                  for s, q in sol.distribution]
        assert sol.value == 14 and sol.distribution
        assert (code, out, err) == (0, "\n".join(lines) + "\n", "")

    def test_cce_value(self):
        code, out, _ = run_cli(
            "cce", "--generator", "bwc-multipartite", "--m", "2", "--format", "csv"
        )
        assert code == 0
        assert "value,14/1" in out


class TestReproduce:
    def test_named_battery_passes(self):
        code, out, _ = run_cli("reproduce", "--named", "--format", "csv")
        assert code == 0
        assert out.startswith("claim_id,")
        assert ",fail," not in out

    def test_batteries_match_the_committed_csv(self):
        # every equilibrium list and measured value of the named and the
        # table battery is pinned: a changed one shows as a diff here
        pinned = pathlib.Path(__file__).parent / "data" / "reproduce_named_table.csv"
        code, out, _ = run_cli("reproduce", "--named", "--table", "--format", "csv")
        assert code == 0 and out == pinned.read_text()

    def test_writes_file(self, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            "reproduce", "--named", "--format", "csv", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert path.read_text().startswith("claim_id,")

    def test_failed_verdict_exits_one(self, monkeypatch):
        import conflictgames.cli as cli_mod
        from conflictgames.verdicts import make_verdict

        monkeypatch.setattr(
            cli_mod.report,
            "reproduce_named_examples",
            lambda limits: [make_verdict("forced", "x", 1, 2, "==")],
        )
        code, out, _ = run_cli("reproduce", "--named", "--format", "csv")
        assert code == 1
        assert ",fail," in out


    @pytest.mark.parametrize(
        "args,message",
        [
            (("--max-n", "2"), "need 2 <= max_m <= max_n, got max_m=3, max_n=2"),
            (("--max-n", "1"), "need 2 <= max_m <= max_n, got max_m=3, max_n=1"),
            (("--max-m", "1"), "need 2 <= max_m <= max_n, got max_m=1, max_n=6"),
            (("--trials", "0"), "need trials >= 1, got 0"),
            (("--trials", "-3"), "need trials >= 1, got -3"),
        ],
    )
    def test_table_argument_checks_exit_two(self, args, message):
        code, out, err = run_cli("reproduce", "--table", "--format", "csv", *args)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "args,flags",
        [
            (("--seed", "5"), "--seed"),
            (("--named", "--seed", "5"), "--seed"),
            (("--named", "--seed", "5", "--trials", "3", "--max-n", "4"),
             "--trials, --max-n, --seed"),
            (("--max-m", "2", "--format", "csv"), "--max-m"),
        ],
    )
    def test_table_flags_without_table_exit_two(self, args, flags):
        # the bound table's flags are read by nothing without --table
        code, out, err = run_cli("reproduce", *args)
        assert (code, out, err) == (2, "", f"error: reproduce without --table takes no {flags}\n")

    def test_smallest_valid_table(self):
        code, out, _ = run_cli(
            "reproduce", "--table", "--format", "csv", "--max-n", "2", "--max-m", "2",
            "--trials", "1",
        )
        assert code == 0
        assert out.startswith("claim_id,")
        assert ",fail," not in out


class TestMalformedInstanceFile:
    def test_schema_error_names_field(self, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text('{"kind": "BwC", "n": 2, "m": 0}')
        code, _, err = run_cli("enumerate", "--instance", str(path))
        assert code == 2 and "m" in err

    def test_float_rational_rejected(self, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text(
            '{"kind": "SwC", "n": 1, "m": 1, "machine_values": [1.5]}'
        )
        code, _, err = run_cli("enumerate", "--instance", str(path))
        assert code == 2 and "machine_values" in err

    def test_value_error_names_its_field_once(self, tmp_path):
        path = tmp_path / "bad.game"
        path.write_text(write_instance(GENERATORS["path4"]()).replace('"n": 4', '"n": 0'))
        code, out, err = run_cli("eval", "--instance", str(path), "--state", "1")
        assert (code, out) == (2, "")
        assert err == "invalid instance: n: player count must be an integer >= 1, got 0\n"
