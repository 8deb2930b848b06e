"""Smoke runs of the scripts: they exit 0 and print their summary."""

import importlib.util
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

from conflictgames.dynamics import random_start, run_br
from conflictgames.fastpath import StateEvaluator, Walk
from conflictgames.games import GameKind
from conflictgames.instances import gen_random

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _run(name, *args, code=0):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return proc.stdout.splitlines() if code == 0 else proc.stderr.splitlines()


def test_strong_ne_search():
    lines = _run("search_strong_ne_m3.py", "--count", "6", "--max-n", "5")
    assert lines[-1] == "scanned 6 instances (m=3, n up to 5): 0 without a strong equilibrium"


def test_strong_ne_search_checks_its_range():
    # fewer players than machines, and more than strong_max_players
    for max_n in ("2", "11"):
        lines = _run("search_strong_ne_m3.py", "--max-n", max_n, "--m", "3", code=2)
        assert lines[-1].endswith(
            f"error: need m <= max-n <= 10 (strong_max_players), got m=3, max-n={max_n}"
        )


def test_poa_conjecture_sweep():
    lines = _run("poa_conjecture_sweep.py", "--m", "2", "--count", "1")
    assert lines[0] == "m=2: certified pure bound 2-m/n, conjectured 2-1/m = 3/2"
    assert [line.split(":")[0].strip() for line in lines[1:]] == [
        f"n={n}" for n in range(5, 11)
    ]


def test_br_step_times():
    lines = _run("br_step_times.py", "--n", "12", "--repeats", "1")
    assert lines[0] == (
        "us of set-up per run (fresh instance, kept evaluator) and us per BR step, n=12,"
        " edge probability 1/16, best of 1"
    )
    assert lines[1].split() == [
        "kind", "m", "steps", "fresh", "kept", "walk", "trace", "views", "run_br", "trace%"
    ]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [kind.value for kind in GameKind]
    for row in rows:
        m, steps = int(row[1]), int(row[2])
        fresh, setup, walk, trace, views, total = map(float, row[3:9])
        assert m == (2 if row[0] == "MaxCut" else 8) and steps > 0
        assert fresh > 0 and setup > 0 and walk > 0 and views > 0 and total > 0
        # every part is a span of the one timed run: none is negative, even
        # at one repeat
        assert trace >= 0 and not row[6].startswith("-") and not row[9].startswith("-")
        # the trace is run_br minus the other two, to rounding
        assert abs(setup / steps + walk + trace - total) < 0.2
        assert row[9].endswith("%") and abs(float(row[9][:-1]) - 100 * trace / total) < 1.5


def test_br_step_times_leaves_the_kept_evaluator_alone():
    # the clocks wrap the classes for one run and restore them: the evaluator
    # kept on the instance gains no attribute, and a repeat run builds none
    spec = importlib.util.spec_from_file_location("br_step_times", SCRIPTS / "br_step_times.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    inst = gen_random(12, 3, GameKind.SWF, Fraction(1, 4), seed=1)
    start = random_start(inst, random.Random(1))
    originals = [StateEvaluator.__dict__["of"], StateEvaluator.walk, Walk.best, Walk.move]
    trace, _, setup, walk = script.timed_run(inst, start)
    ev = StateEvaluator.of(inst)
    attributes = set(vars(ev))
    again = script.timed_run(inst, start)
    assert StateEvaluator.of(inst) is ev and set(vars(ev)) == attributes
    assert not {"of", "walk", "best", "move"} & attributes
    assert [StateEvaluator.__dict__["of"], StateEvaluator.walk, Walk.best, Walk.move] == originals
    assert again[0] == trace == run_br(inst, start) and setup > 0 and walk > 0


def test_br_step_times_reads_views_apart_from_the_fastest_run():
    # kept, walk and trace are spans of the one fastest run_br; the read of
    # the finished trace is its own call, so a pause inside the fastest
    # repeat's read is not printed
    spec = importlib.util.spec_from_file_location("br_step_times", SCRIPTS / "br_step_times.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    runs = [(3e-3, 2e-4, 2e-3, 4e-5), (2e-3, 1e-4, 1e-3, 9e-2), (4e-3, 3e-4, 3e-3, 3e-5)]
    assert script.best(runs) == (2e-3, 1e-4, 1e-3, 3e-5)
    assert script.best(runs[1:2]) == runs[1]


def test_br_step_times_checks_its_counts():
    for args, got in ((("--repeats", "0"), "120, 0"), (("--n", "0"), "0, 3")):
        lines = _run("br_step_times.py", *args, code=2)
        assert lines[-1].endswith(f"error: need n, repeats >= 1, got {got}")


def test_scan_pass_times():
    lines = _run("scan_pass_times.py", "--repeats", "1")
    assert lines[0] == "ms per scan pass, one cycle of 12 instances (seed 1), best of 1"
    assert lines[1].split() == ["pass", "cold", "warm"]
    names = [line[:19].strip() for line in lines[2:13]]
    assert names == [
        "optimum", "pure NE", "semi-smooth", "nice", "floors", "sandwich", "strong", "all",
        "table build", "column build", "orbit index build",
    ]
    assert all(len(line[19:].split()) == 2 for line in lines[2:10])
    for line in lines[10:13]:  # the builds alone: one time, no warm column
        build = line[19:].split()
        assert len(build) == 1 and float(build[0]) > 0
    # the eight slots whose machines all have one machine term read one
    # column per orbit, the four sharing slots (random machine values) one
    # per state
    words = lines[13].split()
    assert words[:2] == ["columns", "read:"] and words[3:6] == ["of", "17825", "states"]
    assert words[6:] == ["(8", "of", "12", "instances", "on", "strings)"]
    assert 4 * 1024 < int(words[2]) < 17825
    # the three strong scans of the cycle test fewer strings than pure
    # equilibria: every m = 3 slot has one machine term on all machines
    _check_strong_scan_size(lines[14])
    # the orbit passes past the kept-table budget: ms and peak MB each, on
    # the strings of a symmetric instance and on every state of one whose
    # machine values differ (a payoff kind: no floors to scan)
    start = 15
    for kind, columns in (("BwC", 88574), ("SwC", 531441)):
        passes = [name for name in names[:6] if kind == "BwC" or name != "floors"]
        assert lines[start] == (
            f"ms and tracemalloc peak MB per streamed pass, {kind} n=12 m=3 "
            f"(531441 states, {columns} columns), best of 1"
        )
        assert lines[start + 1].split() == ["pass", "ms", "MB"]
        rows = lines[start + 2 : start + 2 + len(passes)]
        assert [line[:14].strip() for line in rows] == passes
        for line in rows:
            ms, mb = map(float, line[14:].split())
            assert ms > 0 and mb > 0
        start += 2 + len(passes)
    # the strong scan at ten players, past 2^18 states on four machines:
    # ms, the strong equilibria found and peak MB
    assert start == 30
    assert lines[30] == "ms and tracemalloc peak MB per strong scan, BwC n=10, best of 1"
    assert lines[31].split() == ["m", "states", "strong", "ms", "MB"]
    rows = [line.split() for line in lines[32:]]
    assert [row[:3] for row in rows] == [["3", "59049", "1074"], ["4", "1048576", "9264"]]
    for row in rows:
        assert float(row[3]) > 0 and float(row[4]) > 0


def _check_strong_scan_size(line):
    words = line.split()
    assert words[:2] == ["strong", "scan:"]
    assert words[3:6] == ["pure", "NE", "candidates,"]
    assert words[7:] == ["strings", "tested"]
    candidates, tested = int(words[2]), int(words[6])
    assert 0 < tested < candidates


def test_lp_pivot_times():
    lines = _run("lp_pivot_times.py", "--repeats", "1", "--bwc", "243")
    assert lines[0] == "us per pivot, worst-CCE LP, lp cycle of 20 jobs (seed 1), best of 1"
    assert lines[1].split() == [
        "LPs", "states", "pivots", "int64", "object", "settled", "refused", "us/pivot", "total", "s"
    ]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [kind.value for kind in GameKind] + ["BwC"]
    for row in rows:
        pivots, on_int64, on_object, settled, refused = map(int, row[-7:-2])
        assert pivots == on_int64 + on_object > 0
        # an LP pivots on object only after the certificate refused it
        assert on_object == 0 or refused > 0
    assert sum(int(row[-4]) for row in rows if row[0] in ("SwC", "SwF")) > 0
    assert rows[-1][:8] == ["BwC", "243", "243", "844", "844", "0", "0", "0"]


def test_lp_pivot_times_checks_its_sizes():
    lines = _run("lp_pivot_times.py", "--bwc", "100", code=2)
    assert lines[-1].endswith("--bwc sizes must be among [243, 256, 729, 1024]")


def test_gen_times():
    lines = _run("gen_times.py", "--repeats", "1", "--seeds", "2")
    assert lines[0] == "us per gen_random call, best of 1 over seeds 0-1"
    assert lines[1].split() == ["workload", "n", "slots", "pairs", "us/call"]
    rows = [line.split() for line in lines[2:]]
    assert [(row[0], int(row[1])) for row in rows] == [
        ("scan", 5), ("scan", 7), ("scan", 10), ("scan", 11),
        ("lp", 3), ("lp", 4), ("lp", 5), ("lp", 7),
        ("br", 40), ("br", 60), ("br", 90), ("br", 120),
    ]
    # every scan and br slot, and every lp slot but the named instance
    assert [sum(int(row[2]) for row in rows if row[0] == name)
            for name in ("scan", "lp", "br")] == [12, 19, 24]
    for row in rows:
        n = int(row[1])
        assert int(row[3]) == n * (n - 1) // 2 and float(row[4]) > 0


def test_scan_pass_times_checks_its_counts():
    lines = _run("scan_pass_times.py", "--repeats", "0", code=2)
    assert lines[-1].endswith("error: need repeats >= 1, got 0")


def test_gen_times_checks_its_counts():
    lines = _run("gen_times.py", "--seeds", "0", code=2)
    assert lines[-1].endswith("error: need repeats, seeds >= 1, got 5, 0")
