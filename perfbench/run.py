"""The conflictgames benchmark: one seeded workload per process, a closed loop
with one client, an independent check of every output, and one JSON result
line.  Run from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

``--trace 0`` times the untouched package and prints the end-to-end metrics.
``--trace 1`` runs the same jobs once untraced and once with the per-layer
wrappers of ``tracing.py`` installed, and prints the per-layer metrics.  The
metric names and units printed on the last line are those of BENCHMARK.json;
perfbench/README.md describes the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 7  # setup_s is the median of this many set-ups (1 in-process + probes)
# Time of one canary run (see canary_s) on the machine the benchmark was defined
# on (2-vCPU x86 VM, Python 3.11) when nothing else slowed it.  Reported times
# are wall times scaled to that speed.
CANARY_REF_S = 0.8e-3
# How strongly the package's jobs follow the canary when the machine slows: a
# job slows by the canary's slowdown to this power.  Measured on that machine
# by regressing job times on canary times (0.7-0.9 per job and per run, on all
# three workloads); with 1.0, runs in heavy contention read 5-10% fast.
SLOWDOWN_EXPONENT = 0.8


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "lp", "br"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one import plus generation and print it (used internally)")
    ap.add_argument("--digest-only", action="store_true",
                    help="print the instance digest of the workload and exit")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment stamp


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (a checkout
    without .git gives None; ``src_sha256`` identifies the code either way)."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "conflictgames").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# machine speed
#
# On a shared machine other tenants slow this process by about 2x, in phases
# of a fraction of a second to minutes; a whole run can fall in one slow phase.
# The canary, a fixed piece of standard-library work of the kind the package
# does (Fraction arithmetic, tuple and dict building), is timed next to every
# job, so each job's wall time can be scaled to the canary's reference speed.
# The canary does not touch the package, so a change to the package cannot
# move it.


def canary_s(repeats: int = 3) -> float:
    """Fastest of ``repeats`` runs of the canary, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 400):
            acc += Fraction(i % 17 + 1, i % 13 + 1)
            table[(i, i % 7)] = (acc, i * 3)
        best = min(best, perf_counter() - t0)
    return best


def at_reference_speed(wall_s: float, canary: float) -> float:
    """``wall_s`` measured while the canary took ``canary`` seconds, scaled to
    the machine speed at which the canary takes CANARY_REF_S."""
    return wall_s * (CANARY_REF_S / canary) ** SLOWDOWN_EXPONENT


def env_stamp(args, loadavg_start) -> dict:
    import numpy

    return {
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "loadavg_start": loadavg_start,
        "canary_ms_start": 1e3 * canary_s(15),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# set-up


def setup(args):
    """Import the package and generate the workload's jobs; returns
    (workloads module, workload, jobs, (wall seconds, canary seconds right
    after))."""
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    jobs = workloads.generate(wl, args.seed, workloads.cycles_for(wl, args.seconds))
    wall = perf_counter() - t0
    return workloads, wl, jobs, (wall, canary_s(5))


def setup_probe(args) -> tuple[float, float]:
    """(wall seconds, canary seconds) of the set-up of a fresh interpreter,
    measured in a child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1])["setup"])


# ---------------------------------------------------------------------------
# the closed loop


def stored_digests(args) -> dict:
    """Per-job digests stored for the committed seed ({} for other seeds)."""
    stored = json.loads((HERE / "digests.json").read_text())
    return stored.get(args.workload, {}).get(str(args.seed), {})


def run_jobs(workloads, wl, jobs, stored, tracer=None):
    """Run every job once, in order, and check its outputs right after it is
    timed.  Returns one record per job: its wall time, that time at reference
    speed (scaled by the mean of the canaries timed just before and just after
    the job), its work, the digest of its instance and exact outputs, and why
    it failed (None when it passed).  Only the digest of the outputs is kept,
    so peak memory is the program's own."""
    records = []
    for idx, job in enumerate(jobs):
        rec = {"key": job.key, "s": None, "ref_s": None, "work": 0, "digest": None,
               "error": None}
        records.append(rec)
        if tracer is not None:
            tracer.job = idx
        before = canary_s()
        t0 = perf_counter()
        try:
            out, work = wl.run(job)
        except Exception as exc:  # a failing job is counted, not fatal
            rec["error"] = f"{type(exc).__name__}: {exc}"
            continue
        rec["s"], rec["work"] = perf_counter() - t0, work
        rec["ref_s"] = at_reference_speed(rec["s"], (before + canary_s()) / 2)
        rec["digest"] = workloads.job_digest(job, wl.summarize(out))
        try:
            bad = wl.check(job, out)
        except Exception as exc:  # a crashing check is a failed check
            bad = [f"check raised {type(exc).__name__}: {exc}"]
        ref = stored.get(job.key)
        if ref is not None and ref != rec["digest"]:
            bad.append(f"instance or outputs differ from the stored digest {ref[:12]}")
        if bad:
            rec["error"] = "; ".join(bad[:3])
    return records


# ---------------------------------------------------------------------------
# metrics


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile of the
    samples that still has at least 10 samples above it (the maximum, with
    fewer beyond, when there are 10 samples or fewer)."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(wl, records, setup_samples, rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics, at reference speed, and notes that include the
    same statistics of the raw wall times."""
    ok = [r for r in records if r["error"] is None]
    work = sum(r["work"] for r in ok)

    def stats(key):
        times = [r[key] for r in ok]
        return statistics.median(times), tail(times), work / sum(times)

    p50, (tail_s, tail_pct, beyond), per_s = stats("ref_s")
    wall_p50, (wall_tail, _, _), wall_per_s = stats("s")
    metrics = {
        "setup_s": statistics.median(at_reference_speed(*s) for s in setup_samples),
        "job_s_p50": p50,
        "job_s_tail": tail_s,
        "work_per_s": per_s,
        "peak_rss_mb": rss_mb,
    }
    notes = {
        "jobs_timed": len(ok),
        "setup_samples": len(setup_samples),
        "job_s_tail_percentile": tail_pct,
        "job_s_tail_beyond": beyond,
        "work_unit": wl.work_unit,
        f"{wl.work_unit}_per_s (1/s)": per_s,
        "wall setup_s (s)": statistics.median(s for s, _ in setup_samples),
        "wall job_s_p50 (s)": wall_p50,
        "wall job_s_tail (s)": wall_tail,
        "wall work_per_s (1/s)": wall_per_s,
        "wall/reference time": sum(r["s"] for r in ok) / sum(r["ref_s"] for r in ok),
    }
    return metrics, notes


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_work_states(wl, jobs, records) -> int:
    if wl.work_unit == "br_steps":
        return sum(r["work"] + 1 for r in records if r["error"] is None)
    return sum(job.states for job in jobs)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_spec = ROOT / "BENCHMARK.json"
    if not (SRC / "conflictgames" / "__init__.py").is_file() or not bench_spec.is_file():
        print(f"error: no conflictgames sources under {SRC} (run from a checkout)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        *_, sample = setup(args)
        print(json.dumps({"setup": sample}))
        return 0

    loadavg_start = list(os.getloadavg())
    workloads, wl, jobs, setup_sample = setup(args)
    stamp = env_stamp(args, loadavg_start)
    if args.digest_only:
        first = [j for j in jobs if j.key.startswith("c0.")]
        print(workloads.instances_digest(first))
        return 0
    spec = json.loads(bench_spec.read_text())

    stored = stored_digests(args)
    if args.trace == 0:
        setup_samples = [setup_sample] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        t0 = perf_counter()
        records = run_jobs(workloads, wl, jobs, stored)
        wall = perf_counter() - t0
        rss = peak_rss_mb()
        chosen = spec["end_to_end"]
    else:
        import tracing

        t0 = perf_counter()
        untraced = run_jobs(workloads, wl, jobs, stored)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            jobs = workloads.generate(wl, args.seed, workloads.cycles_for(wl, args.seconds))
            records = run_jobs(workloads, wl, jobs, stored, tracer=tracer)
        finally:
            tracer.uninstall()
        wall = perf_counter() - t0
        for rec, plain in zip(records, untraced):
            if rec["error"] is None and rec["digest"] != plain["digest"]:
                rec["error"] = "traced outputs differ from untraced"
        chosen = spec["per_layer"]

    failures = [f"{r['key']}: {r['error']}" for r in records if r["error"] is not None]
    if len(failures) == len(records):
        for f in failures[:10]:
            print(f"FAILED {f}")
        print(f"error: all {len(records)} jobs failed", file=sys.stderr)
        return 1
    if args.trace == 0:
        metrics, notes = end_to_end(wl, records, setup_samples, rss)
    else:
        metrics = tracer.layer_metrics(traced_work_states(wl, jobs, records))
        # at reference speed, so a slow phase in one pass does not read as overhead
        base = sum(r["ref_s"] or 0.0 for r in untraced)
        traced = sum(r["ref_s"] or 0.0 for r in records)
        notes = {"jobs_timed": len(records), "untraced_job_s": base, "traced_job_s": traced,
                 "tracing_overhead_frac": traced / base - 1.0, "spans": len(tracer.spans)}
    attempted = len(records)
    notes["failed_frac"] = len(failures) / attempted
    notes["measure_wall_s"] = wall
    notes["digests_compared"] = sum(1 for job in jobs if job.key in stored)

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 1:
        tracer.write_spans(RESULTS / f"{stem}-spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"env": stamp, "metrics": metrics, "notes": notes, "failures": failures,
         "jobs": [[r["key"], r["work"], r["s"], r["ref_s"], r["digest"]] for r in records]},
        indent=1
    ) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"python={stamp['python']} numpy={stamp['numpy']} nproc={stamp['nproc']} "
          f"load={stamp['loadavg_start'][0]:.2f} canary={stamp['canary_ms_start']:.3f}ms "
          f"commit={stamp['git_commit']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        unit = units.get(name, "us" if name.endswith("us_per_step") else
                         "s" if name.endswith("_s") else "")
        print(f"{name:32s} {value:<12.6g} {unit}")
    for name, value in notes.items():
        print(f"  {name:30s} {value:.6g}" if isinstance(value, float) else
              f"  {name:30s} {value}")
    for f in failures:
        print(f"FAILED {f}")

    correct = not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in chosen},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
