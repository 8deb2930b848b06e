"""Determinism self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py [--seed 1]

1. Each workload's instances are generated in two processes with different
   PYTHONHASHSEED values; their digests must be identical.
2. Each workload runs traced twice (one cycle); every count-valued per-layer
   metric (evaluator calls, pivots, BR steps, ...) must repeat exactly, and
   both runs must report correct outputs.

Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
WORKLOADS = ("scan", "lp", "br")


def run(args: list[str], hashseed: str = "0") -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, str(RUN), *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}"
                         f"{proc.stdout[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    seed = ap.parse_args().seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    ok = True
    for wl in WORKLOADS:
        base = ["--workload", wl, "--seed", str(seed), "--seconds", "1"]
        digests = {run(base + ["--digest-only"], hs) for hs in ("1", "2")}
        same = len(digests) == 1
        print(f"{wl}: instance digest {'identical' if same else 'DIFFERS'} "
              f"across PYTHONHASHSEED=1,2")
        ok &= same
        first, second = (json.loads(run(base + ["--trace", "1"], hs)) for hs in ("1", "2"))
        diff = [name for name in counted
                if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        correct = first["correct"] and second["correct"]
        print(f"{wl}: {len(counted)} traced counts "
              f"{'repeat exactly' if not diff else 'DIFFER: ' + ', '.join(diff)}; "
              f"outputs {'correct' if correct else 'INCORRECT'}")
        ok &= not diff and correct
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
