#!/usr/bin/env python3
"""Run both verification batteries and write their CSV reports.

Usage:
    python scripts/run_reproduction.py [--out-dir out] [--trials 20] [--seed 0]

Exits 1 if any verdict fails, 2 on an invalid argument (``--trials`` below 1).
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from conflictgames.report import reproduce_bound_table, reproduce_named_examples
from conflictgames.verdicts import render_csv, render_text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:
        table = reproduce_bound_table(trials=args.trials, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    named = reproduce_named_examples()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "named_examples.csv").write_text(render_csv(named))
    (out_dir / "bound_table.csv").write_text(render_csv(table))

    print(render_text(named))
    print(render_text(table))
    print(f"reports written to {out_dir}/")
    return 0 if all(r.passed for r in named + table) else 1


if __name__ == "__main__":
    sys.exit(main())
