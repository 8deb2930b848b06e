#!/usr/bin/env python3
"""Measure the pure price of anarchy of conflict balancing when n > m^2.

The certified pure bound is 2 - m/n; the suspicion is that for n > m^2 the
true worst case is the smaller 2 - 1/m.  This sweep reports the largest pure
PoA observed over seeded random instances per (n, m) -- measurements only, no
assertion.  It runs n = m^2 + 1 .. m^2 + 6 and stops before the first n whose
orbits under renaming the machines (the restricted growth strings the scans
read) pass ``max_states``: at m = 3 that is n = 15, after n = 14 (4782969
states, 797162 strings).

Usage:
    python scripts/poa_conjecture_sweep.py [--m 2] [--count 40]
"""

import argparse
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from conflictgames.games import GameKind
from conflictgames.instances import gen_random
from conflictgames.oracle import DEFAULT_LIMITS, equilibrium_report, orbit_count
from conflictgames.smoothness import pure_poa_bound


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    m = args.m
    probs = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    print(f"m={m}: certified pure bound 2-m/n, conjectured 2-1/m = {2 - Fraction(1, m)}")
    for n in range(m * m + 1, m * m + 7):
        if orbit_count(n, m) > DEFAULT_LIMITS.max_states:
            print(f"  n={n}: stopped, {orbit_count(n, m)} strings pass max_states "
                  f"{DEFAULT_LIMITS.max_states}")
            break
        worst = Fraction(0)
        for t in range(args.count):
            inst = gen_random(n, m, GameKind.BWC, probs[t % 3], seed=args.seed + t)
            rep = equilibrium_report(inst, with_strong=False)
            worst = max(worst, rep.poa)
        certified = pure_poa_bound(GameKind.BWC, n, m)
        print(
            f"  n={n}: max observed PoA = {worst} ({float(worst):.4f}); "
            f"certified {certified} ({float(certified):.4f})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
