#!/usr/bin/env python3
"""Search for conflict-balancing instances on 3+ machines WITHOUT a strong
Nash equilibrium.

With two machines the optimum is always a strong equilibrium; whether that
survives on three or more machines is open.  This harness scans seeded random
instances and reports any empty strong set it finds.  It makes no claim
either way: on every pool scanned so far the strong set has been nonempty.

Usage:
    python scripts/search_strong_ne_m3.py [--count 200] [--max-n 6] [--m 3]

``--max-n`` runs from ``--m`` up to ``strong_max_players`` (10): the
instances cycle through n = m, ..., max-n.  At n = 10, m = 3 (59049 states)
one strong scan takes about 30 ms on a 2-vCPU VM.
"""

import argparse
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from conflictgames.games import GameKind
from conflictgames.instances import gen_random, write_instance
from conflictgames.oracle import DEFAULT_LIMITS, strong_nash_set


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--m", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    cap = DEFAULT_LIMITS.strong_max_players
    if not args.m <= args.max_n <= cap:
        parser.error(f"need m <= max-n <= {cap} (strong_max_players), got m={args.m}, "
                     f"max-n={args.max_n}")

    probs = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    found = 0
    for t in range(args.count):
        n = args.m + t % (args.max_n - args.m + 1)
        inst = gen_random(n, args.m, GameKind.BWC, probs[t % 3], seed=args.seed + t)
        strong = strong_nash_set(inst)
        if not strong:
            found += 1
            print(f"EMPTY strong set: n={n} m={args.m} seed={args.seed + t}")
            print(write_instance(inst))
    print(
        f"scanned {args.count} instances (m={args.m}, n up to {args.max_n}): "
        f"{found} without a strong equilibrium"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
