"""Shared instance builders for the test suite.

Pools are pure functions of their seeds so every test run sees identical
instances.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

import pytest

from conflictgames.games import GameKind
from conflictgames.instances import gen_random

ALL_KINDS = (
    GameKind.BWC,
    GameKind.BWF,
    GameKind.BWCF,
    GameKind.SWC,
    GameKind.SWF,
    GameKind.MAXCUT,
)

BWCF_PRESETS = (
    (Fraction(1), Fraction(1), Fraction(0)),
    (Fraction(1), Fraction(1), Fraction(1, 2)),
    (Fraction(2), Fraction(1), Fraction(2)),
    (Fraction(1), Fraction(0), Fraction(2)),
    (Fraction(1, 2), Fraction(2), Fraction(3)),
)


def small_instance(kind: GameKind, seed: int, n_max: int = 5, m_max: int = 3,
                   allow_small_n: bool = True):
    """One deterministic random instance with n <= n_max, m <= m_max."""
    # crc32, unlike hash(), does not change with PYTHONHASHSEED
    rng = random.Random((zlib.crc32(kind.value.encode()) & 0xFFFF) * 1_000_003 + seed)
    m = 2 if kind is GameKind.MAXCUT else rng.randrange(1, m_max + 1)
    low = 1 if allow_small_n else m
    n = rng.randrange(max(1, low), n_max + 1)
    prob = Fraction(rng.randrange(0, 5), 4)
    if prob > 1:
        prob = Fraction(1)
    kwargs = {}
    if kind is GameKind.BWCF:
        a, b, g = BWCF_PRESETS[seed % len(BWCF_PRESETS)]
        kwargs = dict(alpha=a, beta=b, gamma=g)
    weighted = kind.sharing and seed % 3 == 0
    return gen_random(n, m, kind, prob, seed=seed, weighted=weighted, **kwargs)


def kind_pool(kind: GameKind, count: int, **kwargs):
    return [small_instance(kind, seed, **kwargs) for seed in range(count)]


@pytest.fixture(scope="session")
def mixed_pool():
    """A few instances of every kind, varied sizes, deterministic."""
    pool = []
    for kind in ALL_KINDS:
        pool.extend(kind_pool(kind, 6))
    return pool


# one line per acceptance criterion, echoed after the run
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
