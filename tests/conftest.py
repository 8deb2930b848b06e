"""Shared instance builders for the test suite.

Pools are pure functions of their seeds so every test run sees identical
instances.
"""

from __future__ import annotations

import random
import zlib
from fractions import Fraction

import pytest

from conflictgames.games import GameKind, make_instance
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


def beyond_int64_pool():
    """SwC and SwF instances whose scaled values pass the int64-safe bound,
    so every table pass runs on the object dtype."""
    F = Fraction
    huge = (F(3, 2**61 - 1), F(5, 2**62 + 3))
    return [
        make_instance(
            GameKind.SWC, 4, 3, conflict_edges=[(1, 2), (2, 3), (3, 4), (1, 4)],
            machine_values=(huge[0], huge[1], F(1)),
        ),
        make_instance(
            GameKind.SWC, 3, 3, conflict_edges=[(1, 2), (1, 3)],
            machine_values=(huge[1], huge[0], huge[0]),
            edge_weights={(1, 2): F(1, 7), (1, 3): huge[0]},
        ),
        make_instance(
            GameKind.SWF, 4, 2, friendship_edges=[(1, 2), (2, 3), (3, 4)],
            machine_values=huge,
        ),
        make_instance(
            GameKind.SWF, 4, 2, friendship_edges=[(1, 2), (3, 4)],
            machine_values=(F(2), huge[1]), edge_weights={(1, 2): huge[0]},
        ),
    ]


def with_machine_values(inst, values):
    """``inst`` (a sharing instance) with its machine values replaced."""
    return make_instance(
        inst.kind, inst.n, inst.m,
        conflict_edges=inst.conflict_edges, friendship_edges=inst.friendship_edges,
        machine_values=values, edge_weights=dict(inst.edge_weights or {}) or None,
    )


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
