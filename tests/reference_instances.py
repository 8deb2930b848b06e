"""Seeded random instances, one ``randrange`` call per Bernoulli trial.

The reference for ``conflictgames.instances.gen_random``, which reads the
same Mersenne Twister words through one bound ``getrandbits`` instead;
``test_instances`` requires equal instances on a grid of kinds, sizes,
edge probabilities, weights and seeds.  Everything after the edges (machine
values, edge weights, BwCF's drawn weights) reads the generator where the
edges left it, so equal instances also mean the edges left it in one state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from conflictgames.games import (
    GameKind,
    Instance,
    InvalidInstanceError,
    Rational,
    as_fraction,
    make_instance,
)

_GRID_DEN = 100
_GRID_MAX = 10 * _GRID_DEN

_ALPHA_CHOICES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
_BETA_GAMMA_CHOICES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def _bernoulli(rng: random.Random, prob: Fraction) -> bool:
    return rng.randrange(prob.denominator) < prob.numerator


def gen_random_reference(
    n: int,
    m: int,
    kind: GameKind,
    edge_prob: Rational,
    seed: int,
    alpha: Optional[Rational] = None,
    beta: Optional[Rational] = None,
    gamma: Optional[Rational] = None,
    weighted: bool = False,
) -> Instance:
    prob = as_fraction(edge_prob, "edge_prob")
    if not (0 <= prob <= 1):
        raise InvalidInstanceError("edge_prob", f"must be in [0, 1], got {prob}")
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]

    conflict: list[tuple[int, int]] = []
    friendship: list[tuple[int, int]] = []
    if kind is GameKind.BWCF:
        for e in pairs:
            if _bernoulli(rng, prob):
                conflict.append(e)
            elif _bernoulli(rng, prob):
                friendship.append(e)
    elif kind in (GameKind.BWF, GameKind.SWF):
        friendship = [e for e in pairs if _bernoulli(rng, prob)]
    else:
        conflict = [e for e in pairs if _bernoulli(rng, prob)]

    values = None
    weights = None
    if kind.sharing:
        values = [Fraction(rng.randrange(1, _GRID_MAX + 1), _GRID_DEN) for _ in range(m)]
        if weighted:
            own = conflict if kind is GameKind.SWC else friendship
            weights = {
                e: Fraction(rng.randrange(1, _GRID_MAX + 1), _GRID_DEN) for e in own
            }

    if kind is GameKind.BWCF:
        if alpha is None:
            alpha = rng.choice(_ALPHA_CHOICES)
        if beta is None:
            beta = rng.choice(_BETA_GAMMA_CHOICES)
        if gamma is None:
            gamma = rng.choice(_BETA_GAMMA_CHOICES)

    return make_instance(
        kind, n, m,
        conflict_edges=conflict,
        friendship_edges=friendship,
        machine_values=values,
        edge_weights=weights,
        alpha=alpha, beta=beta, gamma=gamma,
    )
