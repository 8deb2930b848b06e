"""Named instance generators, seeded random instances, and the instance file
format.

The file format is a single UTF-8 JSON document with fixed field names
(kind, n, m, alpha, beta, gamma, conflict_edges, friendship_edges,
machine_values, edge_weights).  Rationals are written as "num/den" strings so
that exact values survive a round trip.  Parsing checks only the document's
shape; every value is checked by ``make_instance``, which rejects floats.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .games import (
    GameKind,
    Instance,
    InvalidInstanceError,
    Rational,
    as_fraction,
    make_instance,
)
from .verdicts import frac_str


# ---------------------------------------------------------------------------
# named generators


def _part_pairs(m: int, name: str) -> tuple[int, list, list]:
    """``(n, within, across)`` for m parts of m players, ``n = m * m``,
    players ``1 .. m`` in the first part: the player pairs in lex order,
    split into those within a part and those across parts."""
    if m < 2:
        raise InvalidInstanceError("m", f"{name} generator needs m >= 2, got {m}")
    n = m * m
    within, across = [], []
    for a, b in combinations(range(1, n + 1), 2):
        (within if (a - 1) // m == (b - 1) // m else across).append((a, b))
    return n, within, across


def gen_bwc_multipartite(m: int) -> Instance:
    """Complete m-partite conflict graph, m parts of m nodes, m machines."""
    n, _, across = _part_pairs(m, "multipartite")
    return make_instance(GameKind.BWC, n, m, conflict_edges=across)


def gen_bwf_cliques(m: int) -> Instance:
    """m disjoint friendship cliques of size m, m machines."""
    n, within, _ = _part_pairs(m, "clique")
    return make_instance(GameKind.BWF, n, m, friendship_edges=within)


def gen_bwcf_lower(m: int, alpha: Rational, beta: Rational, gamma: Rational) -> Instance:
    """Friendship cliques within parts, conflicts across parts (m parts of m)."""
    n, within, across = _part_pairs(m, "lower-bound")
    return make_instance(
        GameKind.BWCF, n, m, conflict_edges=across, friendship_edges=within,
        alpha=alpha, beta=beta, gamma=gamma,
    )


def gen_path4() -> Instance:
    """Conflict path on four nodes, two machines."""
    return make_instance(GameKind.BWC, 4, 2, conflict_edges=[(1, 2), (2, 3), (3, 4)])


def gen_swc_pos(m: int, eps: Rational) -> Instance:
    """n = m players on a conflict clique; one valuable machine, the rest worth 0.

    Machine 1 carries m^2 - m + eps; the unique pure equilibrium crowds onto it.
    """
    if m < 2:
        raise InvalidInstanceError("m", f"needs m >= 2, got {m}")
    e = as_fraction(eps, "eps")
    if e <= 0:
        raise InvalidInstanceError("eps", f"must be > 0, got {e}")
    edges = [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    values = [Fraction(m * m - m) + e] + [Fraction(0)] * (m - 1)
    return make_instance(GameKind.SWC, m, m, conflict_edges=edges, machine_values=values)


def gen_swf_nostrong(eps: Rational) -> Instance:
    """Two friend pairs, machine values 2+eps and 4+3eps: no strong equilibrium."""
    e = as_fraction(eps, "eps")
    if e <= 0:
        raise InvalidInstanceError("eps", f"must be > 0, got {e}")
    return make_instance(
        GameKind.SWF, 4, 2,
        friendship_edges=[(1, 2), (3, 4)],
        machine_values=[2 + e, 4 + 3 * e],
    )


def gen_maxcut_edge() -> Instance:
    """Two nodes, one edge, two partitions."""
    return make_instance(GameKind.MAXCUT, 2, 2, conflict_edges=[(1, 2)])


# ---------------------------------------------------------------------------
# seeded random instances

# value / weight grid: hundredths in (0, 10]
_GRID_DEN = 100
_GRID_MAX = 10 * _GRID_DEN

_ALPHA_CHOICES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
_BETA_GAMMA_CHOICES = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def gen_random(
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
    """Erdos-Renyi edge sets per kind, a pure function of its arguments.

    BwCF samples conflict and friendship edges disjointly (conflict first).
    Sharing kinds draw machine values, and optionally edge weights, from the
    hundredths grid in (0, 10].  When the BwCF weights are not given they are
    drawn from small grids as well.

    Stream contract: everything is read from ``random.Random(seed)`` in this
    order, and the instances depend on nothing else.

    1. One Bernoulli trial per vertex pair, pairs in ``itertools.combinations``
       order ((1, 2), (1, 3), ..., (n - 1, n)); BwCF draws a second trial, for
       a friendship, on each pair whose first trial gave no conflict.  With
       ``edge_prob = num/den`` in lowest terms, a trial succeeds when
       ``randrange(den) < num``, and it reads the words that ``randrange``
       reads: ``getrandbits(den.bit_length())``, drawn again until it is
       below ``den``.
    2. The m machine values of a sharing kind, each
       ``Fraction(randrange(1, 1001), 100)``.
    3. With ``weighted``, one such weight per edge of the sharing kind's own
       set, in pair order.
    4. BwCF's alpha, beta and gamma, those not given, by ``choice`` in that
       order.
    """
    prob = as_fraction(edge_prob, "edge_prob")
    if not (0 <= prob <= 1):
        raise InvalidInstanceError("edge_prob", f"must be in [0, 1], got {prob}")
    if weighted and not kind.sharing:
        raise InvalidInstanceError(
            "weighted", f"only the sharing kinds take weights, not {kind.value}"
        )
    rng = random.Random(seed)
    # randrange(den) without its argument checks: the same words, one bound
    # method call per word
    bits = rng.getrandbits
    num, den = prob.numerator, prob.denominator
    k = den.bit_length()

    conflict: list[tuple[int, int]] = []
    friendship: list[tuple[int, int]] = []
    if kind is GameKind.BWCF:
        for e in combinations(range(1, n + 1), 2):
            r = bits(k)
            while r >= den:
                r = bits(k)
            if r < num:
                conflict.append(e)
                continue
            r = bits(k)
            while r >= den:
                r = bits(k)
            if r < num:
                friendship.append(e)
    else:
        drawn = friendship if kind.friends else conflict
        for e in combinations(range(1, n + 1), 2):
            r = bits(k)
            while r >= den:
                r = bits(k)
            if r < num:
                drawn.append(e)

    values = None
    weights = None
    if kind.sharing:
        values = [Fraction(rng.randrange(1, _GRID_MAX + 1), _GRID_DEN) for _ in range(m)]
        if weighted:
            weights = {
                e: Fraction(rng.randrange(1, _GRID_MAX + 1), _GRID_DEN) for e in drawn
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


# The command line's ``--generator`` names.  The command line calls each
# function through this registry, and each parameter is set by the flag of the
# same name (``edge_prob`` by ``--edge-prob``).
GENERATORS = {
    "bwc-multipartite": gen_bwc_multipartite,
    "bwf-cliques": gen_bwf_cliques,
    "bwcf-lower": gen_bwcf_lower,
    "path4": gen_path4,
    "swc-pos": gen_swc_pos,
    "swf-nostrong": gen_swf_nostrong,
    "maxcut-edge": gen_maxcut_edge,
    "random": gen_random,
}


# ---------------------------------------------------------------------------
# file format


class InstanceFormatError(InvalidInstanceError):
    """A document that does not parse to an instance; ``field`` names the
    offending field."""


def write_instance(inst: Instance) -> str:
    """Serialize to the canonical JSON document (deterministic bytes)."""
    doc: dict = {
        "kind": inst.kind.value,
        "n": inst.n,
        "m": inst.m,
        "alpha": frac_str(inst.alpha),
        "beta": frac_str(inst.beta),
        "gamma": frac_str(inst.gamma),
        "conflict_edges": [list(e) for e in sorted(inst.conflict_edges)],
        "friendship_edges": [list(e) for e in sorted(inst.friendship_edges)],
    }
    if inst.machine_values is not None:
        doc["machine_values"] = [frac_str(p) for p in inst.machine_values]
    if inst.edge_weights is not None:
        doc["edge_weights"] = [[a, b, frac_str(w)] for (a, b), w in inst.edge_weights]
    return json.dumps(doc, indent=2) + "\n"


# the document's fields, named as make_instance's parameters: those that hold
# one value, and those that hold a list, with what the list holds
_SCALAR_FIELDS = {"kind", "n", "m", "alpha", "beta", "gamma"}
_LIST_FIELDS = {
    "conflict_edges": "[i, j] pairs",
    "friendship_edges": "[i, j] pairs",
    "machine_values": "rationals",
    "edge_weights": "[i, j, w] triples",
}


def _unique_keys(pairs) -> dict:
    """One JSON object's members; a key given twice is an error, where
    ``json`` would keep the last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InstanceFormatError(key, "given twice")
        doc[key] = value
    return doc


def parse_instance(text: str) -> Instance:
    """Parse the JSON document; errors carry the offending field path.

    Only the document's shape is checked here; every value goes to
    :func:`make_instance` as written, which checks it.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError("document", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("document", "top level must be an object")
    for key, value in doc.items():
        if key not in _SCALAR_FIELDS and key not in _LIST_FIELDS:
            raise InstanceFormatError(key, "unknown field")
        if key in _LIST_FIELDS and not isinstance(value, list):
            raise InstanceFormatError(key, f"must be a list of {_LIST_FIELDS[key]}")
        if value is None:
            raise InstanceFormatError(key, "must not be null")
    for key in ("kind", "n", "m"):
        if key not in doc:
            raise InstanceFormatError(key, "missing required field")

    tag = doc.pop("kind")
    try:
        kind = GameKind(tag)
    except ValueError:
        raise InstanceFormatError("kind", f"unknown kind {tag!r}") from None
    if "edge_weights" in doc:
        weights = {}
        for idx, triple in enumerate(doc["edge_weights"]):
            field = f"edge_weights[{idx}]"
            if not (isinstance(triple, list) and len(triple) == 3 and all(
                    isinstance(x, int) and not isinstance(x, bool) for x in triple[:2])):
                raise InstanceFormatError(field, f"not an [i, j, w] triple: {triple!r}")
            a, b, w = triple
            if (a, b) in weights:
                raise InstanceFormatError(field, f"two weights for edge ({a}, {b})")
            weights[a, b] = w
        doc["edge_weights"] = weights
    try:
        return make_instance(kind, **doc)
    except InvalidInstanceError as exc:
        raise InstanceFormatError(exc.field, exc.message) from exc


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_instance(inst))
