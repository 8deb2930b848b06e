"""Core model: assignment games with pairwise conflicts and friendships.

Players 1..n each pick one machine 1..m.  The kinds form two families.  The
three cost kinds charge machine load plus edge penalties (same-machine
conflicts, separated friends, or an (alpha, beta, gamma)-weighted mix of
both).  The payoff kinds give a job its share of its machine's value plus the
weight of its neighbours apart (SwC) or together (SwF); the two-partition cut
game is conflict sharing with no machine values.

All arithmetic is exact (`fractions.Fraction`).  A state is a plain tuple of
machine ids, 1-based; players are 1-based throughout the public API.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Union

Edge = tuple[int, int]
State = tuple[int, ...]
MixedProfile = tuple[tuple[Fraction, ...], ...]
Rational = Union[int, str, Fraction]


class GameKind(enum.Enum):
    """The six supported game kinds.  The value is the canonical file tag."""

    BWC = "BwC"
    BWF = "BwF"
    BWCF = "BwCF"
    SWC = "SwC"
    SWF = "SwF"
    MAXCUT = "MaxCut"

    @property
    def minimizes(self) -> bool:
        """True for the cost games, False for the payoff games."""
        return self in (GameKind.BWC, GameKind.BWF, GameKind.BWCF)

    @property
    def balancing(self) -> bool:
        return self.minimizes

    @property
    def sharing(self) -> bool:
        return self in (GameKind.SWC, GameKind.SWF)

    @property
    def friends(self) -> bool:
        """Plays on friendships alone (BwF, SwF; BwCF plays on both sets, the
        others on conflicts); a payoff kind's edges pay together exactly then."""
        return self in (GameKind.BWF, GameKind.SWF)


class InvalidInstanceError(ValueError):
    """Validation failure; ``field`` names the offending field (dotted path)."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message


def as_fraction(value: Rational, field: str = "value") -> Fraction:
    """Coerce int/str/Fraction to an exact Fraction.  Floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise InvalidInstanceError(field, f"not an exact rational: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidInstanceError(field, f"not a rational: {value!r}") from exc


@dataclass(frozen=True)
class Instance:
    """One game instance.  Build through :func:`make_instance`.

    ``conflict_edges`` holds the interaction graph of BwC, SwC, and the cut
    game; ``friendship_edges`` the one of BwF and SwF; BwCF uses both
    (disjointly).  ``machine_values`` and ``edge_weights`` exist only for the
    sharing kinds.  ``alpha``/``beta``/``gamma`` are the load/conflict/
    friendship weights; they are fixed at (1,1,0) for BwC and (1,0,1) for BwF
    so the weighted cost formula covers all three balancing kinds.

    The neighbour lists and edge weights that the Fraction formulas read are
    built on first use and kept on the instance, and so is its
    :class:`conflictgames.fastpath.StateEvaluator` (``StateEvaluator.of``).
    A pickle or copy holds the fields alone and builds its own.
    """

    kind: GameKind
    n: int
    m: int
    conflict_edges: frozenset[Edge]
    friendship_edges: frozenset[Edge]
    machine_values: Optional[tuple[Fraction, ...]]
    edge_weights: Optional[tuple[tuple[Edge, Fraction], ...]]
    alpha: Fraction
    beta: Fraction
    gamma: Fraction

    def __getstate__(self) -> dict:
        # the kept structures are rebuilt on first use: an evaluator
        # unpickled with the instance would come back writeable
        return {f.name: self.__dict__[f.name] for f in fields(self)}

    @cached_property
    def conflict_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.n, self.conflict_edges)

    @cached_property
    def friendship_neighbors(self) -> tuple[tuple[int, ...], ...]:
        return _adjacency(self.n, self.friendship_edges)

    @cached_property
    def sharing_weights(self) -> dict[Edge, Fraction]:
        """Edge -> weight map over a payoff kind's own edges: the friendships
        of SwF, the conflicts of SwC and of the cut game (default weight 1)."""
        own = self.friendship_edges if self.kind.friends else self.conflict_edges
        weights = dict.fromkeys(own, Fraction(1))
        if self.edge_weights:
            weights.update(dict(self.edge_weights))
        return weights

    @cached_property
    def weighted_neighbors(self) -> tuple[tuple[tuple[int, Fraction], ...], ...]:
        """Weighted adjacency over the payoff kind's own edge set."""
        adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.n)]
        for (a, b), w in sorted(self.sharing_weights.items()):
            adj[a - 1].append((b, w))
            adj[b - 1].append((a, w))
        return tuple(tuple(row) for row in adj)


def _adjacency(n: int, edges) -> tuple[tuple[int, ...], ...]:
    """Adjacency over ``edges``; entry i-1 lists i's neighbours."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in sorted(edges):
        adj[a - 1].append(b)
        adj[b - 1].append(a)
    return tuple(tuple(row) for row in adj)


_FIXED_WEIGHTS = {
    GameKind.BWC: (Fraction(1), Fraction(1), Fraction(0)),
    GameKind.BWF: (Fraction(1), Fraction(0), Fraction(1)),
    GameKind.SWC: (Fraction(1), Fraction(0), Fraction(0)),
    GameKind.SWF: (Fraction(1), Fraction(0), Fraction(0)),
    GameKind.MAXCUT: (Fraction(1), Fraction(0), Fraction(0)),
}


def _player_ids(raw, field: str) -> Edge:
    """Both endpoints of one edge as ints.  An id is an int or a numpy
    integer; a bool, a float or a string is none, even when integral."""
    try:
        a, b = raw
        if isinstance(a, bool) or isinstance(b, bool):
            raise TypeError("a bool is not a player id")
        return operator.index(a), operator.index(b)
    except (TypeError, ValueError) as exc:
        raise InvalidInstanceError(field, f"not a pair of player ids: {raw!r}") from exc


def _normalize_edges(edges: Iterable, n: int, field: str) -> frozenset[Edge]:
    out = set()
    add = out.add
    for raw in edges:
        try:
            a, b = raw
        except (TypeError, ValueError):
            a = b = None
        # plain int pairs, all that gen_random hands over, skip the coercion
        if type(a) is not int or type(b) is not int:
            a, b = _player_ids(raw, field)
        if a < b:
            if a < 1 or b > n:
                raise InvalidInstanceError(field, f"endpoint out of range 1..{n}: ({a}, {b})")
            add((a, b))
        elif a > b:
            if b < 1 or a > n:
                raise InvalidInstanceError(field, f"endpoint out of range 1..{n}: ({a}, {b})")
            add((b, a))
        else:
            raise InvalidInstanceError(field, f"self-loop at player {a}")
    return frozenset(out)


def make_instance(
    kind: GameKind,
    n: int,
    m: int,
    conflict_edges: Iterable = (),
    friendship_edges: Iterable = (),
    machine_values: Optional[Iterable[Rational]] = None,
    edge_weights: Optional[Mapping] = None,
    alpha: Optional[Rational] = None,
    beta: Optional[Rational] = None,
    gamma: Optional[Rational] = None,
) -> Instance:
    """Validate and canonicalize an :class:`Instance`."""
    if not isinstance(kind, GameKind):
        raise InvalidInstanceError("kind", f"unknown game kind: {kind!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidInstanceError("n", f"player count must be an integer >= 1, got {n!r}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InvalidInstanceError("m", f"machine count must be an integer >= 1, got {m!r}")
    if kind is GameKind.MAXCUT and m != 2:
        raise InvalidInstanceError("m", "the cut game is played on exactly 2 partitions")

    conf = _normalize_edges(conflict_edges, n, "conflict_edges")
    fr = _normalize_edges(friendship_edges, n, "friendship_edges")
    if conf & fr:
        raise InvalidInstanceError(
            "friendship_edges", f"edges appear in both sets: {sorted(conf & fr)}"
        )
    if kind.friends and conf:
        raise InvalidInstanceError("conflict_edges", f"{kind.value} uses friendship edges only")
    if not kind.friends and fr and kind is not GameKind.BWCF:
        raise InvalidInstanceError("friendship_edges", f"{kind.value} uses conflict edges only")

    if kind.sharing:
        if machine_values is None:
            raise InvalidInstanceError("machine_values", f"required for {kind.value}")
        values = tuple(
            as_fraction(v, f"machine_values[{idx}]") for idx, v in enumerate(machine_values)
        )
        if len(values) != m:
            raise InvalidInstanceError(
                "machine_values", f"expected {m} values, got {len(values)}"
            )
        for idx, v in enumerate(values):
            if v < 0:
                raise InvalidInstanceError(f"machine_values[{idx}]", f"must be >= 0, got {v}")
    else:
        if machine_values is not None:
            raise InvalidInstanceError("machine_values", f"not allowed for {kind.value}")
        values = None

    if edge_weights is not None:
        if not kind.sharing:
            raise InvalidInstanceError("edge_weights", "only the sharing kinds take weights")
        own_edges = fr if kind.friends else conf
        canon: dict[Edge, Fraction] = {}
        for raw_edge, raw_w in dict(edge_weights).items():
            a, b = _player_ids(raw_edge, "edge_weights")
            e = (min(a, b), max(a, b))
            if e not in own_edges:
                raise InvalidInstanceError("edge_weights", f"weight for non-edge {e}")
            if e in canon:
                raise InvalidInstanceError("edge_weights", f"two weights for edge {e}")
            w = as_fraction(raw_w, f"edge_weights[{e}]")
            if w <= 0:
                raise InvalidInstanceError(f"edge_weights[{e}]", f"must be > 0, got {w}")
            canon[e] = w
        weights = tuple(sorted(canon.items()))
    else:
        weights = None

    if kind is GameKind.BWCF:
        a = as_fraction(alpha if alpha is not None else 1, "alpha")
        b = as_fraction(beta if beta is not None else 1, "beta")
        g = as_fraction(gamma if gamma is not None else 1, "gamma")
        if a <= 0:
            raise InvalidInstanceError("alpha", f"must be > 0, got {a}")
        if b < 0:
            raise InvalidInstanceError("beta", f"must be >= 0, got {b}")
        if g < 0:
            raise InvalidInstanceError("gamma", f"must be >= 0, got {g}")
    else:
        a, b, g = _FIXED_WEIGHTS[kind]
        for name, given, fixed in (("alpha", alpha, a), ("beta", beta, b), ("gamma", gamma, g)):
            if given is not None and as_fraction(given, name) != fixed:
                raise InvalidInstanceError(name, f"fixed to {fixed} for {kind.value}")

    return Instance(kind, n, m, conf, fr, values, weights, a, b, g)


_HARMONIC = [Fraction(0)]


def harmonic(j: int) -> Fraction:
    """H_j = 1 + 1/2 + ... + 1/j, with H_0 = 0."""
    if j < 0:
        raise ValueError(f"harmonic index must be >= 0, got {j}")
    while len(_HARMONIC) <= j:
        _HARMONIC.append(_HARMONIC[-1] + Fraction(1, len(_HARMONIC)))
    return _HARMONIC[j]


# ---------------------------------------------------------------------------
# state checks


def _is_id(k, top: int) -> bool:
    """Whether ``k`` is an int in 1..top; a bool is none."""
    return isinstance(k, int) and not isinstance(k, bool) and 1 <= k <= top


def validate_state(inst: Instance, state: State) -> None:
    if len(state) != inst.n:
        raise ValueError(f"state length {len(state)} != n = {inst.n}")
    for i, k in enumerate(state, start=1):
        if not _is_id(k, inst.m):
            raise ValueError(f"state[{i}] = {k!r} not a machine id in 1..{inst.m}")


def _check_player(inst: Instance, i: int) -> None:
    if not _is_id(i, inst.n):
        raise ValueError(f"player id {i!r} out of range 1..{inst.n}")


def _check_machine(inst: Instance, k: int) -> None:
    if not _is_id(k, inst.m):
        raise ValueError(f"machine id {k!r} out of range 1..{inst.m}")


def machine_loads(inst: Instance, state: State) -> tuple[int, ...]:
    """Occupancy vector (x_1, ..., x_m)."""
    loads = [0] * inst.m
    for k in state:
        loads[k - 1] += 1
    return tuple(loads)


# ---------------------------------------------------------------------------
# per-player and aggregate evaluation


def _player_value_unchecked(inst: Instance, state: State, i: int) -> Fraction:
    k = state[i - 1]
    if inst.kind.minimizes:
        load = sum(1 for x in state if x == k)
        conf_here = sum(1 for j in inst.conflict_neighbors[i - 1] if state[j - 1] == k)
        friends_away = sum(1 for j in inst.friendship_neighbors[i - 1] if state[j - 1] != k)
        return inst.alpha * load + inst.beta * conf_here + inst.gamma * friends_away
    # payoff kinds: the machine's share (none in the cut game) plus the
    # weight of the neighbours apart (SwC, cut game) or together (SwF)
    together = inst.kind.friends
    value = sum(
        (w for j, w in inst.weighted_neighbors[i - 1] if (state[j - 1] == k) == together),
        Fraction(0),
    )
    if inst.machine_values is not None:
        value += inst.machine_values[k - 1] / sum(1 for x in state if x == k)
    return value


def player_value(inst: Instance, state: State, i: int) -> Fraction:
    """Cost (balancing kinds) or utility (sharing/cut kinds) of player ``i``."""
    _check_player(inst, i)
    validate_state(inst, state)
    return _player_value_unchecked(inst, state, i)


def player_values(inst: Instance, state: State) -> tuple[Fraction, ...]:
    validate_state(inst, state)
    return tuple(_player_value_unchecked(inst, state, i) for i in range(1, inst.n + 1))


def social_value(inst: Instance, state: State) -> Fraction:
    """Sum of player values, computed through the closed per-machine aggregate."""
    validate_state(inst, state)
    return _social_value_unchecked(inst, state)


def _paying_weight(inst: Instance, state: State) -> Fraction:
    """Weight of a payoff kind's edges that pay at ``state``: those whose
    ends are apart (SwC, cut game) or together (SwF)."""
    together = inst.kind.friends
    return sum(
        (w for (a, b), w in inst.sharing_weights.items()
         if (state[a - 1] == state[b - 1]) == together),
        Fraction(0),
    )


def _social_value_unchecked(inst: Instance, state: State) -> Fraction:
    loads = machine_loads(inst, state)
    if inst.kind.minimizes:
        squares = sum(x * x for x in loads)
        conf_same = sum(1 for a, b in inst.conflict_edges if state[a - 1] == state[b - 1])
        friends_cross = sum(1 for a, b in inst.friendship_edges if state[a - 1] != state[b - 1])
        return inst.alpha * squares + 2 * inst.beta * conf_same + 2 * inst.gamma * friends_cross
    # each occupied machine's value is shared out in full, and each paying
    # edge pays both its ends
    values = inst.machine_values or ()
    base = sum((p for p, x in zip(values, loads) if x), Fraction(0))
    return base + 2 * _paying_weight(inst, state)


def potential(inst: Instance, state: State) -> Fraction:
    """Exact potential: any unilateral move changes it by the mover's value change."""
    validate_state(inst, state)
    if inst.kind.minimizes:
        return _social_value_unchecked(inst, state) / 2
    values = inst.machine_values or ()
    loads = machine_loads(inst, state)
    shares = sum((p * harmonic(x) for p, x in zip(values, loads)), Fraction(0))
    return shares + _paying_weight(inst, state)


def deviation_gain(inst: Instance, state: State, i: int, k: int) -> Fraction:
    """Value improvement of player ``i`` unilaterally moving to machine ``k``.

    Positive means strictly improving for both orientations; 0 when k = s_i.
    """
    _check_player(inst, i)
    _check_machine(inst, k)
    validate_state(inst, state)
    return _deviation_gain_unchecked(inst, state, i, k)


def _deviation_gain_unchecked(inst: Instance, state: State, i: int, k: int) -> Fraction:
    if state[i - 1] == k:
        return Fraction(0)
    moved = state[: i - 1] + (k,) + state[i:]
    before = _player_value_unchecked(inst, state, i)
    after = _player_value_unchecked(inst, moved, i)
    return before - after if inst.kind.minimizes else after - before


def best_response(inst: Instance, state: State, i: int) -> tuple[int, Fraction]:
    """Machine with the largest deviation gain and that gain (always >= 0).

    Staying put wins zero-gain ties; among strictly improving machines the
    lowest index wins.
    """
    _check_player(inst, i)
    validate_state(inst, state)
    best_k = state[i - 1]
    best_gain = Fraction(0)
    for k in range(1, inst.m + 1):
        if k == state[i - 1]:
            continue
        gain = _deviation_gain_unchecked(inst, state, i, k)
        if gain > best_gain:
            best_k, best_gain = k, gain
    return best_k, best_gain


# ---------------------------------------------------------------------------
# mixed profiles


def validate_profile(inst: Instance, profile: MixedProfile) -> None:
    if len(profile) != inst.n:
        raise ValueError(f"profile has {len(profile)} rows, expected n = {inst.n}")
    for i, row in enumerate(profile, start=1):
        if len(row) != inst.m:
            raise ValueError(f"profile row {i} has {len(row)} entries, expected m = {inst.m}")
        total = Fraction(0)
        for k, q in enumerate(row, start=1):
            if not isinstance(q, (int, Fraction)) or isinstance(q, bool) or q < 0:
                raise ValueError(f"profile[{i}][{k}] = {q!r} not a nonnegative rational")
            total += q
        if total != 1:
            raise ValueError(f"profile row {i} sums to {total}, expected exactly 1")


def uniform_profile(inst: Instance) -> MixedProfile:
    row = (Fraction(1, inst.m),) * inst.m
    return (row,) * inst.n


def point_mass_profile(inst: Instance, state: State) -> MixedProfile:
    validate_state(inst, state)
    rows = []
    for k in state:
        row = [Fraction(0)] * inst.m
        row[k - 1] = Fraction(1)
        rows.append(tuple(row))
    return tuple(rows)


def canonical_deviation_profile(inst: Instance) -> MixedProfile:
    """The deviation profile used by the smoothness certificates.

    Uniform over all machines, except conflict sharing with fewer players
    than machines: there the m - n lowest-value machines are excluded and the
    profile is uniform over the n highest-value ones (ties broken by lowest
    machine index).  Friendship sharing keeps the full uniform profile -- its
    certificate needs the empty low-value machines as deviation targets.
    """
    if inst.kind is GameKind.SWC and inst.n < inst.m:
        order = sorted(range(inst.m), key=lambda k: (-inst.machine_values[k], k))
        support = sorted(order[: inst.n])
        row = [Fraction(0)] * inst.m
        for k in support:
            row[k] = Fraction(1, inst.n)
        return (tuple(row),) * inst.n
    return uniform_profile(inst)
