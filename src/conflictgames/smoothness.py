"""Numeric certification of semi-smoothness, niceness, the known
price-of-total-anarchy parameters, and the optimum lower-bound inequalities;
and the one copy of the paper's bound formulas: the certified (lambda, mu),
the CCE bound they imply, the pure-PoA coefficient and the strong-PoA bound.

All verdicts are exact: the per-state inequalities are array reductions over
the evaluator's state table in scaled integers, never floats.  The
semi-smoothness LHS at one state sums the exact expectation terms of the
mixed profiles instead, and the best ratio for a pure deviation state is the
exact value of a two-row LP over the table's sigma-row sums and social values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

import numpy as np

from . import simplex
from .fastpath import _INT64_SAFE, StateEvaluator, to_internal
from .games import (
    GameKind,
    Instance,
    MixedProfile,
    State,
    canonical_deviation_profile,
    point_mass_profile,
    validate_profile,
    validate_state,
)
from .oracle import DEFAULT_LIMITS, OracleLimits, state_columns


@dataclass(frozen=True)
class SmoothnessParams:
    """(lambda, mu) plus the derived ratio rho (lambda/(1-mu) for cost kinds,
    lambda/(1+mu) for payoff kinds)."""

    lam: Fraction
    mu: Fraction
    rho: Fraction


def make_params(kind: GameKind, lam, mu) -> SmoothnessParams:
    """Cost kinds take lambda >= 0 and mu < 1; payoff kinds lambda > 0 and
    mu > -1 (Roughgarden, JACM 2015), where rho and the CCE bound 1/rho are
    positive and finite."""
    lam, mu = Fraction(lam), Fraction(mu)
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    if kind.minimizes:
        if mu >= 1:
            raise ValueError(f"cost-side mu must be < 1 for a meaningful ratio, got {mu}")
        rho = lam / (1 - mu)
    else:
        if lam == 0 or mu <= -1:
            raise ValueError(f"payoff-side lambda must be > 0 and mu > -1, got {lam} and {mu}")
        rho = lam / (1 + mu)
    return SmoothnessParams(lam=lam, mu=mu, rho=rho)


@dataclass(frozen=True)
class SmoothnessVerdict:
    """Exact per-state scan result; slack is the tightest margin (negative when
    the inequality fails somewhere) and worst_state attains it."""

    holds: bool
    worst_state: State
    slack: Fraction


# ---------------------------------------------------------------------------
# the semi-smoothness left-hand side


def semi_smooth_lhs(inst: Instance, state: State, profile: MixedProfile) -> Fraction:
    """Sum over players of the expected value of redrawing only your own
    machine from the profile, everyone else pinned at ``state``: the LHS of
    :func:`check_semi_smooth`, from the exact expectation terms under the
    point mass of ``state`` (player ``i``'s terms ignore row ``i``)."""
    pinned = point_mass_profile(inst, state)
    validate_profile(inst, profile)
    ev = StateEvaluator.of(inst)
    # every row of the profile sums to 1, so the sum has a Fraction term
    return sum(
        q * ev.expected(pinned, i, k)
        for i, row in enumerate(profile)
        for k, q in enumerate(row)
        if q != 0
    )


def _worst_slack(inst, params, limits, t: int, lhs_of, orbits: bool) -> SmoothnessVerdict:
    """Scan of ``lhs_of(vals)`` (the LHS at every state of a table, times
    ``t * value_scale``) against lam * opt +/- mu * value(s), over one state
    per orbit under renaming the machines when ``orbits`` (the LHS is
    constant on an orbit) and the machines are symmetric.

    With the LHS and the social value scaled by ``t * value_scale * lam.den *
    mu.den``, the slack is ``sign * lam.num * mu.den * t * opt + key`` with
    ``key = mu.num * lam.den * t * social - sign * lam.den * mu.den * lhs``
    (sign +1 for cost kinds, -1 for payoff kinds).  The lam * opt term is the
    same at every state, so the smallest key (lex-smallest tie) and the
    optimum decide.
    """
    ln, ld = params.lam.numerator, params.lam.denominator
    un, ud = params.mu.numerator, params.mu.denominator
    minimizes = inst.kind.minimizes
    sign = 1 if minimizes else -1

    def columns(vals, cur, social, phi):
        return social, un * ld * t * social - sign * ld * ud * lhs_of(vals)

    ev, domain, (social, keys) = state_columns(
        inst, limits, columns, factor=t * ld * (abs(un) + ud), orbits=orbits
    )
    opt = int(social.min() if minimizes else social.max())
    idx = int(keys.argmin())
    slack = Fraction(sign * ln * ud * t * opt + int(keys[idx]), t * ev.value_scale * ld * ud)
    return SmoothnessVerdict(holds=slack >= 0, worst_state=domain.state(idx), slack=slack)


def check_semi_smooth(
    inst: Instance,
    params: SmoothnessParams,
    profile: Optional[MixedProfile] = None,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> SmoothnessVerdict:
    """Exact scan of the semi-smoothness inequality over every state.

    Cost kinds:    LHS <= lam * c(opt) + mu * c(s)
    Payoff kinds:  LHS >= lam * u(opt) - mu * u(s)

    ``profile`` defaults to the canonical deviation profile.  With ``t`` the
    lcm of the profile's denominators, ``t * value_scale * LHS`` is the table
    weighted by the integers ``t * q_ik`` (0/1 for the canonical profile).
    When every row of the profile is uniform over all m machines, the LHS is
    a sum over all machines and is constant on an orbit under renaming them.
    """
    if profile is None:
        profile = canonical_deviation_profile(inst)
    else:
        validate_profile(inst, profile)
    t, weights = deviation_weights(profile)
    uniform = bool((weights == weights[0, 0]).all())
    # sum_ik weights[i, k] * vals[k, i, s] at every state s, with no
    # temporary the size of the table
    return _worst_slack(
        inst, params, limits, t, lambda vals: np.einsum("ik,kis->s", weights, vals), orbits=uniform
    )


def deviation_weights(profile: MixedProfile) -> tuple[int, np.ndarray]:
    """(t, W) with t the lcm of the profile's denominators and W[i, k] the
    integer t * q_ik, so that t * value_scale * LHS = sum_ik W[i, k] * vals[k, i, s]."""
    t = lcm(*(q.denominator for row in profile for q in row))
    dtype = np.int64 if t < _INT64_SAFE else object  # a caller's profile may need big ints
    weights = [[q.numerator * (t // q.denominator) for q in row] for row in profile]
    return t, np.array(weights, dtype=dtype)


def check_nice(
    inst: Instance, params: SmoothnessParams, limits: OracleLimits = DEFAULT_LIMITS
) -> SmoothnessVerdict:
    """Niceness check with the deviation target at the joint best responses:
    for every state, sum_i value_i(best response, s_-i) against
    lam * extremal +/- mu * value(s)."""
    pick = np.minimum if inst.kind.minimizes else np.maximum

    def best_response_sum(vals):
        # one player at a time, so the temporaries are one value per state
        lhs = pick.reduce(vals[:, 0])
        best = np.empty_like(lhs)
        for i in range(1, vals.shape[1]):
            lhs += pick.reduce(vals[:, i], out=best)
        return lhs

    return _worst_slack(inst, params, limits, 1, best_response_sum, orbits=True)


# ---------------------------------------------------------------------------
# the best pure-deviation ratio (payoff kinds)


def max_rho_pure_sigma(
    inst: Instance, sigma_state: State, limits: OracleLimits = DEFAULT_LIMITS
) -> Fraction:
    """The exact supremum of lambda/(1+mu) over nonnegative (lambda, mu) that
    satisfy the semi-smoothness inequality with the given PURE deviation
    state at every state.

    With ``t = mu/(1+mu)`` in [0, 1] the inequality at ``s`` reads
    ``(1-t) L(s) + t u(s) >= rho * opt``, where ``L(s)`` is the sigma-row sum
    of the table and ``u(s)`` the social value, so ``rho * opt`` is
    ``max_t min_s ((1-t) L(s) + t u(s))`` (Nadav-Roughgarden, WINE 2010).  Its
    LP dual has two rows: minimise ``sum_s y_s L(s) + w`` subject to
    ``sum_s y_s >= 1`` and ``sum_s y_s (L(s) - u(s)) + w >= 0``, ``y, w >= 0``.
    """
    if inst.kind.minimizes:
        raise ValueError("pure-deviation ratio search applies to payoff kinds only")
    validate_state(inst, sigma_state)
    sigma = np.array(to_internal(sigma_state), dtype=np.int64)
    players = np.arange(inst.n)
    _, _, (lhs, social) = state_columns(
        inst, limits, lambda vals, cur, social, phi: (vals[sigma, players].sum(0), social)
    )
    opt = int(social.max())
    if opt == 0:
        raise ValueError("degenerate instance: the optimum value is 0, every ratio works")
    sol = simplex.solve(
        objective=np.append(lhs, 1),
        a_ge=[np.append(np.ones_like(lhs), 0), np.append(lhs - social, 1)],
        b_ge=[1, 0],
    )
    return sol.value / opt


# ---------------------------------------------------------------------------
# known certificate parameters and CCE quality bounds


def certificate_params(
    kind: GameKind,
    n: int,
    m: int,
    alpha: Optional[Fraction] = None,
    beta: Optional[Fraction] = None,
    gamma: Optional[Fraction] = None,
) -> tuple[SmoothnessParams, Fraction]:
    """The certified (lambda, mu) for the kind and the implied bound on the
    worst-CCE-to-optimum ratio (:func:`cce_bound`).  Degenerate m = 1 games
    are trivially (1, 0) with ratio 1."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    if m == 1:
        params = make_params(kind, 1, 0)
    elif kind is GameKind.BWC:
        lam = (
            2 - Fraction(1, m) + Fraction(m - 1, n)
            if n >= m
            else 1 + Fraction(2 * n - 2, m)
        )
        params = make_params(kind, lam, 0)
    elif kind is GameKind.BWF:
        params = make_params(kind, 2 - Fraction(1, m), 0)
    elif kind is GameKind.BWCF:
        if alpha is None or beta is None or gamma is None:
            raise ValueError("the combined kind needs alpha, beta, gamma")
        a, b, g = Fraction(alpha), Fraction(beta), Fraction(gamma)
        if a >= g:
            lam = (
                1
                + Fraction(m - 1, n)
                + (b / a) * Fraction(m - 1, m)
                + (g / a) * (Fraction(m - 1, m) - Fraction(m - 1, n))
            )
        else:
            lam = 1 + (b / a) * Fraction(m - 1, m) + (g / a) * Fraction(m - 1, m)
        params = make_params(kind, lam, 0)
    elif kind is GameKind.SWC:
        # with n < m the deviation profile spreads over n machines only, and
        # the certified pair scales with that support size (same ratio of 2)
        t = min(n, m)
        if t == 1:
            params = make_params(kind, 1, 0)
        else:
            params = make_params(kind, Fraction(t - 1, t), Fraction(t - 2, t))
    elif kind is GameKind.SWF:
        params = make_params(kind, Fraction(1, m), 0)
    else:  # cut game
        params = make_params(kind, Fraction(1, 2), 0)
    return params, cce_bound(kind, params)


def cce_bound(kind: GameKind, params: SmoothnessParams) -> Fraction:
    """The bound (lambda, mu) implies on the worst-CCE-to-optimum ratio:
    rho for cost kinds, 1/rho for payoff kinds (Roughgarden, JACM 2015)."""
    return params.rho if kind.minimizes else 1 / params.rho


def pure_poa_bound(kind: GameKind, n: int, m: int, alpha=None, beta=None, gamma=None) -> Fraction:
    """The certified bound on a cost kind's pure price of anarchy: for
    BwC with n >= m the niceness constant 2 - m/n, tighter than lambda, and
    the certified lambda otherwise."""
    if not kind.minimizes:
        raise ValueError("the pure price-of-anarchy coefficient applies to cost kinds only")
    params, _ = certificate_params(kind, n, m, alpha, beta, gamma)
    return 2 - Fraction(m, n) if kind is GameKind.BWC and n >= m else params.lam


def strong_poa_bound(kind: GameKind, n: int, m: int) -> Fraction:
    """The bound 4/3 + 2/(3n) on the strong price of anarchy of BwC on two
    machines."""
    if kind is not GameKind.BWC or m != 2:
        raise ValueError(f"the bound is for BwC on 2 machines, not {kind.value} on {m}")
    return Fraction(4, 3) + Fraction(2, 3 * n)


# ---------------------------------------------------------------------------
# optimum lower-bound inequalities (cost kinds)


@dataclass(frozen=True)
class LowerBoundVerdict:
    holds: bool
    checks: tuple[str, ...]
    witness: Optional[tuple[str, State, Fraction]]  # first failing (check, state, value)


def check_opt_lower_bounds(
    inst: Instance, limits: OracleLimits = DEFAULT_LIMITS
) -> LowerBoundVerdict:
    """Verify the kind's social-cost floors at every state (scaled integers).

    BwC:  m*c >= alpha*n^2  and, for m >= 2,  (m-1)*c >= 2|E-|.
    BwF:  m*c >= alpha*n^2  and  c >= 2|E+| + n.
    BwCF: the load floor, the conflict-volume floor, and the friendship floor
          for its alpha-vs-gamma branch (the alpha <= gamma floor uses the
          provable alpha*n constant term).
    Payoff kinds have no such floors; the verdict is trivially true.
    """
    if not inst.kind.minimizes:
        return LowerBoundVerdict(holds=True, checks=(), witness=None)
    ev, orbits, (social,) = state_columns(
        inst, limits, lambda vals, cur, social, phi: (social,), orbits=True
    )
    n, m = inst.n, inst.m
    vs = ev.value_scale
    a_n, b_n, g_n = (int(w * vs) for w in (inst.alpha, inst.beta, inst.gamma))
    e_minus = len(inst.conflict_edges)
    e_plus = len(inst.friendship_edges)

    checks: list[tuple[str, int, int]] = []  # (name, multiplier on c, floor)
    checks.append(("load_floor", m, a_n * n * n))
    if inst.kind is GameKind.BWC:
        if m >= 2:
            checks.append(("conflict_volume", m - 1, 2 * vs * e_minus))
    elif inst.kind is GameKind.BWF:
        checks.append(("friend_volume", 1, vs * (2 * e_plus + n)))
    else:
        checks.append(
            ("conflict_volume", m, (a_n - b_n * (m - 1)) * n * n + 2 * b_n * m * e_minus)
        )
        if inst.alpha >= inst.gamma:
            checks.append(
                ("friend_volume", m, (a_n - g_n) * n * n + m * (2 * g_n * e_plus + g_n * n))
            )
        if inst.alpha <= inst.gamma:
            checks.append(("friend_volume_heavy", 1, 2 * a_n * e_plus + a_n * n))

    names = tuple(name for name, _, _ in checks)
    # mult * c < floor  <=>  c < ceil(floor / mult).  On the int64 table every
    # |c| < _INT64_SAFE, so clipping the threshold to that range changes no
    # comparison and keeps it representable.
    below = [-(-floor // mult) for _, mult, floor in checks]
    if ev.dtype() is np.int64:
        below = [min(max(b, -_INT64_SAFE), _INT64_SAFE) for b in below]
    fails = np.stack([social < b for b in below])  # (check, state)
    bad = np.flatnonzero(fails.any(0))
    if not bad.size:
        return LowerBoundVerdict(holds=True, checks=names, witness=None)
    idx = int(bad[0])
    name = names[int(fails[:, idx].argmax())]
    return LowerBoundVerdict(
        holds=False,
        checks=names,
        witness=(name, orbits.state(idx), ev.as_value(int(social[idx]))),
    )
