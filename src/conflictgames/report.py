"""Reproduction batteries: the named worked examples and the per-kind bound
table, emitted as verdict rows (CSV or text).

Every row is reproducible from its claim id and the battery seed alone; the
named battery takes no randomness beyond fixed seeds baked in here.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Optional

from . import oracle, smoothness
from .games import (
    GameKind,
    canonical_deviation_profile,
    make_instance,
    uniform_profile,
)
from .instances import (
    gen_bwc_multipartite,
    gen_bwcf_lower,
    gen_bwf_cliques,
    gen_maxcut_edge,
    gen_path4,
    gen_random,
    gen_swc_pos,
    gen_swf_nostrong,
)
from .oracle import DEFAULT_LIMITS, OracleLimits
from .verdicts import VerdictReport, make_verdict


def _holds(claim_id: str, label: str, flag: bool) -> VerdictReport:
    """A 0/1 row: ``flag`` holds."""
    return make_verdict(claim_id, label, 1, int(flag), "==")


def _pure_poa_rows(
    prefix: str, label: str, inst, opt: Fraction, worst_ne: Fraction, limits: OracleLimits
) -> list[VerdictReport]:
    """The optimum and the worst pure equilibrium of a tight family against
    their closed forms, and its pure PoA against the certified bound."""
    rep = oracle.equilibrium_report(inst, limits, with_strong=False)
    bound = smoothness.pure_poa_bound(inst.kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma)
    return [
        make_verdict(f"{prefix}.opt", label, opt, rep.optimum[1], "=="),
        make_verdict(
            f"{prefix}.worst_pure_ne", label, worst_ne, max(v for _, v in rep.pure_ne), "=="
        ),
        make_verdict(f"{prefix}.pure_poa", label, bound, rep.poa, "=="),
    ]


def _uniform_rows(prefix: str, count_id: str, label: str, inst, expected) -> list[VerdictReport]:
    """The uniform profile of a tight family: the (player, machine) pairs
    whose expected value under it differs from ``expected`` (row
    ``count_id``, none expected), and whether it is a mixed equilibrium."""
    profile = uniform_profile(inst)
    mismatches = sum(
        1
        for i in range(1, inst.n + 1)
        for k in range(1, inst.m + 1)
        if oracle.expected_player_value(inst, profile, i, k) != expected
    )
    return [
        make_verdict(f"{prefix}.{count_id}", label, 0, mismatches, "=="),
        _holds(f"{prefix}.uniform_is_mixed_ne", label, oracle.verify_mixed_ne(inst, profile)),
    ]


def _multipartite_rows(m: int, limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_bwc_multipartite(m)
    label = f"bwc-multipartite(m={m})"
    prefix = f"bwc.multipartite.m{m}"
    params, pota = smoothness.certificate_params(inst.kind, inst.n, inst.m)
    rows = _pure_poa_rows(prefix, label, inst, Fraction(m**3), Fraction(2 * m**3 - m * m), limits)
    rows += _uniform_rows(prefix, "uniform_value", label, inst, Fraction(2 * inst.n - 1, m))
    semi_smooth = smoothness.check_semi_smooth(inst, params, limits=limits).holds
    rows.append(_holds(f"{prefix}.semi_smooth", label, semi_smooth))
    if m == 2:
        cce = oracle.worst_cce_value(inst, limits)
        _, opt_value = oracle.optimum(inst, limits)
        rows.append(make_verdict(f"{prefix}.worst_cce", label, 14, cce.value, "=="))
        rows.append(make_verdict(f"{prefix}.cce_ratio", label, pota, cce.value / opt_value, "=="))
    return rows


def _path4_rows(limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_path4()
    label = "path4"
    rep = oracle.equilibrium_report(inst, limits)
    strong_values = [v for _, v in rep.strong_ne]
    bound = smoothness.strong_poa_bound(inst.kind, inst.n, inst.m)
    return [
        make_verdict("path4.opt", label, 8, rep.optimum[1], "=="),
        _holds("path4.strong_has_opt", label, rep.optimum in rep.strong_ne),
        make_verdict("path4.worst_strong_value", label, 10, max(strong_values), "=="),
        make_verdict("path4.strong_poa", label, Fraction(5, 4), rep.strong_poa, "=="),
        make_verdict("path4.strong_poa_bound", label, bound, rep.strong_poa, "<="),
    ]


def _bwf_rows(limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_bwf_cliques(2)
    return _pure_poa_rows(
        "bwf.cliques.m2", "bwf-cliques(m=2)", inst, Fraction(8), Fraction(12), limits
    )


def _bwcf_rows(limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_bwcf_lower(2, 1, 1, 1)
    label = "bwcf-lower(m=2,a=1,b=1,g=1)"
    n, m = inst.n, inst.m
    _, opt_value = oracle.optimum(inst, limits)
    profile = uniform_profile(inst)
    expected = (
        inst.alpha * (1 + Fraction(n - 1, m))
        + inst.beta * Fraction(n - m, m)
        + inst.gamma * Fraction((m - 1) ** 2, m)
    )
    params, pota = smoothness.certificate_params(inst.kind, n, m, inst.alpha, inst.beta, inst.gamma)
    semi_smooth = smoothness.check_semi_smooth(inst, params, limits=limits).holds
    values = [oracle.profile_expected_value(inst, profile, i) for i in range(1, n + 1)]
    mixed_value = sum(values, Fraction(0))
    return [
        make_verdict("bwcf.lower.m2.opt", label, inst.alpha * Fraction(n * n, m), opt_value, "=="),
        make_verdict("bwcf.lower.m2.uniform_value", label, expected, values[0], "=="),
        *_uniform_rows("bwcf.lower.m2", "uniform_value_mismatches", label, inst, expected),
        make_verdict("bwcf.lower.m2.mixed_ratio_tight", label, pota, mixed_value / opt_value, "=="),
        _holds("bwcf.lower.m2.semi_smooth", label, semi_smooth),
    ]


def _all_graph_instances(n: int):
    """Every conflict graph on n nodes (2 machines); exhaustive for n <= 3."""
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    for bits in range(2 ** len(pairs)):
        edges = [e for idx, e in enumerate(pairs) if (bits >> idx) & 1]
        yield make_instance(GameKind.BWC, n, 2, conflict_edges=edges)


# random instances per n in the two-machine strong-equilibrium sweep
_STRONG_SWEEP_PER_N = 3


def _strong_sweep_rows(limits: OracleLimits) -> list[VerdictReport]:
    rows = []
    # n <= 3: the worst strong equilibrium is optimal, over every conflict graph
    for n in (2, 3):
        bad = 0
        for inst in _all_graph_instances(n):
            rep = oracle.equilibrium_report(inst, limits)
            if rep.optimum not in rep.strong_ne or rep.strong_poa != 1:
                bad += 1
        rows.append(
            make_verdict(
                f"bwc.strong.n{n}.poa_is_one", f"all conflict graphs, n={n}, m=2", 0, bad, "=="
            )
        )
    for n in range(2, 9):
        bound = smoothness.strong_poa_bound(GameKind.BWC, n, 2)
        worst_ratio = Fraction(0)
        opt_missing = 0
        for seed in range(_STRONG_SWEEP_PER_N):
            inst = gen_random(n, 2, GameKind.BWC, Fraction(1, 2), seed=100 * n + seed)
            rep = oracle.equilibrium_report(inst, limits)
            if rep.optimum not in rep.strong_ne:
                opt_missing += 1
            if rep.strong_poa is not None:
                worst_ratio = max(worst_ratio, rep.strong_poa)
        label = f"random BwC m=2 n={n} x{_STRONG_SWEEP_PER_N}"
        rows.append(make_verdict(f"bwc.strong.n{n}.opt_is_strong", label, 0, opt_missing, "=="))
        rows.append(make_verdict(f"bwc.strong.n{n}.poa_bound", label, bound, worst_ratio, "<="))
    return rows


def _swc_pos_rows(limits: OracleLimits) -> list[VerdictReport]:
    rows = []
    ratios = []
    m = 3
    for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
        inst = gen_swc_pos(m, eps)
        label = f"swc-pos(m=3,eps={eps})"
        rep = oracle.equilibrium_report(inst, limits, with_strong=False)
        expected_pos = Fraction(2 * m * m - 2 * m + eps) / Fraction(m * m - m + eps)
        tag = f"swc.pos.eps{eps.denominator}"
        rows.append(make_verdict(f"{tag}.unique_ne", label, 1, len(rep.pure_ne), "=="))
        rows.append(_holds(f"{tag}.ne_state", label, rep.pure_ne[0][0] == (1,) * m))
        rows.append(make_verdict(f"{tag}.pos", label, expected_pos, rep.pos, "=="))
        ratios.append(rep.pos)
    increasing = all(a < b for a, b in zip(ratios, ratios[1:])) and all(r < 2 for r in ratios)
    rows.append(_holds("swc.pos.monotone_to_2", "swc-pos(m=3) eps sweep", increasing))
    return rows


def _swf_rows(limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_swf_nostrong(Fraction(1, 10))
    label = "swf-nostrong(eps=1/10)"
    rep = oracle.equilibrium_report(inst, limits)
    return [
        make_verdict("swf.nostrong.strong_ne_count", label, 0, len(rep.strong_ne), "=="),
        _holds("swf.nostrong.has_pure_ne", label, len(rep.pure_ne) >= 1),
    ]


def _maxcut_rows(limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_maxcut_edge()
    label = "maxcut-edge"
    opt_state, opt_value = oracle.optimum(inst, limits)
    profile = canonical_deviation_profile(inst)
    edges = Fraction(len(inst.conflict_edges))
    lhs_bad = sum(
        1
        for s in oracle.enumerate_states(inst, limits)
        if smoothness.semi_smooth_lhs(inst, s, profile) != edges
    )
    params, _ = smoothness.certificate_params(inst.kind, inst.n, inst.m)
    semi_smooth = smoothness.check_semi_smooth(inst, params, limits=limits).holds
    rho_max = max(
        smoothness.max_rho_pure_sigma(inst, sigma, limits)
        for sigma in oracle.enumerate_states(inst, limits)
    )
    cce = oracle.worst_cce_value(inst, limits)
    return [
        make_verdict("maxcut.edge.opt", label, 2, opt_value, "=="),
        make_verdict("maxcut.edge.lhs_is_edge_count", label, 0, lhs_bad, "=="),
        _holds("maxcut.edge.semi_smooth_half", label, semi_smooth),
        make_verdict("maxcut.edge.pure_sigma_rho", label, Fraction(1, 3), rho_max, "=="),
        make_verdict("maxcut.edge.worst_cce", label, opt_value / 2, cce.value, "=="),
    ]


def reproduce_named_examples(limits: OracleLimits = DEFAULT_LIMITS) -> list[VerdictReport]:
    """The fixed battery of worked examples; zero failing rows expected."""
    rows: list[VerdictReport] = []
    rows += _multipartite_rows(2, limits)
    rows += _multipartite_rows(3, limits)
    rows += _bwf_rows(limits)
    rows += _bwcf_rows(limits)
    rows += _path4_rows(limits)
    rows += _strong_sweep_rows(limits)
    rows += _swc_pos_rows(limits)
    rows += _swf_rows(limits)
    rows += _maxcut_rows(limits)
    return rows


# ---------------------------------------------------------------------------
# the bound table


_BWCF_PRESETS = (
    (Fraction(1), Fraction(1), Fraction(1, 2)),   # alpha >= gamma
    (Fraction(2), Fraction(1), Fraction(2)),      # alpha == gamma boundary
    (Fraction(1), Fraction(1), Fraction(2)),      # alpha < gamma
    (Fraction(1, 2), Fraction(2), Fraction(3)),   # alpha < gamma, heavy edges
)


def _random_pool(kind: GameKind, trials: int, seed: int, max_n: int, max_m: int):
    """Deterministic instance pool for one kind.  n >= m is enforced only for
    the combined kind, whose certified parameters assume it."""
    pool = []
    for t in range(trials):
        s = seed * 10_000 + t
        m = 2 + t % (max_m - 1)
        if kind is GameKind.MAXCUT:
            m = 2
        low = m if kind is GameKind.BWCF else 2
        n = low + (t % (max_n - low + 1))
        kwargs = {}
        if kind is GameKind.BWCF:
            a, b, g = _BWCF_PRESETS[t % len(_BWCF_PRESETS)]
            kwargs = dict(alpha=a, beta=b, gamma=g)
        prob = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))[t % 3]
        weighted = kind.sharing and t % 2 == 0
        pool.append(gen_random(n, m, kind, prob, seed=s, weighted=weighted, **kwargs))
    return pool


_CCE_STATE_CAP = 32

# named-battery rows that pin a table row's bound, and their ids in the table
_TIGHT = {
    "bwc.multipartite.m2.cce_ratio": "table.bwc.tight",
    "bwf.cliques.m2.pure_poa": "table.bwf.tight",
    "bwcf.lower.m2.mixed_ratio_tight": "table.bwcf.lower.m2.mixed_ratio_tight",
}


def reproduce_bound_table(
    max_n: int = 6,
    max_m: int = 3,
    trials: int = 20,
    seed: int = 0,
    limits: OracleLimits = DEFAULT_LIMITS,
) -> list[VerdictReport]:
    """Per kind: certify semi-smoothness with the certificate parameters on a
    seeded random pool, compare worst-CCE ratios against the implied bound on
    instances with at most ``_CCE_STATE_CAP`` states (the exact LP grows
    fast), and pin the tight examples.  Raises ValueError unless
    ``trials >= 1`` and ``2 <= max_m <= max_n``."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if not 2 <= max_m <= max_n:
        raise ValueError(f"need 2 <= max_m <= max_n, got max_m={max_m}, max_n={max_n}")
    rows: list[VerdictReport] = []
    for kind in (GameKind.BWC, GameKind.BWF, GameKind.BWCF, GameKind.SWC, GameKind.SWF):
        tag = kind.value.lower()
        pool = _random_pool(kind, trials, seed, max_n, max_m)
        ss_failures = 0
        lb_failures = 0
        cce_slack_min: Optional[Fraction] = None
        for inst in pool:
            params, pota = smoothness.certificate_params(
                kind, inst.n, inst.m, inst.alpha, inst.beta, inst.gamma
            )
            if not smoothness.check_semi_smooth(inst, params, limits=limits).holds:
                ss_failures += 1
            if not smoothness.check_opt_lower_bounds(inst, limits).holds:
                lb_failures += 1
            if oracle.state_count(inst) <= _CCE_STATE_CAP:
                cce = oracle.worst_cce_value(inst, limits)
                _, opt_value = oracle.optimum(inst, limits)
                ratio = oracle._ratio(kind, opt_value, cce.value)
                slack = None if ratio is None else pota - ratio
                if slack is not None and (cce_slack_min is None or slack < cce_slack_min):
                    cce_slack_min = slack
        label = f"random {kind.value} x{trials} (seed={seed})"
        rows.append(make_verdict(f"table.{tag}.semi_smooth", label, 0, ss_failures, "=="))
        if kind.minimizes:
            rows.append(make_verdict(f"table.{tag}.opt_lower_bounds", label, 0, lb_failures, "=="))
        if cce_slack_min is not None:
            rows.append(make_verdict(f"table.{tag}.cce_within_bound", label, 0, cce_slack_min, ">="))

    # the tight witnesses: rows of the named battery, under the table's ids
    named = _multipartite_rows(2, limits) + _bwf_rows(limits) + _bwcf_rows(limits)
    rows += [replace(r, claim_id=_TIGHT[r.claim_id]) for r in named if r.claim_id in _TIGHT]
    rows += [replace(r, claim_id=f"table.{r.claim_id}") for r in _swc_pos_rows(limits)]
    return rows
