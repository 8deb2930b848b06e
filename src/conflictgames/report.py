"""Reproduction batteries: the named worked examples and the per-kind bound
table, emitted as verdict rows (CSV or text).

Every row is reproducible from its claim id and the battery seed alone; the
named battery takes no randomness beyond fixed seeds baked in here.
"""

from __future__ import annotations

import itertools
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


def _multipartite_rows(m: int, limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_bwc_multipartite(m)
    label = f"bwc-multipartite(m={m})"
    rep = oracle.equilibrium_report(inst, limits, with_strong=(m == 2))
    worst_ne = max(v for _, v in rep.pure_ne)
    rows = [
        make_verdict(f"bwc.multipartite.m{m}.opt", label, Fraction(m**3), rep.optimum[1], "=="),
        make_verdict(
            f"bwc.multipartite.m{m}.worst_pure_ne", label, Fraction(2 * m**3 - m * m),
            worst_ne, "==",
        ),
        make_verdict(
            f"bwc.multipartite.m{m}.pure_poa", label, 2 - Fraction(m, inst.n), rep.poa, "==",
        ),
    ]
    profile = uniform_profile(inst)
    expected = Fraction(2 * inst.n - 1, m)
    mismatches = sum(
        1
        for i in range(1, inst.n + 1)
        for k in range(1, m + 1)
        if oracle.expected_player_value(inst, profile, i, k) != expected
    )
    rows.append(
        make_verdict(f"bwc.multipartite.m{m}.uniform_value", label, 0, mismatches, "==")
    )
    rows.append(
        make_verdict(
            f"bwc.multipartite.m{m}.uniform_is_mixed_ne", label, 1,
            int(oracle.verify_mixed_ne(inst, profile)), "==",
        )
    )
    params, pota = smoothness.certificate_params(inst.kind, inst.n, inst.m)
    rows.append(
        make_verdict(
            f"bwc.multipartite.m{m}.semi_smooth", label, 1,
            int(smoothness.check_semi_smooth(inst, params, limits=limits).holds), "==",
        )
    )
    if m == 2:
        cce = oracle.worst_cce_value(inst, limits)
        rows.append(make_verdict("bwc.multipartite.m2.worst_cce", label, 14, cce.value, "=="))
        rows.append(
            make_verdict(
                "bwc.multipartite.m2.cce_ratio", label, pota, cce.value / rep.optimum[1], "==",
            )
        )
    return rows


def _path4_rows(limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_path4()
    label = "path4"
    rep = oracle.equilibrium_report(inst, limits)
    strong_values = [v for _, v in rep.strong_ne]
    rows = [
        make_verdict("path4.opt", label, 8, rep.optimum[1], "=="),
        make_verdict("path4.strong_has_opt", label, 1, int(rep.optimum in rep.strong_ne), "=="),
        make_verdict("path4.worst_strong_value", label, 10, max(strong_values), "=="),
        make_verdict("path4.strong_poa", label, Fraction(5, 4), rep.strong_poa, "=="),
        make_verdict(
            "path4.strong_poa_bound", label,
            Fraction(4, 3) + Fraction(2, 3 * inst.n), rep.strong_poa, "<=",
        ),
    ]
    return rows


def _bwf_rows(limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_bwf_cliques(2)
    label = "bwf-cliques(m=2)"
    rep = oracle.equilibrium_report(inst, limits, with_strong=False)
    worst_ne = max(v for _, v in rep.pure_ne)
    return [
        make_verdict("bwf.cliques.m2.opt", label, 8, rep.optimum[1], "=="),
        make_verdict("bwf.cliques.m2.worst_pure_ne", label, 12, worst_ne, "=="),
        make_verdict("bwf.cliques.m2.pure_poa", label, 2 - Fraction(1, 2), rep.poa, "=="),
    ]


def _bwcf_rows(limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_bwcf_lower(2, 1, 1, 1)
    label = "bwcf-lower(m=2,a=1,b=1,g=1)"
    n, m = inst.n, inst.m
    opt_state, opt_value = oracle.optimum(inst, limits)
    profile = uniform_profile(inst)
    expected = (
        inst.alpha * (1 + Fraction(n - 1, m))
        + inst.beta * Fraction(n - m, m)
        + inst.gamma * Fraction((m - 1) ** 2, m)
    )
    mismatches = sum(
        1
        for i in range(1, n + 1)
        for k in range(1, m + 1)
        if oracle.expected_player_value(inst, profile, i, k) != expected
    )
    params, pota = smoothness.certificate_params(
        inst.kind, n, m, inst.alpha, inst.beta, inst.gamma
    )
    mixed_value = sum(
        (oracle.profile_expected_value(inst, profile, i) for i in range(1, n + 1)),
        Fraction(0),
    )
    return [
        make_verdict("bwcf.lower.m2.opt", label, inst.alpha * Fraction(n * n, m), opt_value, "=="),
        make_verdict("bwcf.lower.m2.uniform_value", label, expected, Fraction(4), "=="),
        make_verdict("bwcf.lower.m2.uniform_value_mismatches", label, 0, mismatches, "=="),
        make_verdict(
            "bwcf.lower.m2.uniform_is_mixed_ne", label, 1,
            int(oracle.verify_mixed_ne(inst, profile)), "==",
        ),
        make_verdict("bwcf.lower.m2.mixed_ratio_tight", label, pota, mixed_value / opt_value, "=="),
        make_verdict(
            "bwcf.lower.m2.semi_smooth", label, 1,
            int(smoothness.check_semi_smooth(inst, params, limits=limits).holds), "==",
        ),
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
        bound = Fraction(4, 3) + Fraction(2, 3 * n)
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
        rows.append(
            make_verdict(f"swc.pos.eps{eps.denominator}.unique_ne", label, 1, len(rep.pure_ne), "==")
        )
        rows.append(
            make_verdict(
                f"swc.pos.eps{eps.denominator}.ne_state", label, 1,
                int(rep.pure_ne[0][0] == (1,) * m), "==",
            )
        )
        rows.append(
            make_verdict(f"swc.pos.eps{eps.denominator}.pos", label, expected_pos, rep.pos, "==")
        )
        ratios.append(rep.pos)
    increasing = all(a < b for a, b in zip(ratios, ratios[1:])) and all(r < 2 for r in ratios)
    rows.append(
        make_verdict("swc.pos.monotone_to_2", "swc-pos(m=3) eps sweep", 1, int(increasing), "==")
    )
    return rows


def _swf_rows(limits: OracleLimits) -> list[VerdictReport]:
    inst = gen_swf_nostrong(Fraction(1, 10))
    label = "swf-nostrong(eps=1/10)"
    rep = oracle.equilibrium_report(inst, limits)
    return [
        make_verdict("swf.nostrong.strong_ne_count", label, 0, len(rep.strong_ne), "=="),
        make_verdict("swf.nostrong.has_pure_ne", label, 1, int(len(rep.pure_ne) >= 1), "=="),
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
    rho_max = max(
        smoothness.max_rho_pure_sigma(inst, sigma, limits)
        for sigma in itertools.product((1, 2), repeat=inst.n)
    )
    cce = oracle.worst_cce_value(inst, limits)
    return [
        make_verdict("maxcut.edge.opt", label, 2, opt_value, "=="),
        make_verdict("maxcut.edge.lhs_is_edge_count", label, 0, lhs_bad, "=="),
        make_verdict(
            "maxcut.edge.semi_smooth_half", label, 1,
            int(smoothness.check_semi_smooth(inst, params, limits=limits).holds), "==",
        ),
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
