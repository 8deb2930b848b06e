"""The integer-tableau simplex against the Fraction reference.

Both run Bland's rule on the same LP, so they must make the same pivots and
return the same exact solution, or raise the same exception.  The
pivot-for-pivot tests turn the certificate (``simplex._certified_optimum``)
off, so that the integer solver pivots all the way; with it on, the solver
must return the reference's outcome after a prefix of the reference's pivots.
"""

from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_simplex
from conflictgames import oracle, simplex
from conflictgames.fastpath import max_abs
from conflictgames.games import GameKind
from conflictgames.instances import gen_random
from conftest import ALL_KINDS, small_instance

F = Fraction

SETTINGS = settings(max_examples=100, deadline=None)


class PivotBudgetExceeded(AssertionError):
    """The integer solver pivots more often than the reference did: its
    arithmetic is wrong, and Bland's rule on wrong entries may never stop."""


def _check_budget(pivots, budget):
    if budget is not None and len(pivots) >= budget:
        raise PivotBudgetExceeded(f"more than the reference's {budget} pivots")


@contextmanager
def _certificate(on: bool):
    """The integer solver with its certificate on, or off: then it never
    settles an LP early and makes every pivot of Bland's rule."""
    real = simplex._certified_optimum
    if not on:
        simplex._certified_optimum = lambda *args: None
    try:
        yield
    finally:
        simplex._certified_optimum = real


def _solve_counting(module, lp, budget=None):
    """(outcome, pivot signs): outcome is (value, x) or the exception name.
    With a ``budget``, the pivot after that many raises
    :class:`PivotBudgetExceeded`.  The certificate is off."""
    real = module._pivot
    signs = []

    def counting(tableau, basis, *rest):
        _check_budget(signs, budget)
        row, col = rest[-2:]
        signs.append(tableau[row][col] < 0)
        return real(tableau, basis, *rest)

    module._pivot = counting
    try:
        with _certificate(False):
            sol = module.solve(**lp)
        return (sol.value, sol.x), signs
    except (module.LpInfeasible, module.LpUnbounded) as exc:
        return type(exc).__name__, signs
    finally:
        module._pivot = real


def assert_equivalent(lp) -> list[bool]:
    """Both solvers agree on the outcome and the pivot count; returns the
    integer solver's pivot signs (True for a negative pivot)."""
    expected, ref_signs = _solve_counting(reference_simplex, lp)
    got, signs = _solve_counting(simplex, lp, budget=len(ref_signs))
    assert got == expected
    assert len(signs) == len(ref_signs)
    return signs


def cce_pool():
    pool = [small_instance(kind, seed, n_max=3) for kind in ALL_KINDS for seed in range(12)]
    pool.append(small_instance(GameKind.BWC, 0, n_max=4))  # 81 states, 181 pivots
    return pool


class _Recorded(Exception):
    pass


def _cce_lp(inst) -> dict:
    """The LP that ``oracle.worst_cce_value(inst)`` solves, taken from its
    call to ``simplex.solve``, which is never made: every integer solve
    happens under a pivot budget."""
    lps = []

    def recording(**lp):
        lps.append(lp)
        raise _Recorded

    real = simplex.solve
    simplex.solve = recording
    try:
        oracle.worst_cce_value(inst)
    except _Recorded:
        pass
    finally:
        simplex.solve = real
    [lp] = lps
    return lp


def test_worst_cce_lps_match_the_reference():
    lps = []
    for inst in cce_pool():
        assert inst.m ** inst.n <= 81
        lps.append(_cce_lp(inst))
    assert {len(lp["objective"]) for lp in lps} >= {1, 27, 81}
    for lp in lps:
        assert all(type(v) is int for v in lp["objective"])
        assert_equivalent(lp)


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def lps(draw, redundant: bool = False):
    nvars = draw(st.integers(1, 4))
    row = st.lists(fractions, min_size=nvars, max_size=nvars)
    a_eq = draw(st.lists(row, min_size=1 if redundant else 0, max_size=2))
    # zero right-hand sides make degenerate vertices, where an artificial
    # can stay basic at zero after phase 1
    rhs = st.one_of(st.just(F(0)), fractions)
    b_eq = draw(st.lists(rhs, min_size=len(a_eq), max_size=len(a_eq)))
    if redundant:
        # rows that are combinations of earlier ones: feasible or not, the
        # system has fewer independent rows than rows
        for _ in range(draw(st.integers(1, 2))):
            weights = draw(st.lists(fractions, min_size=len(a_eq), max_size=len(a_eq)))
            a_eq.append([sum(w * line[j] for w, line in zip(weights, a_eq)) for j in range(nvars)])
            b_eq.append(sum(w * b for w, b in zip(weights, b_eq)))
    a_ge = draw(st.lists(row, max_size=3))
    b_ge = draw(st.lists(rhs, min_size=len(a_ge), max_size=len(a_ge)))
    return dict(objective=draw(row), a_eq=a_eq, b_eq=b_eq, a_ge=a_ge, b_ge=b_ge,
                maximize=draw(st.booleans()))


@SETTINGS
@given(lps())
def test_small_fraction_lps_match_the_reference(lp):
    assert_equivalent(lp)


@SETTINGS
@given(lps(redundant=True))
def test_redundant_equality_rows_match_the_reference(lp):
    assert_equivalent(lp)


def test_negative_pivot_and_dropped_row():
    # row 3 = row 1 + row 2, so one artificial stays basic at zero: phase 1
    # drives one out on a negative entry and drops the redundant row
    lp = dict(objective=[1, F(1, 2)], a_eq=[[0, -1], [2, 2], [2, 1]], b_eq=[0, 2, 2])
    signs = assert_equivalent(lp)
    assert any(signs)
    sol = simplex.solve(**lp)
    assert sol.x == (F(1), F(0))
    assert sol.value == 1


@pytest.mark.parametrize("lp, error", [
    (dict(objective=[1], a_eq=[[1]], b_eq=[2], a_ge=[[-1]], b_ge=[-1]), "LpInfeasible"),
    (dict(objective=[1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[1, 3]), "LpInfeasible"),
    (dict(objective=[F(1, 2)], a_ge=[[1]], b_ge=[0], maximize=True), "LpUnbounded"),
    (dict(objective=[-1, 0], a_eq=[[1, -1]], b_eq=[F(1, 3)]), "LpUnbounded"),
])
def test_infeasible_and_unbounded_raise_alike(lp, error):
    assert_equivalent(lp)
    with pytest.raises(getattr(simplex, error)):
        simplex.solve(**lp)


# ---------------------------------------------------------------------------
# the int64 tableau and its one-way switch to object


def _solve_tracing(module, lp, budget=None, certify=False):
    """(outcome, pivots, dtypes): one (row, col, negative) per pivot, and the
    dtype of each tableau the integer solver's pivot returned.  With a
    ``budget``, the pivot after that many raises :class:`PivotBudgetExceeded`.
    The certificate is on only with ``certify``."""
    real = module._pivot
    pivots, dtypes = [], []

    def tracing(tableau, basis, *rest):
        _check_budget(pivots, budget)
        row, col = rest[-2:]
        pivots.append((row, col, bool(tableau[row][col] < 0)))
        out = real(tableau, basis, *rest)
        if module is simplex:
            dtypes.append(out[0].dtype)
        return out

    module._pivot = tracing
    try:
        with _certificate(certify):
            sol = module.solve(**lp)
        return (sol.value, sol.x), pivots, dtypes
    except (module.LpInfeasible, module.LpUnbounded) as exc:
        return type(exc).__name__, pivots, dtypes
    finally:
        module._pivot = real


def assert_same_pivots(lp) -> list:
    """Both solvers make the same pivots, in order and sign, and agree on the
    outcome; returns the dtype of the integer tableau after each pivot, which
    switches from int64 to object at most once and never back."""
    expected, ref_pivots, _ = _solve_tracing(reference_simplex, lp)
    got, pivots, dtypes = _solve_tracing(simplex, lp, budget=len(ref_pivots))
    assert got == expected
    assert pivots == ref_pivots
    switched = [dtype == object for dtype in dtypes]
    assert switched == sorted(switched)
    return dtypes


def _scaled(lp, factor):
    """The LP with every constraint row and right-hand side times factor:
    the same pivots, the same solution, larger tableau entries."""
    return dict(
        lp,
        a_eq=[[factor * v for v in row] for row in lp.get("a_eq", ())],
        b_eq=[factor * v for v in lp.get("b_eq", ())],
        a_ge=[[factor * v for v in row] for row in lp.get("a_ge", ())],
        b_ge=[factor * v for v in lp.get("b_ge", ())],
    )


def test_sharing_cce_lp_switches_to_object_partway():
    # SwC n=3 m=3: three pivots on int64, then 66 on object
    inst = small_instance(GameKind.SWC, 1, n_max=3)
    assert (inst.n, inst.m) == (3, 3)
    dtypes = assert_same_pivots(_cce_lp(inst))
    assert dtypes[0] == np.int64 and dtypes[-1] == object


def test_complete_bwc_cce_lp_stays_on_int64():
    # BwC(n=3, m=4, p=1): the benchmark's slowest lp slot
    inst = gen_random(3, 4, GameKind.BWC, F(1), seed=1)
    dtypes = assert_same_pivots(_cce_lp(inst))
    assert len(dtypes) > 100
    assert all(dtype == np.int64 for dtype in dtypes)


def test_sharing_pool_cce_lps_end_on_object():
    # the value scale d * lcm(1..n) makes the minors outgrow int64 by n = 3
    ended = []
    for kind in (GameKind.SWC, GameKind.SWF):
        for seed in range(12):
            inst = small_instance(kind, seed, n_max=3)
            dtypes = assert_same_pivots(_cce_lp(inst))
            if kind is GameKind.SWC and inst.n == 3:
                ended.append(dtypes[-1])
    assert len(ended) == 4 and all(dtype == object for dtype in ended)


@SETTINGS
@given(lps(), st.sampled_from([2**20, 3**19, 2**40, 2**70]))
def test_scaled_lps_match_the_reference_pivot_for_pivot(lp, factor):
    assert_same_pivots(_scaled(lp, factor))


@pytest.mark.parametrize(
    "factor, first",
    [(1, np.int64), (2**40, object), (2**70, object), pytest.param(2**1100, object, id="2**1100")],
)
def test_negative_pivot_and_dropped_row_on_either_dtype(factor, first):
    # the LP of test_negative_pivot_and_dropped_row: int64 throughout, on
    # object from the first pivot, and on object from the start, the last
    # past float64's range (the certificate's floats refuse it)
    lp = _scaled(
        dict(objective=[1, F(1, 2)], a_eq=[[0, -1], [2, 2], [2, 1]], b_eq=[0, 2, 2]), factor
    )
    dtypes = assert_same_pivots(lp)
    assert dtypes[0] == first
    _, pivots, _ = _solve_tracing(simplex, lp, budget=len(dtypes))
    assert any(negative for _, _, negative in pivots)
    sol = simplex.solve(**lp)
    assert sol.x == (F(1), F(0))
    assert sol.value == 1


# ---------------------------------------------------------------------------
# the certificate: settled early, or refused and Bland's rule goes on


def assert_settles_alike(lp) -> tuple[int, int]:
    """With the certificate on, the integer solver returns the reference's
    outcome after a prefix of the reference's pivots; returns how many
    pivots each made."""
    expected, ref_pivots, _ = _solve_tracing(reference_simplex, lp)
    got, pivots, _ = _solve_tracing(simplex, lp, budget=len(ref_pivots), certify=True)
    assert got == expected
    assert pivots == ref_pivots[: len(pivots)]
    return len(pivots), len(ref_pivots)


def test_worst_cce_lps_settle_as_the_reference():
    counts = [assert_settles_alike(_cce_lp(inst)) for inst in cce_pool()]
    assert any(made < by_reference for made, by_reference in counts)


@SETTINGS
@given(st.one_of(lps(), lps(redundant=True)))
def test_small_fraction_lps_settle_as_the_reference(lp):
    assert_settles_alike(lp)


@SETTINGS
@given(lps(), st.sampled_from([2**20, 3**19, 2**40, 2**70]))
def test_scaled_lps_settle_as_the_reference(lp, factor):
    assert_settles_alike(_scaled(lp, factor))


def _tries(lp):
    """The integer solver with the certificate on: its pivots, the dtype of
    each tableau they returned, and what each try of the certificate
    returned."""
    real, tries = simplex._certified_optimum, []

    def recording(*args):
        tries.append(real(*args))
        return tries[-1]

    simplex._certified_optimum = recording
    try:
        _, pivots, dtypes = _solve_tracing(simplex, lp, certify=True)
    finally:
        simplex._certified_optimum = real
    return pivots, dtypes, tries


def test_certificate_settles_a_sharing_cce_lp_on_int64():
    # the LP of test_sharing_cce_lp_switches_to_object_partway: its one try
    # comes before the first object pivot and settles it
    lp = _cce_lp(small_instance(GameKind.SWC, 1, n_max=3))
    made, by_reference = assert_settles_alike(lp)
    pivots, dtypes, tries = _tries(lp)
    assert len(tries) == 1 and tries[0] is not None
    assert 0 < len(pivots) == made < by_reference
    assert all(dtype == np.int64 for dtype in dtypes)


def test_certificate_refusal_leaves_bland_pivot_for_pivot():
    # SwC n=2 m=3: the optimum is not unique, so the one try is refused and
    # Bland's rule goes on from where it stopped, onto object
    inst = small_instance(GameKind.SWC, 10, n_max=3)
    assert (inst.n, inst.m) == (2, 3)
    lp = _cce_lp(inst)
    expected, ref_pivots, _ = _solve_tracing(reference_simplex, lp)
    pivots, dtypes, tries = _tries(lp)
    assert tries == [None]
    assert pivots == ref_pivots
    assert dtypes[0] == np.int64 and dtypes[-1] == object
    assert _solve_tracing(simplex, lp, certify=True)[0] == expected


def _fraction_tableau(lp: simplex._Standard, basis):
    """The rational tableau of the standard form at ``basis``, objective
    row last, pivoted there by the reference's Fraction pivots; and the
    basic column of each row.  None when the basis is singular."""
    nrows, width = lp.rows.shape
    tableau = [[F(int(v)) for v in line] for line in lp.rows]
    tableau.append([F(c) for c in lp.cost] + [F(0)] * (width - lp.nvars))
    at = [None] * nrows
    for col in basis:
        row = next((r for r in range(nrows) if at[r] is None and tableau[r][col] != 0), None)
        if row is None:
            return None
        reference_simplex._pivot(tableau, at, row, col)
    return tableau, at


def _basic_x(lp: simplex._Standard, tableau, at) -> tuple:
    """The structural x of the rational tableau at the basis ``at``."""
    x = [F(0)] * lp.nvars
    for row, col in enumerate(at):
        if col < lp.nvars:
            x[col] = tableau[row][-1]
    return tuple(x)


@SETTINGS
@given(st.one_of(lps(), lps(redundant=True)), st.sampled_from([1, 2**70]))
def test_certified_optimum_is_unique_and_the_references(lp, factor):
    lp = _scaled(lp, factor)
    form = simplex._standard_form(**lp)
    nrows, width = form.rows.shape
    real, proposals = simplex._propose, []

    def recording(*args):
        proposals.append(real(*args))
        return proposals[-1]

    simplex._propose = recording
    try:
        sol = simplex._certified_optimum(form, form.rows, [width - 1 + r for r in range(nrows)], 1)
    finally:
        simplex._propose = real
    if sol is None:
        return
    [basis] = proposals
    tableau, at = _fraction_tableau(form, basis)
    assert all(line[-1] >= 0 for line in tableau[:-1])
    assert all(tableau[-1][j] > 0 for j in range(width - 1) if j not in basis)
    expected = reference_simplex.solve(**lp)
    assert sol.x == _basic_x(form, tableau, at) == expected.x
    assert sol.value == expected.value


@SETTINGS
@given(st.one_of(lps(), lps(redundant=True)), st.sampled_from([1, 2**40, 2**70]), st.data())
def test_certify_decides_any_basis_as_the_fraction_tableau(lp, factor, data):
    # any nrows columns, not only the float proposals, which the exact check
    # almost never refuses on the benchmark's LPs: it accepts exactly the
    # nonsingular bases whose rational tableau has rhs >= 0 and every
    # nonbasic reduced cost > 0, on int64, switching to object, and on object
    lp = _scaled(lp, factor)
    form = simplex._standard_form(**lp)
    nrows, width = form.rows.shape
    ncols = width - 1
    # without repeats where there are enough columns, so that most are bases
    basis = data.draw(st.lists(
        st.integers(0, ncols - 1), min_size=nrows, max_size=nrows, unique=ncols >= nrows
    ))
    certified = simplex._certify(form, basis)
    reference = _fraction_tableau(form, basis)
    if reference is None:
        assert certified is None
        return
    tableau, at = reference
    optimal = all(line[-1] >= 0 for line in tableau[:-1]) and all(
        tableau[-1][j] > 0 for j in range(ncols) if j not in basis
    )
    assert (certified is not None) == optimal
    if optimal:
        sol = simplex._solution(form, *certified)
        assert sol.x == _basic_x(form, tableau, at)
        assert sol.value == sum(F(c) * v for c, v in zip(lp["objective"], sol.x))


def _same_solution(lp):
    """The integer solver, with the certificate on, returns the reference's
    exact value and point."""
    got, want = simplex.solve(**lp), reference_simplex.solve(**lp)
    assert (got.value, got.x) == (want.value, want.x)


def test_phase_1_sums_past_int64_start_on_object():
    # every entry fits int64, but the phase-1 row sums four rows of 2^61:
    # (nrows + 1) * max reaches 2^63, so the rows start on object
    big = 1 << 61
    lp = dict(objective=[1, 2, 3], a_ge=[[big, 1, 0], [0, big, 1], [1, 0, big]], b_ge=[big] * 3)
    form = simplex._standard_form(lp["objective"], (), (), lp["a_ge"], lp["b_ge"], False)
    assert form.rows.dtype == object and max_abs(form.rows) < simplex._INT64_BOUND
    assert (len(form.rows) + 1) * max_abs(form.rows) >= simplex._INT64_BOUND
    _same_solution(lp)
    assert_equivalent(lp)


def test_priced_phase_2_row_past_int64_turns_the_tableau_object():
    # small rows keep phase 1 on int64 (d = 5 after it), and d times an
    # objective near 2^62 passes int64 in the priced phase-2 row: that is
    # the certificate's one try, then Bland's rule goes on on object
    c = 1 << 62
    lp = dict(objective=[c, c + 1], a_ge=[[2, 1], [1, 3]], b_ge=[1, 1])
    real_priced, real_try = simplex._priced, simplex._certified_optimum
    events = []

    def priced(lp, tableau, basis, d):
        row = real_priced(lp, tableau, basis, d)
        events.append(("priced", tableau.dtype, max_abs(row)))
        return row

    def tried(*args):
        events.append(("try", args[1].dtype))
        return real_try(*args)

    simplex._priced, simplex._certified_optimum = priced, tried
    try:
        _same_solution(lp)
    finally:
        simplex._priced, simplex._certified_optimum = real_priced, real_try
    # the first priced row is phase 2's, on the int64 tableau, and its only
    # way on is to_object's try of the certificate
    kind, dtype, size = events[0]
    assert kind == "priced" and dtype == np.int64 and size >= simplex._INT64_BOUND
    assert events[1] == ("try", np.int64)
    assert_equivalent(lp)
