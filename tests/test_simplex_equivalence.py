"""The integer-tableau simplex against the Fraction reference.

Both run Bland's rule on the same LP, so they must make the same pivots and
return the same exact solution, or raise the same exception.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_simplex
from conflictgames import oracle, simplex
from conflictgames.games import GameKind
from conftest import ALL_KINDS, small_instance

F = Fraction

SETTINGS = settings(max_examples=100, deadline=None)


def _solve_counting(module, lp):
    """(outcome, pivot signs): outcome is (value, x) or the exception name."""
    real = module._pivot
    signs = []

    def counting(tableau, basis, *rest):
        row, col = rest[-2:]
        signs.append(tableau[row][col] < 0)
        return real(tableau, basis, *rest)

    module._pivot = counting
    try:
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
    got, signs = _solve_counting(simplex, lp)
    assert got == expected
    assert len(signs) == len(ref_signs)
    return signs


def cce_pool():
    pool = [small_instance(kind, seed, n_max=3) for kind in ALL_KINDS for seed in range(12)]
    pool.append(small_instance(GameKind.BWC, 0, n_max=4))  # 81 states, 181 pivots
    return pool


def test_worst_cce_lps_match_the_reference(monkeypatch):
    lps = []
    real = simplex.solve

    def recording(**lp):
        lps.append(lp)
        return real(**lp)

    monkeypatch.setattr(simplex, "solve", recording)
    for inst in cce_pool():
        assert inst.m ** inst.n <= 81
        oracle.worst_cce_value(inst)
    monkeypatch.undo()
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
