"""The exact simplex: known optima, degeneracy, infeasibility, unboundedness."""

from fractions import Fraction

import numpy as np
import pytest

from conflictgames.simplex import LpInfeasible, LpUnbounded, _divide_exact, _integer_lines, solve

F = Fraction


def test_simple_maximization():
    # max x + y  s.t. x + 2y <= 4 (as >= with negation), x <= 3, y <= 3
    # rewrite: -x - 2y >= -4; -x >= -3; -y >= -3
    sol = solve(
        objective=[1, 1],
        a_ge=[[-1, -2], [-1, 0], [0, -1]],
        b_ge=[-4, -3, -3],
        maximize=True,
    )
    assert sol.value == F(7, 2)  # x = 3, y = 1/2
    assert sol.x == (F(3), F(1, 2))


def test_equality_constraint():
    # min 2x + 3y  s.t. x + y = 10, x >= 4  ->  x = 10, y = 0? x>=4 only lower
    sol = solve(objective=[2, 3], a_eq=[[1, 1]], b_eq=[10], a_ge=[[1, 0]], b_ge=[4])
    assert sol.value == 20
    assert sol.x == (F(10), F(0))


def test_degenerate_lp_terminates_with_bland():
    # Beale's cycling example (cycles under naive pivoting)
    sol = solve(
        objective=[F(-3, 4), 150, F(-1, 50), 6],
        a_ge=[
            [-F(1, 4), 60, F(1, 25), -9],
            [-F(1, 2), 90, F(1, 50), -3],
            [0, 0, -1, 0],
        ],
        b_ge=[0, 0, -1],
    )
    assert sol.value == F(-1, 20)


def test_infeasible():
    with pytest.raises(LpInfeasible):
        solve(objective=[1], a_eq=[[1]], b_eq=[2], a_ge=[[-1]], b_ge=[-1])


def test_unbounded():
    with pytest.raises(LpUnbounded):
        solve(objective=[1], a_ge=[[1]], b_ge=[0], maximize=True)


def test_right_hand_sides_must_match_their_rows():
    # the b_ge entry 3 used to be paired with the a_eq row
    with pytest.raises(ValueError, match=r"len\(b_eq\) = 0 != len\(a_eq\) = 1"):
        solve(objective=[1], a_eq=[[1]], b_eq=[], a_ge=[[1]], b_ge=[3, 2])


def test_right_hand_sides_must_match_their_ge_rows():
    with pytest.raises(ValueError, match=r"len\(b_ge\) = 1 != len\(a_ge\) = 2"):
        solve(objective=[1, 1], a_ge=[[1, 0], [0, 1]], b_ge=[1])


@pytest.mark.parametrize(
    "rows", [dict(a_eq=[[1, 2, 3]], b_eq=[1]), dict(a_ge=[[1, 1], [1]], b_ge=[1, 1])]
)
def test_rows_must_have_one_entry_per_variable(rows):
    with pytest.raises(ValueError, match="entries, not len\\(objective\\) = 2"):
        solve(objective=[1, 1], **rows)


def test_entries_past_float64_stay_exact():
    # the tableau starts on object, and the certificate's float64 proposal
    # cannot hold the cost: it refuses, and Bland's pivots decide
    sol = solve(objective=[2**1100, 1], a_eq=[[2**70, 2**70]], b_eq=[2**70])
    assert sol.value == 1
    assert sol.x == (F(0), F(1))


def test_fractional_data_stays_exact():
    sol = solve(
        objective=[F(1, 3), F(1, 7)],
        a_eq=[[1, 1]],
        b_eq=[1],
        maximize=True,
    )
    assert sol.value == F(1, 3)
    assert sum(sol.x) == 1


def test_solution_satisfies_constraints():
    a_ge = [[2, -1, 1], [-1, -1, -1]]
    b_ge = [1, -5]
    sol = solve(objective=[1, 2, 3], a_ge=a_ge, b_ge=b_ge, maximize=True)
    for row, b in zip(a_ge, b_ge):
        assert sum(c * x for c, x in zip(row, sol.x)) >= b
    assert all(x >= 0 for x in sol.x)


def test_integer_arrays_pass_through_unconverted():
    small = np.array([3, -1], dtype=np.int64)
    huge = np.array([2**70, 1], dtype=object)
    lines, scale = _integer_lines([small, huge, [1, 2]])
    assert scale == 1
    assert lines[0] is small and lines[1] is huge
    # a rational line scales the arrays too, on Python ints
    lines, scale = _integer_lines([small, huge, [F(1, 2), 1]])
    assert scale == 2
    assert lines == [[6, -2], [2**71, 2], [1, 2]]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_array_input_matches_lists(dtype):
    a_ge = [[2, -1, 1], [-1, -1, -1]]
    b_ge = [1, -5]
    expected = solve(objective=[1, 2, 3], a_ge=a_ge, b_ge=b_ge, maximize=True)
    sol = solve(
        objective=np.array([1, 2, 3], dtype=dtype),
        a_ge=np.array(a_ge, dtype=dtype),
        b_ge=b_ge,
        maximize=True,
    )
    assert sol == expected
    assert all(type(v.numerator) is int for v in (sol.value, *sol.x))


@pytest.mark.parametrize("d, bound", [
    (3**30, 2**40),  # odd: the products pass 2^64 and wrap
    (2**45 * 3, 2**17),  # 45 twos leave 19 bits, one of them the sign
    (7 * 2**10, 2**52),
    (2**61, 2),
])
def test_exact_division_of_wrapped_multiples(d, bound):
    rng = np.random.default_rng(d % 1000)
    quotients = rng.integers(-bound, bound, size=200, dtype=np.int64)
    quotients[:2] = (-bound, bound - 1)
    # the multiples modulo 2^64, as int64 holds them after wrapping
    held = np.array(
        [(int(q) * d + 2**63) % 2**64 - 2**63 for q in quotients], dtype=np.int64
    )
    _divide_exact(held, d)
    assert held.tolist() == quotients.tolist()
