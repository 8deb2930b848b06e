"""Two-phase simplex with Bland's rule on a fraction-free integer tableau.

Solves  min/max c.x  subject to  A_eq x = b_eq,  A_ge x >= b_ge,  x >= 0,
exactly.  The constraint data are scaled by the lcm of all their
denominators and the objective by the lcm of its own, so the tableau holds
integers; integer arrays and lines of ints pass through unconverted.  One
scale for all rows keeps the phase-1 reduced costs, and with them the
pivots, those of the unscaled LP.

The tableau is one 2-D numpy array, constraint rows first and the objective
row last.  Every row shares one positive denominator ``d``, the absolute
value of the basis determinant: the rational tableau is ``T / d``.  A pivot
at (row, col) with ``p = T[row, col]`` is three whole-array operations,
``T = (p*T - outer(T[:, col], T[row])) // d``, after which the pivot row is
put back as it was, ``d`` becomes ``|p|`` and, when ``p < 0``, the whole
tableau is negated.  By Sylvester's identity every entry stays a minor of
the input, so each division is exact (Bareiss, *Sylvester's identity and
multistep integer-preserving Gaussian elimination*, Math. Comp. 1968).

dtype: the tableau starts as int64 when its entries and the phase-1 sums
fit.  Every quotient of a pivot is at most ``B / d`` in magnitude, with
``B = |p|·max|T| + max|T[:, col]|·max|T[row]|``.  While that bound is below
``2^(63 - k)``, ``2^k`` the largest power of two dividing ``d``, the pivot
runs on int64: the products may wrap modulo 2^64, but each quotient is a
whole number, so multiplying by the inverse of ``d``'s odd part modulo 2^64
and shifting out ``k`` bits recovers it exactly (:func:`_divide_exact`).  The
first pivot whose bound fails turns the tableau into ``dtype=object`` (exact
Python ints) for the rest of the solve; the phase-2 objective row, priced
out on Python ints, does the same if it does not fit.  Both dtypes hold the
same exact values, and Bland's rule reads only signs and ratio comparisons,
which the ratio test cross-multiplies on Python ints, so the pivot sequence
is that of the rational tableau on either dtype.  Artificial columns are
never read once phase 1 starts, so they are not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .fastpath import _INT64_BOUND, max_abs


class LpInfeasible(Exception):
    pass


class LpUnbounded(Exception):
    pass


@dataclass(frozen=True)
class LpSolution:
    value: Fraction
    x: tuple[Fraction, ...]


def _divide_exact(a: np.ndarray, d: int) -> None:
    """``a //= d`` in place on int64, where every true value of ``a`` is a
    multiple of ``d`` and ``a`` holds it modulo 2^64.  With ``d = 2^k * o``,
    ``o`` odd, times the inverse of ``o`` modulo 2^64 each entry becomes
    ``2^k`` times its quotient modulo 2^64, and an arithmetic shift by ``k``
    leaves the quotient (Jebelean, *An algorithm for exact division*, J.
    Symbolic Comput. 1993).  Exact when every quotient has magnitude below
    ``2^(63 - k)``."""
    twos = (d & -d).bit_length() - 1
    inverse = pow(d >> twos, -1, 1 << 64)
    a *= inverse - (1 << 64) if inverse >> 63 else inverse
    if twos:
        a >>= twos


def _int64_holds(tableau: np.ndarray, p: int, column, prow, d: int) -> bool:
    """Whether every numerator ``p*v - f*w`` of this pivot on the int64
    tableau stays below ``d * 2^(63 - k)`` in magnitude, so that
    :func:`_divide_exact` recovers every quotient.

    The bound ``B`` of the module docstring decides first.  Where it fails,
    the numerators computed in float64 decide: each is off by less than
    ``4.1 * 2^-53 * B`` (two conversions and a product per term, then the
    difference), far inside the ``2^-47 * B`` margin taken."""
    limit = d << (63 - ((d & -d).bit_length() - 1))
    big = max_abs(tableau)
    if (abs(p) + big) * big < limit:  # needs no pass but the one for big
        return True
    bound = abs(p) * big + max_abs(column) * max_abs(prow)
    if bound < limit:
        return True
    floats = float(p) * tableau.astype(np.float64)
    floats -= column.astype(np.float64)[:, None] * prow.astype(np.float64)
    return int(np.abs(floats).max()) + (bound >> 47) < limit


def _pivot(tableau: np.ndarray, basis: list[int], d: int, row: int, col: int):
    """Pivot on (row, col); returns the new tableau and common denominator.

    The tableau switches to ``dtype=object`` here, for good, once int64 is
    not proven to hold this pivot's quotients."""
    prow, column = tableau[row], tableau[:, col]
    p = int(prow[col])
    if tableau.dtype != object and not _int64_holds(tableau, p, column, prow, d):
        tableau = tableau.astype(object)
        prow, column = tableau[row], tableau[:, col]
    out = p * tableau
    out -= column[:, None] * prow
    if out.dtype == object:
        out //= d
    elif d != 1:
        _divide_exact(out, d)
    out[row] = prow
    basis[row] = col
    if p < 0:  # only when an artificial is driven out after phase 1
        np.negative(out, out=out)
        p = -p
    return out, p


def _run_simplex(tableau: np.ndarray, basis: list[int], d: int, ncols: int):
    """Minimize; the objective row is tableau[-1] with reduced costs in front
    and the (negated) objective value in the last column.  Returns the final
    tableau and ``d``."""
    while True:
        # Bland: entering variable = lowest index with a negative reduced cost
        negative = (tableau[-1, :ncols] < 0).nonzero()[0]
        if not negative.size:
            return tableau, d
        col = int(negative[0])
        row = None
        # Python ints, so the cross-products below are exact on either dtype
        column, last = tableau[:-1, col].tolist(), tableau[:-1, -1].tolist()
        for r, a in enumerate(column):
            if a > 0:
                # rhs/a < best_rhs/best_a, cross-multiplied (both a positive)
                if row is None:
                    row, best_rhs, best_a = r, last[r], a
                    continue
                lhs, rhs = last[r] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[row]):
                    row, best_rhs, best_a = r, last[r], a
        if row is None:
            raise LpUnbounded(f"column {col} can increase without bound")
        tableau, d = _pivot(tableau, basis, d, row, col)


def _integral(line) -> bool:
    if isinstance(line, np.ndarray) and line.dtype.kind == "i":
        return True
    return all(type(v) is int for v in line)


def _integer_lines(lines: list) -> tuple[list, int]:
    """The lines times the lcm of all their denominators, and that lcm.

    Each line is an integer numpy array or a sequence of ints and
    Fractions.  Rewrites ``lines`` in place; integer arrays and lines of
    ints (object arrays of them too) pass through unconverted.
    """
    rational = {r for r, line in enumerate(lines) if not _integral(line)}
    for r in rational:
        lines[r] = [Fraction(v) for v in lines[r]]
    scale = lcm(*{v.denominator for r in rational for v in lines[r]})
    for r, line in enumerate(lines):
        if r in rational:
            lines[r] = [v.numerator * (scale // v.denominator) for v in line]
        elif scale != 1:
            lines[r] = [int(v) * scale for v in line]
    return lines, scale


def _array(rows: list, width: int) -> np.ndarray:
    """The integer rows as one (len(rows), width) array: int64 when every
    entry fits, else object."""
    try:
        out = np.array(rows, dtype=np.int64)
    except OverflowError:
        out = np.array(rows, dtype=object)
    return out.reshape(len(rows), width)


def solve(
    objective: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
    a_ge: Sequence[Sequence[Fraction]] = (),
    b_ge: Sequence[Fraction] = (),
    maximize: bool = False,
) -> LpSolution:
    """Solve the LP; raises LpInfeasible / LpUnbounded accordingly."""
    nvars = len(objective)
    [cost], cost_scale = _integer_lines([objective])
    cost = [-int(c) if maximize else int(c) for c in cost]

    # Rows as coeffs | rhs, all scaled by one factor.
    neq = len(a_eq)
    lines, _ = _integer_lines([*a_eq, *a_ge, [*b_eq, *b_ge]])
    *rows, rhs = lines
    nrows = len(rows)
    lines = np.hstack((_array(rows, nvars), _array([rhs], nrows).T))
    # the phase-1 row sums every row, so all of them must fit int64 at once
    if lines.dtype != object and (nrows + 1) * max_abs(lines) >= _INT64_BOUND:
        lines = lines.astype(object)

    # Normalize to rhs >= 0: a ">=" row with a negative rhs becomes "<=".
    flip = lines[:, -1] < 0
    lines[flip] = -lines[flip]

    # Columns: structural | slack/surplus (one per non-eq row) | rhs.  The
    # artificial of row r has the index art_start + r in `basis` only.
    art_start = nvars + nrows - neq
    tableau = np.zeros((nrows + 1, art_start + 1), dtype=lines.dtype)
    tableau[:nrows, :nvars] = lines[:, :-1]
    tableau[:nrows, -1] = lines[:, -1]
    tableau[range(neq, nrows), range(nvars, art_start)] = np.where(flip[neq:], 1, -1)
    basis = [art_start + r for r in range(nrows)]

    # Phase 1: minimize the sum of artificials.
    tableau[-1] = -tableau[:-1].sum(0)
    tableau, d = _run_simplex(tableau, basis, 1, art_start)  # artificials never re-enter
    if tableau[-1, -1] != 0:
        raise LpInfeasible("artificial variables cannot be driven to zero")
    tableau = tableau[:-1]

    # Drive any basic artificial out of the basis (or drop a redundant row).
    for r in range(len(basis) - 1, -1, -1):
        if basis[r] >= art_start:
            nonzero = np.flatnonzero(tableau[r, :art_start])
            if not nonzero.size:
                tableau = np.delete(tableau, r, 0)
                basis.pop(r)
            else:
                tableau, d = _pivot(tableau, basis, d, r, int(nonzero[0]))

    # Phase 2 on the real objective, with basic columns priced out:
    # d * (c - c_B B^-1 A), an integer row, computed on Python ints.
    obj = np.array([d * c for c in cost] + [0] * (art_start - nvars + 1), dtype=object)
    priced = [(r, cost[b]) for r, b in enumerate(basis) if b < nvars and cost[b] != 0]
    if priced:
        rows, factors = zip(*priced)
        obj -= np.array(factors, dtype=object) @ tableau[list(rows)].astype(object)
    if tableau.dtype != object and max_abs(obj) < _INT64_BOUND:
        obj = obj.astype(np.int64)
    else:
        tableau = tableau.astype(object)
    tableau, d = _run_simplex(np.vstack((tableau, obj)), basis, d, art_start)

    x = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(int(tableau[r, -1]), d)
    value = Fraction(-int(tableau[-1, -1]), d * cost_scale)
    if maximize:
        value = -value
    return LpSolution(value=value, x=tuple(x))
