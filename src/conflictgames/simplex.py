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

Certified optimum: where the solve would first run on ``object`` (that
pivot, the phase-2 objective row, or a tableau that starts there), it first
tries :func:`_certified_optimum`, the inexact-basis, exact-verification
scheme of Applegate, Cook, Dash and Espinoza (*Exact solutions to linear
programming problems*, Oper. Res. Lett. 2007).  A float64 simplex proposes
a final basis ``B`` from the current tableau; it decides nothing.  The
same fraction-free step, :func:`_bareiss`, then pivots the scaled standard
form to ``B`` (:func:`_certify`), and the exact tableau it reaches shows
whether ``B`` is nonsingular, whether ``x_B = B^-1 b >= 0`` (its
right-hand side), and whether every nonbasic reduced cost
``c_j - c_B B^-1 A_j`` is strictly positive (its phase-2 objective row,
priced by :func:`_priced` as the solve's own).  Then every feasible
``x`` costs ``c.x_B`` plus a positive multiple of each nonbasic ``x_j``, so
an optimum has every nonbasic ``x_j = 0`` and is ``x_B`` itself: the
optimum is unique (Mangasarian, *Uniqueness of solution in linear
programming*, Linear Algebra Appl. 1979).  Bland's rule ends at an optimum
too, so its answer is this one, bit for bit, and the solve returns it
without the pivots.  When any check fails, or the floats do not reach such
a basis (a zero reduced cost, often: the optimum need not be unique), the
solve goes on from where it stopped, exactly as without the try.  An LP
that stays on int64 never tries; one that leaves it tries once.  No exact
pivot ever reads a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .fastpath import _INT64_BOUND, max_abs

# float64 proposals: entries and reduced costs within this of 0 count as 0,
# and a proposal that takes more pivots than this many per column is refused
_TOL = 1e-9
_FLOAT_PIVOTS_PER_COLUMN = 4


class LpInfeasible(Exception):
    pass


class LpUnbounded(Exception):
    pass


@dataclass(frozen=True)
class LpSolution:
    value: Fraction
    x: tuple[Fraction, ...]


@dataclass(frozen=True)
class _Standard:
    """The scaled LP  min cost.x  s.t.  rows[:, :-1] x = rows[:, -1] >= 0,
    x >= 0.  ``rows`` holds the structural columns, then one surplus (or
    slack) column per ``>=`` row, then the right-hand side; ``cost`` covers
    the structural columns (surplus columns cost 0) and is negated when the
    LP maximizes.  Nothing writes to ``rows`` once it is built."""

    rows: np.ndarray
    cost: list[int]
    cost_scale: int
    maximize: bool

    @property
    def nvars(self) -> int:
        return len(self.cost)


class _Certified(Exception):
    """Carries a certified optimum out of the exact solve that tried it."""

    def __init__(self, solution: LpSolution):
        self.solution = solution


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


def _int64_holds(tableau: np.ndarray, d: int, row: int, col: int) -> bool:
    """Whether every numerator ``p*v - f*w`` of the pivot at (row, col) on
    the int64 tableau stays below ``d * 2^(63 - k)`` in magnitude, so that
    :func:`_divide_exact` recovers every quotient.

    The bound ``B`` of the module docstring decides first.  Where it fails,
    the numerators computed in float64 decide: each is off by less than
    ``4.1 * 2^-53 * B`` (two conversions and a product per term, then the
    difference), far inside the ``2^-47 * B`` margin taken."""
    prow, column = tableau[row], tableau[:, col]
    p = int(prow[col])
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


def _bareiss(tableau: np.ndarray, d: int, row: int, col: int):
    """The fraction-free Gauss-Jordan step on (row, col), on the tableau's
    own dtype; returns the new tableau and common denominator, made
    positive.  An int64 tableau must hold the step."""
    prow, column = tableau[row], tableau[:, col]
    p = int(prow[col])
    out = p * tableau
    out -= column[:, None] * prow
    if out.dtype == object:
        out //= d
    elif d != 1:
        _divide_exact(out, d)
    out[row] = prow
    if p < 0:  # in the solve only when an artificial is driven out after phase 1
        np.negative(out, out=out)
        p = -p
    return out, p


def _pivot(tableau: np.ndarray, basis: list[int], d: int, row: int, col: int):
    """One LP pivot, :func:`_bareiss` with ``col`` entering the basis at
    ``row``; an int64 tableau must hold it (:func:`_step` checks)."""
    basis[row] = col
    return _bareiss(tableau, d, row, col)


def _step(tableau: np.ndarray, basis: list[int], d: int, row: int, col: int, to_object):
    """:func:`_pivot` on (row, col), on int64 while :func:`_int64_holds`
    proves it safe.  The first pivot it does not turns the tableau into
    ``dtype=object`` for good, through ``to_object(tableau, d)``."""
    if tableau.dtype != object and not _int64_holds(tableau, d, row, col):
        tableau = to_object(tableau, d)
    return _pivot(tableau, basis, d, row, col)


def _run_simplex(tableau: np.ndarray, basis: list[int], d: int, ncols: int, to_object):
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
        tableau, d = _step(tableau, basis, d, row, col, to_object)


# ---------------------------------------------------------------------------
# the certificate: a float64 proposal, decided on exact integers


def _float_pivot(t: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Pivot the float tableau ``t`` on (row, col) in place."""
    prow = t[row] / t[row, col]
    t -= t[:, col, None] * prow
    t[row] = prow
    basis[row] = col


def _float_simplex(t: np.ndarray, basis: list[int], ncols: int) -> bool:
    """Dantzig's rule on the float tableau ``t`` (objective row last), in
    place; whether it reached an optimum within the pivot cap."""
    obj, rhs = t[-1, :ncols], t[:-1, -1]
    ratios = np.empty(len(rhs))
    for _ in range(_FLOAT_PIVOTS_PER_COLUMN * ncols):
        col = int(obj.argmin())
        if obj[col] >= -_TOL:
            return True
        column = t[:-1, col]
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=column > _TOL)
        row = int(ratios.argmin())
        if ratios[row] == np.inf:
            return False
        _float_pivot(t, basis, row, col)
    return False


def _propose(lp: _Standard, rows: np.ndarray, basis: list[int], d: int) -> Optional[list[int]]:
    """A basis of ``lp`` without artificials at which float64 finds every
    nonbasic reduced cost positive, reached by the float simplex from the
    exact tableau ``rows / d`` at ``basis`` (objective row left out), or
    None.  Runs phase 1 first while an artificial is basic, then drives out
    the artificials left basic at zero and prices phase 2 on the real
    cost, as the exact solve does."""
    nrows, width = lp.rows.shape
    ncols = width - 1
    if not 0 < len(basis) == nrows:  # no rows, or a redundant one dropped
        return None
    t, cost = np.empty((nrows + 1, width)), np.zeros(width)
    try:
        t[:-1] = rows
        cost[: lp.nvars] = lp.cost
    except OverflowError:  # an entry beyond float64
        return None
    t[:-1] /= d
    top = t[:-1, -1].max(initial=0)
    if top > 0:  # every variable times one positive constant: same bases
        t[:-1, -1] /= top
    basis = list(basis)
    artificial = [r for r, b in enumerate(basis) if b >= ncols]
    if artificial:
        t[-1] = -t[artificial].sum(0)
        if not _float_simplex(t, basis, ncols) or t[-1, -1] < -_TOL:
            return None
        for r, b in enumerate(basis):
            if b >= ncols:
                col = int(np.argmax(np.abs(t[r, :ncols])))
                if abs(t[r, col]) <= _TOL:
                    return None
                _float_pivot(t, basis, r, col)
    cost /= np.abs(cost).max() or 1
    t[-1] = cost - cost[basis] @ t[:-1]
    if not _float_simplex(t, basis, ncols):
        return None
    reduced = t[-1, :ncols].copy()
    reduced[basis] = np.inf
    return basis if reduced.min() > _TOL else None


def _certify(lp: _Standard, basis: list[int]) -> Optional[tuple[list[int], np.ndarray, int]]:
    """Exact check of a basis without artificials: ``(at, rhs, d)``, the
    basic column of each row and the values ``rhs / d`` of the basic
    variables, when ``B`` is nonsingular, ``x_B >= 0`` and every nonbasic
    reduced cost is positive; else None.

    Pivots ``lp.rows`` to ``B`` by :func:`_bareiss`, each column on a row
    not yet pivoted (none left with a nonzero entry: ``B`` is singular), on
    int64 while :func:`_int64_holds` allows it.  The surplus columns, the
    highest indices, go first: each is ``±e_i``, so its step leaves
    ``d = 1``.  Then ``x_B`` is the right-hand side and :func:`_priced` the
    reduced costs."""
    tableau, d, at = lp.rows, 1, [-1] * len(lp.rows)
    for col in sorted(basis, reverse=True):
        row = next((int(r) for r in np.flatnonzero(tableau[:, col]) if at[r] < 0), None)
        if row is None:
            return None
        if tableau.dtype != object and not _int64_holds(tableau, d, row, col):
            tableau = tableau.astype(object)
        tableau, d = _bareiss(tableau, d, row, col)
        at[row] = col
    rhs = tableau[:, -1]
    if (rhs < 0).any() or (np.delete(_priced(lp, tableau, at, d)[:-1], basis) <= 0).any():
        return None
    return at, rhs, d


def _certified_optimum(
    lp: _Standard, rows: np.ndarray, basis: list[int], d: int
) -> Optional[LpSolution]:
    """The LP's optimum when a float64 proposal from the exact tableau
    ``rows / d`` at ``basis`` passes the exact certificate of the module
    docstring (then it is the LP's unique optimum, Bland's answer); None
    otherwise.  Reads ``rows`` and ``basis`` and changes neither."""
    proposed = _propose(lp, rows, basis, d)
    certified = None if proposed is None else _certify(lp, proposed)
    return None if certified is None else _solution(lp, *certified)


# ---------------------------------------------------------------------------
# the LP in standard form, and the exact solve


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


def _standard_form(objective, a_eq, b_eq, a_ge, b_ge, maximize: bool) -> _Standard:
    """The LP scaled to integers, right-hand sides made >= 0 (a ``>=`` row
    with a negative one becomes ``<=``), one surplus or slack column per
    inequality row.  Raises ValueError when the lengths do not match."""
    nvars = len(objective)
    for name, a, b in (("eq", a_eq, b_eq), ("ge", a_ge, b_ge)):
        if len(b) != len(a):
            raise ValueError(f"len(b_{name}) = {len(b)} != len(a_{name}) = {len(a)}")
        for r, row in enumerate(a):
            if len(row) != nvars:
                raise ValueError(
                    f"a_{name}[{r}] has {len(row)} entries, not len(objective) = {nvars}"
                )
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

    flip = lines[:, -1] < 0
    lines[flip] = -lines[flip]

    # Columns: structural | slack/surplus (one per non-eq row) | rhs.
    ncols = nvars + nrows - neq
    form = np.zeros((nrows, ncols + 1), dtype=lines.dtype)
    form[:, :nvars] = lines[:, :-1]
    form[:, -1] = lines[:, -1]
    form[range(neq, nrows), range(nvars, ncols)] = np.where(flip[neq:], 1, -1)
    return _Standard(form, cost, cost_scale, maximize)


def _solution(lp: _Standard, basis: list[int], values, d: int) -> LpSolution:
    """The LP's solution at a basis whose basic variables are ``values / d``."""
    x = [Fraction(0)] * lp.nvars
    total = 0
    for b, v in zip(basis, values):
        if b < lp.nvars:
            x[b] = Fraction(int(v), d)
            total += lp.cost[b] * int(v)
    value = Fraction(total, d * lp.cost_scale)
    return LpSolution(value=-value if lp.maximize else value, x=tuple(x))


def _priced(lp: _Standard, tableau: np.ndarray, basis: list[int], d: int) -> np.ndarray:
    """The phase-2 objective row at ``basis`` of the tableau ``tableau / d``
    (constraint rows only): ``d * (c - c_B B^-1 A)``, reduced costs in front
    and minus ``d`` times the objective value last, on Python ints."""
    ncols = lp.rows.shape[1] - 1
    obj = np.array([d * c for c in lp.cost] + [0] * (ncols - lp.nvars + 1), dtype=object)
    priced = [(r, lp.cost[b]) for r, b in enumerate(basis) if b < lp.nvars and lp.cost[b] != 0]
    if priced:
        rows, factors = zip(*priced)
        obj -= np.array(factors, dtype=object) @ tableau[list(rows)].astype(object)
    return obj


def _bland(lp: _Standard) -> LpSolution:
    """Bland's two-phase simplex on the integer tableau, from the basis of
    artificials; the artificial of row r has the index ncols + r in
    ``basis`` only.  Raises :class:`_Certified` where the certificate
    settles the LP."""
    nrows, ncols = lp.rows.shape[0], lp.rows.shape[1] - 1
    basis = [ncols + r for r in range(nrows)]

    def to_object(tableau, d):
        # the first point that needs object: the certificate's one try
        solution = _certified_optimum(lp, tableau[: len(basis)], basis, d)
        if solution is not None:
            raise _Certified(solution)
        return tableau.astype(object, copy=False)

    # Phase 1: minimize the sum of artificials.
    tableau = np.vstack((lp.rows, -lp.rows.sum(0)))
    if tableau.dtype == object:
        tableau = to_object(tableau, 1)
    tableau, d = _run_simplex(tableau, basis, 1, ncols, to_object)  # artificials never re-enter
    if tableau[-1, -1] != 0:
        raise LpInfeasible("artificial variables cannot be driven to zero")
    tableau = tableau[:-1]

    # Drive any basic artificial out of the basis (or drop a redundant row).
    for r in range(len(basis) - 1, -1, -1):
        if basis[r] >= ncols:
            nonzero = np.flatnonzero(tableau[r, :ncols])
            if not nonzero.size:
                tableau = np.delete(tableau, r, 0)
                basis.pop(r)
            else:
                tableau, d = _step(tableau, basis, d, r, int(nonzero[0]), to_object)

    # Phase 2 on the real objective, with basic columns priced out.
    obj = _priced(lp, tableau, basis, d)
    if tableau.dtype != object:
        if max_abs(obj) < _INT64_BOUND:
            obj = obj.astype(np.int64)
        else:
            tableau = to_object(tableau, d)
    tableau, d = _run_simplex(np.vstack((tableau, obj)), basis, d, ncols, to_object)
    return _solution(lp, basis, tableau[:-1, -1], d)


def solve(
    objective: Sequence[Fraction],
    a_eq: Sequence[Sequence[Fraction]] = (),
    b_eq: Sequence[Fraction] = (),
    a_ge: Sequence[Sequence[Fraction]] = (),
    b_ge: Sequence[Fraction] = (),
    maximize: bool = False,
) -> LpSolution:
    """Solve the LP; raises LpInfeasible / LpUnbounded accordingly, and
    ValueError when a right-hand side's length is not its rows' count or a
    row's length is not the objective's."""
    lp = _standard_form(objective, a_eq, b_eq, a_ge, b_ge, maximize)
    try:
        return _bland(lp)
    except _Certified as certified:
        return certified.solution
