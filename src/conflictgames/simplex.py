"""Two-phase simplex with Bland's rule on a fraction-free integer tableau.

Solves  min/max c.x  subject to  A_eq x = b_eq,  A_ge x >= b_ge,  x >= 0,
exactly.  The constraint data are scaled by the lcm of all their
denominators and the objective by the lcm of its own, so the tableau holds
integers; ints pass through unconverted.  One scale for all rows keeps the
phase-1 reduced costs, and with them the pivots, those of the unscaled LP.

Every row shares one positive denominator ``d``, the absolute value of the
basis determinant: the rational tableau is ``T / d``.  A pivot at (row, col)
with ``p = T[row][col]`` maps every other row r to
``(p*T[r] - T[r][col]*T[row]) // d`` and then sets ``d = |p|`` (negating all
rows when ``p < 0``).  By Sylvester's identity every entry stays a minor of
the input, so each division is exact (Bareiss, *Sylvester's identity and
multistep integer-preserving Gaussian elimination*, Math. Comp. 1968); a row
with a zero in ``col`` is still rescaled by ``p / d``.  Bland's rule reads
only signs and ratio comparisons, which the integer tableau gives exactly,
so the pivot sequence is that of the rational tableau.  Artificial columns
are never read once phase 1 starts, so they are not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence


class LpInfeasible(Exception):
    pass


class LpUnbounded(Exception):
    pass


@dataclass(frozen=True)
class LpSolution:
    value: Fraction
    x: tuple[Fraction, ...]


def _pivot(tableau: list[list[int]], basis: list[int], d: int, row: int, col: int) -> int:
    """Pivot on (row, col) in place; returns the new common denominator."""
    prow = tableau[row]
    p = prow[col]
    for r, line in enumerate(tableau):
        if r == row:
            continue
        f = line[col]
        if f:
            tableau[r] = [(p * v - f * w) // d for v, w in zip(line, prow)]
        elif p != d:
            tableau[r] = [p * v // d for v in line]
    basis[row] = col
    if p < 0:  # only when an artificial is driven out after phase 1
        for r, line in enumerate(tableau):
            tableau[r] = [-v for v in line]
        p = -p
    return p


def _run_simplex(tableau: list[list[int]], basis: list[int], d: int, ncols: int) -> int:
    """Minimize; the objective row is tableau[-1] with reduced costs in front
    and the (negated) objective value in the last column.  Returns ``d``."""
    while True:
        obj = tableau[-1]
        # Bland: entering variable = lowest index with a negative reduced cost
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return d
        row = None
        for r in range(len(tableau) - 1):
            line = tableau[r]
            a = line[col]
            if a > 0:
                # rhs/a < best_rhs/best_a, cross-multiplied (both a positive)
                if row is None:
                    row, best_rhs, best_a = r, line[-1], a
                    continue
                lhs, rhs = line[-1] * best_a, best_rhs * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[row]):
                    row, best_rhs, best_a = r, line[-1], a
        if row is None:
            raise LpUnbounded(f"column {col} can increase without bound")
        d = _pivot(tableau, basis, d, row, col)


def _integer_lines(lines: list[list]) -> tuple[list[list[int]], int]:
    """The lines times the lcm of all their denominators, and that lcm.

    Rewrites ``lines`` in place; lines of ints pass through unconverted.
    """
    rational = {r for r, line in enumerate(lines) if not all(type(v) is int for v in line)}
    for r in rational:
        lines[r] = [Fraction(v) for v in lines[r]]
    scale = lcm(*{v.denominator for r in rational for v in lines[r]})
    for r, line in enumerate(lines):
        if r in rational:
            lines[r] = [v.numerator * (scale // v.denominator) for v in line]
        elif scale != 1:
            lines[r] = [v * scale for v in line]
    return lines, scale


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
    [cost], cost_scale = _integer_lines([list(objective)])
    if maximize:
        cost = [-c for c in cost]

    # Rows as coeffs + [rhs], all scaled by one factor.
    lines = [[*coeffs, rhs] for coeffs, rhs in zip(a_eq, b_eq)]
    neq = len(lines)
    lines += [[*coeffs, rhs] for coeffs, rhs in zip(a_ge, b_ge)]
    lines, _ = _integer_lines(lines)

    # Normalize to rhs >= 0 with sense in {"eq", "ge", "le"}.
    senses = []
    for r, line in enumerate(lines):
        sense = "eq" if r < neq else "ge"
        if line[-1] < 0:
            lines[r] = [-v for v in line]
            sense = "le" if sense == "ge" else sense
        senses.append(sense)

    # Columns: structural | slack/surplus (one per non-eq row) | rhs.  The
    # artificial of row r has the index art_start + r in `basis` only.
    nrows = len(lines)
    slack_rows = [r for r, sense in enumerate(senses) if sense != "eq"]
    nslack = len(slack_rows)
    art_start = nvars + nslack

    tableau = [line[:nvars] + [0] * nslack + line[nvars:] for line in lines]
    for k, r in enumerate(slack_rows):
        tableau[r][nvars + k] = -1 if senses[r] == "ge" else 1
    basis = [art_start + r for r in range(nrows)]
    d = 1

    # Phase 1: minimize the sum of artificials.
    tableau.append([-sum(column) for column in zip(*tableau)] or [0] * (art_start + 1))
    d = _run_simplex(tableau, basis, d, art_start)  # artificials never re-enter
    if tableau[-1][-1] != 0:
        raise LpInfeasible("artificial variables cannot be driven to zero")
    tableau.pop()

    # Drive any basic artificial out of the basis (or drop a redundant row).
    for r in range(nrows - 1, -1, -1):
        if basis[r] >= art_start:
            col = next((j for j in range(art_start) if tableau[r][j] != 0), None)
            if col is None:
                tableau.pop(r)
                basis.pop(r)
            else:
                d = _pivot(tableau, basis, d, r, col)

    # Phase 2 on the real objective, with basic columns priced out:
    # d * (c - c_B B^-1 A), an integer row.
    obj = [d * c for c in cost] + [0] * (nslack + 1)
    for r, b in enumerate(basis):
        if b < nvars and cost[b] != 0:
            factor = cost[b]
            obj = [v - factor * t for v, t in zip(obj, tableau[r])]
    tableau.append(obj)
    d = _run_simplex(tableau, basis, d, art_start)

    x = [Fraction(0)] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            x[b] = Fraction(tableau[r][-1], d)
    value = Fraction(-tableau[-1][-1], d * cost_scale)
    if maximize:
        value = -value
    return LpSolution(value=value, x=tuple(x))
