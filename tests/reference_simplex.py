"""Dense two-phase simplex over exact rationals with Bland's rule.

The reference for ``conflictgames.simplex``, which runs the same pivots on a
fraction-free integer tableau; ``test_simplex_equivalence`` compares the two.

Solves  min/max c.x  subject to  A_eq x = b_eq,  A_ge x >= b_ge,  x >= 0.
Small and dense on purpose: the equilibrium LPs here have at most a few
thousand columns and a few dozen rows, and exact verdicts matter more than
speed.  Bland's pivoting rule guarantees termination on degenerate tableaus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Optional, Sequence

ZERO = Fraction(0)
ONE = Fraction(1)


class LpInfeasible(Exception):
    pass


class LpUnbounded(Exception):
    pass


@dataclass(frozen=True)
class LpSolution:
    value: Fraction
    x: tuple[Fraction, ...]


def _exact(v) -> Fraction:
    """``v`` as a Fraction of Python ints: numpy integers (array entries)
    would carry their int64 arithmetic, and its overflow, into the Fraction."""
    return Fraction(int(v)) if isinstance(v, Integral) else Fraction(v)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col] != 0:
            factor = line[col]
            prow = tableau[row]
            tableau[r] = [v - factor * p for v, p in zip(line, prow)]
    basis[row] = col


def _run_simplex(tableau: list[list[Fraction]], basis: list[int], ncols: int) -> None:
    """Minimize; the objective row is tableau[-1] with reduced costs in front
    and the (negated) objective value in the last column."""
    obj = tableau[-1]
    while True:
        # Bland: entering variable = lowest index with a negative reduced cost
        col = next((j for j in range(ncols) if obj[j] < 0), None)
        if col is None:
            return
        row = None
        best: Optional[Fraction] = None
        for r in range(len(tableau) - 1):
            a = tableau[r][col]
            if a > 0:
                ratio = tableau[r][-1] / a
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best, row = ratio, r
        if row is None:
            raise LpUnbounded(f"column {col} can increase without bound")
        _pivot(tableau, basis, row, col)
        obj = tableau[-1]


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
    cost = [-_exact(c) if maximize else _exact(c) for c in objective]

    # Normalize rows to (coeffs, rhs >= 0, sense in {"eq", "ge", "le"}).
    rows: list[tuple[list[Fraction], Fraction, str]] = []
    for coeffs, rhs in zip(a_eq, b_eq):
        line = [_exact(v) for v in coeffs]
        r = _exact(rhs)
        if r < 0:
            line, r = [-v for v in line], -r
        rows.append((line, r, "eq"))
    for coeffs, rhs in zip(a_ge, b_ge):
        line = [_exact(v) for v in coeffs]
        r = _exact(rhs)
        sense = "ge"
        if r < 0:
            line, r, sense = [-v for v in line], -r, "le"
        rows.append((line, r, sense))

    # Columns: structural | slack/surplus (one per non-eq row) | artificial | rhs.
    nrows = len(rows)
    slack_rows = [i for i, (_, _, sense) in enumerate(rows) if sense != "eq"]
    nslack = len(slack_rows)
    art_start = nvars + nslack
    ncols = art_start + nrows

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    for r, (line, rhs, sense) in enumerate(rows):
        full = line + [ZERO] * (nslack + nrows) + [rhs]
        if sense != "eq":
            full[nvars + slack_rows.index(r)] = -ONE if sense == "ge" else ONE
        full[art_start + r] = ONE
        tableau.append(full)
        basis.append(art_start + r)

    # Phase 1: minimize the sum of artificials.
    phase1 = [ZERO] * (ncols + 1)
    for r in range(nrows):
        for j in range(ncols + 1):
            phase1[j] -= tableau[r][j]
    for r in range(nrows):
        phase1[art_start + r] = ZERO
    tableau.append(phase1)
    _run_simplex(tableau, basis, art_start)  # artificials never re-enter
    if -tableau[-1][-1] != 0:
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
                _pivot(tableau, basis, r, col)

    # Phase 2 on the real objective, with basic columns priced out.
    obj = [Fraction(c) for c in cost] + [ZERO] * (nslack + nrows + 1)
    tableau.append(obj)
    for r, b in enumerate(basis):
        if obj[b] != 0:
            factor = obj[b]
            tableau[-1] = [v - factor * p for v, p in zip(tableau[-1], tableau[r])]
    _run_simplex(tableau, basis, art_start)

    x = [ZERO] * nvars
    for r, b in enumerate(basis):
        if b < nvars:
            x[b] = tableau[r][-1]
    value = -tableau[-1][-1]
    if maximize:
        value = -value
    return LpSolution(value=value, x=tuple(x))
