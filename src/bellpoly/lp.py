"""Exact linear programming: dense two-phase simplex over Python ints.

Solves  max c.x  subject to  A_eq x = b_eq,  A_in x <= b_in,  and
nonnegativity on a chosen subset of variables.  Everything is rational, so
"optimal" means exactly optimal and "infeasible" comes with a Farkas
certificate that multiplies out to a contradiction:

    y restricted to inequality rows is >= 0,
    sum_i y_i A[i][j]  is  = 0 on free columns and >= 0 on nonnegative ones,
    y . b < 0.

An "optimal" result carries a dual y, one entry per original row
(redundant equality rows included), and is checked just as exactly: x is
feasible, y is dual feasible, and c.x = y.b = optimum.  The optimum is read
off the tableau, so c.x = optimum is a real check.

Pivoting follows Bland's rule (lowest eligible index in, lowest basic
variable index out), which is what makes termination a theorem rather than
a hope; with exact arithmetic, cycling was the only possible failure mode.
Degenerate ties resolve to the lowest index, so runs are deterministic.

The tableau is integer-preserving (Edmonds 1967).  Each structural column
is first multiplied by the lcm of its entries' denominators and the
right-hand side by the lcm of its own; every stored row is then den times
the true row, for one common den = |det B| of the current basis B, so each
pivot  T_i <- (T_i * p - T_ic * T_r) // den,  den <- p  divides exactly.
The cost row carries its own positive scale, cscale * den.  Positive
column scales change no sign, and in the ratio test they multiply every
ratio of one column by the same positive factor, so Bland's rule makes the
same pivots as a Fraction tableau of the unscaled problem, and primal,
dual and certificate come back as the same Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


@dataclass(frozen=True)
class LPResult:
    """Outcome of an exact LP: status plus the exact numbers backing it."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def _eliminate(row: list[int], prow: list[int], pc: int, p: int, den: int) -> list[int]:
    """One row of Edmonds' pivot: exact because every stored row is
    +-adj(B) [A | b] before and after."""
    f = row[pc]
    if f:
        return [(a * p - f * b) // den for a, b in zip(row, prow)]
    if p == den:
        return row
    return [a * p // den for a in row]


def _pivot(rows, cost, basis, den: int, pr: int, pc: int) -> int:
    """In-place integer pivot; returns the new common denominator p.  Row
    pr then stays as it is: it already is p times its new true row.  The
    entry is negative only when evicting an artificial at level 0, and
    negating that row first keeps p, and so every later den, positive."""
    if rows[pr][pc] < 0:
        rows[pr] = [-x for x in rows[pr]]
    prow = rows[pr]
    p = prow[pc]
    for i in range(len(rows)):
        if i != pr:
            rows[i] = _eliminate(rows[i], prow, pc, p, den)
    if cost is not None:
        cost[:] = _eliminate(cost, prow, pc, p, den)
    basis[pr] = pc
    return p


def _simplex(rows, cost, basis, den: int, nenter: int) -> tuple[str, int]:
    """Run Bland-rule simplex to optimality or unboundedness; only the first
    nenter columns may enter.  Ratios rhs/a are compared by cross-multiplying."""
    while True:
        enter = next((j for j in range(nenter) if cost[j] > 0), -1)
        if enter < 0:
            return "optimal", den
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, num, dnm = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * dnm, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, dnm = i, row[-1], a
        if leave < 0:
            return "unbounded", den
        den = _pivot(rows, cost, basis, den, leave, enter)


def _rational(x) -> int | Fraction:
    """Ints and Fractions as given, anything else through Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def lp_max(
    objective: Sequence[Fraction | int],
    eq_rows: Sequence[Sequence[Fraction | int]] = (),
    eq_rhs: Sequence[Fraction | int] = (),
    ineq_rows: Sequence[Sequence[Fraction | int]] = (),
    ineq_rhs: Sequence[Fraction | int] = (),
    nonneg: bool | Iterable[int] = True,
) -> LPResult:
    """Maximize exactly; nonneg is True (all vars), False, or an index set."""
    obj = [_rational(x) for x in objective]
    n = len(obj)
    eqA = [[_rational(x) for x in row] for row in eq_rows]
    eqb = [_rational(x) for x in eq_rhs]
    inA = [[_rational(x) for x in row] for row in ineq_rows]
    inb = [_rational(x) for x in ineq_rhs]
    if len(eqA) != len(eqb) or len(inA) != len(inb):
        raise ValueError("constraint rows and right-hand sides disagree")
    for row in eqA:
        if len(row) != n:
            raise ValueError("dimension mismatch in equality rows")
    for row in inA:
        if len(row) != n:
            raise ValueError("dimension mismatch in inequality rows")
    if nonneg is True:
        nonneg_set = set(range(n))
    elif nonneg is False or nonneg is None:
        nonneg_set = set()
    else:
        nonneg_set = set(nonneg)
        if not nonneg_set <= set(range(n)):
            raise ValueError("nonneg indices out of range")
    allrows, allrhs = eqA + inA, eqb + inb

    # standard form: split free variables, slack per inequality, one
    # artificial per row; artificial columns stay in the tableau so the
    # dual values can be read off the final cost row.  The last entry of
    # every row is its right-hand side.
    columns: list[tuple[int, int]] = []
    for j in range(n):
        columns.append((j, 1))
        if j not in nonneg_set:
            columns.append((j, -1))
    nstruct = len(columns)
    neq, nin = len(eqA), len(inA)
    m = neq + nin
    nreal = nstruct + nin
    ncols = nreal + m
    scale = [lcm(*(row[j].denominator for row in allrows)) for j in range(n)]
    bscale = lcm(*(b.denominator for b in allrhs))

    rows: list[list[int]] = []
    flips: list[int] = []
    for i, (row, b) in enumerate(zip(allrows, allrhs)):
        ints = [x.numerator * (s // x.denominator) for x, s in zip(row, scale)]
        vec = [0] * (ncols + 1)
        for cidx, (j, sgn) in enumerate(columns):
            vec[cidx] = sgn * ints[j]
        if i >= neq:
            vec[nstruct + (i - neq)] = 1
        flip = -1 if b < 0 else 1
        if flip < 0:
            vec = [-x for x in vec]
        vec[nreal + i] = 1
        vec[-1] = flip * b.numerator * (bscale // b.denominator)
        rows.append(vec)
        flips.append(flip)
    basis = [nreal + i for i in range(m)]

    # phase 1: drive the artificials to zero; over the artificial basis the
    # reduced costs of -sum(art) are the column sums, 0 on the artificials,
    # and the last entry of the cost row is minus the objective
    cost = [sum(row[j] for row in rows) for j in range(nreal)] + [0] * m
    cost.append(sum(row[-1] for row in rows))
    status, den = _simplex(rows, cost, basis, 1, ncols)
    if status != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")
    if cost[-1] > 0:
        y = [Fraction(flips[i] * (-den - cost[nreal + i]), den) for i in range(m)]
        _check_farkas(y, allrows, allrhs, neq, nonneg_set, n)
        return LPResult(status="infeasible", certificate=tuple(y))

    # phase 2: evict leftover artificials, then optimize the real objective;
    # a row left with no structural entry is redundant and is dropped, but
    # every original row keeps its artificial column, so its dual survives
    keep: list[int] = []
    for r in range(len(rows)):
        if basis[r] >= nreal:
            pc = next((j for j in range(nreal) if rows[r][j]), -1)
            if pc < 0:
                continue
            den = _pivot(rows, None, basis, den, r, pc)
        keep.append(r)
    rows = [rows[r] for r in keep]
    basis = [basis[r] for r in keep]

    cscaled = [c * s for c, s in zip(obj, scale)]
    cscale = lcm(*(c.denominator for c in cscaled))
    cint = [c.numerator * (cscale // c.denominator) for c in cscaled]
    cvec = [sgn * cint[j] for j, sgn in columns] + [0] * (m + nin + 1)
    cost = [den * c for c in cvec]
    for row, b in zip(rows, basis):
        cb = cvec[b]
        if cb:
            cost = [x - cb * t for x, t in zip(cost, row)]
    status, den = _simplex(rows, cost, basis, den, nreal)
    if status == "unbounded":
        return LPResult(status="unbounded")

    optimum = Fraction(-cost[-1], cscale * den * bscale)
    x = [Fraction(0)] * n
    for row, b in zip(rows, basis):
        if b < nstruct:
            j, sgn = columns[b]
            x[j] += Fraction(sgn * scale[j] * row[-1], den * bscale)
    dual = [Fraction(-flips[i] * cost[nreal + i], cscale * den) for i in range(m)]
    _check_optimal(obj, x, dual, optimum, allrows, allrhs, neq, nonneg_set)
    return LPResult(
        status="optimal", optimum=optimum, primal=tuple(x), dual=tuple(dual)
    )


def _check_optimal(obj, x, y, optimum, allrows, allrhs, neq, nonneg_set) -> None:
    """Exact verification of an optimal pair (cheap, always on, zero
    entries skipped): x is feasible; y is feasible for the dual
    min y.b  with  y >= 0 on inequality rows  and  sum_i y_i A[i][j]  = c_j
    on free columns, >= c_j on nonnegative ones; and c.x = y.b = optimum."""
    for i, (row, b) in enumerate(zip(allrows, allrhs)):
        lhs = sum(a * v for a, v in zip(row, x) if a and v)
        if (lhs > b) if i >= neq else (lhs != b):
            raise AssertionError("optimal primal violates a constraint row")
        if i >= neq and y[i] < 0:
            raise AssertionError("optimal dual negative on an inequality row")
    used = [(yi, row) for yi, row in zip(y, allrows) if yi]
    for j, c in enumerate(obj):
        if j in nonneg_set and x[j] < 0:
            raise AssertionError("optimal primal negative on a nonnegative column")
        comb = sum(yi * row[j] for yi, row in used if row[j])
        if (comb < c) if j in nonneg_set else (comb != c):
            raise AssertionError("optimal dual infeasible on a column")
    if sum(c * v for c, v in zip(obj, x) if c and v) != optimum:
        raise AssertionError("primal objective differs from the reported optimum")
    if sum(yi * b for yi, b in zip(y, allrhs) if yi and b) != optimum:
        raise AssertionError("dual objective differs from the primal optimum")


def _check_farkas(y, allrows, allrhs, neq, nonneg_set, n) -> None:
    """Exact verification of the infeasibility certificate (cheap, always on)."""
    for i in range(neq, len(allrows)):
        if y[i] < 0:
            raise AssertionError("Farkas multiplier negative on an inequality row")
    for j in range(n):
        comb = sum(y[i] * allrows[i][j] for i in range(len(allrows)))
        if j in nonneg_set:
            if comb < 0:
                raise AssertionError("Farkas combination negative on a nonnegative column")
        elif comb != 0:
            raise AssertionError("Farkas combination nonzero on a free column")
    if sum(y[i] * allrhs[i] for i in range(len(allrows))) >= 0:
        raise AssertionError("Farkas certificate does not contradict the right-hand side")
