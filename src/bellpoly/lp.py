"""Exact linear programming: dense two-phase simplex over Fraction.

Solves  max c.x  subject to  A_eq x = b_eq,  A_in x <= b_in,  and
nonnegativity on a chosen subset of variables.  Everything is rational, so
"optimal" means exactly optimal and "infeasible" comes with a Farkas
certificate that multiplies out to a contradiction:

    y restricted to inequality rows is >= 0,
    sum_i y_i A[i][j]  is  = 0 on free columns and >= 0 on nonnegative ones,
    y . b < 0.

An "optimal" result carries a dual y, one entry per original row
(redundant equality rows included), and is checked just as exactly: x is
feasible, y is dual feasible, and c.x = y.b = optimum.

Pivoting follows Bland's rule (lowest eligible index in, lowest basic
variable index out), which is what makes termination a theorem rather than
a hope; with exact arithmetic, cycling was the only possible failure mode.
Degenerate ties resolve to the lowest index, so runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    """Outcome of an exact LP: status plus the exact numbers backing it."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def _pivot(rows, rhs, basis, costrow, pr: int, pc: int) -> Fraction:
    """In-place tableau pivot; returns the objective-value increment."""
    piv = rows[pr][pc]
    if piv != 1:
        inv = 1 / piv
        rows[pr] = [x * inv for x in rows[pr]]
        rhs[pr] = rhs[pr] * inv
    prow = rows[pr]
    pb = rhs[pr]
    for i in range(len(rows)):
        if i == pr:
            continue
        f = rows[i][pc]
        if f:
            rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
            rhs[i] = rhs[i] - f * pb
    f = costrow[pc]
    delta = _ZERO
    if f:
        for j in range(len(costrow)):
            if prow[j]:
                costrow[j] -= f * prow[j]
        delta = f * pb
    basis[pr] = pc
    return delta


def _simplex(rows, rhs, basis, costrow, allowed) -> tuple[str, Fraction]:
    """Run Bland-rule simplex to optimality or unboundedness."""
    gained = _ZERO
    ncols = len(costrow)
    while True:
        enter = -1
        for j in range(ncols):
            if allowed[j] and costrow[j] > 0:
                enter = j
                break
        if enter < 0:
            return "optimal", gained
        leave = -1
        best = None
        for i in range(len(rows)):
            a = rows[i][enter]
            if a > 0:
                ratio = rhs[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded", gained
        gained += _pivot(rows, rhs, basis, costrow, leave, enter)


def lp_max(
    objective: Sequence[Fraction | int],
    eq_rows: Sequence[Sequence[Fraction | int]] = (),
    eq_rhs: Sequence[Fraction | int] = (),
    ineq_rows: Sequence[Sequence[Fraction | int]] = (),
    ineq_rhs: Sequence[Fraction | int] = (),
    nonneg: bool | Iterable[int] = True,
) -> LPResult:
    """Maximize exactly; nonneg is True (all vars), False, or an index set."""
    obj = [Fraction(x) for x in objective]
    n = len(obj)
    eqA = [[Fraction(x) for x in row] for row in eq_rows]
    eqb = [Fraction(x) for x in eq_rhs]
    inA = [[Fraction(x) for x in row] for row in ineq_rows]
    inb = [Fraction(x) for x in ineq_rhs]
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

    # standard form: split free variables, slack per inequality, one
    # artificial per row; artificial columns stay in the tableau so the
    # dual values can be read off the final cost row
    columns: list[tuple[int, int]] = []
    for j in range(n):
        columns.append((j, 1))
        if j not in nonneg_set:
            columns.append((j, -1))
    nstruct = len(columns)
    neq, nin = len(eqA), len(inA)
    m = neq + nin
    ncols = nstruct + nin + m

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    flips: list[int] = []
    for i, (row, b) in enumerate(zip(eqA + inA, eqb + inb)):
        vec = [_ZERO] * ncols
        for cidx, (j, sgn) in enumerate(columns):
            if row[j]:
                vec[cidx] = row[j] if sgn == 1 else -row[j]
        if i >= neq:
            vec[nstruct + (i - neq)] = _ONE
        flip = 1
        if b < 0:
            flip, b = -1, -b
            vec = [-x for x in vec]
        vec[nstruct + nin + i] = _ONE
        rows.append(vec)
        rhs.append(b)
        flips.append(flip)

    basis = [nstruct + nin + i for i in range(m)]
    art_col = {i: nstruct + nin + i for i in range(m)}
    allowed = [True] * ncols

    # phase 1: drive the artificials to zero
    costrow = [_ZERO] * ncols
    for j in range(ncols):
        tot = sum(rows[i][j] for i in range(m))
        costrow[j] = (Fraction(-1) if j >= nstruct + nin else _ZERO) + tot
    objval = -sum(rhs, _ZERO)
    status, gained = _simplex(rows, rhs, basis, costrow, allowed)
    objval += gained
    if status != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")
    if objval < 0:
        y = [flips[i] * (Fraction(-1) - costrow[art_col[i]]) for i in range(m)]
        _check_farkas(y, eqA + inA, eqb + inb, neq, nonneg_set, n)
        return LPResult(status="infeasible", certificate=tuple(y))

    # phase 2: evict leftover artificials, then optimize the real objective;
    # a row left with no structural entry is redundant and is dropped, but
    # every original row keeps its artificial column, so its dual survives
    drop: list[int] = []
    for r in range(len(rows)):
        if basis[r] >= nstruct + nin:
            pc = -1
            for j in range(nstruct + nin):
                if rows[r][j] != 0:
                    pc = j
                    break
            if pc >= 0:
                _pivot(rows, rhs, basis, costrow, r, pc)
            else:
                drop.append(r)
    if drop:
        rows = [rows[r] for r in range(len(rows)) if r not in drop]
        rhs = [rhs[r] for r in range(len(rhs)) if r not in drop]
        basis = [basis[r] for r in range(len(basis)) if r not in drop]
    for i in range(m):
        allowed[art_col[i]] = False

    cost2 = [_ZERO] * ncols
    for cidx, (j, sgn) in enumerate(columns):
        cost2[cidx] = obj[j] if sgn == 1 else -obj[j]
    costrow = list(cost2)
    objval = _ZERO
    for r, b in enumerate(basis):
        cb = cost2[b]
        if cb:
            objval += cb * rhs[r]
            for j in range(ncols):
                if rows[r][j]:
                    costrow[j] -= cb * rows[r][j]
    status, gained = _simplex(rows, rhs, basis, costrow, allowed)
    if status == "unbounded":
        return LPResult(status="unbounded")
    objval += gained

    x = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < nstruct:
            j, sgn = columns[b]
            x[j] += rhs[r] if sgn == 1 else -rhs[r]
    dual = [flips[i] * (-costrow[art_col[i]]) for i in range(m)]
    _check_optimal(obj, x, dual, objval, eqA + inA, eqb + inb, neq, nonneg_set)
    return LPResult(
        status="optimal", optimum=objval, primal=tuple(x), dual=tuple(dual)
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
