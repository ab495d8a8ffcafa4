"""Exact linear programming: dense two-phase simplex over the integers.

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

The tableau is one integer numpy array, constraint rows first and cost
rows last, and is integer-preserving (Edmonds 1967).  Each structural
column is first multiplied by the lcm of its entries' denominators and the
right-hand side by the lcm of its own; every stored row is then den times
the true row, for one common den = |det B| of the current basis B, so each
pivot  T_i <- (T_i * p - T_ic * T_r) // den,  den <- p  divides exactly.
That update is ``linalg._fraction_free``, the same guarded kernel as the
package's elimination: int64 until an intermediate could reach the
overflow guard, Python ints from that pivot on.  The cost row carries its
own positive scale, cscale * den.  Positive column scales change no sign,
and in the ratio test they multiply every ratio of one column by the same
positive factor, so Bland's rule makes the same pivots as a Fraction
tableau of the unscaled problem, and primal, dual and certificate come
back as the same Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import numpy as np

from .linalg import _fraction_free, _int_array


@dataclass(frozen=True)
class LPResult:
    """Outcome of an exact LP: status plus the exact numbers backing it."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def _pivot(T: np.ndarray, basis, den: int, pr: int, pc: int) -> tuple[np.ndarray, int]:
    """Integer pivot on T[pr, pc]: every other row, the cost rows included,
    gets Edmonds' update, exact because every stored row is +-adj(B) [A | b]
    before and after.  Returns the tableau (Python ints once the guard
    trips) and the new common denominator p.  Row pr then stays as it is:
    it already is p times its new true row.  The entry is negative only when
    evicting an artificial at level 0, and negating that row first keeps p,
    and so every later den, positive."""
    if T[pr, pc] < 0:
        T[pr] = -T[pr]
    basis[pr] = pc
    others = np.arange(len(T) - 1)
    others[pr:] += 1
    return _fraction_free(T, others, pr, pc, den), int(T[pr, pc])


def _simplex(T: np.ndarray, basis, den: int, nenter: int) -> tuple[str, np.ndarray, int]:
    """Run Bland-rule simplex to optimality or unboundedness: the first
    len(basis) rows of T are the constraints, its last row the cost row, and
    only the first nenter columns may enter.  Ratios rhs/a over the positive
    entries are compared by cross-multiplying Python ints."""
    k = len(basis)
    while True:
        eligible = (T[-1, :nenter] > 0).nonzero()[0]
        if not eligible.size:
            return "optimal", T, den
        enter = int(eligible[0])
        leave = -1
        for i, (a, b) in enumerate(zip(T[:k, enter].tolist(), T[:k, -1].tolist())):
            if a > 0 and (
                leave < 0 or b * dnm < num * a or (b * dnm == num * a and basis[i] < basis[leave])
            ):
                leave, num, dnm = i, b, a
        if leave < 0:
            return "unbounded", T, den
        T, den = _pivot(T, basis, den, leave, enter)


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
    cscaled = [c * s for c, s in zip(obj, scale)]
    cscale = lcm(*(c.denominator for c in cscaled))

    # rows 0..m-1 are the constraints, row m the phase-2 objective
    # cscale * c, carried through phase 1 by the same pivots, and the last
    # row the phase-1 cost
    T = np.zeros((m + 2, ncols + 1), dtype=object)
    T[: m + 1, :nstruct] = np.array(
        [[x.numerator * (s // x.denominator) for x, s in zip(row, scale)] for row in allrows]
        + [[c.numerator * (cscale // c.denominator) for c in cscaled]],
        dtype=object,
    ).reshape(m + 1, n)[:, [j for j, _ in columns]]
    T[: m + 1, [k for k, (_, sgn) in enumerate(columns) if sgn < 0]] *= -1
    T[neq + np.arange(nin), nstruct + np.arange(nin)] = 1
    flips = [-1 if b < 0 else 1 for b in allrhs]
    T[:m, -1] = [b.numerator * (bscale // b.denominator) for b in allrhs]
    T[[i for i, f in enumerate(flips) if f < 0]] *= -1
    T[np.arange(m), nreal + np.arange(m)] = 1
    # phase 1: drive the artificials to zero; over the artificial basis the
    # reduced costs of -sum(art) are the column sums, 0 on the artificials,
    # and the last entry of the cost row is minus the objective
    T[-1, :nreal] = T[:m, :nreal].sum(axis=0)
    T[-1, -1] = T[:m, -1].sum()
    T = _int_array(T)
    basis = [nreal + i for i in range(m)]
    status, T, den = _simplex(T, basis, 1, ncols)
    if status != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")
    cost = T[-1].tolist()
    if cost[-1] > 0:
        y = [Fraction(flips[i] * (-den - cost[nreal + i]), den) for i in range(m)]
        _check_farkas(y, allrows, allrhs, neq, nonneg_set, n)
        return LPResult(status="infeasible", certificate=tuple(y))

    # phase 2: evict leftover artificials, then optimize the real objective;
    # a row left with no structural entry is redundant and is dropped, but
    # every original row keeps its artificial column, so its dual survives
    keep: list[int] = []
    for r in range(m):
        if basis[r] >= nreal:
            nz = T[r, :nreal].nonzero()[0]
            if not nz.size:
                continue
            T, den = _pivot(T, basis, den, r, int(nz[0]))
        keep.append(r)
    T, basis = T[keep + [m]], [basis[r] for r in keep]
    status, T, den = _simplex(T, basis, den, nreal)
    if status == "unbounded":
        return LPResult(status="unbounded")

    cost = T[-1].tolist()
    optimum = Fraction(-cost[-1], cscale * den * bscale)
    x = [Fraction(0)] * n
    for b, rhs in zip(basis, T[:-1, -1].tolist()):
        if b < nstruct:
            j, sgn = columns[b]
            x[j] += Fraction(sgn * scale[j] * rhs, den * bscale)
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
