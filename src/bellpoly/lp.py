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

Fractions appear only at the two edges.  Rows given as rationals are
cleared column by column in one pass; rows given as an integer ndarray
(with a rational right-hand side, as membership passes them) are taken as
they are, with no work per entry.  The checks never leave the integers:
the primal, the dual and the certificate are integer vectors over the
common den, and every condition above is an exact integer product with
the scaled matrix, ``linalg.slack_matrix`` (int64 when no partial sum can
reach the guard, Python ints otherwise).  Only the returned LPResult is
built from Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .linalg import _fraction_free, _int_array, _peak, integer_rows, slack_matrix


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


class _IntegerLP(NamedTuple):
    """The integer problem lp_max solves: max c.z subject to A z = b on the
    first neq rows, A z <= b on the others and z >= 0 where nonneg.  It is
    the input with column j of A and c multiplied by scale[j], b by bscale
    and c by cscale, so x = scale * z / bscale and the input's dual is the
    dual of this problem over cscale."""

    A: np.ndarray
    b: list[int]
    c: list[int]
    neq: int
    nonneg: np.ndarray
    scale: list[int]
    bscale: int
    cscale: int


def _integer_lp(objective, eq_rows, eq_rhs, ineq_rows, ineq_rhs, nonneg) -> _IntegerLP:
    """Validate lp_max's input and clear its denominators in one pass: the
    rows become one integer matrix with per-column scales, taken as they
    are when both row blocks are integer ndarrays."""
    obj = [_rational(x) for x in objective]
    n = len(obj)
    if len(eq_rows) != len(eq_rhs) or len(ineq_rows) != len(ineq_rhs):
        raise ValueError("constraint rows and right-hand sides disagree")
    for rows, kind in ((eq_rows, "equality"), (ineq_rows, "inequality")):
        if any(len(row) != n for row in rows):
            raise ValueError(f"dimension mismatch in {kind} rows")
    blocks = [rows for rows in (eq_rows, ineq_rows) if len(rows)]
    if blocks and all(isinstance(rows, np.ndarray) and rows.dtype.kind == "i" for rows in blocks):
        A, scale = _int_array(np.concatenate(blocks)), [1] * n
    else:
        q = [[_rational(x) for x in row] for rows in blocks for row in rows]
        scale = [lcm(*(x.denominator for x in col)) for col in zip(*q)] or [1] * n
        A = _int_array(
            [[x.numerator * (s // x.denominator) for x, s in zip(row, scale)] for row in q]
        ).reshape(len(q), n)
    (b,), bscale = integer_rows([[_rational(x) for x in (*eq_rhs, *ineq_rhs)]])
    (c,), cscale = integer_rows([[x * s for x, s in zip(obj, scale)]])
    mask = np.full(n, nonneg is True)
    if nonneg is not True and nonneg is not False and nonneg is not None:
        idx = set(nonneg)
        if not idx <= set(range(n)):
            raise ValueError("nonneg indices out of range")
        mask[list(idx)] = True
    return _IntegerLP(A, b.tolist(), c.tolist(), len(eq_rows), mask, scale, bscale, cscale)


def lp_max(
    objective: Sequence[Fraction | int],
    eq_rows: Sequence[Sequence[Fraction | int]] | np.ndarray = (),
    eq_rhs: Sequence[Fraction | int] = (),
    ineq_rows: Sequence[Sequence[Fraction | int]] | np.ndarray = (),
    ineq_rhs: Sequence[Fraction | int] = (),
    nonneg: bool | Iterable[int] = True,
) -> LPResult:
    """Maximize exactly; nonneg is True (all vars), False, or an index set.
    Rows are sequences of rationals or an integer ndarray."""
    p = _integer_lp(objective, eq_rows, eq_rhs, ineq_rows, ineq_rhs, nonneg)
    m, n = p.A.shape
    neq = p.neq
    nin = m - neq

    # standard form: split free variables, slack per inequality, one
    # artificial per row; artificial columns stay in the tableau so the
    # dual values can be read off the final cost row.  The last entry of
    # every row is its right-hand side.
    columns = [
        (j, sgn) for j, nn in enumerate(p.nonneg.tolist()) for sgn in ((1,) if nn else (1, -1))
    ]
    nstruct = len(columns)
    nreal = nstruct + nin
    ncols = nreal + m
    # every entry, the phase-1 column sums included, is at most m + 1 times
    # the largest input entry
    peak = max(1, _peak(p.A), *map(abs, p.b), *map(abs, p.c))
    wide = (m + 1) * peak >= linalg.OVERFLOW_LIMIT

    # rows 0..m-1 are the constraints, row m the phase-2 objective
    # cscale * c, carried through phase 1 by the same pivots, and the last
    # row the phase-1 cost
    T = np.zeros((m + 2, ncols + 1), dtype=object if wide else np.int64)
    struct = [j for j, _ in columns]
    T[:m, :nstruct] = p.A[:, struct]
    T[m, :nstruct] = [p.c[j] for j in struct]
    T[: m + 1, [k for k, (_, sgn) in enumerate(columns) if sgn < 0]] *= -1
    T[neq + np.arange(nin), nstruct + np.arange(nin)] = 1
    T[:m, -1] = p.b
    flips = [-1 if b < 0 else 1 for b in p.b]
    T[[i for i, f in enumerate(flips) if f < 0]] *= -1
    T[np.arange(m), nreal + np.arange(m)] = 1
    # phase 1: drive the artificials to zero; over the artificial basis the
    # reduced costs of -sum(art) are the column sums, 0 on the artificials,
    # and the last entry of the cost row is minus the objective
    T[-1, :nreal] = T[:m, :nreal].sum(axis=0)
    T[-1, -1] = T[:m, -1].sum()
    basis = [nreal + i for i in range(m)]
    status, T, den = _simplex(T, basis, 1, ncols)
    if status != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")
    if T[-1, -1] > 0:
        y = [f * (-den - v) for f, v in zip(flips, T[-1, nreal:-1].tolist())]
        _check_farkas(p, y)
        return LPResult(status="infeasible", certificate=tuple(Fraction(v, den) for v in y))

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

    # z = x / den and the dual y / den solve p; Fractions only from here
    *y, opt = T[-1, nreal:].tolist()
    y = [-f * v for f, v in zip(flips, y)]
    opt = -opt
    x = [0] * n
    for b, rhs in zip(basis, T[:-1, -1].tolist()):
        if b < nstruct:
            j, sgn = columns[b]
            x[j] += sgn * rhs
    _check_optimal(p, x, y, opt, den)
    zero = Fraction(0)
    return LPResult(
        status="optimal",
        optimum=Fraction(opt, p.cscale * den * p.bscale),
        primal=tuple(Fraction(s * v, den * p.bscale) if v else zero for v, s in zip(x, p.scale)),
        dual=tuple(Fraction(v, p.cscale * den) for v in y),
    )


def _check_optimal(p: _IntegerLP, x: list[int], y: list[int], opt: int, den: int) -> None:
    """Exact verification of an optimal pair of p, z = x / den with dual
    y / den (cheap, always on): z is feasible; y is feasible for the dual
    min y.b  with  y >= 0 on inequality rows  and  y A = c on free columns,
    >= c on nonnegative ones; and c.x = y.b = opt.  The matrix products are
    ``slack_matrix``'s, in int64 when no sum can overflow, over Python ints
    otherwise."""
    rows = slack_matrix(p.A, [den * b for b in p.b], [x])[:, 0]  # den b - A x
    if (rows[: p.neq] != 0).any() or (rows[p.neq :] < 0).any():
        raise AssertionError("optimal primal violates a constraint row")
    if any(v < 0 for v in y[p.neq :]):
        raise AssertionError("optimal dual negative on an inequality row")
    if any(v < 0 for v in compress(x, p.nonneg.tolist())):
        raise AssertionError("optimal primal negative on a nonnegative column")
    cols = slack_matrix(p.A.T, [den * c for c in p.c], [y])[:, 0]  # den c - y A
    if (cols[p.nonneg] > 0).any() or (cols[~p.nonneg] != 0).any():
        raise AssertionError("optimal dual infeasible on a column")
    if sum(map(mul, p.c, x)) != opt:
        raise AssertionError("primal objective differs from the reported optimum")
    if sum(map(mul, y, p.b)) != opt:
        raise AssertionError("dual objective differs from the primal optimum")


def _check_farkas(p: _IntegerLP, y: list[int]) -> None:
    """Exact verification of the infeasibility certificate y of p (cheap,
    always on), by the same guarded product as ``_check_optimal``."""
    if any(v < 0 for v in y[p.neq :]):
        raise AssertionError("Farkas multiplier negative on an inequality row")
    cols = slack_matrix(p.A.T, np.zeros(len(p.c), dtype=np.int64), [y])[:, 0]  # -y A
    if (cols[p.nonneg] > 0).any():
        raise AssertionError("Farkas combination negative on a nonnegative column")
    if (cols[~p.nonneg] != 0).any():
        raise AssertionError("Farkas combination nonzero on a free column")
    if sum(map(mul, y, p.b)) >= 0:
        raise AssertionError("Farkas certificate does not contradict the right-hand side")
