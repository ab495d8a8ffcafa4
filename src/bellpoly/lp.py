"""Exact linear programming: dense two-phase simplex over the integers.

Solves one standard form,  max c.x  subject to  A x = b  and  x >= 0,
with A an integer matrix and b and c rational.  A caller with an
inequality row writes its slack column, and one with a free variable
splits it as x+ - x-, before calling.  Everything is exact, so "optimal"
means exactly optimal and "infeasible" comes with a Farkas certificate
that multiplies out to a contradiction:

    sum_i y_i A[i][j] >= 0  on every column,   y . b < 0.

An "optimal" result carries a dual y, one entry per row (redundant rows
included), and is checked just as exactly: x is feasible, y A >= c, and
c.x = y.b = optimum.  The optimum is read off the tableau, so
c.x = optimum is a real check.

Pivoting follows Bland's rule (lowest eligible index in, lowest basic
variable index out), which is what makes termination a theorem rather than
a hope; with exact arithmetic, cycling was the only possible failure mode.
Degenerate ties resolve to the lowest index, so runs are deterministic.

The tableau is one integer numpy array, constraint rows first and cost
rows last, and is integer-preserving (Edmonds 1967).  The right-hand side
is multiplied by the lcm of its denominators and the objective by the lcm
of its own.  Every stored row is then +-adj(B) times the input row, that
is den times the true row of the current basis B for one common
den = |det B|, up to sign.  A pivot on T[r, c] = p is one in-place
update of the whole tableau,
T <- (T * p - outer(T[:, c], T[r])) // den,  row r put back,  den <- p,
and every division is exact.  That update is ``linalg._fraction_free``,
the same kernel as the package's elimination, behind one guard: with P the
largest absolute entry of T, every intermediate is at most (|p| + P) P,
so the tableau stays int64 while that is under the overflow guard and
holds Python ints from the first pivot where it is not.  The cost row
carries its own positive scale, cscale * den.  A positive scale of b
multiplies every ratio of the ratio test by the same factor and one of c
changes no sign, so Bland's rule makes the same pivots as a Fraction
tableau of the unscaled problem, and primal, dual and certificate come
back as the same Fractions.

Fractions appear only at the two edges.  Rows given as an integer ndarray
(as membership and the no-signalling LP pass them) are taken as they
are, neither copied nor converted; other rows enter through
``linalg._entered``, which refuses an entry that is not an integer with
ValueError, never truncated, and which also gives A's peak.  A
right-hand side or objective of Python ints (membership passes both so)
takes the one-array path of ``linalg.integer_rows``, scale 1.  The
checks never leave the integers: the primal, the dual and the
certificate are integer vectors over the common den, and every condition
above is an exact integer product with A, ``_times``, guarded by that
peak (int64 when no partial sum can reach the guard, Python ints
otherwise).  Only the returned LPResult is built from Fractions, one
shared zero for every zero entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import gt, mul
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg
from .linalg import _entered, _fraction_free, integer_rows


@dataclass(frozen=True)
class LPResult:
    """Outcome of an exact LP: status plus the exact numbers backing it."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def _pivot(T: np.ndarray, basis, den: int, pr: int, pc: int) -> tuple[np.ndarray, int]:
    """Integer pivot on T[pr, pc], in place: every other row, the cost rows
    included, gets Edmonds' update from one ``_fraction_free`` call on the
    whole tableau, exact because every stored row is +-adj(B) [A | b]
    before and after.  Returns the tableau (a Python-int copy once the
    guard trips) and the new common denominator p.  Row pr stays as it is:
    it already is p times its new true row.  The entry is negative only when
    evicting an artificial at level 0, and negating that row first keeps p,
    and so every later den, positive."""
    if T[pr, pc] < 0:
        T[pr] = -T[pr]
    basis[pr] = pc
    return _fraction_free(T, pr, pc, den), int(T[pr, pc])


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


class _IntegerLP(NamedTuple):
    """The integer problem lp_max solves: max c.z subject to A z = b and
    z >= 0.  It is the input with b multiplied by bscale and c by cscale,
    so x = z / bscale and the input's dual is the dual of this problem
    over cscale."""

    A: np.ndarray
    peak: int  # largest absolute entry of A
    b: list[int]
    c: list[int]
    bscale: int
    cscale: int


def _integer_lp(objective, eq_rows, eq_rhs) -> _IntegerLP:
    """Validate lp_max's input and clear the denominators of b and c; the
    rows must already be integers, and ``linalg._entered`` refuses any that
    is not.  An int64 row array is taken as it is, not copied."""
    n = len(objective)
    if len(eq_rows) != len(eq_rhs):
        raise ValueError("constraint rows and right-hand sides disagree")
    A, peak = _entered(eq_rows)
    if A.size and A.shape[1] != n:
        raise ValueError("dimension mismatch in equality rows")
    A = A.reshape(len(eq_rhs), n)
    (b,), bscale = integer_rows([eq_rhs])
    (c,), cscale = integer_rows([objective])
    return _IntegerLP(A, peak, b.tolist(), c.tolist(), bscale, cscale)


def lp_max(
    objective: Sequence[Fraction | int],
    eq_rows: Sequence[Sequence[int]] | np.ndarray = (),
    eq_rhs: Sequence[Fraction | int] = (),
) -> LPResult:
    """Maximize c.x subject to A x = b and x >= 0, exactly: A is an integer
    ndarray or rows of ints, b and c are rationals."""
    p = _integer_lp(objective, eq_rows, eq_rhs)
    m, n = p.A.shape
    ncols = n + m
    # every entry, the phase-1 column sums included, is at most m + 1 times
    # the largest input entry
    peak = max(1, p.peak, *map(abs, p.b), *map(abs, p.c))
    wide = (m + 1) * peak >= linalg.OVERFLOW_LIMIT

    # rows 0..m-1 are the constraints, one artificial column each, which
    # stays in the tableau so the dual values can be read off the final
    # cost row; row m is the phase-2 objective cscale * c, carried through
    # phase 1 by the same pivots, and the last row the phase-1 cost.  The
    # last entry of every row is its right-hand side.
    T = np.zeros((m + 2, ncols + 1), dtype=object if wide else np.int64)
    T[:m, :n] = p.A
    T[m, :n] = p.c
    T[:m, -1] = p.b
    flips = [-1 if b < 0 else 1 for b in p.b]
    flipped = [i for i, f in enumerate(flips) if f < 0]
    if flipped:
        T[flipped] *= -1
    T[np.arange(m), n + np.arange(m)] = 1
    # phase 1: drive the artificials to zero; over the artificial basis the
    # reduced costs of -sum(art) are the column sums, 0 on the artificials,
    # and the last entry of the cost row is minus the objective
    T[-1, :n] = T[:m, :n].sum(axis=0)
    T[-1, -1] = T[:m, -1].sum()
    basis = [n + i for i in range(m)]
    status, T, den = _simplex(T, basis, 1, ncols)
    if status != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")
    if T[-1, -1] > 0:
        y = [f * (-den - v) for f, v in zip(flips, T[-1, n:-1].tolist())]
        _check_farkas(p, y)
        return LPResult(status="infeasible", certificate=tuple(Fraction(v, den) for v in y))

    # phase 2: evict leftover artificials, then optimize the real objective;
    # a row left with no structural entry is redundant and is dropped, but
    # every original row keeps its artificial column, so its dual survives
    keep: list[int] = []
    for r in range(m):
        if basis[r] >= n:
            nz = T[r, :n].nonzero()[0]
            if not nz.size:
                continue
            T, den = _pivot(T, basis, den, r, int(nz[0]))
        keep.append(r)
    T, basis = T[keep + [m]], [basis[r] for r in keep]
    status, T, den = _simplex(T, basis, den, n)
    if status == "unbounded":
        return LPResult(status="unbounded")

    # z = x / den and the dual y / den solve p; Fractions only from here
    *y, opt = T[-1, n:].tolist()
    y = [-f * v for f, v in zip(flips, y)]
    opt = -opt
    x = [0] * n
    for b, rhs in zip(basis, T[:-1, -1].tolist()):
        if b < n:
            x[b] = rhs
    _check_optimal(p, x, y, opt, den)
    zero = Fraction(0)
    scale = den * p.bscale
    return LPResult(
        status="optimal",
        optimum=Fraction(opt, p.cscale * scale),
        primal=tuple(Fraction(v, scale) if v else zero for v in x),
        dual=tuple(Fraction(v, p.cscale * den) if v else zero for v in y),
    )


def _times(p: _IntegerLP, v: list[int], transpose: bool = False) -> np.ndarray:
    """A v, or v A with transpose, exactly: int64 when width * peak * max|v|,
    a bound on every partial sum, stays under the overflow guard, with peak
    the largest absolute entry of A that _integer_lp already took; Python
    ints (dtype object) otherwise."""
    a = p.A.T if transpose else p.A
    if a.dtype != object and a.shape[1] * max(1, p.peak) * max(map(abs, v), default=0) < linalg.OVERFLOW_LIMIT:
        return a @ np.array(v, dtype=np.int64)
    return a.astype(object) @ np.array(v, dtype=object)


def _check_optimal(p: _IntegerLP, x: list[int], y: list[int], opt: int, den: int) -> None:
    """Exact verification of an optimal pair of p, z = x / den with dual
    y / den (cheap, always on): z is feasible, y A >= c, and
    c.x = y.b = opt.  The matrix products are ``_times``'s, in int64
    when no sum can overflow, over Python ints otherwise."""
    if _times(p, x).tolist() != [den * b for b in p.b]:
        raise AssertionError("optimal primal violates a constraint row")
    if any(v < 0 for v in x):
        raise AssertionError("optimal primal negative on a column")
    if any(map(gt, [den * c for c in p.c], _times(p, y, transpose=True).tolist())):
        raise AssertionError("optimal dual infeasible on a column")
    if sum(map(mul, p.c, x)) != opt:
        raise AssertionError("primal objective differs from the reported optimum")
    if sum(map(mul, y, p.b)) != opt:
        raise AssertionError("dual objective differs from the primal optimum")


def _check_farkas(p: _IntegerLP, y: list[int]) -> None:
    """Exact verification of the infeasibility certificate y of p (cheap,
    always on), by the same guarded product as ``_check_optimal``."""
    if (_times(p, y, transpose=True) < 0).any():
        raise AssertionError("Farkas combination negative on a column")
    if sum(map(mul, y, p.b)) >= 0:
        raise AssertionError("Farkas certificate does not contradict the right-hand side")
