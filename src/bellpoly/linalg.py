"""Exact linear algebra over the rationals.

Everything geometric in this package (constraint ranks, affine hulls,
saturation ranks, hyperplane normals) reduces to Gaussian elimination over
exact numbers.  Rationals are `fractions.Fraction`; a matrix is any sequence
of equal-length rows of Fractions or ints.

Rank-type questions are answered by clearing denominators row by row and
eliminating over the integers (fraction-free, rows divided by their gcd so
entries stay small).  The hot kernel has two interchangeable paths:

* a vectorized numpy int64 path with a certified overflow guard, and
* a pure-Python arbitrary-precision path that can never overflow.

The numpy path is used by default and falls back automatically whenever the
guard trips; ``force_pure=True`` on ``int_rank`` and ``IntRowBasis`` takes
the pure path directly (both paths are exact and must agree).
``scripts/bench_rank.py`` compares the two.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

# int64 elimination is abandoned before any intermediate value can reach this
OVERFLOW_LIMIT = 2**62


def clear_denominators(row: Sequence[Fraction | int]) -> list[int]:
    """Scale a rational row by the positive lcm of its denominators."""
    denoms = [x.denominator for x in row if isinstance(x, Fraction)]
    lcm = 1
    for q in denoms:
        lcm = lcm * q // math.gcd(lcm, q)
    return [int(x * lcm) for x in row]


def gcd_reduce(row: list[int]) -> list[int]:
    """Divide an integer row by the gcd of its entries (zero rows unchanged)."""
    g = 0
    for x in row:
        g = math.gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def _int_rank_pure(rows: list[list[int]]) -> int:
    """Fraction-free elimination with Python integers (cannot overflow)."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        if rank == len(rows):
            break
        pivot = None
        best = None
        for i in range(rank, len(rows)):
            v = rows[i][col]
            if v != 0 and (best is None or abs(v) < best):
                best = abs(v)
                pivot = i
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for i in range(rank + 1, len(rows)):
            c = rows[i][col]
            if c == 0:
                continue
            r = rows[i]
            rows[i] = gcd_reduce([a * p - b * c for a, b in zip(r, prow)])
        rank += 1
    return rank


def _int_rank_numpy(mat: np.ndarray) -> int | None:
    """int64 fraction-free elimination; returns None when the guard trips."""
    a = mat.astype(np.int64, copy=True)
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pick = nz[int(np.argmin(np.abs(col[nz])))]
        p = r + int(pick)
        if p != r:
            a[[r, p]] = a[[p, r]]
        piv = int(a[r, c])
        below = a[r + 1:, :]
        if below.size:
            colv = below[:, c]
            idx = np.nonzero(colv)[0]
            if idx.size:
                sub = below[idx]
                bound = abs(piv) * int(np.max(np.abs(sub))) + int(
                    np.max(np.abs(colv[idx]))
                ) * int(np.max(np.abs(a[r])))
                if bound >= OVERFLOW_LIMIT:
                    return None
                sub = sub * piv - np.outer(colv[idx], a[r])
                if int(np.max(np.abs(sub))) > 2**31:
                    g = np.gcd.reduce(np.abs(sub), axis=1)
                    g[g == 0] = 1
                    sub //= g[:, None]
                below[idx] = sub
        r += 1
    return r


def int_rank(rows: Iterable[Sequence[int]] | np.ndarray, *, force_pure: bool = False) -> int:
    """Exact rank of an integer matrix."""
    if isinstance(rows, np.ndarray):
        mat = rows
        aslists = None
    else:
        aslists = [list(r) for r in rows]
        if not aslists or not aslists[0]:
            return 0
        mat = None
    if not force_pure:
        if mat is None:
            try:
                mat = np.array(aslists, dtype=np.int64)
            except OverflowError:
                mat = None
        if mat is not None and mat.size and int(np.max(np.abs(mat))) < OVERFLOW_LIMIT:
            got = _int_rank_numpy(mat)
            if got is not None:
                return got
    if aslists is None:
        aslists = [[int(x) for x in row] for row in rows]
    if not aslists or not aslists[0]:
        return 0
    return _int_rank_pure(aslists)


def rank(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank of a rational matrix (empty matrix has rank 0)."""
    rows = list(matrix)
    if not rows:
        return 0
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged matrix")
    if width == 0:
        return 0
    return int_rank([clear_denominators(row) for row in rows])


def affine_dim(points: Sequence[Sequence[Fraction | int]]) -> int:
    """Dimension of the affine hull: rank of {p_i - p_0}."""
    pts = list(points)
    if not pts:
        raise ValueError("affine_dim needs at least one point")
    base = pts[0]
    diffs = [[Fraction(x) - Fraction(y) for x, y in zip(p, base)] for p in pts[1:]]
    if not diffs:
        return 0
    return rank(diffs)


class IntRowBasis:
    """Incremental row-echelon basis over the integers.

    Feeding vectors one at a time tracks the exact rank of everything seen
    so far; `add` reports whether the vector enlarged the span.  Used for
    the staged independence certificates, where the rank after every batch
    matters.  Starts on the int64 path and converts itself wholesale to
    Python integers if the overflow guard ever trips.
    """

    def __init__(self, width: int, *, force_pure: bool = False):
        self.width = width
        self._pure = force_pure
        self._rows: list = []
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _to_pure(self) -> None:
        if not self._pure:
            self._rows = [[int(x) for x in row] for row in self._rows]
            self._pure = True

    def _reduce_pure(self, vec: list[int]) -> list[int]:
        for pc, row in zip(self._pivots, self._rows):
            c = vec[pc]
            if c:
                p = row[pc]
                vec = gcd_reduce([a * p - b * c for a, b in zip(vec, row)])
        return vec

    def add(self, vec: Sequence[int]) -> bool:
        """Reduce against the basis; keep the residual if nonzero."""
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        if not self._pure:
            v = np.array(vec, dtype=np.int64)
            ok = True
            for pc, row in zip(self._pivots, self._rows):
                c = int(v[pc])
                if c == 0:
                    continue
                p = int(row[pc])
                bound = abs(p) * int(np.max(np.abs(v))) + abs(c) * int(np.max(np.abs(row)))
                if bound >= OVERFLOW_LIMIT:
                    ok = False
                    break
                v = v * p - row * c
                if int(np.max(np.abs(v))) > 2**31:
                    g = int(np.gcd.reduce(np.abs(v)))
                    if g > 1:
                        v //= g
            if ok:
                nz = np.nonzero(v)[0]
                if nz.size == 0:
                    return False
                g = int(np.gcd.reduce(np.abs(v)))
                if g > 1:
                    v //= g
                self._pivots.append(int(nz[0]))
                self._rows.append(v)
                return True
            self._to_pure()
        v = self._reduce_pure([int(x) for x in vec])
        for i, x in enumerate(v):
            if x:
                self._pivots.append(i)
                self._rows.append(gcd_reduce(v))
                return True
        return False


def rref(matrix: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction; returns (rows, pivot columns).

    Intended for the small structured systems (constraint matrices, affine
    hull equations); the result is deterministic, with unit pivots and
    zero entries above and below each pivot.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def nullspace(matrix: Sequence[Sequence[Fraction | int]], ncols: int | None = None) -> list[list[Fraction]]:
    """Deterministic basis of {x : M x = 0}, one vector per free column."""
    rows = list(matrix)
    if not rows:
        if ncols is None:
            raise ValueError("nullspace of an empty matrix needs ncols")
        return [[Fraction(int(i == j)) for i in range(ncols)] for j in range(ncols)]
    width = len(rows[0])
    red, pivots = rref(rows)
    red = red[: len(pivots)]
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for prow, pc in zip(red, pivots):
            vec[pc] = -prow[fc]
        basis.append(vec)
    return basis
