"""Exact linear algebra over the rationals.

Everything geometric in this package (constraint ranks, affine hulls,
saturation ranks, hyperplane normals) reduces to Gaussian elimination over
exact numbers.  Rationals are `fractions.Fraction`; a matrix is any sequence
of equal-length rows of Fractions or ints.

There is one fraction-free row update, ``_fraction_free``, for
elimination here and for the simplex of ``lp``: the chosen rows become
(a_i p - a_ic a_r) // den, as whole-array numpy operations on a block
that holds them and the pivot row.  The simplex updates its whole tableau
in place; elimination gathers the rows it selects and scatters them back.
One peak P of the block certifies every intermediate below (|p| + P) P:
the update runs in int64 while that is under the overflow guard and, the
first time it is not, over Python integers from that update on, so every
answer is exact for any input.  There is one elimination loop on it,
over the integers: denominators are cleared first, den is 1 and updated
rows are divided by their gcd so entries stay small.
``pivot_columns`` and ``int_rank`` clear only the rows below each pivot;
``integer_rref`` clears every other row and scales the pivot rows to one
common denominator, and ``integer_nullspace`` reads its basis off them;
``rref`` and ``nullspace`` are their ``Fraction`` views.
``slack_matrix`` is the one check of inequalities against vertices,
``bound - coeffs.v`` for every pair, behind the same guard.

Ranks of 0/1 vectors given by their supports need no elimination when
each vector has a fresh coordinate, one that no earlier vector touches:
``has_fresh_coordinate`` finds those vectors in one pass, and each of
them is a pivot column.  The CGLMP witness and the strategy grid of
``dims`` are ranked this way; only when some vector has no fresh
coordinate do they build the matrix and call ``pivot_columns`` or
``int_rank``.

Rationals enter the integers in one place, ``integer_rows`` (a batch of
rows over one common denominator), and rows leave them divided by their
gcd in one place, ``gcd_reduce``.  The integer kernels read their input
through ``_entered``, which refuses an entry that is not an integer with
ValueError instead of truncating it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

# the working array leaves int64 before any intermediate value can reach this
OVERFLOW_LIMIT = 2**62


def gcd_reduce(a: np.ndarray) -> np.ndarray:
    """Each row of an integer array (int64 or Python ints) divided by the
    gcd of its entries, along the last axis; signs are kept and zero rows
    stay unchanged."""
    g = np.abs(np.gcd.reduce(a, axis=-1, keepdims=True))  # a one-entry row reduces to itself
    g[g == 0] = 1
    return a // g


def _peak(a: np.ndarray) -> int:
    """Largest absolute entry (0 for an empty array): two reductions, called
    as ufuncs, which skips ndarray.max's Python wrapper."""
    if not a.size:
        return 0
    return max(int(np.maximum.reduce(a, axis=None)), -int(np.minimum.reduce(a, axis=None)))


def _exact_int(x) -> int:
    """x as a Python int; ValueError when x is not an integer, which int()
    would truncate."""
    try:
        n = int(x)
    except OverflowError:  # an infinity
        n = None
    if n is None or n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


def _entered(rows, ndim: int = 2) -> tuple[np.ndarray, int]:
    """An integer array and its largest absolute entry: int64 when every
    entry is below OVERFLOW_LIMIT, the input itself when it already is an
    int64 array; Python ints (dtype object) otherwise, with OVERFLOW_LIMIT
    for the peak.

    Entries that numpy reads as integers or bools take one np.asarray.
    Any other batch (Fractions, floats, ints past int64) is read from the
    input through object, so that no entry passes through uint64 or
    float64, cast to int64 and compared with the entries it came from, or
    read entry by entry when some entry is past int64; an entry that is
    not an integer raises ValueError, never truncated.
    """
    src = np.asarray(rows)
    if src.size and src.ndim != ndim:
        raise ValueError("ragged matrix")
    if not np.can_cast(src.dtype, np.int64):  # anything but ints, bools and unsigned ints below 64 bits
        obj = np.asarray(rows, dtype=object)
        try:
            src = obj.astype(np.int64)  # int() of each entry, which truncates
        except OverflowError:  # an int past int64, or an infinity
            return np.frompyfunc(_exact_int, 1, 1)(obj), OVERFLOW_LIMIT
        truncated = src != obj
        if truncated.any():
            raise ValueError(f"{obj[truncated][0]!r} is not an integer")
    a = src.astype(np.int64, copy=False)
    peak = _peak(a)
    if peak < OVERFLOW_LIMIT:
        return a, peak
    return a.astype(object), OVERFLOW_LIMIT


def _int_array(rows) -> np.ndarray:
    """A fresh integer matrix: ``_entered``'s, copied when that is the input."""
    a = _entered(rows)[0]
    return a.copy() if a is rows else a


def integer_rows(rows) -> tuple[np.ndarray, int]:
    """Rational rows as one integer matrix M and a positive common
    denominator den with rows == M / den.

    Rows are vectors of numbers, objects with .coords, or an integer
    ndarray (den 1).  The package keeps every integral value a Python int
    (vertices, facets, class representatives), so rows whose entries are
    all Python ints are read by one np.array to int64, den 1, when each row
    has the same length and every entry is below OVERFLOW_LIMIT.  Any
    other batch (Fractions, bools, numpy scalars, larger ints, ragged rows)
    enters entry by entry, exactly, through its as_integer_ratio, or
    through Fraction when some entry has none (a numpy integer); a NaN or
    an infinity raises ValueError.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "i":
        return _int_array(rows), 1
    rows = [v.coords if hasattr(v, "coords") else v for v in rows]
    try:
        # stops at the first entry that is not a Python int, so a batch of
        # Fractions costs one look
        ints = all(type(x) is int for row in rows for x in row)
    except TypeError:  # a row that is not a sequence; the path below raises for it
        ints = False
    if ints and rows:
        try:
            a = np.array(rows, dtype=np.int64)
        except (OverflowError, TypeError, ValueError):  # an entry past int64, ragged or unordered rows
            a = None
        if a is not None and _peak(a) < OVERFLOW_LIMIT:
            return a, 1
    try:
        ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    except (AttributeError, TypeError, ValueError, OverflowError):
        ratios = [[_exact(x).as_integer_ratio() for x in row] for row in rows]
    den = math.lcm(*{q for row in ratios for _, q in row})
    return _int_array([[p * (den // q) for p, q in row] for row in ratios]), den


def _exact(x) -> Fraction:
    try:
        return Fraction(x)
    except OverflowError as exc:  # Fraction refuses infinities with OverflowError, NaN with ValueError
        raise ValueError(f"{x!r} is not a finite number") from exc


def slack_matrix(coeffs, bounds, vertices) -> np.ndarray:
    """bounds[:, None] - coeffs @ vertices.T, exactly, for integer
    inequality rows, their integer bounds and an integer vertex matrix.

    int64 when max|b| + width * max|a| * max|v|, a bound on every partial
    sum, stays under OVERFLOW_LIMIT; Python ints (dtype object) otherwise.
    Integer array arguments are read in place, not copied.
    """
    v, pv = _entered(vertices)
    b, pb = _entered(bounds, ndim=1)
    a, pa = _entered(coeffs)
    a = a.reshape(len(b), v.shape[1])
    if pb + v.shape[1] * pa * pv >= OVERFLOW_LIMIT:
        a, b, v = (x.astype(object) for x in (a, b, v))
    return b[:, None] - a @ v.T


def _fraction_free(a: np.ndarray, r: int, c: int, den: int = 1, idx: np.ndarray | None = None) -> np.ndarray:
    """The one fraction-free row update (Edmonds 1967; Bareiss 1968): rows
    idx of a, every row but r when idx is None, become
    (a_i * p - a_ic * a_r) // den, p = a[r, c]; the caller vouches that den
    divides them.

    The update runs on a block holding those rows and row r: a itself,
    in place, when idx is None, else a gathered copy of rows idx and r,
    scattered back.  The block is multiplied by p, the outer product of
    its column c and a copy of row r is subtracted, it is divided by den,
    and row r is put back.  With P the largest absolute entry of the block,
    every intermediate is at most (|p| + P) P; the update stays in int64
    while that stays under OVERFLOW_LIMIT, and otherwise a is first
    switched to Python ints (dtype object).  Returns a, or its switched
    copy.
    """
    piv = int(a[r, c])
    if idx is None:
        block, at = a, r
    else:
        rows = np.append(idx, r)
        block, at = a[rows], -1
    if a.dtype != object:
        peak = _peak(block)
        if (abs(piv) + peak) * peak >= OVERFLOW_LIMIT:
            a = a.astype(object)
            block = a if idx is None else block.astype(object)
    row = block[at].copy()
    col = block[:, c].copy()
    if piv != 1:
        block *= piv
    block -= col[:, None] * row
    if den != 1:
        block //= den
    block[at] = row
    if idx is not None:
        a[rows] = block
    return a


def _eliminate(rows, reduced: bool) -> tuple[np.ndarray, list[int]]:
    """The one elimination loop: fraction-free Gaussian elimination of an
    integer matrix, columns left to right; returns the worked array, its
    pivot rows first, and the pivot columns.

    The pivot is the first smallest nonzero entry at or below the current
    row; it clears the rows below it, and with reduced=True every other row
    too (Gauss-Jordan), so each pivot row ends with zeros in all the other
    pivot columns.  The rows are updated by ``_fraction_free`` with den 1,
    so the array leaves int64 the first time its guard would trip, keeping
    the rows eliminated so far.  On object arrays every updated row is then
    divided by its gcd.
    """
    a = _int_array(rows)
    pivots: list[int] = []
    if a.size == 0:
        return a, pivots
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
        first = 0 if reduced else r + 1
        idx = np.nonzero(a[first:, c])[0] + first
        if reduced:
            idx = idx[idx != r]
        if idx.size:
            a = _fraction_free(a, r, c, idx=idx)
            sub = a[idx]
            if a.dtype == object or _peak(sub) > 2**31:
                a[idx] = gcd_reduce(sub)
            del sub  # not held through the next update, whose copies it would add to
        pivots.append(c)
        r += 1
    return a, pivots


def pivot_columns(rows: Sequence[Sequence[int]] | np.ndarray) -> list[int]:
    """Pivot columns of an integer matrix under fraction-free elimination.

    Columns are eliminated left to right, so column c is a pivot exactly
    when it is not in the span of the columns before it: the pivots below
    k count the rank of the first k columns, and there are rank-many.
    Each pivot clears only the rows below it.
    """
    return _eliminate(rows, reduced=False)[1]


def int_rank(rows: Sequence[Sequence[int]] | np.ndarray) -> int:
    """Exact rank of an integer matrix: its number of pivot columns."""
    return len(pivot_columns(rows))


def has_fresh_coordinate(supports: np.ndarray, n: int) -> np.ndarray:
    """For k 0/1 vectors of length n in order, given as a k x w integer
    array of the coordinates of their ones, whether each has a fresh
    coordinate: one that no earlier vector touches.

    The vectors before such a vector are all zero at its fresh coordinate,
    so it is outside their span: with the vectors as the columns of one
    matrix it is a pivot column, as ``pivot_columns`` would find it.  When
    every vector has one, the rank of each prefix is its length.  A vector
    without one may still be independent; that is left to elimination.
    One ``np.minimum.at`` pass finds the first vector at each coordinate.
    """
    sup = np.asarray(supports, dtype=np.int64)
    k, w = sup.shape
    first = np.full(n, k, dtype=np.int64)
    np.minimum.at(first, sup.ravel(), np.repeat(np.arange(k), w))
    return (first[sup] == np.arange(k)[:, None]).any(axis=1)


def rank(matrix: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank of a rational matrix (empty matrix has rank 0)."""
    return int_rank(integer_rows(matrix)[0])


def affine_dim(points) -> int:
    """Dimension of the affine hull: rank of {p_i - p_0}.  Points are
    anything ``integer_rows`` takes."""
    mat = integer_rows(points)[0]
    if not len(mat):
        raise ValueError("affine_dim needs at least one point")
    return int_rank(mat[1:] - mat[0])


def integer_rref(rows) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form of an integer matrix over one common
    denominator: (E, pivots, D), E / D its nonzero rows and D the least
    such denominator, so E holds D at the pivot of each of its rows and 0
    at the other pivots.  Each pivot row of the elimination is divided by
    its gcd and scaled to D; the form is unique, whatever the pivot rows."""
    a, pivots = _eliminate(rows, reduced=True)
    e = gcd_reduce(a[: len(pivots)])
    piv = e[np.arange(len(pivots)), pivots].tolist()
    den = math.lcm(*piv)
    scale = [den // p for p in piv]
    if e.dtype != object and _peak(e) * max(map(abs, scale), default=0) >= OVERFLOW_LIMIT:
        e = e.astype(object)
    return _int_array(e * np.array(scale, dtype=e.dtype)[:, None]), pivots, den


def integer_nullspace(rows) -> tuple[np.ndarray, int]:
    """Deterministic basis of {x : M x = 0} for an integer matrix M, over
    one common denominator: (N, D), row k of N / D the basis vector of the
    k-th free column, 1 there, 0 at the other free columns and minus that
    column of the reduced row echelon form at the pivots."""
    e, pivots, den = integer_rref(rows)
    free = [c for c in range(e.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), e.shape[1]), dtype=e.dtype)
    basis[np.arange(len(free)), free] = den
    basis[:, pivots] = -e[:, free].T
    return basis, den


def rref(matrix: Sequence[Sequence[Fraction | int]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a rational matrix; returns (rows, pivot
    columns), one row per input row, zero rows last: ``integer_rref`` as
    Fractions, with unit pivots and zeros above and below each pivot."""
    rows = list(matrix)
    if not rows:
        return [], []
    e, pivots, den = integer_rref(integer_rows(rows)[0])
    red = [[Fraction(x, den) for x in row] for row in e.tolist()]
    return red + [[Fraction(0)] * e.shape[1] for _ in range(len(rows) - len(pivots))], pivots


def nullspace(matrix: Sequence[Sequence[Fraction | int]], ncols: int | None = None) -> list[list[Fraction]]:
    """Deterministic basis of {x : M x = 0}, one vector per free column:
    ``integer_nullspace`` as Fractions."""
    rows = list(matrix)
    if not rows:
        if ncols is None:
            raise ValueError("nullspace of an empty matrix needs ncols")
        rows = np.zeros((0, ncols), dtype=np.int64)
    basis, den = integer_nullspace(integer_rows(rows)[0])
    return [[Fraction(x, den) for x in row] for row in basis.tolist()]
