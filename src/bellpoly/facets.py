"""From vertices to facets: exact double description over the rationals.

Vertices are cleared of their common denominator den and homogenized to
integer rays (den v, den); the valid inequalities w.x <= beta of the
polytope are exactly the rays y = (w, -beta) of the polar cone
{y : y.r_i <= 0 for all i}, and the facets are its extreme rays.  The
double description method (Fukuda and Prodon, "Double description method
revisited", 1996) starts from the simplicial cone of the first dim
linearly independent constraints, whose extreme rays are the columns of
-B^-1, and inserts the other constraints one at a time in sorted order,
maintaining the extreme rays of the intermediate cone.

Each insertion is a few numpy operations over all rays.  The rays are one
integer array, int64 behind an overflow guard and Python ints once it
trips, and that array is what dd_extreme_rays returns; their zero sets
(the inserted constraints each ray meets with equality) are packed uint64
words, ceil(m / 64) of them for m constraints, one row per ray.  New rays
come only from adjacent positive/negative pairs.  A pair is kept only if
its two zero sets share dim - 2 constraints, which is tested for blocks of
pairs by a popcount of the ANDed words (np.bitwise_count on numpy >= 2.0,
a byte table before that), summed in int64.  The survivors get the
combinatorial adjacency test transposed: row j of an incidence table is
the packed set of rays whose zero set holds constraint j, and the AND of
those rows over a pair's common zero set, one reduceat for all pairs, is
the rays containing it; the pair is adjacent iff those are the pair alone.
Only the survivors' common zero sets are unpacked, and one flatnonzero
lists their (pair, constraint) entries in pair order.  At dim 2 a pair
may share no constraint; every ray contains that empty set, so such a
pair is adjacent iff the cone has exactly two rays.

Everything runs in reduced full-dimensional coordinates obtained from the
affine hull of the input vertices, so equations never masquerade as pairs
of facets.  All arithmetic is integer, from the affine hull to the facets:
rays are kept gcd-reduced, so each facet is emitted as its ray, already in
canonical form, with Python int coefficients and bound.  Results are
deterministic: the facet list is emitted in lexicographic order.

A deadline can be supplied (the d=4 correlator polytope is the intended
user); it is checked before each insertion and between blocks of pairs.
On expiry the insertion loop stops and whatever current rays are valid
for all remaining constraints are returned as verified facets with
complete=False; extremality in an intermediate pointed cone plus global
validity makes them genuine facets of the full polytope, just not all of
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import gcd_reduce
from .lp import lp_max
from .correlators import projected_generator_matrix
from .scenario import Inequality, _constraint_system, generator_matrix


@dataclass(frozen=True, eq=False)
class VRep:
    """A polytope given by its vertices: one read-only integer matrix over
    a positive common denominator (vertices / den), made by vrep_of."""

    matrix: np.ndarray
    den: int


@dataclass(frozen=True)
class HRep:
    """Irredundant facet description plus the affine-hull equations: rows
    (w..., c) of Python ints with w.v = c on every vertex v, the equations
    (w / equations_den).v = c / equations_den that enumerate prints."""

    equations: tuple[tuple[int, ...], ...]
    equations_den: int
    facets: tuple[Inequality, ...]
    reduced_dim: int
    complete: bool = True


class BudgetExpired(Exception):
    pass


def vrep_of(vectors) -> VRep:
    """Coordinate vectors of Fractions or ints, objects with .coords, or an
    integer ndarray as a VRep; the first vector's length is the ambient
    dimension, and every other vector must have it."""
    if isinstance(vectors, np.ndarray):
        ragged = vectors.ndim != 2
    else:
        vectors = [getattr(v, "coords", v) for v in vectors]
        ragged = len(set(map(len, vectors))) > 1
    if ragged:
        raise ValueError("vertex length does not match ambient dimension")
    mat, den = linalg.integer_rows(vectors)
    if not len(mat):
        raise ValueError("a vertex representation needs at least one vertex")
    mat.flags.writeable = False
    return VRep(mat, den)


@lru_cache(maxsize=None)
def space_vertices(space: str, d: int) -> np.ndarray:
    """The vertices of a space as one read-only 0/1 integer matrix: the
    generators, or the projected generators."""
    if space not in ("behavior", "correlator"):
        raise ValueError(f"no vertices for space {space!r}")
    mat = generator_matrix(d) if space == "behavior" else projected_generator_matrix(d)
    mat.flags.writeable = False
    return mat


def canonicalize(ineq: Inequality) -> Inequality:
    """Scale to coprime integers, returned as Python ints (orientation
    stays <=); idempotent.  The class key of symmetry.gauge_rows is this
    row reduced modulo the space's affine-hull equations first."""
    row = linalg.integer_rows([(*ineq.coeffs, ineq.bound)])[0][0]
    if not row[:-1].any():
        raise ValueError("zero coefficient vector cannot be canonicalized")
    *coeffs, bound = gcd_reduce(row).tolist()
    return Inequality(ineq.space, ineq.d, tuple(coeffs), bound)


# set bits of every byte value; _BYTE_SUM adds the eight bytes of a word into its top byte
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_BYTE_SUM = np.uint64(0x0101010101010101)
_TOP_BYTE = np.uint64(56)
# positive x negative pairs per filter block; packed words gathered per adjacency chunk
_PAIR_BLOCK = 1 << 15
_ADJ_WORDS = 1 << 18


def _table_popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each word of a C-contiguous uint64 array, as int64, by
    a 256-entry table of byte counts."""
    out = _POPCOUNT.take(words.view(np.uint8)).view(np.uint64)
    out *= _BYTE_SUM
    out >>= _TOP_BYTE
    return out.view(np.int64)


# set bits of each word of a uint64 array: the hardware count of numpy >= 2.0
# (uint8, so sums of it are taken in int64), the table before that
_popcount = getattr(np, "bitwise_count", _table_popcount)


def _pack(bits: np.ndarray) -> np.ndarray:
    """0/1 rows as packed uint64 words: bit j % 64 of word j // 64."""
    n, k = bits.shape
    out = np.zeros((n, -(-k // 64) * 8), dtype=np.uint8)
    out[:, : -(-k // 8)] = np.packbits(bits, axis=1, bitorder="little")
    return out.view(np.uint64)


def _unpack(words: np.ndarray) -> np.ndarray:
    """Packed uint64 rows as 0/1 bytes, bit j of a row in column j."""
    return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")


def _adjacent_pairs(zsets: np.ndarray, pos: np.ndarray, neg: np.ndarray, needed: int, expired):
    """The positive/negative pairs of rays that are adjacent.

    A pair can be adjacent only if its zero sets share needed bits; that
    filter popcounts the ANDed words of blocks of pairs, with a deadline
    check between blocks.  The survivors get the combinatorial adjacency
    test: no ray but the two has a zero set containing their common zero
    set.  Only the survivors' common sets are unpacked, into one list of
    (pair, bit) entries.  Row j of the transposed incidence is the packed
    set of rays whose zero set holds bit j; the AND of those rows over a
    pair's common set is the rays containing it, and the pair is adjacent
    iff that is the pair alone.
    """
    if not neg.size:
        return neg, neg
    found = []
    # row w: word w of the zero set of every positive (negative) ray
    zpos, zneg = zsets[pos].T, zsets[neg].T
    incidence = None
    step = max(1, _PAIR_BLOCK // len(neg))
    for start in range(0, len(pos), step):
        if start and expired():
            raise BudgetExpired
        block = pos[start:start + step]
        counts = np.zeros((len(block), len(neg)), dtype=np.int64)
        for zp, zn in zip(zpos, zneg):
            counts += _popcount(zp[start:start + step, None] & zn)
        ip, jn = np.divmod(np.flatnonzero(counts >= needed), len(neg))
        if not ip.size:
            continue
        if incidence is None:
            incidence = _pack(np.ascontiguousarray(_unpack(zsets).T))
        ip, jn = block[ip], neg[jn]
        # as bool, which flatnonzero scans several times faster than uint8
        common = _unpack(zsets[ip] & zsets[jn]).view(bool)
        pair, con = np.divmod(np.flatnonzero(common), common.shape[1])
        sizes = np.bincount(pair, minlength=len(ip))
        # an empty common set (dim 2 only) lies in every ray's zero set, so
        # its pair is adjacent iff the cone has two rays; reduceat takes the rest
        adjacent = np.full(len(ip), len(zsets) == 2)
        held = np.flatnonzero(sizes)
        starts = np.zeros(len(held) + 1, dtype=np.intp)
        np.cumsum(sizes[held], out=starts[1:])
        chunk = max(1, _ADJ_WORDS // incidence.shape[1] * len(held) // max(1, len(con)))
        for c in range(0, len(held), chunk):
            end = min(c + chunk, len(held))
            lo, hi = starts[c], starts[end]
            containing = np.bitwise_and.reduceat(incidence[con[lo:hi]], starts[c:end] - lo, axis=0)
            adjacent[held[c:end]] = np.add.reduce(_popcount(containing), axis=1, dtype=np.int64) == 2
        found.append((ip[adjacent], jn[adjacent]))
    if not found:
        return neg[:0], neg[:0]
    pp, nn = zip(*found)
    return np.concatenate(pp), np.concatenate(nn)


def _new_rays(rays: np.ndarray, vals: np.ndarray, pp: np.ndarray, nn: np.ndarray) -> np.ndarray:
    """Where the face spanned by each adjacent pair (r_p, r_n) meets the
    hyperplane a.y = 0: the ray vals_p r_n - vals_n r_p, gcd-reduced."""
    return gcd_reduce(vals[pp, None] * rays[nn] - vals[nn, None] * rays[pp])


def dd_extreme_rays(
    constraints: Sequence[Sequence[int]], dim: int, *, deadline: float | None = None
) -> tuple[np.ndarray, bool]:
    """Extreme rays of {y : a.y <= 0 for each constraint a}.

    The constraints must span (the cone is then pointed), which holds for
    homogenized vertex sets of full-dimensional polytopes.  Returns the
    rays, one gcd-reduced row each of an integer array (int64, or Python
    ints once the overflow guard trips), and a completeness flag; with a
    deadline the rays of the last intermediate cone are returned, to be
    filtered for global validity by the caller.
    """
    cons = linalg._int_array(constraints).reshape(-1, dim)
    m = len(cons)
    # Gauss-Jordan on [C^T | I] picks the first dim independent constraints
    # as a basis B and leaves [D | D B^-T] with D diagonal in the pivot columns
    red, basis = linalg._eliminate(np.hstack([cons.T, np.eye(dim, dtype=cons.dtype)]), reduced=True)
    if basis[-1] >= m:
        raise ValueError("degenerate input: constraints do not span, cone is not pointed")
    # the initial rays, the columns of -B^-1: ray k is zero on every basis row but row k
    diag = red[np.arange(dim), basis]
    rays = linalg._int_array(gcd_reduce(-np.sign(diag)[:, None] * red[:, m:]))
    peak = int(np.abs(rays).max())
    cons_peak = np.abs(cons).max(axis=1).tolist()
    # zero set of each ray: bit i for each inserted constraint i the ray
    # meets with equality, in ceil(m / 64) words
    bits = np.zeros((dim, m), dtype=np.uint8)
    bits[:, basis] = 1 - np.eye(dim, dtype=np.uint8)
    zsets = _pack(bits)
    # adjacent rays share dim - 2 constraints
    needed = dim - 2

    def expired() -> bool:
        return deadline is not None and time.monotonic() > deadline

    try:
        for ci in sorted(set(range(m)) - set(basis)):
            if expired():
                raise BudgetExpired
            # |vals| <= dim peak max|a|, and a new ray is at most 2 max|vals| peak
            if rays.dtype != object and 2 * dim * peak * cons_peak[ci] * peak >= linalg.OVERFLOW_LIMIT:
                rays = rays.astype(object)
            vals = rays @ cons[ci]
            bit = np.uint64(1 << (ci % 64))
            zsets[:, ci // 64] |= (vals == 0) * bit
            pos = (vals > 0).nonzero()[0]
            if not pos.size:
                continue
            keep = vals <= 0
            pp, nn = _adjacent_pairs(zsets, pos, (vals < 0).nonzero()[0], needed, expired)
            new = _new_rays(rays, vals, pp, nn)
            peak = max(peak, int(np.abs(new).max(initial=0)))
            znew = zsets[pp] & zsets[nn]
            znew[:, ci // 64] |= bit
            rays, zsets = np.concatenate([rays[keep], new]), np.concatenate([zsets[keep], znew])
    except BudgetExpired:
        # rays is replaced only once an insertion is complete
        return rays, False
    return rays, True


def enumerate_facets(
    vrep: VRep, *, space: str = "vector", d: int | None = None, deadline: float | None = None
) -> HRep:
    """Complete, irredundant facet list of the convex hull of the vertices.

    Works in reduced full-dimensional coordinates from the affine hull;
    facets come back in the ambient space, gauge-fixed to the reduced
    coordinate choice, canonicalized, in lexicographic order.  Soundness
    (every vertex satisfies every facet) is asserted before returning.
    """
    mat, den = vrep.matrix, vrep.den
    ambient = mat.shape[1]
    if d is None:
        d = ambient
    # affine hull: all (w, c) with w.v = c on every vertex v = row / den,
    # the nullspace (w, -c) of the rows [den v | den], over one denominator
    dens = np.full(len(mat), den, dtype=mat.dtype if den < linalg.OVERFLOW_LIMIT else object)
    hull, hden = linalg.integer_nullspace(np.column_stack([mat, dens]))
    equations = tuple((*w, -c) for *w, c in hull.tolist())
    pivots = linalg.pivot_columns(hull[:, :-1])
    free = [j for j in range(ambient) if j not in pivots]
    reduced_dim = len(free)
    if len(mat) < reduced_dim + 1:
        raise ValueError("degenerate input: fewer vertices than dimension plus one")
    if reduced_dim == 0:
        return HRep(equations, hden, (), 0, True)

    rows = sorted({(*row, den) for row in mat[:, free].tolist()})
    rays, complete = dd_extreme_rays(rows, reduced_dim + 1, deadline=deadline)

    # soundness: every ray, as an ambient inequality, is valid on every vertex;
    # a run cut short keeps only the rays that are
    coeffs = np.zeros((len(rays), ambient), dtype=rays.dtype)
    coeffs[:, free] = rays[:, :-1]
    bounds = -rays[:, -1]
    valid = (linalg.slack_matrix(coeffs, [den * b for b in bounds.tolist()], mat) >= 0).all(axis=1)
    if complete and not valid.all():
        raise AssertionError("enumerated facet violated by an input vertex")
    coeffs, bounds = coeffs[valid], bounds[valid]
    if not coeffs.any(axis=1).all():
        raise ValueError("zero coefficient vector cannot be canonicalized")
    # the rays are gcd-reduced and distinct, so each already is its canonical
    # form, with Python int coefficients and bound
    kept = sorted(zip(map(tuple, coeffs.tolist()), bounds.tolist()))
    facets = tuple(Inequality(space, d, row, bound) for row, bound in kept)
    return HRep(equations, hden, facets, reduced_dim, complete)


def saturation_count(ineq: Inequality, vertices) -> tuple[int, int]:
    """(number of vertices with exact equality, rank of that vertex set).

    Raises when the inequality is violated by a vertex or supports none of
    them; a facet of a D-dimensional polytope whose affine hull misses the
    origin shows rank exactly D.
    """
    mat, den = linalg.integer_rows(vertices)
    row = linalg.integer_rows([(*ineq.coeffs, ineq.bound)])[0]
    slack = linalg.slack_matrix(row[:, :-1], [den * int(row[0, -1])], mat)[0]
    if (slack < 0).any():
        raise ValueError("inequality is violated by a vertex; not supporting")
    tight = slack == 0
    if not tight.any():
        raise ValueError("inequality touches no vertex; not supporting")
    return int(tight.sum()), linalg.int_rank(mat[tight])


def nosignaling_max(ineq: Inequality) -> Fraction:
    """Exact maximum over the normalized no-signaling polytope.

    A correlator inequality needs no LP: P_ab(k,s) = C_ab(k-s)/d is
    no-signaling for any four distributions C_ab (every marginal is
    uniform), so the maximum is the sum over the blocks of the largest
    coefficient (Barrett et al., PRA 71, 022101 (2005)).  Behavior
    inequalities are solved by the exact LP.
    """
    if ineq.space == "correlator":
        d = ineq.d
        return sum((max(ineq.coeffs[b * d:(b + 1) * d]) for b in range(4)), Fraction(0))
    if ineq.space != "behavior":
        raise ValueError("triviality is defined against the no-signaling polytope")
    rows, rhs = _constraint_system(ineq.d)
    res = lp_max(ineq.coeffs, eq_rows=rows, eq_rhs=rhs)
    if res.status != "optimal":
        raise AssertionError(f"no-signaling LP came back {res.status}")
    return res.optimum


def classify_trivial(ineq: Inequality) -> bool:
    """True when the inequality cannot be violated by any normalized
    no-signaling behavior."""
    return nosignaling_max(ineq) <= ineq.bound
