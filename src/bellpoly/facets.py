"""From vertices to facets: exact double description over the rationals.

Vertices are cleared of their common denominator den and homogenized to
integer rays (den v, den); the valid inequalities w.x <= beta of the
polytope are exactly the rays y = (w, -beta) of the polar cone
{y : y.r_i <= 0 for all i}, and the facets are its extreme rays.  The
double description method inserts the constraints r_i one at a time,
maintaining the extreme rays (and, early on, the lineality basis) of the
intermediate cone.  New rays are produced only from adjacent
positive/negative pairs, with the standard combinatorial adjacency test on
zero-sets kept as bitmasks.

Everything runs in reduced full-dimensional coordinates obtained from the
affine hull of the input vertices, so equations never masquerade as pairs
of facets.  All arithmetic is integer, from the affine hull to the facets:
rays are kept gcd-reduced, so each facet is emitted as its ray, already in
canonical form.  Results are deterministic: constraints are inserted in
sorted order and the facet list is emitted in lexicographic order.

A deadline can be supplied (the d=4 correlator polytope is the intended
user).  On expiry the insertion loop stops and whatever current rays are
valid for all remaining constraints are returned as verified facets with
complete=False; extremality in an intermediate pointed cone plus global
validity makes them genuine facets of the full polytope, just not all of
them.  Before the cone is pointed its rays are extreme only up to the
lineality space, so an expiry that early returns no facets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from . import linalg
from .linalg import gcd_reduce
from .lp import lp_max
from .scenario import Inequality, Scenario, constraint_matrix


@dataclass(frozen=True)
class VRep:
    """A polytope given by its vertices.

    expected_dim, when set, claims the affine dimension; enumeration fails
    loudly if the vertices span less (or more) than claimed.
    """

    ambient_dim: int
    vertices: tuple[tuple[Fraction, ...], ...]
    expected_dim: int | None = None

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a vertex representation needs at least one vertex")
        for v in self.vertices:
            if len(v) != self.ambient_dim:
                raise ValueError("vertex length does not match ambient dimension")


@dataclass(frozen=True)
class HRep:
    """Irredundant facet description plus the affine-hull equations."""

    ambient_dim: int
    equations: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    facets: tuple[Inequality, ...]
    reduced_dim: int
    complete: bool = True


class BudgetExpired(Exception):
    pass


def vrep_of(vectors, ambient_dim: int | None = None) -> VRep:
    """Wrap coordinate vectors, objects with .coords or an integer ndarray
    as a VRep."""
    mat, den = linalg.integer_rows(vectors)
    verts = tuple(tuple(Fraction(x, den) for x in row) for row in mat.tolist())
    dim = ambient_dim if ambient_dim is not None else len(verts[0])
    return VRep(dim, verts)


@lru_cache(maxsize=None)
def standard_equations(space: str, d: int):
    """Affine-hull equation system of a standard space, in reduced form.

    Returns (rows, pivots) where each row is (coefficients..., rhs) with a
    unit pivot; used to push inequality coefficients into a fixed gauge.
    """
    if space == "behavior":
        rows, rhs = constraint_matrix(Scenario(d))
    elif space == "correlator":
        rows = []
        rhs = []
        for block in range(4):
            row = [Fraction(0)] * (4 * d)
            for n in range(d):
                row[block * d + n] = Fraction(1)
            rows.append(row)
            rhs.append(Fraction(1))
    else:
        raise ValueError(f"no standard equations for space {space!r}")
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = linalg.rref(aug)
    if any(p >= len(rows[0]) for p in pivots):
        raise AssertionError("inconsistent standard equation system")
    kept = tuple(tuple(row) for row in red[: len(pivots)])
    return kept, tuple(pivots)


def canonicalize(ineq: Inequality, equations=None) -> Inequality:
    """Scale to coprime integers (orientation stays <=); idempotent.

    With an equation system, coefficients are first reduced modulo the
    equations (pivot coordinates eliminated, bound shifted along), which
    makes representatives comparable across gauge choices.
    """
    coeffs = list(ineq.coeffs)
    bound = ineq.bound
    if equations is not None:
        rows, pivots = equations
        for row, pc in zip(rows, pivots):
            c = coeffs[pc]
            if c:
                for j in range(len(coeffs)):
                    if row[j]:
                        coeffs[j] -= c * row[j]
                bound -= c * row[-1]
    if not any(coeffs):
        raise ValueError("zero coefficient vector cannot be canonicalized")
    scaled = gcd_reduce(linalg.clear_denominators(coeffs + [bound]))
    return Inequality(
        ineq.space,
        ineq.d,
        tuple(Fraction(x) for x in scaled[:-1]),
        Fraction(scaled[-1]),
    )


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def dd_extreme_rays(
    constraints: Sequence[Sequence[int]], dim: int, *, deadline: float | None = None
) -> tuple[list[tuple[int, ...]], bool]:
    """Extreme rays of {y : a.y <= 0 for each constraint a}.

    The cone must come out pointed (the constraints span), which holds for
    homogenized vertex sets of full-dimensional polytopes.  Returns the
    rays and a completeness flag; with a deadline the last consistent
    snapshot of a pointed cone (empty before the cone is pointed) is
    filtered for global validity by the caller.
    """
    lin: list[list[int]] = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rays: list[list] = []  # [vector, zset bitmask over inserted constraints]
    snapshot: list[tuple[int, ...]] = []

    def expired() -> bool:
        return deadline is not None and time.monotonic() > deadline

    try:
        for ci, a in enumerate(constraints):
            if expired():
                raise BudgetExpired
            # rays are extreme only once the cone is pointed (no lineality left)
            snapshot = [] if lin else [tuple(r) for r, _ in rays]
            bit = 1 << ci
            lin_dots = [_idot(a, l) for l in lin]
            hit = next((i for i, v in enumerate(lin_dots) if v), None)
            if hit is not None:
                l0 = lin[hit] if lin_dots[hit] < 0 else [-x for x in lin[hit]]
                d0 = _idot(a, l0)  # < 0
                new_lin = []
                for i, l in enumerate(lin):
                    if i == hit:
                        continue
                    dl = lin_dots[i]
                    new_lin.append(gcd_reduce([d0 * x - dl * y for x, y in zip(l, l0)]))
                lin = new_lin
                for entry in rays:
                    r = entry[0]
                    dr = _idot(a, r)
                    if dr:
                        entry[0] = gcd_reduce([-d0 * x + dr * y for x, y in zip(r, l0)])
                    entry[1] |= bit
                mask = (1 << ci) - 1
                rays.append([gcd_reduce(list(l0)), mask])
                continue
            zero, neg, pos = [], [], []
            for entry in rays:
                v = _idot(a, entry[0])
                if v == 0:
                    entry[1] |= bit
                    zero.append(entry)
                elif v < 0:
                    neg.append((entry, v))
                else:
                    pos.append((entry, v))
            if not pos:
                continue
            if not neg and not zero:
                rays = []
                continue
            needed = dim - len(lin) - 2
            combos: dict[tuple[int, ...], list] = {}
            work = 0
            for pentry, pval in pos:
                for nentry, nval in neg:
                    work += 1
                    if work % 4096 == 0 and expired():
                        raise BudgetExpired
                    common = pentry[1] & nentry[1]
                    if common.bit_count() < needed:
                        continue
                    adjacent = True
                    for entry in rays:
                        if entry is pentry or entry is nentry:
                            continue
                        if entry[1] & common == common:
                            adjacent = False
                            break
                    if not adjacent:
                        continue
                    vec = gcd_reduce(
                        [-nval * x + pval * y for x, y in zip(pentry[0], nentry[0])]
                    )
                    combos.setdefault(tuple(vec), [list(vec), common | bit])
            keep = [e for e, _ in neg] + zero
            rays = keep + [v for _, v in sorted(combos.items())]
    except BudgetExpired:
        return snapshot, False
    if lin:
        raise ValueError("degenerate input: constraints do not span, cone is not pointed")
    return [tuple(r) for r, _ in rays], True


def enumerate_facets(
    vrep: VRep, *, space: str = "vector", d: int | None = None, deadline: float | None = None
) -> HRep:
    """Complete, irredundant facet list of the convex hull of the vertices.

    Works in reduced full-dimensional coordinates from the affine hull;
    facets come back in the ambient space, gauge-fixed to the reduced
    coordinate choice, canonicalized, in lexicographic order.  Soundness
    (every vertex satisfies every facet) is asserted before returning.
    """
    mat, den = linalg.integer_rows(vrep.vertices)
    ints = mat.tolist()
    ambient = vrep.ambient_dim
    if d is None:
        d = ambient
    # affine hull: all (w, c) with w.v = c on every vertex v = row / den
    null = linalg.nullspace([row + [den] for row in ints])
    equations = [(tuple(vec[:-1]), -vec[-1]) for vec in null]
    pivots = linalg.pivot_columns(linalg.integer_rows([w for w, _ in equations])[0])
    free = [j for j in range(ambient) if j not in pivots]
    reduced_dim = len(free)
    if vrep.expected_dim is not None and reduced_dim != vrep.expected_dim:
        raise ValueError(
            f"degenerate input: affine hull has dimension {reduced_dim}, "
            f"claimed {vrep.expected_dim}"
        )
    if len(ints) < reduced_dim + 1:
        raise ValueError("degenerate input: fewer vertices than dimension plus one")
    if reduced_dim == 0:
        return HRep(ambient, tuple(equations), (), 0, True)

    rows = sorted({tuple(row[j] for j in free) + (den,) for row in ints})
    rays, complete = dd_extreme_rays(rows, reduced_dim + 1, deadline=deadline)

    # soundness: every ray, as an ambient inequality, is valid on every vertex;
    # a run cut short keeps only the rays that are
    coeffs = [[0] * ambient for _ in rays]
    for row, ray in zip(coeffs, rays):
        for j, c in zip(free, ray[:-1]):
            row[j] = c
    valid = (linalg.slack_matrix(coeffs, [-den * r[-1] for r in rays], mat) >= 0).all(axis=1)
    if complete and not valid.all():
        raise AssertionError("enumerated facet violated by an input vertex")
    # the rays are gcd-reduced and distinct, so each already is its canonical form
    kept = sorted((tuple(row), -ray[-1]) for row, ray, ok in zip(coeffs, rays, valid) if ok)
    if any(not any(row) for row, _ in kept):
        raise ValueError("zero coefficient vector cannot be canonicalized")
    facets = tuple(
        Inequality(space, d, tuple(map(Fraction, row)), Fraction(bound)) for row, bound in kept
    )
    return HRep(ambient, tuple(equations), facets, reduced_dim, complete)


def saturation_count(ineq: Inequality, vertices) -> tuple[int, int]:
    """(number of vertices with exact equality, rank of that vertex set).

    Raises when the inequality is violated by a vertex or supports none of
    them; a facet of a D-dimensional polytope whose affine hull misses the
    origin shows rank exactly D.
    """
    mat, den = linalg.integer_rows(vertices)
    *coeffs, bound = linalg.clear_denominators([*ineq.coeffs, ineq.bound])
    slack = linalg.slack_matrix([coeffs], [den * bound], mat)[0]
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
    rows, rhs = constraint_matrix(Scenario(ineq.d))
    res = lp_max(ineq.coeffs, eq_rows=rows, eq_rhs=rhs, nonneg=True)
    if res.status != "optimal":
        raise AssertionError(f"no-signaling LP came back {res.status}")
    return res.optimum


def classify_trivial(ineq: Inequality) -> bool:
    """True when the inequality cannot be violated by any normalized
    no-signaling behavior."""
    return nosignaling_max(ineq) <= ineq.bound
