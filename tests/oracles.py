"""Independent reference computations used to check the main code paths.

Nothing here calls the algorithms it is meant to check: row reductions
are Fraction row operations (the library eliminates over integers and
divides by the pivots at the end), vertices of the
no-signaling polytope are written out and checked vertex by vertex (only
their completeness is read off the package's facet enumeration, which the
subset oracle below checks on its own), slack values come from one
Fraction dot product per vertex, facets of the d=2 correlator polytope
from hyperplanes through vertex subsets, symmetry
classes from Fraction orbits in a fixed gauge over a group built one
element at a time (the library compares integer gauge rows, under a
group table broadcast in numpy) and from orbits keyed by tuples of
Python ints (the library keys them by row bytes), class representatives
from the whole gcd-reduced slack matrix of an orbit (the library narrows
the orbit one vertex at a time), the fixed gauge from a Fraction loop
over fraction_rref equations (the library reduces an integer row in one
product), LP results from a Fraction tableau (the
library pivots over integers) and each integer pivot from rows gathered
and scattered back over Python ints (the library updates the whole
tableau in place, in int64 behind its guard), the CGLMP tightness rank
and polytope dimension from the full saturating and d^4-row matrices and the CGLMP
bound from a strategy-by-strategy loop with its own r, s, t, u, f and
sign/sum case table (the library ranks the explicit
witness and strategy grid, by fresh coordinates where it can, and sweeps
the bound with numpy), the witness checks one step at a time (the library
checks every step's vectors in one pass), pivot columns of 0/1 vectors by elimination (the
library reads them off fresh coordinates where it can), extreme rays
from double description one positive/negative pair at a time (the
library filters and tests whole blocks of pairs in numpy), and the
reductions are hardcoded rather than borrowed from the library.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from bellpoly.lp import LPResult


def fraction_rref(matrix):
    """Reduced row echelon form over Fraction, one row operation at a time;
    returns (rows, pivot columns), zero rows last: the loop that the
    integer elimination replaced as linalg.rref."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
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


def _behavior_d2(entry) -> tuple[Fraction, ...]:
    """The d=2 behavior with P(k, s | a, b) = entry(a, b, k, s), settings
    and outcomes counted from 0, in the package's coordinate order."""
    return tuple(
        Fraction(entry(a, b, k, s))
        for a, b, k, s in itertools.product(range(2), repeat=4)
    )


@functools.lru_cache(maxsize=None)
def nosignaling_vertices(d: int) -> tuple:
    """The 24 vertices of the d=2 no-signaling polytope, written out.

    The 16 deterministic strategies and the 8 PR boxes, k xor s = a*b xor
    alpha*a xor beta*b xor gamma with probability 1/2 each.  Checked here
    against their defining properties: each point is feasible, each is a
    vertex (with the equations, its zero coordinates have full rank 16),
    the points are distinct, and the list is complete, because the facets
    of their hull are exactly the 16 positivity constraints.
    """
    from bellpoly.facets import enumerate_facets, vrep_of
    from bellpoly.scenario import constraint_matrix

    if d != 2:
        raise ValueError("the written-out vertex list is for d=2")
    points = [
        _behavior_d2(lambda a, b, k, s, lam=lam: k == lam[a] and s == lam[2 + b])
        for lam in itertools.product(range(2), repeat=4)
    ] + [
        _behavior_d2(
            lambda a, b, k, s, box=box: Fraction(k ^ s == (a & b) ^ (box[0] & a) ^ (box[1] & b) ^ box[2], 2)
        )
        for box in itertools.product(range(2), repeat=3)
    ]
    rows, rhs = constraint_matrix(2)
    for p in points:
        assert min(p) >= 0
        assert [sum(c * x for c, x in zip(row, p)) for row in rows] == rhs
        tight = [[int(i == j) for j in range(16)] for i in range(16) if p[i] == 0]
        assert len(fraction_rref(rows + tight)[1]) == 16
    assert len(set(points)) == 24
    hull = enumerate_facets(vrep_of(points))
    zero_sets = {frozenset(p for p in points if p[i] == 0) for i in range(16)}
    facet_sets = {
        frozenset(p for p in points if sum(c * x for c, x in zip(q.coeffs, p)) == q.bound)
        for q in hull.facets
    }
    assert hull.reduced_dim == 8 and len(hull.facets) == 16 and facet_sets == zero_sets
    return tuple(sorted(points))


def fraction_slack(coeffs, bound, vertices) -> list[Fraction]:
    """bound - coeffs.v at every vertex, one Fraction dot product each: the
    loop that linalg.slack_matrix replaced in the package."""
    return [
        Fraction(bound) - sum((Fraction(c) * x for c, x in zip(coeffs, v)), Fraction(0))
        for v in vertices
    ]


def _canonical_int(coeffs, bound):
    lcm = 1
    for q in list(coeffs) + [bound]:
        lcm = lcm * q.denominator // math.gcd(lcm, q.denominator)
    ints = [int(q * lcm) for q in coeffs] + [int(bound * lcm)]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints[:-1]), ints[-1]


def square_subset_facets(vertices_reduced, dim):
    """Facets by brute force: hyperplanes through dim-subsets of vertices.

    For every subset of size dim that spans a hyperplane, compute its
    normal, keep it if every vertex sits on one side, and canonicalize.
    Returns a set of (integer coefficients, bound) pairs over the reduced
    coordinates.
    """
    found = set()
    for subset in itertools.combinations(vertices_reduced, dim):
        hom = [list(v) + [Fraction(1)] for v in subset]
        red, pivots = fraction_rref(hom)
        if len(pivots) != dim:
            continue  # subset does not span a hyperplane
        free = [c for c in range(dim + 1) if c not in pivots]
        if len(free) != 1:
            continue
        normal = [Fraction(0)] * (dim + 1)
        normal[free[0]] = Fraction(1)
        for row, pc in zip(red, pivots):
            normal[pc] = -row[free[0]]
        w, c0 = normal[:dim], normal[dim]
        vals = [sum(a * x for a, x in zip(w, v)) + c0 for v in vertices_reduced]
        if all(v <= 0 for v in vals):
            found.add(_canonical_int(w, Fraction(-c0)))
        elif all(v >= 0 for v in vals):
            found.add(_canonical_int([-a for a in w], Fraction(c0)))
    return found


@functools.lru_cache(maxsize=None)
def fraction_equations(space: str, d: int):
    """The affine-hull equations of a standard space as (rows, pivots):
    the fraction_rref rows [w | rhs] with a unit pivot each."""
    from bellpoly.scenario import constraint_matrix

    if space == "behavior":
        rows, rhs = constraint_matrix(d)
    else:  # the four correlator block sums are 1
        rows, rhs = [[int(j // d == block) for j in range(4 * d)] for block in range(4)], [1] * 4
    red, pivots = fraction_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    return tuple(map(tuple, red[: len(pivots)])), tuple(pivots)


def fraction_canonicalize(ineq, equations=None):
    """canonicalize, or with equations the key of symmetry.gauge_rows, as
    a Fraction loop: coefficients reduced modulo the equations one pivot
    row at a time, then scaled to coprime integers; the loop that the
    integer row update of symmetry.gauge replaced."""
    from bellpoly.scenario import Inequality

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
    ints, b = _canonical_int(coeffs, bound)
    return Inequality(ineq.space, ineq.d, tuple(map(Fraction, ints)), Fraction(b))


def gauge_key(ineq):
    """(coeffs, bound) in the fixed gauge: coefficients reduced modulo the
    space's affine-hull equations, then scaled to coprime integers."""
    q = fraction_canonicalize(ineq, fraction_equations(ineq.space, ineq.d))
    return q.coeffs, q.bound


def gauge_orbit(ineq):
    """The fixed-gauge key of the image of ineq under every element of
    loop_group, one Fraction canonicalization per element."""
    from bellpoly.scenario import Inequality

    for perm in loop_group(ineq.space, ineq.d):
        image = Inequality(ineq.space, ineq.d, tuple(ineq.coeffs[i] for i in perm), ineq.bound)
        yield gauge_key(image)


def gauge_orbit_min(ineq):
    """The least fixed-gauge key over the orbit: equal exactly for
    equivalent inequalities."""
    return min(gauge_orbit(ineq))


def gauge_labels(ineqs):
    """Symmetry class labels by first appearance, from fixed-gauge orbits:
    each new class's orbit is materialized once as a lookup."""
    lookup = {}
    labels = []
    for q in ineqs:
        key = gauge_key(q)
        if key not in lookup:
            lookup.update(dict.fromkeys(gauge_orbit(q), len(set(labels))))
        labels.append(lookup[key])
    return labels


def tuple_labels(rows, orbit):
    """Class labels by first appearance of the key rows of a 2-D integer
    array, orbit(row) giving the key rows of a row's orbit, each new orbit
    looked up as tuples of Python ints: the loop that
    symmetry.label_classes keys by row bytes."""
    lookup = {}
    labels = []
    for row, key in zip(rows, map(tuple, rows.tolist())):
        if key not in lookup:
            lookup.update(dict.fromkeys(map(tuple, orbit(row).tolist()), len(set(labels))))
        labels.append(lookup[key])
    return labels


def least_slack_row(orbit, vertices) -> list[int]:
    """The orbit row whose gcd-reduced slack over the vertices is the
    lexicographic minimum, the first of equal ones: the whole slack matrix
    in one linalg.slack_matrix, each row gcd-reduced, and Python min over
    (row tuple, index), the definition that symmetry.canonical_class
    narrows one vertex at a time."""
    from bellpoly import linalg

    slack = linalg.gcd_reduce(linalg.slack_matrix(orbit[:, :-1], orbit[:, -1], vertices))
    _, i = min((tuple(row), i) for i, row in enumerate(slack.tolist()))
    return orbit[i].tolist()


def _fraction_pivot(rows, rhs, basis, costrow, pr: int, pc: int) -> Fraction:
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
    delta = Fraction(0)
    if f:
        for j in range(len(costrow)):
            if prow[j]:
                costrow[j] -= f * prow[j]
        delta = f * pb
    basis[pr] = pc
    return delta


def gather_scatter_pivot(tableau, basis, den: int, pr: int, pc: int):
    """Edmonds' integer pivot on tableau[pr][pc] as the library made it
    before it pivoted in place: the pivot row negated first when its entry
    is negative, then every other row gathered, updated to
    (t_i p - t_ic t_r) // den over Python ints and scattered back.
    Returns (rows, basis, new den) and leaves its arguments alone; a
    division that is not exact raises AssertionError."""
    rows = [[int(x) for x in row] for row in tableau]
    if rows[pr][pc] < 0:
        rows[pr] = [-x for x in rows[pr]]
    prow = rows[pr]
    piv = prow[pc]
    others = [i for i in range(len(rows)) if i != pr]
    gathered = [[x * piv - row[pc] * y for x, y in zip(row, prow)] for row in (rows[i] for i in others)]
    if any(x % den for row in gathered for x in row):
        raise AssertionError("den does not divide the update")
    for i, row in zip(others, gathered):
        rows[i] = [x // den for x in row]
    basis = list(basis)
    basis[pr] = pc
    return rows, basis, piv


def _fraction_simplex(rows, rhs, basis, costrow, allowed) -> tuple[str, Fraction]:
    """Run Bland-rule simplex to optimality or unboundedness."""
    gained = Fraction(0)
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
        gained += _fraction_pivot(rows, rhs, basis, costrow, leave, enter)


def fraction_lp_max(
    objective: Sequence[Fraction | int],
    eq_rows: Sequence[Sequence[Fraction | int]] = (),
    eq_rhs: Sequence[Fraction | int] = (),
    ineq_rows: Sequence[Sequence[Fraction | int]] = (),
    ineq_rhs: Sequence[Fraction | int] = (),
    nonneg: bool | Iterable[int] = True,
) -> LPResult:
    """The Fraction two-phase simplex that bellpoly.lp.lp_max replaced: the
    same Bland pivots on the unscaled tableau, unchecked.  lp_max must give
    field-for-field the same LPResult."""
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
        vec = [Fraction(0)] * ncols
        for cidx, (j, sgn) in enumerate(columns):
            if row[j]:
                vec[cidx] = row[j] if sgn == 1 else -row[j]
        if i >= neq:
            vec[nstruct + (i - neq)] = Fraction(1)
        flip = 1
        if b < 0:
            flip, b = -1, -b
            vec = [-x for x in vec]
        vec[nstruct + nin + i] = Fraction(1)
        rows.append(vec)
        rhs.append(b)
        flips.append(flip)

    basis = [nstruct + nin + i for i in range(m)]
    art_col = {i: nstruct + nin + i for i in range(m)}
    allowed = [True] * ncols

    # phase 1: drive the artificials to zero
    costrow = [Fraction(0)] * ncols
    for j in range(ncols):
        tot = sum(rows[i][j] for i in range(m))
        costrow[j] = (Fraction(-1) if j >= nstruct + nin else Fraction(0)) + tot
    objval = -sum(rhs, Fraction(0))
    status, gained = _fraction_simplex(rows, rhs, basis, costrow, allowed)
    objval += gained
    if status != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")
    if objval < 0:
        y = [flips[i] * (Fraction(-1) - costrow[art_col[i]]) for i in range(m)]
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
                _fraction_pivot(rows, rhs, basis, costrow, r, pc)
            else:
                drop.append(r)
    if drop:
        rows = [rows[r] for r in range(len(rows)) if r not in drop]
        rhs = [rhs[r] for r in range(len(rhs)) if r not in drop]
        basis = [basis[r] for r in range(len(basis)) if r not in drop]
    for i in range(m):
        allowed[art_col[i]] = False

    cost2 = [Fraction(0)] * ncols
    for cidx, (j, sgn) in enumerate(columns):
        cost2[cidx] = obj[j] if sgn == 1 else -obj[j]
    costrow = list(cost2)
    objval = Fraction(0)
    for r, b in enumerate(basis):
        cb = cost2[b]
        if cb:
            objval += cb * rhs[r]
            for j in range(ncols):
                if rows[r][j]:
                    costrow[j] -= cb * rows[r][j]
    status, gained = _fraction_simplex(rows, rhs, basis, costrow, allowed)
    if status == "unbounded":
        return LPResult(status="unbounded")
    objval += gained

    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < nstruct:
            j, sgn = columns[b]
            x[j] += rhs[r] if sgn == 1 else -rhs[r]
    dual = [flips[i] * (-costrow[art_col[i]]) for i in range(m)]
    return LPResult(
        status="optimal", optimum=objval, primal=tuple(x), dual=tuple(dual)
    )


# --- the CGLMP certificates the long way -------------------------------------
# The library ranks the explicit witness and the spanning strategy grid and
# sweeps the bound with numpy; these are the full-matrix ranks and the
# strategy-by-strategy loop it replaced.


def full_tightness_rank(d: int):
    """TightnessReport with the rank of every saturating generator's row."""
    import numpy as np

    from bellpoly import cglmp, linalg
    from bellpoly.scenario import generator_rows

    grid = np.indices((d, d, d, d)).reshape(4, -1)
    a1, a2, b1, b2 = grid
    r, s = cglmp.center_mod(a1 - b1, d), cglmp.center_mod(-a1 + b2, d)
    t, u = cglmp.center_mod(-a2 + b1 - 1, d), cglmp.center_mod(a2 - b2, d)
    neg = (r < 0).astype(int) + (s < 0).astype(int) + (t < 0).astype(int) + (u < 0).astype(int)
    tot = r + s + t + u
    mask = ((neg == 0) & (tot == d - 1)) | ((neg == 1) & (tot == -1))
    mat = generator_rows(d, grid[:, mask])
    return cglmp.TightnessReport(d=d, h=4 * d * (d - 1), saturating=mat.shape[0], rank=linalg.int_rank(mat))


def full_polytope_affine_dim(d: int) -> int:
    """Rank of the differences of all d^4 generators."""
    from bellpoly import linalg
    from bellpoly.scenario import generator_matrix

    mat = generator_matrix(d)
    return linalg.int_rank(mat[1:] - mat[0])


def support_pivot_columns(supports, n: int) -> list[int]:
    """Pivot columns, by elimination, of the 0/1 vectors of length n whose
    ones sit at the rows of a k x w support array, as the columns of one
    matrix."""
    import numpy as np

    from bellpoly import linalg

    sup = np.asarray(supports, dtype=np.int64)
    mat = np.zeros((n, len(sup)), dtype=np.int64)
    mat[sup.T, np.arange(len(sup))] = 1
    return linalg.pivot_columns(mat)


def strategy_values(coeffs, d: int):
    """Value of a behavior-space coefficient vector on every generator, in
    all_strategies order: the sum of its four unit coordinates."""
    from bellpoly.scenario import BLOCKS, coord_index

    o11, o12, o21, o22 = (coord_index(d, a, b, 0, 0) for a, b in BLOCKS)
    for a1, a2, b1, b2 in itertools.product(range(d), repeat=4):
        yield (
            coeffs[o11 + a1 * d + b1]
            + coeffs[o12 + a1 * d + b2]
            + coeffs[o21 + a2 * d + b1]
            + coeffs[o22 + a2 * d + b2]
        )


# --- fixtures: a behavior, an inequality and a JSON writer no command needs ---


def uniform_behavior(d: int):
    """1/d^2 on every coordinate: the centroid of the d^4 generators."""
    from bellpoly.scenario import Behavior

    return Behavior(d, (Fraction(1, d * d),) * (4 * d * d))


def behavior_to_json(p) -> dict:
    """A behavior in the JSON form that behavior_from_json reads."""
    from bellpoly.scenario import blocks_to_json

    return {"d": p.d, "P": blocks_to_json(p.coords, (p.d, p.d))}


def chsh_inequality():
    """<A1B1> + <A1B2> + <A2B1> - <A2B2> <= 2, in correlator coordinates."""
    from bellpoly.correlators import corr_index
    from bellpoly.scenario import Inequality

    coeffs = [0] * 8
    for (a, b), sign in (((1, 1), 1), ((1, 2), 1), ((2, 1), 1), ((2, 2), -1)):
        coeffs[corr_index(2, a, b, 0)] = sign
        coeffs[corr_index(2, a, b, 1)] = -sign
    return Inequality("correlator", 2, tuple(coeffs), 2)


def loop_rstu(lam, d: int) -> tuple[int, int, int, int]:
    """r = a1 - b1, s = b2 - a1, t = b1 - a2 - 1 and u = a2 - b2 of a
    strategy, each shifted by a multiple of d into [-floor(d/2), floor((d-1)/2)]."""
    a1, a2, b1, b2 = lam
    lo = -(d // 2)
    return tuple((x - lo) % d + lo for x in (a1 - b1, b2 - a1, b1 - a2 - 1, a2 - b2))


def loop_f_scaled(x: int, d: int) -> int:
    """(d-1) f(x): -2x + d - 1 for x >= 0, -2x - d - 1 below."""
    return -2 * x + d - 1 if x >= 0 else -2 * x - d - 1


def loop_case(v, d: int) -> str:
    """The sign/sum case of an rstu tuple, from the number of negative
    entries and the sum, which is d-1, -1 or -d-1."""
    key = (sum(x < 0 for x in v), sum(v))
    cases = {
        (0, d - 1): "case1", (1, d - 1): "case2a", (1, -1): "case2b", (2, -1): "case3",
        (3, -1): "case4a", (3, -d - 1): "case4b", (4, -d - 1): "case5",
    }
    if key not in cases:
        raise ValueError(f"{v} matches no sign/sum case for d={d}")
    return cases[key]


def loop_verify_condition1(d: int):
    """verify_condition1 one strategy at a time, in all_strategies order,
    with its own rstu, f and case table."""
    from bellpoly import cglmp

    ineq = cglmp.cglmp_inequality(d)
    scale = d - 1
    coeffs_scaled = [c * scale for c in ineq.coeffs]
    if any(c.denominator != 1 for c in coeffs_scaled):
        raise AssertionError("scaled coefficients must be integers")
    cs = [int(c) for c in coeffs_scaled]
    allowed = {2 * scale, -2, -2 * (d + 1)}
    hist: dict[int, int] = {}
    cases: dict[str, int] = {}
    best = None
    strategies = itertools.product(range(d), repeat=4)
    for lam, by_coeff in zip(strategies, strategy_values(cs, d)):
        lam = cglmp.DeterministicStrategy(*lam)
        v = loop_rstu(lam, d)
        by_f = sum(loop_f_scaled(x, d) for x in v)
        if by_f != by_coeff:
            raise cglmp.VerificationError(
                f"coefficient form and f form disagree on {lam}: "
                f"{Fraction(by_coeff, scale)} vs {Fraction(by_f, scale)}"
            )
        if by_f not in allowed:
            raise cglmp.VerificationError(f"{lam} evaluates to {Fraction(by_f, scale)}, outside the value set")
        hist[by_f] = hist.get(by_f, 0) + 1
        tag = loop_case(v, d)
        cases[tag] = cases.get(tag, 0) + 1
        if best is None or by_f > best:
            best = by_f
    if best != 2 * scale:
        raise cglmp.VerificationError(f"maximum over generators is {Fraction(best, scale)}, not 2")
    histogram = {Fraction(k, scale): n for k, n in sorted(hist.items(), reverse=True)}
    return cglmp.Condition1Report(
        d=d,
        total=d**4,
        max_value=Fraction(2),
        histogram=histogram,
        case_histogram=dict(sorted(cases.items())),
    )


def loop_checked_steps(d: int):
    """The checks of cglmp.constructive_witness before its rank, one step
    at a time: each step's vectors are checked by their own array calls, a
    failing step raises before the steps after it are built, and every
    other step yields its index, scheme, parameters, strategies and
    supports, as in a WitnessBatch."""
    import numpy as np

    from bellpoly import cglmp, linalg
    from bellpoly.scenario import generator_supports

    lo, hi = cglmp.window_bounds(d)
    for step_index, (scheme, params) in enumerate(cglmp.witness_steps(d)):
        patterns = cglmp.scheme_patterns(scheme, params)
        pattern = np.repeat(np.array(patterns, dtype=np.int64).T, d, axis=1)  # one column per vector
        r, s, t, u = pattern
        a1 = np.tile(np.arange(d), len(patterns))
        b1, b2 = (a1 - r) % d, (a1 + s) % d
        a2 = (b1 - t - 1) % d
        grid = np.stack([a1, a2, b1, b2])
        v = cglmp._rstu_arrays(grid, d)
        outside = ((pattern < lo) | (pattern > hi)).any(axis=0)
        incongruent = a2 != (b2 + u) % d
        moved = (v != pattern).any(axis=0)
        bad = outside | incongruent | moved | (cglmp._f_sums(v, d) != 2 * (d - 1))
        if bad.any():
            i = int(np.argmax(bad))
            p = patterns[i // d]
            if outside[i]:
                raise cglmp.WitnessError(f"step {step_index}: pattern {p} leaves the window for d={d}")
            if incongruent[i]:
                raise AssertionError(f"pattern {p} is not congruent to -1 mod {d}")
            if moved[i]:
                lam = cglmp.DeterministicStrategy(*grid[:, i].tolist())
                raise cglmp.WitnessError(f"step {step_index}: {p} does not reproduce itself from {lam}")
            raise cglmp.WitnessError(f"step {step_index}: pattern {p} is not saturating")
        if scheme in (cglmp.SCHEME_EXAMPLE2, cglmp.SCHEME_EXAMPLE2_VARIANT):
            minor = cglmp._example2_minor(scheme, params, d)
            if linalg.int_rank(minor) != 4:
                raise cglmp.WitnessError(f"step {step_index}: singular key minor for {scheme} {params}")
        yield step_index, scheme, tuple(params), grid.T, generator_supports(d, grid)


# --- double description one pair at a time ------------------------------------
# The library runs each insertion as numpy operations over all rays (packed
# zero sets, a blockwise pair filter and a transposed adjacency test) from
# an initial simplicial cone; this is the list-of-lists loop it replaced,
# which removes the lineality space one constraint at a time and tests
# every positive/negative pair with Python-int bitmasks.


def dot(a, b):
    """Exact inner product of two equal-length sequences of ints or Fractions."""
    return sum(x * y for x, y in zip(a, b, strict=True))


def _primitive(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = math.gcd(g, x)
    return [x // g for x in row] if g > 1 else row


def loop_dd_extreme_rays(constraints, dim: int) -> list[tuple[int, ...]]:
    """Extreme rays of {y : a.y <= 0 for each constraint a}, gcd-reduced;
    raises ValueError when the cone is not pointed."""
    lin = [[int(i == j) for j in range(dim)] for i in range(dim)]
    rays: list[list] = []  # [vector, zero set bitmask over inserted constraints]
    for ci, a in enumerate(constraints):
        bit = 1 << ci
        lin_dots = [dot(a, l) for l in lin]
        hit = next((i for i, v in enumerate(lin_dots) if v), None)
        if hit is not None:
            l0 = lin[hit] if lin_dots[hit] < 0 else [-x for x in lin[hit]]
            d0 = dot(a, l0)  # < 0
            lin = [
                _primitive([d0 * x - dl * y for x, y in zip(l, l0)])
                for i, (l, dl) in enumerate(zip(lin, lin_dots))
                if i != hit
            ]
            for entry in rays:
                dr = dot(a, entry[0])
                if dr:
                    entry[0] = _primitive([-d0 * x + dr * y for x, y in zip(entry[0], l0)])
                entry[1] |= bit
            rays.append([_primitive(list(l0)), bit - 1])
            continue
        zero, neg, pos = [], [], []
        for entry in rays:
            v = dot(a, entry[0])
            if v == 0:
                entry[1] |= bit
                zero.append(entry)
            elif v < 0:
                neg.append((entry, v))
            else:
                pos.append((entry, v))
        if not pos:
            continue
        needed = dim - len(lin) - 2
        combos: dict[tuple[int, ...], list] = {}
        for pentry, pval in pos:
            for nentry, nval in neg:
                common = pentry[1] & nentry[1]
                if common.bit_count() < needed:
                    continue
                if any(
                    entry[1] & common == common
                    for entry in rays
                    if entry is not pentry and entry is not nentry
                ):
                    continue
                vec = _primitive([-nval * x + pval * y for x, y in zip(pentry[0], nentry[0])])
                combos.setdefault(tuple(vec), [vec, common | bit])
        rays = [e for e, _ in neg] + zero + [v for _, v in sorted(combos.items())]
    if lin:
        raise ValueError("constraints do not span, cone is not pointed")
    return [tuple(r) for r, _ in rays]


# The symmetry groups one element at a time, each coordinate's image
# written out in Python and the elements deduplicated in a dict: the loop
# builders that the broadcast tables of symmetry.group_for replaced.


def _loop_behavior_perm(d, swap_parties, swap_a, swap_b, perms):
    """out[i] = in[perm[i]]; perms relabel (A1, A2, B1, B2), old to new."""
    index = lambda a, b, k, s: ((a - 1) * 2 + (b - 1)) * d * d + k * d + s
    inv = [tuple(sorted(range(d), key=lambda k: p[k])) for p in perms]
    sigma_a_inv = {1: inv[0], 2: inv[1]}
    sigma_b_inv = {1: inv[2], 2: inv[3]}
    perm = [0] * (4 * d * d)
    for a in (1, 2):
        for b in (1, 2):
            for k in range(d):
                for s in range(d):
                    # party swap reads the transposed table
                    aa, bb, kk, ss = (b, a, s, k) if swap_parties else (a, b, k, s)
                    if swap_a:
                        aa = 3 - aa
                    if swap_b:
                        bb = 3 - bb
                    perm[index(a, b, k, s)] = index(aa, bb, sigma_a_inv[aa][kk], sigma_b_inv[bb][ss])
    return tuple(perm)


def _loop_correlator_perm(d, swap_parties, swap_a, swap_b, shifts, reflect):
    """out[i] = in[perm[i]]; shifts of (A1, A2, B1, B2), reflect sends n to -n."""
    index = lambda a, b, n: ((a - 1) * 2 + (b - 1)) * d + n
    shift_a = {1: shifts[0], 2: shifts[1]}
    shift_b = {1: shifts[2], 2: shifts[3]}
    perm = [0] * (4 * d)
    for a in (1, 2):
        for b in (1, 2):
            for n in range(d):
                aa, bb, nn = (b, a, (-n) % d) if swap_parties else (a, b, n)
                if swap_a:
                    aa = 3 - aa
                if swap_b:
                    bb = 3 - bb
                if reflect:
                    nn = (-nn) % d
                nn = (nn - shift_a[aa] + shift_b[bb]) % d
                perm[index(a, b, n)] = index(aa, bb, nn)
    return tuple(perm)


@functools.lru_cache(maxsize=None)
def loop_group(space: str, d: int) -> tuple[tuple[int, ...], ...]:
    """Every distinct coordinate permutation of the group of a space, built
    from all of its generating data (all four shifts free in correlator
    space), one element at a time, in order of first appearance."""
    flips = list(itertools.product((False, True), repeat=3))
    if space == "behavior":
        perms = list(itertools.permutations(range(d)))
        data = itertools.product(flips, itertools.product(perms, repeat=4))
        elements = (_loop_behavior_perm(d, *f, relabels) for f, relabels in data)
    else:
        data = itertools.product(flips, itertools.product(range(d), repeat=4), (False, True))
        elements = (_loop_correlator_perm(d, *f, shifts, reflect) for f, shifts, reflect in data)
    seen: dict[tuple[int, ...], None] = {}
    for perm in elements:
        seen.setdefault(perm)
    return tuple(seen)


def apply_row(row, x):
    """x (a Behavior, CorrVector or Inequality) through one group table row: out[i] = in[row[i]]."""
    if hasattr(x, "coeffs"):
        return type(x)(x.space, x.d, tuple(x.coeffs[i] for i in row), x.bound)
    return type(x)(x.d, tuple(x.coords[i] for i in row))
