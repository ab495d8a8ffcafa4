"""Independent reference computations used to check the main code paths.

Nothing here calls the algorithms it is meant to check: vertices of the
no-signaling polytope come from basic-solution enumeration, facets of the
d=2 correlator polytope from hyperplanes through vertex subsets, symmetry
classes from Fraction orbits in a fixed gauge (the library compares
integer slack vectors instead), and the reductions are hardcoded rather
than borrowed from the library.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def solve_exact(rows, rhs):
    """Unique solution of a square rational system, or None if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def row_reduce(rows):
    """Independent row echelon pass; returns (reduced nonzero rows, pivots)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def nosignaling_vertices(d: int):
    """All vertices of the no-signaling polytope by basic-solution search.

    The polytope is {x >= 0, A x = b}; its vertices are the feasible basic
    solutions: pick rank-many columns, solve, keep nonnegative solutions.
    Exponential, meant for d=2 only.
    """
    from bellpoly.scenario import Scenario, constraint_matrix

    rows, rhs = constraint_matrix(Scenario(d))
    red, pivots = row_reduce([row + [b] for row, b in zip(rows, rhs)])
    sys_rows = [row[:-1] for row in red]
    sys_rhs = [row[-1] for row in red]
    m = len(sys_rows)
    n = len(sys_rows[0])
    verts = set()
    for basis in itertools.combinations(range(n), m):
        sub = [[row[j] for j in basis] for row in sys_rows]
        sol = solve_exact(sub, sys_rhs)
        if sol is None or any(x < 0 for x in sol):
            continue
        full = [Fraction(0)] * n
        for j, x in zip(basis, sol):
            full[j] = x
        verts.add(tuple(full))
    return sorted(verts)


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
        red, pivots = row_reduce(hom)
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


def gauge_key(ineq):
    """(coeffs, bound) in the fixed gauge: coefficients reduced modulo the
    space's affine-hull equations, then scaled to coprime integers."""
    from bellpoly.facets import canonicalize, standard_equations

    q = canonicalize(ineq, equations=standard_equations(ineq.space, ineq.d))
    return q.coeffs, q.bound


def gauge_orbit(ineq):
    """The fixed-gauge key of the image of ineq under every group element,
    one Fraction canonicalization per element."""
    from bellpoly.symmetry import apply_inequality, group_for

    for op in group_for(ineq.space, ineq.d):
        yield gauge_key(apply_inequality(op, ineq))


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
