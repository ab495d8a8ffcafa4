"""Randomized cross-checks between independent code paths."""

import random
from fractions import Fraction

from bellpoly.cglmp import cglmp_inequality
from bellpoly.facets import enumerate_facets, vrep_of
from bellpoly.linalg import affine_dim
from bellpoly.scenario import (
    Behavior,
    all_generators,
    constraint_matrix,
)

from oracles import dot, square_subset_facets


def test_zero_vector_evaluates_to_zero():
    q = cglmp_inequality(3)
    zero = Behavior(3, tuple([Fraction(0)] * 36))
    assert dot(q.coeffs, zero.coords) == 0


def test_normalization_rows_are_one_on_every_generator():
    for d in (2, 3):
        rows, rhs = constraint_matrix(d)
        for g in all_generators(d):
            for row, b in zip(rows[:4], rhs[:4]):
                assert sum(r * x for r, x in zip(row, g.coords)) == b == 1


def test_dd_matches_subset_oracle_on_random_small_polytopes():
    # full enumeration against the brute-force hyperplane search, in a
    # full-dimensional frame where both produce comparable canonical forms
    rng = random.Random(4242)
    compared = 0
    while compared < 8:
        dim = rng.choice((2, 3))
        npts = rng.randint(dim + 2, dim + 5)
        pts = {tuple(Fraction(rng.randint(0, 3)) for _ in range(dim)) for _ in range(npts)}
        pts = sorted(pts)
        if len(pts) < dim + 1 or affine_dim(pts) != dim:
            continue
        compared += 1
        hrep = enumerate_facets(vrep_of(pts))
        assert hrep.complete
        got = {(tuple(int(c) for c in q.coeffs), int(q.bound)) for q in hrep.facets}
        want = square_subset_facets(pts, dim)
        assert got == want
        for q in hrep.facets:
            for v in pts:
                assert sum(c * x for c, x in zip(q.coeffs, v)) <= q.bound
