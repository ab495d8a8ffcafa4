"""Equivalence transformations of behaviors and inequalities.

An operation is party exchange, exchange of one party's two observables,
and outcome relabeling, composed in a fixed order (relabel, then
observable swaps, then party swap).  Every element acts as a permutation
of the coordinate vector, so one permutation array represents an element
and applies identically to behaviors and to inequality coefficients (the
contragredient of a permutation matrix is the matrix itself).

In behavior space relabelings are arbitrary per-observable permutations:
group order 8 (d!)^4.  In correlator space only those relabelings survive
the projection that act on outcome differences, namely per-observable
cyclic shifts and the global reflection of all outcomes; the classification
group there is the shift+reflection subgroup.  One offset added to all four
shifts acts trivially, so the B2 shift is fixed at 0: 16 d^3 elements, and
64 at d=2, where the reflection is the identity.

One numpy kernel, vectorised over a leading axis of elements, maps
behavior coordinates (a, b, k, s) to the behavior index of their images.
A shift or reflection maps each class {k - s = n} of a block onto one
class, so the correlator table maps (a, b, n, 0) and reads the images
through difference_index.  Each table is deduplicated by np.unique into
one read-only integer array, one row per element, which sends a vector x,
whether a behavior, a correlator vector or inequality coefficients, to
x[row].

Inequalities are keyed by their row in the standard gauge: the integer
row (coeffs, bound) reduced modulo the space's affine-hull equations
(standard_equations, read off space_vertices) by gauge and divided by its
gcd.  This module is the one home of that gauged form; membership prints
its certificates in it.  Two inequalities have the same key exactly when
they agree up to the hull's equations and a positive scale, which is
exactly when their slacks over the vertices agree up to a positive scale.  A
group element maps the hull onto itself, so the orbit of a key is the
gauge of its images: the coefficients indexed by every table row at once,
with the bound kept, in one gauge product.  No gcd_reduce is needed: the
standard equations of every tabulated space have D = 1 (the correlator
ones are the four block sums, and behavior d = 2, 3 has D = 1 too), so
the gauge of an image is x - x[pivots] E, an integer map whose inverse,
the gauge of the inverse image, is integer too; it keeps a primitive key
primitive.  Two inequalities are equivalent when the key of one lies in
the other's orbit.  A class representative is the orbit row whose slack
over the vertices is lexicographically least, found by narrowing the
orbit one vertex's slack column at a time.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from . import linalg
from .correlators import difference_index
from .facets import space_vertices
from .scenario import Inequality


def _behavior_perms(d: int, coords, flips: np.ndarray, inverse_relabelings: np.ndarray) -> np.ndarray:
    """The behavior index of the image of each coordinate (a, b, k, s) in
    coords, one row per element g: flips[g] is (party swap, A swap, B swap),
    inverse_relabelings[g] the inverse outcome relabelings of (A1, A2, B1,
    B2).  The party swap reads the transposed table."""
    a, b, k, s = (x.ravel() for x in np.broadcast_arrays(*coords))
    swap, flip_a, flip_b = np.asarray(flips, dtype=np.int64).T[:, :, None]
    aa = np.where(swap, b, a) ^ flip_a
    bb = np.where(swap, a, b) ^ flip_b
    kk, ss = np.where(swap, s, k), np.where(swap, k, s)
    inv = np.asarray(inverse_relabelings)
    g = np.arange(len(inv))[:, None]
    return ((2 * aa + bb) * d + inv[g, aa, kk]) * d + inv[g, 2 + bb, ss]


def has_group(space: str, d: int) -> bool:
    """Whether group_for tabulates the group of a space at d.  This is the
    one place that says so: behavior space at d >= 4 has 8 (d!)^4 elements
    and no table, so its inequalities have no class."""
    return not (space == "behavior" and d >= 4)


@lru_cache(maxsize=None)
def group_for(space: str, d: int) -> np.ndarray:
    """The whole group of a space as one read-only integer table of
    coordinate permutations, one distinct row per element, in lexicographic
    order; built once per (space, d) from all of its generating data."""
    if not has_group(space, d):
        raise ValueError(f"behavior-space group for d={d} has 8*(d!)^4 elements; too large")
    if space == "behavior":
        perms = np.array(list(itertools.permutations(range(d))))  # the inverses of all relabelings
        data = np.indices((2, 2, 2) + (len(perms),) * 4).reshape(7, -1).T
        table = _behavior_perms(d, np.indices((2, 2, d, d)), data[:, :3], perms[data[:, 3:]])
    elif space == "correlator":
        # relabelings k -> sign k + shift, with inverses sign (k - shift); the
        # B2 shift stays 0: adding one offset to all four shifts acts trivially
        data = np.indices((2, 2, 2, 2, d, d, d)).reshape(7, -1).T
        shifts = np.pad(data[:, 4:], ((0, 0), (0, 1)))
        sign = 1 - 2 * data[:, 3, None, None]
        inverse = sign * (np.arange(d) - shifts[:, :, None]) % d
        # the image of (k, s) = (n, 0) carries the image of difference n
        a, b, n = np.indices((2, 2, d))
        table = difference_index(d)[_behavior_perms(d, (a, b, n, 0), data[:, :3], inverse)]
    else:
        raise ValueError(f"no symmetry group for space {space!r}")
    table = np.unique(table, axis=0)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def standard_equations(space: str, d: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Affine-hull equation system of a standard space, in reduced form:
    (E, pivots), E one read-only integer matrix of rows [w | c], w.v = c on
    every vertex v of space_vertices, over a common denominator D, D at
    every pivot of its own row and 0 at the other pivots."""
    verts = space_vertices(space, d)
    hull = linalg.integer_nullspace(np.column_stack([verts, -np.ones(len(verts), dtype=verts.dtype)]))[0]
    eqs, pivots, _ = linalg.integer_rref(hull)
    eqs.flags.writeable = False
    return eqs, tuple(pivots)


def gauge(rows: np.ndarray, equations) -> np.ndarray:
    """Integer rows x = (coeffs, bound) reduced modulo an equation system
    (E, pivots) in the form of standard_equations: D x - x[pivots] E, zero
    at every pivot coordinate.  Two rows differ by an equation and a
    positive scale exactly when their reduced rows are positive multiples
    of each other.

    int64 when (D + len(pivots) max|E|) max|x|, a bound on every entry and
    partial sum, stays under OVERFLOW_LIMIT; Python ints (dtype object)
    otherwise.  An object input stays object.
    """
    eqs, pivots = equations
    den = int(eqs[0, pivots[0]])
    if rows.dtype != object:
        if (den + len(pivots) * linalg._peak(eqs)) * linalg._peak(rows) >= linalg.OVERFLOW_LIMIT:
            rows = rows.astype(object)
    return den * rows - rows[..., list(pivots)] @ eqs.astype(rows.dtype, copy=False)


def gauge_rows(ineqs: Sequence[Inequality]) -> np.ndarray:
    """The key of each inequality, all of one space: its integer row in the
    standard gauge, divided by its gcd.

    One integer_rows, one gauge product and one gcd_reduce: int64 when
    every entry fits, Python ints (dtype object) otherwise.  A zero
    coefficient part means the inequality is an equation on the affine
    hull, whose slack is constant and which has no class: ValueError.
    """
    space, d = ineqs[0].space, ineqs[0].d
    if any((q.space, q.d) != (space, d) for q in ineqs):
        raise ValueError("inequalities of different spaces in one batch")
    rows = linalg.integer_rows([(*q.coeffs, q.bound) for q in ineqs])[0]
    rows = gauge(rows, standard_equations(space, d))
    if not rows[:, :-1].any(axis=1).all():
        raise ValueError("constant slack: the inequality is an equation on the affine hull")
    return linalg.gcd_reduce(rows)


def _orbit(key: np.ndarray, space: str, d: int) -> np.ndarray:
    """Row g is the key of the image of a key row under group_for row g:
    its coefficients indexed by that row, with the same bound, in the
    standard gauge (already primitive, since D = 1)."""
    table = group_for(space, d)
    images = np.empty((len(table), len(key)), dtype=key.dtype)
    images[:, :-1] = key[:-1][table]
    images[:, -1] = key[-1]
    return gauge(images, standard_equations(space, d))


def canonical_class(ineq: Inequality) -> Inequality:
    """Deterministic orbit representative: the image whose slack over the
    vertices, in the order of space_vertices, is the lexicographic minimum
    over the group, the first of equal ones, in the standard gauge of
    gauge_rows (coefficients reduced modulo the space's equations).

    The orbit rows narrow one vertex at a time to those at the least slack
    on it, until the rows left are equal.  Every image's slack is a
    permutation of one vector, so all rows share one gcd and the order of
    unreduced slack rows is that of gcd-reduced ones; equal slack rows are
    equal keys.
    """
    space, d = ineq.space, ineq.d
    rows = _orbit(gauge_rows([ineq])[0], space, d)
    for vertex in space_vertices(space, d):
        if (rows == rows[0]).all():
            break
        slack = linalg.slack_matrix(rows[:, :-1], rows[:, -1], vertex[None])[:, 0]
        rows = rows[slack == slack.min()]
    *coeffs, bound = rows[0].tolist()
    return Inequality(space, d, tuple(coeffs), bound)


def equivalent(i1: Inequality, i2: Inequality) -> bool:
    """Whether the orbit of i1 contains i2, compared by key."""
    k1, k2 = gauge_rows([i1, i2])
    return bool((_orbit(k1, i1.space, i1.d) == k2).all(axis=1).any())


def _row_keys(rows: np.ndarray) -> list:
    """One hashable key per row of a key array, read off the row's values
    alone, so an int64 row and the same row over Python ints share it: the
    bytes of the row as int64, or a tuple of Python ints past int64."""
    if rows.dtype != object:
        rows = np.ascontiguousarray(rows)
        return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    low, high = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    return [
        np.array(row, dtype=np.int64).tobytes() if low <= min(row) and max(row) <= high else tuple(row)
        for row in rows.tolist()
    ]


def label_classes(ineqs: Iterable[Inequality]) -> tuple[list[int], list[Inequality]]:
    """Group inequalities into symmetry classes, labels by first appearance.

    The representative of a class is its first input, as given.  All keys
    come from one gauge_rows batch; when a new class shows up its whole
    orbit goes into a lookup for the rest, keyed by the bytes of each row
    (one bytes object per row, not one Python int per entry).
    """
    items = list(ineqs)
    if not items:
        return [], []
    rows = gauge_rows(items)
    space, d = items[0].space, items[0].d
    labels: list[int] = []
    reps: list[Inequality] = []
    lookup: dict = {}
    for ineq, row, key in zip(items, rows, _row_keys(rows)):
        label = lookup.get(key)
        if label is None:
            label = len(reps)
            reps.append(ineq)
            lookup.update(dict.fromkeys(_row_keys(_orbit(row, space, d)), label))
        labels.append(label)
    return labels, reps


def by_class(
    ineqs: Iterable[Inequality], space: str, d: int, check: Callable[[Inequality], object]
) -> tuple[list, list[int] | None]:
    """check of each inequality and its class label.

    check must be invariant under the group (triviality, saturation): it
    runs once per class, on the representative, and its result is copied
    to the other members.  Where the space has no group table (has_group)
    it runs on every inequality and labels are None, but an equation on
    the affine hull is refused all the same.
    """
    items = list(ineqs)
    if not has_group(space, d):
        if items:
            gauge_rows(items)
        return [check(q) for q in items], None
    labels, reps = label_classes(items)
    results = [check(r) for r in reps]
    return [results[label] for label in labels], labels
