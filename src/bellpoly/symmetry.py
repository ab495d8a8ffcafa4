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

Inequalities are compared by their slack over the vertices of their space
(the generators, or the projected generators): bound - coeffs.v for every
vertex v, divided by its gcd.  A batch of inequalities gets its slack rows
from one integer matrix over a common denominator and one slack_matrix
product, then each row is divided by its own gcd.  The vertices
span the affine hull, so two inequalities have the same slack exactly when
they agree up to the hull's equations and a positive scale.  Every group
element permutes the vertices, hence the entries of a slack vector; the
group table is turned once per space into vertex index permutations, and an
orbit is one fancy index into that table.  Two inequalities are
equivalent when the slack of one lies in the other's orbit.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .correlators import difference_index
from .facets import canonicalize, classify_trivial, space_vertices, standard_equations
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
def _vertex_perms(space: str, d: int) -> np.ndarray:
    """Vertex index permutations of group_for(space, d), one row per
    element g, such that slack(q)[row g] is the slack of q's image under
    table row g: q.coeffs indexed by that row, with q's bound.

    The image reads coefficient perm[i] at coordinate i, so at vertex k it
    takes q's value at the vertex whose unit coordinates are perm[J], J
    being vertex k's.  Vertices are looked up by a mixed-radix code with one
    digit per block: the position of the block's unit entry.
    """
    verts = space_vertices(space, d)
    ones = np.nonzero(verts)[1].reshape(-1, 4)  # unit coordinates per vertex
    width = verts.shape[1] // 4
    coord = np.arange(verts.shape[1])
    digit = ((coord % width) * width ** (coord // width)).astype(np.int32)
    vertex_of = np.zeros(width**4, dtype=np.int32)
    vertex_of[digit[ones].sum(axis=1)] = np.arange(len(ones))
    perms = digit[group_for(space, d)]
    # take keeps the table row-major, and so every orbit row[table], whose
    # rows label_classes keys by their bytes
    codes = perms.take(ones[:, 0], axis=1)
    for col in ones.T[1:]:
        codes += perms.take(col, axis=1)
    return vertex_of[codes]


def slack_rows(ineqs: Sequence[Inequality]) -> np.ndarray:
    """bound - coeffs.v over the vertices of the space, one row of coprime
    integers per inequality, all of one space.

    One integer_rows, one linalg.slack_matrix product and one gcd_reduce:
    int64 when every entry fits, Python ints (dtype object) otherwise.  A
    constant slack means the inequality is an equation on the affine hull,
    which has no class: ValueError.
    """
    space, d = ineqs[0].space, ineqs[0].d
    if any((q.space, q.d) != (space, d) for q in ineqs):
        raise ValueError("inequalities of different spaces in one batch")
    rows = linalg.integer_rows([(*q.coeffs, q.bound) for q in ineqs])[0]
    s = linalg.slack_matrix(rows[:, :-1], rows[:, -1], space_vertices(space, d))
    if (s == s[:, :1]).all(axis=1).any():
        raise ValueError("constant slack: the inequality is an equation on the affine hull")
    return linalg.gcd_reduce(s)


def slack(ineq: Inequality) -> np.ndarray:
    """The slack row of one inequality."""
    return slack_rows([ineq])[0]


def slack_orbit(ineq: Inequality) -> np.ndarray:
    """Row g is the slack of the image under group_for row g: the
    coefficients indexed by that row, with the same bound."""
    return slack(ineq)[_vertex_perms(ineq.space, ineq.d)]


def canonical_class(ineq: Inequality) -> Inequality:
    """Deterministic orbit representative: the image whose slack is the
    lexicographic minimum over the group, in the fixed gauge of
    facets.canonicalize (coefficients reduced modulo the space's equations)."""
    rows = slack_orbit(ineq).tolist()
    least = min(range(len(rows)), key=rows.__getitem__)
    perm = group_for(ineq.space, ineq.d)[least].tolist()
    image = Inequality(ineq.space, ineq.d, tuple(ineq.coeffs[i] for i in perm), ineq.bound)
    return canonicalize(image, equations=standard_equations(ineq.space, ineq.d))


def equivalent(i1: Inequality, i2: Inequality) -> bool:
    """Whether the orbit of i1 contains i2, compared by slack."""
    s1, s2 = slack_rows([i1, i2])
    return bool((s1[_vertex_perms(i1.space, i1.d)] == s2).all(axis=1).any())


def _row_keys(rows: np.ndarray) -> list:
    """One hashable key per row of a slack array: the row's bytes for int64,
    a tuple of Python ints for dtype object."""
    if rows.dtype == object:
        return list(map(tuple, rows.tolist()))
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def label_classes(ineqs: Iterable[Inequality]) -> tuple[list[int], list[Inequality]]:
    """Group inequalities into symmetry classes, labels by first appearance.

    The representative of a class is its first input, as given.  All slack
    rows come from one slack_rows batch; when a new class shows up its
    whole slack orbit goes into a lookup for the rest.  The lookup is keyed
    by the bytes of each int64 row (one bytes object per row, not one
    Python int per entry), or by tuples when the slack needs Python ints.
    """
    items = list(ineqs)
    if not items:
        return [], []
    rows = slack_rows(items)
    perms = _vertex_perms(items[0].space, items[0].d)
    labels: list[int] = []
    reps: list[Inequality] = []
    lookup: dict = {}
    for ineq, row, key in zip(items, rows, _row_keys(rows)):
        label = lookup.get(key)
        if label is None:
            label = len(reps)
            reps.append(ineq)
            lookup.update(dict.fromkeys(_row_keys(row[perms]), label))
        labels.append(label)
    return labels, reps


def trivial_and_classes(
    ineqs: Iterable[Inequality], space: str, d: int
) -> tuple[list[bool], list[int] | None]:
    """Triviality and class label of each inequality.

    Triviality is invariant under the group, so it is decided once per
    class, on the representative.  Where the space has no group table
    (has_group), triviality is decided per inequality and labels are None,
    but an equation on the affine hull is refused all the same.
    """
    items = list(ineqs)
    if not has_group(space, d):
        if items:
            slack_rows(items)
        return [classify_trivial(q) for q in items], None
    labels, reps = label_classes(items)
    trivial = [classify_trivial(r) for r in reps]
    return [trivial[label] for label in labels], labels
