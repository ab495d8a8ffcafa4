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
group there is the shift+reflection subgroup (8 d^4 2 elements before
coincidences).

Orbit minimization compares inequalities in a fixed gauge: coefficients
reduced modulo the affine-hull equations of the space, then scaled to
coprime integers.  Two inequalities are equivalent when one lies in the
other's orbit, which is the same as their orbit minima coinciding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .correlators import CorrVector, corr_index
from .facets import canonicalize, standard_equations
from .scenario import Behavior, Inequality, coord_index


@dataclass(frozen=True)
class SymmetryOp:
    """A symmetry as an index permutation: out[i] = in[perm[i]]."""

    space: str
    d: int
    perm: tuple[int, ...]

    def compose(self, other: "SymmetryOp") -> "SymmetryOp":
        """self after other: apply(self.compose(other), x) = apply(self, apply(other, x))."""
        if (self.space, self.d) != (other.space, other.d):
            raise ValueError("cannot compose symmetries of different spaces")
        return SymmetryOp(self.space, self.d, tuple(other.perm[j] for j in self.perm))

    def inverse(self) -> "SymmetryOp":
        inv = [0] * len(self.perm)
        for i, j in enumerate(self.perm):
            inv[j] = i
        return SymmetryOp(self.space, self.d, tuple(inv))


def identity_op(space: str, d: int) -> SymmetryOp:
    size = 4 * d * d if space == "behavior" else 4 * d
    return SymmetryOp(space, d, tuple(range(size)))


def behavior_symmetry(
    d: int,
    *,
    swap_parties: bool = False,
    swap_a: bool = False,
    swap_b: bool = False,
    outcome_perms: Sequence[Sequence[int]] | None = None,
) -> SymmetryOp:
    """Build one behavior-space element from its generating data.

    outcome_perms gives the relabeling sigma for (A1, A2, B1, B2) in the
    original labels; sigma maps old outcome to new outcome.
    """
    ident = tuple(range(d))
    if outcome_perms is None:
        perms = (ident, ident, ident, ident)
    else:
        perms = tuple(tuple(p) for p in outcome_perms)
        if len(perms) != 4 or any(sorted(p) != list(range(d)) for p in perms):
            raise ValueError("outcome_perms must be four permutations of range(d)")
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
                    perm[coord_index(d, a, b, k, s)] = coord_index(
                        d, aa, bb, sigma_a_inv[aa][kk], sigma_b_inv[bb][ss]
                    )
    return SymmetryOp("behavior", d, tuple(perm))


def correlator_symmetry(
    d: int,
    *,
    swap_parties: bool = False,
    swap_a: bool = False,
    swap_b: bool = False,
    shifts: Sequence[int] = (0, 0, 0, 0),
    reflect: bool = False,
) -> SymmetryOp:
    """Build one correlator-space element: shifts are per-observable outcome
    shifts (A1, A2, B1, B2); reflect negates all outcomes, sending n to -n."""
    c = tuple(int(x) % d for x in shifts)
    if len(c) != 4:
        raise ValueError("shifts must have four entries")
    shift_a = {1: c[0], 2: c[1]}
    shift_b = {1: c[2], 2: c[3]}
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
                perm[corr_index(d, a, b, n)] = corr_index(d, aa, bb, nn)
    return SymmetryOp("correlator", d, tuple(perm))


def behavior_group(d: int) -> list[SymmetryOp]:
    """All 8 (d!)^4 behavior-space elements; refused for d >= 4."""
    if d >= 4:
        raise ValueError(f"behavior-space group for d={d} has 8*(d!)^4 elements; too large")
    perms = list(itertools.permutations(range(d)))
    seen: dict[tuple[int, ...], SymmetryOp] = {}
    for swap_parties in (False, True):
        for swap_a in (False, True):
            for swap_b in (False, True):
                for relabels in itertools.product(perms, repeat=4):
                    op = behavior_symmetry(
                        d,
                        swap_parties=swap_parties,
                        swap_a=swap_a,
                        swap_b=swap_b,
                        outcome_perms=relabels,
                    )
                    seen.setdefault(op.perm, op)
    return list(seen.values())


def correlator_group(d: int) -> list[SymmetryOp]:
    """The shift+reflection subgroup acting on correlator coordinates."""
    seen: dict[tuple[int, ...], SymmetryOp] = {}
    for swap_parties in (False, True):
        for swap_a in (False, True):
            for swap_b in (False, True):
                for reflect in (False, True):
                    for shifts in itertools.product(range(d), repeat=4):
                        op = correlator_symmetry(
                            d,
                            swap_parties=swap_parties,
                            swap_a=swap_a,
                            swap_b=swap_b,
                            shifts=shifts,
                            reflect=reflect,
                        )
                        seen.setdefault(op.perm, op)
    return list(seen.values())


def group_for(space: str, d: int) -> list[SymmetryOp]:
    if space == "behavior":
        return behavior_group(d)
    if space == "correlator":
        return correlator_group(d)
    raise ValueError(f"no symmetry group for space {space!r}")


def apply_behavior(op: SymmetryOp, p: Behavior) -> Behavior:
    if op.space != "behavior" or op.d != p.d:
        raise ValueError("operation does not match the behavior's space")
    return Behavior(p.d, tuple(p.coords[i] for i in op.perm))


def apply_corr(op: SymmetryOp, c: CorrVector) -> CorrVector:
    if op.space != "correlator" or op.d != c.d:
        raise ValueError("operation does not match the vector's space")
    return CorrVector(c.d, tuple(c.coords[i] for i in op.perm))


def apply_inequality(op: SymmetryOp, ineq: Inequality) -> Inequality:
    """Permute coefficients (bound unchanged); evaluation is invariant:
    eval(apply(g, q), apply(g, x)) == eval(q, x)."""
    if op.space != ineq.space or op.d != ineq.d:
        raise ValueError("operation does not match the inequality's space")
    return Inequality(ineq.space, ineq.d, tuple(ineq.coeffs[i] for i in op.perm), ineq.bound)


def _key(ineq: Inequality) -> tuple:
    return ineq.coeffs, ineq.bound


def _orbit(ineq: Inequality, group: Sequence[SymmetryOp] | None = None):
    """The gauge-fixed canonical form of the image of ineq under every group
    element, generated lazily (group defaults to the space's whole group)."""
    eqs = standard_equations(ineq.space, ineq.d)
    for op in group_for(ineq.space, ineq.d) if group is None else group:
        yield canonicalize(apply_inequality(op, ineq), equations=eqs)


def canonical_class(ineq: Inequality) -> Inequality:
    """Deterministic orbit representative: the lexicographic minimum of the
    gauge-fixed canonical forms over the whole group."""
    return min(_orbit(ineq), key=_key)


def equivalent(i1: Inequality, i2: Inequality) -> bool:
    """Whether the orbit of i1 contains i2, compared in the fixed gauge."""
    if (i1.space, i1.d) != (i2.space, i2.d):
        raise ValueError("inequalities live in different spaces")
    target = _key(canonicalize(i2, equations=standard_equations(i2.space, i2.d)))
    return any(_key(img) == target for img in _orbit(i1))


def label_classes(ineqs: Iterable[Inequality]) -> tuple[list[int], list[Inequality]]:
    """Group inequalities into symmetry classes, labels by first appearance.

    Cheaper than per-item canonical_class: when a new class shows up its
    whole orbit is materialized once and used as a lookup for the rest.
    """
    items = list(ineqs)
    if not items:
        return [], []
    space, d = items[0].space, items[0].d
    eqs = standard_equations(space, d)
    group = group_for(space, d)
    labels: list[int] = []
    reps: list[Inequality] = []
    lookup: dict[tuple, int] = {}
    for ineq in items:
        if (ineq.space, ineq.d) != (space, d):
            raise ValueError("mixed spaces in one classification run")
        fixed = canonicalize(ineq, equations=eqs)
        label = lookup.get(_key(fixed))
        if label is None:
            label = len(reps)
            reps.append(fixed)
            for img in _orbit(fixed, group):
                lookup.setdefault(_key(img), label)
        labels.append(label)
    return labels, reps
