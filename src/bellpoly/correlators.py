"""Generalized correlation functions: the 4d quantities P(A_a - B_b = n mod d).

Projecting the 4d^2 joint probabilities down to outcome differences keeps
exactly the information the CGLMP functional consumes, and shrinks the
polytope from d^4 generators in dimension 4d^2 to d^3 projected generators
in dimension 4d, which is what makes complete facet enumeration tractable.
Coordinates: index(a, b, n) = ((a-1)*2 + (b-1))*d + n.

For d=2 this reduces to the familiar two-outcome correlators via the sign
convention outcome 0 -> +1, outcome 1 -> -1, under which
<A_a B_b> = P(A_a - B_b = 0) - P(A_a - B_b = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .jsonio import decode_int
from .scenario import Behavior, Inequality, blocks_from_json, blocks_to_json, generator_supports


@dataclass(frozen=True)
class CorrVector:
    """The 4d generalized correlation probabilities as one vector:
    Fractions, or Python ints where a value is integral (a projected
    generator's 0/1 entries, a JSON integer)."""

    d: int
    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != 4 * self.d:
            raise ValueError("correlation vector needs 4*d coordinates")

    def __getitem__(self, abn) -> int | Fraction:
        a, b, n = abn
        return self.coords[corr_index(self.d, a, b, n)]


def corr_index(d: int, a: int, b: int, n: int) -> int:
    return ((a - 1) * 2 + (b - 1)) * d + n


def difference_index(d: int) -> np.ndarray:
    """The correlator coordinate of every behavior coordinate: joint outcome
    (k, s) of block (a, b) sits on difference n = k - s mod d, so each of
    the 4d correlator coordinates is hit by exactly d behavior ones."""
    block, k, s = np.indices((4, d, d)).reshape(3, -1)
    return block * d + (k - s) % d


def project(p: Behavior) -> CorrVector:
    """Sum joint probabilities along constant outcome difference."""
    coords = np.zeros(4 * p.d, dtype=object)
    np.add.at(coords, difference_index(p.d), p.coords)
    return CorrVector(p.d, tuple(coords.tolist()))


def is_corr_probability(c: CorrVector, scaled: tuple[np.ndarray, int] | None = None) -> bool:
    """Entries nonnegative and each setting block summing to one, read off
    the coordinates as one integer row over their common denominator; a
    caller that already holds integer_rows([c.coords]) passes it as scaled."""
    (num,), den = linalg.integer_rows([c.coords]) if scaled is None else scaled
    num = num.tolist()
    return min(num) >= 0 and all(sum(num[i : i + c.d]) == den for i in range(0, 4 * c.d, c.d))


def projected_generator_matrix(d: int) -> np.ndarray:
    """Deduplicated 0/1 rows of projected generators, in lexicographic order.

    The projection only sees outcome differences, so the d^3 strategies
    with a1 = 0 already reach every projected generator exactly once; the
    four ones of each generator row move through difference_index.
    """
    sup = generator_supports(d, np.indices((1, d, d, d)).reshape(4, -1))
    mat = np.zeros((len(sup), 4 * d), dtype=np.int64)
    np.add.at(mat, (np.arange(len(sup))[:, None], difference_index(d)[sup]), 1)
    return np.unique(mat, axis=0)


def projected_generators(d: int) -> list[CorrVector]:
    """The d^3 distinct projections of the d^4 generators, sorted, with
    Python int 0/1 coordinates."""
    if d < 2:
        raise ValueError("need d >= 2")
    mat = projected_generator_matrix(d)
    if mat.shape[0] != d**3:
        raise AssertionError(f"expected {d**3} projected generators, got {mat.shape[0]}")
    return [CorrVector(d, tuple(row)) for row in mat.tolist()]


def corr_affine_dim(d: int) -> int:
    """Affine dimension of the projected generator hull (comes out 4(d-1))."""
    return linalg.affine_dim(projected_generator_matrix(d))


def chsh_inequality() -> Inequality:
    """<A1B1> + <A1B2> + <A2B1> - <A2B2> <= 2, in correlator coordinates."""
    coeffs = [0] * 8
    for (a, b), sign in (((1, 1), 1), ((1, 2), 1), ((2, 1), 1), ((2, 2), -1)):
        coeffs[corr_index(2, a, b, 0)] = sign
        coeffs[corr_index(2, a, b, 1)] = -sign
    return Inequality("correlator", 2, tuple(coeffs), 2)


def cglmp_corr_inequality(d: int) -> Inequality:
    """The CGLMP functional over the 4d correlator coordinates, bound 2.

    Summing k from 0 to floor(d/2)-1 with weight 1 - 2k/(d-1), the eight
    probability terms per k, a plus and a minus outcome difference per
    block, contribute signed weight to the coordinate carrying their
    difference.  The weights are added up as the integers d-1-2k and
    divided by d-1 once per coordinate.  This is the one CGLMP table:
    cglmp_inequality is its lift.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    w = [0] * (4 * d)
    for k in range(d // 2):
        c = d - 1 - 2 * k
        for (a, b), plus, minus in (((1, 1), k, -k - 1), ((1, 2), -k, k + 1), ((2, 1), -k - 1, k), ((2, 2), k, -k - 1)):
            w[corr_index(d, a, b, plus % d)] += c
            w[corr_index(d, a, b, minus % d)] -= c
    return Inequality("correlator", d, tuple(Fraction(x, d - 1) for x in w), Fraction(2))


def lift(ineq: Inequality) -> Inequality:
    """Pull a correlator inequality back to behavior coordinates.

    The projection is linear, so a correlator coefficient on difference n
    lands on every joint coordinate (k, s) with k - s = n mod d: a gather
    through difference_index, the bound untouched.
    eval(lift(q), p) == eval(q, project(p)) for every p.
    """
    if ineq.space != "correlator":
        raise ValueError(f"can only lift correlator inequalities, got {ineq.space!r}")
    coeffs = tuple(ineq.coeffs[n] for n in difference_index(ineq.d).tolist())
    return Inequality("behavior", ineq.d, coeffs, ineq.bound)


def corr_to_json(c: CorrVector) -> dict:
    return {"d": c.d, "C": blocks_to_json(c.coords, (c.d,))}


def corr_from_json(data: dict) -> CorrVector:
    d = decode_int(data["d"])
    if d < 2:
        raise ValueError("a correlation vector needs d >= 2 outcomes")
    return CorrVector(d, blocks_from_json(data["C"], (d,)))
