"""Is a behavior local-realistic?  Exact decision with certificates.

Feasibility of the convex decomposition over deterministic strategies is
an exact LP.  A feasible point comes back as explicit weights that
reconstruct the queried vector coordinate by coordinate.  An infeasible
one (the LP's Farkas certificate proves that much) is turned into a
separating Bell inequality by an interior-ray argument: shoot the segment
from the uniform point (relative interior of the local polytope) towards
the query, maximize how far along it the polytope reaches, and read the
supporting hyperplane of the exit face off the exact dual.  The resulting
functional is valid on every generator by construction, is normalized so
its bound equals its exact maximum over the generators, and strictly cuts
off the query.

A query enters the integers once, as one integer row over its common
denominator (``linalg.integer_rows``); the precondition checks, both LPs
and the violation all read that row, and lp_max's exact check of its
primal is the check that the weights rebuild it.  What depends only on
(space, d) is built once per process, on first use: the LP's generator
rows, the vertex column sums behind the uniform point, the vertex names,
and the row keys of the orbit of CGLMP that name a certificate's class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cglmp import cglmp_inequality
from .correlators import CorrVector, cglmp_corr_inequality, is_corr_probability
from .facets import space_vertices
from .linalg import integer_rows, slack_matrix
from .lp import lp_max
from .scenario import Behavior, Inequality, Scenario, all_strategies, constraint_verdicts
from .symmetry import _orbit, _row_keys, gauge_rows, has_group


@dataclass(frozen=True)
class MembershipResult:
    """Verdict plus the exact object backing it (weights or certificate)."""

    local: bool
    weights: dict | None = None
    certificate: Inequality | None = None
    violation: Fraction | None = None  # eval(certificate, query) - bound
    certificate_class: str | None = None


def local_max(ineq: Inequality) -> Fraction:
    """Exact maximum over the (projected) generators: minus the least
    entry of the slack row 0 - coeffs.v, over the common denominator."""
    coeffs, den = integer_rows([ineq.coeffs])
    slack = slack_matrix(coeffs, [0], space_vertices(ineq.space, ineq.d))
    return Fraction(-int(slack.min()), den)


@lru_cache(maxsize=None)
def _system(space: str, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The generator rows of a space, built once per (space, d): the
    read-only integer matrix [V^T; 1], one column per vertex, whose last
    row makes the weights sum to one, and the read-only column sums of V,
    whose centroid sums / nverts is the uniform point."""
    vertices = space_vertices(space, d)
    rows = np.ones((vertices.shape[1] + 1, len(vertices)), dtype=np.int64)
    rows[:-1] = vertices.T
    sums = vertices.sum(axis=0)
    rows.flags.writeable = sums.flags.writeable = False
    return rows, sums


@lru_cache(maxsize=None)
def _labels(space: str, d: int) -> tuple:
    """The names of the vertices of a space, in space_vertices order: a
    strategy, or for a projected generator its four outcome differences,
    the positions of its unit entries within their blocks."""
    if space == "behavior":
        return tuple(all_strategies(Scenario(d)))
    ones = np.nonzero(space_vertices(space, d))[1].reshape(-1, 4)
    return tuple(map(tuple, (ones % d).tolist()))


@lru_cache(maxsize=None)
def _cglmp_keys(space: str, d: int) -> frozenset:
    """The row keys of the orbit of CGLMP in a space with a group table,
    built once per (space, d) by symmetry's own _orbit and _row_keys."""
    reference = cglmp_inequality(d) if space == "behavior" else cglmp_corr_inequality(d)
    return frozenset(_row_keys(_orbit(gauge_rows([reference])[0], space, d)))


def _decompose(q: list[int], qden: int, space: str, d: int) -> MembershipResult:
    """Shared core, on the query as the Python ints q over their common
    denominator qden: the vertices of the space are the generator vectors.
    The interior ray starts at their centroid, which is the uniform
    behavior, or 1/d per correlator coordinate.  Both LPs take integer
    right-hand sides, the query [*q, qden] and the centroid [*sums, nverts]
    divided by their gcd; they are the integer problems a rational
    right-hand side clears its denominators to."""
    eq_rows, sums = _system(space, d)
    ncoords, nverts = eq_rows.shape[0] - 1, eq_rows.shape[1]
    feas = lp_max([0] * nverts, eq_rows=eq_rows, eq_rhs=[*q, qden])
    if feas.status == "optimal":
        # the weights are x / qden: lp_max has checked that x >= 0 and that
        # rows x == [*q, qden], so they sum to 1 and rebuild the query
        weights = {lab: x / qden for lab, x in zip(_labels(space, d), feas.primal) if x}
        return MembershipResult(local=True, weights=weights)
    if feas.status != "infeasible":
        raise AssertionError(f"feasibility LP came back {feas.status}")

    # interior ray: max t with  sum_w w G = u + t (p - u),  sum w = 1, w >= 0,
    # t >= 0 (the uniform point u = sums / nverts is local, so t = 0 is
    # feasible); with p - u = delta / D the column of t is -delta and its
    # objective D.  Over the integer right-hand side uden [u, 1] the optimum
    # is uden t*.
    sums = sums.tolist()
    g = math.gcd(nverts, *sums)
    uden = nverts // g
    diff = [x * nverts - s * qden for x, s in zip(q, sums)]  # qden nverts (p - u)
    h = math.gcd(qden * nverts, *diff)
    (delta,), _ = integer_rows([[x // h for x in diff]])
    D = qden * nverts // h
    ray_rows = np.zeros((ncoords + 1, nverts + 1), dtype=delta.dtype)
    ray_rows[:, :nverts] = eq_rows
    ray_rows[:ncoords, nverts] = -delta
    res = lp_max([0] * nverts + [D], eq_rows=ray_rows, eq_rhs=[*(s // g for s in sums), uden])
    if res.status != "optimal":
        raise AssertionError(f"interior-ray LP came back {res.status}")
    t_star = res.optimum / uden
    if t_star >= 1:
        raise AssertionError("interior ray exits beyond the query on an infeasible instance")
    y = res.dual
    coeffs = tuple(-y[i] for i in range(ncoords))
    bound = local_max(Inequality(space, d, coeffs, y[ncoords]))
    # the certificate in the standard gauge, whose row is also its class key
    (key,) = gauge_rows([Inequality(space, d, coeffs, bound)])
    cert = Inequality(space, d, tuple(key[:-1].tolist()), int(key[-1]))
    violation = Fraction(sum(c * x for c, x in zip(cert.coeffs, q) if c), qden) - cert.bound
    if violation <= 0:
        raise AssertionError("separating certificate fails to cut off the query")
    if local_max(cert) != cert.bound:
        raise AssertionError("certificate bound is not the exact local maximum")
    return MembershipResult(
        local=False,
        certificate=cert,
        violation=violation,
        certificate_class=_catalog_label(key, space, d),
    )


def _catalog_label(key: np.ndarray, space: str, d: int) -> str:
    """The class name of a certificate, given its key row from gauge_rows:
    cglmp when the key lies in the orbit of CGLMP, uncataloged otherwise,
    unclassified where the space has no group table.

    A nonnegativity facet never matches, so it is not looked for: every
    nonnegative point of the affine hull satisfies it, and the query is
    such a point that the certificate cuts off."""
    if not has_group(space, d):
        return "unclassified"
    return "cglmp" if _row_keys(key[None])[0] in _cglmp_keys(space, d) else "uncataloged"


def local_decompose(p: Behavior) -> MembershipResult:
    """Exact convex decomposition over the d^4 strategies, or a separating
    Bell inequality the behavior strictly violates."""
    scaled = integer_rows([p.coords])
    (q,), qden = scaled
    if (q < 0).any():
        raise ValueError("behavior has negative entries; not a probability table")
    normalized, nosignaling = constraint_verdicts(p, scaled)
    if not normalized:
        raise ValueError("behavior is not normalized")
    if not nosignaling:
        raise ValueError("behavior is signaling; locality is not defined for it")
    return _decompose(q.tolist(), qden, "behavior", p.d)


def corr_local_decompose(c: CorrVector) -> MembershipResult:
    """Same contract over the d^3 projected generators."""
    scaled = integer_rows([c.coords])
    if not is_corr_probability(c, scaled):
        raise ValueError("correlation vector must be nonnegative with unit block sums")
    (q,), qden = scaled
    return _decompose(q.tolist(), qden, "correlator", c.d)
