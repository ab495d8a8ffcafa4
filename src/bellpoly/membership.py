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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cglmp import cglmp_inequality, evaluate
from .correlators import CorrVector, cglmp_corr_inequality, is_corr_probability
from .facets import canonicalize, space_vertices, standard_equations
from .linalg import integer_rows, slack_matrix
from .lp import lp_max
from .scenario import Behavior, Inequality, Scenario, all_strategies, constraint_verdicts
from .symmetry import equivalent, has_group


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


def _decompose(query, labels, space: str, d: int) -> MembershipResult:
    """Shared core: the vertices of the space, named by labels, are the
    generator vectors.  The interior ray starts at their centroid, which
    is the uniform behavior, or 1/d per correlator coordinate."""
    vertices = space_vertices(space, d)
    ncoords = len(query)
    nverts = len(vertices)
    eq_rows = np.ones((ncoords + 1, nverts), dtype=np.int64)
    eq_rows[:ncoords] = vertices.T
    eq_rhs = [*query, 1]
    feas = lp_max([0] * nverts, eq_rows=eq_rows, eq_rhs=eq_rhs)
    if feas.status == "optimal":
        # the weights w / wden sum to 1 and rebuild the query: rows w / wden == b / bden
        w, wden = feas.scaled_primal
        if any(v < 0 for v in w):
            raise AssertionError("negative weight from the feasibility LP")
        b, bden = integer_rows([eq_rhs])
        rebuilt = -slack_matrix(eq_rows, np.zeros(ncoords + 1, dtype=np.int64), [w])[:, 0]  # rows w
        if [bden * v for v in rebuilt.tolist()] != [wden * v for v in b[0].tolist()]:
            raise AssertionError("decomposition does not reconstruct the query exactly")
        weights = {lab: x for lab, x in zip(labels, feas.primal) if x}
        return MembershipResult(local=True, weights=weights)
    if feas.status != "infeasible":
        raise AssertionError(f"feasibility LP came back {feas.status}")

    # interior ray: max t with  sum_w w G = u + t (p - u),  sum w = 1, w >= 0,
    # t >= 0 (the uniform point u is local, so t = 0 is feasible); with
    # p - u = delta / D the column of t is -delta and its objective D
    uniform = [Fraction(n, nverts) for n in vertices.sum(axis=0).tolist()]
    delta, D = integer_rows([[q - u for q, u in zip(query, uniform)]])
    ray_rows = np.zeros((ncoords + 1, nverts + 1), dtype=delta.dtype)
    ray_rows[:, :nverts] = eq_rows
    ray_rows[:ncoords, nverts] = -delta[0]
    res = lp_max([0] * nverts + [D], eq_rows=ray_rows, eq_rhs=[*uniform, 1])
    if res.status != "optimal":
        raise AssertionError(f"interior-ray LP came back {res.status}")
    t_star = res.optimum
    if t_star >= 1:
        raise AssertionError("interior ray exits beyond the query on an infeasible instance")
    y = res.dual
    coeffs = tuple(-y[i] for i in range(ncoords))
    raw = Inequality(space, d, coeffs, y[ncoords])
    bound = local_max(raw)
    cert = canonicalize(
        Inequality(space, d, coeffs, bound), equations=standard_equations(space, d)
    )
    violation = evaluate(cert, query) - cert.bound
    if violation <= 0:
        raise AssertionError("separating certificate fails to cut off the query")
    if local_max(cert) != cert.bound:
        raise AssertionError("certificate bound is not the exact local maximum")
    return MembershipResult(
        local=False,
        certificate=cert,
        violation=violation,
        certificate_class=_catalog_label(cert),
    )


def _catalog_label(cert: Inequality) -> str:
    """The class name of a certificate: cglmp when it lies in the orbit of
    CGLMP, uncataloged otherwise, unclassified where the space has no
    group table.

    A nonnegativity facet never matches, so it is not looked for: every
    nonnegative point of the affine hull satisfies it, and the query is
    such a point that the certificate cuts off.  The certificate is never
    constant on the affine hull (canonicalize would have refused it), so
    its gauge row is a class key."""
    space, d = cert.space, cert.d
    if not has_group(space, d):
        return "unclassified"
    reference = cglmp_inequality(d) if space == "behavior" else cglmp_corr_inequality(d)
    return "cglmp" if equivalent(reference, cert) else "uncataloged"


def local_decompose(p: Behavior) -> MembershipResult:
    """Exact convex decomposition over the d^4 strategies, or a separating
    Bell inequality the behavior strictly violates."""
    if any(x < 0 for x in p.coords):
        raise ValueError("behavior has negative entries; not a probability table")
    normalized, nosignaling = constraint_verdicts(p)
    if not normalized:
        raise ValueError("behavior is not normalized")
    if not nosignaling:
        raise ValueError("behavior is signaling; locality is not defined for it")
    return _decompose(p.coords, all_strategies(Scenario(p.d)), "behavior", p.d)


def corr_local_decompose(c: CorrVector) -> MembershipResult:
    """Same contract over the d^3 projected generators."""
    if not is_corr_probability(c):
        raise ValueError("correlation vector must be nonnegative with unit block sums")
    # a projected generator is named by its four outcome differences, the
    # positions of its unit entries within their blocks
    ones = np.nonzero(space_vertices("correlator", c.d))[1].reshape(-1, 4)
    return _decompose(c.coords, list(map(tuple, (ones % c.d).tolist())), "correlator", c.d)
