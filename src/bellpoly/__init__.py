"""Exact local-realistic polytopes for two parties, two settings, d outcomes.

Construction of the local polytope from deterministic strategies, the CGLMP
inequality with its exhaustive bound and tightness certificates, projection
to generalized correlation functions, exact facet enumeration by the double
description method, symmetry classification, and local-model membership
tests with separating Bell-inequality certificates.  All arithmetic is over
exact rationals; results are bit-reproducible.
"""

from .scenario import (
    Behavior,
    DeterministicStrategy,
    Inequality,
    all_generators,
    constraint_matrix,
    generator,
    polytope_affine_dim,
)
from .cglmp import (
    cglmp_inequality,
    constructive_witness,
    tightness_rank,
    verify_condition1,
)
from .correlators import (
    CorrVector,
    cglmp_corr_inequality,
    corr_affine_dim,
    lift,
    project,
    projected_generators,
)
from .facets import HRep, VRep, canonicalize, classify_trivial, enumerate_facets, nosignaling_max, saturation_count
from .symmetry import canonical_class, equivalent
from .membership import corr_local_decompose, local_decompose, local_max
from .lp import LPResult, lp_max

__all__ = [name for name in dir() if not name.startswith("_")]
