"""Acceptance gate: one test per criterion, exact tolerances, stated budgets.

Each test prints a PASS line with the measured quantities; `pytest -v`
gives the per-criterion pass/fail listing.  The d=4 enumeration criterion
is marked slow and excluded from the default run (invoke with -m slow).
"""

import random
import time
from fractions import Fraction

import pytest

from bellpoly import linalg
from bellpoly.cglmp import (
    cglmp_inequality,
    constructive_witness,
    evaluate,
    tightness_rank,
    verify_condition1,
)
from bellpoly.correlators import (
    cglmp_corr_inequality,
    chsh_inequality,
    corr_index,
    lift,
    project,
    projected_generators,
)
from bellpoly.facets import (
    classify_trivial,
    enumerate_facets,
    saturation_count,
    vrep_of,
)
from bellpoly.lp import lp_max
from bellpoly.membership import local_decompose
from bellpoly.scenario import (
    Behavior,
    Scenario,
    all_strategies,
    constraint_matrix,
    generator,
    polytope_affine_dim,
    spanning_strategy_grid,
    uniform_behavior,
)
from bellpoly.symmetry import equivalent, group_for, label_classes

from oracles import apply_row, square_subset_facets
from test_membership import pr_box

DRANGE = range(2, 11)


def test_criterion_01_bound_over_all_generators():
    t0 = time.monotonic()
    for d in DRANGE:
        rep = verify_condition1(d)  # raises on any disagreement or stray value
        assert rep.max_value == 2
        allowed = {Fraction(2), Fraction(-2, d - 1), Fraction(-2 * (d + 1), d - 1)}
        assert set(rep.histogram) <= allowed
        assert sum(rep.histogram.values()) == d**4
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 1: bound verified for d=2..10 in {elapsed:.2f}s")


def test_criterion_02_tightness_rank_and_staged_witness():
    t0 = time.monotonic()
    for d in DRANGE:
        rep = tightness_rank(d)
        assert rep.rank == rep.h == 4 * d * (d - 1)
        batches = constructive_witness(d)
        assert len(batches) == d - 1
        for j, batch in enumerate(batches):
            assert len(batch.supports) == 4 * d
            assert batch.rank_after == 4 * d * (j + 1)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 2: tightness rank and d-1 witness batches for d=2..10 in {elapsed:.2f}s")


def test_criterion_03_constraint_system_rank():
    for d in DRANGE:
        rows, _ = constraint_matrix(Scenario(d))
        assert linalg.rank(rows) == 4 * d
    print("PASS criterion 3: normalization + no-signaling rank = 4d for d=2..10")


def test_criterion_04_affine_dimension():
    for d in DRANGE:
        assert polytope_affine_dim(Scenario(d)) == 4 * d * (d - 1)
        fam = spanning_strategy_grid(d)
        mat = [generator(Scenario(d), lam).coords for lam in fam]
        assert linalg.rank(mat) == (2 * d - 1) ** 2
    print("PASS criterion 4: affine dim = 4d(d-1) and the (2d-1)^2 family is independent, d=2..10")


def test_criterion_05_d2_correlator_polytope():
    gens = projected_generators(2)
    t0 = time.monotonic()
    hrep = enumerate_facets(vrep_of(gens), space="correlator", d=2)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert hrep.complete
    assert len(hrep.facets) == 16  # golden count, cross-checked below

    # independent oracle: hyperplanes through vertex subsets
    free = [corr_index(2, a, b, 1) for a, b in ((1, 1), (1, 2), (2, 1), (2, 2))]
    verts_red = [tuple(g.coords[j] for j in free) for g in gens]
    oracle = square_subset_facets(verts_red, 4)
    dd_reduced = {(tuple(int(q.coeffs[j]) for j in free), int(q.bound)) for q in hrep.facets}
    assert dd_reduced == oracle

    nontrivial = [q for q in hrep.facets if not classify_trivial(q)]
    assert all(equivalent(q, chsh_inequality()) for q in nontrivial)
    print(
        f"PASS criterion 5: d=2 correlator polytope, {len(hrep.facets)} facets in {elapsed:.3f}s, "
        f"{len(nontrivial)} non-trivial all CHSH-equivalent, subset oracle agrees"
    )


def test_criterion_06_d3_correlator_polytope():
    gens = projected_generators(3)
    t0 = time.monotonic()
    hrep = enumerate_facets(vrep_of(gens), space="correlator", d=3)
    nontrivial = [q for q in hrep.facets if not classify_trivial(q)]
    labels, reps = label_classes(nontrivial)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    assert hrep.complete
    assert len(hrep.facets) == 66  # derived golden count (12 trivial + 54)
    assert len(nontrivial) == 54
    assert set(labels) == {0}
    assert equivalent(reps[0], cglmp_corr_inequality(3))
    for q in hrep.facets:
        count, rk = saturation_count(q, gens)
        assert rk == hrep.reduced_dim
    print(
        f"PASS criterion 6: d=3 correlator polytope complete in {elapsed:.1f}s, "
        f"66 facets, every non-trivial facet CGLMP3-equivalent"
    )


@pytest.mark.slow
def test_criterion_07_d4_correlator_polytope_budgeted():
    gens = projected_generators(4)
    t0 = time.monotonic()
    hrep = enumerate_facets(
        vrep_of(gens), space="correlator", d=4, deadline=time.monotonic() + 3600
    )
    nontrivial = [q for q in hrep.facets if not classify_trivial(q)]
    labels, reps = label_classes(nontrivial)
    elapsed = time.monotonic() - t0
    assert elapsed < 3600
    nclasses = len(reps)
    assert nclasses >= 3
    for rep in reps:
        count, rk = saturation_count(rep, gens)
        assert rk == hrep.reduced_dim
    print(
        f"PASS criterion 7: d=4 correlator polytope in {elapsed:.1f}s "
        f"(complete={hrep.complete}), {nclasses} pairwise-inequivalent non-trivial classes"
    )


def test_criterion_08_projection_invariance():
    for d in range(2, 7):
        lifted = lift(cglmp_corr_inequality(d))
        direct = cglmp_inequality(d)
        assert lifted.bound == direct.bound
        assert lifted.coeffs == direct.coeffs
        for lam in all_strategies(Scenario(d)) if d <= 4 else all_strategies(Scenario(d))[:500]:
            g = generator(Scenario(d), lam)
            assert evaluate(lifted, g) == evaluate(direct, g)
    print("PASS criterion 8: lifted correlator form agrees with the behavior form, d=2..6")


def test_criterion_09_membership():
    # uniform: local with verified decomposition
    for d in (2, 3):
        u = uniform_behavior(d)
        res = local_decompose(u)
        assert res.local
        recon = [Fraction(0)] * len(u.coords)
        total = Fraction(0)
        for lam, w in res.weights.items():
            assert w > 0
            total += w
            for i, x in enumerate(generator(Scenario(d), lam).coords):
                if x:
                    recon[i] += w
        assert total == 1 and tuple(recon) == u.coords

    # the maximally nonlocal box: certificate CHSH-equivalent, oracle value 4
    box = pr_box()
    assert evaluate(cglmp_inequality(2), box) == 4  # derived oracle
    res = local_decompose(box)
    assert not res.local
    cert = res.certificate
    for lam in all_strategies(Scenario(2)):
        assert evaluate(cert, generator(Scenario(2), lam)) <= cert.bound
    assert evaluate(cert, box) > cert.bound
    assert equivalent(cert, lift(chsh_inequality()))

    # every generator decomposes onto itself
    for d in (2, 3):
        for lam in all_strategies(Scenario(d)):
            res = local_decompose(generator(Scenario(d), lam))
            assert res.local
            assert res.weights == {lam: Fraction(1)}
    print("PASS criterion 9: uniform local, PR box nonlocal at value 4 with CHSH-equivalent certificate, all generators local (d=2,3)")


def test_criterion_10_property_suites():
    rng = random.Random(20260808)

    # symmetry group laws and eval invariance
    grp = group_for("behavior", 3)
    q3 = cglmp_inequality(3)
    for _ in range(30):
        g, h = rng.choice(grp), rng.choice(grp)
        p = Behavior(3, tuple(Fraction(rng.randint(0, 9), 11) for _ in range(36)))
        assert apply_row(h[g], p) == apply_row(g, apply_row(h, p))
        assert evaluate(apply_row(g, q3), apply_row(g, p)) == evaluate(q3, p)
    grpc = group_for("correlator", 3)
    for _ in range(30):
        g, h = rng.choice(grpc), rng.choice(grpc)
        c = project(Behavior(3, tuple(Fraction(rng.randint(0, 9), 11) for _ in range(36))))
        assert apply_row(h[g], c) == apply_row(g, apply_row(h, c))

    # facet soundness on every vertex for both enumerated polytopes
    for d in (2, 3):
        gens = projected_generators(d)
        hrep = enumerate_facets(vrep_of(gens), space="correlator", d=d)
        for q in hrep.facets:
            for g in gens:
                assert evaluate(q, g) <= q.bound

    # LP exactness and Farkas verification on random instances
    optimal = infeasible = 0
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-2, 3)) for _ in range(m)]
        obj = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        res = lp_max(obj, eq_rows=rows, eq_rhs=rhs)
        if res.status == "optimal":
            optimal += 1
            assert all(x >= 0 for x in res.primal)
            for row, b in zip(rows, rhs):
                assert sum(r * x for r, x in zip(row, res.primal)) == b
            assert sum(c * x for c, x in zip(obj, res.primal)) == res.optimum
        elif res.status == "infeasible":
            infeasible += 1
            y = res.certificate
            for j in range(n):
                assert sum(y[i] * rows[i][j] for i in range(m)) >= 0
            assert sum(y[i] * rhs[i] for i in range(m)) < 0
    assert optimal >= 10 and infeasible >= 10
    print(
        f"PASS criterion 10: group laws, eval invariance, facet soundness, LP/Farkas checks "
        f"({optimal} optimal, {infeasible} infeasible instances) all exact"
    )
