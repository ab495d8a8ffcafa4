import json
import random
from fractions import Fraction

import pytest

from bellpoly import linalg
from bellpoly.cglmp import cglmp_inequality, eval_on_generator, evaluate
from bellpoly.correlators import (
    CorrVector,
    cglmp_corr_inequality,
    chsh_correlators,
    chsh_inequality,
    corr_affine_dim,
    corr_from_json,
    corr_to_json,
    is_corr_probability,
    lift,
    project,
    projected_generators,
)
from bellpoly.scenario import Behavior, Scenario, all_strategies, generator, uniform_behavior


def test_project_uniform():
    for d in (2, 3, 4):
        c = project(uniform_behavior(d))
        assert all(x == Fraction(1, d) for x in c.coords)
        assert is_corr_probability(c)


def test_project_generator_d3():
    c = project(generator(Scenario(3), (0, 0, 0, 0)))
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        assert c[(a, b, 0)] == 1
        assert c[(a, b, 1)] == 0
        assert c[(a, b, 2)] == 0


def test_projected_generator_counts():
    assert len(projected_generators(2)) == 8
    assert len(projected_generators(3)) == 27
    assert len(projected_generators(4)) == 64


def test_projected_generators_structure():
    for d in (2, 3):
        for g in projected_generators(d):
            for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
                block = [g[(a, b, n)] for n in range(d)]
                assert sorted(block) == [0] * (d - 1) + [1]


def test_projected_generators_sorted_and_distinct():
    for d in (2, 3):
        gens = projected_generators(d)
        coords = [g.coords for g in gens]
        assert coords == sorted(coords)
        assert len(set(coords)) == len(coords)


def test_corr_affine_dim():
    assert corr_affine_dim(2) == 4
    assert corr_affine_dim(3) == 8
    assert corr_affine_dim(4) == 12


def test_corr_affine_dim_against_fraction_path():
    # cross-check the integer fast path with the generic rational one
    for d in (2, 3):
        pts = [g.coords for g in projected_generators(d)]
        assert linalg.affine_dim(pts) == corr_affine_dim(d)


def test_chsh_correlators():
    u = uniform_behavior(2)
    assert chsh_correlators(u) == (0, 0, 0, 0)
    g = generator(Scenario(2), (0, 0, 0, 0))
    assert chsh_correlators(g) == (1, 1, 1, 1)
    q = chsh_inequality()
    assert evaluate(q, project(g)) == 2
    with pytest.raises(ValueError):
        chsh_correlators(uniform_behavior(3))


def test_chsh_identity_with_difference_probabilities():
    # <A_a B_b> = P(diff=0) - P(diff=1) under the sign convention 0 -> +1
    rng = random.Random(31)
    for _ in range(10):
        raw = [Fraction(rng.randint(0, 6), 7) for _ in range(16)]
        p = Behavior(2, tuple(raw))
        c = project(p)
        corr = chsh_correlators(p)
        for i, (a, b) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
            assert corr[i] == c[(a, b, 0)] - c[(a, b, 1)]
    for lam in all_strategies(Scenario(2)):
        g = generator(Scenario(2), lam)
        c = project(g)
        corr = chsh_correlators(g)
        for i, (a, b) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
            assert corr[i] == c[(a, b, 0)] - c[(a, b, 1)]


def test_cglmp_corr_matches_behavior_form_on_generators():
    for d in (2, 3):
        q = cglmp_corr_inequality(d)
        for lam in all_strategies(Scenario(d)):
            g = generator(Scenario(d), lam)
            assert evaluate(q, project(g)) == eval_on_generator(lam, d)


def test_cglmp_corr_on_uniform():
    for d in range(2, 7):
        u = CorrVector(d, tuple([Fraction(1, d)] * (4 * d)))
        assert evaluate(cglmp_corr_inequality(d), u) == 0


def test_lift_pullback_identity():
    rng = random.Random(47)
    for d in (2, 3):
        q = cglmp_corr_inequality(d)
        lifted = lift(q)
        assert lifted.bound == q.bound
        for _ in range(10):
            raw = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4 * d * d))
            p = Behavior(d, raw)
            assert evaluate(lifted, p) == evaluate(q, project(p))


def test_lift_zero_and_bound():
    z = CorrVector(2, tuple([Fraction(0)] * 8))
    from bellpoly.scenario import Inequality

    zq = Inequality("correlator", 2, z.coords, Fraction(7, 3))
    lifted = lift(zq)
    assert all(c == 0 for c in lifted.coeffs)
    assert lifted.bound == Fraction(7, 3)
    with pytest.raises(ValueError):
        lift(lifted)


def test_lift_agrees_with_direct_construction():
    for d in (2, 3, 4, 5, 6):
        assert lift(cglmp_corr_inequality(d)).coeffs == cglmp_inequality(d).coeffs


def test_projection_linearity():
    rng = random.Random(53)
    d = 3
    for _ in range(5):
        p = Behavior(d, tuple(Fraction(rng.randint(0, 9), 10) for _ in range(36)))
        q = Behavior(d, tuple(Fraction(rng.randint(0, 9), 10) for _ in range(36)))
        alpha = Fraction(rng.randint(0, 7), 7)
        mix = Behavior(d, tuple(alpha * a + (1 - alpha) * b for a, b in zip(p.coords, q.coords)))
        lhs = project(mix).coords
        rhs = tuple(alpha * a + (1 - alpha) * b for a, b in zip(project(p).coords, project(q).coords))
        assert lhs == rhs


def test_corr_json_round_trip():
    rng = random.Random(59)
    for d in (2, 3):
        c = CorrVector(d, tuple(Fraction(rng.randint(0, 8), 9) for _ in range(4 * d)))
        blob = json.dumps(corr_to_json(c))
        assert corr_from_json(json.loads(blob)) == c


def test_projected_generator_matrix_is_the_sorted_distinct_projections():
    from bellpoly.correlators import projected_generator_matrix

    for d in range(2, 5):
        mat = projected_generator_matrix(d)
        s = Scenario(d)
        expected = sorted({project(generator(s, lam)).coords for lam in all_strategies(s)})
        assert [tuple(Fraction(int(x)) for x in row) for row in mat] == expected
