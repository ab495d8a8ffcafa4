import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bellpoly import linalg
from bellpoly.cli import main
from bellpoly.cglmp import classify_case, evaluate, rstu
from bellpoly.correlators import (
    CorrVector,
    cglmp_corr_inequality,
    chsh_inequality,
    corr_affine_dim,
    corr_from_json,
    corr_index,
    corr_to_json,
    difference_index,
    is_corr_probability,
    lift,
    project,
    projected_generators,
)
from bellpoly.scenario import (
    BLOCKS,
    Behavior,
    Inequality,
    Scenario,
    all_strategies,
    behavior_to_json,
    coord_index,
    generator,
    uniform_behavior,
)

STDOUT = json.loads(
    (Path(__file__).parent / "data" / "cglmp_project_stdout_sha256.json").read_text()
)["stdout"]


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
    # the two-outcome correlators of a d=2 behavior, read off its projection
    def correlators(p):
        c = project(p)
        return tuple(c[(a, b, 0)] - c[(a, b, 1)] for a, b in BLOCKS)

    u = uniform_behavior(2)
    assert correlators(u) == (0, 0, 0, 0)
    g = generator(Scenario(2), (0, 0, 0, 0))
    assert correlators(g) == (1, 1, 1, 1)
    q = chsh_inequality()
    assert evaluate(q, project(g)) == 2


def test_chsh_identity_with_difference_probabilities():
    # <A_a B_b> = sum over (k, s) of (-1)^(k+s) P(k, s) under the sign
    # convention 0 -> +1, which is P(diff=0) - P(diff=1) of the projection
    def signed_sums(p):
        return tuple(sum((-1) ** (k + s) * p[(a, b, k, s)] for k in range(2) for s in range(2)) for a, b in BLOCKS)

    rng = random.Random(31)
    points = [Behavior(2, tuple(Fraction(rng.randint(0, 6), 7) for _ in range(16))) for _ in range(10)]
    points += [generator(Scenario(2), lam) for lam in all_strategies(Scenario(2))]
    for p in points:
        c = project(p)
        assert tuple(c[(a, b, 0)] - c[(a, b, 1)] for a, b in BLOCKS) == signed_sums(p)


def test_cglmp_corr_matches_behavior_form_on_generators():
    for d in (2, 3):
        q = cglmp_corr_inequality(d)
        for lam in all_strategies(Scenario(d)):
            g = generator(Scenario(d), lam)
            assert evaluate(q, project(g)) == classify_case(rstu(lam, d), d).value


def test_cglmp_corr_on_uniform():
    for d in range(2, 7):
        u = CorrVector(d, tuple([Fraction(1, d)] * (4 * d)))
        assert evaluate(cglmp_corr_inequality(d), u) == 0


def test_lift_pullback_identity():
    rng = random.Random(47)
    for d in range(2, 7):
        tables = [cglmp_corr_inequality(d)] + [
            Inequality("correlator", d, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4 * d)),
                       Fraction(rng.randint(-3, 3)))
            for _ in range(3)
        ]
        for q in tables:
            lifted = lift(q)
            assert lifted.bound == q.bound
            for _ in range(5):
                raw = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4 * d * d))
                p = Behavior(d, raw)
                assert evaluate(lifted, p) == evaluate(q, project(p))


def test_difference_index_hits_every_correlator_coordinate_d_times():
    for d in range(2, 9):
        idx = difference_index(d)
        assert idx.shape == (4 * d * d,)
        assert np.bincount(idx).tolist() == [d] * (4 * d)
        for a, b in BLOCKS:
            for k in range(d):
                for s in range(d):
                    assert idx[coord_index(d, a, b, k, s)] == corr_index(d, a, b, (k - s) % d)


def test_lift_zero_and_bound():
    z = CorrVector(2, tuple([Fraction(0)] * 8))
    zq = Inequality("correlator", 2, z.coords, Fraction(7, 3))
    lifted = lift(zq)
    assert all(c == 0 for c in lifted.coeffs)
    assert lifted.bound == Fraction(7, 3)
    with pytest.raises(ValueError):
        lift(lifted)


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


def stdout_digest(argv):
    """Exit code and stdout sha256 of one command, as in the data file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def project_query(key):
    """The behavior named "project <d> uniform|generator|mixture|box",
    seeded by its name: a mixture weighs three seeded generators by seeded
    integers, and the box has uniform outcome pairs whose difference is
    (a-1)(b-1) mod d."""
    _, d, kind = key.split()
    d = int(d)
    rng = random.Random(key)

    def strategy():
        return tuple(rng.randrange(d) for _ in range(4))

    if kind == "uniform":
        return uniform_behavior(d)
    if kind == "generator":
        return generator(Scenario(d), strategy())
    if kind == "mixture":
        weights = [rng.randint(1, 9) for _ in range(3)]
        gens = [generator(Scenario(d), strategy()) for _ in weights]
        return Behavior(d, tuple(
            Fraction(sum(w * g.coords[i] for w, g in zip(weights, gens)), sum(weights)) for i in range(4 * d * d)
        ))
    coords = [Fraction(0)] * (4 * d * d)
    for a, b in BLOCKS:
        for s in range(d):
            coords[coord_index(d, a, b, ((a - 1) * (b - 1) + s) % d, s)] = Fraction(1, d)
    return Behavior(d, tuple(coords))


def _unflagged(prefix):
    return sorted({k.removesuffix(" --pretty") for k in STDOUT if k.startswith(prefix)})


@pytest.mark.parametrize("key", _unflagged("cglmp "))
def test_cglmp_stdout_is_byte_identical(key):
    for flags in ([], ["--pretty"]):
        assert stdout_digest([*key.split(), *flags]) == STDOUT[" ".join([key, *flags])]


@pytest.mark.parametrize("key", _unflagged("project "))
def test_project_stdout_is_byte_identical(tmp_path, key):
    path = tmp_path / "behavior.json"
    path.write_text(json.dumps(behavior_to_json(project_query(key))))
    for flags in ([], ["--pretty"]):
        assert stdout_digest(["project", str(path), *flags]) == STDOUT[" ".join([key, *flags])]
