"""The one slack kernel, linalg.slack_matrix, and its consumers
(saturation_count, local_max) against a Fraction dot product per vertex."""

import random
from fractions import Fraction

import numpy as np
import pytest

from bellpoly import linalg
from bellpoly.correlators import projected_generators
from bellpoly.facets import saturation_count
from bellpoly.linalg import integer_rows, slack_matrix
from bellpoly.membership import local_max
from bellpoly.scenario import Inequality, all_generators

from oracles import fraction_rref, fraction_slack


def _vertices(name):
    """(space, d, vertex coordinate tuples) of a test vertex set."""
    if name == "square/3":
        # the unit square scaled by 1/3 and moved off the origin
        pts = [(Fraction(x, 3) + Fraction(1, 2), Fraction(y, 3)) for x in (0, 1) for y in (0, 1)]
        return "vector", 2, pts
    if name == "behavior-2":
        return "behavior", 2, [g.coords for g in all_generators(2)]
    return "correlator", 3, [g.coords for g in projected_generators(3)]


def _random_coeffs(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


def _supporting(rng, verts):
    """Random coefficients with the bound that makes them touch the set."""
    coeffs = _random_coeffs(rng, len(verts[0]))
    return coeffs, -min(fraction_slack(coeffs, 0, verts))


VERTEX_SETS = ["square/3", "behavior-2", "correlator-3"]


@pytest.mark.parametrize("name", VERTEX_SETS)
def test_slack_matrix_matches_fraction_oracle(name):
    rng = random.Random(f"kernel{name}")
    _, _, verts = _vertices(name)
    mat, den = integer_rows(verts)
    assert [[Fraction(x, den) for x in row] for row in mat.tolist()] == [list(v) for v in verts]
    coeffs = [[rng.randint(-9, 9) for _ in verts[0]] for _ in range(12)]
    bounds = [rng.randint(-9, 9) for _ in coeffs]
    got = slack_matrix(coeffs, [den * b for b in bounds], mat)
    assert got.dtype == np.int64
    want = [[den * s for s in fraction_slack(a, b, verts)] for a, b in zip(coeffs, bounds)]
    assert got.tolist() == want


@pytest.mark.parametrize("name", VERTEX_SETS)
def test_saturation_count_matches_fraction_oracle(name):
    rng = random.Random(f"saturation{name}")
    space, d, verts = _vertices(name)
    for _ in range(10):
        coeffs, bound = _supporting(rng, verts)
        tight = [v for v, s in zip(verts, fraction_slack(coeffs, bound, verts)) if s == 0]
        q = Inequality(space, d, tuple(coeffs), bound)
        assert saturation_count(q, verts) == (len(tight), len(fraction_rref(tight)[1]))
        with pytest.raises(ValueError, match="violated"):
            saturation_count(Inequality(space, d, tuple(coeffs), bound - Fraction(1, 7)), verts)
        with pytest.raises(ValueError, match="touches no vertex"):
            saturation_count(Inequality(space, d, tuple(coeffs), bound + Fraction(1, 7)), verts)


@pytest.mark.parametrize("name", ["behavior-2", "correlator-3"])
def test_local_max_matches_fraction_oracle(name):
    rng = random.Random(f"localmax{name}")
    space, d, verts = _vertices(name)
    for _ in range(10):
        coeffs = _random_coeffs(rng, len(verts[0]))
        q = Inequality(space, d, tuple(coeffs), Fraction(rng.randint(-3, 3)))
        assert local_max(q) == -min(fraction_slack(coeffs, 0, verts))


@pytest.mark.parametrize("name", VERTEX_SETS)
def test_huge_coefficients_fall_back_to_python_ints(name):
    rng = random.Random(f"huge{name}")
    space, d, verts = _vertices(name)
    mat, den = integer_rows(verts)
    coeffs, bound = _supporting(rng, verts)
    (*ints, b), = integer_rows([[*coeffs, bound]])[0].tolist()
    small = slack_matrix([ints], [den * b], mat)
    big = slack_matrix([[2**70 * x for x in ints]], [2**70 * den * b], mat)
    assert small.dtype == np.int64 and big.dtype == object
    assert big.tolist() == [[2**70 * x for x in small[0].tolist()]]
    scaled = [2**70 * c for c in coeffs]
    q = Inequality(space, d, tuple(coeffs), bound)
    q_big = Inequality(space, d, tuple(scaled), 2**70 * bound)
    assert saturation_count(q_big, verts) == saturation_count(q, verts)
    if space != "vector":
        assert local_max(q_big) == 2**70 * local_max(q) == -min(fraction_slack(scaled, 0, verts))


def test_slack_matrix_guard_threshold(monkeypatch):
    # max|b| + width*max|a|*max|v| = 99 stays in int64 under a limit of 100, 100 does not
    monkeypatch.setattr(linalg, "OVERFLOW_LIMIT", 100)
    assert slack_matrix([[3, 0]], [93], np.array([[1, 1]])).dtype == np.int64
    out = slack_matrix([[3, 0]], [94], np.array([[1, 1]]))
    assert out.dtype == object and out.tolist() == [[91]]


@pytest.mark.parametrize("name", VERTEX_SETS)
def test_lowered_overflow_limit_gives_the_same_answers(monkeypatch, name):
    rng = random.Random(f"limit{name}")
    space, d, verts = _vertices(name)
    cases = [_supporting(rng, verts) for _ in range(5)]
    queries = [Inequality(space, d, tuple(c), b) for c, b in cases]
    before = [saturation_count(q, verts) for q in queries]
    maxima = [local_max(q) for q in queries] if space != "vector" else []
    monkeypatch.setattr(linalg, "OVERFLOW_LIMIT", 8)
    mat, den = integer_rows(verts)
    (*ints, b), = integer_rows([[*cases[0][0], cases[0][1]]])[0].tolist()
    assert slack_matrix([ints], [den * b], mat).dtype == object
    assert [saturation_count(q, verts) for q in queries] == before
    assert ([local_max(q) for q in queries] if space != "vector" else []) == maxima


def test_integer_rows_accepts_every_vertex_form():
    gens = projected_generators(2)
    as_objects = integer_rows(gens)
    as_tuples = integer_rows([g.coords for g in gens])
    as_matrix = integer_rows(np.array([[int(x) for x in g.coords] for g in gens]))
    for mat, den in (as_objects, as_tuples, as_matrix):
        assert den == 1 and mat.dtype == np.int64
        assert mat.tolist() == as_matrix[0].tolist()
    mat, den = integer_rows([(Fraction(1, 6), 2), (Fraction(-3, 4), 0)])
    assert den == 12 and mat.tolist() == [[2, 24], [-9, 0]]


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, -2], [3, 4, 5]],
        [[True, 2], [0, False]],  # bools are ints, but not Python ints
        [[np.int64(3), 4], [5, np.int8(-6)]],  # numpy integers
        [[2**62, 1], [0, -(2**62)]],  # fits int64, past the guard: Python ints
        [[2**63, 1], [0, -(2**63) - 1]],  # past int64
        [[2**100, -1]],
        [(1, 2), (3, 4)],
    ],
)
def test_integer_rows_fast_path_matches_fractions(rows):
    # rows of Python ints take one np.array to int64; every other batch, and
    # the same rows written as Fractions, the entry-by-entry path
    mat, den = integer_rows(rows)
    fmat, fden = integer_rows([[Fraction(x) for x in row] for row in rows])
    assert den == fden == 1
    assert mat.dtype == fmat.dtype and mat.tolist() == fmat.tolist()
    assert mat.dtype == (np.int64 if max(abs(int(x)) for row in rows for x in row) < 2**62 else object)


def test_integer_rows_reads_python_ints_in_one_array(monkeypatch):
    # the entry-by-entry path ends in _int_array; rows of Python ints skip it
    calls = []
    real = linalg._int_array
    monkeypatch.setattr(linalg, "_int_array", lambda *args: calls.append(args) or real(*args))
    assert integer_rows([[0, 1], [2, -3]])[0].tolist() == [[0, 1], [2, -3]]
    assert not calls
    assert integer_rows([[0, 1], [2, Fraction(-3)]])[0].tolist() == [[0, 1], [2, -3]]
    assert len(calls) == 1


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[2**63, 2], [3]]])
def test_integer_rows_refuses_ragged_int_rows(rows):
    with pytest.raises(ValueError):
        integer_rows(rows)
    with pytest.raises(ValueError):
        integer_rows([[Fraction(x) for x in row] for row in rows])


def test_integer_rows_takes_floats_exactly():
    # a float entry enters through Fraction, never truncated by int()
    mat, den = integer_rows([[0.5, 1]])
    assert den == 2 and mat.tolist() == [[1, 2]]
    mat, den = integer_rows([(np.float64(0.1), np.int64(3), Fraction(1, 3))])
    assert [Fraction(x, den) for x in mat[0].tolist()] == [Fraction(0.1), 3, Fraction(1, 3)]
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            integer_rows([[1, bad]])
