import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bellpoly import linalg
from bellpoly.facets import dd_extreme_rays
from bellpoly.linalg import affine_dim, int_rank, nullspace, rank, rref
from bellpoly.scenario import Scenario, all_generators, constraint_matrix

from oracles import fraction_rref, support_pivot_columns


def test_rank_identity():
    ident = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    assert rank(ident) == 3


def test_rank_zero_matrix():
    assert rank([[Fraction(0)] * 5 for _ in range(2)]) == 0


def test_rank_empty():
    assert rank([]) == 0
    assert int_rank([]) == 0


def test_rank_scenario_constraints_d3():
    rows, _ = constraint_matrix(Scenario(3))
    assert len(rows) == 16
    assert rank(rows) == 12


def test_rank_transpose_invariance():
    rng = random.Random(7)
    for _ in range(25):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
            for _ in range(nr)
        ]
        t = [[m[i][j] for i in range(nr)] for j in range(nc)]
        assert rank(m) == rank(t)


def test_rank_constructed_block():
    # identity block plus rows that are sums of earlier ones
    rng = random.Random(11)
    base = [[Fraction(int(i == j)) for j in range(6)] for i in range(4)]
    extra = []
    for _ in range(3):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        extra.append([sum(c * base[i][j] for i, c in enumerate(coeffs)) for j in range(6)])
    assert rank(base + extra) == 4


def _low_rank(rng, nr, nc, k, scale):
    left = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(nr)]
    right = [[rng.randint(-scale, scale) for _ in range(nc)] for _ in range(k)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


def test_int_rank_matches_rref():
    rng = random.Random(3)
    for _ in range(60):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = _low_rank(rng, nr, nc, rng.randint(1, min(nr, nc)), 9)
        m = [[x * 2 ** rng.choice((0, 0, 40, 70)) for x in row] for row in m]
        assert int_rank(m) == int_rank(np.array(m, dtype=object)) == len(fraction_rref(m)[1])


@pytest.mark.parametrize("limit,scale", [(linalg.OVERFLOW_LIMIT, 2**17), (2**20, 9)])
def test_int_rank_leaves_int64_mid_elimination(monkeypatch, limit, scale):
    # the inputs start below the limit and pass the first pivots in int64;
    # later products trip the guard, so the array becomes Python ints halfway
    monkeypatch.setattr(linalg, "OVERFLOW_LIMIT", limit)
    rng = random.Random(17)
    for _ in range(30):
        nr, nc = rng.randint(3, 8), rng.randint(3, 8)
        m = _low_rank(rng, nr, nc, rng.randint(2, min(nr, nc)), scale)
        assert int_rank(np.array(m, dtype=np.int64)) == len(fraction_rref(m)[1])


@pytest.mark.parametrize("limit", [linalg.OVERFLOW_LIMIT, 2**20])
def test_pivot_columns_are_the_rref_pivots(monkeypatch, limit):
    # the greedy column basis, whatever the pivot rows; with the lowered
    # limit the array becomes Python ints partway
    monkeypatch.setattr(linalg, "OVERFLOW_LIMIT", limit)
    rng = random.Random(23)
    for _ in range(40):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = _low_rank(rng, nr, nc, rng.randint(1, min(nr, nc)), 9)
        if rng.random() < 0.5:  # repeated and zero columns
            m = [[row[j] if j % 3 else 0 for j in list(range(nc)) + [0, nc - 1]] for row in m]
        assert linalg.pivot_columns(np.array(m, dtype=np.int64)) == fraction_rref(m)[1]


# (rows, r, c, den, (|p| + P) P, rows after the update)
GUARD_CASES = [
    # pivot 3 on a block whose peak is 7: (3 + 7) * 7
    ([[3, 5, -4], [2, 7, 1], [-6, 1, 2]], 0, 0, 1, 70, [[3, 5, -4], [0, 11, 11], [0, 33, -18]]),
    # the next pivot, 11 over den 3, with peak 33: (11 + 33) * 33
    ([[3, 5, -4], [0, 11, 11], [0, 33, -18]], 1, 1, 3, 1452, [[11, 0, -33], [0, 11, 11], [0, 0, -187]]),
    # the pivot row holds the peak, 9; the other rows alone peak at 2
    ([[3, 9, 1], [2, 1, 1], [1, -2, 0]], 0, 0, 1, 108, [[3, 9, 1], [0, -15, 1], [0, -15, -1]]),
]


@pytest.mark.parametrize("slack,dtype", [(1, np.int64), (0, object)])
def test_fraction_free_switches_at_the_guard(monkeypatch, slack, dtype):
    # every row but r against the pivot a[r, c], in place or through an
    # explicit row selection: a limit equal to the bound switches to
    # Python ints, one above it keeps int64, and the rows come out the same
    for rows, r, c, den, bound, want in GUARD_CASES:
        monkeypatch.setattr(linalg, "OVERFLOW_LIMIT", bound + slack)
        for idx in (None, np.array([i for i in range(len(rows)) if i != r])):
            out = linalg._fraction_free(np.array(rows, dtype=np.int64), r, c, den, idx=idx)
            assert out.dtype == dtype
            assert out.tolist() == want


def test_int_rank_list_entries_past_int64():
    # np.array would infer uint64 for these and overflow on the first product
    m = [[2**63 + 1, 1], [2**64 - 1, 2], [2**63 + 1, 1]]
    assert int_rank(m) == 2
    assert int_rank([[2**64 - 1, 2**64 - 1], [1, 1]]) == 1
    assert int_rank([[np.int64(5), 2**70], [np.int64(3), 1]]) == 2


def test_pure_path_handles_huge_entries():
    big = 2**80
    m = [[big, 0], [0, big], [big, big]]
    assert int_rank(m) == 2


def test_affine_dim_single_point():
    assert affine_dim([(Fraction(1), Fraction(2))]) == 0


def test_affine_dim_collinear():
    p0 = (0, 0, 0, 0)
    p1 = (1, 2, 3, 4)
    p2 = (2, 4, 6, 8)
    assert affine_dim([p0, p1, p2]) == 1


def test_affine_dim_generators_d2():
    pts = [g.coords for g in all_generators(Scenario(2))]
    assert affine_dim(pts) == 8


def test_affine_dim_empty_errors():
    with pytest.raises(ValueError):
        affine_dim([])


def test_ragged_matrix_errors():
    with pytest.raises(ValueError):
        rank([[Fraction(1)], [Fraction(1), Fraction(2)]])


def test_rref_and_nullspace():
    rng = random.Random(23)
    for _ in range(15):
        nr, nc = rng.randint(1, 5), rng.randint(2, 6)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(nc)] for _ in range(nr)]
        basis = nullspace(m)
        assert len(basis) == nc - len(fraction_rref(m)[1])
        for vec in basis:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0
    red, pivots = rref([[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
    assert pivots == [0]
    assert red[0] == [Fraction(1), Fraction(2)]


def _rational_matrix(rng, scale):
    """A seeded rational matrix of low rank with zero rows, repeated and
    zero columns mixed in, entries times scale."""
    nr, nc = rng.randint(1, 8), rng.randint(1, 8)
    m = _low_rank(rng, nr, nc, rng.randint(1, min(nr, nc)), 9)
    if rng.random() < 0.5:
        m = [[row[j] if j % 3 else 0 for j in list(range(nc)) + [0, nc - 1]] for row in m]
    if rng.random() < 0.5:
        m.insert(rng.randint(0, len(m)), [0] * len(m[0]))
    return [[Fraction(x * scale, rng.randint(1, 6)) for x in row] for row in m]


@pytest.mark.parametrize("limit", [linalg.OVERFLOW_LIMIT, 2**20])
@pytest.mark.parametrize("scale", [1, 2**30, 2**70])
def test_rref_matches_fraction_rref(monkeypatch, limit, scale):
    # with the lowered limit, or entries of 2^30 and more, the array becomes
    # Python ints partway, for many matrices while clearing rows above a
    # pivot, which rank alone never does; entries past 2^62 start as Python ints
    monkeypatch.setattr(linalg, "OVERFLOW_LIMIT", limit)
    rng = random.Random(f"rref{limit}{scale}")
    for _ in range(60):
        m = _rational_matrix(rng, scale)
        assert rref(m) == fraction_rref(m)


@pytest.mark.parametrize("limit", [linalg.OVERFLOW_LIMIT, 2**20])
@pytest.mark.parametrize("scale", [1, 2**30, 2**70])
def test_integer_nullspace_matches_fraction_rref(monkeypatch, limit, scale):
    # the basis vector of free column f is 1 at f, 0 at the other free
    # columns and minus column f of the Fraction rref at the pivots; the
    # integer basis holds it over the least common denominator of the rref
    monkeypatch.setattr(linalg, "OVERFLOW_LIMIT", limit)
    rng = random.Random(f"null{limit}{scale}")
    for _ in range(60):
        m = _rational_matrix(rng, scale)
        red, pivots = fraction_rref(m)
        free = [c for c in range(len(m[0])) if c not in pivots]
        want = [[Fraction(int(c == f)) for c in range(len(m[0]))] for f in free]
        for vec, f in zip(want, free):
            for row, c in zip(red, pivots):
                vec[c] = -row[f]
        basis, den = linalg.integer_nullspace(linalg.integer_rows(m)[0])
        assert den == math.lcm(*(x.denominator for row in red for x in row))
        assert [[Fraction(x, den) for x in row] for row in basis.tolist()] == want == nullspace(m)
        assert all(type(x.numerator) is int for row in nullspace(m) for x in row)



def test_integer_rref_leaves_int64_for_the_common_denominator():
    # the pivot rows fit int64 as they are, but their coprime pivots near
    # 2^40 make the common denominator, and the scaled rows, near 2^80
    p, q = 2**40 + 1, 2**40 + 3
    m = [[p, 0, 1], [0, q, 1]]
    e, pivots, den = linalg.integer_rref(m)
    assert (e.tolist(), pivots, den) == ([[p * q, 0, q], [0, p * q, p]], [0, 1], p * q)
    assert linalg.integer_nullspace(m)[0].tolist() == [[-q, -p, p * q]]
    assert rref(m) == fraction_rref(m) and nullspace(m) == [[Fraction(-1, p), Fraction(-1, q), 1]]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_gcd_reduce_rows(dtype):
    a = np.array([[4, -6, 8], [0, 0, 0], [-3, 0, 0], [5, 7, 1], [0, -10, 0]], dtype=dtype)
    if dtype is object:
        a[3] *= 2**70
    got = linalg.gcd_reduce(a)
    assert got.dtype == a.dtype
    assert got.tolist() == [[2, -3, 4], [0, 0, 0], [-1, 0, 0], [5, 7, 1], [0, -1, 0]]
    assert linalg.gcd_reduce(a[2]).tolist() == [-1, 0, 0] and linalg.gcd_reduce(a[2, :1]).tolist() == [-1]


def test_fresh_coordinates_are_pivot_columns():
    rng = np.random.default_rng(3)
    for _ in range(40):
        n, k = int(rng.integers(4, 12)), int(rng.integers(1, 16))
        sup = np.array([rng.choice(n, 4, replace=False) for _ in range(k)])
        fresh = linalg.has_fresh_coordinate(sup, n)
        pivots = support_pivot_columns(sup, n)
        assert set(np.nonzero(fresh)[0].tolist()) <= set(pivots)
        if fresh.all():
            assert pivots == list(range(k))


def test_duplicated_vector_has_no_fresh_coordinate():
    sup = np.array([[0, 5, 9, 12], [1, 5, 8, 13], [2, 6, 10, 14]])
    for i in range(len(sup)):
        twice = np.insert(sup, len(sup), sup[i], axis=0)
        assert linalg.has_fresh_coordinate(twice, 16).tolist() == [True, True, True, False]


def test_independent_vector_without_a_fresh_coordinate_is_left_to_elimination():
    # the last vector touches only coordinates used before, yet all four are independent
    sup = np.array([[0, 1, 2, 3], [4, 5, 6, 7], [0, 1, 4, 8], [2, 3, 5, 8]])
    assert linalg.has_fresh_coordinate(sup, 9).tolist() == [True, True, True, False]
    assert support_pivot_columns(sup, 9) == [0, 1, 2, 3]


def test_no_vectors_have_no_fresh_coordinates():
    assert linalg.has_fresh_coordinate(np.zeros((0, 4), dtype=np.int64), 8).tolist() == []


@pytest.mark.parametrize(
    "kernel, args",
    [
        pytest.param(int_rank, ([[Fraction(1, 2)]],), id="int_rank-fraction"),
        pytest.param(int_rank, ([[0.5, 0.25]],), id="int_rank-float"),
        pytest.param(linalg.pivot_columns, ([[Fraction(1, 3), 1], [Fraction(2, 3), 2]],), id="pivot_columns"),
        pytest.param(linalg.slack_matrix, ([[1]], [Fraction(1, 2)], [[0]]), id="slack_matrix-bound"),
        pytest.param(linalg.slack_matrix, ([[Fraction(2**70 + 1, 2)]], [0], [[1]]), id="slack_matrix-past-int64"),
        pytest.param(dd_extreme_rays, ([[Fraction(1, 2), 0], [0, 1]], 2), id="dd_extreme_rays-fraction"),
        pytest.param(dd_extreme_rays, ([[float("inf"), 0], [0, 1]], 2), id="dd_extreme_rays-infinity"),
    ],
)
def test_integer_kernels_refuse_non_integer_entries(kernel, args):
    # int() would truncate these entries: 1/2 to 0, which gave rank 0 and
    # pivot [1] instead of rank 1 and pivot [0]
    with pytest.raises(ValueError, match="is not an integer"):
        kernel(*args)


def test_integer_kernels_take_every_kind_of_integer():
    # bools, numpy ints, integral Fractions and floats, ints from 2^63 up
    assert int_rank([[True, np.int64(2)], [Fraction(3), 4.0]]) == 2
    assert linalg.pivot_columns([[2**63, 1], [2**64, 2]]) == [0]
    assert int_rank(np.array([[1, 0], [0, 1]], dtype=np.uint8)) == 2
    assert linalg.slack_matrix([[2**63]], [2**64], [[1]]).tolist() == [[2**63]]
