import random
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np
import pytest

import bellpoly.lp as lp_mod
from bellpoly import linalg
from bellpoly.lp import lp_max
from bellpoly.scenario import constraint_matrix
from bellpoly.correlators import lift

from oracles import chsh_inequality, fraction_lp_max, gather_scatter_pivot, nosignaling_vertices


def test_segment():
    res = lp_max([1, 0], eq_rows=[[1, 1]], eq_rhs=[1])
    assert res.status == "optimal"
    assert res.optimum == 1
    assert res.primal == (Fraction(1), Fraction(0))


def test_contradictory_equalities():
    res = lp_max([0], eq_rows=[[1], [1]], eq_rhs=[1, 2])
    assert res.status == "infeasible"
    y = res.certificate
    # the certificate must multiply the system into 0 = negative
    assert y[0] * 1 + y[1] * 1 == 0
    assert y[0] * 1 + y[1] * 2 < 0


def test_unbounded():
    res = lp_max([1], eq_rows=[], eq_rhs=[])
    assert res.status == "unbounded"


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        lp_max([1, 2], eq_rows=[[1]], eq_rhs=[1])
    with pytest.raises(ValueError):
        lp_max([1], eq_rows=[[1]], eq_rhs=[1, 2])


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5])
def test_non_integer_row_entry_is_refused(entry):
    # rows are integer; an entry with a denominator is refused, not truncated
    with pytest.raises(ValueError):
        lp_max([0, 0], eq_rows=[[1, entry]], eq_rhs=[1])
    assert lp_max([0, 0], eq_rows=[[1, Fraction(2)]], eq_rhs=[1]).status == "optimal"


def test_chsh_over_nosignaling_polytope_matches_vertex_oracle():
    # oracle: enumerate all vertices of the d=2 no-signaling polytope by
    # basic-solution search and take the maximum there
    verts = nosignaling_vertices(2)
    assert len(verts) == 24
    chsh = lift(chsh_inequality())
    oracle_max = max(sum(c * x for c, x in zip(chsh.coeffs, v)) for v in verts)
    assert oracle_max == 4
    rows, rhs = constraint_matrix(2)
    res = lp_max(chsh.coeffs, eq_rows=rows, eq_rhs=rhs)
    assert res.status == "optimal"
    assert res.optimum == 4


def _random_lp(rng):
    """Integer rows and a rational objective; right-hand sides through a
    random nonnegative rational point, so feasibility is frequent."""
    n = rng.randint(1, 5)
    obj = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    eq_rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 4))]
    x0 = [Fraction(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(n)]
    eq_rhs = [sum(r * x for r, x in zip(row, x0)) for row in eq_rows]
    return obj, eq_rows, eq_rhs


def test_random_optimal_solutions_are_exact():
    rng = random.Random(101)
    optimal_seen = 0
    for _ in range(60):
        obj, eq_rows, eq_rhs = _random_lp(rng)
        res = lp_max(obj, eq_rows, eq_rhs)
        if res.status != "optimal":
            continue
        optimal_seen += 1
        x = res.primal
        assert all(v >= 0 for v in x)
        for row, b in zip(eq_rows, eq_rhs):
            assert sum(r * v for r, v in zip(row, x)) == b
        assert sum(c * v for c, v in zip(obj, x)) == res.optimum
        # dual exactness: y.b equals the optimum, dual feasibility holds
        y = res.dual
        assert sum(yi * bi for yi, bi in zip(y, eq_rhs)) == res.optimum
        for j in range(len(obj)):
            assert sum(yi * row[j] for yi, row in zip(y, eq_rows)) >= obj[j]
    assert optimal_seen >= 20


def test_random_infeasible_certificates_verify():
    rng = random.Random(202)
    infeasible_seen = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        row = [rng.randint(-3, 3) for _ in range(n)]
        if all(v == 0 for v in row):
            continue
        # the same row forced to two different values is always infeasible
        eq_rows = [row, row, [rng.randint(-2, 2) for _ in range(n)]]
        eq_rhs = [Fraction(1, 2), Fraction(2), Fraction(rng.randint(-2, 2), rng.randint(1, 3))]
        res = lp_max([0] * n, eq_rows, eq_rhs)
        if res.status != "infeasible":
            continue
        infeasible_seen += 1
        y = res.certificate
        for j in range(n):  # y A >= 0 on every column, all of them nonnegative
            assert sum(yi * r[j] for yi, r in zip(y, eq_rows)) >= 0
        assert sum(yi * b for yi, b in zip(y, eq_rhs)) < 0
    assert infeasible_seen >= 20


def test_infeasible_certificate_conditions_detailed():
    rng = random.Random(303)
    checked = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(2, 4)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        res = lp_max([0] * n, eq_rows=rows, eq_rhs=rhs)
        if res.status != "infeasible":
            continue
        checked += 1
        y = res.certificate
        for j in range(n):
            comb = sum(y[i] * rows[i][j] for i in range(m))
            assert comb >= 0
        assert sum(y[i] * rhs[i] for i in range(m)) < 0
    assert checked >= 5


def test_determinism():
    rng = random.Random(404)
    for _ in range(10):
        args = _random_lp(rng)
        assert lp_max(*args) == lp_max(*args)


def _assert_optimal_pair(res, obj, rows, rhs):
    """Primal feasibility, dual feasibility and c.x = y.b = optimum."""
    x, y = res.primal, res.dual
    assert len(y) == len(rows)
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(a * v for a, v in zip(row, x)) == b
    for j, c in enumerate(obj):
        assert sum(yi * row[j] for yi, row in zip(y, rows)) >= c
    assert sum(c * v for c, v in zip(obj, x)) == res.optimum
    assert sum(yi * b for yi, b in zip(y, rhs)) == res.optimum


def test_nosignaling_dual_keeps_redundant_rows():
    # 4 + 4d no-signaling rows have rank 4d, so phase 2 drops redundant
    # rows; their duals must still come back, or y.b misses the optimum
    from bellpoly.facets import nosignaling_max

    chsh = lift(chsh_inequality())
    rows, rhs = constraint_matrix(2)
    res = lp_max(chsh.coeffs, eq_rows=rows, eq_rhs=rhs)
    assert res.status == "optimal"
    assert res.optimum == nosignaling_max(chsh_inequality()) == 4
    _assert_optimal_pair(res, chsh.coeffs, rows, rhs)


def _integer_optimal(res, obj, rows, rhs):
    """The arguments of lp._check_optimal for an optimal result of a
    problem with integer b and c: the primal, dual and optimum as integers
    over their common denominator."""
    p = lp_mod._integer_lp(obj, rows, rhs)
    assert (p.bscale, p.cscale) == (1, 1)
    den = lcm(*(v.denominator for v in (*res.primal, *res.dual, res.optimum)))
    x, y = ([int(v * den) for v in vec] for vec in (res.primal, res.dual))
    return p, x, y, int(res.optimum * den), den


def test_optimality_check_rejects_a_wrong_dual():
    from bellpoly.lp import _check_optimal

    chsh = lift(chsh_inequality())
    rows, rhs = constraint_matrix(2)
    res = lp_max(chsh.coeffs, eq_rows=rows, eq_rhs=rhs)
    p, x, y, opt, den = _integer_optimal(res, chsh.coeffs, rows, rhs)
    args = (p, x, y, opt, den)
    _check_optimal(*args)
    zeroed = [0] + y[1:]
    with pytest.raises(AssertionError):
        _check_optimal(p, x, zeroed, *args[3:])
    with pytest.raises(AssertionError):
        _check_optimal(p, x, y, opt + den, den)
    # c = (1, -1, ...): this primal keeps c.x and its signs, and breaks a row
    with pytest.raises(AssertionError):
        _check_optimal(p, [x[0] + den, x[1] + den, *x[2:]], y, opt, den)
    # a null direction v of the rows with c.v = 0 keeps every row and c.x;
    # far enough along it the primal turns negative
    u, w = linalg.integer_nullspace(rows)[0].tolist()[:2]
    v = [sum(map(mul, p.c, w)) * a - sum(map(mul, p.c, u)) * b for a, b in zip(u, w)]
    sign = 1 if min(v) < 0 else -1
    with pytest.raises(AssertionError, match="negative"):
        _check_optimal(p, [a + sign * (sum(x) + 1) * b for a, b in zip(x, v)], y, opt, den)


def test_farkas_check_rejects_a_tampered_certificate():
    # x1 = 1, x2 = 1 and x1 + x2 = 1 with x >= 0: every certificate has
    # y1, y2 < 0 < y3, so zeroing or negating any entry breaks a condition
    args = ([0, 0], [[1, 0], [0, 1], [1, 1]], [1, 1, 1])
    res = lp_max(*args)
    assert res.status == "infeasible"
    p = lp_mod._integer_lp(*args)
    den = lcm(*(v.denominator for v in res.certificate))
    y = [int(v * den) for v in res.certificate]
    assert all(y)
    lp_mod._check_farkas(p, y)
    for i, v in enumerate(y):
        for tampered in (0, -v):
            with pytest.raises(AssertionError):
                lp_mod._check_farkas(p, [*y[:i], tampered, *y[i + 1 :]])


def _entry(rng, zero=0.4):
    """Zero with probability `zero`, else a small fraction (possibly 0)."""
    if rng.random() < zero:
        return Fraction(0)
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))


def _general_lp(rng):
    """A seeded LP with integer rows, fractional right-hand sides and
    objective, negative right-hand sides and, often, a redundant row;
    right-hand sides through a nonnegative point with zero coordinates make
    degenerate vertices, and a shifted one often makes the LP infeasible."""
    n = rng.randint(1, 5)
    eq_rows = [
        [0 if rng.random() < 0.4 else rng.randint(-6, 6) for _ in range(n)]
        for _ in range(rng.randint(0, 4))
    ]
    if len(eq_rows) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(eq_rows, 2)
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        eq_rows.append([x + k * y for x, y in zip(a, b)])
    x0 = [abs(_entry(rng, zero=0.5)) for _ in range(n)]
    eq_rhs = [sum(a * x for a, x in zip(row, x0)) for row in eq_rows]
    if eq_rhs and rng.random() < 0.25:
        eq_rhs[rng.randrange(len(eq_rhs))] += _entry(rng, zero=0)
    obj = [_entry(rng) for _ in range(n)]
    return obj, eq_rows, eq_rhs


@pytest.fixture
def negative_pivots(monkeypatch):
    """Rows of every pivot made on a negative entry, which only the
    eviction of an artificial at level 0 can ask for."""
    seen = []
    pivot = lp_mod._pivot

    def counting(T, basis, den, pr, pc):
        if T[pr, pc] < 0:
            seen.append(pr)
        return pivot(T, basis, den, pr, pc)

    monkeypatch.setattr(lp_mod, "_pivot", counting)
    return seen


def test_integer_simplex_matches_fraction_simplex(negative_pivots):
    rng = random.Random(505)
    statuses = Counter()
    for _ in range(400):
        args = _general_lp(rng)
        res = lp_max(*args)
        assert res == fraction_lp_max(*args)
        statuses[res.status] += 1
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) >= 20
    assert negative_pivots


def test_eviction_pivots_on_a_negative_entry(negative_pivots):
    # phase 1 ends with the artificial of -x1 = 0 basic at level 0, and the
    # only structural entry of its row is negative
    args = ([0, 1], [[-1, 0], [0, -2]], [0, -1])
    res = lp_max(*args)
    assert negative_pivots == [0]
    assert res == fraction_lp_max(*args)
    assert (res.optimum, res.primal, res.dual) == (
        Fraction(1, 2), (0, Fraction(1, 2)), (0, Fraction(-1, 2))
    )


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_pivot_matches_gather_scatter_update(dtype):
    # chains of pivots on seeded tableaux, each compared with the row
    # gather/scatter update it replaced: same rows, basis and den, from den
    # 1 and from the den of the previous pivot, on positive and negative
    # pivot entries
    rng = random.Random(f"pivots {np.dtype(dtype)}")
    scale = 2**70 if dtype is object else 1
    seen = Counter()
    for _ in range(40):
        m, ncols = rng.randint(1, 5), rng.randint(2, 8)
        rows = [[rng.randint(-9, 9) * scale for _ in range(ncols)] for _ in range(m + 2)]
        T, basis, den = np.array(rows, dtype=dtype), list(range(m)), 1
        for _ in range(rng.randint(1, 6)):
            pr = rng.randrange(m)
            nz = [j for j in range(ncols - 1) if T[pr, j]]
            if not nz:
                break
            pc = rng.choice(nz)
            seen["den > 1" if den > 1 else "den 1"] += 1
            seen["negative" if T[pr, pc] < 0 else "positive"] += 1
            want, want_basis, want_den = gather_scatter_pivot(T, basis, den, pr, pc)
            T, den = lp_mod._pivot(T, basis, den, pr, pc)
            assert T.dtype == dtype
            assert (T.tolist(), basis, den) == (want, want_basis, want_den)
    assert min(seen[k] for k in ("den 1", "den > 1", "negative", "positive")) >= 10


@pytest.mark.parametrize("limit", [2**12, 2**20])
def test_tableau_leaves_int64_mid_simplex(monkeypatch, limit):
    # with the guard lowered, pivots switch int64 tableaus to Python ints
    # partway through the simplex, and the results stay exact
    monkeypatch.setattr(linalg, "OVERFLOW_LIMIT", limit)
    switches = []
    pivot = lp_mod._pivot

    def watching(T, basis, den, pr, pc):
        out = pivot(T, basis, den, pr, pc)
        switches.append(T.dtype == np.int64 and out[0].dtype == object)
        return out

    monkeypatch.setattr(lp_mod, "_pivot", watching)
    rng = random.Random(606)
    for _ in range(150):
        args = _general_lp(rng)
        assert lp_max(*args) == fraction_lp_max(*args)
    assert any(switches)
