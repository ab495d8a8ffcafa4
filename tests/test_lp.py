import random
from collections import Counter
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

import bellpoly.lp as lp_mod
from bellpoly import linalg
from bellpoly.lp import lp_max
from bellpoly.scenario import Scenario, constraint_matrix
from bellpoly.correlators import chsh_inequality, lift

from oracles import fraction_lp_max, nosignaling_vertices


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
    res = lp_max([1], eq_rows=[], eq_rhs=[], nonneg=True)
    assert res.status == "unbounded"
    res = lp_max([1, 0], ineq_rows=[[0, 1]], ineq_rhs=[1], nonneg=False)
    assert res.status == "unbounded"


def test_free_variables():
    # max -|x| style: x free, minimize via max of -x with x >= 3
    res = lp_max([-1], ineq_rows=[[-1]], ineq_rhs=[-3], nonneg=False)
    assert res.status == "optimal"
    assert res.primal == (Fraction(3),)
    assert res.optimum == -3


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        lp_max([1, 2], eq_rows=[[1]], eq_rhs=[1])
    with pytest.raises(ValueError):
        lp_max([1], eq_rows=[[1]], eq_rhs=[1, 2])


def test_chsh_over_nosignaling_polytope_matches_vertex_oracle():
    # oracle: enumerate all vertices of the d=2 no-signaling polytope by
    # basic-solution search and take the maximum there
    verts = nosignaling_vertices(2)
    assert len(verts) == 24
    chsh = lift(chsh_inequality())
    oracle_max = max(sum(c * x for c, x in zip(chsh.coeffs, v)) for v in verts)
    assert oracle_max == 4
    rows, rhs = constraint_matrix(Scenario(2))
    res = lp_max(chsh.coeffs, eq_rows=rows, eq_rhs=rhs, nonneg=True)
    assert res.status == "optimal"
    assert res.optimum == 4


def _random_lp(rng):
    n = rng.randint(1, 5)
    m_eq = rng.randint(0, 2)
    m_in = rng.randint(0, 3)
    obj = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    eq_rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m_eq)]
    in_rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m_in)]
    # right-hand sides from a random nonnegative point, so feasibility is frequent
    x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
    eq_rhs = [sum(r * x for r, x in zip(row, x0)) for row in eq_rows]
    in_rhs = [sum(r * x for r, x in zip(row, x0)) + rng.randint(0, 2) for row in in_rows]
    return obj, eq_rows, eq_rhs, in_rows, in_rhs


def test_random_optimal_solutions_are_exact():
    rng = random.Random(101)
    optimal_seen = 0
    for _ in range(60):
        obj, eq_rows, eq_rhs, in_rows, in_rhs = _random_lp(rng)
        res = lp_max(obj, eq_rows, eq_rhs, in_rows, in_rhs, nonneg=True)
        if res.status != "optimal":
            continue
        optimal_seen += 1
        x = res.primal
        assert all(v >= 0 for v in x)
        for row, b in zip(eq_rows, eq_rhs):
            assert sum(r * v for r, v in zip(row, x)) == b
        for row, b in zip(in_rows, in_rhs):
            assert sum(r * v for r, v in zip(row, x)) <= b
        assert sum(c * v for c, v in zip(obj, x)) == res.optimum
        # dual exactness: y.b equals the optimum, dual feasibility holds
        y = res.dual
        allrows = eq_rows + in_rows
        allrhs = eq_rhs + in_rhs
        assert sum(yi * bi for yi, bi in zip(y, allrhs)) == res.optimum
        for i in range(len(eq_rows), len(allrows)):
            assert y[i] >= 0
        for j in range(len(obj)):
            assert sum(y[i] * allrows[i][j] for i in range(len(allrows))) >= obj[j]
    assert optimal_seen >= 20


def test_random_infeasible_certificates_verify():
    rng = random.Random(202)
    infeasible_seen = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        row = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        if all(v == 0 for v in row):
            continue
        # the same row forced to two different values is always infeasible
        eq_rows = [row, row, [Fraction(rng.randint(-2, 2)) for _ in range(n)]]
        eq_rhs = [Fraction(1), Fraction(2), Fraction(rng.randint(-2, 2))]
        in_rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]]
        in_rhs = [Fraction(rng.randint(-2, 2))]
        res = lp_max([0] * n, eq_rows, eq_rhs, in_rows, in_rhs, nonneg=False)
        if res.status != "infeasible":
            continue
        infeasible_seen += 1
        y = res.certificate
        allrows = eq_rows + in_rows
        allrhs = eq_rhs + in_rhs
        assert y[len(eq_rows)] >= 0  # inequality-row multiplier
        for j in range(n):  # free columns must cancel exactly
            assert sum(y[i] * allrows[i][j] for i in range(len(allrows))) == 0
        assert sum(y[i] * allrhs[i] for i in range(len(allrows))) < 0
    assert infeasible_seen >= 20


def test_infeasible_certificate_conditions_detailed():
    rng = random.Random(303)
    checked = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(2, 4)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        res = lp_max([0] * n, eq_rows=rows, eq_rhs=rhs, nonneg=True)
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
        obj, eq_rows, eq_rhs, in_rows, in_rhs = _random_lp(rng)
        r1 = lp_max(obj, eq_rows, eq_rhs, in_rows, in_rhs)
        r2 = lp_max(obj, eq_rows, eq_rhs, in_rows, in_rhs)
        assert r1 == r2


def _assert_optimal_pair(res, obj, rows, rhs):
    """Primal feasibility, dual feasibility and c.x = y.b = optimum, all
    nonnegative columns and equality rows only."""
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
    from bellpoly.membership import nosignaling_max

    chsh = lift(chsh_inequality())
    rows, rhs = constraint_matrix(Scenario(2))
    res = lp_max(chsh.coeffs, eq_rows=rows, eq_rhs=rhs, nonneg=True)
    assert res.status == "optimal"
    assert res.optimum == nosignaling_max(chsh_inequality()) == 4
    _assert_optimal_pair(res, chsh.coeffs, rows, rhs)


def _integer_optimal(res, obj, rows, rhs):
    """The arguments of lp._check_optimal for an optimal result of an
    integer problem, whose column scales are 1: the primal, dual and
    optimum as integers over their common denominator."""
    p = lp_mod._integer_lp(obj, rows, rhs, (), (), True)
    assert (set(p.scale), p.bscale, p.cscale) == ({1}, 1, 1)
    den = lcm(*(v.denominator for v in (*res.primal, *res.dual, res.optimum)))
    x, y = ([int(v * den) for v in vec] for vec in (res.primal, res.dual))
    return p, x, y, int(res.optimum * den), den


def test_optimality_check_rejects_a_wrong_dual():
    from bellpoly.lp import _check_optimal

    chsh = lift(chsh_inequality())
    rows, rhs = constraint_matrix(Scenario(2))
    res = lp_max(chsh.coeffs, eq_rows=rows, eq_rhs=rhs, nonneg=True)
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


def test_farkas_check_rejects_a_tampered_certificate():
    # x + u = 1 and u >= 2 with x >= 0 and u free: the certificate is unique
    # up to scale, so zeroing or negating any entry breaks a condition
    args = ([0, 0], [[1, 1]], [1], [[0, -1]], [-2], [0])
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
    """A seeded LP with fractional entries, free variables, negative
    right-hand sides, inequality rows and, often, a redundant equality row;
    right-hand sides through a point with zero coordinates and tight rows
    make degenerate vertices."""
    n = rng.randint(1, 5)
    eq_rows = [[_entry(rng) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    if len(eq_rows) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(eq_rows, 2)
        k = _entry(rng, zero=0)
        eq_rows.append([x + k * y for x, y in zip(a, b)])
    in_rows = [[_entry(rng) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    x0 = [_entry(rng, zero=0.5) for _ in range(n)]
    eq_rhs = [sum(a * x for a, x in zip(row, x0)) for row in eq_rows]
    in_rhs = [
        sum(a * x for a, x in zip(row, x0)) + (0 if rng.random() < 0.5 else abs(_entry(rng)))
        for row in in_rows
    ]
    if eq_rhs and rng.random() < 0.15:
        eq_rhs[rng.randrange(len(eq_rhs))] += 1
    nonneg = rng.choice((True, False, [j for j in range(n) if rng.random() < 0.5]))
    obj = [_entry(rng) for _ in range(n)]
    return (obj, eq_rows, eq_rhs, in_rows, in_rhs), nonneg


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
        args, nonneg = _general_lp(rng)
        res = lp_max(*args, nonneg=nonneg)
        assert res == fraction_lp_max(*args, nonneg=nonneg)
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
        args, nonneg = _general_lp(rng)
        assert lp_max(*args, nonneg=nonneg) == fraction_lp_max(*args, nonneg=nonneg)
    assert any(switches)
