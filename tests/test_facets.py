import importlib.resources as resources
import itertools
import json
import operator
import random
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bellpoly import facets as facets_module
from bellpoly import linalg
from bellpoly.cglmp import cglmp_inequality
from bellpoly.correlators import (
    cglmp_corr_inequality,
    corr_affine_dim,
    corr_index,
    lift,
    projected_generator_matrix,
    projected_generators,
)
from bellpoly.facets import (
    canonicalize,
    classify_trivial,
    dd_extreme_rays,
    enumerate_facets,
    nosignaling_max,
    saturation_count,
    space_vertices,
    vrep_of,
)
from bellpoly.lp import lp_max
from bellpoly.scenario import (
    Inequality,
    all_generators,
    constraint_rank,
    generator_matrix,
    inequality_from_json,
    polytope_affine_dim,
)
from bellpoly.symmetry import gauge, gauge_rows, standard_equations

from oracles import (
    chsh_inequality,
    fraction_canonicalize,
    fraction_equations,
    fraction_rref,
    loop_dd_extreme_rays,
    square_subset_facets,
)


def _fr(*xs):
    return tuple(Fraction(x) for x in xs)


def test_unit_square():
    vrep = vrep_of(_fr(x, y) for x in (0, 1) for y in (0, 1))
    hrep = enumerate_facets(vrep)
    assert len(hrep.facets) == 4
    assert hrep.reduced_dim == 2
    assert hrep.complete
    kinds = {(q.coeffs, q.bound) for q in hrep.facets}
    assert (_fr(1, 0), Fraction(1)) in kinds
    assert (_fr(-1, 0), Fraction(0)) in kinds


def test_segment_and_point():
    seg = enumerate_facets(vrep_of([_fr(0, 0, 0), _fr(2, 2, 0)]))
    assert seg.reduced_dim == 1
    assert len(seg.facets) == 2
    point = enumerate_facets(vrep_of([_fr(1, 1)]))
    assert point.reduced_dim == 0
    assert point.facets == ()


def test_canonicalize_spec_example():
    q = Inequality("vector", 2, (Fraction(2, 3), Fraction(4, 3)), Fraction(2))
    c = canonicalize(q)
    assert c.coeffs == (Fraction(1), Fraction(2))
    assert c.bound == Fraction(3)


def test_canonicalize_idempotent_random():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(1, 6)
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n)]
        if not any(coeffs):
            coeffs[0] = Fraction(1, 3)
        q = Inequality("vector", n, tuple(coeffs), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        once = canonicalize(q)
        assert canonicalize(once) == once


def test_canonicalize_zero_raises():
    q = Inequality("vector", 2, (Fraction(0), Fraction(0)), Fraction(1))
    with pytest.raises(ValueError):
        canonicalize(q)


def test_canonicalize_with_equations_gauge():
    # two forms of the same functional on the hull must meet in one gauge
    q1 = chsh_inequality()
    shift = list(q1.coeffs)
    # add the block-sum equation of block a1b1 (which equals 1 on the hull)
    shift[corr_index(2, 1, 1, 0)] += Fraction(3)
    shift[corr_index(2, 1, 1, 1)] += Fraction(3)
    q2 = Inequality("correlator", 2, tuple(shift), q1.bound + 3)
    assert gauge_rows([q1]).tolist() == gauge_rows([q2]).tolist()


def _gauged(q, equations):
    """q's integer row reduced modulo an equation system and divided by its
    gcd, as an Inequality: the key of gauge_rows for a standard space, one
    gauge product by hand for any other system."""
    if q.space in ("correlator", "behavior"):
        row = gauge_rows([q])[0]
    else:
        row = gauge(linalg.integer_rows([(*q.coeffs, q.bound)])[0][0], equations)
        if not row[:-1].any():
            raise ValueError("zero coefficient vector")
        row = linalg.gcd_reduce(row)
    *coeffs, bound = row.tolist()
    return Inequality(q.space, q.d, tuple(coeffs), bound)


def _outcome(canon, *args):
    """The canonical form, or the ValueError that refuses it."""
    try:
        return canon(*args)
    except ValueError:
        return ValueError


@pytest.mark.parametrize(
    "space, d, n",
    [("vector", 5, 5), ("correlator", 2, 8), ("correlator", 3, 12), ("behavior", 2, 16), ("behavior", 3, 36)],
)
def test_canonicalize_matches_fraction_oracle(space, d, n):
    rng = random.Random(f"canonical{space}{d}")
    if space == "vector":
        # a rational system in the same form, over a common denominator past 1
        rows, pivots = fraction_rref([[Fraction(rng.randint(-9, 9), rng.randint(2, 6)) for _ in range(n + 1)]
                                      for _ in range(2)])
        eqs = linalg.integer_rows(rows)[0]
        assert eqs[0, pivots[0]] > 1
        gauged = (eqs, tuple(pivots)), (rows, pivots)
    else:
        gauged = standard_equations(space, d), fraction_equations(space, d)
    for i in range(40):
        # 2^70-scaled numerators, and int64 entries whose reduction leaves int64
        scale, den = (2**70, 6) if i % 5 == 0 else (2**58, 1) if i % 5 == 1 else (1, 6)
        coeffs = [Fraction(scale * rng.randint(-9, 9), rng.randint(1, den)) for _ in range(n)]
        if i == 2:
            coeffs = [Fraction(0)] * n
        q = Inequality(space, d, tuple(coeffs), Fraction(scale * rng.randint(-9, 9), rng.randint(1, den)))
        assert _outcome(canonicalize, q) == _outcome(fraction_canonicalize, q)
        assert _outcome(_gauged, q, gauged[0]) == _outcome(fraction_canonicalize, q, gauged[1])


@pytest.mark.parametrize(
    "space, d", [("correlator", 2), ("correlator", 5), ("correlator", 8), ("behavior", 2), ("behavior", 3), ("behavior", 4)]
)
def test_standard_equations_are_the_rref_over_one_denominator(space, d):
    eqs, pivots = standard_equations(space, d)
    rows, fraction_pivots = fraction_equations(space, d)
    den = int(eqs[0, pivots[0]])
    assert pivots == fraction_pivots and not eqs.flags.writeable
    assert eqs[:, list(pivots)].tolist() == (den * np.eye(len(pivots), dtype=int)).tolist()
    assert [[Fraction(x, den) for x in row] for row in eqs.tolist()] == [list(row) for row in rows]
    assert standard_equations(space, d) is standard_equations(space, d)


def test_d2_corr_enumeration_matches_subset_oracle():
    gens = projected_generators(2)
    t0 = time.monotonic()
    hrep = enumerate_facets(vrep_of(gens), space="correlator", d=2)
    assert time.monotonic() - t0 < 1.0
    assert hrep.complete
    assert len(hrep.facets) == 16
    assert hrep.reduced_dim == 4

    # oracle works in its own reduction: block sums are 1, so the n=1
    # coordinate of each block parametrizes the polytope
    free = [corr_index(2, a, b, 1) for a, b in ((1, 1), (1, 2), (2, 1), (2, 2))]
    verts_red = [tuple(g.coords[j] for j in free) for g in gens]
    oracle = square_subset_facets(verts_red, 4)
    assert len(oracle) == 16
    dd_reduced = {
        (tuple(int(q.coeffs[j]) for j in free), int(q.bound)) for q in hrep.facets
    }
    assert dd_reduced == oracle


def test_every_d2_facet_is_a_facet():
    gens = projected_generators(2)
    hrep = enumerate_facets(vrep_of(gens), space="correlator", d=2)
    for q in hrep.facets:
        count, rk = saturation_count(q, gens)
        assert rk == hrep.reduced_dim


def test_classify_trivial_examples():
    # P(A1 - B1 = 1) >= 0  as an upper-bound inequality
    coeffs = [Fraction(0)] * 8
    coeffs[corr_index(2, 1, 1, 1)] = Fraction(-1)
    nonneg = Inequality("correlator", 2, tuple(coeffs), Fraction(0))
    assert classify_trivial(nonneg) is True
    assert classify_trivial(chsh_inequality()) is False
    assert classify_trivial(cglmp_corr_inequality(3)) is False
    assert nosignaling_max(chsh_inequality()) == 4


def _closed_form_cases(name):
    if name == "cglmp":
        return [cglmp_corr_inequality(d) for d in range(2, 6)]
    if name == "d4":
        text = (Path(__file__).parents[1] / "perfbench/data/corr_facets_d4.json").read_text()
    else:
        text = resources.files("bellpoly").joinpath(f"golden/corr_facets_{name}.json").read_text()
    data = json.loads(text)
    return [inequality_from_json({"space": "correlator", "d": data["d"], **f}) for f in data["facets"]]


@pytest.mark.parametrize("name", ["d2", "d3", "cglmp", pytest.param("d4", marks=pytest.mark.slow)])
def test_correlator_closed_form_matches_lifted_lp(name):
    # the block-maximum closed form against the behavior-space LP of the lift
    for q in _closed_form_cases(name):
        assert nosignaling_max(q) == nosignaling_max(lift(q))


def test_saturation_counts():
    gens2 = projected_generators(2)
    count, rk = saturation_count(chsh_inequality(), gens2)
    assert (count, rk) == (4, 4)

    gens3 = all_generators(3)
    count, rk = saturation_count(cglmp_inequality(3), gens3)
    assert count == 30
    assert rk == 24

    square = [_fr(x, y) for x in (0, 1) for y in (0, 1)]
    q = Inequality("vector", 2, _fr(1, 0), Fraction(1))
    assert saturation_count(q, square) == (2, 2)


def test_saturation_count_rejects_bad_inequalities():
    square = [_fr(x, y) for x in (0, 1) for y in (0, 1)]
    violated = Inequality("vector", 2, _fr(1, 0), Fraction(1, 2))
    with pytest.raises(ValueError):
        saturation_count(violated, square)
    aloof = Inequality("vector", 2, _fr(1, 0), Fraction(5))
    with pytest.raises(ValueError):
        saturation_count(aloof, square)


def test_hrep_vrep_round_trip_membership():
    # a point satisfies every facet iff the convex-combination LP is feasible
    rng = random.Random(83)
    gens = projected_generators(2)
    hrep = enumerate_facets(vrep_of(gens), space="correlator", d=2)
    cols = [g.coords for g in gens]
    for _ in range(20):
        w = [Fraction(rng.randint(0, 4)) for _ in gens]
        total = sum(w)
        point = [sum(wi * col[i] for wi, col in zip(w, cols)) for i in range(8)]
        if total:
            point = [x / total for x in point]
        else:
            point = [Fraction(rng.randint(-2, 2), 3) for _ in range(8)]
            # force block sums to 1 so the point lies in the affine hull
            for blk in range(4):
                s = sum(point[blk * 2 : blk * 2 + 2])
                point[blk * 2] += 1 - s
        inside_h = all(
            sum(c * x for c, x in zip(q.coeffs, point)) <= q.bound for q in hrep.facets
        )
        eq_rows = [[col[i] for col in cols] for i in range(8)]
        eq_rows.append([Fraction(1)] * len(cols))
        res = lp_max([Fraction(0)] * len(cols), eq_rows=eq_rows, eq_rhs=point + [Fraction(1)])
        assert inside_h == (res.status == "optimal")


def test_budget_exhaustion_returns_verified_subset():
    gens = projected_generators(3)
    hrep = enumerate_facets(
        vrep_of(gens), space="correlator", d=3, deadline=time.monotonic() - 1
    )
    assert not hrep.complete
    full = enumerate_facets(vrep_of(gens), space="correlator", d=3)
    assert set(hrep.facets) <= set(full.facets)


def _with_extra_ray(monkeypatch, complete):
    """Make DD report one more ray: the reverse of its first one, which
    every vertex off that facet violates."""
    real = facets_module.dd_extreme_rays

    def dd(*args, **kwargs):
        rays, _ = real(*args, **kwargs)
        return np.vstack([rays, -rays[:1]]), complete

    monkeypatch.setattr(facets_module, "dd_extreme_rays", dd)


def test_invalid_ray_fails_a_complete_run(monkeypatch):
    _with_extra_ray(monkeypatch, complete=True)
    with pytest.raises(AssertionError, match="violated by an input vertex"):
        enumerate_facets(vrep_of(projected_generators(2)), space="correlator", d=2)


def test_invalid_ray_is_dropped_from_a_partial_run(monkeypatch):
    gens = projected_generators(2)
    full = enumerate_facets(vrep_of(gens), space="correlator", d=2)
    _with_extra_ray(monkeypatch, complete=False)
    partial = enumerate_facets(vrep_of(gens), space="correlator", d=2)
    assert not partial.complete
    assert partial.facets == full.facets


def test_mid_run_expiry_returns_facets_only(monkeypatch):
    # a clock that ticks once per deadline check: deadline k expires at the
    # k-th check, so every stage of the run is cut once
    gens = projected_generators(3)
    full = set(enumerate_facets(vrep_of(gens), space="correlator", d=3).facets)
    sizes = []
    for k in range(len(gens)):
        ticks = itertools.count()
        monkeypatch.setattr(facets_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
        hrep = enumerate_facets(vrep_of(gens), space="correlator", d=3, deadline=k)
        assert set(hrep.facets) <= full
        if not hrep.complete:
            sizes.append(len(hrep.facets))
    assert any(0 < n < len(full) for n in sizes)


def test_deadline_is_checked_between_pair_blocks(monkeypatch):
    # one positive ray per block of pairs: the clock is read inside
    # insertions too, and an expiry there still returns only facets
    gens = projected_generators(3)
    full = set(enumerate_facets(vrep_of(gens), space="correlator", d=3).facets)
    monkeypatch.setattr(facets_module, "_PAIR_BLOCK", 1)
    ticks = itertools.count()
    monkeypatch.setattr(facets_module, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    assert set(enumerate_facets(vrep_of(gens), space="correlator", d=3, deadline=10**9).facets) == full
    checks = next(ticks)
    insertions = len(gens) - 9  # the first 9 independent vertices make the initial cone
    assert checks > 2 * insertions
    for k in range(insertions, checks - 1, 5):
        ticks = itertools.count()
        hrep = enumerate_facets(vrep_of(gens), space="correlator", d=3, deadline=k)
        assert not hrep.complete and set(hrep.facets) <= full


def test_dd_rejects_nonspanning_input():
    with pytest.raises(ValueError):
        dd_extreme_rays([[1, 0, 0]], 3)


def test_vrep_inputs_give_one_hrep():
    # CorrVectors, their Fraction coordinate tuples and the integer matrix
    # of the same points; and the points over a denominator, scaled back
    gens = projected_generators(3)
    mat = projected_generator_matrix(3)
    hreps = [
        enumerate_facets(vrep, space="correlator", d=3)
        for vrep in (vrep_of(gens), vrep_of(g.coords for g in gens), vrep_of(mat), vrep_of(mat.tolist()))
    ]
    assert all(h == hreps[0] for h in hreps) and len(hreps[0].facets) == 66
    halves = vrep_of(tuple(x / 2 for x in g.coords) for g in gens)
    assert halves.den == 2 and halves.matrix.tolist() == mat.tolist()


@pytest.mark.parametrize(
    "vertices, message",
    [
        ((_fr(1, 2), _fr(3)), "vertex length does not match ambient dimension"),
        ((_fr(1, 2, 3), _fr(4, 5)), "vertex length does not match ambient dimension"),
        (([1, 2], [3, 4], [5, 6, 7]), "vertex length does not match ambient dimension"),
        (np.zeros(2, dtype=np.int64), "vertex length does not match ambient dimension"),
        ((), "a vertex representation needs at least one vertex"),
        (np.zeros((0, 2), dtype=np.int64), "a vertex representation needs at least one vertex"),
        (([float("nan"), 0], [1, 0]), "cannot convert NaN to integer ratio"),
        (([float("inf"), 0], [1, 0]), "inf is not a finite number"),
        ((["a", 0], [1, 0]), "Invalid literal for Fraction: 'a'"),
    ],
)
def test_vrep_refuses_ragged_wrong_width_and_empty_vertices(vertices, message):
    # the first vertex fixes the ambient dimension: a later vertex of
    # another width is refused, as are a 1-D array and no vertex at all;
    # a bad entry in rows of one width is refused for what it is
    with pytest.raises(ValueError, match=message):
        vrep_of(vertices)


def test_vrep_of_refuses_ragged_vertices():
    with pytest.raises(ValueError, match="vertex length does not match ambient dimension"):
        vrep_of([_fr(1, 2), _fr(3, 4, 5)])


@pytest.mark.parametrize(
    "vertices, dtype",
    [
        (projected_generator_matrix(2), np.int64),
        (generator_matrix(2), np.int64),
        ([(Fraction(1, 2**70), 0), (0, Fraction(1, 2**70)), (0, 0)], object),
    ],
    ids=["corr-2", "behavior-2", "den-2^70"],
)
def test_affine_hull_stack_stays_in_the_vertex_dtype(monkeypatch, vertices, dtype):
    # [den v | den] reaches integer_nullspace as int64 for 0/1 vertices and
    # as Python ints only when den is past the overflow guard
    seen = []
    real = linalg.integer_nullspace

    def spy(rows):
        seen.append(rows)
        return real(rows)

    monkeypatch.setattr(linalg, "integer_nullspace", spy)
    vrep = vrep_of(vertices)
    enumerate_facets(vrep)
    (rows,) = seen
    assert rows.dtype == dtype and rows[:, -1].tolist() == [vrep.den] * len(rows)


@pytest.mark.parametrize(
    "vertices, facets",
    [
        ([(Fraction(1, 2**70), 0), (0, Fraction(1, 2**70)), (0, 0)],
         [((-1, 0), 0), ((0, -1), 0), ((2**70, 2**70), 1)]),
        ([(2**70, 0), (0, 2**70), (0, 0)], [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2**70)]),
    ],
    ids=["den-2^70", "entries-2^70"],
)
def test_facets_of_vertices_past_the_overflow_guard(vertices, facets):
    hrep = enumerate_facets(vrep_of(vertices))
    assert hrep.complete and hrep.reduced_dim == 2 and hrep.equations == ()
    assert [(q.coeffs, q.bound) for q in hrep.facets] == facets
    assert all(type(x) is int for q in hrep.facets for x in (*q.coeffs, q.bound))


def test_facet_pipeline_runs_without_fraction_elimination(monkeypatch):
    # the affine hull, the standard equations, the constraint rank and the
    # affine dimensions stay in the integers: the Fraction views never run
    def refuse(*args, **kwargs):
        raise AssertionError("Fraction elimination called")

    want = {(space, d): standard_equations(space, d) for space, d in [("correlator", 3), ("behavior", 3)]}
    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(linalg, "nullspace", refuse)
    for (space, d), (eqs, pivots) in want.items():
        got, got_pivots = standard_equations.__wrapped__(space, d)
        assert got_pivots == pivots and got.tolist() == eqs.tolist()
    assert len(enumerate_facets(vrep_of(projected_generators(3)), space="correlator", d=3).facets) == 66
    square = tuple((Fraction(x, 3), Fraction(y, 5), Fraction(x + y, 7)) for x in (0, 1) for y in (0, 1))
    hrep = enumerate_facets(vrep_of(square))
    assert hrep.reduced_dim == 2 and len(hrep.equations) == 1 and len(hrep.facets) == 4
    assert [constraint_rank.__wrapped__(d) for d in (2, 3, 5)] == [8, 12, 20]
    assert [corr_affine_dim(d) for d in (2, 3, 4)] == [4, 8, 12]
    assert linalg.affine_dim(generator_matrix(3)) == polytope_affine_dim(3) == 24
    assert linalg.affine_dim(square) == 2


@pytest.mark.parametrize("name", ["corr-2", "corr-3", "square/3"])
def test_facets_are_fixed_points_of_canonicalize(name):
    # enumerate_facets emits the gcd-reduced rays as they are; corr d=2/3
    # are the golden catalogs
    if name == "square/3":
        square = ((Fraction(x, 3) + Fraction(1, 2), Fraction(y, 3)) for x in (0, 1) for y in (0, 1))
        hrep = enumerate_facets(vrep_of(square))
    else:
        d = int(name[-1])
        hrep = enumerate_facets(vrep_of(projected_generators(d)), space="correlator", d=d)
    assert hrep.facets
    for q in hrep.facets:
        assert canonicalize(q) == q
    assert list(hrep.facets) == sorted(hrep.facets, key=lambda q: (q.coeffs, q.bound))


@pytest.mark.parametrize(
    "space, d, count",
    [
        ("correlator", 2, 16),
        ("correlator", 3, 66),
        ("correlator", 4, 216),
        ("behavior", 2, 24),
        pytest.param("correlator", 5, 1020, marks=pytest.mark.slow),
        pytest.param("behavior", 3, 1116, marks=pytest.mark.slow),
    ],
)
def test_dd_facets_are_in_the_standard_gauge(space, d, count):
    # DD's free-coordinate gauge is the one gauge_rows fixes with the
    # standard equations, so a facet found another way is re-expressed in
    # it by its key alone
    hrep = enumerate_facets(vrep_of(space_vertices(space, d)), space=space, d=d)
    assert len(hrep.facets) == count
    assert gauge_rows(hrep.facets).tolist() == [[*q.coeffs, q.bound] for q in hrep.facets]


def test_zero_coefficient_ray_is_refused(monkeypatch):
    # (0, ..., 0, -1) reads 0.x <= 1: valid everywhere, but no facet
    real = facets_module.dd_extreme_rays

    def dd(*args, **kwargs):
        rays, complete = real(*args, **kwargs)
        zero = np.zeros((1, rays.shape[1]), dtype=rays.dtype)
        zero[0, -1] = -1
        return np.vstack([rays, zero]), complete

    monkeypatch.setattr(facets_module, "dd_extreme_rays", dd)
    with pytest.raises(ValueError, match="zero coefficient vector"):
        enumerate_facets(vrep_of(projected_generators(2)), space="correlator", d=2)


_TILTED_SQUARE = tuple(
    (Fraction(x, 3) + Fraction(1, 2), Fraction(y, 3), Fraction(x, 5) + Fraction(y, 7))
    for x in (0, 1)
    for y in (0, 1)
)


def test_rational_square_on_a_tilted_plane():
    # vertices over the common denominator 210 with one affine-hull equation:
    # the equation -2x - 10/7 y + 10/3 z = -1, as integers over 21, and the
    # gauge-fixed facets the Fraction elimination gave
    hrep = enumerate_facets(vrep_of(_TILTED_SQUARE))
    assert hrep.reduced_dim == 2
    assert hrep.equations == ((-42, -30, 70, -21),) and hrep.equations_den == 21
    assert [(q.coeffs, q.bound) for q in hrep.facets] == [
        (_fr(0, -15, 35), Fraction(7)),
        (_fr(0, -1, 0), Fraction(0)),
        (_fr(0, 3, -7), Fraction(0)),
        (_fr(0, 3, 0), Fraction(1)),
    ]


@pytest.mark.parametrize(
    "vertices",
    [
        _TILTED_SQUARE,
        tuple(tuple(x / 2**70 for x in v) for v in _TILTED_SQUARE),
        generator_matrix(2).tolist(),
        projected_generator_matrix(3).tolist(),
    ],
    ids=["square", "square/2^70", "behavior-2", "corr-3"],
)
def test_hull_equations_are_integer_rows_over_one_denominator(vertices):
    # each row (w..., c) over equations_den is a basis vector of the Fraction
    # nullspace of the rows [v | 1], its last entry negated, and w.v = c on
    # every vertex; the rows stay tuples of Python ints, so HRep hashes
    vrep = vrep_of(vertices)
    hrep = enumerate_facets(vrep)
    den = hrep.equations_den
    assert hrep.equations and type(den) is int and den > 0
    assert all(type(x) is int for row in hrep.equations for x in row)
    want = [(*w, -c) for *w, c in linalg.nullspace([(*v, 1) for v in vertices])]
    assert [tuple(Fraction(x, den) for x in row) for row in hrep.equations] == want
    for *w, c in hrep.equations:
        assert all(sum(map(operator.mul, w, row)) == c * vrep.den for row in vrep.matrix.tolist())
    hash(hrep)


def _ray_set(rays):
    """The rows of DD's ray array as a set of tuples of Python ints."""
    return set(map(tuple, rays.tolist()))


def _dd_input(vectors):
    """The constraints and dimension that enumerate_facets hands to DD."""
    seen = []
    real = facets_module.dd_extreme_rays

    def record(rows, dim, **kwargs):
        seen.append((rows, dim))
        return real(rows, dim, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(facets_module, "dd_extreme_rays", record)
        enumerate_facets(vrep_of(vectors))
    return seen[0]


def _random_points(dim, lo, hi):
    rng = random.Random(f"{dim}:{lo}:{hi}")
    return [tuple(rng.randint(lo, hi) for _ in range(dim)) for _ in range(3 * dim)]


def _dd_case(name):
    kind, _, arg = name.partition("-")
    if kind == "corr":
        return projected_generators(int(arg))
    if kind == "behavior":
        return all_generators(int(arg))
    if kind == "random":
        return _random_points(int(arg), -2, 2)
    # the cyclic 3-polytope: n points on the moment curve, 2n - 4 facets
    return [(t, t * t, t**3) for t in range(int(arg))]


@pytest.mark.parametrize(
    "name",
    ["corr-2", "corr-3", "behavior-2", "random-3", "random-4", "random-5", "random-6", "cyclic-130",
     pytest.param("corr-4", marks=pytest.mark.slow)],
)
def test_dd_matches_loop_oracle(name):
    # cyclic-130 has 130 constraints, so its zero sets take three words
    rows, dim = _dd_input(_dd_case(name))
    rays, complete = dd_extreme_rays(rows, dim)
    assert complete
    assert len(_ray_set(rays)) == len(rays)
    assert _ray_set(rays) == set(loop_dd_extreme_rays(rows, dim))
    if name == "cyclic-130":
        assert len(rays) == 2 * 130 - 4


@pytest.mark.parametrize("limit,scale", [(2**12, 1), (2**20, 2**8)])
def test_dd_leaves_int64_mid_run(monkeypatch, limit, scale):
    # 17 distinct points of {-1, 0, 1}^6: the first new rays are made in
    # int64, later insertions trip the guard and the ray array becomes
    # Python ints; scaling every constraint leaves the cone as it is
    rows = [[scale * x for x in p] + [scale] for p in sorted(set(_random_points(6, -1, 1)))]
    expected = set(loop_dd_extreme_rays(rows, 7))
    # behind the real guard the same rays come back as one int64 array
    rays, complete = dd_extreme_rays(rows, 7)
    assert complete and isinstance(rays, np.ndarray) and rays.dtype == np.int64
    assert _ray_set(rays) == expected
    dtypes = []
    real = facets_module._new_rays

    def spy(rays, *args):
        dtypes.append(rays.dtype)
        return real(rays, *args)

    monkeypatch.setattr(facets_module, "_new_rays", spy)
    monkeypatch.setattr(linalg, "OVERFLOW_LIMIT", limit)
    rays, complete = dd_extreme_rays(rows, 7)
    assert complete and isinstance(rays, np.ndarray) and rays.dtype == object
    assert _ray_set(rays) == expected
    assert dtypes[0] == np.int64 and dtypes[-1] == object


@pytest.mark.parametrize("popcount", [facets_module._table_popcount, facets_module._popcount])
def test_popcount_matches_int_bit_count(popcount):
    # the table is what numpy < 2 runs; on numpy >= 2 _popcount is np.bitwise_count
    assert facets_module._popcount is getattr(np, "bitwise_count", facets_module._table_popcount)
    rng = np.random.default_rng(28)
    top = np.iinfo(np.uint64).max
    edges = np.array([0, 1, 2**63, top], dtype=np.uint64)
    words = np.concatenate([edges, rng.integers(0, top, size=2000, dtype=np.uint64, endpoint=True)])
    words = words.reshape(4, -1)
    assert popcount(words).tolist() == [[int(w).bit_count() for w in row] for row in words.tolist()]


def test_adjacent_pairs_sums_popcounts_past_255():
    # six-word zero sets: rays 0 (positive) and 1 (negative) share bits
    # 0..299 and no other ray holds those, so they are adjacent; ray 2
    # shares 299 of them with ray 0.  A uint8 sum of the per-word counts
    # would read 300 as 44 and drop the pair.
    bits = np.zeros((3, 384), dtype=np.uint8)
    bits[0, :300] = bits[1, :300] = bits[2, 1:300] = 1
    bits[[0, 1, 2], [300, 301, 302]] = 1
    zsets = facets_module._pack(bits)
    assert zsets.shape == (3, 6)
    pp, nn = facets_module._adjacent_pairs(zsets, np.array([0]), np.array([1, 2]), 300, lambda: False)
    assert pp.tolist() == [0] and nn.tolist() == [1]


@pytest.mark.parametrize("name", ["corr-3", "cyclic-130"])
def test_dd_with_table_popcount_matches(monkeypatch, name):
    # the numpy < 2 popcount, run through the whole insertion loop
    rows, dim = _dd_input(_dd_case(name))
    rays, complete = dd_extreme_rays(rows, dim)
    monkeypatch.setattr(facets_module, "_popcount", facets_module._table_popcount)
    again, again_complete = dd_extreme_rays(rows, dim)
    assert again_complete == complete and again.dtype == rays.dtype and again.tolist() == rays.tolist()


def _as_facets(rays):
    """Rays (w, -beta) of the polar cone as facets (w, beta)."""
    return {(tuple(r[:-1]), -r[-1]) for r in rays.tolist()}


def _subset_facets(rows, dim):
    """The brute-force facets of the vertices behind DD's constraint rows,
    whose last entry, the common denominator, is 1 for integer vertices."""
    assert {row[-1] for row in rows} == {1}
    return square_subset_facets([row[:-1] for row in rows], dim - 1)


def _pair_tests(monkeypatch):
    """(needed, words) of every _adjacent_pairs call from now on."""
    seen = []
    real = facets_module._adjacent_pairs

    def spy(zsets, pos, neg, needed, expired):
        seen.append((needed, zsets.shape[1]))
        return real(zsets, pos, neg, needed, expired)

    monkeypatch.setattr(facets_module, "_adjacent_pairs", spy)
    return seen


@pytest.mark.parametrize(
    "points,ends",
    [
        ([(0,), (1,), (2,)], [(0,), (2,)]),
        ([(0,), (2,), (1,), (5,), (3,)], [(0,), (5,)]),
        ([(0, 0), (1, 1), (2, 2)], [(0, 0), (2, 2)]),
        ([(3, 1), (1, 3), (2, 2), (0, 4), (4, 0)], [(0, 4), (4, 0)]),
    ],
)
def test_dd_at_dim_2_keeps_both_ends_of_a_segment(monkeypatch, points, ends):
    # reduced_dim 1: the DD cone has dim 2, where the two rays of a pair
    # share no constraint, so the pair test must take an empty common set
    seen = _pair_tests(monkeypatch)
    rows, dim = _dd_input(points)
    assert dim == 2 and (0, 1) in seen
    rays, complete = dd_extreme_rays(rows, dim)
    assert complete and len(rays) == 2
    assert _ray_set(rays) == set(loop_dd_extreme_rays(rows, dim))
    assert _as_facets(rays) == _subset_facets(rows, dim)
    hrep = enumerate_facets(vrep_of(points))
    assert hrep.complete and hrep.reduced_dim == 1
    tight = [{p for p in points if sum(c * x for c, x in zip(q.coeffs, p)) == q.bound} for q in hrep.facets]
    assert sorted(map(sorted, tight)) == [[e] for e in sorted(ends)]
    if len(points[0]) == 1:
        assert [(q.coeffs, q.bound) for q in hrep.facets] == [((-1,), 0), ((1,), max(points)[0])]


def _square_boundary(n):
    """The 4n lattice points on the boundary of [0, n]^2."""
    return sorted({(x, y) for x in range(n + 1) for y in range(n + 1) if x in (0, n) or y in (0, n)})


@pytest.mark.parametrize(
    "points,count",
    [
        ([(t, t * t) for t in range(63)], 63),
        ([(t, t * t) for t in range(64)], 64),
        ([(t, t * t) for t in range(65)], 65),
        ([p for p in _square_boundary(16) if p != (1, 0)], 4),
        (_square_boundary(16), 4),
        (_square_boundary(16) + [(8, 8)], 4),
    ],
    ids=["parabola-63", "parabola-64", "parabola-65", "square-63", "square-64", "square-65"],
)
def test_dd_zero_sets_around_the_word_boundary(monkeypatch, points, count):
    # m = 63, 64, 65 constraints, so zero sets of ceil(m / 64) words; the
    # square has many constraints on each facet and one never tight
    m = len(points)
    seen = _pair_tests(monkeypatch)
    rows, dim = _dd_input(points)
    assert (len(rows), dim) == (m, 3)
    assert {words for _, words in seen} == {-(-m // 64)}
    rays, complete = dd_extreme_rays(rows, dim)
    assert complete and len(_ray_set(rays)) == len(rays) == count
    assert _as_facets(rays) == _subset_facets(rows, dim)
