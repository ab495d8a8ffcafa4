import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from oracles import fraction_lp_max, gauge_orbit_min

import bellpoly.lp as lp_mod
import bellpoly.membership as membership_mod
from bellpoly import linalg
from bellpoly.cli import main

from bellpoly.cglmp import cglmp_inequality, evaluate
from bellpoly.correlators import (
    CorrVector,
    cglmp_corr_inequality,
    chsh_inequality,
    corr_index,
    corr_to_json,
    lift,
    project,
    projected_generators,
)
from bellpoly.facets import nosignaling_max, saturation_count, space_vertices
from bellpoly.lp import lp_max
from bellpoly.membership import corr_local_decompose, local_decompose, local_max
from bellpoly.scenario import (
    Behavior,
    Inequality,
    Scenario,
    all_generators,
    all_strategies,
    behavior_to_json,
    constraint_matrix,
    coord_index,
    generator,
    uniform_behavior,
)
from bellpoly.symmetry import equivalent, gauge_rows


def pr_box(flip_block=(2, 1)):
    """Uniform-marginal box with deterministic outcome differences; the
    difference is 1 on one block and 0 elsewhere."""
    coords = [Fraction(0)] * 16
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        n = 1 if (a, b) == flip_block else 0
        for j in range(2):
            coords[coord_index(2, a, b, (n + j) % 2, j)] = Fraction(1, 2)
    return Behavior(2, tuple(coords))


def _verify_decomposition(res, p):
    assert res.local
    total = Fraction(0)
    recon = [Fraction(0)] * len(p.coords)
    for lam, w in res.weights.items():
        assert w > 0
        total += w
        g = generator(Scenario(p.d), lam)
        for i, x in enumerate(g.coords):
            if x:
                recon[i] += w
    assert total == 1
    assert tuple(recon) == p.coords


@pytest.mark.parametrize(
    "space, d", [("behavior", d) for d in range(2, 6)] + [("correlator", d) for d in range(2, 9)]
)
def test_vertex_centroid_is_the_uniform_point(space, d):
    # the interior ray starts at the centroid of space_vertices
    verts = space_vertices(space, d)
    centroid = [Fraction(n, len(verts)) for n in verts.sum(axis=0).tolist()]
    uniform = uniform_behavior(d).coords if space == "behavior" else (Fraction(1, d),) * (4 * d)
    assert centroid == list(uniform)


def test_interior_ray_starts_at_the_vertex_centroid(monkeypatch):
    starts = []

    def recording_lp_max(objective, eq_rows, eq_rhs):
        starts.append(list(eq_rhs))
        return lp_max(objective, eq_rows, eq_rhs)

    monkeypatch.setattr(membership_mod, "lp_max", recording_lp_max)
    # the right-hand side is integer, the centroid over its last entry
    assert not local_decompose(pr_box()).local
    assert all(type(x) is int for x in starts[-1])
    assert [Fraction(x, starts[-1][-1]) for x in starts[-1]] == [*uniform_behavior(2).coords, 1]
    box = _box_query(random.Random("ray start"), "correlator", 3)
    assert not corr_local_decompose(box).local
    assert [Fraction(x, starts[-1][-1]) for x in starts[-1]] == [Fraction(1, 3)] * 12 + [1]


def test_uniform_is_local():
    for d in (2, 3):
        u = uniform_behavior(d)
        res = local_decompose(u)
        _verify_decomposition(res, u)


def test_generators_are_local_d2():
    for lam in all_strategies(Scenario(2)):
        g = generator(Scenario(2), lam)
        res = local_decompose(g)
        _verify_decomposition(res, g)


def test_pr_box_is_nonlocal_with_chsh_certificate():
    box = pr_box()
    # the independent check: the CGLMP form itself reaches 4 on this box
    assert evaluate(cglmp_inequality(2), box) == 4
    res = local_decompose(box)
    assert not res.local
    cert = res.certificate
    assert res.violation > 0
    # certificate soundness, re-verified from scratch
    for lam in all_strategies(Scenario(2)):
        assert evaluate(cert, generator(Scenario(2), lam)) <= cert.bound
    assert evaluate(cert, box) == cert.bound + res.violation > cert.bound
    assert equivalent(cert, cglmp_inequality(2))
    assert equivalent(cert, lift(chsh_inequality()))
    assert res.certificate_class == "cglmp"


def test_membership_preconditions():
    bad = list(uniform_behavior(2).coords)
    bad[0] += Fraction(1, 7)
    with pytest.raises(ValueError):
        local_decompose(Behavior(2, tuple(bad)))
    neg = list(uniform_behavior(2).coords)
    neg[0] -= Fraction(1, 2)
    neg[1] += Fraction(1, 2)
    with pytest.raises(ValueError):
        local_decompose(Behavior(2, tuple(neg)))


def test_corr_membership_local_cases():
    for d in (2, 3):
        u = project(uniform_behavior(d))
        res = corr_local_decompose(u)
        assert res.local
        gens = projected_generators(d)
        cols = [g.coords for g in gens]
        recon = [Fraction(0)] * (4 * d)
        total = Fraction(0)
        lookup = {
            tuple(
                next(n for n in range(d) if g.coords[corr_index(d, a, b, n)] == 1)
                for a, b in ((1, 1), (1, 2), (2, 1), (2, 2))
            ): g
            for g in gens
        }
        for label, w in res.weights.items():
            total += w
            g = lookup[label]
            for i, x in enumerate(g.coords):
                if x:
                    recon[i] += w
        assert total == 1
        assert tuple(recon) == u.coords


def test_projection_of_local_stays_local():
    box = pr_box()
    mixed = Behavior(
        2, tuple((x + u) / 2 for x, u in zip(generator(Scenario(2), (0, 1, 1, 0)).coords, uniform_behavior(2).coords))
    )
    assert local_decompose(mixed).local
    assert corr_local_decompose(project(mixed)).local


def test_corr_maximizer_d3_is_nonlocal_with_cglmp_certificate():
    # get a no-signaling behavior maximizing the CGLMP form, then project
    q = lift(cglmp_corr_inequality(3))
    rows, rhs = constraint_matrix(Scenario(3))
    res = lp_max(q.coeffs, eq_rows=rows, eq_rhs=rhs)
    assert res.status == "optimal"
    assert res.optimum == 4  # all four difference terms at their best weight
    maximizer = Behavior(3, res.primal)
    c = project(maximizer)
    verdict = corr_local_decompose(c)
    assert not verdict.local
    assert verdict.certificate_class == "cglmp"
    assert equivalent(verdict.certificate, cglmp_corr_inequality(3))
    for g in projected_generators(3):
        assert evaluate(verdict.certificate, g) <= verdict.certificate.bound
    value = sum(a * b for a, b in zip(verdict.certificate.coeffs, c.coords))
    assert value - verdict.certificate.bound == verdict.violation > 0


def test_local_max_values():
    for d in range(2, 8):
        assert local_max(cglmp_inequality(d)) == 2
    assert local_max(chsh_inequality()) == 2
    assert local_max(cglmp_corr_inequality(3)) == 2


def test_local_max_of_float_coefficients():
    # CHSH at half scale, with the halves as floats: maximum 1, not 0
    chsh = chsh_inequality()
    halved = Inequality("correlator", 2, tuple(float(c) / 2 for c in chsh.coeffs), Fraction(1))
    assert local_max(halved) == 1


def test_nosignaling_max_values():
    assert nosignaling_max(cglmp_inequality(2)) == 4
    assert nosignaling_max(chsh_inequality()) == 4
    assert nosignaling_max(cglmp_corr_inequality(3)) == 4


def test_zero_inequality():
    z = Inequality("behavior", 2, tuple([Fraction(0)] * 16), Fraction(0))
    assert local_max(z) == 0
    assert nosignaling_max(z) == 0


def test_corr_membership_precondition():
    bad = CorrVector(2, tuple([Fraction(1, 3)] * 8))
    with pytest.raises(ValueError):
        corr_local_decompose(bad)


def test_every_nosignaling_vertex_classified_correctly():
    # the d=2 no-signaling polytope has 16 local vertices and 8 boxes that
    # violate one CHSH variant each; membership must sort them perfectly
    from oracles import nosignaling_vertices

    verts = nosignaling_vertices(2)
    assert len(verts) == 24
    local = nonlocal_ = 0
    for v in verts:
        res = local_decompose(Behavior(2, tuple(v)))
        if res.local:
            local += 1
            assert all(x in (0, 1) for x in v)  # deterministic strategies
        else:
            nonlocal_ += 1
            assert res.certificate_class == "cglmp"
            assert equivalent(res.certificate, lift(chsh_inequality()))
    assert (local, nonlocal_) == (16, 8)


def _box_query(rng, space, d):
    """v*PR + (1-v)*noise, the PR box demanding outcome difference t_ab on
    block ab with t_11 - t_12 - t_21 + t_22 != 0 mod d; the noise is uniform
    or one deterministic strategy, in turn."""
    t11, t12, t21 = (rng.randrange(d) for _ in range(3))
    targets = (t11, t12, t21, (t21 + t12 - t11 + rng.randrange(1, d)) % d)
    lam = [rng.randrange(d) for _ in range(4)]
    v = Fraction(rng.randint(75, 99), 100)
    uniform = rng.random() < 0.5
    coords = []
    for blk, (a, b) in enumerate(((1, 1), (1, 2), (2, 1), (2, 2))):
        ka, kb = lam[a - 1], lam[b + 1]
        if space == "behavior":
            for k in range(d):
                for s in range(d):
                    noise = Fraction(1, d * d) if uniform else Fraction(int((k, s) == (ka, kb)))
                    coords.append(v * Fraction(int((k - s) % d == targets[blk]), d) + (1 - v) * noise)
        else:
            for n in range(d):
                noise = Fraction(1, d) if uniform else Fraction(int(n == (ka - kb) % d))
                coords.append(v * (n == targets[blk]) + (1 - v) * noise)
    return Behavior(d, tuple(coords)) if space == "behavior" else CorrVector(d, tuple(coords))


def _decompose(query):
    return (local_decompose if isinstance(query, Behavior) else corr_local_decompose)(query)


def _seeded_box(rng, space, d):
    return _decompose(_box_query(rng, space, d))


@pytest.mark.parametrize(
    "space,d,boxes",
    [
        ("behavior", 2, 4),
        ("correlator", 2, 4),
        ("correlator", 3, 4),
        ("correlator", 4, 6),
        pytest.param("behavior", 3, 1, marks=pytest.mark.slow),
    ],
)
def test_certificate_class_matches_gauge_oracle(space, d, boxes):
    rng = random.Random(f"boxes{space}{d}")
    if space == "behavior":
        reference, nonneg_at = cglmp_inequality(d), coord_index(d, 1, 1, 0, 0)
    else:
        reference, nonneg_at = cglmp_corr_inequality(d), corr_index(d, 1, 1, 0)
    nonneg = [Fraction(0)] * len(reference.coeffs)
    nonneg[nonneg_at] = Fraction(-1)
    catalog = {
        gauge_orbit_min(reference): "cglmp",
        gauge_orbit_min(Inequality(space, d, tuple(nonneg), Fraction(0))): "nonnegativity",
    }
    seen = set()
    for _ in range(boxes):
        res = _seeded_box(rng, space, d)
        assert not res.local
        want = catalog.get(gauge_orbit_min(res.certificate), "uncataloged")
        assert res.certificate_class == want
        seen.add(want)
    if (space, d) == ("correlator", 4):
        assert seen == {"cglmp", "uncataloged"}


@pytest.mark.parametrize(
    "space,d", [("correlator", 3), ("correlator", 4), ("correlator", 5), ("behavior", 2), ("behavior", 3)]
)
def test_cached_orbit_keys_name_box_certificates_as_equivalent_does(space, d):
    # the class lookup in CGLMP's orbit keys, built once per (space, d),
    # agrees with symmetry.equivalent, which builds the orbit per call
    reference = cglmp_inequality(d) if space == "behavior" else cglmp_corr_inequality(d)
    rng = random.Random(f"orbit keys {space} {d}")
    for _ in range(4):
        res = _seeded_box(rng, space, d)
        assert res.certificate_class == ("cglmp" if equivalent(reference, res.certificate) else "uncataloged")


@pytest.mark.parametrize(
    "path",
    [
        Path(membership_mod.__file__).parent / "golden" / "corr_facets_d3.json",
        Path(__file__).parents[1] / "perfbench" / "data" / "corr_facets_d4.json",
    ],
)
def test_cached_orbit_keys_name_catalog_facets_as_equivalent_does(path):
    doc = json.loads(path.read_text())
    d = doc["d"]
    reference = cglmp_corr_inequality(d)
    names = set()
    for facet in doc["facets"]:
        ineq = Inequality("correlator", d, tuple(facet["coeffs"]), facet["bound"])
        name = membership_mod._catalog_label(gauge_rows([ineq])[0], "correlator", d)
        assert name == ("cglmp" if equivalent(reference, ineq) else "uncataloged")
        names.add(name)
    assert names == {"cglmp", "uncataloged"}


@pytest.mark.parametrize("space,d", [("behavior", 2), ("correlator", 3)])
def test_cached_membership_arrays_are_read_only(space, d):
    rows, sums = membership_mod._system(space, d)
    assert not rows.flags.writeable and not sums.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 2


def _mixture_query(rng, space, d):
    """A seeded convex mixture of three to six generators, so local."""
    if space == "behavior":
        gens = [g.coords for g in all_generators(Scenario(d))]
    else:
        gens = [g.coords for g in projected_generators(d)]
    picks = [rng.choice(gens) for _ in range(rng.randint(3, 6))]
    raw = [rng.randint(1, 9) for _ in picks]
    coords = tuple(
        sum((Fraction(w, sum(raw)) * g[i] for w, g in zip(raw, picks)), Fraction(0))
        for i in range(len(gens[0]))
    )
    return Behavior(d, coords) if space == "behavior" else CorrVector(d, coords)


def _seeded_mixture(rng, space, d):
    return _decompose(_mixture_query(rng, space, d))


@pytest.mark.parametrize(
    "space,d", [("behavior", 2), ("behavior", 3), ("correlator", 3), ("correlator", 4)]
)
def test_membership_lps_match_fraction_simplex(monkeypatch, space, d):
    # every LP of seeded local and nonlocal queries comes back field for
    # field as from the Fraction tableau the integer simplex replaced
    statuses = []

    def both(*args, **kwargs):
        res = lp_max(*args, **kwargs)
        assert res == fraction_lp_max(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(membership_mod, "lp_max", both)
    rng = random.Random(f"lps{space}{d}")
    for _ in range(2):
        assert _seeded_mixture(rng, space, d).local
        assert not _seeded_box(rng, space, d).local
    assert statuses.count("infeasible") == 2
    assert statuses.count("optimal") == 4


@pytest.mark.parametrize("space,d", [("behavior", 2), ("correlator", 3)])
def test_lp_check_is_the_reconstruction_check(monkeypatch, space, d):
    # membership takes a local decomposition as lp_max returns it: the
    # feasibility LP's _check_optimal has already checked its primal, in the
    # integers, against the rows [V^T; 1] and the query [*q, qden]
    checked = []
    check = lp_mod._check_optimal

    def spy(*args):
        checked.append(args)
        check(*args)

    monkeypatch.setattr(lp_mod, "_check_optimal", spy)
    query = _mixture_query(random.Random(f"check {space} {d}"), space, d)
    res = _decompose(query)
    (q,), qden = linalg.integer_rows([query.coords])
    ((p, x, y, opt, den),) = checked
    assert np.array_equal(p.A, membership_mod._system(space, d)[0])
    assert p.b == [*q.tolist(), qden] and p.bscale == 1
    labels = membership_mod._labels(space, d)
    assert res.local and res.weights == {lab: Fraction(v, den * qden) for lab, v in zip(labels, x) if v}
    # one unit moved from a weighted vertex to an unweighted one keeps the
    # sum and the signs, and breaks a row
    tampered = list(x)
    tampered[next(j for j, v in enumerate(x) if v)] -= 1
    tampered[x.index(0)] += 1
    with pytest.raises(AssertionError, match="violates a constraint row"):
        check(p, tampered, y, opt, den)


@pytest.mark.parametrize("limit", [None, 2**4])
@pytest.mark.parametrize("space,d", [("behavior", 2), ("correlator", 3)])
def test_lp_on_membership_shaped_input(monkeypatch, space, d, limit):
    # a box query's two LPs, as membership builds them: integer ndarray rows
    # and an integer right-hand side over a last entry above 1; with the
    # guard lowered, the checks' matrix products run over Python ints
    calls, products = [], []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return lp_max(*args, **kwargs)

    def spy(*args, **kwargs):
        products.append(times(*args, **kwargs))
        return products[-1]

    times = lp_mod._times
    monkeypatch.setattr(membership_mod, "lp_max", record)
    assert not _decompose(_box_query(random.Random(f"shaped {space} {d}"), space, d)).local
    monkeypatch.setattr(lp_mod, "_times", spy)
    if limit:
        monkeypatch.setattr(linalg, "OVERFLOW_LIMIT", limit)
    statuses = []
    for args, kwargs in calls:
        rows, rhs = kwargs["eq_rows"], kwargs["eq_rhs"]
        assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
        assert all(type(b) is int for b in rhs) and rhs[-1] > 1
        res = lp_max(*args, **kwargs)
        assert res == fraction_lp_max(*args, **kwargs)
        statuses.append(res.status)
    assert statuses == ["infeasible", "optimal"]
    assert {a.dtype for a in products} == {np.dtype(object) if limit else np.dtype(np.int64)}


def _generalized_pr_box(space, d, v=Fraction(3, 4)):
    """v*PR + (1-v)*uniform, the PR box demanding outcome difference 0 on
    blocks a1b1, a1b2, a2b1 and d-1 on a2b2."""
    coords = []
    for target in (0, 0, 0, d - 1):
        if space == "behavior":
            coords += [v * Fraction(int((k - s) % d == target), d) + (1 - v) / (d * d)
                       for k in range(d) for s in range(d)]
        else:
            coords += [v * int(n == target) + (1 - v) / d for n in range(d)]
    return Behavior(d, tuple(coords)) if space == "behavior" else CorrVector(d, tuple(coords))


@pytest.mark.parametrize(
    "space,d,pivots",
    [
        ("correlator", 3, 55),
        ("correlator", 4, 194),
        ("correlator", 6, 791),
        ("behavior", 2, 25),
        ("behavior", 3, 143),
        pytest.param("correlator", 8, 3071, marks=pytest.mark.slow),
        pytest.param("correlator", 10, 7450, marks=pytest.mark.slow),
    ],
)
def test_membership_pivot_counts(monkeypatch, space, d, pivots):
    # Bland's rule fixes every pivot, so the count over both LPs of a box
    # query pins the path the integer simplex takes
    count = [0]
    pivot = lp_mod._pivot

    def counting(*args):
        count[0] += 1
        return pivot(*args)

    monkeypatch.setattr(lp_mod, "_pivot", counting)
    assert not _decompose(_generalized_pr_box(space, d)).local
    assert count[0] == pivots


MEMBERSHIP_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "membership_stdout_sha256.json").read_text()
)["stdout"]
SLOW_QUERIES = ("behavior 3 box", "behavior 4 box", "correlator 6 box", "correlator 8 box")


def _query_file(tmp_path, key):
    """Write the query named "<space> <d> box|mixture", seeded by its name."""
    space, d, kind = key.split()
    make = _box_query if kind == "box" else _mixture_query
    query = make(random.Random(key), space, int(d))
    path = tmp_path / "query.json"
    path.write_text(json.dumps(behavior_to_json(query) if space == "behavior" else corr_to_json(query)))
    return path


@pytest.mark.parametrize(
    "key",
    [pytest.param(key, marks=pytest.mark.slow) if key in SLOW_QUERIES else key
     for key in dict.fromkeys(k.removesuffix(" --pretty") for k in MEMBERSHIP_STDOUT)],
)
def test_membership_stdout_is_byte_identical(tmp_path, key):
    # the printed weights come from the simplex pivots, so this pins them
    path = _query_file(tmp_path, key)
    for flags in ([], ["--pretty"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["membership", str(path), *flags])
        got = {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
        assert got == MEMBERSHIP_STDOUT[" ".join([key, *flags])]


@pytest.mark.parametrize(
    "key", [key for key in dict.fromkeys(k.removesuffix(" --pretty") for k in MEMBERSHIP_STDOUT) if key.endswith(" box")]
)
def test_pinned_certificates_are_facets(key):
    # the certificate of each pinned box query is a facet: its tight
    # vertices have the rank of the polytope's dimension
    space, d, _ = key.split()
    vertices = space_vertices(space, int(d))
    res = _decompose(_box_query(random.Random(key), space, int(d)))
    assert not res.local
    assert saturation_count(res.certificate, vertices)[1] == linalg.affine_dim(vertices)
