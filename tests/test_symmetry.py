import contextlib
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import (
    _loop_behavior_perm,
    _loop_correlator_perm,
    apply_row,
    chsh_inequality,
    dot,
    gauge_key,
    gauge_labels,
    gauge_orbit,
    least_slack_row,
    loop_group,
    tuple_labels,
)

from bellpoly.cglmp import cglmp_inequality
from bellpoly.correlators import (
    cglmp_corr_inequality,
    corr_index,
    project,
    projected_generators,
)
from bellpoly.facets import (
    classify_trivial,
    enumerate_facets,
    saturation_count,
    space_vertices,
    vrep_of,
)
from bellpoly.membership import _catalog_label
from bellpoly.scenario import (
    Behavior,
    Inequality,
    all_generators,
    all_strategies,
    generator,
    inequality_from_json,
)
from bellpoly import linalg
from bellpoly.symmetry import (
    _orbit,
    _row_keys,
    by_class,
    canonical_class,
    equivalent,
    gauge_rows,
    group_for,
    has_group,
    label_classes,
    standard_equations,
)


def _party_swap(d):
    return _loop_behavior_perm(d, True, False, False, [range(d)] * 4)


def test_identity():
    # the identity is the lexicographically first row of every table
    d = 3
    p = generator(d, (1, 2, 0, 1))
    assert group_for("behavior", d)[0].tolist() == list(range(4 * d * d))
    assert group_for("correlator", d)[0].tolist() == list(range(4 * d))
    assert apply_row(group_for("behavior", d)[0], p) == p


def test_party_swap_is_involution():
    for d in (2, 3):
        op = np.array(_party_swap(d))
        assert op[op].tolist() == list(range(4 * d * d))


def test_party_swap_on_generators():
    d = 3
    op = _party_swap(d)
    for lam in ((0, 1, 2, 0), (1, 1, 0, 2), (2, 0, 1, 1)):
        a1, a2, b1, b2 = lam
        got = apply_row(op, generator(d, lam))
        want = generator(d, (b1, b2, a1, a2))
        assert got == want


def test_relabeling_maps_generators_to_generators():
    d = 3
    sigma = (1, 2, 0)
    op = _loop_behavior_perm(d, False, False, False, (sigma, (0, 1, 2), (2, 1, 0), (0, 2, 1)))
    for lam in all_strategies(d)[:10]:
        got = apply_row(op, generator(d, lam))
        want = generator(d, (sigma[lam.a1], lam.a2, (2, 1, 0)[lam.b1], (0, 2, 1)[lam.b2]))
        assert got == want


def test_group_sizes():
    assert len(group_for("behavior", 2)) == 8 * 2**4
    grp3 = group_for("correlator", 3)
    assert len(grp3) == 16 * 27  # shifts act modulo a global offset: 16 d^3
    assert len(np.unique(grp3, axis=0)) == len(grp3)


def test_behavior_group_guard():
    with pytest.raises(ValueError):
        group_for("behavior", 4)


@pytest.mark.parametrize(
    "space, d", [("behavior", d) for d in range(2, 6)] + [("correlator", d) for d in range(2, 9)]
)
def test_has_group_is_the_one_group_table_test(space, d):
    # false exactly where group_for refuses, by_class gives no
    # labels and a certificate class stays unclassified; group_for refuses
    # before it builds anything, so no behavior table is built at d >= 4
    reference = cglmp_inequality(d) if space == "behavior" else cglmp_corr_inequality(d)
    assert has_group(space, d) == (space == "correlator" or d <= 3)
    if has_group(space, d):
        assert len(group_for(space, d)) > 0
        assert by_class([], space, d, classify_trivial)[1] == []
        assert _catalog_label(gauge_rows([reference])[0], space, d) == "cglmp"
    else:
        with pytest.raises(ValueError, match="too large"):
            group_for(space, d)
        assert by_class([], space, d, classify_trivial)[1] is None
        assert _catalog_label(gauge_rows([reference])[0], space, d) == "unclassified"


def test_group_action_law():
    # g after h is the row h[g], and it is a row of the table
    rng = random.Random(11)
    d = 2
    grp = group_for("behavior", d)
    rows = set(map(tuple, grp.tolist()))
    p = Behavior(d, tuple(Fraction(rng.randint(0, 9), 11) for _ in range(16)))
    for _ in range(25):
        g = rng.choice(grp)
        h = rng.choice(grp)
        assert tuple(h[g].tolist()) in rows
        assert apply_row(h[g], p) == apply_row(g, apply_row(h, p))
    grpc = group_for("correlator", 3)
    rows = set(map(tuple, grpc.tolist()))
    c = project(Behavior(3, tuple(Fraction(rng.randint(0, 9), 11) for _ in range(36))))
    for _ in range(25):
        g = rng.choice(grpc)
        h = rng.choice(grpc)
        assert tuple(h[g].tolist()) in rows
        assert apply_row(h[g], c) == apply_row(g, apply_row(h, c))


def test_group_preserves_generator_sets():
    d = 2
    gens = {g.coords for g in all_generators(d)}
    for op in group_for("behavior", d):
        assert {apply_row(op, Behavior(d, c)).coords for c in gens} == gens
    pgens = {g.coords for g in projected_generators(3)}
    rng = random.Random(13)
    grpc = group_for("correlator", 3)
    from bellpoly.correlators import CorrVector

    for _ in range(40):
        op = rng.choice(grpc)
        assert {apply_row(op, CorrVector(3, c)).coords for c in pgens} == pgens


def test_eval_invariance():
    rng = random.Random(17)
    d = 2
    grp = group_for("behavior", d)
    q = cglmp_inequality(d)
    for _ in range(30):
        op = rng.choice(grp)
        p = Behavior(d, tuple(Fraction(rng.randint(-5, 9), 11) for _ in range(16)))
        assert dot(apply_row(op, q).coeffs, apply_row(op, p).coords) == dot(q.coeffs, p.coords)


def test_inverse():
    # the inverse of a row is its argsort, and it is a row of the table
    rng = random.Random(19)
    grp = group_for("correlator", 2)
    rows = set(map(tuple, grp.tolist()))
    for _ in range(20):
        op = rng.choice(grp)
        inverse = np.argsort(op)
        assert tuple(inverse.tolist()) in rows
        assert inverse[op].tolist() == list(range(8))


def test_canonical_class_constant_on_orbit():
    rng = random.Random(23)
    q = cglmp_corr_inequality(3)
    rep = canonical_class(q)
    grp = group_for("correlator", 3)
    for _ in range(20):
        op = rng.choice(grp)
        assert canonical_class(apply_row(op, q)) == rep


def test_party_swapped_chsh_same_class():
    q = chsh_inequality()
    swapped = apply_row(_loop_correlator_perm(2, True, False, False, (0, 0, 0, 0), False), q)
    assert canonical_class(swapped) == canonical_class(q)
    assert equivalent(q, swapped)


def test_d2_nontrivial_facets_single_class():
    gens = projected_generators(2)
    hrep = enumerate_facets(vrep_of(gens), space="correlator", d=2)
    nontrivial = [q for q in hrep.facets if not classify_trivial(q)]
    assert len(nontrivial) == 8
    labels, reps = label_classes(nontrivial)
    assert set(labels) == {0}
    assert all(equivalent(q, chsh_inequality()) for q in nontrivial)


def test_equivalences():
    assert equivalent(chsh_inequality(), cglmp_corr_inequality(2))
    q3 = cglmp_corr_inequality(3)
    swapped = apply_row(_loop_correlator_perm(3, False, True, False, (0, 0, 0, 0), False), q3)
    assert equivalent(q3, swapped)
    coeffs = [Fraction(0)] * 12
    coeffs[corr_index(3, 1, 1, 1)] = Fraction(-1)
    nonneg = Inequality("correlator", 3, tuple(coeffs), Fraction(0))
    assert not equivalent(q3, nonneg)
    with pytest.raises(ValueError):
        equivalent(q3, chsh_inequality())


def test_trivial_status_is_orbit_invariant():
    rng = random.Random(29)
    grp = group_for("correlator", 2)
    q = chsh_inequality()
    coeffs = [Fraction(0)] * 8
    coeffs[corr_index(2, 2, 1, 0)] = Fraction(-1)
    triv = Inequality("correlator", 2, tuple(coeffs), Fraction(0))
    for _ in range(10):
        op = rng.choice(grp)
        assert classify_trivial(apply_row(op, q)) is False
        assert classify_trivial(apply_row(op, triv)) is True


@pytest.mark.parametrize("d", [2, pytest.param(3, marks=pytest.mark.slow)])
def test_triviality_decided_once_per_class(monkeypatch, d):
    # behavior space, where triviality is an LP: enumerate decides it once
    # per class through by_class, with the same flags as one LP per facet
    import bellpoly.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod, "classify_trivial", lambda q: calls.append(q) or classify_trivial(q))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_mod.main(["enumerate", str(d), "--space", "behavior"]) == 0
    doc = json.loads(out.getvalue())
    facets = [inequality_from_json({"space": "behavior", "d": d, **f}) for f in doc["facets"]]
    labels = [f["class"] for f in doc["facets"]]
    assert [f["trivial"] for f in doc["facets"]] == [classify_trivial(f) for f in facets]
    assert labels == label_classes(facets)[0]
    assert len(calls) == len(set(labels))
    assert by_class(facets, "behavior", d, classify_trivial) == ([f["trivial"] for f in doc["facets"]], labels)


def test_facet_images_are_facets():
    rng = random.Random(31)
    gens = projected_generators(2)
    hrep = enumerate_facets(vrep_of(gens), space="correlator", d=2)
    grp = group_for("correlator", 2)
    for q in hrep.facets[:6]:
        op = rng.choice(grp)
        image = apply_row(op, q)
        count, rk = saturation_count(image, gens)
        assert rk == hrep.reduced_dim
        assert (count, rk) == saturation_count(q, gens)


def test_local_max_invariant_under_group():
    from bellpoly.membership import local_max

    rng = random.Random(37)
    q = cglmp_inequality(2)
    grp = group_for("behavior", 2)
    for _ in range(10):
        op = rng.choice(grp)
        assert local_max(apply_row(op, q)) == local_max(q)


def _regauged(q, rng):
    """The same inequality in another gauge: plus a multiple of one block's
    normalization equation (sum of the block = 1), times a positive scale."""
    block = len(q.coeffs) // 4
    b, c, scale = rng.randrange(4), Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 4))
    in_block = lambda i: b * block <= i < (b + 1) * block
    coeffs = [(x + (c if in_block(i) else 0)) * scale for i, x in enumerate(q.coeffs)]
    return Inequality(q.space, q.d, tuple(coeffs), (q.bound + c) * scale)


def _space(space, d):
    """(vertices, group table, facets) of a standard space."""
    verts = projected_generators(d) if space == "correlator" else all_generators(d)
    facets = enumerate_facets(vrep_of(verts), space=space, d=d).facets
    return verts, group_for(space, d), list(facets)


SPACES = [
    ("correlator", 2),
    ("correlator", 3),
    ("correlator", 4),
    ("behavior", 2),
    pytest.param("behavior", 3, marks=pytest.mark.slow),
]


@pytest.mark.parametrize(
    "space,d,pairs",
    [
        ("correlator", 2, 16),
        ("correlator", 3, 10),
        ("behavior", 2, 16),
        ("correlator", 4, 8),
        pytest.param("behavior", 3, 6, marks=pytest.mark.slow),
    ],
)
def test_equivalent_agrees_with_canonical_class(space, d, pairs):
    rng = random.Random(f"{space}{d}")
    verts, group, pool = _space(space, d)
    for _ in range(2):  # generic inequalities, valid but not facets
        coeffs = tuple(Fraction(rng.randint(-2, 2)) for _ in range(len(verts[0].coords)))
        bound = max(dot(coeffs, v.coords) for v in verts)
        pool.append(Inequality(space, d, coeffs, bound))
    seen = set()
    for i in range(pairs):
        a = rng.choice(pool)
        b = _regauged(apply_row(rng.choice(group), a if i % 2 else rng.choice(pool)), rng)
        got = equivalent(a, b)
        assert got == (gauge_key(b) in set(gauge_orbit(a)))
        assert got == (canonical_class(a) == canonical_class(b))
        seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("space,d", SPACES)
def test_label_classes_match_gauge_oracle(space, d):
    rng = random.Random(f"labels{space}{d}")
    _, group, facets = _space(space, d)
    labels, reps = label_classes(facets)
    assert labels == gauge_labels(facets)
    assert reps == [facets[labels.index(k)] for k in range(len(reps))]
    # moved, regauged and shuffled copies land in the same partition
    moved = [_regauged(apply_row(rng.choice(group), q), rng) for q in facets]
    rng.shuffle(moved)
    assert label_classes(moved)[0] == gauge_labels(moved)


@pytest.mark.parametrize("space,d", SPACES)
def test_label_classes_match_tuple_oracle(space, d):
    # byte keys against tuple keys, on shuffled, moved and regauged facets
    # plus valid non-facets and inequalities some vertex violates
    rng = random.Random(f"tuples{space}{d}")
    verts, group, facets = _space(space, d)
    for _ in range(3):
        coeffs = tuple(Fraction(rng.randint(-2, 2)) for _ in range(len(verts[0].coords)))
        bound = max(dot(coeffs, v.coords) for v in verts) - rng.randrange(2)
        facets.append(Inequality(space, d, coeffs, bound))
    for _ in range(3):
        items = [_regauged(apply_row(rng.choice(group), q), rng) for q in rng.choices(facets, k=40)]
        rows = gauge_rows(items)
        assert rows.dtype == np.int64
        assert label_classes(items)[0] == tuple_labels(rows, lambda row: _orbit(row, space, d))


def test_python_int_slack_gets_tuple_keys():
    # f1 + 2^70 f2 has a key past int64; it and its image form one class,
    # apart from f1 and f2, whose keys in the same Python-int batch are the
    # bytes they have in an int64 batch
    _, _, facets = _space("correlator", 3)
    labels = label_classes(facets)[0]
    f1, f2 = facets[labels.index(0)], facets[labels.index(1)]
    combo = Inequality("correlator", 3, tuple(a + 2**70 * b for a, b in zip(f1.coeffs, f2.coeffs)),
                       f1.bound + 2**70 * f2.bound)
    image = apply_row(_loop_correlator_perm(3, True, False, False, (1, 2, 0, 1), True), combo)
    items = [f1, combo, f2, image]
    rows = gauge_rows(items)
    assert rows.dtype == object and max(map(abs, rows[1])) > 2**63
    assert rows[3].tolist() != rows[1].tolist()
    assert list(map(type, _row_keys(rows))) == [bytes, tuple, bytes, tuple]
    assert _row_keys(rows[[0, 2]]) == _row_keys(gauge_rows([f1, f2]))
    got = label_classes(items)[0]
    orbit = lambda row: _orbit(row, "correlator", 3)
    assert got == tuple_labels(rows, orbit) == gauge_labels(items) == [0, 1, 2, 1]


def test_keys_are_read_off_values_not_dtype():
    # a key near 2^60 fits int64, but the gauge step of its orbit runs over
    # Python ints: its image still finds the class by the same bytes
    q = cglmp_corr_inequality(3)
    coeffs = list(q.coeffs)
    coeffs[corr_index(3, 1, 1, 0)] -= 2**59
    coeffs[corr_index(3, 1, 1, 1)] += 2**59
    big = Inequality("correlator", 3, tuple(coeffs), q.bound)
    key = gauge_rows([big])[0]
    assert key.dtype == np.int64 and _orbit(key, "correlator", 3).dtype == object
    items = [big, apply_row(group_for("correlator", 3)[7], big), q]
    assert label_classes(items)[0] == gauge_labels(items) == [0, 0, 1]


@pytest.mark.parametrize("space,d", [("correlator", 3), ("behavior", 2)])
def test_slack_orbit_rows_are_image_slacks(space, d):
    # orbit row g is the fixed-gauge key of the image under table row g
    verts, group, facets = _space(space, d)
    q = facets[-1]
    rows = _orbit(gauge_rows([q])[0], space, d)
    assert rows.shape == (len(group), len(verts[0].coords) + 1)
    for g, op in enumerate(group):
        image = apply_row(op, q)
        assert rows[g].tolist() == gauge_rows([image])[0].tolist()
        assert tuple(map(Fraction, rows[g].tolist())) == (*gauge_key(image)[0], gauge_key(image)[1])


@pytest.mark.parametrize("space,d", [*(("correlator", d) for d in range(2, 13)), ("behavior", 2), ("behavior", 3)])
def test_standard_equations_of_tabulated_spaces_have_unit_denominator(space, d):
    # D = 1 is why _orbit needs no gcd_reduce; the correlator equations
    # are the four block sums
    assert has_group(space, d)
    eqs, pivots = standard_equations(space, d)
    assert eqs[:, list(pivots)].tolist() == np.eye(len(pivots), dtype=int).tolist()
    if space == "correlator":
        assert eqs.tolist() == [[int(j // d == b) for j in range(4 * d)] + [1] for b in range(4)]


@pytest.mark.parametrize("space,d", [("correlator", 3), ("correlator", 4), ("behavior", 2)])
def test_orbits_of_class_representatives_are_primitive(space, d):
    # gcd_reduce would leave every orbit row as _orbit gives it
    _, _, facets = _space(space, d)
    for rep in label_classes(facets)[1]:
        orbit = _orbit(gauge_rows([rep])[0], space, d)
        assert (linalg.gcd_reduce(orbit) == orbit).all()


def test_canonical_class_is_a_gauge_fixed_image():
    for q in (cglmp_corr_inequality(3), chsh_inequality(), cglmp_inequality(2)):
        assert gauge_key(canonical_class(q)) in set(gauge_orbit(q))


def test_group_for_is_built_once():
    table = group_for("correlator", 3)
    assert isinstance(table, np.ndarray) and table.dtype.kind == "i"
    assert not table.flags.writeable
    assert group_for("correlator", 3) is table
    with pytest.raises(ValueError):
        group_for("vector", 3)


@pytest.mark.parametrize(
    "space,d",
    [
        ("correlator", 2),
        ("correlator", 3),
        ("correlator", 4),
        ("correlator", 5),
        ("behavior", 2),
        pytest.param("correlator", 6, marks=pytest.mark.slow),
        pytest.param("correlator", 7, marks=pytest.mark.slow),
        pytest.param("correlator", 8, marks=pytest.mark.slow),
        pytest.param("behavior", 3, marks=pytest.mark.slow),
    ],
)
def test_group_table_matches_loop_oracle(space, d):
    table = group_for(space, d)
    rows = set(map(tuple, table.tolist()))
    assert len(rows) == len(table)
    assert rows == set(loop_group(space, d))
    if space == "behavior":
        assert len(table) == 8 * math.factorial(d) ** 4
    else:
        assert len(table) == (64 if d == 2 else 16 * d**3)


def test_huge_slack_falls_back_to_python_ints():
    q = cglmp_corr_inequality(3)
    scale = Fraction(2**70)
    scaled = Inequality(q.space, q.d, tuple(c * scale for c in q.coeffs), q.bound * scale)
    assert gauge_rows([scaled])[0].tolist() == gauge_rows([q])[0].tolist()
    assert equivalent(scaled, q) and equivalent(q, scaled)
    assert canonical_class(scaled) == canonical_class(q)
    # cglmp plus 2^70 + 1 times a nonnegativity facet: a reduced key past 2^63
    coeffs = list(q.coeffs)
    coeffs[corr_index(3, 1, 1, 0)] -= 2**70 + 1
    big = Inequality(q.space, q.d, tuple(coeffs), q.bound)
    s = gauge_rows([big])[0]
    assert s.dtype == object and max(s) > 2**63
    assert canonical_class(big) == _oracle_class(big)
    image = apply_row(_loop_correlator_perm(3, False, True, False, (1, 0, 2, 0), False), big)
    assert equivalent(big, image) and not equivalent(big, q)
    items = [big, q, image, scaled]
    assert label_classes(items)[0] == gauge_labels(items) == [0, 1, 0, 1]


@pytest.mark.parametrize("space, d", [("correlator", 3), ("behavior", 2)])
def test_slack_rows_match_per_row_slack(space, d):
    rng = random.Random(f"batch{space}{d}")
    n = 4 * d * d if space == "behavior" else 4 * d
    batch = [
        Inequality(space, d, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)), Fraction(1, 7))
        for _ in range(5)
    ]
    huge = batch[0]
    batch.append(Inequality(space, d, tuple(c * 2**70 for c in huge.coeffs), huge.bound * 2**70 + 1))
    rows = gauge_rows(batch)
    assert gauge_rows([batch[1]]).dtype == np.int64 and rows.dtype == object
    assert rows.tolist() == [gauge_rows([q])[0].tolist() for q in batch]
    assert gauge_rows(batch[1:3]).tolist() == rows[1:3].tolist()
    assert [tuple(map(Fraction, row)) for row in rows.tolist()] == [(*c, b) for c, b in map(gauge_key, batch)]


def test_batches_refuse_constant_rows_and_mixed_spaces():
    q = cglmp_corr_inequality(3)
    block_sum = Inequality("correlator", 3, (Fraction(1),) * 3 + (Fraction(0),) * 9, Fraction(2))
    for call in (gauge_rows, label_classes):
        with pytest.raises(ValueError, match="constant slack"):
            call([q, block_sum, q])
        # correlator d=4 and behavior d=2 both have 16 coordinates
        with pytest.raises(ValueError, match="different spaces"):
            call([cglmp_corr_inequality(4), cglmp_inequality(2)])
    assert label_classes([]) == ([], [])


def test_constant_slack_is_refused():
    block_sum = [Fraction(0)] * 12
    for n in range(3):
        block_sum[corr_index(3, 2, 1, n)] = Fraction(1)
    for q in (
        Inequality("correlator", 3, tuple(block_sum), Fraction(5)),
        Inequality("correlator", 3, (Fraction(0),) * 12, Fraction(0)),
    ):
        for call in (lambda x: gauge_rows([x]), canonical_class, lambda x: label_classes([x])):
            with pytest.raises(ValueError):
                call(q)
        with pytest.raises(ValueError):
            equivalent(cglmp_corr_inequality(3), q)


def test_equivalent_builds_no_vertex_table():
    # at correlator d=10 a |G| x |V| int32 table of vertex images alone is
    # 64 MB; an orbit of keys is |G| x 41 entries
    d = 10
    group, verts = group_for("correlator", d), space_vertices("correlator", d)
    standard_equations("correlator", d)
    q = cglmp_corr_inequality(d)
    moved = apply_row(group[len(group) // 2], q)
    tracemalloc.start()
    try:
        assert equivalent(q, moved)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(group) * len(verts) * 4 // 2


def _oracle_class(q):
    """canonical_class by its definition: the first orbit row with the least
    gcd-reduced slack row over the whole vertex list."""
    row = least_slack_row(_orbit(gauge_rows([q])[0], q.space, q.d), space_vertices(q.space, q.d))
    return Inequality(q.space, q.d, tuple(row[:-1]), row[-1])


@pytest.mark.parametrize(
    "space,d",
    [
        ("correlator", 2),
        ("correlator", 3),
        ("correlator", 4),
        ("behavior", 2),
        pytest.param("correlator", 5, marks=pytest.mark.slow),
        pytest.param("behavior", 3, marks=pytest.mark.slow),
    ],
)
def test_canonical_class_matches_least_slack_oracle(space, d):
    # narrowing the orbit one vertex column at a time picks the row that
    # the whole gcd-reduced slack matrix does, the first of equal ones
    _, _, facets = _space(space, d)
    if space == "behavior" and d == 3:  # 1116 facets, a 10368 x 81 slack each
        facets = random.Random("least slack behavior 3").sample(facets, 50)
    for q in facets:
        assert canonical_class(q) == _oracle_class(q)


def test_canonical_class_holds_one_slack_column():
    # at correlator d=10 the whole 16000 x 1000 slack is 128 MB of int64;
    # the orbit of keys is 16000 x 41
    d = 10
    group = group_for("correlator", d)
    # the cached vertices and equations are built before the trace starts
    space_vertices("correlator", d)
    standard_equations("correlator", d)
    q = cglmp_corr_inequality(d)
    tracemalloc.start()
    try:
        rep = canonical_class(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert equivalent(rep, q)
    assert peak < 6 * len(group) * (4 * d + 1) * 8


def _as_fractions(q):
    return Inequality(q.space, q.d, tuple(map(Fraction, q.coeffs)), Fraction(q.bound))


@pytest.mark.parametrize("space,d", [("correlator", 3), ("correlator", 4), ("behavior", 2)])
def test_int_and_fraction_rows_agree(space, d):
    # the facets come with Python int entries, which integer_rows reads in
    # one np.array; the same rows written as Fractions enter entry by entry
    # and must give the same keys, labels and class representatives
    rng = random.Random(f"ints{space}{d}")
    _, group, facets = _space(space, d)
    assert {type(x) for q in facets for x in (*q.coeffs, q.bound)} == {int}
    items = facets + [apply_row(rng.choice(group), q) for q in rng.sample(facets, 12)]
    fracs = [_as_fractions(q) for q in items]
    rows, frows = gauge_rows(items), gauge_rows(fracs)
    assert rows.dtype == frows.dtype == np.int64 and rows.tolist() == frows.tolist()
    labels, reps = label_classes(items)
    assert label_classes(fracs) == (labels, reps)
    for q, f in zip(items[::7], fracs[::7]):
        got = canonical_class(q)
        assert {type(x) for x in (*got.coeffs, got.bound)} == {int}
        assert canonical_class(f) == got
