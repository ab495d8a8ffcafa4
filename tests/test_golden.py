"""The shipped facet catalogs and canonical forms stay bit-for-bit stable."""

import importlib.resources as resources
import json
import random
from fractions import Fraction

from bellpoly.correlators import cglmp_corr_inequality, projected_generators
from bellpoly.facets import canonicalize, classify_trivial, enumerate_facets, vrep_of
from bellpoly.jsonio import encode_rational
from bellpoly.lp import lp_max
from bellpoly.scenario import Inequality, inequality_from_json, inequality_to_json
from bellpoly.symmetry import canonical_class, gauge_rows, label_classes


def _golden(name):
    return json.loads(resources.files("bellpoly").joinpath(f"golden/{name}").read_text())


def _catalog(d):
    gens = projected_generators(d)
    hrep = enumerate_facets(vrep_of(gens), space="correlator", d=d)
    labels, _ = label_classes(hrep.facets)
    return hrep, labels


def test_corr_facet_catalogs_match_goldens():
    for d in (2, 3):
        golden = _golden(f"corr_facets_d{d}.json")
        hrep, labels = _catalog(d)
        got = [
            {
                "coeffs": [encode_rational(c) for c in f.coeffs],
                "bound": encode_rational(f.bound),
                "trivial": classify_trivial(f),
                "class": labels[i],
            }
            for i, f in enumerate(hrep.facets)
        ]
        assert got == golden["facets"]
        assert golden["complete"] is True
        assert golden["reduced_dim"] == hrep.reduced_dim


def test_golden_counts():
    g2 = _golden("corr_facets_d2.json")
    assert len(g2["facets"]) == 16
    assert sum(f["trivial"] for f in g2["facets"]) == 8
    g3 = _golden("corr_facets_d3.json")
    assert len(g3["facets"]) == 66
    assert sum(f["trivial"] for f in g3["facets"]) == 12
    assert sorted({f["class"] for f in g3["facets"]}) == [0, 1]


def test_cglmp3_canonical_forms_match_golden():
    blob = _golden("cglmp_corr_d3_canonical.json")
    cg3 = cglmp_corr_inequality(3)
    assert inequality_to_json(canonicalize(cg3)) == blob["canonical"]
    *coeffs, bound = gauge_rows([cg3])[0].tolist()
    assert inequality_to_json(Inequality("correlator", 3, tuple(coeffs), bound)) == blob["canonical_gauged"]
    assert inequality_to_json(canonical_class(cg3)) == blob["class_representative"]


def test_membership_agrees_with_facet_catalog_d3():
    # verdict by facets == verdict by LP decomposition, on random mixtures
    rng = random.Random(97)
    gens = projected_generators(3)
    golden = _golden("corr_facets_d3.json")
    facets = [
        inequality_from_json({"space": "correlator", "d": 3, **f}) for f in golden["facets"]
    ]
    cols = [g.coords for g in gens]
    for _ in range(12):
        w = [Fraction(rng.randint(0, 3)) for _ in gens]
        total = sum(w)
        if total == 0:
            continue
        point = [sum(wi * col[i] for wi, col in zip(w, cols)) / total for i in range(12)]
        # random tilt towards a no-signaling box, may leave the polytope
        tilt = rng.randint(0, 2)
        if tilt:
            n_ab = [rng.randrange(3) for _ in range(4)]
            box = [Fraction(0)] * 12
            for blk in range(4):
                box[blk * 3 + n_ab[blk]] = Fraction(1)
            alpha = Fraction(rng.randint(1, 3), 4)
            point = [alpha * b + (1 - alpha) * x for b, x in zip(box, point)]
        inside_h = all(
            sum(c * x for c, x in zip(q.coeffs, point)) <= q.bound for q in facets
        )
        eq_rows = [[col[i] for col in cols] for i in range(12)]
        eq_rows.append([Fraction(1)] * len(cols))
        res = lp_max([Fraction(0)] * len(cols), eq_rows=eq_rows, eq_rhs=point + [Fraction(1)])
        assert inside_h == (res.status == "optimal")
