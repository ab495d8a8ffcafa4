"""Regenerate the golden facet catalogs shipped with the package.

Runs the complete d=2 and d=3 correlator-polytope enumerations plus the
canonical CGLMP forms and freezes the results under src/bellpoly/golden/.
Deterministic: reruns must be byte-identical.
"""

from __future__ import annotations

import json
import pathlib

from bellpoly.cli import facet_list_json
from bellpoly.correlators import cglmp_corr_inequality
from bellpoly.facets import canonicalize, enumerate_facets, space_vertices, standard_equations, vrep_of
from bellpoly.scenario import inequality_to_json
from bellpoly.symmetry import canonical_class, trivial_and_classes

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "src" / "bellpoly" / "golden"


def facet_catalog(d: int) -> dict:
    hrep = enumerate_facets(vrep_of(space_vertices("correlator", d)), space="correlator", d=d)
    trivial, labels = trivial_and_classes(hrep.facets, "correlator", d)
    return facet_list_json("correlator", d, hrep, trivial, labels)


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for d in (2, 3):
        path = GOLDEN / f"corr_facets_d{d}.json"
        path.write_text(json.dumps(facet_catalog(d), indent=1, sort_keys=True) + "\n")
        print("wrote", path)
    cg3 = cglmp_corr_inequality(3)
    blob = {
        "canonical": inequality_to_json(canonicalize(cg3)),
        "canonical_gauged": inequality_to_json(
            canonicalize(cg3, equations=standard_equations("correlator", 3))
        ),
        "class_representative": inequality_to_json(canonical_class(cg3)),
    }
    path = GOLDEN / "cglmp_corr_d3_canonical.json"
    path.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
