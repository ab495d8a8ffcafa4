"""Regenerate the golden facet catalogs shipped with the package.

Freezes under src/bellpoly/golden/ the documents of `bellpoly enumerate 2
--space corr` and `bellpoly enumerate 3 --space corr`, taken from the
command itself, so each catalog is that command's output by construction,
plus the canonical CGLMP forms: scaled to coprime integers, in the
standard gauge of symmetry.gauge_rows, and its class representative.
Deterministic: reruns must be byte-identical.  Run from the repository
root:

    python scripts/make_goldens.py
"""

from __future__ import annotations

import json
import pathlib

from bellpoly.cli import build_parser
from bellpoly.correlators import cglmp_corr_inequality
from bellpoly.facets import canonicalize
from bellpoly.scenario import Inequality, inequality_to_json
from bellpoly.symmetry import canonical_class, gauge_rows

GOLDEN = pathlib.Path(__file__).resolve().parents[1] / "src" / "bellpoly" / "golden"


def facet_catalog(d: int) -> dict:
    """The document that `bellpoly enumerate d --space corr` prints."""
    args = build_parser().parse_args(["enumerate", str(d), "--space", "corr"])
    return args.func(args)[0]


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for d in (2, 3):
        path = GOLDEN / f"corr_facets_d{d}.json"
        path.write_text(json.dumps(facet_catalog(d), indent=1, sort_keys=True) + "\n")
        print("wrote", path)
    cg3 = cglmp_corr_inequality(3)
    *gauged, bound = gauge_rows([cg3])[0].tolist()
    blob = {
        "canonical": inequality_to_json(canonicalize(cg3)),
        "canonical_gauged": inequality_to_json(Inequality("correlator", 3, tuple(gauged), bound)),
        "class_representative": inequality_to_json(canonical_class(cg3)),
    }
    path = GOLDEN / "cglmp_corr_d3_canonical.json"
    path.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
    print("wrote", path)


if __name__ == "__main__":
    main()
