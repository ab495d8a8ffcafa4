"""Command-line surface: every capability, machine-readable by default.

Each ``cmd_*`` returns its result as one JSON document and the lines of
its human-readable summary; progress and notes go to stderr.  ``main`` is
the one printer: it writes the document to stdout, or the summary with
--pretty, and sets the exit code by one rule: 1 exactly when the document
says "ok": false (a verification failed), 0 otherwise (a partial result
under an explicit budget included), 2 for usage errors or malformed input.
A cglmp.VerificationError that a command does not turn into its document
prints no document and exits 1.  There is no randomness anywhere: the same
invocation produces byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import cglmp as cglmp_mod
from . import membership as membership_mod
from .correlators import cglmp_corr_inequality, corr_from_json, corr_to_json, project
from .facets import classify_trivial, enumerate_facets, saturation_count, space_vertices, vrep_of
from .jsonio import decode_int, encode_rational
from .scenario import (
    BLOCKS,
    Scenario,
    _constraint_system,
    behavior_from_json,
    constraint_rank,
    inequality_from_json,
    inequality_to_json,
    polytope_affine_dim,
)
from .symmetry import by_class

# what a command returns: its JSON document and its --pretty lines
Output = tuple[dict, list[str]]


class UsageError(Exception):
    pass


def _parse_d(value: str) -> int:
    try:
        d = decode_int(value)
    except ValueError as exc:
        raise UsageError(f"d must be an integer, got {value!r}") from exc
    if d < 2:
        raise UsageError("d must be at least 2")
    return d


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise UsageError(f"no such file: {path}") from exc
    except OSError as exc:  # a directory, or no permission to read
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, an integer past int()'s digit limit
        raise UsageError(f"malformed JSON in {path}: {exc}") from exc


def cmd_dims(args) -> Output:
    d = _parse_d(args.d)
    s = Scenario(d)
    nrows = len(_constraint_system(d)[0])
    got_rank = constraint_rank(s)
    got_dim = polytope_affine_dim(s)
    ok = got_rank == 4 * d and got_dim == 4 * d * (d - 1)
    payload = {
        "d": d,
        "constraint_rows": nrows,
        "constraint_rank": got_rank,
        "expected_constraint_rank": 4 * d,
        "affine_dim": got_dim,
        "expected_affine_dim": 4 * d * (d - 1),
        "ok": ok,
    }
    return payload, [
        f"scenario d={d}",
        f"  constraint system: {nrows} rows, rank {got_rank} (expected {4*d})",
        f"  affine dimension of the generator hull: {got_dim} (expected {4*d*(d-1)})",
        f"  {'OK' if ok else 'FAILED'}",
    ]


def cmd_verify_cglmp(args) -> Output:
    d = _parse_d(args.d)
    try:
        rep = cglmp_mod.verify_condition1(d)
    except cglmp_mod.VerificationError as exc:
        return {"d": d, "ok": False, "error": str(exc)}, [f"FAILED: {exc}"]
    payload = {
        "d": d,
        "total": rep.total,
        "max": encode_rational(rep.max_value),
        "histogram": {str(encode_rational(k)): v for k, v in rep.histogram.items()},
        "cases": rep.case_histogram,
        "ok": True,
    }
    lines = [f"CGLMP bound over all {rep.total} generators at d={d}: max {rep.max_value}"]
    for value, count in rep.histogram.items():
        lines.append(f"  value {value}: {count} generators")
    lines.append("  coefficient form and f form agree everywhere; OK")
    return payload, lines


def cmd_tightness(args) -> Output:
    d = _parse_d(args.d)
    rep = cglmp_mod.tightness_rank(d)
    payload = {
        "d": d,
        "h": rep.h,
        "saturating": rep.saturating,
        "rank": rep.rank,
        "tight": rep.tight,
    }
    lines = [
        f"tightness at d={d}: {rep.saturating} saturating generators, "
        f"rank {rep.rank} of required {rep.h} -> {'tight' if rep.tight else 'NOT tight'}"
    ]
    ok = rep.tight
    if args.witness and rep.witness_error is None:
        payload["witness_steps"] = [
            {
                "step": b.step_index,
                "scheme": b.scheme,
                "params": list(b.params),
                "vectors": len(b.supports),
                "rank_after": b.rank_after,
            }
            for b in rep.witness
        ]
        for b in rep.witness:
            lines.append(f"  step {b.step_index}: {b.scheme} {b.params} -> rank {b.rank_after}")
    elif args.witness:
        payload["witness_error"] = str(rep.witness_error)
        lines.append(f"  witness FAILED: {rep.witness_error}")
        ok = False
    payload["ok"] = ok
    return payload, lines


def cmd_project(args) -> Output:
    data = _load_json(args.file)
    try:
        if "P" not in data:
            raise UsageError("expected a behavior JSON object with a 'P' table")
        p = behavior_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad behavior file: {exc}") from exc
    c = project(p)
    payload = corr_to_json(c)
    lines = [f"projected correlators (d={c.d}):"]
    for a, b in BLOCKS:
        row = [str(c[(a, b, n)]) for n in range(c.d)]
        lines.append(f"  A{a}B{b}: {row}")
    return payload, lines


def cmd_cglmp(args) -> Output:
    d = _parse_d(args.d)
    ineq = cglmp_corr_inequality(d) if args.space == "corr" else cglmp_mod.cglmp_inequality(d)
    return inequality_to_json(ineq), [
        f"CGLMP inequality at d={d} in {ineq.space} coordinates",
        f"  coefficients: {[str(c) for c in ineq.coeffs]}",
        f"  bound: {ineq.bound}",
    ]


def _facet_json(f, label, **fields) -> dict:
    """The entry of one inequality in the enumerate and classify documents;
    a label of None (no group table) leaves its class null."""
    coeffs = [encode_rational(c) for c in f.coeffs]
    return {"coeffs": coeffs, "bound": encode_rational(f.bound), "class": label, **fields}


def cmd_enumerate(args) -> Output:
    d = _parse_d(args.d)
    space = "correlator" if args.space == "corr" else "behavior"
    if args.budget is not None and not args.budget >= 0:  # refuses nan too
        raise UsageError(f"--budget must be a number of seconds >= 0, got {args.budget}")
    deadline = None if args.budget is None else time.monotonic() + args.budget
    t0 = time.monotonic()
    verts = space_vertices(space, d)
    hrep = enumerate_facets(vrep_of(verts), space=space, d=d, deadline=deadline)
    print(
        f"enumerated {len(hrep.facets)} facets of {len(verts)} vertices "
        f"(dim {hrep.reduced_dim}) in {time.monotonic()-t0:.2f}s",
        file=sys.stderr,
    )
    trivial, labels = by_class(hrep.facets, space, d, classify_trivial)
    if labels is None:
        print("note: the behavior-space symmetry group is too large for d >= 4; "
              "facets emitted without class labels", file=sys.stderr)
    payload = {
        "space": space,
        "d": d,
        "complete": hrep.complete,
        "reduced_dim": hrep.reduced_dim,
        "equations": [
            {"coeffs": [encode_rational(Fraction(x, hrep.equations_den)) for x in w],
             "rhs": encode_rational(Fraction(c, hrep.equations_den))}
            for *w, c in hrep.equations
        ],
        "facets": [
            _facet_json(f, label, trivial=t)
            for f, t, label in zip(hrep.facets, trivial, labels or [None] * len(trivial))
        ],
    }
    lines = [
        f"{space} polytope at d={d}: {len(hrep.facets)} facets"
        + ("" if hrep.complete else " (INCOMPLETE: budget exhausted)"),
        f"  trivial {sum(trivial)}, non-trivial {len(trivial) - sum(trivial)}"
        + (f", symmetry classes {len(set(labels))}" if labels is not None else ""),
    ]
    return payload, lines


def cmd_classify(args) -> Output:
    """Support, saturation count and rank, triviality and class of each
    listed inequality.  The group permutes the vertices and keeps the
    no-signaling polytope, so both checks run once per class, on its first
    member (symmetry.by_class); behavior space at d >= 4 has no classes and
    checks every inequality."""
    data = _load_json(args.file)
    try:
        space = str(data["space"])
        d = decode_int(data["d"])
        if not isinstance(data["facets"], list):
            raise TypeError("'facets' must be a JSON array")
        facets = [
            inequality_from_json({**f, "space": space, "d": d}) for f in data["facets"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad facet list: {exc}") from exc
    if space not in ("behavior", "correlator"):
        raise UsageError(f"unknown space {space!r}")
    if d < 2:
        raise UsageError("bad facet list: need d >= 2")
    width = 4 * d if space == "correlator" else 4 * d * d
    for i, f in enumerate(facets):
        if len(f.coeffs) != width:
            raise UsageError(f"bad facet list: facet {i} has {len(f.coeffs)} coefficients, not {width}")

    def check(q) -> dict:
        try:
            count, rk = saturation_count(q, space_vertices(space, d))
            saturation = {"supporting": True, "saturating": count, "rank": rk}
        except ValueError as exc:
            saturation = {"supporting": False, "error": str(exc)}
        return {"trivial": classify_trivial(q), **saturation}

    try:
        checked, labels = by_class(facets, space, d, check)
    except ValueError as exc:  # an equation on the affine hull has no class
        raise UsageError(f"bad facet list: {exc}") from exc
    entries = [
        _facet_json(f, label, **c) for f, c, label in zip(facets, checked, labels or [None] * len(facets))
    ]
    ok = all(c["supporting"] for c in checked)
    lines = [f"classified {len(facets)} inequalities ({space}, d={d}); ok={ok}"]
    for i, entry in enumerate(entries):
        lines.append(
            f"  #{i}: trivial={entry['trivial']} class={entry['class']} "
            + (f"saturating={entry.get('saturating')} rank={entry.get('rank')}"
               if entry["supporting"] else f"NOT SUPPORTING: {entry.get('error')}")
        )
    return {"space": space, "d": d, "facets": entries, "ok": ok}, lines


def cmd_membership(args) -> Output:
    data = _load_json(args.file)
    try:
        if "P" in data:
            point, decide = behavior_from_json(data), membership_mod.local_decompose
        elif "C" in data:
            point, decide = corr_from_json(data), membership_mod.corr_local_decompose
        else:
            raise UsageError("file is neither a behavior ('P') nor a correlator ('C') object")
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad input: {exc}") from exc
    try:
        res = decide(point)
    except ValueError as exc:  # not a no-signaling probability table
        raise UsageError(f"bad input: {exc}") from exc
    keyfmt = lambda key: ",".join(str(x) for x in key)
    payload = {
        "verdict": "local" if res.local else "nonlocal",
        "weights": None
        if res.weights is None
        else {keyfmt(k): encode_rational(v) for k, v in res.weights.items()},
        "certificate": None if res.certificate is None else inequality_to_json(res.certificate),
        "violation": None if res.violation is None else encode_rational(res.violation),
        "certificate_class": res.certificate_class,
    }
    if res.local:
        lines = [f"local: convex decomposition over {len(res.weights)} strategies"]
        for k, v in res.weights.items():
            lines.append(f"  ({keyfmt(k)}): {v}")
    else:
        lines = [
            "nonlocal: separating inequality found",
            f"  class: {res.certificate_class}",
            f"  violation above the local bound: {res.violation}",
        ]
    return payload, lines


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call: parsing reads it and never changes it."""
    parser = argparse.ArgumentParser(
        prog="bellpoly",
        description="exact local-realistic polytopes, CGLMP certificates and Bell facets",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="human-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", parents=[common], help="constraint rank and affine dimension")
    p.add_argument("d")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify-cglmp", parents=[common], help="exhaustive bound check over all generators")
    p.add_argument("d")
    p.set_defaults(func=cmd_verify_cglmp)

    p = sub.add_parser("tightness", parents=[common], help="saturation rank; --witness adds the staged certificate")
    p.add_argument("d")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_tightness)

    p = sub.add_parser("project", parents=[common], help="behavior JSON to generalized correlators")
    p.add_argument("file")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("cglmp", parents=[common], help="emit the CGLMP inequality")
    p.add_argument("d")
    p.add_argument("--space", choices=["corr", "behavior"], default="corr")
    p.set_defaults(func=cmd_cglmp)

    p = sub.add_parser("enumerate", parents=[common], help="complete facet enumeration")
    p.add_argument("d")
    p.add_argument("--space", choices=["corr", "behavior"], default="corr")
    p.add_argument("--budget", type=float, default=None, metavar="SECONDS")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", parents=[common], help="re-verify and classify a facet list")
    p.add_argument("file")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("membership", parents=[common], help="local-model decision for a behavior or correlator file")
    p.add_argument("file")
    p.set_defaults(func=cmd_membership)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, lines = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except cglmp_mod.VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines) if args.pretty else json.dumps(doc, sort_keys=True, separators=(",", ":")))
    return 0 if doc.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
