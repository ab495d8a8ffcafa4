"""Seeded inputs, jobs and output checks for the bellpoly benchmark.

A workload is a fixed list of short jobs, which the runner repeats until
its time is up.  Each job is one call into bellpoly's public surface: a
CLI command run in-process through ``bellpoly.cli.main`` or, for
``hull-corr``, the library facet pipeline.  Building a workload writes its
seeded input files; the program sees only those files.

The checks recompute what they compare against (vertices, bounds, tight
sets, reconstructions) and call nothing in bellpoly, so a defect in the
program cannot hide itself.  The facet lists they also compare with are
fixed files: ``golden/corr_facets_d3.json`` of the package and
``data/corr_facets_d4.json`` here, the stdout of ``bellpoly enumerate 4
--space corr``, which ``reference_d4`` checks on every load.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from bellpoly import cli, correlators, facets, symmetry

BLOCKS = ((1, 1), (1, 2), (2, 1), (2, 2))
DATA = Path(__file__).resolve().parent / "data"


class CheckError(Exception):
    """A job's output is wrong."""


@dataclass
class Job:
    name: str
    run: Callable[[], tuple[int, object]]  # timed; returns (exit code, output)
    check: Callable[[object], None]  # untimed; raises CheckError
    text: Callable[[object], str] = str  # the bytes whose sha256 must repeat
    input_file: Path | None = None  # hashed into the job's identity
    span: str = "cli"  # name of the job's root span when traced
    # Speed probes (run.PROBES) that do the kind of work this job mostly
    # does; its latency is scaled by them.
    probes: tuple[str, ...] = ("rational",)


@dataclass
class Workload:
    name: str
    jobs: list[Job]


def cli_job(argv: list[str], check, *, input_file=None, probes=("rational",)) -> Job:
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()

    shown = [input_file.name if input_file is not None and a == str(input_file) else a for a in argv]
    return Job(" ".join(shown), run, check, input_file=input_file, probes=probes)


def ensure(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def rational(v) -> Fraction:
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise CheckError(f"not an exact rational: {v!r}")
    return Fraction(v)


def enc(q: Fraction):
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------- geometry
# Coordinates follow the package's file formats: behavior entry P(k, s | a, b)
# sits at ((a-1)*2 + (b-1))*d*d + k*d + s, correlator entry C_ab(n) with
# n = A_a - B_b mod d at ((a-1)*2 + (b-1))*d + n.


def strategies(d: int):
    return itertools.product(range(d), repeat=4)  # (a1, a2, b1, b2)


def strategy_outcomes(lam):
    a1, a2, b1, b2 = lam
    return {(1, 1): (a1, b1), (1, 2): (a1, b2), (2, 1): (a2, b1), (2, 2): (a2, b2)}


def behavior_vertex(lam, d: int) -> tuple[int, ...]:
    v = [0] * (4 * d * d)
    for blk, (a, b) in enumerate(BLOCKS):
        k, s = strategy_outcomes(lam)[(a, b)]
        v[blk * d * d + k * d + s] = 1
    return tuple(v)


def corr_vertex(lam, d: int) -> tuple[int, ...]:
    v = [0] * (4 * d)
    for blk, (a, b) in enumerate(BLOCKS):
        k, s = strategy_outcomes(lam)[(a, b)]
        v[blk * d + (k - s) % d] = 1
    return tuple(v)


@functools.lru_cache(maxsize=None)
def corr_vertices(d: int) -> list[tuple[int, ...]]:
    return sorted({corr_vertex(lam, d) for lam in strategies(d)})


def dot(coeffs, x) -> Fraction:
    return sum((c * v for c, v in zip(coeffs, x) if c and v), Fraction(0))


def cglmp_corr(d: int) -> list[Fraction]:
    """CGLMP I_d <= 2 written in correlators, from its textbook definition."""
    co = [Fraction(0)] * (4 * d)

    def at(a, b, n):
        return ((a - 1) * 2 + (b - 1)) * d + n % d

    for k in range(d // 2):
        w = 1 - Fraction(2 * k, d - 1)
        for a, b, n in ((1, 1, k), (2, 1, -k - 1), (2, 2, k), (1, 2, -k)):
            co[at(a, b, n)] += w
        for a, b, n in ((1, 1, -k - 1), (2, 1, k), (2, 2, -k - 1), (1, 2, k + 1)):
            co[at(a, b, n)] -= w
    return co


def tight_set(coeffs, bound, verts) -> frozenset:
    return frozenset(i for i, v in enumerate(verts) if dot(coeffs, v) == bound)


def check_facets_valid(facets, verts, dim: int) -> None:
    """Each facet holds on every vertex and is tight on at least dim of them."""
    for i, (coeffs, bound) in enumerate(facets):
        tight = 0
        for v in verts:
            val = dot(coeffs, v)
            ensure(val <= bound, f"facet #{i} is violated by vertex {v}")
            tight += val == bound
        ensure(tight >= dim, f"facet #{i} is tight on {tight} vertices, fewer than {dim}")


def partition(labels) -> set[frozenset]:
    groups: dict = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return {frozenset(g) for g in groups.values()}


def positivity_tight_sets(verts) -> set[frozenset]:
    """Tight sets of the trivial inequalities x_j >= 0 (C_ab(n) >= 0 or
    P(k, s | a, b) >= 0)."""
    return {frozenset(i for i, v in enumerate(verts) if not v[j]) for j in range(len(verts[0]))}


def facet_key(f: dict) -> tuple:
    return tuple(f["coeffs"]), f["bound"]


def check_facet_list(got: dict, ref: dict, verts) -> None:
    """got lists the same facets as ref, each valid and tight on at least
    reduced_dim vertices, with ref's class partition and, where got says
    which facets are trivial, the positivity constraints as trivial."""
    ensure(got["complete"] is True, "enumeration is not complete")
    ensure(got["reduced_dim"] == ref["reduced_dim"], f"reduced_dim {got['reduced_dim']}")
    listed = got["facets"]
    by_key = {facet_key(f): f for f in ref["facets"]}
    ensure(len(listed) == len(by_key) and {facet_key(f) for f in listed} == set(by_key),
           f"{len(listed)} facets, not the {len(by_key)} of the reference list")
    parsed = [([rational(c) for c in f["coeffs"]], rational(f["bound"])) for f in listed]
    check_facets_valid(parsed, verts, got["reduced_dim"])
    trivial_sets = positivity_tight_sets(verts)
    for i, (f, (co, b)) in enumerate(zip(listed, parsed)):
        if "trivial" in f:
            ensure(f["trivial"] == (tight_set(co, b, verts) in trivial_sets), f"facet #{i}: triviality is wrong")
    ensure(partition([f["class"] for f in listed]) == partition([by_key[facet_key(f)]["class"] for f in listed]),
           "symmetry classes differ from the reference list")


@functools.lru_cache(maxsize=None)
def reference_d4() -> dict:
    return json.loads((DATA / "corr_facets_d4.json").read_text())


@functools.lru_cache(maxsize=None)
def check_reference_d4() -> None:
    """Check data/corr_facets_d4.json, once per process and outside set-up:
    216 facets valid on the 64 vertices, the 16 trivial ones the positivity
    constraints, one with the tight set of CGLMP, one class of trivial
    facets and three others."""
    ref = reference_d4()
    verts = corr_vertices(4)
    check_facet_list(ref, ref, verts)
    listed = ref["facets"]
    ensure(len(listed) == 216 and sum(f["trivial"] for f in listed) == 16,
           "data/corr_facets_d4.json: not 216 facets with 16 trivial")
    triv = {f["class"] for f in listed if f["trivial"]}
    other = {f["class"] for f in listed if not f["trivial"]}
    ensure(len(triv) == 1 and len(other) == 3 and not triv & other, "data/corr_facets_d4.json: classes")
    target = tight_set(cglmp_corr(4), 2, verts)
    hits = [f for f in listed if tight_set([rational(c) for c in f["coeffs"]], rational(f["bound"]), verts) == target]
    ensure(len(hits) == 1 and not hits[0]["trivial"], "data/corr_facets_d4.json: no CGLMP facet")


@functools.lru_cache(maxsize=None)
def behavior_vertices(d: int) -> list[tuple[int, ...]]:
    return sorted({behavior_vertex(lam, d) for lam in strategies(d)})


# ------------------------------------------------------------ catalog-corr
# Each classify job gets seeded facets of the d=4 list in a fixed mix: 3 of
# the largest non-trivial class, 2 of the next one and 1 trivial facet.  A
# facet costs a triviality LP and a saturation count, a class one orbit in
# label_classes, so every job costs the same whatever the seed; the LPs and
# the orbits take about half of it each.
CLASSIFY_JOBS = 4
CLASSIFY_MIX = (3, 2)


def catalog_corr(seed: int, workdir: Path, root: Path) -> Workload:
    golden_d2 = json.loads((root / "src/bellpoly/golden/corr_facets_d2.json").read_text())
    ref = reference_d4()
    rng = random.Random(f"{seed}:classify")

    def check_corr_d2(out):
        ensure(json.loads(out) == golden_d2, "d=2 facet list differs from golden/corr_facets_d2.json")

    def check_behavior_d2(out):
        """The CHSH polytope: 16 positivity facets in one class and the 8
        CHSH facets in another, each valid and tight on at least 8 of the
        16 deterministic behaviors."""
        got = json.loads(out)
        listed = got["facets"]
        ensure(got["complete"] is True and got["reduced_dim"] == 8, "behavior d=2: not complete or not 8-dimensional")
        ensure(len(listed) == 24 and sum(f["trivial"] for f in listed) == 16,
               f"behavior d=2: {len(listed)} facets, {sum(f['trivial'] for f in listed)} trivial")
        check_facet_list(got, {"reduced_dim": 8, "facets": listed}, behavior_vertices(2))
        ensure(partition([f["class"] for f in listed]) == partition([f["trivial"] for f in listed]),
               "behavior d=2: classes are not {positivity} and {CHSH}")

    def check_classify(sample):
        def check(out):
            check_reference_d4()
            got = json.loads(out)
            verts4 = corr_vertices(4)
            trivial_sets = positivity_tight_sets(verts4)
            ensure(got["ok"] is True, "classify reports ok=false")
            ensure([facet_key(f) for f in got["facets"]] == [facet_key(f) for f in sample],
                   "classify did not return the input facets in input order")
            for i, f in enumerate(got["facets"]):
                co, b = [rational(c) for c in f["coeffs"]], rational(f["bound"])
                tight = tight_set(co, b, verts4)
                ensure(f["supporting"] is True, f"facet #{i} not supporting")
                ensure(f["rank"] == ref["reduced_dim"], f"facet #{i} has rank {f['rank']}")
                ensure(f["saturating"] == len(tight), f"facet #{i}: saturating count is wrong")
                ensure(f["trivial"] == (tight in trivial_sets), f"facet #{i}: triviality is wrong")
            ensure(partition([f["class"] for f in got["facets"]]) == partition([f["class"] for f in sample]),
                   "symmetry classes differ from the reference list")
        return check

    by_class: dict = {}
    for f in ref["facets"]:
        by_class.setdefault(f["class"], []).append(f)
    nontrivial = sorted((c for c in by_class.values() if not c[0]["trivial"]), key=len, reverse=True)
    trivial = [f for c in by_class.values() if c[0]["trivial"] for f in c]
    jobs = [cli_job(["enumerate", "2", "--space", "corr"], check_corr_d2),
            cli_job(["enumerate", "2", "--space", "behavior"], check_behavior_d2)]
    for k in range(CLASSIFY_JOBS):
        sample = [f for n, cls in zip(CLASSIFY_MIX, nontrivial) for f in rng.sample(cls, n)]
        sample += rng.sample(trivial, 1)
        rng.shuffle(sample)
        path = workdir / f"classify{k}.json"
        path.write_text(json.dumps({"space": ref["space"], "d": ref["d"],
                                    "facets": [{"coeffs": f["coeffs"], "bound": f["bound"]} for f in sample]}))
        jobs.append(cli_job(["classify", str(path)], check_classify(sample), input_file=path))
    return Workload("catalog-corr", jobs)


# ---------------------------------------------------------------- hull-corr


def hull_job(d: int, ref: dict, seed: int) -> Job:
    order = list(range(d**3))
    random.Random(f"{seed}:hull{d}").shuffle(order)

    # Called through the modules so that a tracer's wrappers are seen.
    def run():
        gens = correlators.projected_generators(d)
        hrep = facets.enumerate_facets(facets.vrep_of([gens[i] for i in order]), space="correlator", d=d)
        labels, _reps = symmetry.label_classes(hrep.facets)
        return 0, (hrep, labels)

    def listing(out) -> dict:
        hrep, labels = out
        return {
            "complete": hrep.complete, "d": d, "reduced_dim": hrep.reduced_dim,
            "facets": [{"coeffs": [enc(c) for c in f.coeffs], "bound": enc(f.bound), "class": lab}
                       for f, lab in zip(hrep.facets, labels)],
        }

    def text(out):
        hrep, labels = out
        return json.dumps({"complete": hrep.complete, "reduced_dim": hrep.reduced_dim,
                           "facets": [[[enc(c) for c in f.coeffs], enc(f.bound), lab]
                                      for f, lab in zip(hrep.facets, labels)]})

    def check(out):
        if d == 4:
            check_reference_d4()
        check_facet_list(listing(out), ref, corr_vertices(d))

    name = f"label_classes(enumerate_facets(vrep_of(projected_generators({d}))))"
    return Job(name, run, check, text=text, span="pipeline")


def hull_corr(seed: int, workdir: Path, root: Path) -> Workload:
    golden_d3 = json.loads((root / "src/bellpoly/golden/corr_facets_d3.json").read_text())
    return Workload("hull-corr", [hull_job(3, golden_d3, seed), hull_job(4, reference_d4(), seed)])


# ----------------------------------------------------------- membership-mix
# Query mix per round: (space, d, mixtures, PR-like boxes).  Mixtures of
# deterministic strategies are local by construction.  A box
# v*PR + (1-v)*uniform with v >= 3/4 is nonlocal for d <= 4: a deterministic
# strategy meets at most three of the four difference conditions, while the
# box scores 4v + 4(1-v)/d > 3 once v > (3d-4)/(4d-4), which is <= 2/3.
# The counts are chosen for steady percentiles, not taken from measured
# use: p50 falls inside the behavior d=2 mixtures and p90 among the
# correlator d=3 boxes, so the percentiles do not jump between classes from
# seed to seed.  Behavior d=3 boxes (about 10 s each, nearly all of it in
# symmetry.equivalent) and correlator d=4 boxes (about 1.3 s) are left out:
# one would take a large share of a round and leave too few repeats per run.
MEMBERSHIP_MIX = (
    ("behavior", 2, 56, 16),
    ("behavior", 3, 4, 0),
    ("correlator", 3, 10, 12),
    ("correlator", 4, 4, 0),
)


def _mixture(rng, space, d):
    m = rng.randint(3, 6)
    raw = [rng.randint(1, 9) for _ in range(m)]
    weights = [Fraction(x, sum(raw)) for x in raw]
    vertex = behavior_vertex if space == "behavior" else corr_vertex
    coords = [Fraction(0)] * (4 * d * d if space == "behavior" else 4 * d)
    for w in weights:
        lam = tuple(rng.randrange(d) for _ in range(4))
        for i, x in enumerate(vertex(lam, d)):
            if x:
                coords[i] += w
    return coords


def _pr_box(rng, space, d):
    """v*PR + (1-v)*uniform, PR demanding difference t_ab on block ab with
    t_11 - t_12 - t_21 + t_22 != 0 mod d, which no strategy can meet."""
    t11, t12, t21 = (rng.randrange(d) for _ in range(3))
    t22 = (t21 + t12 - t11 + rng.randrange(1, d)) % d
    targets = (t11, t12, t21, t22)
    v = Fraction(rng.randint(75, 99), 100)
    coords = []
    for blk in range(4):
        if space == "behavior":
            for k in range(d):
                for s in range(d):
                    coords.append(v * Fraction(int((k - s) % d == targets[blk]), d) + (1 - v) / (d * d))
        else:
            for n in range(d):
                coords.append(v * (n == targets[blk]) + (1 - v) / d)
    return coords


def _query_json(space, d, coords):
    if space == "behavior":
        return {"d": d, "P": {
            f"a{a}b{b}": [[enc(coords[blk * d * d + k * d + s]) for s in range(d)] for k in range(d)]
            for blk, (a, b) in enumerate(BLOCKS)}}
    return {"d": d, "C": {
        f"a{a}b{b}": [enc(coords[blk * d + n]) for n in range(d)] for blk, (a, b) in enumerate(BLOCKS)}}


@functools.lru_cache(maxsize=None)
def generator_columns(space: str, d: int) -> dict[str, tuple[int, ...]]:
    """Generators keyed as membership names them in its weights."""
    if space == "behavior":
        return {",".join(map(str, lam)): behavior_vertex(lam, d) for lam in strategies(d)}
    columns = {}
    for lam in strategies(d):
        v = corr_vertex(lam, d)
        diffs = [v[blk * d:(blk + 1) * d].index(1) for blk in range(4)]
        columns[",".join(map(str, diffs))] = v
    return columns


def _membership_check(space, d, coords, expect_local):
    def check(out):
        columns = generator_columns(space, d)
        got = json.loads(out)
        verdict = "local" if expect_local else "nonlocal"
        ensure(got["verdict"] == verdict, f"verdict {got['verdict']}, expected {verdict}")
        if expect_local:
            recon = [Fraction(0)] * len(coords)
            total = Fraction(0)
            for key, w in got["weights"].items():
                w = rational(w)
                ensure(key in columns and w > 0, f"bad weight {key}: {w}")
                total += w
                for i, x in enumerate(columns[key]):
                    if x:
                        recon[i] += w
            ensure(total == 1 and recon == coords, "weights do not reconstruct the query")
            return
        cert = got["certificate"]
        ensure(cert["space"] == space and cert["d"] == d, "certificate lives in another space")
        co, bound = [rational(c) for c in cert["coeffs"]], rational(cert["bound"])
        ensure(max(dot(co, g) for g in columns.values()) == bound, "certificate bound is not the generator maximum")
        violation = dot(co, coords) - bound
        ensure(violation > 0 and violation == rational(got["violation"]),
               f"violation {got['violation']} does not recompute ({violation})")

    return check


def membership_mix(seed: int, workdir: Path, root: Path) -> Workload:
    rng = random.Random(f"{seed}:membership")
    queries = []
    for space, d, n_mix, n_box in MEMBERSHIP_MIX:
        queries += [(space, d, True) for _ in range(n_mix)]
        queries += [(space, d, False) for _ in range(n_box)]
    rng.shuffle(queries)
    jobs = []
    for i, (space, d, local) in enumerate(queries):
        coords = _mixture(rng, space, d) if local else _pr_box(rng, space, d)
        path = workdir / f"q{i:03d}-{space}{d}-{'mix' if local else 'box'}.json"
        path.write_text(json.dumps(_query_json(space, d, coords)))
        jobs.append(cli_job(["membership", str(path)], _membership_check(space, d, coords, local),
                            input_file=path))
    return Workload("membership-mix", jobs)


# ---------------------------------------------------------------- certify-d


def _check_dims(d):
    def check(out):
        got = json.loads(out)
        ensure(got["ok"] is True, f"dims {d}: ok=false")
        ensure(got["constraint_rank"] == 4 * d, f"dims {d}: constraint rank {got['constraint_rank']}")
        ensure(got["affine_dim"] == 4 * d * (d - 1), f"dims {d}: affine dim {got['affine_dim']}")
    return check


def _check_verify(d):
    def check(out):
        got = json.loads(out)
        ensure(got["ok"] is True and rational(got["max"]) == 2, f"verify-cglmp {d}: max {got.get('max')}")
        ensure(got["total"] == d**4 and sum(got["histogram"].values()) == d**4
               and sum(got["cases"].values()) == d**4, f"verify-cglmp {d}: totals are not {d**4}")
    return check


def _check_tightness(d):
    def check(out):
        got = json.loads(out)
        h = 4 * d * (d - 1)
        ensure(got["ok"] is True and got["tight"] is True, f"tightness {d}: not tight")
        ensure(got["rank"] == h == got["h"], f"tightness {d}: rank {got['rank']}, expected {h}")
        steps = got["witness_steps"]
        ensure([s["rank_after"] for s in steps] == [4 * d * (i + 1) for i in range(d - 1)],
               f"tightness {d}: witness ranks do not grow by {4 * d} per batch")
    return check


def certify_d(seed: int, workdir: Path, root: Path) -> Workload:
    # Only d is input here, so the seed changes nothing.  dims is numpy
    # int64 elimination, verify-cglmp pure-Python loops, and tightness both.
    return Workload("certify-d", [
        cli_job(["dims", "7"], _check_dims(7), probes=("int64",)),
        cli_job(["dims", "8"], _check_dims(8), probes=("int64",)),
        cli_job(["verify-cglmp", "12"], _check_verify(12)),
        cli_job(["tightness", "12", "--witness"], _check_tightness(12), probes=("rational", "int64")),
    ])


BUILDERS = {
    "catalog-corr": catalog_corr,
    "hull-corr": hull_corr,
    "membership-mix": membership_mix,
    "certify-d": certify_d,
}
