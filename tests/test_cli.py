import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import bellpoly
from bellpoly.cli import build_parser, main
from bellpoly.correlators import corr_to_json, project
from bellpoly.facets import saturation_count, space_vertices
from bellpoly.jsonio import decode_rational, encode_rational
from bellpoly.scenario import behavior_to_json, inequality_from_json, uniform_behavior

from test_membership import pr_box

ENUMERATE_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "enumerate_stdout_sha256.json").read_text()
)["stdout"]
SLOW_ENUMERATE = ("enumerate 5 --space corr", "enumerate 3 --space behavior")
CLASSIFY_STDOUT = json.loads(
    (Path(__file__).parent / "data" / "classify_stdout_sha256.json").read_text()
)["stdout"]
SLOW_CLASSIFY = ("correlator 5 enumerate",)
GOLDEN = Path(bellpoly.__file__).parent / "golden"
REFERENCE_D4 = Path(__file__).parents[1] / "perfbench" / "data" / "corr_facets_d4.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_cached_parser_carries_nothing_between_calls(tmp_path, capsys):
    # main reuses one parser, so a flag or default of one call must not
    # reach the next: each call prints what a fresh process prints
    path = tmp_path / "pr.json"
    path.write_text(json.dumps(behavior_to_json(pr_box())))
    src = str(Path(bellpoly.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    codes = []
    for argv in (["enumerate", "2", "--pretty"], ["enumerate", "2"], ["dims", "x"], ["membership", str(path)]):
        fresh = subprocess.run(
            [sys.executable, "-m", "bellpoly.cli", *argv], capture_output=True, text=True, env=env, timeout=300
        )
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout)
        codes.append(fresh.returncode)
    assert codes == [0, 0, 2, 0]
    assert build_parser() is build_parser()


def test_dims(capsys):
    code, data = run_json(capsys, "dims", "3")
    assert code == 0
    assert data["constraint_rank"] == 12
    assert data["affine_dim"] == 24
    assert data["ok"]


def test_verify_cglmp(capsys):
    code, data = run_json(capsys, "verify-cglmp", "3")
    assert code == 0
    assert data["max"] == 2
    assert data["histogram"] == {"2": 30, "-1": 48, "-4": 3}


def test_tightness_with_witness(capsys):
    code, data = run_json(capsys, "tightness", "5", "--witness")
    assert code == 0
    assert data["rank"] == 80
    assert data["tight"]
    steps = data["witness_steps"]
    assert len(steps) == 4
    assert all(s["vectors"] == 20 for s in steps)
    assert [s["rank_after"] for s in steps] == [20, 40, 60, 80]


def test_project_and_membership_roundtrip(tmp_path, capsys):
    path = tmp_path / "uniform.json"
    path.write_text(json.dumps(behavior_to_json(uniform_behavior(2))))
    code, data = run_json(capsys, "project", str(path))
    assert code == 0
    assert data["C"]["a1b1"] == ["1/2", "1/2"]
    code, verdict = run_json(capsys, "membership", str(path))
    assert code == 0
    assert verdict["verdict"] == "local"
    assert verdict["certificate"] is None


def test_membership_nonlocal(tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(behavior_to_json(pr_box())))
    code, verdict = run_json(capsys, "membership", str(path))
    assert code == 0
    assert verdict["verdict"] == "nonlocal"
    assert verdict["certificate_class"] == "cglmp"
    assert Fraction(str(verdict["violation"])) > 0


def test_membership_correlator_file(tmp_path, capsys):
    from bellpoly.correlators import corr_to_json, project

    path = tmp_path / "corr.json"
    path.write_text(json.dumps(corr_to_json(project(pr_box()))))
    code, verdict = run_json(capsys, "membership", str(path))
    assert code == 0
    assert verdict["verdict"] == "nonlocal"
    assert verdict["certificate"]["space"] == "correlator"
    assert verdict["certificate_class"] == "cglmp"


def test_enumerate_behavior_space_d2(capsys):
    code, data = run_json(capsys, "enumerate", "2", "--space", "behavior")
    assert code == 0
    assert data["space"] == "behavior"
    assert len(data["facets"]) == 24
    assert sum(f["trivial"] for f in data["facets"]) == 16


def test_cglmp_emission(capsys):
    code, data = run_json(capsys, "cglmp", "2", "--space", "corr")
    assert code == 0
    assert data["space"] == "correlator"
    assert data["coeffs"] == [1, -1, 1, -1, -1, 1, 1, -1]
    assert data["bound"] == 2
    code, data = run_json(capsys, "cglmp", "3", "--space", "behavior")
    assert code == 0
    assert len(data["coeffs"]) == 36


def test_enumerate_matches_golden_d2(capsys):
    import importlib.resources as resources

    code, data = run_json(capsys, "enumerate", "2", "--space", "corr")
    assert code == 0
    golden = json.loads(
        resources.files("bellpoly").joinpath("golden/corr_facets_d2.json").read_text()
    )
    assert data["facets"] == golden["facets"]
    assert data["complete"] is True


@pytest.mark.parametrize("d, argv", [(2, ["enumerate", "2"]), (3, ["enumerate", "3", "--space", "corr"])])
def test_enumerate_prints_the_golden_catalog(capsys, d, argv):
    # make_goldens.py writes the document this command returns
    code, data = run_json(capsys, *argv)
    assert code == 0
    assert data == json.loads((GOLDEN / f"corr_facets_d{d}.json").read_text())


def test_exit_code_follows_the_document(tmp_path, capsys):
    # main prints every document and exits 1 exactly when it says "ok":
    # false, 0 otherwise, with --pretty or without
    behavior = tmp_path / "uniform.json"
    behavior.write_text(json.dumps(behavior_to_json(uniform_behavior(2))))
    supported = tmp_path / "supported.json"
    supported.write_text((GOLDEN / "corr_facets_d2.json").read_text())
    aloof = tmp_path / "aloof.json"  # touches no vertex
    aloof.write_text(json.dumps({"space": "correlator", "d": 2, "facets": [{"coeffs": [1] + [0] * 7, "bound": 5}]}))
    codes = {}
    for argv in (
        ["dims", "3"],
        ["verify-cglmp", "3"],
        ["tightness", "3", "--witness"],
        ["project", str(behavior)],
        ["cglmp", "3"],
        ["enumerate", "2"],
        ["classify", str(supported)],
        ["classify", str(aloof)],
        ["membership", str(behavior)],
    ):
        code, doc = run_json(capsys, *argv)
        assert code == (0 if doc.get("ok", True) else 1), argv
        pretty_code, pretty = run(capsys, *argv, "--pretty")
        assert pretty_code == code and pretty.strip() and not pretty.startswith("{"), argv
        codes[" ".join(argv[:1] + [Path(a).name for a in argv[1:]])] = code
    assert codes["classify aloof.json"] == 1
    assert sum(codes.values()) == 1


def test_classify_roundtrip(tmp_path, capsys):
    code, out = run(capsys, "enumerate", "2", "--space", "corr")
    path = tmp_path / "facets.json"
    path.write_text(out)
    code, data = run_json(capsys, "classify", str(path))
    assert code == 0
    assert data["ok"]
    assert all(f["supporting"] for f in data["facets"])


def test_classify_flags_bad_inequality(tmp_path, capsys):
    code, out = run(capsys, "enumerate", "2", "--space", "corr")
    doc = json.loads(out)
    doc["facets"][0]["bound"] = "-100"  # now violated by every vertex
    path = tmp_path / "facets.json"
    path.write_text(json.dumps(doc))
    code, data = run_json(capsys, "classify", str(path))
    assert code == 1
    assert not data["ok"]
    assert not data["facets"][0]["supporting"]


def test_enumerate_4_matches_reference_list(capsys):
    # the d=4 correlator list the benchmark checks its classify inputs against
    code, out = run(capsys, "enumerate", "4", "--space", "corr")
    assert code == 0
    assert out == REFERENCE_D4.read_text() + "\n"


def _classify_error(tmp_path, capsys, doc):
    path = tmp_path / "facets.json"
    path.write_text(json.dumps(doc))
    code = main(["classify", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: bad facet list: ")
    return captured.err


def test_classify_rejects_d_below_2(tmp_path, capsys):
    doc = {"space": "correlator", "d": 1, "facets": [{"coeffs": [1, 0, 0, 0], "bound": 1}]}
    assert "d >= 2" in _classify_error(tmp_path, capsys, doc)


def test_classify_rejects_wrong_coefficient_count(tmp_path, capsys):
    doc = {"space": "correlator", "d": 2, "facets": [{"coeffs": [1, -1, 1, -1, -1, 1], "bound": 2}]}
    assert "6 coefficients, not 8" in _classify_error(tmp_path, capsys, doc)


@pytest.mark.parametrize(
    "facets", [{}, {"coeffs": [1] * 8, "bound": 1}, "", None, 0], ids=["empty-object", "object", "string", "null", "number"]
)
def test_classify_rejects_a_facet_list_that_is_not_an_array(tmp_path, capsys, facets):
    # iterating an object, an empty string or a string of facets would read
    # as a list; "facets": [] is the empty list (no_facets_builds_no_vertices)
    doc = {"space": "correlator", "d": 2, "facets": facets}
    assert "'facets' must be a JSON array" in _classify_error(tmp_path, capsys, doc)


@pytest.mark.parametrize("coeffs,bound", [([1, 1, 0, 0, 0, 0, 0, 0], 1), ([0] * 8, 0)])
def test_classify_rejects_equations_on_the_hull(tmp_path, capsys, coeffs, bound):
    doc = {"space": "correlator", "d": 2, "facets": [{"coeffs": coeffs, "bound": bound}]}
    assert "constant slack" in _classify_error(tmp_path, capsys, doc)


@pytest.mark.parametrize("d", [3, 4])
def test_classify_rejects_hull_equations_with_or_without_a_group(tmp_path, capsys, d):
    # the block-a1b1 normalization row; behavior d=4 has no group table
    coeffs = [1] * (d * d) + [0] * (3 * d * d)
    doc = {"space": "behavior", "d": d, "facets": [{"coeffs": coeffs, "bound": 1}]}
    assert "constant slack" in _classify_error(tmp_path, capsys, doc)


def test_classify_reads_space_and_d_from_the_list_only(tmp_path, capsys):
    # a facet's own space and d keys are not part of the format and change nothing
    facet = {"coeffs": [0, 0, 0, 1, -1, -1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0], "bound": 3}
    outs = []
    for extra in ({}, {"space": "behavior", "d": 2}):
        path = tmp_path / "facets.json"
        path.write_text(json.dumps({"space": "correlator", "d": 4, "facets": [{**facet, **extra}]}))
        outs.append(run(capsys, "classify", str(path)))
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert json.loads(outs[0][1])["facets"][0]["trivial"] is False


@pytest.mark.parametrize("space", ["correlator", "behavior"])
def test_classify_of_no_facets_builds_no_vertices(tmp_path, capsys, space):
    d = 10**18
    path = tmp_path / "facets.json"
    path.write_text(json.dumps({"space": space, "d": d, "facets": []}))
    assert run_json(capsys, "classify", str(path)) == (0, {"d": d, "facets": [], "ok": True, "space": space})


def test_budget_exhaustion_reports_incomplete(capsys):
    code, data = run_json(capsys, "enumerate", "4", "--space", "corr", "--budget", "0")
    assert code == 0
    assert data["complete"] is False


def test_budget_applies_below_d4(capsys):
    code, data = run_json(capsys, "enumerate", "3", "--space", "corr", "--budget", "0")
    assert code == 0
    assert data["complete"] is False


@pytest.mark.parametrize("budget", ["nan", "-1", "--budget=-inf"])
def test_budget_below_zero_or_nan_is_refused(capsys, budget):
    flags = [budget] if budget.startswith("--") else ["--budget", budget]
    assert main(["enumerate", "3", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --budget")


def test_infinite_budget_is_no_budget(capsys):
    code, data = run_json(capsys, "enumerate", "3", "--space", "corr", "--budget", "inf")
    assert code == 0
    assert data["complete"] is True


def test_byte_identical_output(capsys):
    _, out1 = run(capsys, "verify-cglmp", "4")
    _, out2 = run(capsys, "verify-cglmp", "4")
    assert out1 == out2
    _, out1 = run(capsys, "enumerate", "3", "--space", "corr")
    _, out2 = run(capsys, "enumerate", "3", "--space", "corr")
    assert out1 == out2


def test_pretty_mode(capsys):
    code, out = run(capsys, "dims", "2", "--pretty")
    assert code == 0
    assert "constraint system" in out


def test_usage_errors(capsys, tmp_path):
    assert main(["dims", "1"]) == 2
    # d is read as decimal digits only, not as everything int() accepts
    capsys.readouterr()
    for d in ("1_0", " 2 ", "+2", "\u0662", "2.0"):
        assert main(["dims", d]) == 2, d
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: d must be an integer"), d
    assert main(["membership", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["membership", str(bad)]) == 2
    with pytest.raises(SystemExit) as err:
        main(["nosuchcommand"])
    assert err.value.code == 2


def test_malformed_behavior_rejected(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"d": 2, "P": {"a1b1": [[1]], "a1b2": [[1]], "a2b1": [[1]], "a2b2": [[1]]}}))
    assert main(["membership", str(path)]) == 2
    # floats are refused: exactness must survive serialization
    path2 = tmp_path / "floats.json"
    blob = behavior_to_json(uniform_behavior(2))
    blob["P"]["a1b1"][0][0] = 0.25
    path2.write_text(json.dumps(blob))
    assert main(["membership", str(path2)]) == 2
    # a missing or null d, rows that are not lists, d < 2 and a bare number
    # exit 2 with an error line, never a traceback or a verdict
    capsys.readouterr()
    rows = {f"a{a}b{b}": [1, 2] for a in (1, 2) for b in (1, 2)}
    d1_corr = {f"a{a}b{b}": ["1"] for a in (1, 2) for b in (1, 2)}
    d1_behavior = {f"a{a}b{b}": [["1"]] for a in (1, 2) for b in (1, 2)}
    cases = [
        (("membership", "project"), {"P": {}}),
        (("membership",), {"d": None, "C": {}}),
        (("membership", "project"), {"d": 2, "P": rows}),
        (("membership",), {"d": 1, "C": d1_corr}),
        (("membership", "project"), {"d": 1, "P": d1_behavior}),
        (("membership", "project"), 5),
    ]
    # blocks of the wrong shape: ragged, a level too deep, a correlator
    # block of length d - 1 or of nested lists, a string or an object
    behavior, corr = behavior_to_json(uniform_behavior(3)), corr_to_json(project(uniform_behavior(3)))
    for block in ([["1/9"] * 3, ["1/9"] * 3, ["1/9"] * 2], [[["1/9"]] * 3] * 3, "1/9", {"k": "1/9"}):
        cases.append((("membership", "project"), {**behavior, "P": {**behavior["P"], "a2b1": block}}))
    for block in (["1/3"] * 2, [["1/3"]] * 3, "1/3", {"n": "1/3"}):
        cases.append((("membership",), {**corr, "C": {**corr["C"], "a2b1": block}}))
    # a huge d with 1x1 blocks is refused by its block shapes before any
    # coordinate is allocated
    cases.append((("membership", "project"), {"d": 10**18, "P": d1_behavior}))
    cases.append((("membership",), {"d": 10**18, "C": d1_corr}))
    # a zero denominator in any rational field: behavior, correlator, facet
    zero_den = behavior_to_json(uniform_behavior(2))
    zero_den["P"]["a1b1"][0][0] = "1/0"
    cases.append((("membership", "project"), zero_den))
    zero_den = corr_to_json(project(uniform_behavior(2)))
    zero_den["C"]["a1b1"][0] = "1/0"
    cases.append((("membership",), zero_den))
    for field in ("coeffs", "bound"):
        facet = {"coeffs": [0, 1, 0, 1, 0, 1, 0, -1], "bound": 2}
        facet[field] = ["1/0"] * 8 if field == "coeffs" else "-3/0"
        cases.append((("classify",), {"space": "correlator", "d": 2, "facets": [facet]}))
    for commands, bad in cases:
        path.write_text(json.dumps(bad))
        for command in commands:
            assert main([command, str(path)]) == 2, (command, bad)
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
    # files that cannot be read as JSON text: an integer literal past int()'s
    # digit limit (where the Python has one), bytes that are not UTF-8, and
    # a directory
    huge, latin1 = tmp_path / "huge.json", tmp_path / "latin1.json"
    huge.write_text('{"d": 2, "P": ' + "9" * 5000 + "}")
    latin1.write_bytes(b'{"d": "\xe9"}')
    for unreadable in (huge, latin1, tmp_path):
        for command in ("membership", "project", "classify"):
            assert main([command, str(unreadable)]) == 2, (command, unreadable)
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(key, marks=pytest.mark.slow) if key.startswith(SLOW_ENUMERATE) else key
        for key in ENUMERATE_STDOUT
    ],
)
def test_enumerate_stdout_is_byte_identical(capsys, argv):
    code, out = run(capsys, *argv.split())
    got = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    assert got == ENUMERATE_STDOUT[argv]


def stdout_of(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def classify_input(name: str) -> dict:
    """The facet list named "<space> <d> <kind>", seeded by its name: a
    golden or reference list, the output of enumerate, a shuffled sample of
    the d=4 reference list with repeated facets, or a golden list with one
    bound lowered so that the facet is violated by a vertex."""
    space, d, kind = name.split()
    rng = random.Random(name)
    if kind == "enumerate":
        code, out = stdout_of(["enumerate", d, "--space", "corr" if space == "correlator" else space])
        assert code == 0
        return json.loads(out)
    path = REFERENCE_D4 if d == "4" else GOLDEN / f"corr_facets_d{d}.json"
    doc = json.loads(path.read_text())
    if kind == "sample":
        sample = rng.sample(doc["facets"], 30)
        sample += rng.choices(sample, k=10)
        rng.shuffle(sample)
        doc["facets"] = sample
    elif kind == "violated":
        facet = rng.choice(doc["facets"])
        facet["bound"] = encode_rational(decode_rational(facet["bound"]) - 1)
    return doc


@pytest.mark.parametrize(
    "name",
    [pytest.param(name, marks=pytest.mark.slow) if name in SLOW_CLASSIFY else name
     for name in dict.fromkeys(k.removesuffix(" --pretty") for k in CLASSIFY_STDOUT)],
)
def test_classify_stdout_is_byte_identical(tmp_path, name):
    path = tmp_path / "facets.json"
    path.write_text(json.dumps(classify_input(name)))
    for flags in ([], ["--pretty"]):
        code, out = stdout_of(["classify", str(path), *flags])
        got = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
        assert got == CLASSIFY_STDOUT[" ".join([name, *flags])]


def _count_saturation(monkeypatch):
    import bellpoly.cli as cli_mod

    calls = []
    real = cli_mod.saturation_count
    monkeypatch.setattr(cli_mod, "saturation_count", lambda q, verts: calls.append(q) or real(q, verts))
    return calls


@pytest.mark.parametrize("name", ["correlator 4 sample", "correlator 3 violated", "behavior 2 enumerate"])
def test_classify_checks_saturation_once_per_class(monkeypatch, tmp_path, name):
    path = tmp_path / "facets.json"
    path.write_text(json.dumps(classify_input(name)))
    calls = _count_saturation(monkeypatch)
    code, out = stdout_of(["classify", str(path)])
    classes = {f["class"] for f in json.loads(out)["facets"]}
    assert code == (1 if name.endswith("violated") else 0)
    assert len(calls) == len(classes) < len(json.loads(path.read_text())["facets"])


def test_classify_checks_each_behavior_facet_without_a_group(monkeypatch, tmp_path):
    # behavior d=4 has no group table: one check per inequality, repeats too
    positivity = [0] * 64
    positivity[5] = -1
    doc = {"space": "behavior", "d": 4, "facets": [{"coeffs": positivity, "bound": 0}] * 2}
    path = tmp_path / "facets.json"
    path.write_text(json.dumps(doc))
    calls = _count_saturation(monkeypatch)
    code, out = stdout_of(["classify", str(path)])
    facets = json.loads(out)["facets"]
    assert code == 0 and len(calls) == 2
    assert [(f["class"], f["saturating"], f["rank"]) for f in facets] == [(None, 240, 48)] * 2


@pytest.mark.parametrize(
    "name", ["correlator 3 golden", "correlator 4 reference", "behavior 2 enumerate", "correlator 3 violated"]
)
def test_class_entries_match_per_facet_saturation(tmp_path, name):
    doc = classify_input(name)
    path = tmp_path / "facets.json"
    path.write_text(json.dumps(doc))
    code, out = stdout_of(["classify", str(path)])
    verts = space_vertices(doc["space"], doc["d"])
    for f, entry in zip(doc["facets"], json.loads(out)["facets"]):
        q = inequality_from_json({"space": doc["space"], "d": doc["d"], **f})
        try:
            want = {"supporting": True, "saturating": saturation_count(q, verts)}
        except ValueError as exc:
            want = {"supporting": False, "error": str(exc)}
        got = {k: entry[k] for k in want}
        if entry["supporting"]:
            got["saturating"] = (entry["saturating"], entry["rank"])
        assert got == want


@pytest.mark.parametrize("d", [2.9, True, 2.0, [2], "1_0", " 2 ", "+2", "\u0662"])
def test_non_integer_d_is_refused(tmp_path, capsys, d):
    doc = json.loads((GOLDEN / "corr_facets_d2.json").read_text())
    corr = corr_to_json(project(uniform_behavior(2)))
    for command, data in (
        ("classify", doc),
        ("membership", behavior_to_json(uniform_behavior(2))),
        ("membership", corr),
    ):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({**data, "d": d}))
        assert main([command, str(path)]) == 2, (command, d)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: bad ")
    facet = {"coeffs": doc["facets"][0]["coeffs"], "bound": 2}
    with pytest.raises(ValueError, match="expected an integer"):
        inequality_from_json({"space": "correlator", "d": d, **facet})


@pytest.mark.parametrize("entry", ["1e999", "0.5", "1/2e3", " 1/2", "+1/2", "٣/4", "1_000"])
def test_rationals_are_read_only_as_integers_or_num_den(tmp_path, capsys, entry):
    # Fraction would read exponents: "1e99999999" builds a 10^8-digit integer
    with pytest.raises(ValueError, match="num/den"):
        decode_rational(entry)
    behavior = behavior_to_json(uniform_behavior(2))
    behavior["P"]["a1b1"][0][0] = entry
    corr = corr_to_json(project(uniform_behavior(2)))
    corr["C"]["a1b1"][0] = entry
    doc = json.loads((GOLDEN / "corr_facets_d2.json").read_text())
    doc["facets"][0]["bound"] = entry
    path = tmp_path / "input.json"
    for command, data in (("membership", behavior), ("project", behavior), ("membership", corr), ("classify", doc)):
        path.write_text(json.dumps(data))
        assert main([command, str(path)]) == 2, (command, entry)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
    assert decode_rational("-12/8") == Fraction(-3, 2) and decode_rational("-3") == decode_rational(-3) == -3


@pytest.mark.parametrize("text, want", [("-0/7", 0), ("007/010", Fraction(7, 10)), ("-12/8", Fraction(-3, 2)), ("5", 5)])
def test_decode_rational_reads_the_matched_digits(text, want):
    got = decode_rational(text)
    assert type(got) is Fraction and got == want


@pytest.mark.parametrize("text", ["1/0", "+1", "1e5", " 1", "1_0", "1/-2", "١", "1/٢", "１"])
def test_decode_rational_refuses_what_the_pattern_does_not_match(text):
    with pytest.raises(ValueError):
        decode_rational(text)
