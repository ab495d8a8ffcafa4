"""The package's public surface, and the script that records the benchmark."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import bellpoly

ROOT = Path(__file__).resolve().parents[1]


def test_public_surface_is_pinned():
    # a name joins __all__ only with a caller outside the tests; these views
    # had none and now live in tests/oracles.py or are gone
    assert sorted(bellpoly.__all__) == [
        "Behavior", "CorrVector", "DeterministicStrategy", "HRep", "Inequality", "LPResult",
        "VRep", "all_generators", "canonical_class", "canonicalize", "cglmp", "cglmp_corr_inequality",
        "cglmp_inequality", "classify_trivial", "constraint_matrix", "constructive_witness",
        "corr_affine_dim", "corr_local_decompose", "correlators", "enumerate_facets", "equivalent",
        "facets", "generator", "jsonio", "lift", "linalg", "local_decompose", "local_max", "lp", "lp_max",
        "membership", "nosignaling_max", "polytope_affine_dim", "project", "projected_generators",
        "saturation_count", "scenario", "symmetry", "tightness_rank", "verify_condition1",
    ]
    deleted = {
        "cglmp": ("RSTU", "CaseClass", "rstu", "classify_case", "evaluate"),
        "scenario": ("Scenario", "uniform_behavior", "behavior_to_json"),
        "correlators": ("chsh_inequality",),
    }
    for module, names in deleted.items():
        home = importlib.import_module(f"bellpoly.{module}")
        assert [name for name in names if hasattr(home, name)] == []


def test_bench_runs_the_runner_with_fixed_malloc_thresholds(monkeypatch, tmp_path):
    # glibc's dynamic mmap threshold moved wall times between runs of the
    # same code, so both runner processes get fixed thresholds, and the
    # BENCH file records them
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    runs = []

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, "" if "status" in cmd else "abc123\n", "")
        runs.append(kwargs["env"])
        host = bench.HOST_PREFIX + json.dumps({"nproc": 2})
        return subprocess.CompletedProcess(cmd, 0, json.dumps({"trace": cmd[-1]}) + "\n", host + "\n")

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench.py", "7"])
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "1")
    assert bench.main() == 0
    fixed = {"MALLOC_MMAP_THRESHOLD_": "4194304", "MALLOC_TRIM_THRESHOLD_": "8388608"}
    assert runs == [{**os.environ, **fixed}] * 2
    record = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert record["malloc_env"] == fixed
    assert (record["end_to_end"], record["per_layer"]) == ({"trace": "0"}, {"trace": "1"})
