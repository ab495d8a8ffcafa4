"""The CGLMP certificates from the witness, the strategy grid and the
blocked sweep, against the full-matrix and per-strategy oracles, the recorded
stdout of the certify commands, and their fallbacks."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bellpoly import cglmp, linalg, scenario
from bellpoly.cli import main
from bellpoly.scenario import Scenario, polytope_affine_dim

from oracles import (
    full_polytope_affine_dim,
    full_tightness_rank,
    loop_checked_steps,
    loop_f_scaled,
    loop_rstu,
    loop_verify_condition1,
    support_pivot_columns,
)

STDOUT = json.loads((Path(__file__).parent / "data" / "certify_stdout_sha256.json").read_text())["stdout"]

ORACLE_DS = [*range(2, 11), *(pytest.param(d, marks=pytest.mark.slow) for d in (11, 12))]


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def digest(argv):
    """Exit code and stdout sha256 of one command, as in the data file."""
    code, out = run(*argv.split())
    return {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}


@pytest.mark.parametrize("d", ORACLE_DS)
def test_tightness_rank_matches_full_saturating_rank(d):
    assert cglmp.tightness_rank(d) == full_tightness_rank(d)


@pytest.mark.parametrize("d", ORACLE_DS)
def test_affine_dim_matches_full_generator_rank(d):
    assert polytope_affine_dim(Scenario(d)) == full_polytope_affine_dim(d)


@pytest.mark.parametrize("d", ORACLE_DS)
def test_verify_condition1_matches_strategy_loop(d):
    rep = cglmp.verify_condition1(d)
    want = loop_verify_condition1(d)
    assert rep == want
    assert list(rep.histogram.items()) == list(want.histogram.items())
    assert list(rep.case_histogram.items()) == list(want.case_histogram.items())


@pytest.mark.parametrize("d", [5, 6, 7])
def test_sweep_in_one_a1_blocks_matches_strategy_loop(monkeypatch, d):
    # every block boundary of the sweep falls between two a1 values
    monkeypatch.setattr(cglmp, "_SWEEP_BLOCK", 1)
    rep = cglmp.verify_condition1(d)
    want = loop_verify_condition1(d)
    assert rep == want
    assert list(rep.histogram.items()) == list(want.histogram.items())
    assert list(rep.case_histogram.items()) == list(want.case_histogram.items())
    saturating = [lam for lam in itertools.product(range(d), repeat=4)
                  if sum(loop_f_scaled(x, d) for x in loop_rstu(lam, d)) == 2 * (d - 1)]
    assert [tuple(lam) for lam in cglmp._saturating_strategies(d).tolist()] == saturating
    assert cglmp._saturating_count(d) == len(saturating)


@pytest.mark.parametrize(
    "argv",
    [pytest.param(key, marks=pytest.mark.slow) if int(key.split()[1]) > 10 else key for key in STDOUT],
)
def test_certify_stdout_is_byte_identical(argv):
    assert digest(argv) == STDOUT[argv]


def witness_supports(d):
    """The supports of the checked witness vectors, in witness order, and
    the step of each."""
    batches = cglmp.constructive_witness(d)
    sup = np.concatenate([batch.supports for batch in batches])
    return sup, np.repeat([batch.scheme for batch in batches], 4 * d)


def reversed_grid_supports(d):
    """The supports of the spanning grid's generators, last strategy first."""
    grid = np.array(scenario.spanning_strategy_grid(d)).reshape(-1, 4)[::-1].T
    return scenario.generator_supports(d, grid)


@pytest.mark.parametrize("d", range(2, 17))
def test_fresh_coordinates_match_pivot_columns(d):
    n = 4 * d * d
    sup, schemes = witness_supports(d)
    fresh = linalg.has_fresh_coordinate(sup, n)
    assert support_pivot_columns(sup, n) == list(range(len(sup)))
    if d % 4 == 1:
        assert (~fresh).sum() == d and set(schemes[~fresh]) == {cglmp.SCHEME_EXAMPLE2_VARIANT}
    else:
        assert fresh.all()
    sup = reversed_grid_supports(d)
    assert linalg.has_fresh_coordinate(sup, n).all()
    assert support_pivot_columns(sup, n) == list(range(len(sup)))


@pytest.mark.parametrize("d", range(2, 41))
def test_batched_witness_checks_match_the_step_loop(d):
    got, want = cglmp.constructive_witness(d), list(loop_checked_steps(d))
    assert len(got) == len(want) == d - 1
    for batch, loop_step in zip(got, want):
        assert (batch.step_index, batch.scheme, batch.params) == loop_step[:3]
        for array, loop_array in zip((batch.strategies, batch.supports), loop_step[3:]):
            assert array.dtype == loop_array.dtype and np.array_equal(array, loop_array)
        assert np.array_equal(batch.supports, scenario.generator_supports(d, batch.strategies.T))
    assert [batch.rank_after for batch in got] == (4 * d * np.arange(1, d)).tolist()


@pytest.mark.parametrize("d", [5, 9, pytest.param(13, marks=pytest.mark.slow)])
def test_witness_at_d_1_mod_4_falls_back_to_one_elimination(monkeypatch, d):
    shapes = []
    full = linalg.pivot_columns
    monkeypatch.setattr(linalg, "pivot_columns", lambda rows: shapes.append(np.shape(rows)) or full(rows))
    batches = cglmp.constructive_witness(d)
    # besides the two 4 x 4 key minors, only the first two steps are
    # eliminated, on the 12d rows they touch
    assert sorted(shapes) == [(4, 4), (4, 4), (12 * d, 8 * d)]
    assert batches[-1].rank_after == 4 * d * (d - 1)


@pytest.mark.parametrize("d", [5, 9, 13])
def test_witness_prefix_pivots_match_the_full_stack(d):
    sup, _ = witness_supports(d)
    n = 4 * d * d
    full = support_pivot_columns(sup, n)
    assert cglmp._witness_pivots(sup, d).tolist() == full
    stack = np.zeros((n, len(sup)), dtype=np.int64)
    stack[sup.T, np.arange(len(sup))] = 1
    assert linalg.int_rank(stack) == len(full) == 4 * d * (d - 1)
    ends = 4 * d * np.arange(1, d)
    assert [batch.rank_after for batch in cglmp.constructive_witness(d)] == np.searchsorted(full, ends).tolist()


def test_witness_and_grid_settle_without_the_full_matrices(monkeypatch):
    def refuse(*args):
        raise AssertionError("matrix built or eliminated")

    def minor_rank(rows):
        # the 4 x 4 key minors of the example-2 steps are the only rank taken
        assert len(rows) == 4, "matrix eliminated"
        return len(pivot_columns(rows))

    def witness_stack(rows):
        # at d = 1 mod 4 the first two witness steps, on the rows they
        # touch, are the only matrix eliminated
        assert np.shape(rows) == stack, "matrix eliminated"
        eliminated.append(stack)
        return pivot_columns(rows)

    pivot_columns = linalg.pivot_columns
    for d in range(2, 13):
        scenario.constraint_rank(Scenario(d))  # ranked once per d, before the guard
    monkeypatch.setattr(cglmp, "_saturating_strategies", refuse)
    monkeypatch.setattr(scenario, "generator_matrix", refuse)
    monkeypatch.setattr(scenario, "generator_rows", refuse)
    monkeypatch.setattr(linalg, "pivot_columns", witness_stack)
    monkeypatch.setattr(linalg, "int_rank", minor_rank)
    eliminated = []
    for d in range(2, 13):
        stack = (12 * d, 8 * d) if d % 4 == 1 else None
        assert cglmp.tightness_rank(d).tight
        assert polytope_affine_dim(Scenario(d)) == 4 * d * (d - 1)
    assert eliminated == [(12 * d, 8 * d) for d in (5, 9)]


def test_tightness_falls_back_to_full_rank_when_witness_fails(monkeypatch):
    steps = cglmp.witness_steps(5)
    monkeypatch.setattr(cglmp, "witness_steps", lambda d: [steps[0], steps[1], steps[1], steps[3]])
    ranked = []
    full = cglmp._saturating_strategies
    monkeypatch.setattr(cglmp, "_saturating_strategies", lambda d: ranked.append(d) or full(d))
    code, out = run("tightness", "5", "--witness")
    got = json.loads(out)
    assert code == 1 and ranked == [5]
    assert (got["rank"], got["saturating"], got["tight"], got["ok"]) == (80, full_tightness_rank(5).saturating, True, False)
    assert "step 2" in got["witness_error"] and "raised the rank by 0" in got["witness_error"]


def test_tightness_reports_true_rank_when_witness_construction_fails(monkeypatch):
    def broken(d):
        raise cglmp.WitnessError("step 0: broken on purpose")

    monkeypatch.setattr(cglmp, "witness_steps", broken)
    assert cglmp.tightness_rank(6) == full_tightness_rank(6)


def test_dims_falls_back_to_full_matrix(monkeypatch):
    grid = scenario.spanning_strategy_grid(4)
    monkeypatch.setattr(scenario, "spanning_strategy_grid", lambda d: grid[: len(grid) // 2])
    full = scenario.generator_matrix
    built = []
    monkeypatch.setattr(scenario, "generator_matrix", lambda d: built.append(d) or full(d))
    for argv in ("dims 4", "dims 4 --pretty"):
        assert digest(argv) == STDOUT[argv]
    assert built == [4, 4]


@pytest.mark.parametrize(
    "d,index,delta",
    # the last case perturbs the a1b1 coefficient at (k, s) = (2, 3): its first
    # offender has a1 = 2, in the third block when each block holds one a1
    [(3, 0, 1), (4, 37, -2), (5, 99, 2**70), (6, 143, Fraction(1, 5)), (5, 2 * 5 + 3, 1)],
)
def test_perturbed_coefficient_fails_like_the_loop(monkeypatch, d, index, delta):
    ineq = cglmp.cglmp_inequality(d)
    coeffs = list(ineq.coeffs)
    coeffs[index] += delta
    monkeypatch.setattr(cglmp, "cglmp_inequality", lambda d: dataclasses.replace(ineq, coeffs=tuple(coeffs)))
    with pytest.raises(cglmp.VerificationError) as want:
        loop_verify_condition1(d)
    for block in (cglmp._SWEEP_BLOCK, 1):
        monkeypatch.setattr(cglmp, "_SWEEP_BLOCK", block)
        with pytest.raises(cglmp.VerificationError) as got:
            cglmp.verify_condition1(d)
        assert str(got.value) == str(want.value)


def test_strategy_matching_no_case_is_a_verification_error(monkeypatch):
    # case5 given the key of case4b: the all-negative strategies match no case
    keys = cglmp._case_keys
    monkeypatch.setattr(cglmp, "_case_keys", lambda d: (*keys(d)[:6], keys(d)[5]))
    lam = next(lam for lam in itertools.product(range(3), repeat=4) if all(x < 0 for x in loop_rstu(lam, 3)))
    code, out = run("verify-cglmp", "3")
    got = json.loads(out)
    assert code == 1 and got["ok"] is False
    assert got["error"] == (
        f"{cglmp.DeterministicStrategy(*lam)} with {cglmp.rstu(lam, 3)} matches no sign/sum case for d=3"
    )


@pytest.mark.slow
def test_certify_commands_at_d32():
    for argv in ("tightness 32 --witness", "dims 32", "verify-cglmp 32"):
        code, out = run(*argv.split())
        got = json.loads(out)
        assert code == 0 and got["ok"] is True and got.get("tight", True) is True


@pytest.mark.slow
def test_certify_commands_at_d64_d128():
    got = {}
    for argv in ("tightness 64 --witness", "tightness 128 --witness", "dims 64", "dims 128", "verify-cglmp 64"):
        code, out = run(*argv.split())
        got[argv] = json.loads(out)
        assert code == 0 and got[argv]["ok"] is True and got[argv].get("tight", True) is True
    bound = got["verify-cglmp 64"]
    assert bound["total"] == 64**4
    assert bound["cases"]["case1"] + bound["cases"]["case2b"] == got["tightness 64 --witness"]["saturating"]


@pytest.mark.slow
def test_witness_at_d_1_mod_4_past_128():
    # the d = 1 mod 4 witness eliminates a 12d x 8d prefix, so d = 129 no
    # longer builds its 4d^2 x 4d(d-1) stack (4.4 GB of int8)
    for d in (65, 129):
        code, out = run("tightness", str(d), "--witness")
        got = json.loads(out)
        assert code == 0 and got["ok"] is True and got["tight"] is True
        assert got["rank"] == 4 * d * (d - 1) and got["witness_steps"][-1]["rank_after"] == got["rank"]
    assert got["rank"] == 66048
