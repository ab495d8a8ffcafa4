from fractions import Fraction

import pytest
from oracles import loop_case, loop_f_scaled, loop_rstu

from bellpoly import cglmp, linalg
from bellpoly.cglmp import (
    RSTU,
    _f_scaled,
    _saturating_strategies,
    SCHEME_EXAMPLE1,
    SCHEME_EXAMPLE2,
    SCHEME_EXAMPLE2_VARIANT,
    cglmp_inequality,
    classify_case,
    constructive_witness,
    evaluate,
    rstu,
    scheme_patterns,
    tightness_rank,
    verify_condition1,
    window_bounds,
    witness_steps,
)
from bellpoly.scenario import Scenario, all_strategies, generator, generator_rows, uniform_behavior


def test_rstu_spec_examples():
    assert tuple(rstu((0, 0, 0, 0), 3)) == (0, 0, -1, 0)
    assert tuple(rstu((1, 0, 0, 0), 3)) == (1, -1, -1, 0)
    assert tuple(rstu((0, 1, 1, 1), 2)) == (-1, -1, -1, 0)


def test_rstu_window_and_congruence_exhaustive():
    for d in range(2, 7):
        lo, hi = window_bounds(d)
        for lam in all_strategies(Scenario(d)):
            v = rstu(lam, d)
            assert all(lo <= x <= hi for x in v)
            assert sum(v) % d == (d - 1) % d
            assert sum(v) in (d - 1, -1, -d - 1)


def test_f_values():
    # (d-1) f, the per-variable weight the pair tables are built from
    for d in range(2, 9):
        assert _f_scaled(0, d) == d - 1
    assert _f_scaled(-1, 2) == -1
    assert _f_scaled(-1, 3) == -2
    assert _f_scaled(1, 3) == 0
    assert _f_scaled(2, 5) == 0


def test_eval_on_generator_examples():
    # I_d of a generator by the f form is the value of its case
    def value(lam, d):
        return classify_case(rstu(lam, d), d).value

    assert value((0, 0, 0, 0), 3) == 2
    assert value((1, 0, 0, 0), 3) == Fraction(-2, 3 - 1)
    assert max(value(lam, 3) for lam in all_strategies(Scenario(3))) == 2


def test_scalar_views_match_the_loop_oracle():
    # rstu, (d-1) f and classify_case are one-column calls of the sweep's
    # kernels; the oracle writes each out by hand
    for d in range(2, 6):
        lo, hi = window_bounds(d)
        for x in range(lo, hi + 1):
            assert _f_scaled(x, d) == loop_f_scaled(x, d)
        for lam in all_strategies(Scenario(d)):
            v = rstu(lam, d)
            assert tuple(v) == loop_rstu(lam, d)
            value = Fraction(sum(loop_f_scaled(x, d) for x in v), d - 1)
            case = classify_case(v, d)
            assert (case.tag, case.negatives, case.total, case.value) == (
                loop_case(v, d), sum(x < 0 for x in v), sum(v), value
            )


def test_coefficient_form_agrees_with_f_form():
    for d in (2, 3, 4):
        q = cglmp_inequality(d)
        for lam in all_strategies(Scenario(d)):
            assert evaluate(q, generator(Scenario(d), lam)) == classify_case(rstu(lam, d), d).value


def test_cglmp_on_uniform_is_zero():
    for d in range(2, 7):
        assert evaluate(cglmp_inequality(d), uniform_behavior(d)) == 0


def test_cglmp_d2_values():
    q = cglmp_inequality(2)
    values = {evaluate(q, g) for g in (generator(Scenario(2), lam) for lam in all_strategies(Scenario(2)))}
    assert values == {Fraction(2), Fraction(-2)}


def test_evaluate_space_mismatch():
    from bellpoly.correlators import projected_generators

    q = cglmp_inequality(2)
    with pytest.raises(ValueError):
        evaluate(q, projected_generators(2)[0])


def test_verify_condition1_small():
    rep2 = verify_condition1(2)
    assert rep2.max_value == 2
    assert rep2.histogram == {Fraction(2): 8, Fraction(-2): 8}
    rep3 = verify_condition1(3)
    assert rep3.max_value == 2
    assert set(rep3.histogram) == {Fraction(2), Fraction(-1), Fraction(-4)}
    assert rep3.histogram == {Fraction(2): 30, Fraction(-1): 48, Fraction(-4): 3}
    assert sum(rep3.histogram.values()) == 81
    assert rep3.case_histogram == {
        "case1": 18,
        "case2a": 12,
        "case2b": 12,
        "case3": 36,
        "case5": 3,
    }


def test_value_set_property():
    for d in (2, 3, 4, 5):
        rep = verify_condition1(d)
        allowed = {Fraction(2), Fraction(-2, d - 1), Fraction(-2 * (d + 1), d - 1)}
        assert set(rep.histogram) <= allowed
        if d == 2:
            assert Fraction(-2 * (d + 1), d - 1) not in rep.histogram


def test_classify_case_examples():
    c = classify_case(RSTU(0, 0, -1, 0), 3)
    assert (c.tag, c.total, c.value) == ("case2b", -1, Fraction(2))
    c = classify_case(RSTU(1, -1, -1, 0), 3)
    assert (c.tag, c.value) == ("case3", Fraction(-1))
    c = classify_case(RSTU(1, 1, 1, 1), 5)
    assert (c.tag, c.value) == ("case1", Fraction(2))
    with pytest.raises(ValueError):
        classify_case(RSTU(3, 0, 0, 0), 3)  # out of window
    with pytest.raises(ValueError):
        classify_case(RSTU(0, 0, 0, 0), 3)  # sum not congruent to -1


def test_saturating_generators():
    sat2 = _saturating_strategies(2)
    assert len(sat2) == 8
    sat3 = _saturating_strategies(3).tolist()
    assert len(sat3) == 30
    q3 = cglmp_inequality(3)
    for lam in sat3:
        assert evaluate(q3, generator(Scenario(3), lam)) == 2
        assert classify_case(rstu(lam, 3), 3).tag in ("case1", "case2b")


def test_tightness_rank():
    assert tightness_rank(2).rank == 8
    assert tightness_rank(3).rank == 24
    rep7 = tightness_rank(7)
    assert rep7.rank == 168 == rep7.h
    assert rep7.tight


def test_witness_steps_d4_match_table():
    steps = witness_steps(4)
    assert steps == [
        (SCHEME_EXAMPLE1, (0, 1, 1, 1)),
        (SCHEME_EXAMPLE1, (-1, 0, 0, 0)),
        (SCHEME_EXAMPLE1, (-2, 1, 0, 0)),
    ]


def test_witness_steps_d5_schemes():
    steps = witness_steps(5)
    assert [s for s, _ in steps] == [
        SCHEME_EXAMPLE2,
        SCHEME_EXAMPLE2_VARIANT,
        SCHEME_EXAMPLE1,
        SCHEME_EXAMPLE1,
    ]
    assert steps[0][1] == (2, 0, 0)
    assert steps[2][1] == (-1, 0, 0, 0)
    assert steps[3][1] == (-2, 1, 0, 0)


def test_witness_steps_d3():
    assert witness_steps(3) == [
        (SCHEME_EXAMPLE2, (1, 0, 0)),
        (SCHEME_EXAMPLE1, (-1, 0, 0, 0)),
    ]


def test_scheme_patterns_shapes():
    rows = scheme_patterns(SCHEME_EXAMPLE1, (9, 7, 5, 3))
    assert rows == [(9, 7, 5, 3), (3, 9, 7, 5), (5, 3, 9, 7), (7, 5, 3, 9)]
    rows = scheme_patterns(SCHEME_EXAMPLE2, (9, 7, 5))
    assert rows == [(9, 9, 7, 5), (9, 7, 9, 5), (9, 7, 5, 9), (7, 9, 9, 5)]
    rows = scheme_patterns(SCHEME_EXAMPLE2_VARIANT, (9, 7, 5))
    assert rows == [(7, 5, 9, 9), (9, 5, 9, 7), (5, 9, 9, 7), (9, 5, 7, 9)]


def test_constructive_witness_small_d():
    for d in range(2, 9):
        batches = constructive_witness(d)
        assert len(batches) == d - 1
        for j, batch in enumerate(batches):
            assert len(batch.supports) == 4 * d
            assert batch.rank_after == 4 * d * (j + 1)
        assert batches[-1].rank_after == 4 * d * (d - 1)


def test_repeated_witness_step_is_refused(monkeypatch):
    steps = witness_steps(5)
    monkeypatch.setattr(cglmp, "witness_steps", lambda d: [steps[0], steps[1], steps[1], steps[3]])
    with pytest.raises(cglmp.WitnessError, match=r"step 2 .* raised the rank by 0, expected 20"):
        constructive_witness(5)


def test_witness_d3_shape():
    batches = constructive_witness(3)
    assert len(batches) == 2
    assert all(len(b.supports) == 12 for b in batches)
    assert batches[0].scheme == SCHEME_EXAMPLE2
    assert batches[-1].rank_after == 24


def test_witness_vectors_are_saturating_generators():
    for d in (2, 3, 5):
        q = cglmp_inequality(d)
        for batch in constructive_witness(d):
            for lam, support in zip(batch.strategies, batch.supports):
                assert evaluate(q, generator(Scenario(d), lam)) == 2
                ones = tuple(int(j in support) for j in range(4 * d * d))
                assert ones == tuple(int(x) for x in generator(Scenario(d), lam).coords)


def test_witness_rank_agrees_with_tightness_rank():
    for d in (2, 3, 4, 5):
        assert constructive_witness(d)[-1].rank_after == tightness_rank(d).rank


@pytest.mark.slow
def test_witness_at_scale_covers_all_branches_again():
    # a second pass over the four d mod 4 branches, an order of magnitude up
    for d in (14, 15, 16, 17):
        batches = constructive_witness(d)
        assert len(batches) == d - 1
        assert batches[-1].rank_after == 4 * d * (d - 1)


def test_example2_minor_is_the_documented_one():
    from bellpoly.cglmp import _example2_minor

    minor = _example2_minor(SCHEME_EXAMPLE2, (1, 0, 0), 3)
    assert minor == [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 0, 0]]
    assert linalg.int_rank(minor) == 4
    for d in (5, 9, 13):
        for scheme, params in witness_steps(d):
            if scheme in (SCHEME_EXAMPLE2, SCHEME_EXAMPLE2_VARIANT):
                assert linalg.int_rank(_example2_minor(scheme, params, d)) == 4


def test_saturating_matrix_rows_are_the_saturating_generators():
    # the matrix tightness_rank ranks when the witness fails
    for d in range(2, 6):
        sat = _saturating_strategies(d)
        mat = generator_rows(d, sat.T)
        expected = [generator(Scenario(d), lam).coords for lam in sat.tolist()]
        assert [tuple(Fraction(int(x)) for x in row) for row in mat] == expected


def _patch_steps(monkeypatch, steps, custom=()):
    """witness_steps gives steps, and the step scheme "custom" contributes
    the given patterns."""
    real = cglmp.scheme_patterns
    monkeypatch.setattr(cglmp, "witness_steps", lambda d: steps)
    monkeypatch.setattr(cglmp, "scheme_patterns", lambda s, p: list(custom) if s == "custom" else real(s, p))


def test_witness_names_the_first_pattern_outside_the_window(monkeypatch):
    # the out-of-window pattern 2 comes before the unsaturated pattern 3
    steps = witness_steps(5)
    custom = [(1, 1, 1, 1), (2, 0, 0, 2), (3, 0, 0, 1), (1, -1, -1, 0)]
    _patch_steps(monkeypatch, [steps[0], ("custom", ()), steps[2]], custom)
    with pytest.raises(cglmp.WitnessError) as exc:
        constructive_witness(5)
    assert str(exc.value) == "step 1: pattern (3, 0, 0, 1) leaves the window for d=5"


def test_witness_names_the_first_unsaturated_pattern(monkeypatch):
    # (1, -1, -1, 0) is case3; the out-of-window pattern after it is not reached
    steps = witness_steps(3)
    _patch_steps(monkeypatch, [steps[0], ("custom", ())], [(0, 0, -1, 0), (1, -1, -1, 0), (4, 0, 0, 0)])
    with pytest.raises(cglmp.WitnessError) as exc:
        constructive_witness(3)
    assert str(exc.value) == "step 1: pattern (1, -1, -1, 0) is not saturating"


def test_witness_names_a_singular_key_minor(monkeypatch):
    # all four example-2 rows of (1, 1, 1) are the saturating (1, 1, 1, 1)
    steps = witness_steps(5)
    _patch_steps(monkeypatch, [steps[0], (SCHEME_EXAMPLE2, (1, 1, 1)), steps[2]])
    with pytest.raises(cglmp.WitnessError) as exc:
        constructive_witness(5)
    assert str(exc.value) == "step 1: singular key minor for example2 (1, 1, 1)"


def test_witness_names_the_first_vector_that_does_not_reproduce(monkeypatch):
    # a window pattern always reproduces itself, so the check is reached by
    # breaking center_mod: at d=3 the difference 2 goes to -4, not -1.  That
    # hits pattern 1 from first outcome 2 on and pattern 2 from first
    # outcome 0 on; pattern order comes first
    steps = witness_steps(3)
    _patch_steps(monkeypatch, [steps[0], ("custom", ())], [(0, 0, -1, 0), (-1, 0, 0, 0), (0, -1, 0, 0)])
    real = cglmp.center_mod
    monkeypatch.setattr(cglmp, "center_mod", lambda x, d: real(x, d) - d * (x == 2))
    with pytest.raises(cglmp.WitnessError) as exc:
        constructive_witness(3)
    assert str(exc.value) == (
        "step 1: (-1, 0, 0, 0) does not reproduce itself from DeterministicStrategy(a1=2, a2=2, b1=0, b2=2)"
    )


def test_witness_rank_error_comes_before_a_later_vector_error(monkeypatch):
    # step 2 repeats step 1, so it raises the rank by 0; the unsaturated
    # pattern of step 3 comes later in the walk
    steps = witness_steps(5)
    _patch_steps(monkeypatch, [steps[0], steps[1], steps[1], ("custom", ())], [(1, -1, -1, 0)])
    with pytest.raises(cglmp.WitnessError) as exc:
        constructive_witness(5)
    assert str(exc.value) == f"step 2 ({steps[1][0]} {steps[1][1]}) raised the rank by 0, expected 20"


def test_witness_vector_error_comes_before_its_steps_rank_check(monkeypatch):
    # the custom step's 5 vectors cannot raise the rank by 20 either
    steps = witness_steps(5)
    _patch_steps(monkeypatch, [steps[0], steps[1], ("custom", ())], [(1, -1, -1, 0)])
    with pytest.raises(cglmp.WitnessError) as exc:
        constructive_witness(5)
    assert str(exc.value) == "step 2: pattern (1, -1, -1, 0) is not saturating"
