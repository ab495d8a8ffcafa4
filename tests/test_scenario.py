import json
import random
from fractions import Fraction

import pytest

from bellpoly import linalg
from bellpoly.lp import lp_max
from bellpoly.scenario import (
    Behavior,
    DeterministicStrategy,
    all_generators,
    all_strategies,
    behavior_from_json,
    constraint_matrix,
    constraint_rank,
    constraint_verdicts,
    coord_index,
    generator,
    inequality_from_json,
    inequality_to_json,
    polytope_affine_dim,
    spanning_strategy_grid,
)
from bellpoly.cglmp import cglmp_inequality

from oracles import behavior_to_json, uniform_behavior


def test_generator_all_zero_strategy_d2():
    g = generator(2, (0, 0, 0, 0))
    ones = {(1, 1, 0, 0), (1, 2, 0, 0), (2, 1, 0, 0), (2, 2, 0, 0)}
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for k in range(2):
            for s in range(2):
                expected = Fraction(1 if (a, b, k, s) in ones else 0)
                assert g[(a, b, k, s)] == expected


def test_generator_spec_example_d3():
    g = generator(3, (1, 0, 2, 0))
    ones = {(1, 1, 1, 2), (1, 2, 1, 0), (2, 1, 0, 2), (2, 2, 0, 0)}
    total = 0
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for k in range(3):
            for s in range(3):
                v = g[(a, b, k, s)]
                total += v
                assert v == (1 if (a, b, k, s) in ones else 0)
    assert total == 4


def test_generator_out_of_range():
    with pytest.raises(ValueError):
        generator(2, (0, 0, 0, 2))


def test_generator_counts_distinct():
    for d, n in ((2, 16), (3, 81)):
        gens = all_generators(d)
        assert len(gens) == n
        assert len({g.coords for g in gens}) == n


def test_generators_satisfy_all_predicates():
    for d in (2, 3):
        for g in all_generators(d):
            assert constraint_verdicts(g) == (True, True)
            assert all(x >= 0 for x in g.coords)


def test_constraint_matrix_shapes_and_ranks():
    rows2, rhs2 = constraint_matrix(2)
    assert (len(rows2), len(rows2[0])) == (12, 16)
    assert linalg.rank(rows2) == 8
    rows3, rhs3 = constraint_matrix(3)
    assert (len(rows3), len(rows3[0])) == (16, 36)
    assert linalg.rank(rows3) == 12
    assert rhs2 == [Fraction(1)] * 4 + [Fraction(0)] * 8


def test_uniform_behavior_satisfies_constraints():
    for d in (2, 3, 4):
        u = uniform_behavior(d)
        rows, rhs = constraint_matrix(d)
        for row, b in zip(rows, rhs):
            assert sum(r * x for r, x in zip(row, u.coords)) == b
        assert constraint_verdicts(u) == (True, True)
        assert all(x >= 0 for x in u.coords)


def test_nosignaling_detects_marginal_shift():
    # block a1b1 uniform, block a1b2 moves mass within Bob's outcomes in a
    # way that changes Alice's marginal for k=0
    d = 3
    coords = list(uniform_behavior(d).coords)
    eps = Fraction(1, 18)
    coords[coord_index(d, 1, 2, 0, 0)] += eps
    coords[coord_index(d, 1, 2, 1, 0)] -= eps
    p = Behavior(d, tuple(coords))
    assert constraint_verdicts(p) == (True, False)  # so p is no probability table


def test_nosignaling_detects_bob_only_signalling():
    # Alice uniform and independent of Bob; Bob's outcome is 0 when Alice
    # measures A1 and 1 when she measures A2, whatever his own setting
    d = 3
    coords = [Fraction(0)] * (4 * d * d)
    for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for k in range(d):
            coords[coord_index(d, a, b, k, a - 1)] = Fraction(1, d)
    p = Behavior(d, tuple(coords))
    assert constraint_verdicts(p) == (True, False)


def test_normalization_is_separate_from_nosignaling():
    d = 3
    p = Behavior(d, tuple(2 * x for x in uniform_behavior(d).coords))  # blocks sum to 2
    assert constraint_verdicts(p) == (False, True)  # so p is no probability table
    u = uniform_behavior(d).coords
    last_block_halved = u[: 3 * d * d] + tuple(x / 2 for x in u[3 * d * d :])
    assert not constraint_verdicts(Behavior(d, last_block_halved))[0]


def test_constraint_verdicts_match_block_and_marginal_sums():
    # the definition written out: every block sums to one, Alice's marginal
    # for (a, k) is the same under b = 1 and 2, and Bob's for (b, s) the
    # same under a = 1 and 2, each a Fraction sum over the table
    def definition(p):
        d = p.d
        normalized = all(sum(p[(a, b, k, s)] for k in range(d) for s in range(d)) == 1
                         for a in (1, 2) for b in (1, 2))
        alice = all(sum(p[(a, 1, k, s)] for s in range(d)) == sum(p[(a, 2, k, s)] for s in range(d))
                    for a in (1, 2) for k in range(d))
        bob = all(sum(p[(1, b, k, s)] for k in range(d)) == sum(p[(2, b, k, s)] for k in range(d))
                  for b in (1, 2) for s in range(d))
        return normalized, alice and bob

    def distribution(rng, d):
        weights = [rng.randint(1, 9) for _ in range(d)]
        return [Fraction(w, sum(weights)) for w in weights]

    def table(d, alice, bob, scale=1):
        # P(k, s | a, b) = scale * alice(a, b)[k] * bob(a, b)[s]
        coords = [Fraction(0)] * (4 * d * d)
        for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for k in range(d):
                for s in range(d):
                    coords[coord_index(d, a, b, k, s)] = scale * alice(a, b)[k] * bob(a, b)[s]
        return Behavior(d, tuple(coords))

    rng = random.Random(2027)
    for d in (2, 3, 4):
        for _ in range(5):
            # pa[(a, 1)] and pb[(1, b)] are the marginals of a no-signalling
            # table; a signalling one switches to pa[(a, 2)] or pb[(2, b)]
            pa = {(a, b): distribution(rng, d) for a in (1, 2) for b in (1, 2)}
            pb = {(a, b): distribution(rng, d) for a in (1, 2) for b in (1, 2)}
            while pa[(2, 1)] == pa[(2, 2)] or pb[(1, 2)] == pb[(2, 2)]:
                pa[(2, 2)], pb[(2, 2)] = distribution(rng, d), distribution(rng, d)
            own_a, own_b = (lambda a, b: pa[(a, 1)]), (lambda a, b: pb[(1, b)])
            cases = [
                (table(d, own_a, own_b), (True, True)),
                (table(d, lambda a, b: pa[(a, b)], own_b), (True, False)),  # Alice's marginal sees b
                (table(d, own_a, lambda a, b: pb[(a, b)]), (True, False)),  # Bob's marginal sees a
                (table(d, own_a, own_b, scale=Fraction(rng.randint(2, 5), rng.randint(6, 9))), (False, True)),
            ]
            # one block rescaled: unnormalized, and its marginals no longer match
            coords = list(table(d, own_a, own_b).coords)
            start = rng.randrange(4) * d * d
            block = slice(start, start + d * d)
            coords[block] = [2 * x for x in coords[block]]
            cases.append((Behavior(d, tuple(coords)), (False, False)))
            for p, want in cases:
                assert definition(p) == want
                assert constraint_verdicts(p) == want


def test_polytope_affine_dim():
    assert polytope_affine_dim(2) == 8
    assert polytope_affine_dim(3) == 24
    assert polytope_affine_dim(5) == 80


def test_constraint_rows_annihilate_generator_differences():
    for d in (2, 3):
        rows, rhs = constraint_matrix(d)
        gens = all_generators(d)
        g0 = gens[0]
        for g in gens[1:]:
            diff = [a - b for a, b in zip(g.coords, g0.coords)]
            for row in rows:
                assert sum(r * x for r, x in zip(row, diff)) == 0


def test_spanning_strategy_grid_is_independent():
    for d in (2, 3, 4, 5):
        fam = spanning_strategy_grid(d)
        assert len(fam) == (2 * d - 1) ** 2
        mat = [generator(d, lam).coords for lam in fam]
        assert linalg.rank(mat) == (2 * d - 1) ** 2


def test_generators_are_extreme_d2():
    # no generator is a convex combination of the others
    gens = all_generators(2)
    for i, g in enumerate(gens):
        others = [h.coords for j, h in enumerate(gens) if j != i]
        eq_rows = [[col[c] for col in others] for c in range(16)]
        eq_rows.append([Fraction(1)] * len(others))
        res = lp_max(
            [Fraction(0)] * len(others),
            eq_rows=eq_rows,
            eq_rhs=list(g.coords) + [Fraction(1)],
        )
        assert res.status == "infeasible"


def test_behavior_json_round_trip():
    rng = random.Random(5)
    for d in (2, 3):
        coords = tuple(Fraction(rng.randint(0, 5), rng.randint(1, 7)) for _ in range(4 * d * d))
        p = Behavior(d, coords)
        blob = json.dumps(behavior_to_json(p))
        assert behavior_from_json(json.loads(blob)) == p


def test_inequality_json_round_trip():
    q = cglmp_inequality(3)
    blob = json.dumps(inequality_to_json(q))
    assert inequality_from_json(json.loads(blob)) == q


@pytest.mark.parametrize("coeffs", ["10000000", {"0": 1}], ids=["digit-string", "object"])
def test_inequality_from_json_refuses_coeffs_that_are_not_an_array(coeffs):
    # iterated, a string of digits would read one coefficient per character
    with pytest.raises(TypeError, match="'coeffs' must be a JSON array"):
        inequality_from_json({"space": "correlator", "d": 2, "coeffs": coeffs, "bound": 5})


def test_scenario_functions_take_d():
    # the scenario is the one integer d; at d = 1 the rank and dimension
    # still meet 4d and 4d(d-1), so refusing d < 2 here guarded no formula
    for d in range(1, 5):
        assert constraint_rank(d) == 4 * d
        assert polytope_affine_dim(d) == 4 * d * (d - 1)
        strategies = all_strategies(d)
        assert len(strategies) == d**4
        assert [g.coords for g in all_generators(d)] == [generator(d, lam).coords for lam in strategies]
        rows, rhs = constraint_matrix(d)
        assert (len(rows), len(rows[0]), rhs) == (4 + 4 * d, 4 * d * d, [1] * 4 + [0] * (4 * d))


def test_behavior_validation():
    with pytest.raises(ValueError):
        Behavior(2, (Fraction(1),) * 15)


def test_strategy_order_lexicographic():
    strategies = all_strategies(2)
    assert strategies[:3] == [
        DeterministicStrategy(0, 0, 0, 0),
        DeterministicStrategy(0, 0, 0, 1),
        DeterministicStrategy(0, 0, 1, 0),
    ]
    assert strategies == sorted(strategies)


def test_generator_matrix_rows_are_the_fraction_generators():
    from bellpoly.scenario import generator_matrix

    for d in range(2, 5):
        mat = generator_matrix(d)
        gens = all_generators(d)
        assert mat.shape == (d**4, 4 * d * d)
        assert [tuple(Fraction(int(x)) for x in row) for row in mat] == [g.coords for g in gens]


def test_strategy_values_match_generator_inner_products():
    from oracles import strategy_values

    rng = random.Random(41)
    for d in range(2, 5):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4 * d * d)]
        direct = [sum(c * x for c, x in zip(coeffs, g.coords)) for g in all_generators(d)]
        assert list(strategy_values(coeffs, d)) == direct
