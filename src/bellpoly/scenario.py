"""The two-party, two-setting, d-outcome measurement scenario.

A behavior is the table of joint outcome probabilities P(A_a=k, B_b=s)
flattened into a single vector of length 4d^2.  The coordinate order is
fixed globally:

    index(a, b, k, s) = ((a-1)*2 + (b-1)) * d^2 + k*d + s

with settings a, b in {1, 2} and outcomes k, s in {0, ..., d-1}.  A
deterministic strategy preassigns one outcome to each observable; its
behavior is a 0/1 vertex of the local polytope, and the d^4 of them
generate everything a local-realistic model can produce.

Behaviors are not forced to be normalized or nonnegative at construction:
facet normals, LP intermediates and hyperplane probes reuse the same
vector plumbing, so the physical conditions are checked separately
(``constraint_verdicts``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .jsonio import decode_int, decode_rational, encode_rational

BLOCKS = ((1, 1), (1, 2), (2, 1), (2, 2))


@dataclass(frozen=True)
class Scenario:
    """Two observables per party, d outcomes per observable."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("scenario needs d >= 2 outcomes")


class DeterministicStrategy(NamedTuple):
    """Preassigned outcomes for A1, A2, B1, B2."""

    a1: int
    a2: int
    b1: int
    b2: int


@dataclass(frozen=True)
class Behavior:
    """Joint probability table as one coordinate vector of length 4d^2:
    Fractions, or Python ints where a value is integral (a generator's
    0/1 entries, a JSON integer)."""

    d: int
    coords: tuple[int | Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != 4 * self.d * self.d:
            raise ValueError("behavior needs 4*d^2 coordinates")

    def __getitem__(self, absk) -> int | Fraction:
        a, b, k, s = absk
        return self.coords[coord_index(self.d, a, b, k, s)]


@dataclass(frozen=True)
class Inequality:
    """Linear functional with an upper bound: coeffs . x <= bound.  An
    integral coefficient or bound is a Python int where the package makes
    it (enumerated facets, canonical forms, class representatives, JSON
    integers); a Fraction only where it has a denominator."""

    space: str  # "behavior" | "correlator"
    d: int
    coeffs: tuple[int | Fraction, ...]
    bound: int | Fraction


def coord_index(d: int, a: int, b: int, k: int, s: int) -> int:
    return ((a - 1) * 2 + (b - 1)) * d * d + k * d + s


def check_strategy(d: int, lam: DeterministicStrategy) -> None:
    for v in lam:
        if not 0 <= v < d:
            raise ValueError(f"strategy {lam} out of range for d={d}")


def generator(s: Scenario, lam: DeterministicStrategy) -> Behavior:
    """0/1 behavior of a deterministic strategy, as Python ints; exactly
    four ones."""
    lam = DeterministicStrategy(*lam)
    check_strategy(s.d, lam)
    row = generator_rows(s.d, np.array(lam)[:, None])[0]
    return Behavior(s.d, tuple(row.tolist()))


def all_strategies(s: Scenario) -> list[DeterministicStrategy]:
    return [DeterministicStrategy(*lam) for lam in itertools.product(range(s.d), repeat=4)]


def all_generators(s: Scenario) -> list[Behavior]:
    """The d^4 generators in lexicographic strategy order."""
    return [generator(s, lam) for lam in all_strategies(s)]


def generator_supports(d: int, strategies: np.ndarray) -> np.ndarray:
    """The coordinates of the four ones of each generator, an n x 4 integer
    array in BLOCKS order, for the strategies as the columns of a 4 x n
    integer array holding a1, a2, b1, b2."""
    a1, a2, b1, b2 = strategies
    alice, bob = (a1, a2), (b1, b2)
    return np.stack(
        [block * d * d + alice[a - 1] * d + bob[b - 1] for block, (a, b) in enumerate(BLOCKS)], axis=-1
    )


def generator_rows(d: int, strategies: np.ndarray) -> np.ndarray:
    """0/1 integer behavior rows of the given strategies, one per column of
    strategies, a 4 x n integer array holding a1, a2, b1, b2."""
    sup = generator_supports(d, strategies)
    mat = np.zeros((len(sup), 4 * d * d), dtype=np.int64)
    mat[np.arange(len(sup))[:, None], sup] = 1
    return mat


def generator_matrix(d: int) -> np.ndarray:
    """All d^4 generators as one 0/1 integer matrix, in all_generators order."""
    return generator_rows(d, np.indices((d, d, d, d)).reshape(4, -1))


def uniform_behavior(d: int) -> Behavior:
    q = Fraction(1, d * d)
    return Behavior(d, tuple([q] * (4 * d * d)))


@lru_cache(maxsize=None)
def _constraint_system(d: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Normalization plus no-signaling as one read-only int8 matrix (its
    entries are 0 and +-1; the kernels that read it work on an int64 copy)
    and its right-hand side, built once per d: four normalization rows
    (right-hand side 1, blocks in order a1b1, a1b2, a2b1, a2b2), then 4d
    no-signaling rows (right-hand side 0), for each observable and outcome
    the marginal against the partner's first setting minus the one against
    the second.  Only a subset of the 4d is independent; the rank of the
    system is computed, never assumed."""
    table = np.zeros((4 + 4 * d, 2, 2, d, d), dtype=np.int8)  # row, a, b, k, s
    table[np.arange(4), [0, 0, 1, 1], [0, 1, 0, 1]] = 1
    setting, outcome = np.divmod(np.arange(2 * d), d)
    # Alice's marginals must not see Bob's setting, and symmetrically for Bob
    table[4 + np.arange(2 * d), setting, :, outcome] = [[1], [-1]]
    table[4 + 2 * d + np.arange(2 * d), :, setting, :, outcome] = [[1], [-1]]
    mat = table.reshape(len(table), -1)
    mat.flags.writeable = False
    return mat, (1,) * 4 + (0,) * (4 * d)


def constraint_matrix(s: Scenario) -> tuple[list[list[int]], list[int]]:
    """The normalization and no-signaling system of ``_constraint_system``
    as lists of Python ints: (rows, right-hand side)."""
    mat, rhs = _constraint_system(s.d)
    return mat.tolist(), list(rhs)


@lru_cache(maxsize=None)
def constraint_rank(s: Scenario) -> int:
    """Rank of the normalization and no-signalling system (4d, computed)."""
    return linalg.int_rank(_constraint_system(s.d)[0])


def constraint_verdicts(p: Behavior, scaled: tuple[np.ndarray, int] | None = None) -> tuple[bool, bool]:
    """Whether p is (normalized, no-signalling), read off one residual
    rhs - M.p of the whole ``_constraint_system``, scaled by the common
    denominator of p: its first four rows are normalization, the rest
    no-signaling, and each is zero exactly where p satisfies it.  A caller
    that already holds integer_rows([p.coords]) passes it as scaled."""
    mat, rhs = _constraint_system(p.d)
    num, den = linalg.integer_rows([p.coords]) if scaled is None else scaled
    residual = linalg.slack_matrix(mat, [den * b for b in rhs], num)[:, 0]
    return not residual[:4].any(), not residual[4:].any()


def polytope_affine_dim(s: Scenario) -> int:
    """Affine dimension of the hull of all d^4 generators.

    Every generator solves the normalization and no-signalling system, so
    the dimension is at most 4d^2 minus its rank.  The spanning strategy
    grid is a subset of the generators, and the rank of its rows less one
    is at most the rank of their differences, so at most the dimension.
    The grid is taken last strategy first.  When each of its generators
    then has a coordinate that no earlier one touches
    (``linalg.has_fresh_coordinate``), as for every d from 2 to 128, its
    rank is its size with no elimination.  When that rank less one meets
    the upper bound it is the answer; otherwise the differences of all d^4
    generators are ranked.
    """
    d = s.d
    upper = 4 * d * d - constraint_rank(s)
    grid = spanning_strategy_grid(d)[::-1].T
    if linalg.has_fresh_coordinate(generator_supports(d, grid), 4 * d * d).all() and grid.shape[1] - 1 == upper:
        return upper
    return linalg.affine_dim(generator_matrix(d))


def spanning_strategy_grid(d: int) -> np.ndarray:
    """A (2d-1)^2 family of strategies whose generators are independent,
    as the rows (a1, a2, b1, b2) of a (2d-1)^2 x 4 int64 array.

    Per-party setting pairs run through (0,0), (0,1), ..., (0,d-1),
    (1,d-1), ..., (d-1,d-1); the grid of all combinations, Alice's pair
    outer, gives the explicit independent family whose size pins the
    polytope dimension from below.
    """
    steps = np.arange(2 * d - 1, dtype=np.int64)
    pairs = np.stack([np.maximum(steps - (d - 1), 0), np.minimum(steps, d - 1)], axis=1)
    return np.concatenate([np.repeat(pairs, len(pairs), axis=0), np.tile(pairs, (len(pairs), 1))], axis=1)


def blocks_to_json(coords, shape: tuple[int, ...]) -> dict:
    """The four setting blocks of a coordinate vector, in BLOCKS order, as
    nested lists of the given shape: (d, d) for a behavior, (d,) for a
    correlator vector."""
    blocks = np.array([encode_rational(x) for x in coords], dtype=object).reshape(4, *shape)
    return {f"a{a}b{b}": block.tolist() for (a, b), block in zip(BLOCKS, blocks)}


def blocks_from_json(table: dict, shape: tuple[int, ...]) -> tuple[int | Fraction, ...]:
    """The coordinate vector of the four blocks of table.  Every block's
    shape is checked before any entry is decoded, so a ragged or deep
    block, a string or an object is refused, and a huge d allocates
    nothing."""
    blocks = [np.array(table[f"a{a}b{b}"], dtype=object) for a, b in BLOCKS]
    for (a, b), block in zip(BLOCKS, blocks):
        if block.shape != shape:
            raise ValueError(f"block a{a}b{b} must have shape {shape}, not {block.shape}")
    return tuple(decode_rational(x) for block in blocks for x in block.ravel().tolist())


def behavior_to_json(p: Behavior) -> dict:
    return {"d": p.d, "P": blocks_to_json(p.coords, (p.d, p.d))}


def behavior_from_json(data: dict) -> Behavior:
    d = decode_int(data["d"])
    if d < 2:
        raise ValueError("a behavior needs d >= 2 outcomes")
    return Behavior(d, blocks_from_json(data["P"], (d, d)))


def inequality_to_json(ineq: Inequality) -> dict:
    return {
        "space": ineq.space,
        "d": ineq.d,
        "coeffs": [encode_rational(c) for c in ineq.coeffs],
        "bound": encode_rational(ineq.bound),
    }


def inequality_from_json(data: dict) -> Inequality:
    return Inequality(
        space=str(data["space"]),
        d=decode_int(data["d"]),
        coeffs=tuple(decode_rational(c) for c in data["coeffs"]),
        bound=decode_rational(data["bound"]),
    )
