"""The CGLMP functional I_d and its two facet conditions.

On a deterministic strategy the functional depends only on four centered
outcome differences

    r = A1 - B1,   s = -A1 + B2,   t = -A2 + B1 - 1,   u = A2 - B2,

each shifted by a multiple of d into the window [-floor(d/2), floor((d-1)/2)],
which forces r+s+t+u into {d-1, -1, -d-1}.  The value is then
f(r)+f(s)+f(t)+f(u) with f(x) = -2x/(d-1)+1 for x >= 0 and
f(x) = -2x/(d-1)-(d+1)/(d-1) for x < 0, giving exactly three possible
outcomes: 2, -2/(d-1) and -2(d+1)/(d-1).

Two independent certificates are computed exhaustively:

* the bound: every one of the d^4 generators evaluates to at most 2, with
  the coefficient form and the f form agreeing strategy by strategy;
* tightness: the generators on the hyperplane I_d = 2 contain 4d(d-1)
  linearly independent vectors, exhibited constructively in d-1 staged
  batches of 4d vectors whose rank is checked to grow by exactly 4d at
  every step.

The staged batches live in permuted coordinates in which a generator reads
|A,r> + |A,s> + |A-r,t> + |A+s,u> blockwise; the permutation is orthogonal
(a relabeling of coordinates), so ranks agree with the behavior frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import linalg
from .correlators import cglmp_corr_inequality, lift
from .scenario import (
    BLOCKS,
    DeterministicStrategy,
    Inequality,
    check_strategy,
    coord_index,
    generator_rows,
)


class RSTU(NamedTuple):
    r: int
    s: int
    t: int
    u: int


@dataclass(frozen=True)
class CaseClass:
    """Sign-pattern case of an RSTU tuple: negatives count plus sum branch."""

    tag: str  # case1, case2a, case2b, case3, case4a, case4b, case5
    negatives: int
    total: int
    value: Fraction


class VerificationError(AssertionError):
    """An exhaustive check found a counterexample (carries the offender)."""


def window_bounds(d: int) -> tuple[int, int]:
    return -(d // 2), (d - 1) // 2


def center_mod(x: int, d: int) -> int:
    """Shift x by a multiple of d into [-floor(d/2), floor((d-1)/2)]."""
    lo, _ = window_bounds(d)
    return (x - lo) % d + lo


def _rstu_arrays(grid: np.ndarray, d: int) -> np.ndarray:
    """rstu of every strategy in a 4 x n array (a1, a2, b1, b2) as a 4 x n array."""
    a1, a2, b1, b2 = grid
    return np.stack([
        center_mod(a1 - b1, d),
        center_mod(-a1 + b2, d),
        center_mod(-a2 + b1 - 1, d),
        center_mod(a2 - b2, d),
    ])


def _f_sums(v: np.ndarray, d: int) -> np.ndarray:
    """(d-1) times I_d of every column of a 4 x n rstu array, by the f form."""
    return np.where(v >= 0, -2 * v + (d - 1), -2 * v - (d + 1)).sum(axis=0)


CASE_TAGS = ("case1", "case2a", "case2b", "case3", "case4a", "case4b", "case5")


def _case_keys(d: int) -> tuple[tuple[int, int], ...]:
    """(number of negatives, r+s+t+u) of each case in CASE_TAGS."""
    return (0, d - 1), (1, d - 1), (1, -1), (2, -1), (3, -1), (3, -d - 1), (4, -d - 1)


def _case_codes(v: np.ndarray, d: int) -> np.ndarray:
    """Case of every column of a 4 x n rstu array, as its position in
    CASE_TAGS; -1 where no sign/sum case matches (classify_case would
    refuse it)."""
    neg = (v < 0).sum(axis=0)
    total = v.sum(axis=0)
    codes = np.full(total.shape, -1)
    for code, (n, t) in enumerate(_case_keys(d)):
        codes[(neg == n) & (total == t)] = code
    return codes


def _sweep(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one pass over all d^4 strategies: the 4 x d^4 array (a1, a2, b1,
    b2) in all_strategies order, its rstu array and its case codes."""
    grid = np.indices((d,) * 4).reshape(4, -1)
    v = _rstu_arrays(grid, d)
    return grid, v, _case_codes(v, d)


def rstu(lam: DeterministicStrategy, d: int) -> RSTU:
    """rstu of one strategy; this and the scalar views below are one-column
    calls of the sweep's kernels."""
    lam = DeterministicStrategy(*lam)
    check_strategy(d, lam)
    return RSTU(*_rstu_arrays(np.array(lam)[:, None], d)[:, 0].tolist())


def f_value(x: int, d: int) -> Fraction:
    """The per-variable weight; exact rational."""
    return Fraction(int(_f_sums(np.array([[x]]), d)[0]), d - 1)


def eval_on_generator(lam: DeterministicStrategy, d: int) -> Fraction:
    """I_d of a generator through the f form."""
    return Fraction(int(_f_sums(np.array(rstu(lam, d))[:, None], d)[0]), d - 1)


def classify_case(v: RSTU, d: int) -> CaseClass:
    lo, hi = window_bounds(d)
    if not all(lo <= x <= hi for x in v):
        raise ValueError(f"{v} violates the window for d={d}")
    col = np.array(v)[:, None]
    code = int(_case_codes(col, d)[0])
    if code < 0:
        raise ValueError(f"{v} matches no sign/sum case for d={d}")
    neg, total = _case_keys(d)[code]
    return CaseClass(CASE_TAGS[code], neg, total, Fraction(int(_f_sums(col, d)[0]), d - 1))


def cglmp_inequality(d: int) -> Inequality:
    """I_d over behavior coordinates, bound 2: the lift of the correlator
    table cglmp_corr_inequality(d)."""
    return lift(cglmp_corr_inequality(d))


def evaluate(ineq: Inequality, p) -> Fraction:
    """Exact inner product of an inequality's coefficients with a vector."""
    coords = p.coords if hasattr(p, "coords") else tuple(p)
    if hasattr(p, "d") and p.d != ineq.d:
        raise ValueError(f"cannot evaluate {ineq.space} inequality on {type(p).__name__} with d={p.d}")
    if len(coords) != len(ineq.coeffs):
        raise ValueError("coefficient/vector length mismatch")
    return sum(c * x for c, x in zip(ineq.coeffs, coords) if c)


@dataclass(frozen=True)
class Condition1Report:
    """Outcome of the exhaustive bound check over all d^4 generators."""

    d: int
    total: int
    max_value: Fraction
    histogram: dict[Fraction, int]
    case_histogram: dict[str, int]


def verify_condition1(d: int) -> Condition1Report:
    """Evaluate I_d on every generator by both forms and check everything.

    The coefficient form reads cglmp_inequality(d), the lifted correlator
    table, and the f form the sweep, both in integers scaled by d-1 over
    all d^4 strategies in all_strategies order.  A lifted inequality takes
    on a generator the value the correlator one takes on its projection, so
    agreement also certifies the correlator table.  Any disagreement
    between the forms, any value outside {2, -2/(d-1), -2(d+1)/(d-1)}, or a
    maximum different from 2 raises VerificationError naming the first
    offending strategy, read off the sweep arrays.
    """
    ineq = cglmp_inequality(d)
    scale = d - 1
    coeffs_scaled = [c * scale for c in ineq.coeffs]
    if any(c.denominator != 1 for c in coeffs_scaled):
        raise AssertionError("scaled coefficients must be integers")
    cs = [int(c) for c in coeffs_scaled]
    cs = np.array(cs, dtype=np.int64 if max(map(abs, cs)) < linalg.OVERFLOW_LIMIT // 4 else object)
    grid, v, cases = _sweep(d)
    a1, a2, b1, b2 = grid
    o11, o12, o21, o22 = (coord_index(d, a, b, 0, 0) for a, b in BLOCKS)
    by_coeff = cs[o11 + a1 * d + b1] + cs[o12 + a1 * d + b2] + cs[o21 + a2 * d + b1] + cs[o22 + a2 * d + b2]
    by_f = _f_sums(v, d)
    disagree = by_f != by_coeff
    stray = ~np.isin(by_f, (2 * scale, -2, -2 * (d + 1)))
    bad = disagree | stray | (cases < 0)
    if bad.any():
        i = int(np.argmax(bad))
        lam = DeterministicStrategy(*grid[:, i].tolist())
        value = Fraction(int(by_f[i]), scale)
        if disagree[i]:
            raise VerificationError(
                f"coefficient form and f form disagree on {lam}: {Fraction(int(by_coeff[i]), scale)} vs {value}"
            )
        if stray[i]:
            raise VerificationError(f"{lam} evaluates to {value}, outside the value set")
        classify_case(RSTU(*v[:, i].tolist()), d)  # raises: no sign/sum case matches
    best = int(by_f.max())
    if best != 2 * scale:
        raise VerificationError(f"maximum over generators is {Fraction(best, scale)}, not 2")
    values, counts = np.unique(by_f, return_counts=True)
    histogram = {Fraction(int(k), scale): int(n) for k, n in sorted(zip(values, counts), reverse=True)}
    codes, code_counts = np.unique(cases, return_counts=True)
    return Condition1Report(
        d=d,
        total=d**4,
        max_value=Fraction(2),
        histogram=histogram,
        case_histogram=dict(sorted((CASE_TAGS[c], int(n)) for c, n in zip(codes, code_counts))),
    )


SATURATING_CODES = (CASE_TAGS.index("case1"), CASE_TAGS.index("case2b"))


def _saturating_mask(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's strategies and rstu arrays, and the mask of the
    saturating strategies (case1 and case2b)."""
    grid, v, codes = _sweep(d)
    return grid, v, np.isin(codes, SATURATING_CODES)


def _saturating_count(d: int) -> int:
    """The number of saturating strategies, from the d^3 with a1 = 0.

    r, s, t and u read only outcome differences, so shifting every outcome
    by 1 mod d permutes the saturating strategies; each orbit of the shift
    holds d strategies, one of them with a1 = 0.
    """
    v = _rstu_arrays(np.indices((1, d, d, d)).reshape(4, -1), d)
    return d * int(np.isin(_case_codes(v, d), SATURATING_CODES).sum())


def saturating_generators(d: int) -> list[DeterministicStrategy]:
    """All strategies with I_d = 2; equals case1 plus case2b exactly."""
    grid, v, mask = _saturating_mask(d)
    if not np.array_equal(_f_sums(v, d) == 2 * (d - 1), mask):
        raise VerificationError("value-saturating set differs from the case-pattern set")
    return [DeterministicStrategy(*lam) for lam in grid[:, mask].T.tolist()]


def _saturating_matrix(d: int) -> np.ndarray:
    """0/1 behavior rows of all saturating generators, vectorized."""
    grid, _, mask = _saturating_mask(d)
    return generator_rows(d, grid[:, mask])


@dataclass(frozen=True)
class TightnessReport:
    d: int
    h: int  # 4d(d-1), the affine dimension the rank must reach
    saturating: int
    rank: int
    # the checked witness batches, or the error that stopped them
    witness: list[WitnessBatch] | None = field(default=None, compare=False, repr=False)
    witness_error: WitnessError | None = field(default=None, compare=False)

    @property
    def tight(self) -> bool:
        return self.rank == self.h


def tightness_rank(d: int) -> TightnessReport:
    """Rank of the saturating generators; tight means it reaches 4d(d-1).

    Every generator satisfies the normalization and no-signalling system,
    whose solutions form an affine space of dimension h = 4d(d-1) that
    misses the origin; the saturating ones also lie on the hyperplane
    I_d = 2, which cuts that space since not every generator saturates.
    So their linear rank is at most h, and constructive_witness, whose
    vectors are checked saturating generators, reaching rank h proves the
    rank is h; it reads that rank off fresh coordinates, and eliminates
    only when some vector has none.  The saturating generators are counted
    on the d^3 strategies with a1 = 0 (``_saturating_count``).  The whole
    d^4 sweep runs and the saturating matrix is ranked only when the
    witness fails, so a report that is not tight still carries the true
    rank.
    """
    h = 4 * d * (d - 1)
    try:
        batches, error, rank = constructive_witness(d), None, h
    except WitnessError as exc:
        batches, error, rank = None, exc, linalg.int_rank(_saturating_matrix(d))
    return TightnessReport(d, h, _saturating_count(d), rank, batches, error)


# --- staged witness -------------------------------------------------------

SCHEME_EXAMPLE1 = "example1"
SCHEME_EXAMPLE2 = "example2"
SCHEME_EXAMPLE2_VARIANT = "example2-variant"


@dataclass(frozen=True)
class WitnessBatch:
    """One step of the staged independence certificate: 4d vectors."""

    step_index: int
    scheme: str
    params: tuple[int, ...]
    strategies: tuple[DeterministicStrategy, ...]  # d per pattern
    supports: tuple[tuple[int, ...], ...]  # the ones of each permuted-frame vector
    rank_after: int


class WitnessError(VerificationError):
    """A witness batch failed to raise the rank by 4d."""


def witness_steps(d: int) -> list[tuple[str, tuple[int, ...]]]:
    """The step table: scheme plus parameters for each of the d-1 batches.

    First phase walks through all-nonnegative difference tuples summing to
    d-1, introducing one previously unused value per step (two steps per
    fresh pair of values); second phase covers one strictly negative value
    per step with sum -1.  The branch shape depends on d mod 4.
    """
    e, m = divmod(d, 4)
    first: list[tuple[str, tuple[int, ...]]] = []
    if m == 0:
        for k in range(1, e + 1):
            first.append((SCHEME_EXAMPLE1, (e - k, e + k - 1, e, e)))
            if k < e:
                first.append((SCHEME_EXAMPLE1, (e + k, e - k, e - 1, e)))
        negatives = 2 * e
    elif m == 1:
        first.append((SCHEME_EXAMPLE2, (e + 1, e - 1, e - 1)))
        first.append((SCHEME_EXAMPLE2_VARIANT, (e, e - 1, e + 1)))
        for k in range(2, e + 1):
            first.append((SCHEME_EXAMPLE1, (e + k, e - k + 1, e - 1, e)))
            first.append((SCHEME_EXAMPLE1, (e - k, e + k, e, e)))
        negatives = 2 * e
    elif m == 2:
        for k in range(1, e + 1):
            first.append((SCHEME_EXAMPLE1, (e + k, e - k + 1, e, e)))
            first.append((SCHEME_EXAMPLE1, (e - k, e + k, e + 1, e)))
        negatives = 2 * e + 1
    else:
        first.append((SCHEME_EXAMPLE2, (e + 1, e, e)))
        for k in range(1, e + 1):
            first.append((SCHEME_EXAMPLE1, (e - k, e + k, e + 1, e + 1)))
            first.append((SCHEME_EXAMPLE1, (e + k + 1, e - k, e + 1, e)))
        negatives = 2 * e + 1
    second = [(SCHEME_EXAMPLE1, (-k, k - 1, 0, 0)) for k in range(1, negatives + 1)]
    steps = first + second
    if len(steps) != d - 1:
        raise AssertionError(f"step table for d={d} has {len(steps)} entries")
    return steps


def scheme_patterns(scheme: str, params: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """The four (r,s,t,u) assignments a step contributes."""
    if scheme == SCHEME_EXAMPLE1:
        a, b1, b2, b3 = params
        return [(a, b1, b2, b3), (b3, a, b1, b2), (b2, b3, a, b1), (b1, b2, b3, a)]
    if scheme == SCHEME_EXAMPLE2:
        a, b1, b2 = params
        return [(a, a, b1, b2), (a, b1, a, b2), (a, b1, b2, a), (b1, a, a, b2)]
    if scheme == SCHEME_EXAMPLE2_VARIANT:
        # the example-2 rows with the roles of (r,s) and (t,u) exchanged,
        # used when the step's fresh value sits in the last two slots
        a, b1, b2 = params
        return [(b1, b2, a, a), (a, b2, a, b1), (b2, a, a, b1), (a, b2, b1, a)]
    raise ValueError(f"unknown scheme {scheme!r}")


def _witness_support(pattern, first, d: int) -> tuple:
    """The four coordinates at which a witness vector is 1; elementwise
    over arrays of patterns (r, s, t, u) and first outcomes."""
    r, s, t, u = pattern
    a1 = first % d
    return (
        coord_index(d, 1, 1, a1, r % d),
        coord_index(d, 1, 2, a1, s % d),
        coord_index(d, 2, 1, (a1 - r) % d, t % d),
        coord_index(d, 2, 2, (a1 + s) % d, u % d),
    )


def _example2_minor(scheme: str, params: tuple[int, ...], d: int) -> list[list[int]]:
    """Projection of a step's four rows (at A=0) onto its four key coordinates."""
    a, b1, b2 = params
    if scheme == SCHEME_EXAMPLE2:
        cols = [
            coord_index(d, 1, 1, 0, a % d),
            coord_index(d, 1, 2, 0, a % d),
            coord_index(d, 2, 1, (-a) % d, a % d),
            coord_index(d, 2, 2, b1 % d, a % d),
        ]
    else:
        cols = [
            coord_index(d, 1, 1, 0, a % d),
            coord_index(d, 1, 2, 0, a % d),
            coord_index(d, 2, 1, (-b1) % d, a % d),
            coord_index(d, 2, 2, b2 % d, a % d),
        ]
    return [[int(c in _witness_support(p, 0, d)) for c in cols] for p in scheme_patterns(scheme, params)]


def _checked_steps(d: int):
    """The witness steps in order, every vector checked to be a saturating
    generator and every example-2 style step to have a nonsingular 4x4 key
    minor; raises WitnessError at the first step that fails a check.  Each
    step comes as the WitnessBatch fields before rank_after.

    A step's 4d vectors, pattern by pattern and first outcome A1 = 0..d-1
    within each, are checked by one _rstu_arrays call; the first vector in
    that order that fails a check names the failure.
    """
    lo, hi = window_bounds(d)
    for step_index, (scheme, params) in enumerate(witness_steps(d)):
        patterns = scheme_patterns(scheme, params)
        pattern = np.repeat(np.array(patterns, dtype=np.int64).T, d, axis=1)  # one column per vector
        r, s, t, u = pattern
        a1 = np.tile(np.arange(d), len(patterns))
        b1, b2 = (a1 - r) % d, (a1 + s) % d
        a2 = (b1 - t - 1) % d
        grid = np.stack([a1, a2, b1, b2])
        v = _rstu_arrays(grid, d)
        outside = ((pattern < lo) | (pattern > hi)).any(axis=0)
        incongruent = a2 != (b2 + u) % d
        moved = (v != pattern).any(axis=0)
        bad = outside | incongruent | moved | (_f_sums(v, d) != 2 * (d - 1))
        if bad.any():
            i = int(np.argmax(bad))
            p = patterns[i // d]
            if outside[i]:
                raise WitnessError(f"step {step_index}: pattern {p} leaves the window for d={d}")
            if incongruent[i]:
                raise AssertionError(f"pattern {p} is not congruent to -1 mod {d}")
            if moved[i]:
                lam = DeterministicStrategy(*grid[:, i].tolist())
                raise WitnessError(f"step {step_index}: {p} does not reproduce itself from {lam}")
            raise WitnessError(f"step {step_index}: pattern {p} is not saturating")
        if scheme in (SCHEME_EXAMPLE2, SCHEME_EXAMPLE2_VARIANT):
            minor = _example2_minor(scheme, params, d)
            if linalg.int_rank(minor) != 4:
                raise WitnessError(f"step {step_index}: singular key minor for {scheme} {params}")
        strategies = tuple(DeterministicStrategy(*lam) for lam in grid.T.tolist())
        supports = tuple(map(tuple, np.stack(_witness_support(pattern, a1, d)).T.tolist()))
        yield step_index, scheme, tuple(params), strategies, supports


def constructive_witness(d: int) -> list[WitnessBatch]:
    """Build and verify the d-1 staged batches of 4d saturating vectors.

    Every vector is checked to be a saturating generator, every example-2
    style step is checked to have a nonsingular 4x4 key minor, and the rank
    of the batches so far is required to grow by exactly 4d per batch,
    ending at 4d(d-1).  Raises WitnessError naming the first failing step
    otherwise.

    With the vectors as the columns of one matrix, the pivot columns below
    the end of a batch count the rank of the batches up to it.  When every
    vector has a coordinate that no earlier vector touches
    (``linalg.has_fresh_coordinate``), every column is a pivot and no
    matrix is built.  That holds for every d from 2 to 128 but d = 1 mod 4,
    where d vectors of the example2-variant step have none; then the 0/1
    matrix is built and one elimination (``linalg.pivot_columns``) serves
    every prefix.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    steps: list[tuple] = []
    error = None
    try:
        for step in _checked_steps(d):
            steps.append(step)
    except WitnessError as exc:  # raised after the steps before it are ranked
        error = exc
    supports = np.array([sup for *_, step_supports in steps for sup in step_supports], dtype=np.int64).reshape(-1, 4)
    if linalg.has_fresh_coordinate(supports, 4 * d * d).all():
        pivots = np.arange(len(supports))
    else:
        stack = np.zeros((4 * d * d, len(supports)), dtype=np.int8)
        stack[supports.T, np.arange(len(supports))] = 1
        pivots = np.array(linalg.pivot_columns(stack), dtype=np.int64)
    rank = 0
    end = 0
    batches: list[WitnessBatch] = []
    for step in steps:
        step_index, scheme, params, _, step_supports = step
        end += len(step_supports)
        before, rank = rank, int(np.searchsorted(pivots, end))
        if rank != before + 4 * d:
            raise WitnessError(
                f"step {step_index} ({scheme} {params}) raised the rank by "
                f"{rank - before}, expected {4 * d}"
            )
        batches.append(WitnessBatch(*step, rank_after=rank))
    if error is not None:
        raise error
    if rank != 4 * d * (d - 1):
        raise WitnessError(f"witness ends at rank {rank}, expected {4 * d * (d - 1)}")
    return batches
