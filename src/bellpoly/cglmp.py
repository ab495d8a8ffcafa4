"""The CGLMP functional I_d and its two facet conditions.

On a deterministic strategy the functional depends only on four centered
outcome differences

    r = A1 - B1,   s = -A1 + B2,   t = -A2 + B1 - 1,   u = A2 - B2,

each shifted by a multiple of d into the window [-floor(d/2), floor((d-1)/2)],
which forces r+s+t+u into {d-1, -1, -d-1}.  The value is then
f(r)+f(s)+f(t)+f(u) with f(x) = -2x/(d-1)+1 for x >= 0 and
f(x) = -2x/(d-1)-(d+1)/(d-1) for x < 0, giving exactly three possible
outcomes: 2, -2/(d-1) and -2(d+1)/(d-1).

Each variable reads one outcome of each party: r reads (A1, B1), s reads
(A1, B2), t reads (A2, B1) and u reads (A2, B2), the blocks of BLOCKS in
order.  So every per-strategy quantity of the certificates is the sum of
four entries of d x d pair tables, one table per variable: the centered
value, (d-1) f, its part of the (negatives, r+s+t+u) case key, and the
coefficient of its block.  The sweep adds the four tables by broadcasting
over (a1, a2, b1, b2), in blocks of consecutive a1 values in
all_strategies order of about 2^16 strategies (a single a1 value, d^3
strategies, from d = 33 on), and counts the case keys of each block with
np.bincount.  No array holds more than one block, so every sweep runs in
O(d^3) memory.

Two independent certificates are computed exhaustively:

* the bound: every one of the d^4 generators evaluates to at most 2, with
  the coefficient form and the f form agreeing strategy by strategy;
* tightness: the generators on the hyperplane I_d = 2 contain 4d(d-1)
  linearly independent vectors, exhibited constructively in d-1 staged
  batches of 4d vectors whose rank is checked to grow by exactly 4d at
  every step.  The 4d(d-1) vectors of all batches are checked to be
  saturating generators, and ranked, in one pass of array calls; the
  batches are then walked in order, so the first batch that fails a check
  is the one named.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import linalg
from .correlators import cglmp_corr_inequality, lift
from .scenario import (
    DeterministicStrategy,
    Inequality,
    coord_index,
    generator_rows,
    generator_supports,
)


class VerificationError(AssertionError):
    """An exhaustive check found a counterexample (carries the offender)."""


def window_bounds(d: int) -> tuple[int, int]:
    return -(d // 2), (d - 1) // 2


def center_mod(x: int, d: int) -> int:
    """Shift x by a multiple of d into [-floor(d/2), floor((d-1)/2)]."""
    lo, _ = window_bounds(d)
    return (x - lo) % d + lo


def _rstu_arrays(grid: np.ndarray, d: int) -> np.ndarray:
    """r, s, t and u of every strategy in a 4 x n array (a1, a2, b1, b2), as a 4 x n array."""
    a1, a2, b1, b2 = grid
    return np.stack([
        center_mod(a1 - b1, d),
        center_mod(-a1 + b2, d),
        center_mod(-a2 + b1 - 1, d),
        center_mod(a2 - b2, d),
    ])


def _pair_tables(d: int) -> np.ndarray:
    """r, s, t and u as a 4 x d x d array over the two outcomes each reads,
    Alice's first: r[a1, b1], s[a1, b2], t[a2, b1] and u[a2, b2]."""
    alice, bob = np.indices((d, d))
    return _rstu_arrays(np.stack([alice, alice, bob, bob]), d)


def _f_scaled(v: np.ndarray, d: int) -> np.ndarray:
    """(d-1) f of every entry of an (r, s, t, u) array."""
    return np.where(v >= 0, -2 * v + (d - 1), -2 * v - (d + 1))


def _f_sums(v: np.ndarray, d: int) -> np.ndarray:
    """(d-1) times I_d of every column of a 4 x n (r, s, t, u) array, by the f form."""
    return _f_scaled(v, d).sum(axis=0)


CASE_TAGS = ("case1", "case2a", "case2b", "case3", "case4a", "case4b", "case5")


def _case_keys(d: int) -> tuple[tuple[int, int], ...]:
    """(number of negatives, r+s+t+u) of each case in CASE_TAGS."""
    return (0, d - 1), (1, d - 1), (1, -1), (2, -1), (3, -1), (3, -d - 1), (4, -d - 1)


def _case_key(v: np.ndarray, d: int) -> np.ndarray:
    """Each entry's part of the case key of an (r, s, t, u) array.  Summed
    over r, s, t and u it is 4d times the number of negatives plus r+s+t+u
    - 4 lo, where lo is the bottom of the window: one integer in [0, 20d)
    for each (negatives, r+s+t+u)."""
    lo, _ = window_bounds(d)
    return (v < 0) * (4 * d) + (v - lo)


def _key_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The case of every case key, as its position in CASE_TAGS (-1 where
    no sign/sum case matches, which verify_condition1 refuses), and its
    (d-1) I_d.  (d-1) f(x) is -2x + d - 1 for x >= 0 and -2x - d - 1 below,
    so the f form of a strategy depends on its key alone."""
    lo, _ = window_bounds(d)
    neg, total = np.divmod(np.arange(20 * d), 4 * d)
    total += 4 * lo
    codes = np.full(20 * d, -1)
    for code, (n, t) in enumerate(_case_keys(d)):
        codes[4 * d * n + t - 4 * lo] = code
    return codes, -2 * total + (4 - neg) * (d - 1) - neg * (d + 1)


# strategies in one block of the sweep, rounded down to whole a1 values (at least one)
_SWEEP_BLOCK = 1 << 16


def _sweep_sums(d: int, tables, a1_stop: int | None = None):
    """The sweep over the strategies with a1 below a1_stop (all d^4 by
    default), in blocks of consecutive a1 values in all_strategies order.

    tables holds 4 x d x d stacks of pair tables, indexed like
    _pair_tables.  For each block this yields its first a1 and, for each
    stack, the sum of the four entries every strategy of the block reads,
    an array over (a1, a2, b1, b2).
    """
    stop = d if a1_stop is None else a1_stop
    step = max(1, _SWEEP_BLOCK // d**3)
    tu = [t[:, :, None] + u[:, None, :] for _, _, t, u in tables]  # over (a2, b1, b2), the same in every block
    for start in range(0, stop, step):
        a1 = slice(start, min(start + step, stop))
        yield start, [r[a1, None, :, None] + s[a1, None, None, :] + rest for (r, s, _, _), rest in zip(tables, tu)]


def cglmp_inequality(d: int) -> Inequality:
    """I_d over behavior coordinates, bound 2: the lift of the correlator
    table cglmp_corr_inequality(d)."""
    return lift(cglmp_corr_inequality(d))


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
    table, and the f form the pair tables, both in integers scaled by d-1
    over all d^4 strategies in all_strategies order.  A lifted inequality
    takes on a generator the value the correlator one takes on its
    projection, so agreement also certifies the correlator table.  The
    sweep adds, block by block, the tables of coefficient minus f (zero
    on every strategy where the forms agree) and of the case key, and
    counts the keys; the value histogram is read off the key counts.  Any
    disagreement between the forms, any value outside {2, -2/(d-1),
    -2(d+1)/(d-1)}, a strategy matching no sign/sum case, or a maximum
    different from 2 raises VerificationError naming the first offending
    strategy: the first in the first block that has one.
    """
    ineq = cglmp_inequality(d)
    scale = d - 1
    (num,), den = linalg.integer_rows([ineq.coeffs])
    if scale % den:
        raise AssertionError("scaled coefficients must be integers")
    # the four-term sums stay exact in int64 below this peak (the f terms are at most d-1)
    if linalg._peak(num) * (scale // den) >= linalg.OVERFLOW_LIMIT // 4:
        num = num.astype(object)
    v = _pair_tables(d)
    # the coefficients come in BLOCKS order, which is the order of r, s, t, u
    diff = num.reshape(4, d, d) * (scale // den) - _f_scaled(v, d)
    codes, values = _key_table(d)
    allowed = np.isin(values, (2 * scale, -2, -2 * (d + 1)))
    refused = (codes < 0) | ~allowed
    counts = np.zeros(len(codes), dtype=np.int64)
    for start, (gap, keys) in _sweep_sums(d, (diff, _case_key(v, d))):
        block = np.bincount(keys.ravel(), minlength=len(codes))
        if np.count_nonzero(gap) or block[refused].any():
            i = np.unravel_index(int(np.argmax((gap != 0) | refused[keys])), keys.shape)
            lam = DeterministicStrategy(start + int(i[0]), *map(int, i[1:]))
            by_f = int(values[keys[i]])
            value = Fraction(by_f, scale)
            if gap[i]:
                raise VerificationError(
                    f"coefficient form and f form disagree on {lam}: {Fraction(by_f + int(gap[i]), scale)} vs {value}"
                )
            if not allowed[keys[i]]:
                raise VerificationError(f"{lam} evaluates to {value}, outside the value set")
            if codes[keys[i]] < 0:
                v = tuple(_rstu_arrays(np.array(lam)[:, None], d)[:, 0].tolist())
                raise VerificationError(f"{lam} with (r, s, t, u) = {v} matches no sign/sum case for d={d}")
        counts += block
    present = np.flatnonzero(counts)
    best = int(values[present].max())
    if best != 2 * scale:
        raise VerificationError(f"maximum over generators is {Fraction(best, scale)}, not 2")
    histogram: dict[Fraction, int] = {}
    case_histogram: dict[str, int] = {}
    for key in present:
        value, tag, n = Fraction(int(values[key]), scale), CASE_TAGS[codes[key]], int(counts[key])
        histogram[value] = histogram.get(value, 0) + n
        case_histogram[tag] = case_histogram.get(tag, 0) + n
    return Condition1Report(
        d=d,
        total=d**4,
        max_value=Fraction(2),
        histogram=dict(sorted(histogram.items(), reverse=True)),
        case_histogram=dict(sorted(case_histogram.items())),
    )


SATURATING_CODES = (CASE_TAGS.index("case1"), CASE_TAGS.index("case2b"))


def _saturating_strategies(d: int) -> np.ndarray:
    """The saturating strategies (case1 and case2b) as the rows of an n x 4
    array (a1, a2, b1, b2) in all_strategies order, checked block by block
    to be exactly those whose f form gives I_d = 2."""
    v = _pair_tables(d)
    saturating = np.isin(_key_table(d)[0], SATURATING_CODES)
    found = []
    for start, (by_f, keys) in _sweep_sums(d, (_f_scaled(v, d), _case_key(v, d))):
        mask = saturating[keys]
        if not np.array_equal(by_f == 2 * (d - 1), mask):
            raise VerificationError("value-saturating set differs from the case-pattern set")
        found.append(np.argwhere(mask) + [start, 0, 0, 0])
    return np.concatenate(found)


def _saturating_count(d: int) -> int:
    """The number of saturating strategies, from the d^3 with a1 = 0.

    r, s, t and u read only outcome differences, so shifting every outcome
    by 1 mod d permutes the saturating strategies; each orbit of the shift
    holds d strategies, one of them with a1 = 0.
    """
    codes, _ = _key_table(d)
    ((_, (keys,)),) = _sweep_sums(d, (_case_key(_pair_tables(d), d),), a1_stop=1)
    return d * int(np.bincount(keys.ravel(), minlength=len(codes))[np.isin(codes, SATURATING_CODES)].sum())


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
        batches, error, rank = None, exc, linalg.int_rank(generator_rows(d, _saturating_strategies(d).T))
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
    strategies: np.ndarray = field(compare=False)  # n x 4, a1 a2 b1 b2 of each vector; d per pattern
    supports: np.ndarray = field(compare=False)  # n x 4, generator_supports of the strategies
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


def _pattern_strategies(pattern: np.ndarray, a1, d: int) -> np.ndarray:
    """The strategy (a1, a2, b1, b2) that reads each pattern (r, s, t, u)
    from its first outcome a1: b1 = a1 - r, b2 = a1 + s and a2 = b1 - t - 1
    mod d; columnwise over a 4 x n pattern array and the n first outcomes."""
    r, s, t, _ = pattern
    b1, b2 = (a1 - r) % d, (a1 + s) % d
    return np.stack(np.broadcast_arrays(a1, (b1 - t - 1) % d, b1, b2))


def _example2_minor(scheme: str, params: tuple[int, ...], d: int) -> list[list[int]]:
    """Projection of a step's four rows (at a1 = 0) onto its four key
    coordinates.  The paper writes a generator as |A,r> + |A,s> + |A-r,t>
    + |A+s,u> blockwise and takes the keys |0,a>, |0,a>, |c,a> and |e,a>,
    (c, e) = (-a, b1) in example 2 and (-b1, b2) in its variant; in
    behavior coordinates they are (0, -a), (0, a), (c - a - 1, c) and
    (e + a, e)."""
    a, b1, b2 = params
    c, e = (-a, b1) if scheme == SCHEME_EXAMPLE2 else (-b1, b2)
    cols = [
        coord_index(d, 1, 1, 0, -a % d),
        coord_index(d, 1, 2, 0, a % d),
        coord_index(d, 2, 1, (c - a - 1) % d, c % d),
        coord_index(d, 2, 2, (e + a) % d, e % d),
    ]
    rows = generator_supports(d, _pattern_strategies(np.array(scheme_patterns(scheme, params)).T, 0, d))
    return [[int(col in row) for col in cols] for row in rows.tolist()]


def _witness_pivots(supports: np.ndarray, d: int) -> np.ndarray:
    """The pivot columns of the witness vectors, given by their supports in
    witness order, as the columns of one 4d^2-row 0/1 matrix.

    A vector with a fresh coordinate (``linalg.has_fresh_coordinate``) is a
    pivot.  Only the vectors up to the last one without a fresh coordinate
    are eliminated (``linalg.pivot_columns``), as an int8 matrix of the
    rows they touch: whether a column is a pivot depends only on the
    columns before it, and the rows they do not touch are zero in all of
    them.  Every vector after that prefix is a pivot.
    """
    pivots = np.arange(len(supports))
    stale = np.flatnonzero(~linalg.has_fresh_coordinate(supports, 4 * d * d))
    if len(stale):
        end = int(stale[-1]) + 1
        rows, at = np.unique(supports[:end].ravel(), return_inverse=True)
        stack = np.zeros((len(rows), end), dtype=np.int8)
        stack[at.reshape(end, -1).T, np.arange(end)] = 1
        pivots = np.concatenate([np.array(linalg.pivot_columns(stack), dtype=np.int64), pivots[end:]])
    return pivots


def constructive_witness(d: int) -> list[WitnessBatch]:
    """Build and verify the d-1 staged batches of 4d saturating vectors.

    Every vector is checked to be a saturating generator, every example-2
    style step is checked to have a nonsingular 4x4 key minor, and the rank
    of the batches so far is required to grow by exactly 4d per batch,
    ending at 4d(d-1).  Raises WitnessError naming the first failing step
    otherwise.

    The vectors of all steps, step by step, pattern by pattern and first
    outcome a1 = 0..d-1 within each, are checked in one pass of array
    calls.  Their supports (``generator_supports``), as the columns of one
    matrix, are ranked up to the first step holding a failing vector: the
    pivot columns below the end of a batch count the rank of the batches
    up to it (``_witness_pivots``).  When every vector has a coordinate
    that no earlier vector touches (``linalg.has_fresh_coordinate``), as
    for every d from 2 to 129 but d = 1 mod 4, no matrix is built; at d = 1
    mod 4 only the first two steps are eliminated, on the about 12d rows
    they touch.  The steps are then walked in order, each raising for its
    first failing vector, then for a singular key minor, then for a rank
    gain other than 4d.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    lo, hi = window_bounds(d)
    steps = witness_steps(d)
    step_patterns = [scheme_patterns(scheme, params) for scheme, params in steps]
    ends = d * np.cumsum([len(patterns) for patterns in step_patterns], dtype=np.int64)
    flat = [p for patterns in step_patterns for p in patterns]
    pattern = np.repeat(np.array(flat, dtype=np.int64).reshape(-1, 4).T, d, axis=1)  # one column per vector
    grid = _pattern_strategies(pattern, np.tile(np.arange(d), len(flat)), d)
    v = _rstu_arrays(grid, d)
    outside = ((pattern < lo) | (pattern > hi)).any(axis=0)
    incongruent = grid[1] != (grid[3] + pattern[3]) % d
    moved = (v != pattern).any(axis=0)
    bad = outside | incongruent | moved | (_f_sums(v, d) != 2 * (d - 1))
    first_bad = int(np.argmax(bad)) if bad.any() else len(bad)
    supports = generator_supports(d, grid)
    pivots = _witness_pivots(supports[: ends[ends <= first_bad].max(initial=0)], d)
    rank = start = 0
    batches: list[WitnessBatch] = []
    for step_index, ((scheme, params), patterns, end) in enumerate(zip(steps, step_patterns, ends.tolist())):
        if first_bad < end:
            i, p = first_bad, patterns[(first_bad - start) // d]
            if outside[i]:
                raise WitnessError(f"step {step_index}: pattern {p} leaves the window for d={d}")
            if incongruent[i]:
                raise AssertionError(f"pattern {p} is not congruent to -1 mod {d}")
            if moved[i]:
                lam = DeterministicStrategy(*grid[:, i].tolist())
                raise WitnessError(f"step {step_index}: {p} does not reproduce itself from {lam}")
            raise WitnessError(f"step {step_index}: pattern {p} is not saturating")
        if scheme in (SCHEME_EXAMPLE2, SCHEME_EXAMPLE2_VARIANT):
            if linalg.int_rank(_example2_minor(scheme, params, d)) != 4:
                raise WitnessError(f"step {step_index}: singular key minor for {scheme} {params}")
        before, rank = rank, int(np.searchsorted(pivots, end))
        if rank != before + 4 * d:
            raise WitnessError(
                f"step {step_index} ({scheme} {tuple(params)}) raised the rank by "
                f"{rank - before}, expected {4 * d}"
            )
        batches.append(WitnessBatch(step_index, scheme, tuple(params), grid.T[start:end], supports[start:end], rank))
        start = end
    if rank != 4 * d * (d - 1):
        raise WitnessError(f"witness ends at rank {rank}, expected {4 * d * (d - 1)}")
    return batches
