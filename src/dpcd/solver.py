"""Discrete principal coordinate descent.

Each iteration evaluates the gradient at the current sign vector, derives a
pair of thresholds, collects the principal coordinates whose linear-model
improvement clears those thresholds, and flips them (all of them when the
problem is unconstrained, a balanced pairing when the count of +1 entries is
pinned). A local search over a small flip or swap neighborhood runs on a
configurable cadence and whenever an iteration moves nothing, and is the
only way to certify a stop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .core import (
    BinaryVector,
    ConstraintSpec,
    DimensionError,
    DomainError,
    BoundUnavailableError,
    NumericError,
    Objective,
    SolverReport,
    UNCONSTRAINED,
    _best_of_blocks,
    _checked_value,
    _flipped,
    _gradient,
    _map_spans,
    _report,
    _start_point,
    check_seed,
    feasible_point,
    hamming_distance,
)

LIPSCHITZ = "lipschitz"
GRADIENT_AVERAGE = "average"

# Exhaustive neighborhood enumeration is used up to this many neighbors;
# larger neighborhoods are sampled.
NEIGHBORHOOD_CAP = 100_000

_DEFAULT_SAMPLE_BUDGET = 10_000

# chunk size for batched candidate evaluation, keeps temporaries small
_EVAL_CHUNK = 8192


@dataclass(frozen=True)
class ThresholdPolicy:
    """How the flip thresholds are derived from a gradient.

    lipschitz: L1 = L2 = L0 + epsilon, where L0 is the objective's gradient
    Lipschitz constant. epsilon defaults to max(1e-6, 1e-6 * L0).
    average: L1 is the mean of the strictly positive gradient entries, L2
    the mean of the absolute values of the strictly negative ones; a side
    with no entries of that sign gets no threshold and stays empty.
    """

    mode: str = LIPSCHITZ
    epsilon: Optional[float] = None

    def __post_init__(self):
        if self.mode not in (LIPSCHITZ, GRADIENT_AVERAGE):
            raise DomainError(f"unknown threshold mode: {self.mode!r}")
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise DomainError("epsilon must be positive and finite")


def effective_epsilon(policy: ThresholdPolicy, lipschitz: float) -> float:
    if policy.epsilon is not None:
        return policy.epsilon
    return max(1e-6, 1e-6 * lipschitz)


@dataclass(frozen=True)
class SolverConfig:
    # Parameters:
    #   alpha1, alpha2            threshold multipliers for the two sides
    #   max_iterations            hard iteration cap
    #   neighborhood_cadence      run the local search every T iterations;
    #                             0 disables it entirely
    #   neighborhood_radius       max flips (or swap pairs) per search move
    #   neighborhood_budget       sampled candidates when the neighborhood
    #                             exceeds the enumeration cap; >= 1
    #   neighborhood_patience     consecutive fruitless sampled searches
    #                             tolerated before declaring convergence
    #   threshold_policy, seed    see ThresholdPolicy; seed feeds one rng
    alpha1: float = 1.0
    alpha2: float = 1.0
    max_iterations: int = 100
    neighborhood_cadence: int = 10
    neighborhood_radius: int = 5
    neighborhood_budget: int = _DEFAULT_SAMPLE_BUDGET
    neighborhood_patience: int = 10
    threshold_policy: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    seed: int = 0

    def __post_init__(self):
        if not (0 < self.alpha1 < math.inf and 0 < self.alpha2 < math.inf):
            raise DomainError("alpha1 and alpha2 must be positive and finite")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if min(self.neighborhood_cadence, self.neighborhood_radius,
               self.neighborhood_patience) < 0:
            raise DomainError("neighborhood settings must be nonnegative")
        if self.neighborhood_budget < 1:
            raise DomainError("neighborhood_budget must be >= 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class PrincipalSets:
    """Indices eligible to flip: s_plus holds +1 entries with steep positive
    gradient, s_minus holds -1 entries with steep negative gradient."""

    s_plus: np.ndarray
    s_minus: np.ndarray


def derive_thresholds(gradient, policy: ThresholdPolicy, lipschitz: Optional[float] = None):
    """Returns (L1, L2); a side with no admissible threshold returns None."""
    thresholds = _thresholds(np.asarray(gradient, dtype=float), policy, lipschitz)
    if thresholds is None:
        raise NumericError("gradient contains non-finite entries")
    return thresholds


def _thresholds(g: np.ndarray, policy: ThresholdPolicy, lipschitz: Optional[float]):
    """derive_thresholds on a float gradient, or None when an entry of g is
    not finite; g is scanned span by span (core._map_spans)."""
    average = policy.mode == GRADIENT_AVERAGE
    # the sign masks are allocated here and filled by the spans: arrays
    # a span thread allocates and leaves alive would stay in its own
    # malloc arena, which grew the peak RSS of hash-retrieval by 10 %
    sides = np.empty((2, len(g)), dtype=bool) if average else None

    def scan(lo, hi):
        # (lo, count of positive entries, count of negative ones), None
        # when an entry is not finite
        part = g[lo:hi]
        if not np.isfinite(part).all():
            return None
        if not average:
            return lo, 0, 0
        pos = np.greater(part, 0, out=sides[0, lo:hi])
        neg = np.less(part, 0, out=sides[1, lo:hi])
        return lo, np.count_nonzero(pos), np.count_nonzero(neg)

    found = _map_spans(scan, len(g))
    if any(span is None for span in found):
        return None
    if not average:
        if lipschitz is None:
            raise DomainError("lipschitz threshold policy needs the objective's L0")
        level = lipschitz + effective_epsilon(policy, lipschitz)
        return level, level
    if len(found) == 1:
        # one span, scanned inline: nothing to place
        return _side_means(np.compress(sides[0], g), np.compress(sides[1], g))
    # each span gathers its entries of each sign at its offset in one
    # buffer per sign, so a side's mean sums the array g[g > 0] (or
    # g[g < 0]) would be, in one call
    counts = np.array([span[1:] for span in found])
    ends = np.cumsum(counts, axis=0)
    pos = np.empty(ends[-1, 0])
    neg = np.empty(ends[-1, 1])
    at = {span[0]: start for span, start in zip(found, ends - counts)}

    def gather(lo, hi):
        part = g[lo:hi]
        for side, buffer, start in zip(sides, (pos, neg), at[lo]):
            idx = np.flatnonzero(side[lo:hi])
            # flatnonzero's indices are in range: mode="clip" skips the
            # bounds check and the buffered out= copy of the default mode
            part.take(idx, out=buffer[start:start + len(idx)], mode="clip")

    _map_spans(gather, len(g))
    return _side_means(pos, neg)


def _side_means(pos: np.ndarray, neg: np.ndarray):
    """(L1, L2) of average thresholds from the gradient's positive and
    negative entries in index order; an empty side gives None."""
    l1 = float(pos.mean()) if pos.size else None
    l2 = float(-neg.mean()) if neg.size else None
    return l1, l2


def _principal_masks(positive: np.ndarray, g: np.ndarray, l1, l2,
                     alpha1: float, alpha2: float):
    """Boolean masks of s_plus and s_minus (see PrincipalSets) at the sign
    vector whose +1 entries positive marks; a side whose threshold is None
    is empty."""
    plus = g > (math.inf if l1 is None else alpha1 * l1)
    plus &= positive
    minus = g < (-math.inf if l2 is None else -alpha2 * l2)
    minus &= ~positive
    return plus, minus


def _cube_step(positive: np.ndarray, g: np.ndarray, l1, l2, alpha1: float, alpha2: float):
    """(next iterate, its +1 mask, flip count) of the cube step from the
    sign vector whose +1 entries positive marks: every entry of s_plus and
    s_minus flips. Runs span by span (core._map_spans); the iterate is
    read-only, as _sign_vector makes it."""
    n = len(g)
    x_next = np.empty(n)
    after = np.empty(n, dtype=bool)

    def flip(lo, hi):
        was = positive[lo:hi]
        plus, minus = _principal_masks(was, g[lo:hi], l1, l2, alpha1, alpha2)
        # plus marks +1 entries and minus -1 entries, so the two are
        # disjoint; flipping their union toggles it in the +1 mask
        plus |= minus
        now = np.not_equal(was, plus, out=after[lo:hi])
        x = np.multiply(now, 2.0, out=x_next[lo:hi])
        x -= 1.0
        return np.count_nonzero(plus)

    flips = sum(_map_spans(flip, n))
    x_next.flags.writeable = False
    return x_next, after, flips


def principal_sets(x: BinaryVector, gradient, l1, l2, alpha1: float, alpha2: float) -> PrincipalSets:
    g = np.asarray(gradient, dtype=float)
    if len(x) != len(g):
        raise DimensionError("point and gradient lengths differ")
    plus, minus = _principal_masks(np.asarray(x) > 0, g, l1, l2, alpha1, alpha2)
    return PrincipalSets(np.flatnonzero(plus), np.flatnonzero(minus))


def unconstrained_flip(x: BinaryVector, sets: PrincipalSets) -> BinaryVector:
    return _flipped(x, np.concatenate([sets.s_plus, sets.s_minus]))


def _top_by_magnitude(gradient, idx: np.ndarray, m: int) -> np.ndarray:
    # descending |gradient|, ties by ascending index
    order = np.lexsort((idx, -np.abs(np.asarray(gradient)[idx])))
    return idx[order[:m]]


def balanced_flip(x: BinaryVector, gradient, sets: PrincipalSets) -> BinaryVector:
    """Flip the m steepest entries of each side, m = min of the set sizes.

    Flipping equally many +1 and -1 entries keeps the +1 count fixed, so a
    feasible x stays feasible.
    """
    m = min(len(sets.s_plus), len(sets.s_minus))
    if m == 0:
        return x
    return _flipped(x, np.concatenate([_top_by_magnitude(gradient, sets.s_plus, m),
                                       _top_by_magnitude(gradient, sets.s_minus, m)]))


def _flip_pools(x: BinaryVector, c: ConstraintSpec) -> list:
    """Index pools a radius-j move takes j entries from each of: all
    coordinates on the cube; the +1 and the -1 positions on the slice, so
    a slice move swaps j pairs and keeps the +1 count."""
    xa = np.asarray(x)
    if c.is_exact_ones:
        return [np.nonzero(xa > 0)[0], np.nonzero(xa < 0)[0]]
    return [np.arange(len(xa))]


def neighborhood_size(x: BinaryVector, c: ConstraintSpec, m: int) -> int:
    """Exact neighbor count (the point itself excluded)."""
    pools = _flip_pools(x, c)
    return sum(math.prod(math.comb(len(p), j) for p in pools)
               for j in range(1, min(m, *map(len, pools)) + 1))


def _local_subsets(size: int, top: int) -> Iterator[np.ndarray]:
    # the j-subsets of range(size) as rows, for j = 1..top, each in the
    # lexicographic order of itertools.combinations: a radius-j row is a
    # radius-(j-1) row extended, in order, by every larger index
    rows = np.arange(size, dtype=np.intp)[:, None]
    for j in range(1, top + 1):
        if j > 1:
            last = rows[:, -1]
            counts = size - 1 - last
            ends = np.cumsum(counts)
            # row i's children append last_i + 1, ..., size - 1 in turn
            extra = np.arange(ends[-1]) + np.repeat(last + 1 - (ends - counts), counts)
            rows = np.concatenate([np.repeat(rows, counts, axis=0), extra[:, None]], axis=1)
        yield rows


def _exhaustive_blocks(pools: list, top: int) -> Iterator[np.ndarray]:
    # every move of radius 1..top in blocks of _EVAL_CHUNK rows; a move is
    # one j-subset per pool, ordered drop-major (the first pool varies
    # slowest), and each pool's subsets are held as one array per radius
    for per_pool in zip(*(_local_subsets(len(p), top) for p in pools)):
        subsets = [p[rows] for p, rows in zip(pools, per_pool)]
        shape = [len(s) for s in subsets]
        total = math.prod(shape)
        for lo in range(0, total, _EVAL_CHUNK):
            picks = np.unravel_index(np.arange(lo, min(lo + _EVAL_CHUNK, total)), shape)
            yield np.concatenate([s[i] for s, i in zip(subsets, picks)], axis=1)


def enumerate_neighborhood(x: BinaryVector, c: ConstraintSpec, m: int) -> Iterator[BinaryVector]:
    """Yield every neighbor: points at Hamming distance <= m, or reachable
    by interchanging <= m (+1, -1) pairs when the +1 count is pinned.
    Intended for small instances and tests: the index subsets of one radius
    are built in full before its first neighbor is yielded."""
    pools = _flip_pools(x, c)
    for block in _exhaustive_blocks(pools, min(m, *map(len, pools))):
        for flips in block:
            yield _flipped(x, flips)


def _distinct_rows(rng: np.random.Generator, pool: np.ndarray, j: int, cnt: int) -> np.ndarray:
    """cnt rows of j distinct draws from pool, each row a uniform j-subset.

    Floyd's algorithm (Bentley & Floyd, CACM 1987), one column per step:
    column t draws from [0, size - j + t] and takes size - j + t instead
    when the draw already sits earlier in its row. The O(j^2) compare of
    earlier columns suits j <= radius; the membership table random_search
    keeps would cost cnt * size bytes here.
    """
    size = len(pool)
    cols = np.empty((j, cnt), dtype=np.intp)
    for t in range(j):
        top = size - j + t
        draw = rng.integers(0, top + 1, cnt)
        seen = np.zeros(cnt, dtype=bool)
        for earlier in cols[:t]:
            seen |= earlier == draw
        draw[seen] = top
        cols[t] = draw
    return pool[cols.T]


def _sampled_blocks(pools: list, top: int, budget: int,
                    rng: np.random.Generator) -> Iterator[np.ndarray]:
    # radius drawn uniformly so short moves stay visible next to the
    # combinatorially dominant long ones; one block per radius drawn
    radii = rng.integers(1, top + 1, size=budget)
    for j, cnt in enumerate(np.bincount(radii, minlength=top + 1).tolist()):
        if cnt:
            yield np.concatenate([_distinct_rows(rng, p, j, cnt) for p in pools], axis=1)


def _explore_neighborhood(x, f: Objective, c: ConstraintSpec, m: int, budget: int,
                          rng: np.random.Generator):
    """Returns (best_point, exhaustive_flag).

    best_point is x itself unless a strictly better neighbor was found; of
    equally good neighbors the first one explored wins. exhaustive_flag
    reports whether the whole neighborhood was enumerated, which is what
    allows a caller to treat "no improvement" as proof of local optimality.
    A non-finite candidate delta raises NumericError.
    """
    pools = _flip_pools(x, c)
    top = min(m, *map(len, pools))
    if top == 0:
        return x, True
    exhaustive = neighborhood_size(x, c, m) <= NEIGHBORHOOD_CAP
    blocks = (_exhaustive_blocks(pools, top) if exhaustive
              else _sampled_blocks(pools, top, budget, rng))
    flips, _, _, _ = _best_of_blocks(lambda rows: f.deltas(x, rows), blocks, 0.0)
    return (x if flips is None else _flipped(x, flips)), exhaustive


def neighborhood_search(x: BinaryVector, f: Objective, c: ConstraintSpec,
                        m: int, budget: int = _DEFAULT_SAMPLE_BUDGET, seed=0) -> BinaryVector:
    """Best point among x and the explored part of its neighborhood.

    Exhaustive enumeration up to NEIGHBORHOOD_CAP neighbors, `budget`
    seeded samples beyond it. Never returns a strictly worse point; ties
    keep x. A non-finite candidate delta raises NumericError.
    """
    if m < 1:
        raise DomainError("neighborhood radius must be >= 1")
    if budget < 1:
        raise DomainError("neighborhood budget must be >= 1")
    x = feasible_point(x, f.dimension, c)
    return _explore_neighborhood(x, f, c, m, budget, np.random.default_rng(seed))[0]


def dpcd_solve(f: Objective, c: ConstraintSpec = UNCONSTRAINED,
               cfg: SolverConfig = None, initial_point: Optional[BinaryVector] = None,
               callback=None) -> SolverReport:
    """Run the descent loop until it certifies a stop or hits the cap.

    An iteration flips the principal coordinates, then (on cadence, and
    always when nothing flipped) improves the iterate by local search. A
    stop is certified when nothing flips and the search comes back empty:
    immediately if the search was exhaustive or disabled, after
    neighborhood_patience consecutive fruitless sampled searches otherwise.
    callback, when given, receives every iterate after it is accepted.
    """
    cfg = cfg or SolverConfig()
    started = time.perf_counter()
    policy = cfg.threshold_policy
    if policy.mode == LIPSCHITZ and f.lipschitz is None:
        raise DomainError("lipschitz threshold policy needs an objective with L0")

    rng = np.random.default_rng(cfg.seed)
    x = _start_point(f, c, initial_point, rng)
    # g is the gradient at x when value_gradient gave it along with the
    # value, else None until the iteration asks f.gradient; positive is
    # x > 0 when the cube step wrote it, else None until asked
    value, g = _checked_value(f, x, 0)
    positive = None
    trajectory = [value]
    flips_per_iteration = []
    converged = False
    stall = 0
    cadence = cfg.neighborhood_cadence

    for k in range(1, cfg.max_iterations + 1):
        g = _gradient(f, x, k, g)
        thresholds = _thresholds(g, policy, f.lipschitz)
        if thresholds is None:
            raise NumericError(f"non-finite gradient at iteration {k}")
        if positive is None:
            positive = x > 0
        if c.is_exact_ones:
            plus, minus = _principal_masks(positive, g, *thresholds, cfg.alpha1, cfg.alpha2)
            sets = PrincipalSets(np.flatnonzero(plus), np.flatnonzero(minus))
            x_next = balanced_flip(x, g, sets)
            principal_flips = 2 * min(len(sets.s_plus), len(sets.s_minus))
            positive = None
        else:
            x_next, positive, principal_flips = _cube_step(
                positive, g, *thresholds, cfg.alpha1, cfg.alpha2)

        moved = principal_flips
        exhaustive = False
        if cadence > 0 and (k % cadence == 0 or principal_flips == 0):
            stepped = x_next
            x_next, exhaustive = _explore_neighborhood(
                x_next, f, c, cfg.neighborhood_radius, cfg.neighborhood_budget, rng)
            moved = hamming_distance(x, x_next)
            if x_next is not stepped:
                # the search replaced the iterate the mask describes
                positive = None
        flips_per_iteration.append(moved)
        value, g = _checked_value(f, x_next, k)
        trajectory.append(value)
        x = x_next
        if callback is not None:
            callback(x)

        if moved > 0:
            stall = 0
            continue
        # with a cadence above 0, an iteration that moved nothing searched
        if cadence == 0 or exhaustive:
            converged = True
            break
        stall += 1
        if stall >= cfg.neighborhood_patience:
            converged = True
            break

    return _report(x, trajectory, flips_per_iteration, converged, started, cfg.seed)


def step_bound(f: Objective, c: ConstraintSpec, epsilon: float,
               oracle_bounds=None) -> float:
    """Upper bound on the number of descent iterations.

    With oracle extremes (f_min, f_max) the bound is their gap over two
    epsilon. A quadratic objective additionally admits the coefficient-mass
    bound (sum|A_ij| + sum|c_i|) / epsilon without any oracle.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if oracle_bounds is not None:
        f_min, f_max = oracle_bounds
        return (f_max - f_min) / (2.0 * epsilon)
    if f.coeff_abs_sum is not None:
        return f.coeff_abs_sum / epsilon
    raise BoundUnavailableError(
        "no step bound available: supply oracle bounds or a quadratic objective")
