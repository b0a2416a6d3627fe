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

import itertools
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
    constraint_check,
    hamming_distance,
    random_feasible,
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
        if self.epsilon is not None and self.epsilon <= 0:
            raise DomainError("epsilon must be positive")


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
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise DomainError("alpha1 and alpha2 must be positive")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")
        if min(self.neighborhood_cadence, self.neighborhood_radius,
               self.neighborhood_patience) < 0:
            raise DomainError("neighborhood settings must be nonnegative")
        if self.neighborhood_budget < 1:
            raise DomainError("neighborhood_budget must be >= 1")


@dataclass(frozen=True)
class PrincipalSets:
    """Indices eligible to flip: s_plus holds +1 entries with steep positive
    gradient, s_minus holds -1 entries with steep negative gradient."""

    s_plus: np.ndarray
    s_minus: np.ndarray


def derive_thresholds(gradient, policy: ThresholdPolicy, lipschitz: Optional[float] = None):
    """Returns (L1, L2); a side with no admissible threshold returns None."""
    g = np.asarray(gradient, dtype=float)
    if not np.all(np.isfinite(g)):
        raise NumericError("gradient contains non-finite entries")
    if policy.mode == LIPSCHITZ:
        if lipschitz is None:
            raise DomainError("lipschitz threshold policy needs the objective's L0")
        level = lipschitz + effective_epsilon(policy, lipschitz)
        return level, level
    pos = g[g > 0]
    neg = g[g < 0]
    l1 = float(pos.mean()) if pos.size else None
    l2 = float(-neg.mean()) if neg.size else None
    return l1, l2


def principal_sets(x: BinaryVector, gradient, l1, l2, alpha1: float, alpha2: float) -> PrincipalSets:
    g = np.asarray(gradient, dtype=float)
    if len(x) != len(g):
        raise DimensionError("point and gradient lengths differ")
    if l1 is None:
        s_plus = np.empty(0, dtype=np.intp)
    else:
        s_plus = np.nonzero((g > alpha1 * l1) & (x > 0))[0]
    if l2 is None:
        s_minus = np.empty(0, dtype=np.intp)
    else:
        s_minus = np.nonzero((g < -alpha2 * l2) & (x < 0))[0]
    return PrincipalSets(s_plus, s_minus)


def unconstrained_flip(x: BinaryVector, sets: PrincipalSets) -> BinaryVector:
    out = np.array(x)
    out[sets.s_plus] *= -1.0
    out[sets.s_minus] *= -1.0
    out.flags.writeable = False
    return out


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
    out = np.array(x)
    out[_top_by_magnitude(gradient, sets.s_plus, m)] = -1.0
    out[_top_by_magnitude(gradient, sets.s_minus, m)] = 1.0
    out.flags.writeable = False
    return out


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


def _exhaustive_blocks(pools: list, top: int) -> Iterator[np.ndarray]:
    # every move of radius 1..top in blocks of _EVAL_CHUNK rows; a move is
    # one j-subset per pool, ordered drop-major (the first pool varies
    # slowest), and each pool's subsets are held as one array per radius
    for j in range(1, top + 1):
        subsets = []
        for p in pools:
            flat = itertools.chain.from_iterable(itertools.combinations(range(len(p)), j))
            rows = np.fromiter(flat, dtype=np.intp, count=math.comb(len(p), j) * j)
            subsets.append(p[rows.reshape(-1, j)])
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
            y = np.array(x)
            y[flips] *= -1.0
            y.flags.writeable = False
            yield y


def _distinct_rows(rng: np.random.Generator, pool: np.ndarray, j: int, cnt: int) -> np.ndarray:
    """cnt rows of j distinct draws from pool, each row a uniform j-subset.

    Floyd's algorithm (Bentley & Floyd, CACM 1987), one column per step:
    column t draws from [0, size - j + t] and takes size - j + t instead
    when the draw already sits earlier in its row.
    """
    size = len(pool)
    rows = np.empty((cnt, j), dtype=np.intp)
    for t in range(j):
        top = size - j + t
        draw = rng.integers(0, top + 1, cnt)
        seen = (rows[:, :t] == draw[:, None]).any(axis=1)
        rows[:, t] = np.where(seen, top, draw)
    return pool[rows]


def _sampled_blocks(pools: list, top: int, budget: int,
                    rng: np.random.Generator) -> Iterator[np.ndarray]:
    # radius drawn uniformly so short moves stay visible next to the
    # combinatorially dominant long ones; one block per radius drawn
    radii = rng.integers(1, top + 1, size=budget)
    for j in range(1, top + 1):
        cnt = int(np.sum(radii == j))
        if cnt:
            yield np.concatenate([_distinct_rows(rng, p, j, cnt) for p in pools], axis=1)


def _explore_neighborhood(x, f: Objective, c: ConstraintSpec, m: int, budget: int,
                          rng: np.random.Generator):
    """Returns (best_point, exhaustive_flag).

    best_point is x itself unless a strictly better neighbor was found; of
    equally good neighbors the first one explored wins. exhaustive_flag
    reports whether the whole neighborhood was enumerated, which is what
    allows a caller to treat "no improvement" as proof of local optimality.
    """
    pools = _flip_pools(x, c)
    top = min(m, *map(len, pools))
    if top == 0:
        return x, True
    exhaustive = neighborhood_size(x, c, m) <= NEIGHBORHOOD_CAP
    blocks = (_exhaustive_blocks(pools, top) if exhaustive
              else _sampled_blocks(pools, top, budget, rng))
    best_delta = 0.0
    best_flips = None
    for flips in blocks:
        deltas = f.deltas(x, flips)
        i = int(np.argmin(deltas))
        if deltas[i] < best_delta:
            best_delta = float(deltas[i])
            best_flips = flips[i]

    if best_flips is None:
        return x, exhaustive
    y = np.array(x)
    y[best_flips] *= -1.0
    y.flags.writeable = False
    return y, exhaustive


def neighborhood_search(x: BinaryVector, f: Objective, c: ConstraintSpec,
                        m: int, budget: int = _DEFAULT_SAMPLE_BUDGET, seed=0) -> BinaryVector:
    """Best point among x and the explored part of its neighborhood.

    Exhaustive enumeration up to NEIGHBORHOOD_CAP neighbors, `budget`
    seeded samples beyond it. Never returns a strictly worse point; ties
    keep x.
    """
    if m < 1:
        raise DomainError("neighborhood radius must be >= 1")
    if budget < 1:
        raise DomainError("neighborhood budget must be >= 1")
    if not constraint_check(x, c):
        raise DomainError("neighborhood_search called with an infeasible point")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    y, _ = _explore_neighborhood(x, f, c, m, budget, rng)
    return y


def _checked_value(f: Objective, x, iteration: int) -> float:
    try:
        v = float(f.value(x))
    except (ArithmeticError, FloatingPointError) as e:
        raise NumericError(f"objective failed at iteration {iteration}: {e}") from e
    if not np.isfinite(v):
        raise NumericError(f"non-finite objective value at iteration {iteration}")
    return v


def _checked_gradient(f: Objective, x, iteration: int) -> np.ndarray:
    try:
        g = np.asarray(f.gradient(x), dtype=float)
    except (ArithmeticError, FloatingPointError) as e:
        raise NumericError(f"gradient failed at iteration {iteration}: {e}") from e
    if not np.all(np.isfinite(g)):
        raise NumericError(f"non-finite gradient at iteration {iteration}")
    return g


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
    if initial_point is None:
        x = random_feasible(f.dimension, c, rng)
    else:
        x = np.asarray(initial_point, dtype=float)
        if len(x) != f.dimension:
            raise DimensionError("initial point length does not match the objective")
        if not np.all(np.abs(x) == 1.0):
            raise DomainError("initial point must be a sign vector")
        if not constraint_check(x, c):
            raise DomainError("initial point violates the constraint")

    trajectory = [_checked_value(f, x, 0)]
    flips_per_iteration = []
    converged = False
    stall = 0
    cadence = cfg.neighborhood_cadence

    for k in range(1, cfg.max_iterations + 1):
        g = _checked_gradient(f, x, k)
        l1, l2 = derive_thresholds(g, policy, f.lipschitz)
        sets = principal_sets(x, g, l1, l2, cfg.alpha1, cfg.alpha2)
        if c.is_exact_ones:
            x_next = balanced_flip(x, g, sets)
        else:
            x_next = unconstrained_flip(x, sets)
        principal_flips = hamming_distance(x, x_next)

        searched = False
        exhaustive = False
        if cadence > 0 and (k % cadence == 0 or principal_flips == 0):
            x_next, exhaustive = _explore_neighborhood(
                x_next, f, c, cfg.neighborhood_radius, cfg.neighborhood_budget, rng)
            searched = True

        moved = hamming_distance(x, x_next)
        flips_per_iteration.append(moved)
        trajectory.append(_checked_value(f, x_next, k))
        x = x_next
        if callback is not None:
            callback(x)

        if moved > 0:
            stall = 0
            continue
        if cadence == 0 or (searched and exhaustive):
            converged = True
            break
        if searched and not exhaustive:
            stall += 1
            if stall >= cfg.neighborhood_patience:
                converged = True
                break

    return SolverReport(
        final_point=x,
        final_value=trajectory[-1],
        iterations=len(flips_per_iteration),
        flips_per_iteration=tuple(flips_per_iteration),
        value_trajectory=tuple(trajectory),
        converged=converged,
        wall_time=time.perf_counter() - started,
        rng_seed=cfg.seed,
    )


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
