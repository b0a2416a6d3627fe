"""Shared domain types for binary optimization over {-1,+1}^n.

A decision variable is a numpy float64 vector whose entries are exactly -1.0
or +1.0 (the BinaryVector alias). Constraints either allow the whole cube or
pin the number of +1 entries. Objectives are plain containers of callables so
that one solver can drive every problem family.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

BinaryVector = np.ndarray

# entries in one scratch block of a batched loop (random-search samples,
# retrieval relevance), so memory does not grow with the number of rows
BLOCK_ENTRIES = 1 << 22

# entries in one span of a pass that _map_spans spreads over the cores
# (2 MiB of float64); on hash-retrieval's 1.6M-entry code vector and 2
# cores, 2^17, 2^18 and two equal halves ran within noise of each other,
# and 2^19 (three spans, one core idle for the last) 5-10 % slower
SPAN_ENTRIES = 1 << 18


class DomainError(ValueError):
    """Argument outside the documented domain."""


class DimensionError(DomainError):
    """Operands with incompatible shapes."""


class UnsupportedConstraintError(DomainError):
    """Solver asked to handle a constraint kind it does not support."""


class ParseError(ValueError):
    """Malformed input stream; message carries the line number when known."""


class NumericError(ArithmeticError):
    """Non-finite or otherwise invalid numeric state."""


class BoundUnavailableError(RuntimeError):
    """No convergence bound is computable for this objective."""


UNCONSTRAINED_KIND = "unconstrained"
EXACT_ONES_KIND = "exact_ones"


@dataclass(frozen=True)
class ConstraintSpec:
    """Feasible set: the full cube, or the slice with exactly r entries +1."""

    kind: str
    r: int = -1

    def __post_init__(self):
        if self.kind not in (UNCONSTRAINED_KIND, EXACT_ONES_KIND):
            raise DomainError(f"unknown constraint kind: {self.kind!r}")
        if self.kind == EXACT_ONES_KIND and self.r < 0:
            raise DomainError("exact-ones constraint needs r >= 0")

    @property
    def is_exact_ones(self) -> bool:
        return self.kind == EXACT_ONES_KIND


UNCONSTRAINED = ConstraintSpec(UNCONSTRAINED_KIND)


def exact_ones(r: int) -> ConstraintSpec:
    return ConstraintSpec(EXACT_ONES_KIND, int(r))


@dataclass(frozen=True)
class Objective:
    """Evaluation contract for f on [-1,1]^n.

    value and gradient must be deterministic. gradient accepts any real
    point of the box, not just binary points, so finite-difference checks
    are well defined. Consumers score many points through three methods:

      values(X)         f at each row of an (m, n) matrix; uses the
                        optional value_batch when set, else value per row
      values_on_ones(idx)
                        f at each sign vector whose +1 entries are the
                        indices in one row of an (m, r) index matrix
                        (entries distinct per row, every other entry -1);
                        uses the optional ones_batch when set, else values
                        on the expanded (m, n) sign rows
      deltas(x, flips)  f(x with signs flipped on each row of an (m, j)
                        index matrix, entries distinct per row) - f(x);
                        uses the optional flips_delta when set, else value
                        on each flipped copy

    A fast field must agree with value up to rounding. The solver also
    reads one more:

      value_gradient(x) (value(x), gradient(x)) from one pass over the
                        work the two share; dpcd_solve and sgm_solve
                        evaluate each iterate through it when set, the
                        last one too, so it must agree with value and
                        gradient and must not raise where value alone
                        would not

    coeff_abs_sum is the entrywise absolute coefficient mass of a
    quadratic, sum|A_ij| + sum|c_i|, used by step bounds.
    """

    dimension: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    lipschitz: Optional[float] = None
    value_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    flips_delta: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    ones_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    value_gradient: Optional[Callable[[np.ndarray], tuple]] = None
    coeff_abs_sum: Optional[float] = None
    name: str = "objective"

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("objective dimension must be >= 1")
        if self.lipschitz is not None and not 0 <= self.lipschitz < math.inf:
            raise DomainError("lipschitz constant must be finite and nonnegative")

    def values(self, X: np.ndarray) -> np.ndarray:
        if self.value_batch is not None:
            return np.asarray(self.value_batch(X), dtype=float)
        return np.array([self.value(row) for row in X])

    def values_on_ones(self, idx: np.ndarray) -> np.ndarray:
        if self.ones_batch is not None:
            return np.asarray(self.ones_batch(idx), dtype=float)
        return self.values(_sign_rows(idx, self.dimension))

    def deltas(self, x: np.ndarray, flips: np.ndarray) -> np.ndarray:
        if self.flips_delta is not None:
            return np.asarray(self.flips_delta(x, flips), dtype=float)
        fx = self.value(x)
        y = np.array(x)
        out = np.empty(flips.shape[0])
        for i, row in enumerate(flips):
            y[row] *= -1.0
            out[i] = self.value(y) - fx
            y[row] *= -1.0
        return out


@dataclass(frozen=True)
class SolverReport:
    """Outcome of one solver run.

    value_trajectory[0] is the objective at the initial point, and each
    later entry is the value after one iteration, so its length is
    iterations + 1. converged means the final iterate repeated and, when a
    neighborhood search was enabled, the search gave no improvement.
    """

    final_point: BinaryVector
    final_value: float
    iterations: int
    flips_per_iteration: tuple
    value_trajectory: tuple
    converged: bool
    wall_time: float
    rng_seed: int
    flags: tuple = field(default=())


def sign(v: float) -> int:
    """Sign with the +1-at-zero convention: +1 for v >= 0, else -1."""
    if not np.isfinite(v):
        raise NumericError(f"sign of non-finite value: {v!r}")
    return 1 if v >= 0 else -1


def signs(values: np.ndarray) -> np.ndarray:
    # Elementwise version of sign(); every module routes through these two.
    a = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NumericError("sign of non-finite array")
    return np.where(a >= 0, 1.0, -1.0)


def binary_vector(values) -> BinaryVector:
    """Validate and freeze a {-1,+1} vector.

    Accepts any sequence; entries must compare equal to -1 or +1 exactly.
    Returns a read-only float64 array.
    """
    x = np.array(values, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise DomainError("binary vector must be one-dimensional and non-empty")
    if not np.all(np.abs(x) == 1.0):
        raise DomainError("binary vector entries must be -1 or +1")
    x.flags.writeable = False
    return x


def hamming_distance(y: BinaryVector, z: BinaryVector) -> int:
    if len(y) != len(z):
        raise DimensionError(f"length mismatch: {len(y)} vs {len(z)}")
    return int(np.count_nonzero(np.asarray(y) != np.asarray(z)))


def check_feasible(n: int, c: ConstraintSpec) -> None:
    """Raise DomainError when no sign vector of length n satisfies c."""
    if c.is_exact_ones and c.r > n:
        raise DomainError(f"exact-ones r={c.r} infeasible for n={n}")


def constraint_check(x: BinaryVector, c: ConstraintSpec) -> bool:
    check_feasible(len(x), c)
    return not c.is_exact_ones or int(np.sum(np.asarray(x) > 0)) == c.r


def feasible_point(x, n: int, c: ConstraintSpec, what: str = "point") -> np.ndarray:
    """x as a float64 array, not copied when it already is one, after
    checking that it is a feasible sign vector of length n; `what` names
    it in the error messages."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise DimensionError(f"{what} length does not match the objective")
    if not np.all(np.abs(x) == 1.0):
        raise DomainError(f"{what} must be a sign vector")
    if not constraint_check(x, c):
        raise DomainError(f"{what} violates the constraint")
    return x


def check_seed(seed) -> None:
    """Raise DomainError naming a negative numeric seed; any other seed (a
    numpy Generator, say) is left for numpy to accept or refuse."""
    if isinstance(seed, numbers.Real) and seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")


def random_feasible(n: int, c: ConstraintSpec, seed) -> BinaryVector:
    """Uniform feasible point; deterministic given the seed.

    seed may be an integer or a numpy Generator (reused by callers that
    thread one stream through a whole run).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    check_seed(seed)
    check_feasible(n, c)
    rng = np.random.default_rng(seed)
    if c.is_exact_ones:
        positive = np.zeros(n, dtype=bool)
        # permutation prefix is a uniform r-subset
        positive[rng.permutation(n)[: c.r]] = True
    else:
        positive = rng.integers(0, 2, size=n)
    return _sign_vector(positive)


def _start_point(f: Objective, c: ConstraintSpec, initial_point, seed) -> np.ndarray:
    """A solver's first iterate: initial_point checked feasible, or a
    random feasible point drawn from seed (as in random_feasible) when
    none is given."""
    if initial_point is None:
        return random_feasible(f.dimension, c, seed)
    return feasible_point(initial_point, f.dimension, c, "initial point")


def _report(x, trajectory: list, flips: list, converged: bool, started: float,
            seed: int, flags: tuple = ()) -> SolverReport:
    """The SolverReport of a run that ended at x and began at the
    perf_counter time `started`."""
    return SolverReport(
        final_point=x,
        final_value=trajectory[-1],
        iterations=len(flips),
        flips_per_iteration=tuple(flips),
        value_trajectory=tuple(trajectory),
        converged=converged,
        wall_time=time.perf_counter() - started,
        rng_seed=seed,
        flags=flags,
    )


def _sign_vector(positive: np.ndarray) -> BinaryVector:
    """Read-only float vector, +1 where positive is set (True or 1) and
    -1 elsewhere: 2*positive - 1, formed in place in one new array."""
    x = positive.astype(float)
    x *= 2.0
    x -= 1.0
    x.flags.writeable = False
    return x


def _sign_rows(idx: np.ndarray, n: int) -> np.ndarray:
    """(m, n) sign rows, +1 at the indices in each row of idx, else -1."""
    X = -np.ones((len(idx), n))
    X[np.arange(len(idx))[:, None], idx] = 1.0
    return X


def _flipped(x, idx) -> BinaryVector:
    """Read-only copy of x with the entries at idx negated."""
    y = np.array(x)
    y[idx] *= -1.0
    y.flags.writeable = False
    return y


def _best_of_blocks(score: Callable[[np.ndarray], np.ndarray], blocks, bar: float = math.inf):
    """(row, its score, the largest score, row count) over the rows of
    every block. row is a read-only copy of the first row that scores
    strictly below bar and below every earlier row, None when no row does
    (its score is then bar); a non-finite score raises NumericError."""
    best_row = None
    best = bar
    worst = -math.inf
    count = 0
    for X in blocks:
        vals = score(X)
        if not np.all(np.isfinite(vals)):
            raise NumericError("candidate scan met a non-finite score")
        count += len(vals)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_row = np.array(X[i])
            best_row.flags.writeable = False
        worst = max(worst, float(vals.max()))
        # free this block before the generator draws the next one
        del X
    return best_row, best, worst, count


def _checked_value(f: Objective, x, iteration: int):
    """(f(x) checked finite, the gradient at x or None): the pair from
    value_gradient when f declares one, else (f.value(x), None). That
    gradient is checked by _checked_gradient when an iteration reads it,
    so one that is never read (at the last iterate) raises nothing."""
    try:
        if f.value_gradient is not None:
            v, g = f.value_gradient(x)
        else:
            v, g = f.value(x), None
        v = float(v)
    except (ArithmeticError, FloatingPointError) as e:
        raise NumericError(f"objective failed at iteration {iteration}: {e}") from e
    if not np.isfinite(v):
        raise NumericError(f"non-finite objective value at iteration {iteration}")
    return v, g


def _gradient(f: Objective, x, iteration: int, g=None) -> np.ndarray:
    """The gradient at x as a float array, not yet checked finite: g when
    _checked_value already gave it, else f.gradient(x)."""
    try:
        return np.asarray(f.gradient(x) if g is None else g, dtype=float)
    except (ArithmeticError, FloatingPointError) as e:
        raise NumericError(f"gradient failed at iteration {iteration}: {e}") from e


def _checked_gradient(f: Objective, x, iteration: int, g=None) -> np.ndarray:
    """_gradient checked finite."""
    g = _gradient(f, x, iteration, g)
    if not np.all(np.isfinite(g)):
        raise NumericError(f"non-finite gradient at iteration {iteration}")
    return g


def _worker_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# (pid, executor or None for one worker) of the pool _map_spans runs on,
# built on first use; the lock keeps two first uses from building two
_span_pool = None
_span_pool_lock = threading.Lock()


def _span_executor():
    """This process's span pool: one thread per CPU of _worker_count, or
    None when that is one. A pool inherited through fork has no threads
    (work sent to it never runs), so a forked child builds its own."""
    global _span_pool
    with _span_pool_lock:
        if _span_pool is None or _span_pool[0] != os.getpid():
            workers = _worker_count()
            _span_pool = (os.getpid(), ThreadPoolExecutor(workers) if workers > 1 else None)
        return _span_pool[1]


def _map_spans(fn: Callable[[int, int], object], total: int, width: int = 1) -> list:
    """[fn(lo, hi) for each span of range(total)], in span order.

    An item is width entries (a query's distances, say), and a span holds
    SPAN_ENTRIES // width items (at least one), the last span the
    remainder too, so no span is short. The spans depend on total and
    width only, never on the worker count: a fn that writes its own slice
    of shared arrays and leaves every reduction to one call over the
    assembled array gives the same bits on any number of cores. A single
    span runs inline; more run on the span pool, whose threads overlap
    where numpy releases the interpreter lock.
    """
    size = max(1, SPAN_ENTRIES // width)
    count = total // size
    if count < 2:
        return [fn(0, total)]
    los = range(0, count * size, size)
    # the last span also takes the remainder
    his = [*los[1:], total]
    pool = _span_executor()
    if pool is None:
        return [fn(lo, hi) for lo, hi in zip(los, his)]
    return list(pool.map(fn, los, his))
