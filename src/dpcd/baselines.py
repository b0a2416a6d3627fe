"""Reference solvers: signed-gradient iteration, exhaustive search, uniform
random search, and greedy peeling for the dense-subgraph task."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    BLOCK_ENTRIES,
    BinaryVector,
    ConstraintSpec,
    DomainError,
    NumericError,
    Objective,
    SolverReport,
    UNCONSTRAINED,
    UnsupportedConstraintError,
    hamming_distance,
    random_feasible,
    signs,
)

_CHUNK = 65536


@dataclass(frozen=True)
class OracleResult:
    """Ground truth from enumeration or sampling. f_max is None when the
    producer never saw the whole feasible set."""

    optimum: BinaryVector
    optimal_value: float
    f_min: float
    f_max: Optional[float]
    evaluations: int


def sgm_solve(f: Objective, c: ConstraintSpec = UNCONSTRAINED,
              max_iterations: int = 100, initial_point=None, seed: int = 0) -> SolverReport:
    """Full-vector signed-gradient iteration x <- -sign(grad f(x)).

    Only the unconstrained cube is supported; the update cannot hold a
    count-of-ones constraint. Detects period-2 oscillation (the iterate
    returning to its value two steps ago while differing from the last) and
    reports it as a divergence flag instead of convergence.
    """
    if c.is_exact_ones:
        raise UnsupportedConstraintError("signed-gradient iteration is unconstrained only")
    started = time.perf_counter()
    if initial_point is None:
        x = random_feasible(f.dimension, c, seed)
    else:
        x = np.asarray(initial_point, dtype=float)
        if not np.all(np.abs(x) == 1.0):
            raise DomainError("initial point must be a sign vector")
    trajectory = [float(f.value(x))]
    flips = []
    flags = ()
    converged = False
    previous = None
    for _ in range(max_iterations):
        g = np.asarray(f.gradient(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient in signed-gradient iteration")
        x_next = signs(-g)
        flips.append(hamming_distance(x, x_next))
        trajectory.append(float(f.value(x_next)))
        if np.array_equal(x_next, x):
            converged = True
            x = x_next
            break
        if previous is not None and np.array_equal(x_next, previous):
            flags = ("diverged: oscillation",)
            x = x_next
            break
        previous = x
        x = x_next
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


def _feasible_blocks(n: int, c: ConstraintSpec):
    # yields (m, n) blocks of sign vectors covering the feasible set once
    if c.is_exact_ones:
        combos = itertools.combinations(range(n), c.r)
        while True:
            chunk = list(itertools.islice(combos, _CHUNK))
            if not chunk:
                return
            X = -np.ones((len(chunk), n))
            for row, support in enumerate(chunk):
                X[row, list(support)] = 1.0
            yield X
    else:
        total = 1 << n
        shifts = np.arange(n, dtype=np.uint64)
        for start in range(0, total, _CHUNK):
            idx = np.arange(start, min(start + _CHUNK, total), dtype=np.uint64)
            bits = (idx[:, None] >> shifts) & 1
            yield bits.astype(float) * 2.0 - 1.0


def exhaustive_oracle(f: Objective, c: ConstraintSpec = UNCONSTRAINED,
                      limit: int = 20) -> OracleResult:
    """Enumerate the feasible set; exact minimum plus both extremes.

    Refuses dimensions above `limit` (default 20) to keep runs bounded.
    """
    n = f.dimension
    if n > limit:
        raise DomainError(f"exhaustive search refused: dimension {n} exceeds limit {limit}")
    if c.is_exact_ones and c.r > n:
        raise DomainError(f"exact-ones r={c.r} infeasible for n={n}")
    best_x = None
    best = math.inf
    worst = -math.inf
    count = 0
    for X in _feasible_blocks(n, c):
        vals = f.values(X)
        count += len(vals)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_x = np.array(X[i])
        high = float(vals.max())
        if high > worst:
            worst = high
    if best_x is None:
        raise DomainError("empty feasible set")
    best_x.flags.writeable = False
    return OracleResult(best_x, best, best, worst, count)


def random_search(f: Objective, c: ConstraintSpec, samples: int, seed=0) -> OracleResult:
    """Best of `samples` uniform feasible draws. f_max is omitted since the
    sweep is partial."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = f.dimension
    # successive blocks continue one rng stream, so the first strict
    # minimum does not depend on the block size
    block = max(1, min(_CHUNK, BLOCK_ENTRIES // n))
    best_x = None
    best = math.inf
    remaining = samples
    while remaining > 0:
        m = min(remaining, block)
        remaining -= m
        if c.is_exact_ones:
            X = -np.ones((m, n))
            keys = rng.random((m, n))
            if c.r:
                # the full (m, n) argpartition result dies with this statement
                X[np.arange(m)[:, None],
                  np.argpartition(keys, c.r - 1, axis=1)[:, :c.r]] = 1.0
            del keys
        else:
            X = rng.integers(0, 2, size=(m, n)) * 2.0 - 1.0
        vals = f.values(X)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_x = np.array(X[i])
    best_x.flags.writeable = False
    return OracleResult(best_x, best, best, None, samples)


def greedy_peel(graph, k: int) -> BinaryVector:
    """Drop the weakest vertex (minimum weighted degree inside the current
    subgraph) until k remain. On degree ties the highest id is dropped, so
    lower ids are the preferred survivors. Returns the survivor indicator
    as a sign vector.

    Each drop costs one vectorised argmin over n degrees plus an update
    over the dropped vertex's adjacency row.
    """
    n = graph.n
    if not (1 <= k <= n):
        raise DomainError(f"k={k} outside [1, {n}]")
    W = graph.matrix()
    # Degrees in reversed id order: argmin returns the first minimum, which
    # is then the highest id among equal degrees. Dropped vertices hold +inf.
    rdeg = graph.degrees()[::-1].copy()
    last = n - 1
    kept = np.ones(n, dtype=bool)
    for _ in range(n - k):
        drop = last - int(np.argmin(rdeg))
        kept[drop] = False
        rdeg[last - drop] = np.inf
        lo, hi = W.indptr[drop], W.indptr[drop + 1]
        # the fancy-indexed -= subtracts once per index; the cached CSR
        # adjacency is canonical, so each neighbour appears once per row
        rdeg[last - W.indices[lo:hi]] -= W.data[lo:hi]
    x = np.where(kept, 1.0, -1.0)
    x.flags.writeable = False
    return x
