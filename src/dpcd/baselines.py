"""Reference solvers: signed-gradient iteration, exhaustive search, uniform
random search, and greedy peeling for the dense-subgraph task."""

from __future__ import annotations

import itertools
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
    _best_of_blocks,
    _checked_gradient,
    _checked_value,
    _flipped,
    _report,
    _sign_rows,
    _sign_vector,
    _start_point,
    check_feasible,
    check_seed,
    hamming_distance,
    signs,
)

# rows per block of random_search's samples, also capped at BLOCK_ENTRIES
# entries
_CHUNK = 65536

# feasible points per block of exhaustive_oracle: about 2 MiB of scratch
# at n = 20
_ORACLE_BLOCK = 4096


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
    check_seed(seed)
    started = time.perf_counter()
    x = _start_point(f, c, initial_point, seed)
    value, g = _checked_value(f, x, 0)
    trajectory = [value]
    flips = []
    flags = ()
    converged = False
    previous = None
    for k in range(1, max_iterations + 1):
        x_next = signs(-_checked_gradient(f, x, k, g))
        flips.append(hamming_distance(x, x_next))
        value, g = _checked_value(f, x_next, k)
        trajectory.append(value)
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
    return _report(x, trajectory, flips, converged, started, seed, flags)


def _feasible_blocks(n: int, c: ConstraintSpec):
    """(m, n) blocks of sign vectors covering the feasible set once: the
    slice's supports in the order of itertools.combinations, the cube's
    points in binary counting order (bit i of the count is entry i).
    m is _ORACLE_BLOCK, except in the last block, which may be shorter."""
    if c.is_exact_ones:
        combos = itertools.combinations(range(n), c.r)
        for chunk in iter(lambda: list(itertools.islice(combos, _ORACLE_BLOCK)), []):
            yield _sign_rows(np.array(chunk, dtype=np.intp), n)
    else:
        total = 1 << n
        shifts = np.arange(n, dtype=np.uint64)
        for lo in range(0, total, _ORACLE_BLOCK):
            idx = np.arange(lo, min(lo + _ORACLE_BLOCK, total), dtype=np.uint64)
            bits = (idx[:, None] >> shifts) & 1
            yield bits.astype(float) * 2.0 - 1.0


def _floyd_block(n: int, r: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m rows of r distinct indices in [0, n), each row a uniform r-subset.

    Floyd's algorithm (Bentley & Floyd, CACM 1987): column t draws from
    [0, n - r + t] and takes n - r + t instead when the draw is already in
    its row. All m * r draws come from one call in row order, so a sample
    uses the same part of the stream whatever block it falls in. Each
    row's members are kept in an (m, n) bool table, so the fix-up is
    O(m * r); the solver's `_distinct_rows` compares earlier columns.
    """
    X = rng.integers(0, np.arange(n - r, n) + 1, size=(m, r))
    seen = np.zeros(m * n, dtype=bool)
    base = np.arange(m) * n
    for t in range(r):
        col = X[:, t]
        col[seen[base + col]] = n - r + t
        seen[base + col] = True
    return X


def _sampled_blocks(n: int, c: ConstraintSpec, samples: int, rng: np.random.Generator):
    # uniform feasible samples in blocks: (m, n) sign rows on the cube,
    # (m, r) rows of +1 indices on the slice; successive blocks continue
    # one rng stream, so the first strict minimum does not depend on the
    # block size
    block = max(1, min(_CHUNK, BLOCK_ENTRIES // n))
    for start in range(0, samples, block):
        m = min(block, samples - start)
        if c.is_exact_ones:
            X = _floyd_block(n, c.r, m, rng)
        else:
            X = rng.integers(0, 2, size=(m, n)) * 2.0 - 1.0
        yield X
        del X  # before the next block is drawn


def exhaustive_oracle(f: Objective, c: ConstraintSpec = UNCONSTRAINED,
                      limit: int = 20) -> OracleResult:
    """Enumerate the feasible set; exact minimum plus both extremes.

    Refuses dimensions above `limit` (default 20) to keep runs bounded,
    and a cube of 64 or more dimensions, whose points a uint64 cannot count.
    The points are scored in blocks of 4096 (_feasible_blocks), so the
    scratch stays near 2 MiB at n = 20, on the cube and on the slice; of
    equal minima the first point enumerated wins.
    """
    n = f.dimension
    if n > limit:
        raise DomainError(f"exhaustive search refused: dimension {n} exceeds limit {limit}")
    if n >= 64 and not c.is_exact_ones:
        raise DomainError(f"exhaustive search refused: the 2^{n} points of the cube "
                          "overflow its uint64 counter")
    check_feasible(n, c)
    best_x, best, worst, count = _best_of_blocks(f.values, _feasible_blocks(n, c))
    return OracleResult(best_x, best, best, worst, count)


def random_search(f: Objective, c: ConstraintSpec, samples: int, seed=0) -> OracleResult:
    """Best of `samples` uniform feasible draws. f_max is omitted since the
    sweep is partial.

    A cube sample draws n fair signs. A slice sample draws its r indices
    of +1 by Floyd's algorithm, r bounded draws per sample, and is scored
    on those indices through `Objective.values_on_ones`.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    check_seed(seed)
    check_feasible(f.dimension, c)
    rng = np.random.default_rng(seed)
    score = f.values_on_ones if c.is_exact_ones else f.values
    best_x, best, _, count = _best_of_blocks(
        score, _sampled_blocks(f.dimension, c, samples, rng))
    if c.is_exact_ones:
        # the winning row holds the +1 indices
        best_x = _flipped(-np.ones(f.dimension), best_x)
    return OracleResult(best_x, best, best, None, count)


def greedy_peel(graph, k: int) -> BinaryVector:
    """Drop the weakest vertex (minimum weighted degree inside the current
    subgraph) until k remain. On degree ties the highest id is dropped, so
    lower ids are the preferred survivors. Returns the survivor indicator
    as a sign vector.

    Each drop costs one vectorised argmin over the live degrees, plus
    the dropped ones since the last compaction (at most a third as many),
    and an update over the dropped vertex's adjacency row. A weighted
    degree that is not finite (its weights overflow) raises NumericError:
    a dropped vertex's +inf could otherwise win the argmin again.
    """
    n = graph.n
    if not (1 <= k <= n):
        raise DomainError(f"k={k} outside [1, {n}]")
    degrees = graph.degrees()
    if not np.isfinite(degrees).all():
        raise NumericError("non-finite weighted degree: the edge weights overflow")
    W = graph.matrix()
    indptr, indices, data = W.indptr.tolist(), W.indices, W.data
    # Live degrees in reversed id order (ids[i] is the vertex at entry i,
    # at[v] the entry of vertex v): argmin returns the first minimum,
    # which is then the highest id among equal degrees. A dropped vertex
    # holds +inf until the array is compacted, after which it maps to the
    # one trailing +inf entry, so its neighbours' updates land there
    # harmlessly
    ids = np.arange(n - 1, -1, -1)
    at = ids.copy()
    live = np.append(degrees[::-1], np.inf)
    kept = np.ones(n, dtype=bool)
    stale = 0
    for _ in range(n - k):
        i = int(live.argmin())
        drop = int(ids[i])
        kept[drop] = False
        live[i] = np.inf
        # the fancy-indexed -= subtracts once per index; the cached CSR
        # adjacency is canonical, so each neighbour appears once per row
        row = slice(indptr[drop], indptr[drop + 1])
        live[at[indices[row]]] -= data[row]
        stale += 1
        if 4 * stale >= len(ids):
            alive = kept[ids]
            ids = ids[alive]
            live = np.append(live[:-1][alive], np.inf)
            at.fill(len(ids))
            at[ids] = np.arange(len(ids))
            stale = 0
    return _sign_vector(kept)
