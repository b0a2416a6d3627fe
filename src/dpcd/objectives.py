"""Objective constructors for every problem family the solver drives.

Matrix-valued variables (code matrices B of shape (n, r)) are flattened
row-major into vectors of length n*r; the constructors close over shapes and
reshape internally, so the solver only ever sees flat sign vectors.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .core import (
    BLOCK_ENTRIES,
    DimensionError,
    DomainError,
    NumericError,
    Objective,
    exact_ones,
)

# a sparse quadratic with dimension up to this gets a dense n x n pair
# table (_pair_table), which flips_delta and ones_batch read by flat
# takes; at the limit an int8 table holds BLOCK_ENTRIES bytes (4 MiB).
# Beyond it a sparse A is read through _sparse_pair_coeffs
_DENSE_GATHER_LIMIT = math.isqrt(BLOCK_ENTRIES)


@dataclass(frozen=True)
class HashingProblem:
    # Parameters:
    #   Y       (n, classes) label matrix, one-hot or multi-hot rows
    #   lam     ridge weight on the regression matrix W
    #   r       code length (bits per sample)
    Y: np.ndarray
    lam: float
    r: int

    def __post_init__(self):
        if self.r < 1:
            raise DomainError("code length must be >= 1")
        if not 0 <= self.lam < math.inf:
            raise DomainError("regularization must be finite and nonnegative")


@dataclass(frozen=True)
class AffinityProblem:
    # S is the (n, n) similarity target, scale multiplies it before the fit.
    S: np.ndarray
    scale: float


def _symmetrized(A, label: str):
    if sp.issparse(A):
        gap = abs(A - A.T)
        if gap.nnz and gap.max() > 0:
            warnings.warn(f"{label} was not symmetric; symmetrized as (A + A')/2")
            return (A + A.T) * 0.5
        return A
    A = np.asarray(A, dtype=float)
    if not np.array_equal(A, A.T):
        warnings.warn(f"{label} was not symmetric; symmetrized as (A + A')/2")
        return (A + A.T) * 0.5
    return A


def _finite_lipschitz(lipschitz: float) -> float:
    """lipschitz, checked finite: coefficients whose row sums overflow,
    or hold a NaN, raise NumericError."""
    if not math.isfinite(lipschitz):
        raise NumericError(f"non-finite Lipschitz bound {lipschitz} from the coefficients")
    return lipschitz


def _pair_table(A) -> np.ndarray:
    """Dense copy of a canonical CSR A, written from its coordinates into
    the narrowest of int8 and float32 that gives back every stored entry
    bit for bit in A's own dtype (so a stored -0.0 keeps its sign), else
    into float64, the type every delta and score reads the entries in.
    """
    data = A.data
    for dtype in (np.int8, np.float32):
        with np.errstate(invalid="ignore", over="ignore"):
            narrow = data.astype(dtype)
            if narrow.astype(data.dtype).tobytes() == data.tobytes():
                break
    else:
        narrow = data.astype(np.float64)
    n = A.shape[0]
    table = np.zeros((n, n), dtype=narrow.dtype)
    table[np.repeat(np.arange(n), np.diff(A.indptr)), A.indices] = narrow
    return table


def _sparse_pair_coeffs(A, x):
    """For an exactly symmetric, canonical CSR A (no duplicate entries,
    so each value is one entry) and a point x: the map from a block's
    index columns cols to its lookup (u, v) -> A[cols[u], cols[v]].

    A pair (u, v) whose first index column holds only +1 entries of x
    reads A[p, q] from a dense block of the rows A[plus], built once for
    x and held transposed: one block column per p in plus, one block row
    per neighbour q of the +1 set, and one zero row that every other
    vertex maps to. A slice move lists its +1 entries first, so each of its
    pairs with an endpoint in plus is such a pair. The block's other
    pairs, and all pairs when the dense block would exceed BLOCK_ENTRIES,
    are read together by one scipy lookup, of which each pair takes its
    slice.
    """
    n = A.shape[0]
    plus = np.flatnonzero(np.asarray(x) > 0)
    k = len(plus)
    rows = A[plus]
    nbrs, slot_of = np.unique(rows.indices, return_inverse=True)
    width = len(nbrs) + 1
    dense = k * width <= BLOCK_ENTRIES
    if dense:
        block = np.zeros((width, k))
        block[slot_of, np.repeat(np.arange(k), np.diff(rows.indptr))] = rows.data
        flat = block.ravel()
        slot = np.full(n, len(nbrs))
        slot[nbrs] = np.arange(len(nbrs))
        pos = np.full(n, -1)
        pos[plus] = np.arange(k)

    def for_columns(cols):
        j, m = cols.shape
        every = np.zeros(j, dtype=bool)
        if dense:
            # per index column: each entry's block column (-1 off plus)
            # and the flat offset of its block row
            at = pos[cols]
            base = slot[cols] * k
            every = (at >= 0).all(axis=1)
        # the pairs the block cannot serve, read by one lookup: pair
        # (u, v) takes row which[u, v] of looked
        first, second = np.triu_indices(j, 1)
        missed = ~every[first]
        first, second = first[missed], second[missed]
        which = np.zeros((j, j), dtype=np.intp)
        which[first, second] = np.arange(len(first))
        if len(first):
            looked = np.asarray(A[cols[first].ravel(), cols[second].ravel()])
            looked = looked.reshape(len(first), m)

        def coeffs(u, v):
            if every[u]:
                return flat.take(base[v] + at[u])
            return looked[which[u, v]]

        return coeffs

    return for_columns


def make_quadratic(A, c, d: float = 0.0) -> Objective:
    """Objective for x'Ax + c'x + d over sign vectors.

    A may be dense or sparse; it is symmetrized on construction (with a
    warning when that changes it). The gradient 2Ax + c has Lipschitz
    constant bounded by the max absolute row sum of 2A, which is what the
    returned objective declares.

    The local-search deltas read pair coefficients A_uv from a dense
    table: a dense A itself (no copy), or, for a sparse A with
    n <= _DENSE_GATHER_LIMIT, a copy in the narrowest exact dtype (int8
    for unit weights: n^2 bytes). A larger sparse A keeps its CSR form
    only. flips_delta keeps the gains s(x) and one pair source for the
    last point it scored: from a dense table, the signed table
    ((8x)x') o A once a block has at least n^2 pair terms (and n^2 <=
    BLOCK_ENTRIES), so a pair term is one take; from the CSR form, the
    block of +1 rows and one scipy lookup a block for the rest
    (_sparse_pair_coeffs). Every path gives the same bits. The gains
    read A @ x from value_gradient's last call when that was at the same
    point, as it is when the solver searches from the iterate it has
    just evaluated, so that point costs one mat-vec. A slice sample's
    s'As sums its r(r-1)/2 pairs from that copy while
    (r - 1)*n <= 2*nnz, so no more lookups than the r*nnz/n stored
    entries the sparse product S o (S @ A) reads, which scores it
    otherwise.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.shape[0]
    if not sp.issparse(A):
        A = np.asarray(A, dtype=float)
    if A.shape != (n, n):
        raise DimensionError(f"A is {A.shape}, expected ({n}, {n})")
    A = _symmetrized(A, "quadratic coefficient matrix")
    sparse = sp.issparse(A)
    if sparse:
        A = A.tocsr()
        if not A.has_canonical_format:
            # duplicates summed once, on a copy (np.abs would sum them in
            # the caller's matrix): scipy's lookup and a dense block of
            # rows then read the same number
            A = A.copy()
            A.sum_duplicates()
    abs_A = np.abs(A)
    row_abs = np.asarray(abs_A.sum(axis=1)).ravel()
    total_abs = float(abs_A.sum())
    del abs_A  # before the pair table is built
    diag = A.diagonal()
    lipschitz = _finite_lipschitz(2.0 * float(row_abs.max()) if n else 0.0)

    table = _pair_table(A) if sparse and n <= _DENSE_GATHER_LIMIT else None
    # the dense n x n coefficients: a dense A itself, a sparse A's pair
    # table, or None past the dense-gather limit
    square = table if sparse else A
    if square is not None:
        # A is symmetric, so entry (u, v) sits at u*n + v in C and in F
        # order alike: K order flattens either without a copy (a strided
        # matrix is copied once, here)
        flat = square.ravel(order="K")

    # x = 2s - 1 for the 0/1 indicator s of the +1 entries gives
    # x'Ax + c'x + d = 4*s'As + s'(2c - 4*A1) + (1'A1 - c'1 + d)
    A1 = np.asarray(A.sum(axis=1)).ravel()
    ones_linear = 2.0 * c - 4.0 * A1
    ones_constant = float(A1.sum()) - float(c.sum()) + d

    # the last point value_gradient evaluated, a private copy, and A @ x
    # there: the solver's local search scores the iterate it has just
    # evaluated, so point_state reads the product instead of forming it
    product = (np.empty(0), None)

    def value_gradient(x):
        nonlocal product
        x = np.asarray(x, dtype=float)
        Ax = A @ x
        product = (x.copy(), Ax)
        return float(x @ Ax + c @ x + d), 2.0 * Ax + c

    def value_batch(X):
        X = np.asarray(X, dtype=float)
        AX = (A @ X.T).T if sparse else X @ A
        return np.einsum("ij,ij->i", X, AX) + X @ c + d

    def ones_batch(idx):
        idx = np.asarray(idx, dtype=np.intp)
        m, r = idx.shape
        if table is not None and (r - 1) * n <= 2 * A.nnz:
            # s'As = sum_u A_uu + 2*sum_{u<v} A_uv over each row's +1 set:
            # r(r-1)/2 table reads a row, no more than the r*nnz/n stored
            # entries the product below reads; one take per index column,
            # held as a contiguous row of the transposed indices
            cols = np.ascontiguousarray(idx.T)
            pairs = np.zeros(m)
            for u in range(r - 1):
                pairs += flat.take(cols[u] * n + cols[u + 1:]).sum(axis=0, dtype=float)
            quad = diag[idx].sum(axis=1) + 2.0 * pairs
        else:
            # the row sums of S o (S @ A), where S is the (m, n) sparse
            # indicator of the rows' +1 sets: r*nnz/n stored entries a row
            # of a sparse A. A dense A streams its rows here, which at
            # r = n costs about a quarter of the pair lookups' time
            S = sp.csr_array((np.ones(m * r), idx.ravel(), np.arange(m + 1) * r), shape=(m, n))
            quad = np.asarray(S.multiply(S @ A).sum(axis=1)).ravel()
        return 4.0 * quad + ones_linear[idx].sum(axis=1) + ones_constant

    # the last point flips_delta scored: a private copy (so a caller's
    # in-place change is seen), its gains s and its pair source. A
    # search's radius blocks, and the searches of a stall, then share one
    # A @ x and one pair source. Equal values suffice, here and for the
    # product: a zero's sign never reaches a delta, whose sums start at
    # +0.0
    last = None

    def point_state(x):
        nonlocal last
        state = last
        if state is None or not np.array_equal(state["x"], x):
            seen, Ax = product
            if not np.array_equal(seen, x):
                seen, Ax = x.copy(), A @ x
            state = {"x": seen,
                     "gains": x * (4.0 * diag * x - 4.0 * Ax - 2.0 * c),
                     "pairs": _sparse_pair_coeffs(A, x) if square is None else None}
            last = state
        return state

    def flips_delta(x, flips):
        # x' = x - 2*x_F on the flip set F; expanding x'Ax' + c'x' with A
        # symmetric gives delta = sum_F s_u + 8*sum_{u<v in F} x_u x_v A_uv,
        # where s = x*(4*diag(A)*x - 4*Ax - 2c) holds the single-flip deltas
        x = np.asarray(x, dtype=float)
        state = point_state(x)
        delta = state["gains"][flips].sum(axis=1)
        # one contiguous index column per flip; each pair then adds
        # (8*x_u) * x_v * A_uv in (u, v) order, the rounding seeded
        # outputs depend on
        cols = np.ascontiguousarray(flips.T)
        j, m = cols.shape
        if square is None:
            coeffs = state["pairs"](cols)
        else:
            base = cols * n
            signed = state["pairs"]
            if signed is None and n * n <= min(m * (j * (j - 1) // 2), BLOCK_ENTRIES):
                # every pair's term at x, formed in that same order: no
                # more entries than the block has pair terms, nor than
                # BLOCK_ENTRIES
                signed = np.outer(8.0 * x, x)
                signed *= square
                signed = state["pairs"] = signed.ravel()
            if signed is not None:
                for u in range(j):
                    for v in range(u + 1, j):
                        delta += signed.take(base[u] + cols[v])
                return delta

            def coeffs(u, v):
                return flat.take(base[u] + cols[v])
        xc = x[cols]
        x8 = 8.0 * xc
        for u in range(j):
            for v in range(u + 1, j):
                delta += x8[u] * xc[v] * coeffs(u, v)
        return delta

    return Objective(
        dimension=n,
        value=lambda x: value_gradient(x)[0],
        gradient=lambda x: value_gradient(x)[1],
        lipschitz=lipschitz,
        value_batch=value_batch,
        flips_delta=flips_delta,
        ones_batch=ones_batch,
        value_gradient=value_gradient,
        coeff_abs_sum=total_abs + float(np.abs(c).sum()),
        name="quadratic",
    )


def make_shifted_separable(beta) -> Objective:
    """f(x) = 1/2 * sum_i (x_i + beta_i)^2 with every beta_i in (0, 1).

    The gradient is x + beta, so the Lipschitz constant is exactly 1. The
    unique sign-vector minimizer is all -1, since each term prefers the
    sign opposite to beta_i.
    """
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if beta.size < 1:
        raise DomainError("beta must be non-empty")
    if not np.all((beta > 0) & (beta < 1)):
        raise DomainError("every beta_i must lie strictly inside (0, 1)")
    n = beta.size

    def value(x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * np.sum((x + beta) ** 2))

    def gradient(x):
        return np.asarray(x, dtype=float) + beta

    def value_batch(X):
        return 0.5 * np.sum((np.asarray(X, dtype=float) + beta) ** 2, axis=1)

    def flips_delta(x, flips):
        x = np.asarray(x, dtype=float)
        return -2.0 * np.einsum("ij,ij->i", x[flips], beta[flips])

    # as a quadratic: A = I/2, c = beta, d = ||beta||^2 / 2
    return Objective(
        dimension=n,
        value=value,
        gradient=gradient,
        lipschitz=1.0,
        value_batch=value_batch,
        flips_delta=flips_delta,
        coeff_abs_sum=0.5 * n + float(np.abs(beta).sum()),
        name="shifted-separable",
    )


def make_dense_subgraph(graph, k: int):
    """Densest-k-subgraph as sign-vector minimization.

    With the 0/1 indicator written as x = (y + 1)/2, maximizing x'Wx under
    a k-vertex budget becomes minimizing f(y) = -y'Wy - 2y'W1 over sign
    vectors with exactly k entries +1 (the constant -1'W1 is dropped; add
    graph.total_weight back to recover -4*x'Wx). Returns the objective and
    that constraint.
    """
    n = graph.n
    if k < 0 or k > n:
        raise DomainError(f"k={k} outside [0, {n}]")
    obj = make_quadratic(-graph.matrix(), -2.0 * graph.degrees(), 0.0)
    return replace(obj, name="dense-subgraph"), exact_ones(k)


def make_hashing_objective(problem: HashingProblem, W: np.ndarray) -> Objective:
    """Regression loss 1/2 ||Y - BW||^2 + lam/2 ||W||^2 over flattened B.

    W is fixed here (the alternating driver re-solves it between calls), so
    the W penalty is a constant carried for honest loss reporting. The
    gradient in B is RW' for the residual R = BW - Y, whose square sums to
    the loss bit for bit as Y - BW's does. Row-major layout: entry i*r + t
    of the flat vector is B[i, t].
    """
    Y = np.asarray(problem.Y, dtype=float)
    W = np.asarray(W, dtype=float)
    n, classes = Y.shape
    r = problem.r
    if W.shape != (r, classes):
        raise DimensionError(
            f"W is {W.shape}, expected ({r}, {classes}) to match codes and labels")
    penalty = 0.5 * problem.lam * float(np.sum(W * W))
    M = W @ W.T
    lipschitz = _finite_lipschitz(float(np.abs(M).sum(axis=1).max()))

    def residual(b):
        return np.asarray(b, dtype=float).reshape(n, r) @ W - Y

    def loss(R):
        return float(0.5 * np.sum(R * R) + penalty)

    def value_gradient(b):
        R = residual(b)
        return loss(R), (R @ W.T).ravel()

    return Objective(
        dimension=n * r,
        value=lambda b: loss(residual(b)),
        gradient=lambda b: value_gradient(b)[1],
        lipschitz=lipschitz,
        value_gradient=value_gradient,
        name="hashing-regression",
    )


def make_affinity_objective(problem: AffinityProblem, r: Optional[int] = None) -> Objective:
    """Code-affinity fit ||BB' - scale*S||^2 over flattened (n, r) codes.

    The code length r defaults to the scale when that is a whole number
    (the common choice is scale = number of bits). No Lipschitz constant is
    declared because the Hessian grows with B, so pair this objective with
    the gradient-average threshold policy.
    """
    S = _symmetrized(problem.S, "affinity target")
    S = S.toarray() if sp.issparse(S) else np.asarray(S, dtype=float)
    n = S.shape[0]
    scale = float(problem.scale)
    if r is None:
        if scale >= 1 and scale == int(scale):
            r = int(scale)
        else:
            raise DomainError("pass the code length r when scale is not a whole number")
    if r < 1:
        raise DomainError("code length must be >= 1")

    def codes_residual(b):
        B = np.asarray(b, dtype=float).reshape(n, r)
        return B, B @ B.T - scale * S

    def loss(R):
        return float(np.sum(R * R))

    def value_gradient(b):
        B, R = codes_residual(b)
        return loss(R), (4.0 * R @ B).ravel()

    return Objective(
        dimension=n * r,
        value=lambda b: loss(codes_residual(b)[1]),
        gradient=lambda b: value_gradient(b)[1],
        value_gradient=value_gradient,
        name="code-affinity",
    )
