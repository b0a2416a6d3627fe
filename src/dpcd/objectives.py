"""Objective constructors for every problem family the solver drives.

Matrix-valued variables (code matrices B of shape (n, r)) are flattened
row-major into vectors of length n*r; the constructors close over shapes and
reshape internally, so the solver only ever sees flat sign vectors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .core import (
    DimensionError,
    DomainError,
    Objective,
    exact_ones,
)

# quadratics with dimension up to this get a dense coefficient copy for
# fast gathers in flips_delta; beyond it sparse fancy indexing is used
_DENSE_GATHER_LIMIT = 1500


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
        if self.lam < 0:
            raise DomainError("regularization must be nonnegative")


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


def make_quadratic(A, c, d: float = 0.0) -> Objective:
    """Objective for x'Ax + c'x + d over sign vectors.

    A may be dense or sparse; it is symmetrized on construction (with a
    warning when that changes it). The gradient 2Ax + c has Lipschitz
    constant bounded by the max absolute row sum of 2A, which is what the
    returned objective declares.
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    n = c.shape[0]
    if A.shape != (n, n):
        raise DimensionError(f"A is {A.shape}, expected ({n}, {n})")
    A = _symmetrized(A, "quadratic coefficient matrix")
    sparse = sp.issparse(A)
    if sparse:
        A = A.tocsr()
        row_abs = np.asarray(np.abs(A).sum(axis=1)).ravel()
        total_abs = float(np.abs(A).sum())
        gather = A.toarray() if n <= _DENSE_GATHER_LIMIT else A
    else:
        row_abs = np.abs(A).sum(axis=1)
        total_abs = float(np.abs(A).sum())
        gather = A
    diag = A.diagonal()
    lipschitz = 2.0 * float(row_abs.max()) if n else 0.0

    def value(x):
        x = np.asarray(x, dtype=float)
        return float(x @ (A @ x) + c @ x + d)

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * (A @ x) + c

    def value_batch(X):
        X = np.asarray(X, dtype=float)
        AX = (A @ X.T).T if sparse else X @ A
        return np.einsum("ij,ij->i", X, AX) + X @ c + d

    def flips_delta(x, flips):
        # x' = x - 2*x_F on the flip set F; expanding x'Ax' + c'x' with A
        # symmetric gives delta = sum_F s_u + 8*sum_{u<v in F} x_u x_v A_uv,
        # where s = x*(4*diag(A)*x - 4*Ax - 2c) holds the single-flip deltas
        x = np.asarray(x, dtype=float)
        s = x * (4.0 * diag * x - 4.0 * (A @ x) - 2.0 * c)
        xf = x[flips]
        delta = s[flips].sum(axis=1)
        j = flips.shape[1]
        for u in range(j):
            for v in range(u + 1, j):
                avals = np.asarray(gather[flips[:, u], flips[:, v]]).ravel()
                delta += 8.0 * xf[:, u] * xf[:, v] * avals
        return delta

    return Objective(
        dimension=n,
        value=value,
        gradient=gradient,
        lipschitz=lipschitz,
        value_batch=value_batch,
        flips_delta=flips_delta,
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
    if np.any(beta <= 0) or np.any(beta >= 1):
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
    W = graph.matrix()
    degrees = np.asarray(W.sum(axis=1)).ravel()
    obj = make_quadratic(-W, -2.0 * degrees, 0.0)
    return replace(obj, name="dense-subgraph"), exact_ones(k)


def make_hashing_objective(problem: HashingProblem, W: np.ndarray) -> Objective:
    """Regression loss 1/2 ||Y - BW||^2 + lam/2 ||W||^2 over flattened B.

    W is fixed here (the alternating driver re-solves it between calls), so
    the W penalty is a constant carried for honest loss reporting. The
    gradient in B is (BW - Y)W'. Row-major layout: entry i*r + t of the
    flat vector is B[i, t].
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
    lipschitz = float(np.abs(M).sum(axis=1).max())

    def value(b):
        B = np.asarray(b, dtype=float).reshape(n, r)
        R = Y - B @ W
        return float(0.5 * np.sum(R * R) + penalty)

    def gradient(b):
        B = np.asarray(b, dtype=float).reshape(n, r)
        return ((B @ W - Y) @ W.T).ravel()

    return Objective(
        dimension=n * r,
        value=value,
        gradient=gradient,
        lipschitz=lipschitz,
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

    def value(b):
        B = np.asarray(b, dtype=float).reshape(n, r)
        R = B @ B.T - scale * S
        return float(np.sum(R * R))

    def gradient(b):
        B = np.asarray(b, dtype=float).reshape(n, r)
        return (4.0 * (B @ B.T - scale * S) @ B).ravel()

    return Objective(
        dimension=n * r,
        value=value,
        gradient=gradient,
        name="code-affinity",
    )
