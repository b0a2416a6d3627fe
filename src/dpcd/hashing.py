"""Supervised-hashing driver and retrieval evaluation.

The model is h(x) = sign(x P): binary codes B are learned on the training
set by alternating a closed-form ridge solve for the class projection W
with descent steps on B, then P maps raw features onto the learned codes.
Also hosts the dense-matrix file formats the command line accepts.
"""

from __future__ import annotations

import io
import math
import os
import struct
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    BLOCK_ENTRIES,
    DimensionError,
    DomainError,
    NumericError,
    ParseError,
    UNCONSTRAINED,
    _is_sign_array,
    _map_spans,
    check_seed,
    signs,
)
from .graph import _NUMERIC, _blocks, _read_all
from .objectives import HashingProblem, make_hashing_objective
from .solver import SolverConfig, dpcd_solve

_MAGIC = b"DPCDMAT1"

# the code step alternating_hash runs when given no inner config: no
# neighborhood search, so a round costs time linear in the sample count
CODE_STEP = SolverConfig(max_iterations=20, neighborhood_cadence=0)


@dataclass(frozen=True)
class HashModel:
    # Parameters:
    #   B             (n, r) training codes, entries +-1
    #   W             (r, classes) code-to-label regression
    #   P             (d, r) feature-to-code projection, used by encode()
    #   loss_history  objective after every half step (W solve, then B step)
    #   outer_iterations  completed alternations
    B: np.ndarray
    W: np.ndarray
    P: np.ndarray
    loss_history: tuple
    outer_iterations: int


@dataclass(frozen=True)
class RetrievalScore:
    map: float
    precision_at_k: float
    k: int


def _ridge_solve(G: np.ndarray, ridge: float, rhs: np.ndarray, singular: str) -> np.ndarray:
    """(G + ridge I)^-1 rhs; a singular system raises NumericError(singular)."""
    try:
        return np.linalg.solve(G + ridge * np.eye(len(G)), rhs)
    except np.linalg.LinAlgError as e:
        raise NumericError(singular) from e


def solve_w(B: np.ndarray, Y: np.ndarray, lam: float) -> np.ndarray:
    """Exact ridge solution W = (B'B + lam I)^-1 B'Y."""
    B = np.asarray(B, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if B.shape[0] != Y.shape[0]:
        raise DimensionError(f"codes have {B.shape[0]} rows, labels {Y.shape[0]}")
    if not 0 <= lam < math.inf:
        raise DomainError("lam must be finite and nonnegative")
    return _ridge_solve(B.T @ B, lam, B.T @ Y,
                        "code Gram matrix is singular; use lam > 0 to regularize")


def solve_projection(X: np.ndarray, B: np.ndarray, ridge: Optional[float] = None) -> np.ndarray:
    """Least-squares P minimizing ||XP - B||^2, with a small default ridge
    so rank-deficient feature matrices stay solvable."""
    X = np.asarray(X, dtype=float)
    B = np.asarray(B, dtype=float)
    if X.shape[0] != B.shape[0]:
        raise DimensionError(f"features have {X.shape[0]} rows, codes {B.shape[0]}")
    d = X.shape[1]
    G = X.T @ X
    if ridge is None:
        ridge = 1e-8 * float(np.trace(G)) / d
    elif not 0 <= ridge < math.inf:
        raise DomainError("ridge must be finite and nonnegative")
    return _ridge_solve(G, ridge, X.T @ B, "feature Gram matrix is singular; pass ridge > 0")


def encode(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Binary codes sign(XP); the shared sign convention maps 0 to +1."""
    X = np.asarray(X, dtype=float)
    P = np.asarray(P, dtype=float)
    if X.shape[1] != P.shape[0]:
        raise DimensionError(f"features are {X.shape}, projection {P.shape}")
    return signs(X @ P)


def alternating_hash(X: np.ndarray, Y: np.ndarray, r: int,
                     outer_iterations: int = 5, inner: Optional[SolverConfig] = None,
                     lam: float = 1.0, seed: int = 0,
                     initial_codes: Optional[np.ndarray] = None) -> HashModel:
    """Alternate the exact W solve with binary descent on the codes.

    Each outer round records the loss after the W half-step and again after
    the B half-step. The W solve is exact, and under the Lipschitz
    threshold policy the B step descends too, so the recorded history never
    increases. Under average thresholds the B step can raise the loss, and
    so can the history (ROADMAP item 1). `inner` defaults to CODE_STEP.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape[0] != Y.shape[0]:
        raise DimensionError(f"features have {X.shape[0]} rows, labels {Y.shape[0]}")
    if r < 1:
        raise DomainError("code length must be >= 1")
    if outer_iterations < 1:
        raise DomainError("outer_iterations must be >= 1")
    check_seed(seed)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    if initial_codes is None:
        B = signs(rng.standard_normal((n, r)))
    else:
        B = np.asarray(initial_codes, dtype=float)
        if B.shape != (n, r):
            raise DimensionError(f"initial codes are {B.shape}, expected ({n}, {r})")
        if not _is_sign_array(B):
            raise DomainError("initial codes must be sign matrices")
    if inner is None:
        inner = CODE_STEP
    problem = HashingProblem(Y=Y, lam=lam, r=r)

    history = []
    completed = 0
    for t in range(outer_iterations):
        W = solve_w(B, Y, lam)
        objective = make_hashing_objective(problem, W)
        step_cfg = replace(inner, seed=int(rng.integers(0, 2**31 - 1)))
        # the stop check reads the round's start packed, so no name here
        # holds the (n, r) start while the solve runs (B and the last
        # round's report are dropped): the solve frees it once its first
        # step moves
        start = np.packbits(B > 0)
        handed = [B.ravel()]
        del B
        report = dpcd_solve(objective, UNCONSTRAINED, step_cfg, initial_point=handed.pop())
        # the loss after the W half-step is the code step's starting value
        history.extend((report.value_trajectory[0], report.final_value))
        B = np.asarray(report.final_point).reshape(n, r)
        del report
        completed = t + 1
        if np.array_equal(np.packbits(B > 0), start):
            break
    P = solve_projection(X, B)
    return HashModel(B=B, W=W, P=P, loss_history=tuple(history),
                     outer_iterations=completed)


def evaluate_retrieval(query_codes, db_codes, query_labels, db_labels,
                       k: int) -> RetrievalScore:
    """Hamming-ranking quality of a code table.

    Both code tables must be sign matrices (entries -1 or +1). The
    database is sorted per query by ascending Hamming distance with ties on
    the lower id. An item is relevant when it shares at least one label
    with the query. map averages precision over each query's full ranking
    (queries with no relevant item contribute 0); precision_at_k is the
    relevant fraction of the first k.
    """
    Q = np.asarray(query_codes, dtype=float)
    D = np.asarray(db_codes, dtype=float)
    if Q.ndim != 2 or D.ndim != 2 or Q.shape[1] != D.shape[1]:
        raise DimensionError("query and database codes must share the code length")
    if not (_is_sign_array(Q) and _is_sign_array(D)):
        raise DomainError("query and database codes must be sign matrices")
    nq, r = Q.shape
    nd = D.shape[0]
    if not (1 <= k <= nd):
        raise DomainError(f"cutoff k={k} outside [1, {nd}]")
    relevance = _relevance(query_labels, db_labels, nq, nd)
    Qw = _packed_codes(Q)
    # one contiguous row of database words per word position
    Dw = np.ascontiguousarray(_packed_codes(D).T)
    # relevance is built in query row blocks, so memory stays linear in
    # the database size; a block is built whole, where BLAS's own threads
    # (if any) split a label product, and its queries are ranked in spans
    block = max(1, BLOCK_ENTRIES // nd)
    # distances are integers in [0, r]; held in the smallest unsigned type
    # that fits r, the stable argsort below is a radix sort
    dist_type = np.min_scalar_type(r)
    ap_sum = 0.0
    hits_at_k = 0.0
    for start in range(0, nq, block):
        stop = min(start + block, nq)
        rel = relevance(slice(start, stop))

        def score(lo, hi):
            # (average precision, hits in the first k) of each query in a
            # span (core._map_spans) of the block
            out = []
            for q, relevant in zip(Qw[start + lo:start + hi], rel[lo:hi]):
                # Hamming distance: the set bits of q XOR d, summed over words
                dist = np.zeros(nd, dtype=dist_type)
                for w, word in enumerate(q):
                    dist += np.bitwise_count(Dw[w] ^ word)
                flags = relevant.take(np.argsort(dist, kind="stable"))
                total = int(np.count_nonzero(flags))
                ap = 0.0
                if total:
                    positions = np.nonzero(flags)[0]
                    precisions = np.arange(1, total + 1) / (positions + 1.0)
                    ap = float(precisions.mean())
                out.append((ap, int(np.count_nonzero(flags[:k])) / k))
            return out

        # added up in query order, so the sums do not depend on the spans
        for span in _map_spans(score, stop - start, nd):
            for ap, hits in span:
                ap_sum += ap
                hits_at_k += hits
    return RetrievalScore(map=ap_sum / nq, precision_at_k=hits_at_k / nq, k=k)


def _packed_codes(codes: np.ndarray) -> np.ndarray:
    """(m, words) uint64 rows holding a set bit for each +1 entry of the
    sign rows of codes, zero-padded to whole 64-bit words."""
    bits = np.packbits(codes > 0, axis=1)
    words = -(-bits.shape[1] // 8)
    out = np.zeros((len(codes), 8 * words), dtype=np.uint8)
    out[:, :bits.shape[1]] = bits
    return out.view(np.uint64)


def _relevance(query_labels, db_labels, nq: int, nd: int):
    # validates the label shapes once; returns a function mapping a slice
    # of query rows to its (rows, nd) boolean relevance block
    ql = np.asarray(query_labels)
    dl = np.asarray(db_labels)
    if ql.ndim == 1 and dl.ndim == 1:
        if len(ql) != nq or len(dl) != nd:
            raise DimensionError("label counts do not match code counts")
        return lambda rows: ql[rows, None] == dl[None, :]
    if ql.ndim == 2 and dl.ndim == 2 and ql.shape[1] == dl.shape[1]:
        if ql.shape[0] != nq or dl.shape[0] != nd:
            raise DimensionError("label counts do not match code counts")
        ql = ql.astype(float)
        dl_t = dl.astype(float).T
        return lambda rows: (ql[rows] @ dl_t) > 0
    raise DimensionError("labels must both be id vectors or both label matrices")


# ---------------------------------------------------------------------------
# dense matrix file formats

def save_matrix_binary(path, M: np.ndarray) -> None:
    """Container layout: magic "DPCDMAT1", u64 rows, u64 cols, then
    row-major little-endian float64 payload."""
    M = np.ascontiguousarray(np.asarray(M, dtype="<f8"))
    if M.ndim != 2:
        raise DomainError("only 2-d matrices are supported")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", M.shape[0], M.shape[1]))
        fh.write(M.tobytes(order="C"))


def load_matrix_binary(path) -> np.ndarray:
    """The matrix in a save_matrix_binary container. The payload is read
    once, straight into the returned array, after its size is checked
    against the file's."""
    with open(path, "rb") as fh:
        header = fh.read(len(_MAGIC))
        if header != _MAGIC:
            raise ParseError(f"bad magic bytes: {header!r}")
        dims = fh.read(16)
        if len(dims) != 16:
            raise ParseError("truncated header")
        rows, cols = struct.unpack("<QQ", dims)
        expected = rows * cols * 8
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise ParseError(f"payload holds {size} bytes, expected {expected}")
        M = np.empty((rows, cols), dtype="<f8")
        got = fh.readinto(M)
    if got != expected:
        # the file shrank after its size was read
        raise ParseError(f"payload holds {got} bytes, expected {expected}")
    bad = np.flatnonzero(~np.isfinite(M).all(axis=1))
    if bad.size:
        raise ParseError(f"row {bad[0]} (from 0): non-finite entry")
    return M


def _read_csv_lines(block: bytes, first_line: int, width):
    """(rows, width, line count) of whole lines from line first_line on;
    width is None before the first non-blank line, which is a header if
    not numeric, and 0 after a header. This loop states every CSV rule."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as e:
        *before, bad = io.StringIO(block[:e.start].decode(), newline=None).read().split("\n")
        _read_csv_lines(block[:e.start - len(bad.encode())], first_line, width)  # earlier faults
        raise ParseError(f"line {first_line + len(before)}: not UTF-8 text ({e.reason})") from None
    rows, lines = [], io.StringIO(text, newline=None).read().split("\n")  # "\r\n", lone "\r"
    for number, line in enumerate(map(str.strip, lines), start=first_line):
        if not line:
            continue
        try:
            row = [float(field) for field in line.split(",")]
        except ValueError:
            if width is None:  # the header
                width = 0
                continue
            raise ParseError(f"line {number}: non-numeric field") from None
        width = width or len(row)
        if len(row) != width:
            raise ParseError(f"line {number}: expected {width} columns, got {len(row)}")
        if not all(map(math.isfinite, row)):
            raise ParseError(f"line {number}: non-finite field")
        rows.append(row)
    return rows, width, len(lines) - 1


def _read_csv_numeric(block: bytes, width):
    # numpy's C reader takes ASCII numbers of the width, all finite, or None
    if not block.strip() or block.translate(None, _NUMERIC + b","):
        return None
    try:
        rows = np.loadtxt(io.BytesIO(block), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a ragged row, a field float() refuses, a lone "\r"
        return None
    if rows.shape[1] == (width or rows.shape[1]) and np.isfinite(rows).all():
        return rows, rows.shape[1], block.count(b"\n")


def load_matrix_csv(path) -> np.ndarray:
    """Comma-separated numeric rows of UTF-8 text; one leading header line
    is skipped. A field is any spelling float() accepts."""
    chunks, width, first_line = [], None, 1
    for block in _blocks(_read_all(path)):
        # the first non-blank line apart, so a header leaves its block to numpy
        cut = len(block) - len(block.lstrip().partition(b"\n")[2]) if width is None else 0
        for part in (block[:cut], block[cut:]):
            rows, width, lines = (_read_csv_numeric(part, width)
                                  or _read_csv_lines(part, first_line, width))
            chunks.append(rows)
            first_line += lines
    if not width:
        raise ParseError("empty matrix file" if width is None else "matrix file holds only a header")
    return np.concatenate([rows for rows in chunks if len(rows)])


def load_matrix(path) -> np.ndarray:
    """Dispatch on the magic bytes: binary container or CSV."""
    with open(path, "rb") as fh:
        head = fh.read(len(_MAGIC))
    if head == _MAGIC:
        return load_matrix_binary(path)
    return load_matrix_csv(path)
