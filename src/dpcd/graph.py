"""Graph loading, generation, and the subgraph density metric.

Graphs are undirected with strictly positive, finite edge weights and no self
loops. Storage keeps each edge once as (u, v, w) with u < v; the symmetric
sparse matrix is materialized on demand and cached.
"""

from __future__ import annotations

import io
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread

from .core import DomainError, ParseError


class SparseGraph:
    """Immutable undirected weighted graph.

    Exposes n, edge arrays (u, v, w) with u < v, total_weight = 1'W1, and
    matrix() producing the symmetric CSR adjacency.
    """

    __slots__ = ("n", "u", "v", "w", "_matrix")

    def __init__(self, n: int, u, v, w):
        u = np.array(u, dtype=np.intp)
        v = np.array(v, dtype=np.intp)
        w = np.array(w, dtype=float)
        if not (len(u) == len(v) == len(w)):
            raise DomainError("edge arrays must have equal length")
        if len(u) and (u >= v).any():
            raise DomainError("edges must be stored with u < v")
        if len(u) and not (np.isfinite(w) & (w > 0)).all():
            raise DomainError("edge weights must be positive and finite")
        if n < 0 or (len(u) and int(v.max()) >= n):
            raise DomainError("node id beyond declared node count")
        self.n = int(n)
        self.u, self.v, self.w = u, v, w
        for a in (self.u, self.v, self.w):
            a.flags.writeable = False
        self._matrix = None

    @property
    def edge_count(self) -> int:
        return len(self.w)

    @property
    def total_weight(self) -> float:
        # 1'W1 counts every undirected edge twice
        return 2.0 * float(self.w.sum())

    def matrix(self) -> sp.csr_matrix:
        if self._matrix is None:
            rows = np.concatenate([self.u, self.v])
            cols = np.concatenate([self.v, self.u])
            vals = np.concatenate([self.w, self.w])
            self._matrix = sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))
        return self._matrix

    def degrees(self) -> np.ndarray:
        return np.asarray(self.matrix().sum(axis=1)).ravel()


def _read_all(source):
    # a loader's source is a path, a readable stream or the file's contents
    if hasattr(source, "read"):
        return source.read()
    if isinstance(source, (bytes, bytearray)):
        return source
    with open(source, "rb") as fh:
        return fh.read()


def _as_text_lines(source):
    data = _read_all(source)
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return data.splitlines()


def _merge_edges(n_declared, raw_u, raw_v, raw_w):
    # normalize to u < v, sum duplicates, drop self loops with a warning
    u = np.asarray(raw_u, dtype=np.intp)
    v = np.asarray(raw_v, dtype=np.intp)
    w = np.asarray(raw_w, dtype=float)
    loops = u == v
    dropped = int(loops.sum())
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop(s)")
        u, v, w = u[~loops], v[~loops], w[~loops]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    n = n_declared if n_declared is not None else (int(hi.max()) + 1 if len(hi) else 0)
    if len(hi) and n_declared is not None and int(hi.max()) >= n_declared:
        raise ParseError(f"node id {int(hi.max())} outside declared node count {n_declared}")
    if len(lo) == 0:
        return SparseGraph(n, [], [], [])
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    key, lo, hi, w = key[order], lo[order], hi[order], w[order]
    boundaries = np.concatenate([[True], key[1:] != key[:-1]])
    group = np.cumsum(boundaries) - 1
    sums = np.zeros(int(group[-1]) + 1)
    np.add.at(sums, group, w)
    if (sums <= 0).any():
        raise DomainError("non-positive edge weight after merging")
    keep = boundaries.nonzero()[0]
    return SparseGraph(n, lo[keep], hi[keep], sums)


def load_edge_list(source) -> SparseGraph:
    """Parse whitespace-separated "u v [w]" lines.

    Comment lines start with '#' or '%'. A "#nodes N" header fixes the node
    count (otherwise 1 + max id). Duplicate edges sum their weights, self
    loops are dropped with a warning, and ids at or beyond a declared count
    are an error. Default weight is 1.0; weights must be positive.
    """
    declared = None
    us, vs, ws = [], [], []
    for lineno, line in enumerate(_as_text_lines(source), start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#") or text.startswith("%"):
            body = text[1:].strip()
            if body.lower().startswith("nodes"):
                try:
                    declared = int(body.split()[1])
                except (IndexError, ValueError):
                    raise ParseError(f"line {lineno}: malformed node-count header: {text!r}")
                if declared < 0:
                    raise ParseError(f"line {lineno}: negative node count")
            continue
        parts = text.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"line {lineno}: expected 'u v [w]', got {text!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
            weight = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric field in {text!r}")
        if a < 0 or b < 0:
            raise ParseError(f"line {lineno}: negative node id")
        if not np.isfinite(weight) or weight <= 0:
            raise DomainError(f"line {lineno}: edge weight must be positive and finite")
        us.append(a); vs.append(b); ws.append(weight)
    return _merge_edges(declared, us, vs, ws)


def save_edge_list(graph: SparseGraph, sink) -> None:
    """Inverse of load_edge_list; repr() keeps float weights bit-exact."""
    own = not hasattr(sink, "write")
    fh = open(sink, "w") if own else sink
    try:
        fh.write(f"#nodes {graph.n}\n")
        for a, b, weight in zip(graph.u, graph.v, graph.w):
            # plain-float repr: round-trippable, and never the numpy
            # scalar form that the parser would reject
            fh.write(f"{int(a)} {int(b)} {float(weight)!r}\n")
    finally:
        if own:
            fh.close()


def load_matrix_market(source) -> SparseGraph:
    """MatrixMarket coordinate input; general matrices are symmetrized by
    averaging the two triangles, symmetric ones load as stored."""
    data = _read_all(source)
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        M = mmread(io.BytesIO(data))
    except Exception as e:
        raise ParseError(f"matrix market parse failure: {e}") from e
    M = sp.coo_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ParseError(f"adjacency must be square, got {M.shape}")
    diagonal = int(np.count_nonzero(M.row == M.col))
    if diagonal:
        warnings.warn(f"dropped {diagonal} self-loop(s)")
    averaged = ((M + M.T) * 0.5).tocsr()
    averaged.eliminate_zeros()
    M = averaged.tocoo()
    mask = M.row < M.col
    return _merge_edges(M.shape[0], M.row[mask], M.col[mask], M.data[mask])


def density(graph: SparseGraph, selection) -> float:
    """Subgraph quality x'Wx / k for the 0/1 indicator x of the selection.

    The quadratic form counts each internal edge twice.
    """
    sel = np.unique(np.asarray(selection, dtype=np.intp))
    k = len(sel)
    if k < 1:
        raise DomainError("selection must contain at least one node")
    if sel.min() < 0 or sel.max() >= graph.n:
        raise DomainError("selection contains node ids outside the graph")
    x = np.zeros(graph.n)
    x[sel] = 1.0
    return float(x @ (graph.matrix() @ x)) / k


def planted_partition(n: int, k: int, p_in: float, p_out: float, seed):
    """Random graph with a hidden dense block.

    Edges are unit weight, sampled independently: probability p_in inside a
    random k-subset, p_out elsewhere. Returns (graph, block ids sorted).
    """
    if not (0 <= p_out < p_in <= 1):
        raise DomainError("need 0 <= p_out < p_in <= 1")
    if not (1 <= k <= n):
        raise DomainError(f"block size k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    block = np.sort(rng.permutation(n)[:k])
    in_block = np.zeros(n, dtype=bool)
    in_block[block] = True
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(in_block[iu] & in_block[ju], p_in, p_out)
    keep = rng.random(len(iu)) < prob
    graph = SparseGraph(n, iu[keep], ju[keep], np.ones(int(keep.sum())))
    return graph, block
