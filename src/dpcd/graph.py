"""Graph loading, generation, and the subgraph density metric.

Graphs are undirected with strictly positive, finite edge weights and no self
loops. Storage keeps each edge once as (u, v, w) with u < v; the symmetric
sparse matrix is materialized on demand and cached.
"""

from __future__ import annotations

import io
import math
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread

from .core import DomainError, ParseError

# the most nodes whose edge keys lo * n + hi < n * n all fit in int64
_MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


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


def _read_all(source) -> bytes:
    # a loader's source is a path, a readable stream or the file's
    # contents; text is read as its UTF-8 bytes, so it parses as a file does
    if hasattr(source, "read"):
        data = source.read()
    elif isinstance(source, (bytes, bytearray)):
        data = source
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    return data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data


# edge-list text is parsed in line-aligned blocks of about this many bytes,
# so the parse's scratch memory does not grow with the file
_BLOCK_BYTES = 1 << 18


def _blocks(data: bytes):
    """Line-aligned slices of data of about _BLOCK_BYTES, at least one.

    Every slice but the last ends just after a newline, which splits
    neither a line ("\r\n" included) nor a UTF-8 sequence."""
    start = 0
    while True:
        end = len(data)
        if end - start > _BLOCK_BYTES:
            cut = data.rfind(b"\n", start, start + _BLOCK_BYTES)
            if cut < 0:  # a line longer than a block
                cut = data.find(b"\n", start + _BLOCK_BYTES)
            if cut >= 0:
                end = cut + 1
        yield data[start:end]
        if end == len(data):
            return
        start = end


def _read_lines(block: bytes, first_line: int):
    """(declared count or None, u, v, w, line count) of a run of whole
    lines of UTF-8 text, the first of them line first_line of the file.

    This loop states every rule of load_edge_list's format: the first
    faulty line raises, by its number, for the first check it fails."""
    try:
        text = block.decode("utf-8")
    except UnicodeDecodeError as e:
        lines = (block[:e.start].decode("utf-8") + "x").splitlines()  # "x" stands for the bad byte
        # a fault on an earlier line comes first in file order
        _read_lines(block[:e.start - len(lines[-1][:-1].encode())], first_line)
        raise ParseError(f"line {first_line + len(lines) - 1}: "
                         f"not UTF-8 text ({e.reason})") from None
    declared, ids, weights, top = None, [], [], np.iinfo(np.int64).max
    lines = text.splitlines()
    for number, line in enumerate(lines, start=first_line):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped[0] in "#%":
            body = stripped[1:].strip()
            if body.lower().startswith("nodes"):
                try:
                    declared = int(body.split()[1])
                except (IndexError, ValueError):
                    raise ParseError(f"line {number}: malformed node-count header: "
                                     f"{stripped!r}") from None
                if declared < 0:
                    raise ParseError(f"line {number}: negative node count")
            continue
        fields = stripped.split()
        if len(fields) not in (2, 3):
            raise ParseError(f"line {number}: expected 'u v [w]', got {stripped!r}")
        try:
            a, b = int(fields[0]), int(fields[1])
            weight = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError:
            raise ParseError(f"line {number}: non-numeric field in {stripped!r}") from None
        if a < 0 or b < 0:
            raise ParseError(f"line {number}: negative node id")
        if not (math.isfinite(weight) and weight > 0):
            raise DomainError(f"line {number}: edge weight must be positive and finite")
        if a > top or b > top:
            raise ParseError(f"line {number}: node id outside int64 in {stripped!r}")
        ids.append(a)
        ids.append(b)
        weights.append(weight)
    ids = np.array(ids, dtype=np.int64).reshape(-1, 2)
    return declared, ids[:, 0], ids[:, 1], np.array(weights, dtype=float), len(lines)


# the bytes of the blocks numpy's reader may take: ASCII digits, signs,
# decimal points and exponents, spaces and tabs, and \n and \r\n breaks
_NUMERIC = b"0123456789+-.eE \t\r\n"


def _read_numeric(block: bytes):
    """(None, u, v, w, line count) of a run of whole lines of numbers,
    read by numpy's C reader; None leaves them to the line loop.

    numpy takes them when every byte is in _NUMERIC, every line has the
    field count of the first, 2 or 3, and every id and weight passes the
    sign and weight checks; its answer is then the loop's. np.loadtxt
    refuses a lone "\r" short of the end of its input, and each id that
    int() takes but int64 cannot hold. The byte guard and comments=None
    keep out what it reads otherwise: it splits fields at "\x0b" and
    "\x0c", where str.splitlines breaks lines, and with comments="#" it
    reads "0 1 #x" as an edge."""
    if block.translate(None, _NUMERIC):
        return None
    dtype = {2: "i8,i8", 3: "i8,i8,f8"}.get(len(block.lstrip().partition(b"\n")[0].split()))
    if dtype is None:
        return None
    try:
        rows = np.loadtxt(io.BytesIO(block), dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    u, v = rows["f0"], rows["f1"]
    w = rows["f2"] if len(rows.dtype) == 3 else np.ones(len(rows))
    if (u < 0).any() or (v < 0).any() or not (np.isfinite(w) & (w > 0)).all():
        return None
    return None, u, v, w, block.count(b"\n")


def _merge_edges(n_declared, raw_u, raw_v, raw_w):
    # normalize to u < v and sum duplicates; callers drop self loops first
    u = np.asarray(raw_u, dtype=np.intp)
    v = np.asarray(raw_v, dtype=np.intp)
    w = np.asarray(raw_w, dtype=float)
    top = int(max(u.max(), v.max())) if len(u) else -1
    if n_declared is not None and top >= n_declared:
        raise ParseError(f"node id {top} outside declared node count {n_declared}")
    n = top + 1 if n_declared is None else n_declared
    # edges sort by the int64 key lo * n + hi, which needs n * n to fit
    if n > _MAX_NODES:
        if n_declared is None:
            raise ParseError(f"node id {top} too large: ids must be below {_MAX_NODES}")
        raise ParseError(f"declared node count {n} exceeds {_MAX_NODES}")
    if len(u) == 0:
        return SparseGraph(n, [], [], [])
    key = np.minimum(u, v) * n + np.maximum(u, v)
    order = np.argsort(key, kind="stable")
    key = key[order]
    boundaries = np.concatenate([[True], key[1:] != key[:-1]])
    del key
    # each group's weights add one by one in stable sorted order
    sums = np.bincount(np.cumsum(boundaries) - 1, weights=w[order])
    if (sums <= 0).any():
        raise DomainError("non-positive edge weight after merging")
    keep = order[boundaries]
    del order
    return SparseGraph(n, np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep]), sums)


def load_edge_list(source) -> SparseGraph:
    """Parse whitespace-separated "u v [w]" lines of UTF-8 text.

    Comment lines start with '#' or '%'. A "#nodes N" header fixes the node
    count (otherwise 1 + max id); the last one wins. Default weight is 1.0.
    Lines break as in str.splitlines. The first faulty line raises, by its
    number, for the first check it fails: a header's count is an integer
    and not negative; a data line has 2 or 3 fields; they are numeric; no
    id is negative; the weight is positive and finite (DomainError, the
    rest ParseError); both ids fit in int64. Then ids at or beyond a
    declared count are an error, and ids must be below 3037000499, so that
    n * n fits in int64. Duplicate edges sum their weights, and self loops
    are dropped with a warning.

    The text is read in line-aligned blocks. numpy's C reader takes a
    block of ASCII numbers whose lines all have 2 fields or all 3 (see
    _read_numeric); a Python line loop, which states every rule above,
    reads every other block and the lines of a block up to its last
    comment line. The loop is the slow path: a file that mixes 2- and
    3-field lines, or is not ASCII, parses about 1.5x slower than with
    the former numpy tokenizer, while plain, weighted and CRLF files
    parse about 2x faster.
    """
    declared, edges, loops, first_line = None, [], 0, 1
    for block in _blocks(_read_all(source)):
        # the lines up to the last comment go to the line loop, so that a
        # header leaves the rest of its block to numpy's reader
        cut = max(block.rfind(b"#"), block.rfind(b"%")) + 1
        cut = cut and (block.find(b"\n", cut) + 1 or len(block))
        for part in (block[:cut], block[cut:]):
            header, u, v, w, lines = _read_numeric(part) or _read_lines(part, first_line)
            declared = declared if header is None else header
            edge = u != v
            loops += len(edge) - int(edge.sum())
            edges.append((u[edge], v[edge], w[edge]))
            first_line += lines
    if loops:
        warnings.warn(f"dropped {loops} self-loop(s)")
    u, v, w = (np.concatenate(column) for column in zip(*edges))
    del edges  # the merge's temporaries need the room
    return _merge_edges(declared, u, v, w)


def save_edge_list(graph: SparseGraph, sink) -> None:
    """Inverse of load_edge_list; repr() keeps float weights bit-exact."""
    # tolist gives Python ints and floats: a float's repr round-trips, and
    # is never the numpy scalar form that the parser would reject
    edges = zip(graph.u.tolist(), graph.v.tolist(), graph.w.tolist())
    text = f"#nodes {graph.n}\n" + "".join([f"{a} {b} {weight!r}\n" for a, b, weight in edges])
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w") as fh:
            fh.write(text)


def load_matrix_market(source) -> SparseGraph:
    """MatrixMarket coordinate input; general matrices are symmetrized by
    averaging the two triangles, symmetric ones load as stored."""
    try:
        M = mmread(io.BytesIO(_read_all(source)))
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
    # canonical CSR holds each entry once, in (row, col) order
    upper = sp.triu(averaged, k=1, format="coo")
    return SparseGraph(M.shape[0], upper.row, upper.col, upper.data)


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
