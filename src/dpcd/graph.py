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


def _read_all(source):
    # a loader's source is a path, a readable stream or the file's contents
    if hasattr(source, "read"):
        return source.read()
    if isinstance(source, (bytes, bytearray)):
        return source
    with open(source, "rb") as fh:
        return fh.read()


# the characters of str.isspace and the line breaks of str.splitlines (a
# test checks both against the interpreter), as lookup tables by code
# point; no code point past U+3000 is in either
_SPACES = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002"
           "\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f"
           "\u205f\u3000")
_LINE_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
_PLAIN = 0x3001  # stands for every code point past U+3000
_IS_SPACE, _IS_BREAK = (np.isin(np.arange(_PLAIN + 1), [ord(c) for c in chars])
                        for chars in (_SPACES, _LINE_BREAKS))

# edge-list text is parsed in line-aligned blocks of about this many bytes,
# so the parse's scratch memory does not grow with the file
_BLOCK_BYTES = 1 << 18


def _blocks(data):
    """Line-aligned slices of data of about _BLOCK_BYTES, at least one.

    Every slice but the last ends just after a newline, which splits
    neither a line ("\r\n" included) nor a UTF-8 sequence."""
    newline = "\n" if isinstance(data, str) else b"\n"
    start = 0
    while True:
        end = len(data)
        if end - start > _BLOCK_BYTES:
            cut = data.rfind(newline, start, start + _BLOCK_BYTES)
            if cut < 0:  # a line longer than a block
                cut = data.find(newline, start + _BLOCK_BYTES)
            if cut >= 0:
                end = cut + 1
        yield data[start:end]
        if end == len(data):
            return
        start = end


def _first_fault(text: str, first_line: int):
    """The error of the first faulty line of text, whose first line is
    line first_line of the file, for the first check it fails in
    load_edge_list's order; None when no line is faulty."""
    for number, line in enumerate(text.splitlines(), start=first_line):
        stripped = line.strip()
        if not stripped:
            continue
        where = f"line {number}: "
        if stripped[0] in "#%":
            body = stripped[1:].strip()
            if body.lower().startswith("nodes"):
                try:
                    declared = int(body.split()[1])
                except (IndexError, ValueError):
                    return ParseError(where + f"malformed node-count header: {stripped!r}")
                if declared < 0:
                    return ParseError(where + "negative node count")
            continue
        fields = stripped.split()
        if len(fields) not in (2, 3):
            return ParseError(where + f"expected 'u v [w]', got {stripped!r}")
        try:
            ids = [int(field) for field in fields[:2]]
            weight = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError:
            return ParseError(where + f"non-numeric field in {stripped!r}")
        if min(ids) < 0:
            return ParseError(where + "negative node id")
        if not (math.isfinite(weight) and weight > 0):
            return DomainError(where + "edge weight must be positive and finite")
        if max(ids) > np.iinfo(np.int64).max:
            return ParseError(where + f"node id outside int64 in {stripped!r}")
    return None


def _parse_block(text: str, first_line: int):
    """(declared count or None, u, v, w, line breaks) of a run of whole
    lines whose first is line first_line of the file.

    Tokens are placed on their lines with numpy over the characters, and
    all ids and all weights convert in one call each. A block that fails
    any check raises the error _first_fault names for it."""
    if text.isascii():
        chars = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        chars = np.minimum(np.frombuffer(
            text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32), _PLAIN)
    edges = np.flatnonzero(np.diff(~_IS_SPACE[chars], prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    breaks = _IS_BREAK[chars]
    breaks[:-1] &= (chars[:-1] != ord("\r")) | (chars[1:] != ord("\n"))
    breaks = np.flatnonzero(breaks)
    line = np.searchsorted(breaks, starts)
    # one entry per non-empty line: its first token and its token count
    first = np.flatnonzero(np.diff(line, prepend=-1))
    count = np.diff(first, append=len(line))
    lead = chars[starts[first]]
    comment = (lead == ord("#")) | (lead == ord("%"))
    declared = None
    try:  # a failed check only marks the block faulty
        for j in np.flatnonzero(comment):
            body = text[starts[first[j]] + 1:ends[first[j] + count[j] - 1]].strip()
            if body.lower().startswith("nodes"):
                declared = int(body.split()[1])
                if declared < 0:
                    raise ValueError
        at, fields = first[~comment], count[~comment]
        if ((fields != 2) & (fields != 3)).any():
            raise ValueError
        weighted = fields == 3
        tokens = np.array(text.split(), dtype=object)
        ids = np.array(tokens[np.stack([at, at + 1], axis=1).ravel()], dtype=np.int64)
        w = np.ones(len(at))
        w[weighted] = np.array(tokens[at[weighted] + 2], dtype=np.float64)
        if (ids < 0).any() or not (np.isfinite(w) & (w > 0)).all():
            raise ValueError
    except (IndexError, ValueError, OverflowError):
        raise _first_fault(text, first_line) from None
    ids = ids.reshape(-1, 2)
    return declared, ids[:, 0], ids[:, 1], w, len(breaks)


def _decode(block, first_line: int) -> str:
    if isinstance(block, str):
        return block
    try:
        return block.decode("utf-8")
    except UnicodeDecodeError as e:
        good = block[:e.start].decode("utf-8")
        lines = (good + "x").splitlines()  # "x" stands for the bad byte
        # a fault on an earlier line comes first in file order
        fault = _first_fault(good[:len(good) + 1 - len(lines[-1])], first_line)
        raise fault or ParseError(f"line {first_line + len(lines) - 1}: "
                                  f"not UTF-8 text ({e.reason})") from None


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
    """
    declared, parts, loops, first_line = None, [], 0, 1
    for block in _blocks(_read_all(source)):
        header, u, v, w, lines = _parse_block(_decode(block, first_line), first_line)
        declared = declared if header is None else header
        edge = u != v
        loops += len(edge) - int(edge.sum())
        parts.append((u[edge], v[edge], w[edge]))
        first_line += lines
    if loops:
        warnings.warn(f"dropped {loops} self-loop(s)")
    u, v, w = (np.concatenate(column) for column in zip(*parts))
    del parts  # the merge's temporaries need the room
    return _merge_edges(declared, u, v, w)


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
