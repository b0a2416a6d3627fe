"""Graph ingestion, generation, serialization, and the density metric."""
import io
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from scipy.io import mmread

from dpcd import (DomainError, ParseError, SparseGraph, density,
                  load_edge_list, load_matrix_market, make_dense_subgraph,
                  planted_partition, save_edge_list)
from dpcd import graph as graph_mod

from conftest import peak_bytes


class TestSparseGraph:
    def test_basic_accessors(self):
        g = SparseGraph(4, [0, 1], [2, 3], [1.5, 2.0])
        assert g.n == 4
        assert g.edge_count == 2
        assert g.total_weight == pytest.approx(7.0)
        M = g.matrix().toarray()
        assert np.array_equal(M, M.T)
        assert M[0, 2] == 1.5 and M[1, 3] == 2.0
        assert np.allclose(g.degrees(), M.sum(axis=1))

    def test_validation(self):
        with pytest.raises(DomainError):
            SparseGraph(3, [1], [0], [1.0])  # u >= v
        with pytest.raises(DomainError):
            SparseGraph(3, [0], [1], [-1.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="finite"):
                SparseGraph(3, [0], [1], [bad])
        with pytest.raises(DomainError):
            SparseGraph(2, [0], [2], [1.0])  # id beyond n

    def test_immutability(self):
        u = np.array([0])
        g = SparseGraph(2, u, [1], [1.0])
        u[0] = 9  # caller's array must not alias the graph's storage
        assert g.u[0] == 0
        with pytest.raises(ValueError):
            g.w[0] = 5.0


class TestEdgeList:
    def test_triangle(self):
        g = load_edge_list(b"0 1\n1 2\n0 2\n")
        assert (g.n, g.edge_count) == (3, 3)
        assert g.total_weight == pytest.approx(6.0)

    def test_duplicate_edges_sum(self):
        g = load_edge_list(b"0 1 2.5\n1 0 2.5\n")
        assert g.edge_count == 1
        assert g.w[0] == pytest.approx(5.0)

    @pytest.mark.parametrize("text,sorts", [
        (b"#nodes 6\n0 1 0.1\n0 4\n3 1 0.7\n1 5\n2 3 0.3\n", 0),  # "3 1" keys as (1, 3)
        (b"0 1 0.1\n2 3\n0 4 0.2\n", 1),
        (b"0 1 0.1\n0 2\n1 0 0.2\n", 1),
    ], ids=["key-order", "unsorted", "repeated"])
    def test_merge_sorts_only_what_needs_it(self, text, sorts, monkeypatch):
        # edges already in key order, each once, keep their order and
        # weights; the others are sorted and summed
        want = reference_load_edge_list(text)
        calls = []
        argsort = np.argsort

        def counted(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counted)
        got = load_edge_list(text)
        assert len(calls) == sorts
        assert got.n == want.n
        for a, b in ((got.u, want.u), (got.v, want.v), (got.w, want.w)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_self_loop_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="1 self-loop"):
            g = load_edge_list(b"0 0 1\n0 1 1\n")
        assert g.edge_count == 1

    def test_comments_and_header(self):
        g = load_edge_list(b"# a comment\n% another\n#nodes 5\n0 1\n")
        assert g.n == 5
        assert g.edge_count == 1

    def test_default_weight(self):
        g = load_edge_list(b"0 3\n")
        assert g.w[0] == 1.0

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list(b"#nodes many\n0 1\n")

    def test_malformed_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(b"0 1\n0 x\n")
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list(b"0 1 2 3\n")

    def test_negative_id(self):
        with pytest.raises(ParseError):
            load_edge_list(b"-1 2\n")

    def test_bad_weight(self):
        with pytest.raises(DomainError, match="line 1"):
            load_edge_list(b"0 1 0.0\n")
        with pytest.raises(DomainError):
            load_edge_list(b"0 1 -2\n")
        with pytest.raises(DomainError):
            load_edge_list(b"0 1 inf\n")

    def test_id_beyond_declared_count(self):
        with pytest.raises(ParseError):
            load_edge_list(b"#nodes 2\n0 5\n")

    def test_empty_input(self):
        g = load_edge_list(b"#nodes 4\n")
        assert (g.n, g.edge_count) == (4, 0)

    def test_round_trip_bit_exact(self):
        g, _ = planted_partition(30, 6, 0.9, 0.1, seed=4)
        # give the weights awkward decimals
        g = SparseGraph(g.n, g.u, g.v, g.w * 0.30000000000000004)
        sink = io.StringIO()
        save_edge_list(g, sink)
        back = load_edge_list(sink.getvalue().encode())
        assert back.n == g.n
        assert np.array_equal(back.u, g.u)
        assert np.array_equal(back.v, g.v)
        assert np.array_equal(back.w, g.w)

    @pytest.mark.parametrize("to_path", [False, True], ids=["stream", "path"])
    def test_matches_per_edge_writer(self, to_path, tmp_path):
        # the text a per-edge f-string writer makes, byte for byte
        key = np.unique(np.random.default_rng(8).integers(0, 50 * 50, 300))
        u, v = key // 50, key % 50
        keep = u < v
        g = SparseGraph(50, u[keep], v[keep], np.resize([0.1, 1e-300, 5e20, 1.0], keep.sum()))
        want = io.StringIO()
        want.write(f"#nodes {g.n}\n")
        for a, b, weight in zip(g.u, g.v, g.w):
            want.write(f"{int(a)} {int(b)} {float(weight)!r}\n")
        if to_path:
            save_edge_list(g, tmp_path / "g.edges")
            got = (tmp_path / "g.edges").read_bytes()
        else:
            sink = io.StringIO()
            save_edge_list(g, sink)
            got = sink.getvalue().encode()
        assert got == want.getvalue().encode()

    def test_round_trip_via_path(self, tmp_path):
        g = SparseGraph(3, [0, 1], [1, 2], [0.125, 3.5])
        p = tmp_path / "g.edges"
        save_edge_list(g, p)
        back = load_edge_list(p)
        assert np.array_equal(back.w, g.w)


def reference_load_edge_list(data):
    """A per-line edge-list parser with an np.add.at merge: the oracle of
    the block parser in the property tests."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    declared = None
    us, vs, ws = [], [], []
    for lineno, line in enumerate(data.splitlines(), start=1):
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
    u = np.asarray(us, dtype=np.intp)
    v = np.asarray(vs, dtype=np.intp)
    w = np.asarray(ws, dtype=float)
    loops = u == v
    dropped = int(loops.sum())
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop(s)")
        u, v, w = u[~loops], v[~loops], w[~loops]
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    n = declared if declared is not None else (int(hi.max()) + 1 if len(hi) else 0)
    if len(hi) and declared is not None and int(hi.max()) >= declared:
        raise ParseError(f"node id {int(hi.max())} outside declared node count {declared}")
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


def outcome(load, data):
    """What a loader makes of data: the graph's bytes and its warnings, or
    the type and message of what it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = load(data)
        except (ParseError, DomainError) as e:
            return type(e), str(e)
    return (g.n, g.u.dtype, g.u.tobytes(), g.v.tobytes(), g.w.tobytes(),
            [str(w.message) for w in caught])


# whitespace inside a line, and line breaks, as str.split and
# str.splitlines see them
PADDING = st.lists(st.sampled_from([" ", "\t", "\xa0", "\x1f", "\u3000"]),
                   max_size=2).map("".join)
SEPARATOR = st.lists(st.sampled_from([" ", "\t", "\xa0", "\u2003"]),
                     min_size=1, max_size=2).map("".join)
BREAK = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
# few distinct ids, so duplicates and self loops are common; spellings
# that int() takes
NODE = st.one_of(st.integers(0, 6).map(str), st.sampled_from(["+1", "0_2", "006"]))
WEIGHT = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    st.sampled_from(["5e-324", "2.2250738585072014e-308", "+3", "1_0.5", "1E2"]))


@st.composite
def edge_line(draw):
    fields = [draw(NODE), draw(NODE)] + ([draw(WEIGHT)] if draw(st.booleans()) else [])
    line = draw(PADDING) + fields[0]
    for field in fields[1:]:
        line += draw(SEPARATOR) + field
    return line + draw(PADDING)


COMMENT = st.tuples(PADDING, st.sampled_from(["#", "%"]),
                    st.text("ab 01x", max_size=6)).map("".join)
# a declared count above every id above keeps the file well formed
HEADER = st.tuples(PADDING, st.sampled_from(["#", "%"]), PADDING,
                   st.sampled_from(["nodes", "NODES", "Nodes"]), SEPARATOR,
                   st.integers(7, 9).map(str), PADDING).map("".join)
LINE = st.one_of(edge_line(), edge_line(), edge_line(), COMMENT, HEADER, PADDING)
# one fault per line; each fails a different one of the per-line checks
FAULTY = st.sampled_from([
    "0 x", "1.0 2", "0x1 2", "0 1 abc", "0", "0 1 2 3", "-1 2", "0 -3 1",
    "0 1 0", "0 1 -2", "0 1 inf", "0 1 nan", "-1 2 0", "x -1",
    "#nodes many", "%nodes", "#nodes -3", "#nodes 2",
])


@st.composite
def edge_file(draw, faults=0):
    lines = draw(st.lists(LINE, max_size=12))
    for _ in range(faults):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(PADDING) + draw(FAULTY) + draw(PADDING))
    # the last line may end without a break
    text = "".join(draw(BREAK) + line for line in lines)[1:]
    text = text + draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
    return text.encode() if draw(st.booleans()) else text


class TestEdgeListMatchesReference:
    """The block parser against the former per-line loop. Small patched
    block sizes put block boundaries everywhere in these short files."""

    def check(self, text, block):
        # a str is read as a text stream, bytes as a file's contents
        source = io.StringIO(text) if isinstance(text, str) else text
        with mock.patch.object(graph_mod, "_BLOCK_BYTES", block):
            got = outcome(load_edge_list, source)
        want = outcome(reference_load_edge_list, text)
        assert got == want

    @given(edge_file(), st.sampled_from([4, 16, 1 << 18]))
    def test_well_formed(self, text, block):
        self.check(text, block)

    @given(edge_file(faults=1), st.sampled_from([4, 16, 1 << 18]))
    def test_one_fault(self, text, block):
        self.check(text, block)

    @given(edge_file(faults=2), st.sampled_from([4, 16, 1 << 18]))
    def test_two_faults(self, text, block):
        self.check(text, block)

    @pytest.mark.parametrize("first,second", [
        ("0 1 0", "x 2"), ("x 2", "0 1 0"), ("0 1 2 3", "-1 2"),
        ("-1 2", "#nodes many"), ("#nodes -1", "0"), ("0 1 nan", "1 2 abc"),
    ])
    @pytest.mark.parametrize("block", [4, 1 << 18])
    def test_two_faults_of_different_kinds(self, first, second, block):
        # the first faulty line wins, whatever its kind
        text = f"0 1\n1 2\n{first}\n2 3\n{second}\n3 4\n"
        self.check(text, block)

    @pytest.mark.parametrize("fault", ["0 x", "0 1 0", "#nodes x", "1", "-2 1"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_fault_at_a_real_block_boundary(self, fault, offset):
        lines = [f"{i % 997} {(i * 7) % 991 + 1000} 1.5" for i in range(70000)]
        data = "\n".join(lines) + "\n"
        # the first block ends at the last newline inside its byte budget
        boundary = data.rfind("\n", 0, graph_mod._BLOCK_BYTES) + 1
        at = data.count("\n", 0, boundary) + offset  # 0-based line index
        lines[at] = fault.ljust(len(lines[at]))  # same length: the boundary stays
        text = "\n".join(lines) + "\n"
        assert text.rfind("\n", 0, graph_mod._BLOCK_BYTES) + 1 == boundary
        self.check(text, graph_mod._BLOCK_BYTES)


def reads(data):
    """load_edge_list's outcome on data, and the non-empty parts of it
    that numpy's reader took and that the line loop was given."""
    seen = {"numpy": [], "loop": []}
    read_numeric, read_lines = graph_mod._read_numeric, graph_mod._read_lines

    def numeric(part):
        rows = read_numeric(part)
        if part and rows is not None:
            seen["numpy"].append(part)
        return rows

    def lines(part, first_line):
        if part:
            seen["loop"].append(part)
        return read_lines(part, first_line)

    with mock.patch.object(graph_mod, "_read_numeric", numeric), \
            mock.patch.object(graph_mod, "_read_lines", lines):
        return outcome(load_edge_list, data), seen


class TestEdgeListText:
    def test_line_breaks_of_splitlines(self):
        text = "#nodes 9\r\n0 1\r1 2\x0c2 3\u20283 4\x1c4 5\r\n\r\n5\xa0x\n"
        with pytest.raises(ParseError) as caught:
            load_edge_list(text.encode())
        assert str(caught.value) == "line 8: non-numeric field in " + repr("5\xa0x")

    @pytest.mark.parametrize("block", [4, 1 << 18])
    def test_last_header_wins(self, block):
        with mock.patch.object(graph_mod, "_BLOCK_BYTES", block):
            g = load_edge_list(b"#nodes 3\n0 1\n% nodes 12\n1 2\n")
        assert g.n == 12

    def test_non_utf8_names_the_line(self):
        with pytest.raises(ParseError, match="^line 2: not UTF-8 text"):
            load_edge_list(b"0 1\n1 2\xff\n2 3\n")
        with pytest.raises(ParseError, match="^line 3: not UTF-8 text"):
            load_edge_list(b"0 1\r1 2\r\n\xc3\n")

    def test_earlier_fault_comes_before_bad_bytes(self):
        with pytest.raises(ParseError, match="^line 1: non-numeric"):
            load_edge_list(b"0 x\n1 2\xff\n")

    def test_non_utf8_in_a_later_block(self):
        data = b"0 1\n" * 10 + b"1 \xe2\x82\n"
        with mock.patch.object(graph_mod, "_BLOCK_BYTES", 8):
            with pytest.raises(ParseError, match="^line 11: not UTF-8 text"):
                load_edge_list(data)

    @pytest.mark.parametrize("data,numpy_reads,loop_reads", [
        (b"0 1\n1\t2\r\n\n2 3", [b"0 1\n1\t2\r\n\n2 3"], []),
        (b"0 1 0.5\n1 2 1e3\n", [b"0 1 0.5\n1 2 1e3\n"], []),
        (b"#nodes 5\n0 1\n1 2\n", [b"0 1\n1 2\n"], [b"#nodes 5\n"]),
        (b"0 1\n#nodes 5\n1 2\n", [b"1 2\n"], [b"0 1\n#nodes 5\n"]),
        (b"0 1\n% note\r\n1 2 0.5\n", [b"1 2 0.5\n"], [b"0 1\n% note\r\n"]),
        (b"0 1\x0b1 2\n", [], [b"0 1\x0b1 2\n"]),
        (b"0 1\x0c1 2\n", [], [b"0 1\x0c1 2\n"]),
        (b"0 1\r1 2\n", [], [b"0 1\r1 2\n"]),
        (b"0\xc2\xa01\n1 2\n", [], [b"0\xc2\xa01\n1 2\n"]),
        (b"1_0 2\n1 2\n", [], [b"1_0 2\n1 2\n"]),
        (b"0 1\n1 2 0.5\n", [], [b"0 1\n1 2 0.5\n"]),
        (b"0 1\n-1 2\n", [], [b"0 1\n-1 2\n"]),
        (b"0 1 #x\n1 2\n", [], [b"0 1 #x\n"]),
    ], ids=["plain-tab-crlf", "weighted", "header", "header-after-data", "percent",
            "vertical-tab", "form-feed", "lone-cr", "nbsp", "underscore",
            "mixed-fields", "negative-id", "inline-hash"])
    def test_blocks_numpy_reads_and_the_loop_reads(self, data, numpy_reads, loop_reads):
        # numpy's reader takes only what it reads as the loop does; the
        # lines up to a comment go to the loop, the rest of the block not
        got, seen = reads(data)
        assert got == outcome(reference_load_edge_list, data)
        assert seen == {"numpy": numpy_reads, "loop": loop_reads}

    @pytest.mark.parametrize("block", [4, 1 << 18])
    @pytest.mark.parametrize("data,calls", [
        (b"#nodes 9\n0 1\n% note\n1 2 0.5\r\n3 4\n" * 20, 0),
        (b"0 1\n" * 20 + b"1 x\n" + b"2 3\n" * 20, 1),
        (b"0 1\n" * 20 + b"1 \xff\n" + b"2 3\n" * 20, 1),
    ], ids=["well-formed", "faulty", "not-utf8"])
    def test_first_fault_runs_only_on_a_fault(self, data, calls, block):
        # the line loop names a fault only on faulty input, and once
        faults, read_lines = [], graph_mod._read_lines

        def counted(part, first_line):
            try:
                return read_lines(part, first_line)
            except ParseError:
                faults.append(first_line)
                raise

        with mock.patch.object(graph_mod, "_BLOCK_BYTES", block), \
                mock.patch.object(graph_mod, "_read_lines", counted):
            got = outcome(load_edge_list, data)
        assert len(faults) == calls
        if calls:
            assert got[0] is ParseError and got[1].startswith("line 21: ")
        else:
            assert got == outcome(reference_load_edge_list, data)

    def test_loop_reads_the_lines_before_a_bad_byte(self):
        data = b"0 1\n" * 20 + b"1 \xff\n" + b"2 3\n" * 20
        got, seen = reads(data)
        assert got == (ParseError, "line 21: not UTF-8 text (invalid start byte)")
        assert seen == {"numpy": [], "loop": [data, b"0 1\n" * 20]}

    def test_inline_hash_is_a_fault(self):
        # numpy's reader with comments="#" would take this line as 0 1
        with pytest.raises(ParseError, match="^line 2: non-numeric field in '0 1 #x'$"):
            load_edge_list(b"1 2\n0 1 #x\n")

    @given(st.one_of(edge_file(), edge_file(faults=1)))
    def test_text_reads_as_its_utf8_bytes(self, text):
        text = text.decode() if isinstance(text, bytes) else text
        assert (outcome(load_edge_list, io.StringIO(text))
                == outcome(load_edge_list, text.encode()))

    @pytest.mark.parametrize("text", ["0\u30001\n1\xa02 0.5\n", "\u0663 \u0664\n",
                                      "0 1\n1\u20032 x\n"])
    def test_text_with_non_ascii_separators(self, text):
        got = outcome(load_edge_list, io.StringIO(text))
        assert got == outcome(load_edge_list, text.encode())
        assert got == outcome(reference_load_edge_list, text)

    def test_id_beyond_int64_names_the_line(self):
        with pytest.raises(ParseError,
                           match="^line 2: node id outside int64 in '1 99999999999999999999'$"):
            load_edge_list(b"0 1\n1 99999999999999999999\n")
        # the per-line checks the old loop made come first on that line
        with pytest.raises(ParseError, match="^line 1: negative node id$"):
            load_edge_list(b"-99999999999999999999 1\n")
        with pytest.raises(DomainError, match="^line 1: edge weight"):
            load_edge_list(b"99999999999999999999 1 0\n")
        with pytest.raises(ParseError, match="^line 1: non-numeric"):
            load_edge_list(b"99999999999999999999 1 x\n")

    def test_node_count_bounded_for_edge_keys(self):
        # edges merge on the int64 key lo * n + hi; these two distinct edges
        # share it modulo 2**64 at n = 2**32 + 1 and used to merge silently
        with pytest.raises(ParseError, match="^node id 4294967296 too large"):
            load_edge_list(b"0 4294967295\n4294967295 4294967296\n")
        with pytest.raises(ParseError, match="^node id 9223372036854775807 too large"):
            load_edge_list(b"0 9223372036854775807\n")
        with pytest.raises(ParseError, match="^declared node count 3037000500 exceeds"):
            load_edge_list(b"#nodes 3037000500\n0 1\n")
        # the largest count whose keys fit still loads, edges intact
        top = graph_mod._MAX_NODES - 1
        assert graph_mod._MAX_NODES ** 2 <= np.iinfo(np.int64).max
        g = load_edge_list(f"0 {top}\n{top - 1} {top}\n0 {top} 2\n".encode())
        assert g.n == top + 1
        assert g.u.tolist() == [0, top - 1] and g.v.tolist() == [top, top]
        assert g.w.tolist() == [3.0, 1.0]

    def test_text_stream_source(self):
        g = load_edge_list(io.StringIO("0 1 0.5\n1 2\n"))
        assert np.array_equal(g.w, [0.5, 1.0])

    def test_peak_memory_follows_block_not_file(self):
        rng = np.random.default_rng(5)
        edges = 200_000
        u, v = rng.integers(0, 20000, (2, edges)).tolist()
        data = "".join(f"{a} {b}\n" for a, b in zip(u, v)).encode()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a few self loops
            peak = peak_bytes(load_edge_list, data)
        # the merge's sort and the graph take about 80 bytes an edge (16 MB
        # here) and one block's scratch a few MB more; a parser that holds
        # every line and every field of the 2 MB file at once needs 39 MB
        assert peak < 24 * 2**20


def concatenated_matrix(graph):
    """The former adjacency build: both triangles as one COO, which scipy
    converts, sorts and sums."""
    rows = np.concatenate([graph.u, graph.v])
    cols = np.concatenate([graph.v, graph.u])
    vals = np.concatenate([graph.w, graph.w])
    return sp.csr_matrix((vals, (rows, cols)), shape=(graph.n, graph.n))


def assert_same_csr(got, want):
    assert got.has_canonical_format == want.has_canonical_format
    for a, b in ((got.indptr, want.indptr), (got.indices, want.indices),
                 (got.data, want.data)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestMatrixMatchesConcatenated:
    """matrix() is U + U' for the CSR U of the stored triangle, with the
    bytes of the former build wherever that build's sums had an order."""

    @pytest.mark.parametrize("weights", ["unit", "non-dyadic"])
    def test_loader_graphs(self, weights):
        planted, _ = planted_partition(300, 30, 0.6, 0.05, seed=4)
        w = planted.w if weights == "unit" else np.arange(1, planted.edge_count + 1) * 0.1
        g = SparseGraph(planted.n, planted.u, planted.v, w)
        text = io.StringIO()
        save_edge_list(g, text)
        edges = zip(g.u.tolist(), g.v.tolist(), g.w.tolist())
        lines = [f"{a + 1} {b + 1} {x!r}" for a, b, x in edges]
        market = mm("%%MatrixMarket matrix coordinate real general\n"
                    f"{g.n} {g.n} {len(lines)}\n" + "".join(f"{line}\n" for line in lines))
        for graph in (g, load_edge_list(text.getvalue().encode()), load_matrix_market(market)):
            assert_same_csr(graph.matrix(), concatenated_matrix(graph))

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_no_edges(self, n):
        g = SparseGraph(n, [], [], [])
        assert_same_csr(g.matrix(), concatenated_matrix(g))

    @pytest.mark.parametrize("seed", range(40))
    def test_unsorted_edges_stored_three_times(self, seed):
        # each edge three times with non-dyadic weights, in shuffled order.
        # No vertex has more than 5 neighbours, so a row of the former
        # build holds at most 15 entries: scipy's row sort (libstdc++'s
        # introsort) keeps rows of up to 16 entries in stored order, and
        # the former sums then ran in stored order as well
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 200))
        degree, edges = np.zeros(n, dtype=int), set()
        for p, q in rng.integers(0, n, (3 * n, 2)).tolist():
            key = (min(p, q), max(p, q))
            if p != q and key not in edges and degree[p] < 5 and degree[q] < 5:
                edges.add(key)
                degree[[p, q]] += 1
        u, v = np.array(sorted(edges), dtype=np.intp).reshape(-1, 2).T.repeat(3, axis=1)
        w = rng.integers(1, 1000, len(u)) * 0.1
        order = rng.permutation(len(u))
        g = SparseGraph(n, u[order], v[order], w[order])
        assert_same_csr(g.matrix(), concatenated_matrix(g))

    def test_repeated_edges_sum_in_stored_order(self):
        # rows far past 16 entries, an edge stored up to a dozen times:
        # its weights sum in stored order, the same bits at (u, v) and
        # (v, u). The former build sorted such rows in no fixed order
        rng = np.random.default_rng(5)
        n = 30
        a, b = rng.integers(0, n, (2, 3000))
        keep = a != b
        u, v = np.minimum(a, b)[keep], np.maximum(a, b)[keep]
        w = rng.integers(1, 1000, len(u)) * 0.1
        M = SparseGraph(n, u, v, w).matrix()
        want = np.zeros((n, n))
        for p, q, x in zip(u.tolist(), v.tolist(), w.tolist()):
            want[p, q] += x
            want[q, p] += x
        assert M.has_canonical_format
        assert M.toarray().tobytes() == want.tobytes()


def mm(text: str) -> bytes:
    return text.encode()


class TestMatrixMarket:
    def test_symmetric_triangle(self):
        g = load_matrix_market(mm(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n2 1 1.0\n3 1 1.0\n3 2 1.0\n"))
        assert (g.n, g.edge_count) == (3, 3)
        assert g.total_weight == pytest.approx(6.0)

    def test_general_averages_triangles(self):
        g = load_matrix_market(mm(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 1\n1 2 2.0\n"))
        assert g.edge_count == 1
        assert g.w[0] == pytest.approx(1.0)

    def test_general_both_triangles_stated(self):
        g = load_matrix_market(mm(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 3.0\n2 1 1.0\n"))
        assert g.w[0] == pytest.approx(2.0)

    def test_empty_matrix(self):
        g = load_matrix_market(mm(
            "%%MatrixMarket matrix coordinate real general\n4 4 0\n"))
        assert (g.n, g.edge_count) == (4, 0)

    def test_diagonal_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = load_matrix_market(mm(
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 2\n1 1 4.0\n1 2 2.0\n"))
        assert g.edge_count == 1

    def test_negative_average_rejected(self):
        with pytest.raises(DomainError):
            load_matrix_market(mm(
                "%%MatrixMarket matrix coordinate real general\n"
                "2 2 1\n1 2 -2.0\n"))

    def test_cancelling_triangles_vanish(self):
        g = load_matrix_market(mm(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 2 2.0\n2 1 -2.0\n"))
        assert g.edge_count == 0

    def test_non_square(self):
        with pytest.raises(ParseError, match="square"):
            load_matrix_market(mm(
                "%%MatrixMarket matrix coordinate real general\n2 3 0\n"))

    def test_garbage(self):
        with pytest.raises(ParseError):
            load_matrix_market(b"not a matrix\n")

    def test_pattern_type(self):
        g = load_matrix_market(mm(
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "3 3 2\n2 1\n3 1\n"))
        assert g.edge_count == 2
        assert np.all(g.w == 1.0)


def merged_load_matrix_market(data):
    """The former MatrixMarket load: the upper triangle by mask, then
    sorted and summed once more by _merge_edges."""
    M = sp.coo_matrix(mmread(io.BytesIO(data)))
    averaged = ((M + M.T) * 0.5).tocsr()
    averaged.eliminate_zeros()
    M = averaged.tocoo()
    mask = M.row < M.col
    return graph_mod._merge_edges(M.shape[0], M.row[mask], M.col[mask], M.data[mask])


class TestMatrixMarketMatchesMerge:
    @pytest.mark.parametrize("symmetry", ["general", "symmetric"])
    @pytest.mark.parametrize("seed", range(12))
    def test_same_bytes(self, symmetry, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 3 * n))
        rows, cols = rng.integers(1, n + 1, (2, m))
        if symmetry == "symmetric":  # stored entries lie on or below the diagonal
            rows, cols = np.maximum(rows, cols), np.minimum(rows, cols)
        # awkward decimals, a repeated coordinate, and a stated triangle
        # cancelled by the other
        weights = rng.integers(1, 1000, m) * 0.1
        if m >= 2:
            rows[1], cols[1] = rows[0], cols[0]
        if symmetry == "general" and m >= 4:
            rows[3], cols[3], weights[3] = cols[2], rows[2], -weights[2]
        lines = [f"%%MatrixMarket matrix coordinate real {symmetry}", f"{n} {n} {m}"]
        lines += [f"{a} {b} {float(x)!r}" for a, b, x in zip(rows, cols, weights)]
        data = ("\n".join(lines) + "\n").encode()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # diagonal entries
            got, want = load_matrix_market(data), merged_load_matrix_market(data)
        assert got.n == want.n
        for a, b in ((got.u, want.u), (got.v, want.v), (got.w, want.w)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("field,symmetry,entries", [
        # (1, 2) three times: (0.1 + 0.2) + 0.7 is 1.0, (0.7 + 0.2) + 0.1 is not
        ("real", "general", ["1 2 0.1", "3 2 0.7", "1 2 0.2", "2 1 0.3", "1 2 0.7",
                             "3 3 0.5", "2 3 0.1"]),
        ("real", "symmetric", ["2 1 0.1", "2 1 0.2", "3 1 0.3", "2 1 0.7", "3 3 0.5"]),
        ("integer", "general", ["1 2 3", "2 1 4", "2 3 7", "3 1 5", "1 2 1", "1 3 -4"]),
        ("integer", "symmetric", ["2 1 3", "3 1 5", "2 1 4", "3 2 1"]),
        ("pattern", "general", ["1 2", "2 1", "3 1", "1 2", "2 3"]),
        ("pattern", "symmetric", ["2 1", "3 1", "3 2", "3 1"]),
        ("real", "skew-symmetric", ["2 1 0.5", "3 1 0.25", "3 2 -1.5"]),
        ("integer", "skew-symmetric", ["2 1 2", "3 2 -7"]),
    ])
    def test_same_bytes_fields(self, field, symmetry, entries):
        data = mm(f"%%MatrixMarket matrix coordinate {field} {symmetry}\n"
                  f"3 3 {len(entries)}\n" + "".join(f"{line}\n" for line in entries))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # diagonal entries
            got, want = load_matrix_market(data), merged_load_matrix_market(data)
        assert got.n == want.n
        for a, b in ((got.u, want.u), (got.v, want.v), (got.w, want.w)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestDensity:
    def test_triangle_full(self):
        g = load_edge_list(b"0 1\n1 2\n0 2\n")
        assert density(g, [0, 1, 2]) == pytest.approx(2.0)

    def test_independent_set(self):
        g = SparseGraph(4, [0, 2], [1, 3], [1.0, 1.0])
        assert density(g, [0, 2]) == 0.0

    def test_validation(self):
        g = load_edge_list(b"0 1\n")
        with pytest.raises(DomainError):
            density(g, [])
        with pytest.raises(DomainError):
            density(g, [0, 7])

    def test_duplicate_ids_collapse(self):
        g = load_edge_list(b"0 1\n")
        assert density(g, [0, 1, 1]) == pytest.approx(1.0)

    def test_block_denser_than_random(self):
        g, block = planted_partition(60, 10, 0.9, 0.05, seed=11)
        rng = np.random.default_rng(0)
        rand = rng.permutation(60)[:10]
        assert density(g, block) > density(g, rand)

    def test_matches_objective_algebra(self, rng):
        g, _ = planted_partition(12, 4, 0.8, 0.2, seed=9)
        k = 5
        f, _ = make_dense_subgraph(g, k)
        for _ in range(20):
            sel = rng.permutation(12)[:k]
            y = -np.ones(12)
            y[sel] = 1.0
            via_objective = (g.total_weight - f.value(y)) / (4.0 * k)
            assert density(g, sel) == pytest.approx(via_objective)


class TestPlantedPartition:
    def test_degenerate_probabilities(self):
        g, block = planted_partition(10, 4, 1.0, 0.0, seed=3)
        assert len(block) == 4
        assert g.edge_count == 6
        inside = set(block.tolist())
        for a, b in zip(g.u, g.v):
            assert a in inside and b in inside

    def test_determinism(self):
        a, block_a = planted_partition(40, 8, 0.6, 0.1, seed=21)
        b, block_b = planted_partition(40, 8, 0.6, 0.1, seed=21)
        assert np.array_equal(block_a, block_b)
        assert np.array_equal(a.u, b.u) and np.array_equal(a.w, b.w)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            planted_partition(10, 4, 0.2, 0.5, seed=0)
        with pytest.raises(DomainError):
            planted_partition(10, 11, 0.9, 0.1, seed=0)
        with pytest.raises(DomainError):
            planted_partition(10, 4, 1.2, 0.1, seed=0)

    def test_block_density_expectation(self):
        # density of the planted block concentrates on (k-1) * p_in
        n, k, p_in = 40, 12, 0.5
        vals = []
        for s in range(50):
            g, block = planted_partition(n, k, p_in, 0.05, seed=s)
            vals.append(density(g, block))
        expected = (k - 1) * p_in
        sd_single = 2.0 * np.sqrt(k * (k - 1) / 2 * p_in * (1 - p_in)) / k
        assert abs(np.mean(vals) - expected) <= 3 * sd_single / np.sqrt(50)
