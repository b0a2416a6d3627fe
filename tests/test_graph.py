"""Graph ingestion, generation, serialization, and the density metric."""
import io

import numpy as np
import pytest

from dpcd import (DomainError, ParseError, SparseGraph, density,
                  load_edge_list, load_matrix_market, make_dense_subgraph,
                  planted_partition, save_edge_list)


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

    def test_round_trip_via_path(self, tmp_path):
        g = SparseGraph(3, [0, 1], [1, 2], [0.125, 3.5])
        p = tmp_path / "g.edges"
        save_edge_list(g, p)
        back = load_edge_list(p)
        assert np.array_equal(back.w, g.w)


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
