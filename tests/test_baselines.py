"""Reference solvers: signed-gradient descent, exhaustive search, peeling."""
import tracemalloc

import numpy as np
import pytest

from dpcd import (DomainError, SolverConfig, SparseGraph, UNCONSTRAINED,
                  UnsupportedConstraintError, binary_vector, dpcd_solve,
                  exact_ones, exhaustive_oracle, greedy_peel,
                  make_dense_subgraph, make_quadratic, make_shifted_separable,
                  planted_partition, random_search, sgm_solve)

from conftest import random_quadratic


def reference_peel(graph, k):
    """Column-densifying peel: rescan the active ids for the minimum degree,
    drop the highest id among them, subtract its dense adjacency column."""
    n = graph.n
    W = graph.matrix().tocsc()
    active = np.ones(n, dtype=bool)
    deg = graph.degrees().copy()
    for _ in range(n - k):
        ids = np.nonzero(active)[0]
        weakest = ids[deg[ids] == deg[ids].min()]
        drop = int(weakest[-1])
        active[drop] = False
        deg -= np.asarray(W[:, drop].todense()).ravel()
    return np.where(active, 1.0, -1.0)


def single_block_search(f, c, samples, seed):
    """random_search with every sample drawn into one (samples, n) array."""
    rng = np.random.default_rng(seed)
    n = f.dimension
    if c.is_exact_ones:
        X = -np.ones((samples, n))
        order = np.argpartition(rng.random((samples, n)), c.r - 1, axis=1)[:, :c.r]
        X[np.arange(samples)[:, None], order] = 1.0
    else:
        X = rng.integers(0, 2, size=(samples, n)) * 2.0 - 1.0
    vals = f.values(X)
    i = int(np.argmin(vals))
    return X[i], float(vals[i])


def random_graph(n, edges, weights, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n, edges)
    b = rng.integers(0, n, edges)
    keep = a != b
    key = np.unique(np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep])
    return SparseGraph(n, key // n, key % n, rng.choice(weights, len(key)))


class TestSgm:
    def test_separable_oscillation(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 20))
            f = make_shifted_separable(rng.uniform(0.1, 0.9, n))
            rep = sgm_solve(f, max_iterations=50, seed=int(rng.integers(1e6)))
            assert "diverged: oscillation" in rep.flags
            assert not rep.converged
            assert rep.iterations <= 3

    def test_separable_alternating_trajectory(self):
        f = make_shifted_separable([0.5, 0.5, 0.5])
        x0 = binary_vector([1, -1, 1])
        rep = sgm_solve(f, initial_point=x0)
        # the update is x <- -sgn(x + beta) = -x whenever |beta| < 1
        assert np.array_equal(rep.final_point, x0) or np.array_equal(
            rep.final_point, -x0)

    def test_linear_objective_one_step(self):
        c = np.array([2.0, -3.0, 0.5, -0.25])
        f = make_quadratic(np.zeros((4, 4)), c)
        rep = sgm_solve(f, seed=8)
        assert rep.final_point.tolist() == [-1.0, 1.0, -1.0, 1.0]
        assert rep.converged

    def test_concave_quadratic_monotone(self, rng):
        # negative semidefinite A is the regime where the surrogate bound
        # is global, so the iteration must descend and settle
        M = rng.standard_normal((10, 10))
        A = -(M @ M.T) / 10.0
        f = make_quadratic(A, rng.standard_normal(10))
        rep = sgm_solve(f, seed=4)
        assert rep.converged
        assert np.all(np.diff(rep.value_trajectory) <= 1e-9)

    def test_constraint_rejected(self):
        f = random_quadratic(6, 1)
        with pytest.raises(UnsupportedConstraintError):
            sgm_solve(f, exact_ones(3))


class TestExhaustiveOracle:
    def test_separable_optimum(self):
        f = make_shifted_separable([0.3, 0.7])
        res = exhaustive_oracle(f)
        assert res.optimum.tolist() == [-1.0, -1.0]
        assert res.optimal_value == pytest.approx(f.value(res.optimum))
        assert res.f_min <= res.f_max

    def test_exact_ones_evaluation_count(self):
        f = random_quadratic(4, 2)
        res = exhaustive_oracle(f, exact_ones(2))
        assert res.evaluations == 6

    def test_unconstrained_evaluation_count(self):
        f = random_quadratic(5, 3)
        assert exhaustive_oracle(f).evaluations == 32

    def test_oracle_below_solvers(self):
        for trial in range(5):
            f = random_quadratic(10, 60 + trial)
            best = exhaustive_oracle(f).optimal_value
            dp = dpcd_solve(f, UNCONSTRAINED, SolverConfig(seed=trial))
            sg = sgm_solve(f, seed=trial)
            rs = random_search(f, UNCONSTRAINED, samples=200, seed=trial)
            assert best <= dp.final_value + 1e-9
            assert best <= sg.final_value + 1e-9
            assert best <= rs.optimal_value + 1e-9

    def test_limit_refusal(self):
        f = random_quadratic(21, 0)
        with pytest.raises(DomainError, match="limit 20"):
            exhaustive_oracle(f)
        f24 = random_quadratic(24, 0)
        res = exhaustive_oracle(f24, exact_ones(1), limit=24)
        assert res.evaluations == 24

    def test_constrained_optimum_feasible(self):
        f = random_quadratic(8, 9)
        res = exhaustive_oracle(f, exact_ones(3))
        assert int(np.sum(res.optimum > 0)) == 3


class TestGreedyPeel:
    def test_triangle_keep_all(self):
        g = SparseGraph(3, [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0])
        assert greedy_peel(g, 3).tolist() == [1.0, 1.0, 1.0]

    def test_star_keeps_center_and_lowest_leaf(self):
        g = SparseGraph(6, [0, 0, 0, 0, 0], [1, 2, 3, 4, 5], np.ones(5))
        x = greedy_peel(g, 2)
        assert np.nonzero(x > 0)[0].tolist() == [0, 1]

    def test_identity_selection(self):
        g, _ = planted_partition(9, 3, 0.9, 0.2, seed=5)
        assert np.all(greedy_peel(g, 9) == 1.0)

    def test_k_validation(self):
        g = SparseGraph(3, [0], [1], [1.0])
        with pytest.raises(DomainError):
            greedy_peel(g, 4)
        with pytest.raises(DomainError):
            greedy_peel(g, 0)

    def test_survivor_count(self, rng):
        g, _ = planted_partition(30, 6, 0.7, 0.2, seed=13)
        for k in (1, 5, 17, 30):
            x = greedy_peel(g, k)
            assert int(np.sum(x > 0)) == k
            assert set(np.unique(x)) <= {-1.0, 1.0}

    def test_weighted_degrees_drive_removal(self):
        # path 0-1-2 with a heavy pendant on 2: vertex 0 is the weakest
        g = SparseGraph(4, [0, 1, 2], [1, 2, 3], [1.0, 1.0, 5.0])
        x = greedy_peel(g, 3)
        assert np.nonzero(x > 0)[0].tolist() == [1, 2, 3]

    def test_matches_reference_peel(self, rng):
        # non-dyadic, repeated weights: many degree ties, and float
        # subtraction order decides which degrees stay equal
        for trial in range(60):
            n = int(rng.integers(2, 60))
            weights = [1.0] if trial % 5 == 0 else [0.1, 0.2, 0.3, 0.7]
            g = random_graph(n, int(rng.integers(0, 3 * n)), weights, trial)
            for k in sorted({1, max(1, n // 3), n - 1, n}):
                assert np.array_equal(greedy_peel(g, k), reference_peel(g, k)), (trial, k)


class TestRandomSearch:
    def test_single_sample(self):
        f = random_quadratic(6, 14)
        res = random_search(f, UNCONSTRAINED, samples=1, seed=9)
        assert res.optimal_value == pytest.approx(f.value(res.optimum))
        assert res.f_max is None
        assert res.evaluations == 1

    def test_dominated_by_exhaustive(self):
        f = random_quadratic(4, 5)
        truth = exhaustive_oracle(f).optimal_value
        res = random_search(f, UNCONSTRAINED, samples=16, seed=3)
        assert res.optimal_value >= truth - 1e-12

    def test_deterministic(self):
        f = random_quadratic(12, 7)
        a = random_search(f, exact_ones(5), samples=500, seed=31)
        b = random_search(f, exact_ones(5), samples=500, seed=31)
        assert a.optimal_value == b.optimal_value
        assert np.array_equal(a.optimum, b.optimum)

    def test_exact_ones_feasible(self):
        f = random_quadratic(10, 8)
        res = random_search(f, exact_ones(4), samples=100, seed=2)
        assert int(np.sum(res.optimum > 0)) == 4

    def test_sample_validation(self):
        f = random_quadratic(4, 0)
        with pytest.raises(DomainError):
            random_search(f, UNCONSTRAINED, samples=0, seed=0)

    def test_blocks_match_single_block(self):
        # n=5000 takes 838 samples per block, so 1000 samples span two
        n = 5000
        slice_f, slice_c = make_dense_subgraph(
            random_graph(n, 4 * n, [0.1, 0.3, 0.7], 1), 40)
        cube_f = make_shifted_separable(np.random.default_rng(2).uniform(0.1, 0.9, n))
        for f, c in ((slice_f, slice_c), (cube_f, UNCONSTRAINED)):
            res = random_search(f, c, samples=1000, seed=5)
            x, value = single_block_search(f, c, 1000, 5)
            assert res.optimal_value == value
            assert np.array_equal(res.optimum, x)

    def test_peak_memory_follows_block_not_samples(self):
        n, samples = 5000, 4000
        f = make_shifted_separable(np.random.default_rng(3).uniform(0.1, 0.9, n))
        for c in (UNCONSTRAINED, exact_ones(n // 2)):
            tracemalloc.start()
            try:
                random_search(f, c, samples=samples, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # about three block-sized arrays of 4M entries each (the slice
            # holds its sort keys, the sample block and one argpartition
            # result), while one (samples, n) array alone would be 160 MB
            assert peak < 3.5 * (1 << 22) * 8 < samples * n * 8, c
