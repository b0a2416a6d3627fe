"""Reference solvers: signed-gradient descent, exhaustive search, peeling."""
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpcd import (DimensionError, DomainError, NumericError, SolverConfig, SparseGraph,
                  UNCONSTRAINED, UnsupportedConstraintError, binary_vector, dpcd_solve,
                  exact_ones, exhaustive_oracle, greedy_peel,
                  make_dense_subgraph, make_quadratic, make_shifted_separable,
                  planted_partition, random_search, sgm_solve)

from dpcd import baselines
from dpcd.baselines import _feasible_blocks, _sampled_blocks

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
    """random_search with every sample drawn into one array: (samples, n)
    sign rows on the cube; on the slice, one (samples, r) draw that a
    plain Floyd pass, one set per row, turns into rows of +1 indices."""
    rng = np.random.default_rng(seed)
    n = f.dimension
    if c.is_exact_ones:
        ones = floyd_reference(rng.integers(0, np.arange(n - c.r, n) + 1,
                                            size=(samples, c.r)), n)
        vals = f.values_on_ones(ones)
        i = int(np.argmin(vals))
        x = -np.ones(n)
        x[ones[i]] = 1.0
        return x, float(vals[i])
    X = rng.integers(0, 2, size=(samples, n)) * 2.0 - 1.0
    vals = f.values(X)
    i = int(np.argmin(vals))
    return X[i], float(vals[i])


def floyd_reference(draws, n):
    """Floyd's subset sampler row by row: column t of an r-column row drew
    from [0, n - r + t] and takes n - r + t when its draw is taken."""
    r = draws.shape[1]
    out = np.empty_like(draws)
    for i, row in enumerate(draws.tolist()):
        chosen = set()
        for t, d in enumerate(row):
            if d in chosen:
                d = n - r + t
            chosen.add(d)
            out[i, t] = d
    return out


def nan_valued(f):
    """f with every value NaN; the gradient is left finite."""
    return dataclasses.replace(f, value=lambda x: float("nan"),
                               value_batch=lambda X: np.full(len(X), np.nan),
                               ones_batch=None, value_gradient=None)


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

    @pytest.mark.parametrize("x0,error", [
        (np.ones(5), DimensionError),
        (np.array([1.0, -1.0, 0.5, 1.0, 1.0, -1.0]), DomainError),
    ])
    def test_initial_point_checked(self, x0, error):
        # a short start point used to fail inside numpy, not as DimensionError
        with pytest.raises(error):
            sgm_solve(random_quadratic(6, 1), initial_point=x0)

    def test_non_finite_value_raises(self):
        with pytest.raises(NumericError, match="iteration 0"):
            sgm_solve(nan_valued(random_quadratic(6, 1)))


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

    def test_non_finite_value_raises(self):
        for c in (UNCONSTRAINED, exact_ones(3)):
            with pytest.raises(NumericError):
                exhaustive_oracle(nan_valued(random_quadratic(6, 1)), c)

    @pytest.mark.parametrize("n,r", [(6, 0), (6, 1), (6, 6), (20, 10)])
    def test_slice_blocks_match_combinations(self, n, r):
        # C(20, 10) = 184756 rows span three blocks
        want = -np.ones((math.comb(n, r), n))
        for row, support in enumerate(itertools.combinations(range(n), r)):
            want[row, list(support)] = 1.0
        blocks = list(_feasible_blocks(n, exact_ones(r)))
        assert len(blocks) == math.ceil(len(want) / 65536)
        assert np.array_equal(np.concatenate(blocks), want)

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

    @pytest.mark.parametrize("n,k", [(4, 2), (12, 6)])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_degrees_raise(self, n, k):
        # every weight 1e308: each weighted degree overflows to +inf, which
        # is also what a dropped vertex holds, so the argmin could pick a
        # dropped vertex again and leave more than k survivors
        u, v = np.triu_indices(n, 1)
        g = SparseGraph(n, u, v, np.full(len(u), 1e308))
        with pytest.raises(NumericError, match="non-finite weighted degree"):
            greedy_peel(g, k)

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

    @pytest.mark.parametrize("n", [300, 2000])
    @pytest.mark.parametrize("kind", ["unit", "non-dyadic", "cycle", "isolated"])
    def test_matches_reference_peel_across_compactions(self, n, kind):
        # long enough peels to compact the live degrees many times, with
        # ties everywhere (a cycle's degrees are all equal) and vertices
        # whose degree is 0 from the start
        if kind == "cycle":
            ids = np.arange(n)
            g = SparseGraph(n, np.minimum(ids, (ids + 1) % n),
                            np.maximum(ids, (ids + 1) % n), np.ones(n))
        elif kind == "isolated":
            half = random_graph(n // 2, 3 * n, [0.1, 0.3], n)
            g = SparseGraph(n, 2 * half.u, 2 * half.v, half.w)
        else:
            weights = [1.0] if kind == "unit" else [0.1, 0.2, 0.3, 0.7]
            g = random_graph(n, 3 * n, weights, n)
        for k in (1, n // 2, n - 1, n):
            assert np.array_equal(greedy_peel(g, k), reference_peel(g, k)), k


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

    def test_non_finite_value_raises(self):
        for c in (UNCONSTRAINED, exact_ones(3)):
            with pytest.raises(NumericError):
                random_search(nan_valued(random_quadratic(6, 1)), c, samples=10)

    def test_sample_validation(self):
        f = random_quadratic(4, 0)
        with pytest.raises(DomainError):
            random_search(f, UNCONSTRAINED, samples=0, seed=0)

    def test_infeasible_count_rejected(self):
        # the same error as exhaustive_oracle and random_feasible
        f = random_quadratic(4, 0)
        with pytest.raises(DomainError, match="^exact-ones r=5 infeasible for n=4$"):
            random_search(f, exact_ones(5), samples=3, seed=0)
        assert int(np.sum(random_search(f, exact_ones(4), samples=3).optimum > 0)) == 4

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
            # at most about three block-sized arrays of 4M entries each (the
            # slice holds its (m, r) index draws, a 1-byte (m, n) membership
            # table, then the expanded sign rows), while one (samples, n)
            # array alone would be 160 MB
            assert peak < 3.5 * (1 << 22) * 8 < samples * n * 8, c

    def test_slice_subsets_uniform(self):
        # 200000 samples of the 20 3-subsets of 6: each is expected 10000
        # times, with a standard deviation near 100
        rows = np.concatenate(list(_sampled_blocks(
            6, exact_ones(3), 200000, np.random.default_rng(0))))
        counts = np.bincount((1 << rows).sum(axis=1), minlength=64)
        drawn = np.nonzero(counts)[0]
        assert sorted(drawn.tolist()) == sorted(
            sum(1 << i for i in s) for s in itertools.combinations(range(6), 3))
        assert np.all(np.abs(counts[drawn] - 10000) <= 1000), counts[drawn]

    @pytest.mark.parametrize("r", [0, 1, 6, 7])
    def test_slice_rows_distinct_in_range(self, r):
        n = 7
        rows = np.concatenate(list(_sampled_blocks(
            n, exact_ones(r), 500, np.random.default_rng(r))))
        assert rows.shape == (500, r)
        assert np.all((rows >= 0) & (rows < n))
        assert all(len(set(row)) == r for row in rows.tolist())

    @given(n=st.integers(1, 40), r_frac=st.floats(0, 1), samples=st.integers(1, 60),
           entries=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1),
           slice_=st.booleans())
    def test_draws_independent_of_block_size(self, n, r_frac, samples, entries, seed,
                                             slice_):
        c = exact_ones(round(r_frac * n)) if slice_ else UNCONSTRAINED

        def draws():
            rng = np.random.default_rng(seed)
            return np.concatenate(list(_sampled_blocks(n, c, samples, rng)))

        whole = draws()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(baselines, "BLOCK_ENTRIES", entries)
            assert np.array_equal(draws(), whole)
        if slice_:
            assert np.array_equal(whole, floyd_reference(
                np.random.default_rng(seed).integers(
                    0, np.arange(n - c.r, n) + 1, size=(samples, c.r)), n))
