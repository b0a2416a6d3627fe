"""Objective constructors: values, gradients, helper hooks, conversions."""
import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from dpcd import (AffinityProblem, DimensionError, DomainError, HashingProblem,
                  SparseGraph, binary_vector, constraint_check, exact_ones,
                  exhaustive_oracle, make_affinity_objective,
                  make_dense_subgraph, make_hashing_objective, make_quadratic,
                  make_shifted_separable, planted_partition)
from dpcd import objectives
from dpcd.objectives import _DENSE_GATHER_LIMIT

from conftest import assert_gradient_matches, interior_points, peak_bytes, random_quadratic


def brute_flip_delta(f, x, flips):
    out = np.empty(flips.shape[0])
    for i, row in enumerate(flips):
        y = np.array(x)
        y[row] *= -1.0
        out[i] = f.value(y) - f.value(x)
    return out


class TestQuadratic:
    def test_identity_matrix(self):
        f = make_quadratic(np.eye(2), np.zeros(2))
        x = binary_vector([1, -1])
        assert f.value(x) == pytest.approx(2.0)
        assert f.gradient(x).tolist() == [2.0, -2.0]

    def test_linear_only(self):
        f = make_quadratic(np.zeros((2, 2)), np.array([1.0, -1.0]))
        for x in ([1, 1], [-1, 1], [-1, -1]):
            assert f.gradient(binary_vector(x)).tolist() == [1.0, -1.0]

    def test_constant_term(self):
        f = make_quadratic(np.zeros((2, 2)), np.zeros(2), d=7.5)
        assert f.value(binary_vector([1, 1])) == 7.5

    def test_nested_list_coefficients(self):
        # a dense A given as nested lists used to fail reading A.shape
        f = make_quadratic([[1.0, 2.0], [2.0, 0.0]], [1.0, 0.0])
        g = make_quadratic(np.array([[1.0, 2.0], [2.0, 0.0]]), np.array([1.0, 0.0]))
        x = binary_vector([1, -1])
        assert f.value(x) == g.value(x) == -2.0
        assert f.gradient(x).tolist() == g.gradient(x).tolist()
        with pytest.raises(DimensionError):
            make_quadratic([[1.0]], [1.0, 2.0])

    @pytest.mark.parametrize("sparse", [False, True])
    def test_finite_differences(self, sparse):
        f = random_quadratic(8, 17, sparse=sparse)
        assert_gradient_matches(f, interior_points(8, 20, 3))

    def test_symmetrization_warns_and_matches(self):
        A = np.array([[0.0, 3.0], [1.0, 0.0]])
        with pytest.warns(UserWarning):
            f = make_quadratic(A, np.zeros(2))
        g = make_quadratic((A + A.T) / 2, np.zeros(2))
        x = binary_vector([1, -1])
        assert f.value(x) == g.value(x)

    def test_lipschitz_is_declared_and_valid(self, rng):
        f = random_quadratic(10, 23)
        # empirical ratio ||grad(y)-grad(z)|| / ||y-z|| over random box pairs
        worst = 0.0
        for _ in range(1000):
            y = rng.uniform(-1, 1, 10)
            z = rng.uniform(-1, 1, 10)
            num = np.linalg.norm(f.gradient(y) - f.gradient(z), np.inf)
            den = np.linalg.norm(y - z, np.inf)
            if den > 1e-12:
                worst = max(worst, num / den)
        assert worst <= f.lipschitz + 1e-9

    @pytest.mark.parametrize("sparse", [False, True])
    def test_value_batch_matches_value(self, sparse, rng):
        f = random_quadratic(9, 31, sparse=sparse)
        X = np.where(rng.random((40, 9)) < 0.5, 1.0, -1.0)
        got = f.value_batch(X)
        want = [f.value(row) for row in X]
        assert np.allclose(got, want)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_ones_batch_matches_value(self, sparse, rng):
        # real coefficients sum in another order, so agreement is up to
        # rounding; every +1 count from none to all n
        n = 9
        f = random_quadratic(n, 31, sparse=sparse, diagonal=True)
        for r in range(n + 1):
            ones = np.argsort(rng.random((30, n)), axis=1)[:, :r]
            X = -np.ones((30, n))
            X[np.arange(30)[:, None], ones] = 1.0
            want = [f.value(row) for row in X]
            assert np.allclose(f.ones_batch(ones), want, rtol=1e-12, atol=1e-12), r

    @pytest.mark.parametrize("weights", [[1.0], [0.1, 0.3, 0.7]], ids=["unit", "weighted"])
    def test_ones_batch_on_graphs(self, weights, rng):
        # unit weights keep every partial sum an integer, so the +1-set form
        # is bit-exact there
        n = 60
        u, v = np.triu_indices(n, 1)
        keep = rng.random(len(u)) < 0.2
        g = SparseGraph(n, u[keep], v[keep], rng.choice(weights, int(keep.sum())))
        f, _ = make_dense_subgraph(g, 10)
        for r in (0, 1, 10, n):
            ones = np.argsort(rng.random((40, n)), axis=1)[:, :r]
            X = -np.ones((40, n))
            X[np.arange(40)[:, None], ones] = 1.0
            got = f.ones_batch(ones)
            want = np.array([f.value(row) for row in X])
            if weights == [1.0]:
                assert np.array_equal(got, want), r
            else:
                assert np.allclose(got, want, rtol=1e-12, atol=1e-9), r

    # past the dense-gather limit flips_delta gathers from the sparse
    # matrix itself
    @pytest.mark.parametrize("sparse,n,density", [
        (False, 12, 0.3), (True, 12, 0.3), (True, _DENSE_GATHER_LIMIT + 100, 0.005)],
        ids=["False", "True", "sparse-gather"])
    def test_flips_delta_matches_brute_force(self, sparse, n, density, rng):
        # a nonzero diagonal exercises the x_u^2 * A_uu term of the single-
        # flip deltas; a real x from the box checks the closed form off the
        # vertices; j = 10 is the width of a radius-5 move on the slice
        f = random_quadratic(n, 47, sparse=sparse, density=density, diagonal=True)
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        for x in (signs, rng.uniform(-1.0, 1.0, n)):
            for j in (1, 2, 4, 7, 10):
                flips = np.stack([rng.permutation(n)[:j] for _ in range(30)])
                assert np.allclose(f.flips_delta(x, flips),
                                   brute_flip_delta(f, x, flips), atol=1e-9)

    def test_coefficient_mass(self):
        A = np.array([[1.0, -2.0], [-2.0, 5.0]])
        f = make_quadratic(A, np.array([0.5, -0.25]))
        assert f.coeff_abs_sum == pytest.approx(10.75)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            make_quadratic(np.eye(3), np.zeros(2))


class TestShiftedSeparable:
    def test_minimum_value(self):
        f = make_shifted_separable([0.5, 0.5])
        assert f.value(binary_vector([-1, -1])) == pytest.approx(0.25)
        assert exhaustive_oracle(f).optimum.tolist() == [-1.0, -1.0]

    def test_gradient_at_all_plus(self):
        beta = np.array([0.3, 0.6, 0.9])
        f = make_shifted_separable(beta)
        assert np.allclose(f.gradient(binary_vector([1, 1, 1])), 1.0 + beta)

    def test_single_coordinate_values(self):
        f = make_shifted_separable([0.9])
        assert f.value(binary_vector([1])) == pytest.approx(1.805)
        assert f.value(binary_vector([-1])) == pytest.approx(0.005)

    @pytest.mark.parametrize("bad", [[0.0, 0.5], [0.5, 1.0], [-0.2], [1.7], []])
    def test_domain_validation(self, bad):
        with pytest.raises(DomainError):
            make_shifted_separable(bad)

    def test_declared_constants(self):
        f = make_shifted_separable([0.25, 0.75])
        assert f.lipschitz == 1.0
        assert f.coeff_abs_sum == pytest.approx(2.0)

    def test_finite_differences(self, rng):
        beta = rng.uniform(0.05, 0.95, 7)
        assert_gradient_matches(make_shifted_separable(beta),
                                interior_points(7, 20, 5))

    def test_flips_delta(self, rng):
        beta = rng.uniform(0.05, 0.95, 8)
        f = make_shifted_separable(beta)
        x = np.where(rng.random(8) < 0.5, 1.0, -1.0)
        flips = np.stack([rng.permutation(8)[:2] for _ in range(20)])
        assert np.allclose(f.flips_delta(x, flips),
                           brute_flip_delta(f, x, flips))


def triangle():
    return SparseGraph(3, [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0])


class TestDenseSubgraph:
    def test_triangle_full_selection(self):
        f, c = make_dense_subgraph(triangle(), 3)
        assert c == exact_ones(3)
        y = binary_vector([1, 1, 1])
        # add back the dropped constant to get -4 * x'Wx = -4 * 6
        assert f.value(y) - triangle().total_weight == pytest.approx(-24.0)

    def test_k_zero_unique_feasible(self):
        f, c = make_dense_subgraph(triangle(), 0)
        assert c == exact_ones(0)
        y = binary_vector([-1, -1, -1])
        assert constraint_check(y, c)
        assert f.value(y) - triangle().total_weight == pytest.approx(0.0)

    def test_identity_with_indicator_form(self, rng):
        g = SparseGraph(7, [0, 0, 1, 2, 4], [1, 3, 2, 5, 6],
                        [1.0, 2.0, 0.5, 1.5, 3.0])
        f, c = make_dense_subgraph(g, 3)
        W = g.matrix().toarray()
        for sel in itertools.combinations(range(7), 3):
            y = -np.ones(7)
            y[list(sel)] = 1.0
            x = (y + 1.0) / 2.0
            assert f.value(y) - g.total_weight == pytest.approx(
                -4.0 * x @ W @ x)

    def test_k_validation(self):
        with pytest.raises(DomainError):
            make_dense_subgraph(triangle(), 4)
        with pytest.raises(DomainError):
            make_dense_subgraph(triangle(), -1)

    def test_finite_differences(self):
        g = SparseGraph(6, [0, 1, 2, 0], [1, 2, 3, 5], [1.0, 2.0, 1.0, 0.5])
        f, _ = make_dense_subgraph(g, 2)
        assert_gradient_matches(f, interior_points(6, 20, 9))

    def test_name(self):
        f, _ = make_dense_subgraph(triangle(), 1)
        assert f.name == "dense-subgraph"

    @pytest.mark.parametrize("n", [40, _DENSE_GATHER_LIMIT + 1])
    def test_graph_matrix_taken_as_symmetric(self, n, monkeypatch):
        # SparseGraph.matrix mirrors each edge exactly, so the objective
        # skips make_quadratic's symmetry check (a transpose of W) and is
        # the objective make_quadratic builds
        g, _ = planted_partition(n, 10, 0.7, 10.0 / n, seed=n)
        g = SparseGraph(n, g.u, g.v, np.arange(1, g.edge_count + 1) * 0.1)
        want = make_quadratic(-g.matrix(), -2.0 * g.degrees())
        monkeypatch.setattr(objectives, "_symmetrized", None)
        f, _ = make_dense_subgraph(g, 10)
        assert f.lipschitz == want.lipschitz
        rng = np.random.default_rng(n)
        x = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        flips = np.argsort(rng.random((50, n)), axis=1)[:, :4]
        assert f.value(x) == want.value(x)
        assert f.gradient(x).tobytes() == want.gradient(x).tobytes()
        assert f.flips_delta(x, flips).tobytes() == want.flips_delta(x, flips).tobytes()

    def test_pair_table_memory_at_limit(self):
        # unit weights at the dense-gather limit: the int8 pair table (4 MiB)
        # is written straight from the CSR coordinates; a float64 toarray()
        # on the way would alone read 32 MiB
        n = _DENSE_GATHER_LIMIT
        rng = np.random.default_rng(4)
        a, b = rng.integers(0, n, 20 * n), rng.integers(0, n, 20 * n)
        key = np.unique(np.minimum(a, b)[a != b] * n + np.maximum(a, b)[a != b])
        g = SparseGraph(n, key // n, key % n, np.ones(len(key)))
        peak = peak_bytes(make_dense_subgraph, g, 40)
        assert n * n <= peak < 8 * (1 << 20)


class TestHashingObjective:
    def test_exact_fit_zero_gradient(self, rng):
        B = np.where(rng.random((6, 3)) < 0.5, 1.0, -1.0)
        W = rng.standard_normal((3, 2))
        problem = HashingProblem(Y=B @ W, lam=0.0, r=3)
        f = make_hashing_objective(problem, W)
        assert np.allclose(f.gradient(B.ravel()), 0.0)
        assert f.value(B.ravel()) == pytest.approx(0.0)

    def test_scalar_hand_case(self):
        problem = HashingProblem(Y=np.array([[0.0]]), lam=0.0, r=1)
        f = make_hashing_objective(problem, np.array([[2.0]]))
        b = binary_vector([1])
        assert f.value(b) == pytest.approx(2.0)
        assert f.gradient(b).tolist() == [4.0]

    def test_penalty_constant(self):
        problem = HashingProblem(Y=np.zeros((2, 2)), lam=3.0, r=1)
        W = np.array([[1.0, 2.0]])
        f = make_hashing_objective(problem, W)
        b = binary_vector([1, -1])
        # residual 1/2*(1+4+1+4) plus lam/2 * ||W||^2
        assert f.value(b) == pytest.approx(5.0 + 7.5)

    def test_dimension_mismatch_names_axes(self):
        problem = HashingProblem(Y=np.zeros((4, 3)), lam=0.0, r=2)
        with pytest.raises(DimensionError, match="W is"):
            make_hashing_objective(problem, np.zeros((3, 3)))

    def test_finite_differences(self, rng):
        Y = rng.standard_normal((5, 3))
        W = rng.standard_normal((2, 3))
        f = make_hashing_objective(HashingProblem(Y=Y, lam=0.7, r=2), W)
        assert_gradient_matches(f, interior_points(10, 20, 13))

    def test_row_major_layout(self, rng):
        Y = rng.standard_normal((4, 2))
        W = rng.standard_normal((3, 2))
        f = make_hashing_objective(HashingProblem(Y=Y, lam=0.0, r=3), W)
        B = np.where(rng.random((4, 3)) < 0.5, 1.0, -1.0)
        direct = 0.5 * np.sum((Y - B @ W) ** 2)
        assert f.value(B.ravel()) == pytest.approx(direct)
        assert f.dimension == 12

    def test_lipschitz_bounds_gradient_jumps(self, rng):
        Y = rng.standard_normal((6, 4))
        W = rng.standard_normal((3, 4))
        f = make_hashing_objective(HashingProblem(Y=Y, lam=0.0, r=3), W)
        worst = 0.0
        for _ in range(500):
            y = rng.uniform(-1, 1, 18)
            z = rng.uniform(-1, 1, 18)
            num = np.linalg.norm(f.gradient(y) - f.gradient(z), np.inf)
            den = np.linalg.norm(y - z, np.inf)
            if den > 1e-12:
                worst = max(worst, num / den)
        assert worst <= f.lipschitz + 1e-9


class TestAffinityObjective:
    def test_exact_fit(self):
        B = np.array([[1.0], [-1.0]])
        f = make_affinity_objective(AffinityProblem(S=B @ B.T, scale=1.0))
        assert f.value(B.ravel()) == pytest.approx(0.0)
        assert np.allclose(f.gradient(B.ravel()), 0.0)

    def test_identity_target_hand_case(self):
        f = make_affinity_objective(AffinityProblem(S=np.eye(2), scale=1.0))
        assert f.value(binary_vector([1, -1])) == pytest.approx(2.0)

    def test_r_inference_and_override(self):
        S = np.eye(3)
        assert make_affinity_objective(AffinityProblem(S=S, scale=4.0)).dimension == 12
        assert make_affinity_objective(AffinityProblem(S=S, scale=2.5), r=2).dimension == 6
        with pytest.raises(DomainError):
            make_affinity_objective(AffinityProblem(S=S, scale=2.5))

    def test_asymmetric_target_warns(self):
        S = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.warns(UserWarning):
            make_affinity_objective(AffinityProblem(S=S, scale=1.0))

    def test_finite_differences(self, rng):
        S = rng.standard_normal((4, 4))
        S = (S + S.T) / 2
        f = make_affinity_objective(AffinityProblem(S=S, scale=2.0))
        assert_gradient_matches(f, interior_points(8, 20, 21))


class TestTraceLossEquivalence:
    def test_columnwise_quadratic_decomposition(self, rng):
        # Tr(B'LB) over a graph Laplacian splits into one quadratic per
        # code column
        g = SparseGraph(6, [0, 0, 1, 2, 3, 4], [1, 2, 3, 4, 5, 5],
                        [1.0, 2.0, 1.0, 1.0, 3.0, 1.0])
        W = g.matrix().toarray()
        L = np.diag(W.sum(axis=1)) - W
        per_column = make_quadratic(L, np.zeros(6))
        for _ in range(10):
            B = np.where(rng.random((6, 4)) < 0.5, 1.0, -1.0)
            total = float(np.trace(B.T @ L @ B))
            split = sum(per_column.value(B[:, t]) for t in range(4))
            assert split == pytest.approx(total)
