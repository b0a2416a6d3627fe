"""Domain-type behaviors: signs, distances, constraints, feasible sampling."""
import itertools
import math

import numpy as np
import pytest

import dpcd
from dpcd import (DimensionError, DomainError, NumericError, UNCONSTRAINED,
                  binary_vector, constraint_check, exact_ones,
                  hamming_distance, random_feasible, sign, signs)
from dpcd.core import (_best_of_blocks, _flipped, _is_sign_array, _sign_vector,
                       feasible_point)

from conftest import peak_bytes


class TestSign:
    def test_zero_is_positive(self):
        assert sign(0.0) == 1

    def test_negative(self):
        assert sign(-3.2) == -1

    def test_tiny_positive(self):
        assert sign(1e-300) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericError):
            sign(bad)

    def test_vectorized_agrees_with_scalar(self, rng):
        v = rng.standard_normal(64)
        v[::7] = 0.0
        s = signs(v)
        assert s.tolist() == [sign(t) for t in v]

    def test_vectorized_non_finite(self):
        with pytest.raises(NumericError):
            signs(np.array([1.0, np.nan]))


class TestBinaryVector:
    def test_accepts_signs(self):
        x = binary_vector([1, -1, 1])
        assert x.dtype == np.float64
        assert not x.flags.writeable

    def test_rejects_interior_values(self):
        with pytest.raises(DomainError):
            binary_vector([1.0, 0.5])

    def test_rejects_empty_and_matrix(self):
        with pytest.raises(DomainError):
            binary_vector([])
        with pytest.raises(DomainError):
            binary_vector([[1.0, -1.0]])


class TestHamming:
    def test_identity(self):
        a = binary_vector([1, -1, 1, 1])
        assert hamming_distance(a, a) == 0

    def test_single_flip(self):
        assert hamming_distance(binary_vector([1, -1, 1, 1]),
                                binary_vector([-1, -1, 1, 1])) == 1

    def test_full_flip(self):
        assert hamming_distance(binary_vector([1, 1]),
                                binary_vector([-1, -1])) == 2

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance(binary_vector([1, 1]), binary_vector([1, 1, 1]))

    def test_metric_axioms_exhaustive(self):
        # symmetry, identity of indiscernibles, triangle inequality on all
        # sign vectors up to n=4
        for n in range(1, 5):
            cube = [np.array(b, dtype=float)
                    for b in itertools.product((-1.0, 1.0), repeat=n)]
            for a in cube:
                for b in cube:
                    d = hamming_distance(a, b)
                    assert d == hamming_distance(b, a)
                    assert (d == 0) == np.array_equal(a, b)
                    for c in cube:
                        assert d <= (hamming_distance(a, c)
                                     + hamming_distance(c, b))


class TestConstraints:
    def test_count_matches(self):
        x = binary_vector([1, -1, 1, 1])
        assert constraint_check(x, exact_ones(3)) is True
        assert constraint_check(x, exact_ones(2)) is False

    def test_unconstrained_always_true(self):
        assert constraint_check(binary_vector([-1, -1]), UNCONSTRAINED) is True

    def test_r_above_n_rejected(self):
        with pytest.raises(DomainError):
            constraint_check(binary_vector([1, -1]), exact_ones(3))

    def test_negative_r_rejected_at_construction(self):
        with pytest.raises(DomainError):
            exact_ones(-1)


class TestFeasiblePoint:
    def test_float_array_is_not_copied(self):
        x = np.array([1.0, -1.0, 1.0])
        assert feasible_point(x, 3, exact_ones(2)) is x

    def test_list_becomes_float_array(self):
        x = feasible_point([1, -1], 2, UNCONSTRAINED)
        assert x.dtype == np.float64 and x.tolist() == [1.0, -1.0]

    @pytest.mark.parametrize("x,error", [
        (np.ones(4), DimensionError),
        (np.ones((1, 3)), DimensionError),
        (np.array([1.0, 0.5, -1.0]), DomainError),
        (np.array([1.0, 0.0, -1.0]), DomainError),
        (np.array([1.0, 1.0, 1.0]), DomainError),  # three +1, not two
    ])
    def test_rejections(self, x, error):
        with pytest.raises(error):
            feasible_point(x, 3, exact_ones(2))


class TestRandomFeasible:
    def test_exact_ones_count(self):
        x = random_feasible(4, exact_ones(2), seed=7)
        assert constraint_check(x, exact_ones(2))

    def test_unique_feasible_point(self):
        x = random_feasible(1, exact_ones(0), seed=0)
        assert x.tolist() == [-1.0]

    def test_deterministic(self):
        a = random_feasible(12, exact_ones(5), seed=33)
        b = random_feasible(12, exact_ones(5), seed=33)
        assert np.array_equal(a, b)

    def test_infeasible_spec(self):
        with pytest.raises(DomainError):
            random_feasible(3, exact_ones(4), seed=0)

    def test_every_sample_feasible(self):
        c = exact_ones(3)
        for s in range(1000):
            assert constraint_check(random_feasible(8, c, seed=s), c)

    @pytest.mark.parametrize("n,r", [(4, 2), (6, 3), (5, 1)])
    def test_support_coverage(self, n, r):
        # over 1000 seeds every r-subset must occur for small n
        seen = set()
        for s in range(1000):
            x = random_feasible(n, exact_ones(r), seed=s)
            seen.add(tuple(np.nonzero(x > 0)[0].tolist()))
        assert len(seen) == math.comb(n, r)

    def test_unconstrained_hits_both_signs(self):
        xs = np.stack([random_feasible(6, UNCONSTRAINED, seed=s)
                       for s in range(200)])
        assert (xs == 1.0).any(axis=0).all()
        assert (xs == -1.0).any(axis=0).all()


class TestSeeds:
    """One seed check (core.check_seed) for every seeded entry point."""

    @staticmethod
    def calls(seed):
        f = dpcd.make_quadratic(np.eye(3), np.ones(3))
        X = np.arange(12.0).reshape(6, 2)
        Y = np.eye(2)[[0, 1, 0, 1, 0, 1]]
        return {
            "sgm_solve": lambda: dpcd.sgm_solve(f, seed=seed),
            "random_search": lambda: dpcd.random_search(f, UNCONSTRAINED, 5, seed=seed),
            "alternating_hash": lambda: dpcd.alternating_hash(X, Y, 2, seed=seed),
            "random_feasible": lambda: random_feasible(3, UNCONSTRAINED, seed),
            "SolverConfig": lambda: dpcd.SolverConfig(seed=seed),
        }

    @pytest.mark.parametrize("name", ["sgm_solve", "random_search", "alternating_hash",
                                      "random_feasible", "SolverConfig"])
    def test_negative_seed_is_a_domain_error(self, name):
        # the first three used to raise numpy's ValueError
        for seed in (-1, np.int64(-3)):
            with pytest.raises(DomainError, match=f"seed must be >= 0, got {seed}"):
                self.calls(seed)[name]()

    @pytest.mark.parametrize("name", ["sgm_solve", "random_search", "alternating_hash",
                                      "random_feasible"])
    def test_generator_seed_accepted(self, name):
        self.calls(np.random.default_rng(1))[name]()


class TestBestOfBlocks:
    # rows are (score, id) pairs scored by their first entry
    @staticmethod
    def score(X):
        return X[:, 0]

    def test_first_strict_minimum_across_blocks(self):
        blocks = [np.array([[2.0, 0], [1.0, 1]]), np.array([[1.0, 2], [3.0, 3]])]
        row, best, worst, count = _best_of_blocks(self.score, iter(blocks))
        assert row.tolist() == [1.0, 1] and not row.flags.writeable
        assert (best, worst, count) == (1.0, 3.0, 4)

    def test_nothing_below_the_bar(self):
        blocks = [np.array([[0.0, 0], [2.0, 1]])]
        assert _best_of_blocks(self.score, iter(blocks), 0.0) == (None, 0.0, 2.0, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_score_raises(self, bad):
        blocks = [np.array([[1.0, 0]]), np.array([[bad, 1], [0.0, 2]])]
        with pytest.raises(NumericError):
            _best_of_blocks(self.score, iter(blocks))


def test_flipped_is_a_read_only_copy():
    x = binary_vector([1, -1, 1])
    y = _flipped(x, [0, 1])
    assert y.tolist() == [-1, 1, 1] and not y.flags.writeable
    assert x.tolist() == [1, -1, 1]


_PARAMETER_SITES = {
    "alpha1": lambda v: dpcd.SolverConfig(alpha1=v),
    "alpha2": lambda v: dpcd.SolverConfig(alpha2=v),
    "epsilon": lambda v: dpcd.ThresholdPolicy(epsilon=v),
    "lipschitz": lambda v: dpcd.Objective(dimension=1, value=abs, gradient=abs, lipschitz=v),
    "lam": lambda v: dpcd.HashingProblem(Y=np.eye(2), lam=v, r=1),
    "solve_w": lambda v: dpcd.hashing.solve_w(np.ones((2, 1)), np.eye(2), v),
    "ridge": lambda v: dpcd.hashing.solve_projection(np.eye(2), np.ones((2, 1)), v),
    "beta": lambda v: dpcd.make_shifted_separable([0.5, v]),
}


@pytest.mark.parametrize("site", sorted(_PARAMETER_SITES))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_parameter_is_a_domain_error(site, bad):
    with pytest.raises(DomainError):
        _PARAMETER_SITES[site](bad)


def test_negative_seed_is_a_domain_error():
    with pytest.raises(DomainError, match="seed must be >= 0"):
        dpcd.SolverConfig(seed=-1)


@pytest.mark.parametrize("positive", [
    np.array([True, False, True]), np.array([1, 0, 1]),
])
def test_sign_vector(positive):
    x = _sign_vector(positive)
    assert x.tolist() == [1.0, -1.0, 1.0] and x.dtype == float
    assert not x.flags.writeable


@pytest.mark.parametrize("entry,sign_entry", [
    (1.0, True), (-1.0, True), (1, True), (0.0, False), (-0.0, False), (0.5, False),
    (-2.0, False), (np.nan, False), (np.inf, False), (-np.inf, False),
])
def test_sign_array_rule(entry, sign_entry):
    # the same answer as the float test it replaces, |a| == 1 everywhere
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    a[1, 0] = entry
    assert _is_sign_array(a) is sign_entry
    assert _is_sign_array(a) == bool(np.all(np.abs(a) == 1.0))


def test_sign_array_rule_allocates_no_float_copy():
    a = np.where(np.random.default_rng(2).random(1 << 16) < 0.5, 1.0, -1.0)
    assert peak_bytes(_is_sign_array, a) < a.nbytes / 2
    assert peak_bytes(feasible_point, a, len(a), UNCONSTRAINED) < a.nbytes / 2
