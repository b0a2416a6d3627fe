"""Solver mechanics: thresholds, principal sets, flips, local search, loop."""
import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpcd import (GRADIENT_AVERAGE, LIPSCHITZ, AffinityProblem, BoundUnavailableError,
                  DimensionError, DomainError, HashingProblem, NEIGHBORHOOD_CAP,
                  NumericError, Objective, PrincipalSets, SolverConfig, ThresholdPolicy,
                  UNCONSTRAINED, alternating_hash, balanced_flip, binary_vector,
                  constraint_check, derive_thresholds, dpcd_solve, effective_epsilon,
                  enumerate_neighborhood, exact_ones, exhaustive_oracle,
                  hamming_distance, make_affinity_objective, make_hashing_objective,
                  make_quadratic, make_shifted_separable,
                  neighborhood_search, neighborhood_size, principal_sets,
                  random_feasible, random_search, sgm_solve, step_bound,
                  unconstrained_flip)

from dpcd import hashing, solver
from dpcd.solver import _distinct_rows

from conftest import random_quadratic


class TestThresholds:
    def test_policy_validation(self):
        with pytest.raises(DomainError):
            ThresholdPolicy(mode="median")
        with pytest.raises(DomainError):
            ThresholdPolicy(epsilon=0.0)
        with pytest.raises(DomainError):
            ThresholdPolicy(epsilon=-1.0)

    def test_lipschitz_level(self):
        l1, l2 = derive_thresholds([0.0], ThresholdPolicy(epsilon=0.5), lipschitz=1.0)
        assert (l1, l2) == (1.5, 1.5)

    def test_average_hand_case(self):
        l1, l2 = derive_thresholds([2.0, -4.0, 6.0, -2.0],
                                   ThresholdPolicy(mode=GRADIENT_AVERAGE))
        assert (l1, l2) == (4.0, 3.0)

    def test_average_one_sided(self):
        l1, l2 = derive_thresholds([1.0, 3.0], ThresholdPolicy(mode=GRADIENT_AVERAGE))
        assert l1 == 2.0
        assert l2 is None
        l1, l2 = derive_thresholds([0.0, 0.0], ThresholdPolicy(mode=GRADIENT_AVERAGE))
        assert l1 is None and l2 is None

    def test_average_bit_identical_to_masked_means(self):
        # long enough that pairwise summation splits into blocks, so the
        # summation order of each side is pinned, not only its value
        rng = np.random.default_rng(20261018)
        g = rng.standard_normal(100_000)
        g[rng.choice(g.size, 500, replace=False)] = 0.0
        policy = ThresholdPolicy(mode=GRADIENT_AVERAGE)
        l1, l2 = derive_thresholds(g, policy)
        assert l1 == float(g[g > 0].mean())
        assert l2 == float(-g[g < 0].mean())
        l1, l2 = derive_thresholds(np.abs(g), policy)
        assert l1 == float(np.abs(g)[g != 0].mean()) and l2 is None
        l1, l2 = derive_thresholds(-np.abs(g), policy)
        assert l1 is None and l2 == float(np.abs(g)[g != 0].mean())

    def test_lipschitz_requires_l0(self):
        with pytest.raises(DomainError):
            derive_thresholds([1.0], ThresholdPolicy())

    def test_non_finite_gradient(self):
        with pytest.raises(NumericError):
            derive_thresholds([np.inf], ThresholdPolicy(), lipschitz=1.0)

    def test_default_epsilon_scales_with_l0(self):
        p = ThresholdPolicy()
        assert effective_epsilon(p, 1.0) == pytest.approx(1e-6)
        assert effective_epsilon(p, 1e3) == pytest.approx(1e-3)


@pytest.mark.usefixtures("threaded_spans")
class TestThresholdsThreaded(TestThresholds):
    """TestThresholds again, on spans of 16 entries over two or more workers."""


class TestPrincipalSets:
    def test_separable_all_plus_thresholds(self):
        beta = np.array([0.4, 0.8, 0.31])
        x = binary_vector([1, 1, 1])
        g = x + beta
        sets = principal_sets(x, g, 1.3, 1.3, 1.0, 1.0)
        assert sets.s_plus.tolist() == [0, 1, 2]
        assert sets.s_minus.size == 0

    def test_average_hand_case(self):
        x = binary_vector([1, 1, -1, -1])
        g = np.array([5.0, 0.1, -4.0, 0.2])
        l1, l2 = derive_thresholds(g, ThresholdPolicy(mode=GRADIENT_AVERAGE))
        assert l1 == pytest.approx((5 + 0.1 + 0.2) / 3)
        assert l2 == pytest.approx(4.0)
        sets = principal_sets(x, g, l1, l2, 1.0, 1.0)
        assert sets.s_plus.tolist() == [0]
        # -4 < -4 fails strictly, so the minus side stays empty
        assert sets.s_minus.size == 0

    def test_zero_gradient(self):
        x = binary_vector([1, -1])
        l1, l2 = derive_thresholds(np.zeros(2), ThresholdPolicy(mode=GRADIENT_AVERAGE))
        sets = principal_sets(x, np.zeros(2), l1, l2, 1.0, 1.0)
        assert sets.s_plus.size == 0 and sets.s_minus.size == 0

    def test_membership_and_disjointness(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            x = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            g = rng.standard_normal(n) * 3
            sets = principal_sets(x, g, 1.0, 1.0, 1.0, 1.0)
            assert np.all(x[sets.s_plus] == 1.0)
            assert np.all(g[sets.s_plus] > 1.0)
            assert np.all(x[sets.s_minus] == -1.0)
            assert np.all(g[sets.s_minus] < -1.0)
            assert not set(sets.s_plus.tolist()) & set(sets.s_minus.tolist())


class TestFlips:
    def test_unconstrained_all_plus_to_all_minus(self):
        x = binary_vector([1, 1, 1])
        sets = PrincipalSets(np.arange(3), np.empty(0, dtype=np.intp))
        assert unconstrained_flip(x, sets).tolist() == [-1, -1, -1]

    def test_unconstrained_empty_sets(self):
        x = binary_vector([1, -1])
        sets = PrincipalSets(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        assert unconstrained_flip(x, sets).tolist() == [1, -1]

    def test_unconstrained_both_sides(self):
        x = binary_vector([1, -1])
        sets = PrincipalSets(np.array([0]), np.array([1]))
        assert unconstrained_flip(x, sets).tolist() == [-1, 1]

    def test_balanced_hand_case(self):
        x = binary_vector([1, 1, -1, -1])
        g = np.array([5.0, 3.0, -4.0, -0.01])
        sets = PrincipalSets(np.array([0, 1]), np.array([2]))
        out = balanced_flip(x, g, sets)
        assert out.tolist() == [-1, 1, 1, -1]
        assert out.sum() == x.sum()

    def test_balanced_empty_side_is_identity(self):
        x = binary_vector([1, 1, -1, -1])
        sets = PrincipalSets(np.array([0, 1]), np.empty(0, dtype=np.intp))
        assert balanced_flip(x, np.ones(4), sets) is x

    def test_balanced_tie_prefers_lower_index(self):
        x = binary_vector([1, 1, 1, -1])
        g = np.array([2.0, 2.0, 2.0, -9.0])
        sets = PrincipalSets(np.array([1, 2]), np.array([3]))
        out = balanced_flip(x, g, sets)
        assert out.tolist() == [1, -1, 1, 1]

    def test_balanced_preserves_count_randomized(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 40))
            r = int(rng.integers(1, n))
            x = random_feasible(n, exact_ones(r), rng)
            g = rng.standard_normal(n) * 2
            sets = principal_sets(x, g, 0.5, 0.5, 1.0, 1.0)
            out = balanced_flip(x, g, sets)
            assert constraint_check(out, exact_ones(r))


class TestNeighborhoodEnumeration:
    def test_unconstrained_radius_one(self):
        x = binary_vector([1, -1, 1, 1])
        got = {tuple(v) for v in enumerate_neighborhood(x, UNCONSTRAINED, 1)}
        assert got == {(-1, -1, 1, 1), (1, 1, 1, 1), (1, -1, -1, 1), (1, -1, 1, -1)}

    def test_exact_ones_radius_one(self):
        x = binary_vector([1, -1, 1, 1])
        got = {tuple(v) for v in enumerate_neighborhood(x, exact_ones(3), 1)}
        assert got == {(-1, 1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1)}

    @pytest.mark.parametrize("n,m", [(4, 1), (5, 2), (6, 3), (6, 6)])
    def test_size_matches_enumeration_unconstrained(self, n, m):
        x = binary_vector([1.0] * n)
        neighbors = list(enumerate_neighborhood(x, UNCONSTRAINED, m))
        assert len(neighbors) == neighborhood_size(x, UNCONSTRAINED, m)
        assert len({tuple(v) for v in neighbors}) == len(neighbors)

    @pytest.mark.parametrize("n,r,m", [(4, 2, 1), (6, 3, 2), (7, 2, 3)])
    def test_size_matches_enumeration_exact_ones(self, n, r, m):
        x = random_feasible(n, exact_ones(r), seed=5)
        c = exact_ones(r)
        neighbors = list(enumerate_neighborhood(x, c, m))
        assert len(neighbors) == neighborhood_size(x, c, m)
        for v in neighbors:
            assert constraint_check(v, c)


    def test_enumeration_order(self):
        # radius by radius, and on the slice drop-major: the search keeps
        # the first of equally good neighbors, so this order is part of
        # the seeded output
        x = random_feasible(7, exact_ones(3), seed=2)
        plus, minus = np.nonzero(x > 0)[0], np.nonzero(x < 0)[0]
        want = []
        for j in (1, 2):
            for drop in itertools.combinations(plus, j):
                for add in itertools.combinations(minus, j):
                    y = np.array(x)
                    y[list(drop + add)] *= -1.0
                    want.append(tuple(y))
        got = [tuple(v) for v in enumerate_neighborhood(x, exact_ones(3), 2)]
        assert got == want
        cube = [tuple(v) for v in enumerate_neighborhood(x, UNCONSTRAINED, 2)]
        assert cube[:7] == [tuple(x * np.where(np.arange(7) == i, -1.0, 1.0))
                            for i in range(7)]
        assert cube[7] == tuple(x * np.array([-1, -1, 1, 1, 1, 1, 1.0]))


class TestNeighborhoodSearch:
    def test_never_worse_and_feasible(self, rng):
        for trial in range(20):
            f = random_quadratic(10, trial)
            c = exact_ones(4)
            x = random_feasible(10, c, seed=trial)
            y = neighborhood_search(x, f, c, m=2, seed=trial)
            assert f.value(y) <= f.value(x)
            assert constraint_check(y, c)

    def test_exhaustive_finds_best_neighbor(self):
        f = random_quadratic(12, 3)
        x = random_feasible(12, UNCONSTRAINED, seed=9)
        y = neighborhood_search(x, f, UNCONSTRAINED, m=3)
        best = min(enumerate_neighborhood(x, UNCONSTRAINED, 3), key=f.value)
        assert f.value(y) == pytest.approx(min(f.value(best), f.value(x)))

    def test_tie_returns_incumbent(self):
        flat = Objective(dimension=6, value=lambda x: 0.0,
                         gradient=lambda x: np.zeros(6))
        x = binary_vector([1, -1, 1, -1, 1, -1])
        y = neighborhood_search(x, flat, UNCONSTRAINED, m=2)
        assert y is x

    def test_local_minimum_returns_x(self):
        f = random_quadratic(8, 11)
        best = exhaustive_oracle(f).optimum
        y = neighborhood_search(best, f, UNCONSTRAINED, m=8)
        assert np.array_equal(y, best)

    def test_radius_validation(self):
        f = random_quadratic(4, 0)
        x = binary_vector([1, 1, -1, -1])
        with pytest.raises(DomainError):
            neighborhood_search(x, f, UNCONSTRAINED, m=0)

    def test_infeasible_point_rejected(self):
        f = random_quadratic(4, 0)
        x = binary_vector([1, 1, 1, -1])
        with pytest.raises(DomainError):
            neighborhood_search(x, f, exact_ones(2), m=1)

    def test_sampled_mode_deterministic(self):
        # radius-5 ball around a 40-point is ~760k neighbors, beyond the cap
        f = random_quadratic(40, 21)
        x = random_feasible(40, UNCONSTRAINED, seed=2)
        assert neighborhood_size(x, UNCONSTRAINED, 5) > NEIGHBORHOOD_CAP
        a = neighborhood_search(x, f, UNCONSTRAINED, m=5, budget=500, seed=77)
        b = neighborhood_search(x, f, UNCONSTRAINED, m=5, budget=500, seed=77)
        assert np.array_equal(a, b)
        assert f.value(a) <= f.value(x)

    def test_sampled_mode_exact_ones_feasible(self):
        f = random_quadratic(60, 4)
        c = exact_ones(30)
        x = random_feasible(60, c, seed=1)
        assert neighborhood_size(x, c, 5) > NEIGHBORHOOD_CAP
        y = neighborhood_search(x, f, c, m=5, budget=300, seed=5)
        assert constraint_check(y, c)
        assert f.value(y) <= f.value(x)

    @pytest.mark.parametrize("x,error", [
        (np.full(5, 0.5), DomainError),
        (np.ones(4), DimensionError),
    ])
    def test_point_checked(self, x, error):
        # a box point used to come back as [0.5 ... -0.5], a short one as a
        # numpy broadcast error
        with pytest.raises(error):
            neighborhood_search(x, random_quadratic(5, 0), UNCONSTRAINED, m=1)

    def test_budget_validation(self):
        f = random_quadratic(4, 0)
        x = binary_vector([1, 1, -1, -1])
        with pytest.raises(DomainError):
            neighborhood_search(x, f, UNCONSTRAINED, m=1, budget=0)
        with pytest.raises(DomainError):
            SolverConfig(neighborhood_budget=0)


def nan_left_objective(n: int = 4) -> Objective:
    # sum(x), but NaN wherever x[0] = -1, with no fast fields: from
    # ones(n) the deltas read [nan, -2, ..., -2]
    return Objective(dimension=n, lipschitz=1.0, gradient=lambda x: np.zeros(n),
                     value=lambda x: float(np.sum(x)) if x[0] > 0 else np.nan)


class TestCandidateScan:
    # the local search picks its move with the baselines' scan

    def test_non_finite_delta_raises_exhaustive(self):
        f = nan_left_objective()
        with pytest.raises(NumericError, match="non-finite"):
            neighborhood_search(np.ones(4), f, UNCONSTRAINED, 1)

    def test_non_finite_delta_raises_sampled(self, monkeypatch):
        monkeypatch.setattr(solver, "NEIGHBORHOOD_CAP", 0)
        f = nan_left_objective()
        with pytest.raises(NumericError, match="non-finite"):
            neighborhood_search(np.ones(4), f, UNCONSTRAINED, 1, budget=50)

    def test_non_finite_delta_raises_in_solve(self):
        # a zero gradient flips nothing, so the first iteration searches
        f = nan_left_objective()
        with pytest.raises(NumericError, match="non-finite"):
            dpcd_solve(f, UNCONSTRAINED, SolverConfig(), initial_point=np.ones(4))

    def test_tie_across_blocks_keeps_first_block(self, monkeypatch):
        # flipping entry 3 or 4 gains the same 6; with two-row blocks they
        # sit in the second and the third block
        monkeypatch.setattr(solver, "_EVAL_CHUNK", 2)
        assert len(list(solver._exhaustive_blocks([np.arange(6)], 1))) == 3
        f = make_quadratic(np.zeros((6, 6)), np.array([0.0, 1.0, 0.0, 3.0, 3.0, 2.0]), 0.0)
        y = neighborhood_search(np.ones(6), f, UNCONSTRAINED, 1)
        assert y.tolist() == [1, 1, 1, -1, 1, 1]


class TestDistinctRows:
    """The sampled-move draw: uniform j-subsets of a pool, without retries."""

    @pytest.mark.parametrize("size,j", [(9, 1), (5, 5), (6, 5), (40, 5), (2, 1)],
                             ids=["j=1", "pool=j", "pool=j+1", "wide", "pair"])
    def test_rows_distinct_and_from_pool(self, size, j):
        pool = np.arange(size) * 3 + 7
        rows = _distinct_rows(np.random.default_rng(4), pool, j, 2000)
        assert rows.shape == (2000, j)
        assert np.isin(rows, pool).all()
        assert (np.diff(np.sort(rows, axis=1), axis=1) > 0).all()

    def test_uniform_over_subsets(self):
        # 20 subsets of a 6-pool, 3000 expected each; binomial sigma ~53
        rows = _distinct_rows(np.random.default_rng(20261018), np.arange(6), 3, 60000)
        subsets, counts = np.unique(np.sort(rows, axis=1), axis=0, return_counts=True)
        assert len(subsets) == 20
        sigma = np.sqrt(60000 * (1 / 20) * (19 / 20))
        assert np.all(np.abs(counts - 3000) < 5 * sigma)

    def test_single_draw_stream(self):
        pool = np.arange(11) + 100
        rng, ref = np.random.default_rng(9), np.random.default_rng(9)
        rows = _distinct_rows(rng, pool, 1, 500)
        assert np.array_equal(rows[:, 0], pool[ref.integers(0, 11, 500)])
        assert rng.random() == ref.random()


class TestEvaluationFallback:
    """An Objective with value only scores candidates like the fast fields."""

    N = 30

    @pytest.fixture
    def pair(self):
        fast = random_quadratic(self.N, 8)
        bare = Objective(dimension=self.N, value=fast.value,
                         gradient=fast.gradient, lipschitz=fast.lipschitz)
        return fast, bare

    def test_values_and_deltas_match_fast_fields(self, pair, rng):
        fast, bare = pair
        X = np.where(rng.random((40, self.N)) < 0.5, 1.0, -1.0)
        assert np.allclose(bare.values(X), fast.value_batch(X))
        for j in (1, 3):
            flips = np.stack([rng.permutation(self.N)[:j] for _ in range(25)])
            assert np.allclose(bare.deltas(X[0], flips), fast.flips_delta(X[0], flips))

    def test_values_on_ones_expands_rows(self, pair, rng):
        # without ones_batch, the +1 index rows are scored as sign rows
        fast, bare = pair
        for r in (0, 7, self.N):
            ones = np.argsort(rng.random((25, self.N)), axis=1)[:, :r]
            X = -np.ones((25, self.N))
            X[np.arange(25)[:, None], ones] = 1.0
            for f in (bare, dataclasses.replace(fast, ones_batch=None)):
                assert np.array_equal(f.values_on_ones(ones), f.values(X)), r
            assert np.allclose(fast.values_on_ones(ones), fast.value_batch(X)), r

    @pytest.mark.parametrize("m,sampled", [(2, False), (5, True)])
    @pytest.mark.parametrize("c", [UNCONSTRAINED, exact_ones(12)], ids=["cube", "slice"])
    def test_neighborhood_search_agrees(self, pair, c, m, sampled):
        fast, bare = pair
        x = random_feasible(self.N, c, seed=3)
        assert (neighborhood_size(x, c, m) > NEIGHBORHOOD_CAP) == sampled
        a = neighborhood_search(x, fast, c, m, budget=2000, seed=11)
        b = neighborhood_search(x, bare, c, m, budget=2000, seed=11)
        assert not np.array_equal(a, x)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("c", [UNCONSTRAINED, exact_ones(12)], ids=["cube", "slice"])
    def test_random_search_agrees(self, pair, c):
        fast, bare = pair
        a = random_search(fast, c, 500, seed=4)
        b = random_search(bare, c, 500, seed=4)
        assert np.array_equal(a.optimum, b.optimum)
        assert a.optimal_value == pytest.approx(b.optimal_value)


class TestSolveLoop:
    def test_separable_one_principal_update(self, rng):
        for trial in range(5):
            n = int(rng.integers(2, 40))
            beta = rng.uniform(0.05, 0.95, size=n)
            f = make_shifted_separable(beta)
            x0 = random_feasible(n, UNCONSTRAINED, rng)
            eps = 0.9 * float(beta.min())
            cfg = SolverConfig(threshold_policy=ThresholdPolicy(epsilon=eps),
                               neighborhood_cadence=0)
            rep = dpcd_solve(f, UNCONSTRAINED, cfg, initial_point=x0)
            assert np.all(rep.final_point == -1.0)
            # one update does all the flipping, the next certifies the stop
            assert rep.flips_per_iteration[0] == np.sum(x0 == 1.0)
            assert sum(rep.flips_per_iteration[1:]) == 0
            assert rep.converged

    def test_descent_inequality_quadratics(self):
        for trial in range(20):
            f = random_quadratic(12, 100 + trial)
            cfg = SolverConfig(neighborhood_cadence=0)
            rep = dpcd_solve(f, UNCONSTRAINED, cfg)
            eps = effective_epsilon(cfg.threshold_policy, f.lipschitz)
            t = rep.value_trajectory
            for k, flips in enumerate(rep.flips_per_iteration):
                assert t[k] - t[k + 1] >= 2.0 * eps * flips - 1e-12

    @pytest.mark.parametrize("c", [UNCONSTRAINED, exact_ones(16)], ids=["cube", "slice"])
    @pytest.mark.parametrize("cadence", [0, 1, 3])
    @pytest.mark.parametrize("mode", [LIPSCHITZ, GRADIENT_AVERAGE])
    def test_flips_count_hamming_steps(self, c, cadence, mode):
        # the principal flips are counted from the set sizes, not compared
        # entry by entry, so the count must match the iterates' distance
        f = random_quadratic(40, 11)
        x0 = random_feasible(40, c, 4)
        seen = [x0]
        cfg = SolverConfig(seed=2, max_iterations=30, neighborhood_cadence=cadence,
                           threshold_policy=ThresholdPolicy(mode=mode))
        rep = dpcd_solve(f, c, cfg, initial_point=x0, callback=seen.append)
        assert len(seen) == rep.iterations + 1
        steps = tuple(hamming_distance(a, b) for a, b in zip(seen, seen[1:]))
        assert rep.flips_per_iteration == steps
        if mode == GRADIENT_AVERAGE:
            # the first step moves, so the counts are not all trivially 0
            assert steps[0] > 0

    def test_exact_ones_iterates_feasible(self):
        c = exact_ones(7)
        seen = []
        f = random_quadratic(20, 8)
        rep = dpcd_solve(f, c, SolverConfig(seed=3), callback=seen.append)
        assert len(seen) == rep.iterations
        for x in seen:
            assert constraint_check(x, c)

    def test_determinism(self):
        f = random_quadratic(18, 5)
        cfg = SolverConfig(seed=42)
        a = dpcd_solve(f, exact_ones(9), cfg)
        b = dpcd_solve(f, exact_ones(9), cfg)
        assert a.value_trajectory == b.value_trajectory
        assert np.array_equal(a.final_point, b.final_point)
        assert a.rng_seed == 42

    def test_initial_point_validation(self):
        f = random_quadratic(6, 0)
        with pytest.raises(DomainError):
            dpcd_solve(f, initial_point=np.array([1.0, -1.0]))
        with pytest.raises(DomainError):
            dpcd_solve(f, initial_point=np.array([1.0, 0.5, 1, 1, 1, -1]))
        with pytest.raises(DomainError):
            dpcd_solve(f, exact_ones(2),
                       initial_point=np.array([1.0, 1, 1, -1, -1, -1]))

    def test_lipschitz_policy_needs_l0(self):
        bare = Objective(dimension=3, value=lambda x: float(x.sum()),
                         gradient=lambda x: np.ones(3))
        with pytest.raises(DomainError):
            dpcd_solve(bare)

    def test_average_policy_without_l0(self):
        bare = Objective(dimension=3, value=lambda x: float(x.sum()),
                         gradient=lambda x: np.ones(3))
        cfg = SolverConfig(threshold_policy=ThresholdPolicy(mode=GRADIENT_AVERAGE),
                           neighborhood_cadence=0, max_iterations=5)
        rep = dpcd_solve(bare, UNCONSTRAINED, cfg)
        assert rep.final_point is not None

    def test_numeric_failure_carries_iteration(self):
        evil = Objective(dimension=2, value=lambda x: 0.0,
                         gradient=lambda x: np.array([np.nan, 0.0]),
                         lipschitz=1.0)
        with pytest.raises(NumericError, match="iteration 1"):
            dpcd_solve(evil, UNCONSTRAINED, SolverConfig(neighborhood_cadence=0))

    def test_report_shape(self):
        f = random_quadratic(10, 2)
        rep = dpcd_solve(f, UNCONSTRAINED, SolverConfig(seed=1))
        assert len(rep.value_trajectory) == rep.iterations + 1
        assert len(rep.flips_per_iteration) == rep.iterations
        assert rep.iterations <= 100
        assert rep.wall_time >= 0.0
        assert rep.final_value == rep.value_trajectory[-1]
        assert not rep.final_point.flags.writeable

    def test_trajectory_non_increasing_with_search(self):
        for trial in range(10):
            f = random_quadratic(14, 50 + trial)
            rep = dpcd_solve(f, UNCONSTRAINED, SolverConfig(seed=trial))
            diffs = np.diff(rep.value_trajectory)
            assert np.all(diffs <= 1e-12)

    def test_max_iterations_cap(self):
        f = random_quadratic(10, 6)
        rep = dpcd_solve(f, UNCONSTRAINED,
                         SolverConfig(max_iterations=1, neighborhood_cadence=0))
        assert rep.iterations == 1
        assert not rep.converged or rep.flips_per_iteration == (0,)


@pytest.mark.usefixtures("threaded_spans")
class TestSolveLoopThreaded(TestSolveLoop):
    """TestSolveLoop again, on spans of 16 entries over two or more workers."""


class TestStepBound:
    def test_quadratic_coefficient_bound(self):
        A = np.array([[1.0, -2.0], [-2.0, 5.0]])
        c = np.array([1.0, -1.0])
        f = make_quadratic(A, c)
        assert f.coeff_abs_sum == pytest.approx(12.0)
        assert step_bound(f, UNCONSTRAINED, epsilon=0.5) == pytest.approx(24.0)

    def test_oracle_bound(self):
        f = random_quadratic(4, 0)
        assert step_bound(f, UNCONSTRAINED, 1.0, oracle_bounds=(2.0, 6.0)) == 2.0

    def test_epsilon_validation(self):
        f = random_quadratic(4, 0)
        with pytest.raises(DomainError):
            step_bound(f, UNCONSTRAINED, 0.0)

    def test_unavailable(self):
        bare = Objective(dimension=2, value=lambda x: 0.0,
                         gradient=lambda x: np.zeros(2))
        with pytest.raises(BoundUnavailableError):
            step_bound(bare, UNCONSTRAINED, 1.0)


def fused_objective(family: str, seed: int) -> Objective:
    """A small objective of one family that declares value_gradient."""
    rng = np.random.default_rng(seed)
    if family in ("dense", "sparse"):
        return random_quadratic(int(rng.integers(2, 13)), seed, sparse=family == "sparse")
    rows, r = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    if family == "hashing":
        Y = rng.standard_normal((rows, int(rng.integers(1, 4))))
        W = rng.standard_normal((r, Y.shape[1]))
        return make_hashing_objective(HashingProblem(Y=Y, lam=float(rng.uniform(0, 2)), r=r), W)
    S = rng.standard_normal((rows, rows))
    return make_affinity_objective(AffinityProblem(S=S + S.T, scale=float(r)))


FAMILIES = st.sampled_from(["dense", "sparse", "hashing", "affinity"])


def same_report(a, b) -> bool:
    """Reports equal in every field but the wall time."""
    return (np.array_equal(a.final_point, b.final_point)
            and dataclasses.replace(a, final_point=None, wall_time=0.0)
            == dataclasses.replace(b, final_point=None, wall_time=0.0))


class TestFusedEvaluation:
    """value_gradient against value and gradient, and the solver with and
    without it."""

    @given(family=FAMILIES, seed=st.integers(0, 2 ** 32 - 1), box=st.booleans())
    def test_value_gradient_is_value_and_gradient(self, family, seed, box):
        f = fused_objective(family, seed)
        rng = np.random.default_rng(seed)
        x = (rng.uniform(-1, 1, f.dimension) if box
             else random_feasible(f.dimension, UNCONSTRAINED, rng))
        value, g = f.value_gradient(x)
        assert value == f.value(x)
        assert np.asarray(g).tobytes() == np.asarray(f.gradient(x)).tobytes()

    @given(family=FAMILIES, seed=st.integers(0, 2 ** 32 - 1),
           mode=st.sampled_from([LIPSCHITZ, GRADIENT_AVERAGE]),
           slice_=st.booleans(), cadence=st.sampled_from([0, 1, 3]))
    def test_solve_matches_unfused(self, family, seed, mode, slice_, cadence):
        f = fused_objective(family, seed)
        if f.lipschitz is None:
            mode = GRADIENT_AVERAGE
        n = f.dimension
        c = exact_ones(seed % (n + 1)) if slice_ else UNCONSTRAINED
        cfg = SolverConfig(max_iterations=15, neighborhood_cadence=cadence,
                           neighborhood_radius=2, neighborhood_budget=50,
                           threshold_policy=ThresholdPolicy(mode=mode), seed=seed)
        x0 = random_feasible(n, c, seed)
        seen = [x0]
        fused = dpcd_solve(f, c, cfg, initial_point=x0, callback=seen.append)
        plain = dpcd_solve(dataclasses.replace(f, value_gradient=None), c, cfg,
                           initial_point=x0)
        assert same_report(fused, plain)
        assert fused.value_trajectory == tuple(f.value(x) for x in seen)
        if cadence == 0:
            # every step is the public rule applied at the iterate before
            for x, x_next in zip(seen, seen[1:]):
                g = f.gradient(x)
                l1, l2 = derive_thresholds(g, cfg.threshold_policy, f.lipschitz)
                sets = principal_sets(x, g, l1, l2, cfg.alpha1, cfg.alpha2)
                want = balanced_flip(x, g, sets) if slice_ else unconstrained_flip(x, sets)
                assert np.array_equal(x_next, want)

    @pytest.mark.parametrize("mode", [LIPSCHITZ, GRADIENT_AVERAGE])
    def test_code_step_evaluates_each_iterate_once(self, monkeypatch, mode):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, 60)
        X = labels[:, None] + rng.standard_normal((60, 4))
        Y = np.eye(3)[labels]
        counts, reports = [], []
        build, solve = hashing.make_hashing_objective, hashing.dpcd_solve

        def alone(*args):
            raise AssertionError("value or gradient called on its own")

        def counted_build(problem, W):
            f = build(problem, W)
            count = [0]
            counts.append(count)

            def value_gradient(b):
                count[0] += 1
                return f.value_gradient(b)

            return dataclasses.replace(f, value=alone, gradient=alone,
                                       value_gradient=value_gradient)

        def recorded_solve(*args, **kwargs):
            reports.append(solve(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(hashing, "make_hashing_objective", counted_build)
        monkeypatch.setattr(hashing, "dpcd_solve", recorded_solve)
        inner = dataclasses.replace(hashing.CODE_STEP,
                                    threshold_policy=ThresholdPolicy(mode=mode))
        alternating_hash(X, Y, 6, outer_iterations=3, inner=inner, seed=2)
        assert reports and sum(rep.iterations for rep in reports) > len(reports)
        assert [count[0] for count in counts] == [rep.iterations + 1 for rep in reports]

    @given(family=FAMILIES, seed=st.integers(0, 2 ** 32 - 1))
    def test_sgm_evaluates_each_iterate_once(self, family, seed):
        base = fused_objective(family, seed)
        count = [0]

        def alone(*args):
            raise AssertionError("value or gradient called on its own")

        def value_gradient(x):
            count[0] += 1
            return base.value_gradient(x)

        f = dataclasses.replace(base, value=alone, gradient=alone,
                                value_gradient=value_gradient)
        rep = sgm_solve(f, max_iterations=15, seed=seed)
        assert rep.iterations >= 1
        assert count[0] == rep.iterations + 1

    @given(family=FAMILIES, seed=st.integers(0, 2 ** 32 - 1))
    def test_sgm_matches_unfused(self, family, seed):
        f = fused_objective(family, seed)
        fused = sgm_solve(f, max_iterations=15, seed=seed)
        plain = sgm_solve(dataclasses.replace(f, value_gradient=None),
                          max_iterations=15, seed=seed)
        assert same_report(fused, plain)

    def test_unread_gradient_at_the_last_iterate_raises_nothing(self):
        # the fused gradient of the final point is never read, as
        # f.gradient there would never be called
        base = random_quadratic(6, 3)

        def value_gradient(x):
            return base.value(x), np.full(6, np.nan)

        f = dataclasses.replace(base, value_gradient=value_gradient)
        cfg = SolverConfig(max_iterations=1, neighborhood_cadence=0)
        x0 = random_feasible(6, UNCONSTRAINED, 1)
        with pytest.raises(NumericError, match="non-finite gradient at iteration 1"):
            dpcd_solve(f, UNCONSTRAINED, cfg, initial_point=x0)
        calls = []

        def first_finite(x):
            calls.append(1)
            return base.value(x), (base.gradient(x) if len(calls) == 1
                                   else np.full(6, np.nan))

        f = dataclasses.replace(base, value_gradient=first_finite)
        rep = dpcd_solve(f, UNCONSTRAINED, cfg, initial_point=x0)
        assert rep.iterations == 1 and len(calls) == 2
