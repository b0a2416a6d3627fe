"""Acceptance gate: ten numbered criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one [PASS] line per
criterion. Every protocol fixes its seeds, so the suite is deterministic
apart from the wall-clock measurements, whose limits are generous.
"""

import itertools
import time

import numpy as np
import pytest

from dpcd import (
    AffinityProblem,
    HashingProblem,
    LIPSCHITZ,
    SolverConfig,
    SparseGraph,
    ThresholdPolicy,
    UNCONSTRAINED,
    alternating_hash,
    constraint_check,
    density,
    dpcd_solve,
    evaluate_retrieval,
    exact_ones,
    exhaustive_oracle,
    greedy_peel,
    make_affinity_objective,
    make_dense_subgraph,
    make_hashing_objective,
    make_quadratic,
    make_shifted_separable,
    planted_partition,
    random_search,
    sgm_solve,
    signs,
    solve_w,
)

from conftest import assert_gradient_matches, interior_points, random_quadratic


def _pass(number, text):
    print(f"\n[PASS] criterion {number:02d}: {text}")


def _selection(point):
    return np.nonzero(np.asarray(point) > 0)[0]


def _clusters(n, d, c, seed, spread=1.0):
    """Gaussian class blobs with one-hot labels, the desk-scale stand-in
    for real image features."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, d)) * spread
    labels = rng.integers(0, c, size=n)
    X = centers[labels] + rng.standard_normal((n, d))
    Y = (labels[:, None] == np.arange(c)[None, :]).astype(float)
    return X, Y, labels


def test_criterion_01_single_update_optimum_vs_oscillation():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        n = int(rng.integers(2, 65))
        beta = rng.uniform(0.02, 0.98, size=n)
        x0 = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        objective = make_shifted_separable(beta)
        eps = 0.9 * float(beta.min())
        cfg = SolverConfig(
            max_iterations=50,
            neighborhood_cadence=0,
            threshold_policy=ThresholdPolicy(mode=LIPSCHITZ, epsilon=eps),
        )
        report = dpcd_solve(objective, UNCONSTRAINED, cfg, initial_point=x0)
        assert np.array_equal(report.final_point, -np.ones(n))
        plus = int(np.sum(x0 > 0))
        assert report.flips_per_iteration[0] == plus
        assert sum(report.flips_per_iteration) == plus
        sgm = sgm_solve(objective, UNCONSTRAINED, max_iterations=10,
                        initial_point=x0)
        assert "diverged: oscillation" in sgm.flags
        assert sgm.iterations <= 3
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _pass(1, "50 separable instances reach the all-minus optimum in one "
             f"principal update; signed-gradient flags period-2 within 3 "
             f"iterations ({elapsed:.2f}s < 1s)")


def test_criterion_02_iteration_and_descent_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    eps = 0.1
    for i in range(100):
        n = int(rng.integers(4, 15))
        objective = random_quadratic(n, 2000 + i)
        cfg = SolverConfig(
            max_iterations=5000,
            neighborhood_cadence=0,
            threshold_policy=ThresholdPolicy(mode=LIPSCHITZ, epsilon=eps),
            seed=i,
        )
        report = dpcd_solve(objective, UNCONSTRAINED, cfg)
        assert report.converged
        truth = exhaustive_oracle(objective, UNCONSTRAINED)
        oracle_bound = (truth.f_max - truth.f_min) / (2.0 * eps)
        coeff_bound = objective.coeff_abs_sum / eps
        assert report.iterations <= oracle_bound
        assert report.iterations <= coeff_bound
        traj = report.value_trajectory
        for k, flipped in enumerate(report.flips_per_iteration):
            descent = traj[k] - traj[k + 1]
            assert descent >= 2.0 * eps * flipped - 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _pass(2, "100 quadratics: iterations within the range bound and the "
             f"coefficient bound, per-step descent >= 2*eps*flips "
             f"({elapsed:.1f}s < 60s)")


def test_criterion_03_constraint_preservation():
    rng = np.random.default_rng(303)
    for i in range(200):
        n = int(rng.integers(2, 65))
        r = int(rng.integers(0, n + 1))
        objective = random_quadratic(n, 4000 + i)
        constraint = exact_ones(r)
        seen = []

        def audit(x, c=constraint, out=seen):
            out.append(constraint_check(x, c))

        report = dpcd_solve(objective, constraint, SolverConfig(seed=i),
                            callback=audit)
        assert seen, "solver never reported an iterate"
        assert all(seen), f"infeasible iterate on instance {i}"
        assert constraint_check(report.final_point, constraint)
    _pass(3, "200 exact-ones instances, every accepted iterate feasible")


def _improving_unit_move(objective, x, constraint):
    fx = objective.value(x)
    if constraint.is_exact_ones:
        plus = np.nonzero(x > 0)[0]
        minus = np.nonzero(x < 0)[0]
        for i in plus:
            for j in minus:
                y = x.copy()
                y[i] = -1.0
                y[j] = 1.0
                if objective.value(y) < fx - 1e-9:
                    return (int(i), int(j))
        return None
    for i in range(len(x)):
        y = x.copy()
        y[i] = -y[i]
        if objective.value(y) < fx - 1e-9:
            return int(i)
    return None


def test_criterion_04_local_optimality():
    rng = np.random.default_rng(404)
    for i in range(50):
        n = int(rng.integers(4, 17))
        objective = random_quadratic(n, 5000 + i)
        if i % 2 == 0:
            constraint = exact_ones(int(rng.integers(1, n)))
        else:
            constraint = UNCONSTRAINED
        report = dpcd_solve(objective, constraint, SolverConfig(seed=3000 + i))
        assert report.converged
        x = np.asarray(report.final_point, dtype=float)
        move = _improving_unit_move(objective, x, constraint)
        assert move is None, f"instance {i}: improving move {move}"
    _pass(4, "50 solved quadratics admit no improving single flip or swap")


def test_criterion_05_gradient_oracle():
    g6 = SparseGraph(6, [0, 0, 1, 2, 3], [1, 2, 3, 4, 5],
                     [1.0, 0.5, 2.0, 1.5, 0.75])
    rng = np.random.default_rng(505)
    ydata = (rng.integers(0, 3, size=12)[:, None] == np.arange(3)).astype(float)
    families = {
        "dense quadratic": random_quadratic(10, 51),
        "sparse quadratic": random_quadratic(12, 52, sparse=True),
        "shifted separable": make_shifted_separable(
            rng.uniform(0.05, 0.95, size=8)),
        "dense subgraph": make_dense_subgraph(g6, 3)[0],
        "hashing": make_hashing_objective(
            HashingProblem(Y=ydata, lam=0.7, r=4),
            rng.standard_normal((4, 3))),
        "affinity": make_affinity_objective(
            AffinityProblem(S=np.eye(6) * 0.5 + 0.1, scale=4.0)),
    }
    for offset, (label, objective) in enumerate(families.items()):
        points = interior_points(objective.dimension, 100, seed=500 + offset)
        assert_gradient_matches(objective, points, rel=1e-5)
    _pass(5, f"{len(families)} objective families pass finite-difference "
             "checks at 100 interior points each")


@pytest.fixture(scope="module")
def subgraph_suite():
    """Criterion 6/7 shared runs: 20 planted instances, disjoint seed
    streams for the generator, the solvers, and the sampler."""
    n, k = 500, 25
    out = {
        "dpcd_density": [], "greedy_density": [], "random_density": [],
        "dpcd_value": [], "dpcd0_value": [],
        "dpcd_time": [], "dpcd0_time": [],
    }
    started = time.perf_counter()
    for i in range(20):
        graph_seed = 1000 + 3 * i
        g, _ = planted_partition(n, k, 0.5, 0.02, seed=graph_seed)
        objective, constraint = make_dense_subgraph(g, k)
        report = dpcd_solve(objective, constraint,
                            SolverConfig(seed=graph_seed + 1))
        out["dpcd_density"].append(density(g, _selection(report.final_point)))
        out["dpcd_value"].append(report.final_value)
        out["dpcd_time"].append(report.wall_time)
        peel = greedy_peel(g, k)
        out["greedy_density"].append(density(g, _selection(peel)))
        sampled = random_search(objective, constraint, samples=10000,
                                seed=graph_seed + 2)
        out["random_density"].append(density(g, _selection(sampled.optimum)))
    out["elapsed"] = time.perf_counter() - started
    for i in range(20):
        graph_seed = 1000 + 3 * i
        g, _ = planted_partition(n, k, 0.5, 0.02, seed=graph_seed)
        objective, constraint = make_dense_subgraph(g, k)
        report = dpcd_solve(objective, constraint,
                            SolverConfig(seed=graph_seed + 1,
                                         neighborhood_cadence=0))
        out["dpcd0_value"].append(report.final_value)
        out["dpcd0_time"].append(report.wall_time)
    return out


def test_criterion_06_planted_subgraph_dominance(subgraph_suite):
    s = subgraph_suite
    wins_greedy = sum(d >= g for d, g in zip(s["dpcd_density"],
                                             s["greedy_density"]))
    wins_random = sum(d >= r for d, r in zip(s["dpcd_density"],
                                             s["random_density"]))
    assert wins_greedy >= 14, f"beat greedy on only {wins_greedy}/20 seeds"
    assert wins_random >= 19, f"beat sampling on only {wins_random}/20 seeds"
    assert s["elapsed"] < 120.0
    _pass(6, f"planted suite: >= greedy on {wins_greedy}/20 seeds, "
             f">= 10k random samples on {wins_random}/20 "
             f"({s['elapsed']:.1f}s < 120s)")


def test_criterion_07_search_helps_but_costs(subgraph_suite):
    s = subgraph_suite
    mean_full = float(np.mean(s["dpcd_value"]))
    mean_bare = float(np.mean(s["dpcd0_value"]))
    time_full = float(np.mean(s["dpcd_time"]))
    time_bare = float(np.mean(s["dpcd0_time"]))
    assert mean_full <= mean_bare
    assert time_bare <= time_full
    _pass(7, f"with search mean objective {mean_full:.2f} <= {mean_bare:.2f} "
             f"without; without search mean time {time_bare * 1e3:.1f}ms <= "
             f"{time_full * 1e3:.1f}ms with")


def _split_map(codes, labels, n_query=200, k=50):
    q, db = codes[:n_query], codes[n_query:]
    ql, dl = labels[:n_query], labels[n_query:]
    return evaluate_retrieval(q, db, ql, dl, k=k).map


def test_criterion_08_hashing_quality_and_stationarity():
    started = time.perf_counter()
    n, d, classes, lam = 2000, 32, 10, 1000.0
    for r in (16, 32):
        margins = []
        for s in range(10):
            X, Y, labels = _clusters(n, d, classes, seed=100 * s)
            model = alternating_hash(X, Y, r, lam=lam, seed=s + 1)
            history = model.loss_history
            for before, after in zip(history, history[1:]):
                assert after <= before + 1e-9, (
                    f"loss rose {before} -> {after} (r={r}, seed={s})")
            learned = _split_map(model.B, labels)
            proj = np.random.default_rng(s + 2).standard_normal((d, r))
            baseline = _split_map(signs(X @ proj), labels)
            margins.append(learned - baseline)
        margin = float(np.mean(margins))
        assert margin >= 0.05, f"mean margin {margin:.3f} at r={r}"

        # replay the alternation through the public pieces so the
        # regression stationarity can be checked at every exit
        X, Y, _ = _clusters(n, d, classes, seed=0)
        rng = np.random.default_rng(1)
        B = signs(rng.standard_normal((n, r)))
        for _ in range(5):
            W = solve_w(B, Y, lam)
            residual = B.T @ (B @ W - Y) + lam * W
            scale = float(np.linalg.norm(B.T @ Y))
            assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, scale)
            objective = make_hashing_objective(
                HashingProblem(Y=Y, lam=lam, r=r), W)
            step = dpcd_solve(
                objective, UNCONSTRAINED,
                SolverConfig(max_iterations=20, neighborhood_cadence=0),
                initial_point=B.ravel())
            B = np.asarray(step.final_point).reshape(n, r)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _pass(8, "codes beat random projections by >= 0.05 MAP at both lengths, "
             f"loss never rises, regression residuals <= 1e-8 relative "
             f"({elapsed:.1f}s < 120s)")


def test_criterion_09_linear_time_per_outer():
    started = time.perf_counter()
    sizes = (2000, 20000, 200000)
    per_outer = []
    for n in sizes:
        X, Y, _ = _clusters(n, 32, 10, seed=9)
        # process CPU time, best of 3: other processes on a shared host
        # stretch wall time, not this process's CPU time
        best = np.inf
        for _ in range(3):
            t0 = time.process_time()
            model = alternating_hash(X, Y, 16, outer_iterations=3,
                                     lam=1.0, seed=1)
            best = min(best, (time.process_time() - t0) / model.outer_iterations)
        per_outer.append(best)
    t = np.array(per_outer)
    design = np.stack([np.array(sizes, dtype=float), np.ones(3)], axis=1)
    # timing noise is multiplicative, so fit the line on the relative
    # scale: minimize sum((a*n_i + b - t_i) / t_i)^2. An absolute-scale
    # fit lets the two large sizes push the intercept below zero, which
    # makes a ratio-of-fit check at the small size meaningless.
    coef, *_ = np.linalg.lstsq(design / t[:, None], np.ones(3), rcond=None)
    fitted = design @ coef
    assert np.all(fitted > 0.0)
    ss_res = float(np.sum((t - fitted) ** 2))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    worst = float(np.max(np.maximum(t / fitted, fitted / t)))
    elapsed = time.perf_counter() - started
    assert r2 >= 0.95, f"R^2 {r2:.4f}"
    assert worst <= 2.0, f"max deviation {worst:.2f}x"
    assert elapsed < 300.0
    _pass(9, f"per-outer time fits a line in n: R^2 {r2:.4f} >= 0.95, "
             f"max deviation {worst:.2f}x <= 2x ({elapsed:.1f}s < 300s)")


def _random_graph(n, seed, p=0.4):
    rng = np.random.default_rng(seed)
    us, vs, ws = [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                us.append(i)
                vs.append(j)
                ws.append(float(rng.uniform(0.2, 2.0)))
    if not us:
        us, vs, ws = [0], [1], [1.0]
    return SparseGraph(n, us, vs, ws)


def _support_sets(graph, k):
    """All optimal k-supports of the sign-vector objective next to all
    optimal k-supports of the 0/1 quadratic it reformulates."""
    objective, _ = make_dense_subgraph(graph, k)
    W = np.asarray(graph.matrix().todense())
    f_scored, q_scored = [], []
    for combo in itertools.combinations(range(graph.n), k):
        sel = np.array(combo, dtype=int)
        y = -np.ones(graph.n)
        y[sel] = 1.0
        f_scored.append((float(objective.value(y)), frozenset(combo)))
        q_scored.append((float(W[np.ix_(sel, sel)].sum()), frozenset(combo)))
    f_best = min(v for v, _ in f_scored)
    q_best = max(v for v, _ in q_scored)
    f_tol = 1e-9 * max(1.0, abs(f_best))
    q_tol = 1e-9 * max(1.0, abs(q_best))
    minimizers = {s for v, s in f_scored if v <= f_best + f_tol}
    maximizers = {s for v, s in q_scored if v >= q_best - q_tol}
    return minimizers, maximizers


def test_criterion_10_reformulation_support_agreement():
    clique = list(itertools.combinations(range(4), 2))
    cases = [
        SparseGraph(3, [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0]),
        SparseGraph(6, [0] * 5, [1, 2, 3, 4, 5], [1.0] * 5),
        SparseGraph(4, [u for u, _ in clique], [v for _, v in clique],
                    [1.0] * 6),
        SparseGraph(5, [0, 2], [1, 3], [1.0, 1.0]),
        SparseGraph(5, [0, 1, 2, 3], [1, 2, 3, 4], [0.5, 2.0, 1.0, 0.25]),
        SparseGraph(4, np.array([], dtype=int), np.array([], dtype=int),
                    np.array([], dtype=float)),
    ]
    checked = 0
    for graph in cases:
        for k in range(1, graph.n + 1):
            minimizers, maximizers = _support_sets(graph, k)
            assert minimizers == maximizers, (graph.n, k)
            checked += 1
    for n, seed in ((6, 1), (8, 2), (10, 3), (12, 4)):
        graph = _random_graph(n, seed)
        ks = range(1, n + 1) if n <= 8 else (1, 2, n // 2, n - 1, n)
        for k in ks:
            minimizers, maximizers = _support_sets(graph, k)
            assert minimizers == maximizers, (n, seed, k)
            checked += 1
    planted, _ = planted_partition(14, 5, 0.6, 0.1, seed=7)
    for k in (3, 7):
        minimizers, maximizers = _support_sets(planted, k)
        assert minimizers == maximizers, ("planted", k)
        checked += 1
    _pass(10, f"{checked} (graph, k) pairs: optimal supports of the "
              "sign-vector form and the 0/1 form agree exactly")
