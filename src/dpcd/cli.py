"""Command-line front end.

Subcommands: subgraph (densest-k selection on a graph file), hash (code
learning plus optional retrieval scoring), quad (generic quadratic solve),
oracle (exhaustive ground truth and bound verdicts), bench (CSV suite
runner). Exit codes: 0 success, 1 numeric failure, 2 usage or input error.

Documents are emitted with sorted keys and no timing fields by default, so
a fixed seed gives byte-identical output; --timings opts into wall-clock
fields, and the bench CSV time column is inherently run-dependent.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import graph as graph_mod
from . import hashing as hash_mod
from .baselines import exhaustive_oracle, greedy_peel, random_search, sgm_solve
from .core import (
    DomainError,
    NumericError,
    ParseError,
    UNCONSTRAINED,
    exact_ones,
)
from .objectives import (
    make_dense_subgraph,
    make_quadratic,
    make_shifted_separable,
)
from .solver import (
    GRADIENT_AVERAGE,
    LIPSCHITZ,
    SolverConfig,
    ThresholdPolicy,
    dpcd_solve,
    effective_epsilon,
    step_bound,
)

_METHODS = ("dpcd", "dpcd0", "greedy", "random", "sgm")


def _solver_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("solver")
    g.add_argument("--alpha1", type=float, default=1.0)
    g.add_argument("--alpha2", type=float, default=1.0)
    g.add_argument("--epsilon", type=float, default=None,
                   help="threshold slack; defaults to max(1e-6, 1e-6*L0)")
    g.add_argument("--threshold-mode", choices=["lipschitz", "average"],
                   default="lipschitz")
    g.add_argument("--max-iters", type=int, default=100)
    g.add_argument("--nbr-cadence", type=int, default=None,
                   help="local search every T iterations (default 10; hash: 0)")
    g.add_argument("--nbr-radius", type=int, default=5)
    g.add_argument("--nbr-budget", type=int, default=10000)
    g.add_argument("--nbr-patience", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)


def _config_from(args, default_cadence: int = 10) -> SolverConfig:
    mode = LIPSCHITZ if args.threshold_mode == "lipschitz" else GRADIENT_AVERAGE
    cadence = args.nbr_cadence if args.nbr_cadence is not None else default_cadence
    return SolverConfig(
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        max_iterations=args.max_iters,
        neighborhood_cadence=cadence,
        neighborhood_radius=args.nbr_radius,
        neighborhood_budget=args.nbr_budget,
        neighborhood_patience=args.nbr_patience,
        threshold_policy=ThresholdPolicy(mode=mode, epsilon=args.epsilon),
        seed=args.seed,
    )


def _config_doc(cfg: SolverConfig) -> dict:
    return {
        "alpha1": cfg.alpha1,
        "alpha2": cfg.alpha2,
        "max_iterations": cfg.max_iterations,
        "neighborhood_cadence": cfg.neighborhood_cadence,
        "neighborhood_radius": cfg.neighborhood_radius,
        "neighborhood_budget": cfg.neighborhood_budget,
        "neighborhood_patience": cfg.neighborhood_patience,
        "threshold_mode": cfg.threshold_policy.mode,
        "epsilon": cfg.threshold_policy.epsilon,
    }


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        return
    # csv: flattened key,value rows in key order
    rows = []

    def flatten(prefix, obj):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, dict):
                flatten(f"{prefix}{key}.", value)
            else:
                rows.append((f"{prefix}{key}", value))

    flatten("", doc)
    sys.stdout.write("key,value\n")
    for key, value in rows:
        if isinstance(value, (list, tuple)):
            value = ";".join(repr(v) for v in value)
        sys.stdout.write(f"{key},{value}\n")


def _load_graph(path: str, fmt: str):
    if fmt == "auto":
        fmt = "matrix-market" if str(path).endswith((".mtx", ".mm")) else "edge-list"
    if path == "-":
        data = sys.stdin.buffer.read()
        return (graph_mod.load_matrix_market(data) if fmt == "matrix-market"
                else graph_mod.load_edge_list(data))
    if fmt == "matrix-market":
        with open(path, "rb") as fh:
            return graph_mod.load_matrix_market(fh)
    return graph_mod.load_edge_list(path)


def cmd_subgraph(args) -> int:
    if args.k < 1:
        raise DomainError("k must be >= 1")
    cfg = _config_from(args)
    g = _load_graph(args.graph, args.graph_format)
    objective, constraint = make_dense_subgraph(g, args.k)
    report = dpcd_solve(objective, constraint, cfg)
    selection = np.nonzero(np.asarray(report.final_point) > 0)[0]
    dens = graph_mod.density(g, selection)
    doc = {
        "command": "subgraph",
        "n": g.n,
        "k": args.k,
        "seed": args.seed,
        "config": _config_doc(cfg),
        "density": dens,
        "objective_value": report.final_value - g.total_weight,
        "solver_objective": report.final_value,
        "dropped_constant": -g.total_weight,
        "iterations": report.iterations,
        "total_flips": int(sum(report.flips_per_iteration)),
        "converged": report.converged,
        "selection": [int(i) for i in selection],
    }
    if args.baselines:
        peel = greedy_peel(g, args.k)
        peel_sel = np.nonzero(np.asarray(peel) > 0)[0]
        rnd = random_search(objective, constraint, samples=10000, seed=args.seed + 1)
        rnd_sel = np.nonzero(np.asarray(rnd.optimum) > 0)[0]
        doc["baselines"] = {
            "greedy_density": graph_mod.density(g, peel_sel),
            "random_density": graph_mod.density(g, rnd_sel),
        }
    if args.timings:
        doc["wall_time"] = report.wall_time
    _emit(doc, args.format)
    return 0


def _labels_for_training(raw: np.ndarray) -> np.ndarray:
    # single-column integer labels become one-hot rows
    if raw.ndim == 2 and raw.shape[1] > 1:
        return raw
    flat = raw.ravel()
    classes = np.unique(flat)
    return (flat[:, None] == classes[None, :]).astype(float)


def cmd_hash(args) -> int:
    if args.code_length < 1:
        raise DomainError("code length must be >= 1")
    cfg = _config_from(args, default_cadence=0)
    inner = replace(cfg, max_iterations=min(cfg.max_iterations, 20))
    X = hash_mod.load_matrix(args.features)
    raw_labels = hash_mod.load_matrix(args.labels)
    if X.shape[0] != raw_labels.shape[0]:
        raise DomainError(
            f"features have {X.shape[0]} rows, labels {raw_labels.shape[0]}")
    Y = _labels_for_training(raw_labels)
    started = time.perf_counter()
    model = hash_mod.alternating_hash(
        X, Y, args.code_length, outer_iterations=args.outer,
        inner=inner, lam=args.lam, seed=args.seed)
    elapsed = time.perf_counter() - started
    doc = {
        "command": "hash",
        "n": int(X.shape[0]),
        "d": int(X.shape[1]),
        "r": args.code_length,
        "classes": int(Y.shape[1]),
        "lam": args.lam,
        "seed": args.seed,
        "outer_iterations": model.outer_iterations,
        "loss_history": [float(v) for v in model.loss_history],
        "final_loss": float(model.loss_history[-1]),
    }
    if args.eval is not None:
        if args.eval_labels is None:
            raise DomainError("--eval needs --eval-labels")
        Xq = hash_mod.load_matrix(args.eval)
        yq = hash_mod.load_matrix(args.eval_labels)
        if Xq.shape[0] != yq.shape[0]:
            raise DomainError("query features and labels disagree on row count")
        query_codes = hash_mod.encode(Xq, model.P)
        score = hash_mod.evaluate_retrieval(
            query_codes, model.B,
            yq if yq.ndim == 2 and yq.shape[1] > 1 else yq.ravel(),
            raw_labels if raw_labels.ndim == 2 and raw_labels.shape[1] > 1
            else raw_labels.ravel(),
            k=args.topk)
        doc["eval"] = {"map": score.map, "precision_at_k": score.precision_at_k,
                       "k": score.k}
    if args.timings:
        doc["wall_time"] = elapsed
    _emit(doc, args.format)
    return 0


def _quad_from_file(path):
    with open(path, "r") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as e:
            raise ParseError(f"problem file is not valid JSON: {e}") from e
    try:
        A = np.array(spec["A"], dtype=float)
        c = np.array(spec["c"], dtype=float)
        d = float(spec.get("d", 0.0))
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"problem file needs numeric fields A and c: {e}") from e
    r = spec.get("r", None)
    return make_quadratic(A, c, d), (exact_ones(int(r)) if r is not None else UNCONSTRAINED)


def _random_quad(n: int, seed: int):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0
    return make_quadratic(A, rng.standard_normal(n), 0.0)


def cmd_quad(args) -> int:
    cfg = _config_from(args)
    if args.problem is not None:
        objective, constraint = _quad_from_file(args.problem)
    else:
        if args.n is None:
            raise DomainError("pass --problem FILE or --n for a generated instance")
        objective, constraint = _random_quad(args.n, args.seed), UNCONSTRAINED
    if args.constraint_r is not None:
        constraint = exact_ones(args.constraint_r)
    report = dpcd_solve(objective, constraint, cfg)
    doc = {
        "command": "quad",
        "n": objective.dimension,
        "constraint_r": constraint.r if constraint.is_exact_ones else None,
        "seed": args.seed,
        "config": _config_doc(cfg),
        "final_value": report.final_value,
        "final_point": [int(v) for v in report.final_point],
        "iterations": report.iterations,
        "total_flips": int(sum(report.flips_per_iteration)),
        "converged": report.converged,
    }
    if args.timings:
        doc["wall_time"] = report.wall_time
    _emit(doc, args.format)
    return 0


def cmd_oracle(args) -> int:
    cfg = _config_from(args)
    if args.problem is not None:
        objective, constraint = _quad_from_file(args.problem)
    elif args.separable:
        if args.n is None:
            raise DomainError("--separable needs --n")
        rng = np.random.default_rng(args.seed)
        objective = make_shifted_separable(rng.uniform(0.05, 0.95, size=args.n))
        constraint = UNCONSTRAINED
    else:
        if args.n is None:
            raise DomainError("pass --problem, or --n (optionally with --separable)")
        objective, constraint = _random_quad(args.n, args.seed), UNCONSTRAINED
    if args.constraint_r is not None:
        constraint = exact_ones(args.constraint_r)
    truth = exhaustive_oracle(objective, constraint, limit=args.limit)
    report = dpcd_solve(objective, constraint, cfg)
    eps = (cfg.threshold_policy.epsilon
           if cfg.threshold_policy.epsilon is not None
           else effective_epsilon(cfg.threshold_policy, objective.lipschitz or 0.0))
    bound = step_bound(objective, constraint, eps, (truth.f_min, truth.f_max))
    doc = {
        "command": "oracle",
        "n": objective.dimension,
        "seed": args.seed,
        "f_min": truth.f_min,
        "f_max": truth.f_max,
        "optimum": [int(v) for v in truth.optimum],
        "evaluations": truth.evaluations,
        "dpcd_value": report.final_value,
        "dpcd_iterations": report.iterations,
        "gap": report.final_value - truth.f_min,
        "optimum_reached": bool(report.final_value <= truth.f_min + 1e-9),
        "step_bound": bound,
        "bound_satisfied": bool(report.iterations <= bound),
    }
    if objective.coeff_abs_sum is not None:
        doc["coefficient_bound"] = objective.coeff_abs_sum / eps
    _emit(doc, args.format)
    return 0


def _bench_subgraph(args, writer) -> None:
    base = args.seed
    for idx in range(args.instances):
        # disjoint sub-streams: the generator and the solvers must never
        # share a seed, or the random initial point mirrors the instance
        graph_seed = base * 1000 + 3 * idx
        solver_seed = graph_seed + 1
        sample_seed = graph_seed + 2
        g, _ = graph_mod.planted_partition(args.n, args.k, 0.5, 0.02, seed=graph_seed)
        objective, constraint = make_dense_subgraph(g, args.k)
        instance = f"planted-n{args.n}-k{args.k}-s{idx}"
        rows = []
        for method in args.methods:
            t0 = time.perf_counter()
            if method == "dpcd":
                rep = dpcd_solve(objective, constraint, SolverConfig(seed=solver_seed))
                value = rep.final_value - g.total_weight
            elif method == "dpcd0":
                rep = dpcd_solve(objective, constraint,
                                 SolverConfig(seed=solver_seed, neighborhood_cadence=0))
                value = rep.final_value - g.total_weight
            elif method == "greedy":
                sel = greedy_peel(g, args.k)
                value = objective.value(sel) - g.total_weight
            elif method == "random":
                best = random_search(objective, constraint, samples=10000, seed=sample_seed)
                value = best.optimal_value - g.total_weight
            else:  # sgm cannot hold the cardinality constraint
                continue
            rows.append((instance, method, value, time.perf_counter() - t0))
        for row in sorted(rows):
            writer(row)


def _bench_scaling(args, writer) -> None:
    rng = np.random.default_rng(args.seed)
    d, r, classes = 32, 16, 10
    centers = rng.standard_normal((classes, d)) * 3.0
    for n in args.sizes:
        labels = rng.integers(0, classes, size=n)
        X = centers[labels] + rng.standard_normal((n, d))
        Y = (labels[:, None] == np.arange(classes)[None, :]).astype(float)
        t0 = time.perf_counter()
        model = hash_mod.alternating_hash(X, Y, r, outer_iterations=2,
                                          lam=1.0, seed=args.seed)
        per_outer = (time.perf_counter() - t0) / model.outer_iterations
        writer((f"hash-n{n}", "dpcd", float(model.loss_history[-1]), per_outer))


def cmd_bench(args) -> int:
    if not args.methods:
        raise DomainError("method list is empty")
    for m in args.methods:
        if m not in _METHODS:
            raise DomainError(f"unknown method {m!r}; known: {', '.join(_METHODS)}")
    lines = ["instance,method,value,time"]

    def writer(row):
        instance, method, value, secs = row
        lines.append(f"{instance},{method},{value!r},{secs:.6f}")

    if args.suite == "subgraph":
        _bench_subgraph(args, writer)
    else:
        _bench_scaling(args, writer)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpcd",
        description="binary optimization by principal coordinate descent")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("subgraph", help="densest-k-subgraph on a graph file")
    p.add_argument("graph", help="edge list or MatrixMarket path, '-' for stdin")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--graph-format", choices=["auto", "edge-list", "matrix-market"],
                   default="auto")
    p.add_argument("--baselines", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--timings", action="store_true")
    _solver_flags(p)
    p.set_defaults(func=cmd_subgraph)

    p = sub.add_parser("hash", help="learn binary codes and optionally score retrieval")
    p.add_argument("features")
    p.add_argument("labels")
    p.add_argument("--code-length", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--outer", type=int, default=5)
    p.add_argument("--eval", default=None, help="query feature file")
    p.add_argument("--eval-labels", default=None)
    p.add_argument("--topk", type=int, default=50)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--timings", action="store_true")
    _solver_flags(p)
    p.set_defaults(func=cmd_hash)

    p = sub.add_parser("quad", help="solve a quadratic problem file or a seeded instance")
    p.add_argument("--problem", default=None, help="JSON file with A, c, optional d, r")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--constraint-r", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--timings", action="store_true")
    _solver_flags(p)
    p.set_defaults(func=cmd_quad)

    p = sub.add_parser("oracle", help="exhaustive ground truth and bound verdict")
    p.add_argument("--problem", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--separable", action="store_true",
                   help="use the shifted separable diagnostic instead of a quadratic")
    p.add_argument("--constraint-r", type=int, default=None)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    _solver_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run a method grid, emit CSV")
    p.add_argument("--suite", choices=["subgraph", "scaling"], default="subgraph")
    p.add_argument("--methods", type=lambda s: [m for m in s.split(",") if m],
                   default=["dpcd", "dpcd0", "greedy", "random"])
    p.add_argument("--n", type=int, default=150)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--instances", type=int, default=3)
    p.add_argument("--sizes", type=lambda s: [int(t) for t in s.split(",") if t],
                   default=[2000, 8000, 32000])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
