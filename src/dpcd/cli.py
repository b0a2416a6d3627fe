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
import inspect
import json
import sys
import time
from dataclasses import replace

import numpy as np

from . import graph as graph_mod
from . import hashing as hash_mod
from .baselines import exhaustive_oracle, greedy_peel, random_search
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

_METHODS = ("dpcd", "dpcd0", "greedy", "random")

_RANDOM_SAMPLES = 10000  # draws of the random-search baseline
# hash --lambda/--outer and oracle --limit take their defaults from these
_HASH_PARAMS = inspect.signature(hash_mod.alternating_hash).parameters
_ORACLE_PARAMS = inspect.signature(exhaustive_oracle).parameters

# solver flag dest -> SolverConfig field and help, for the fields that the
# documents' config block reports besides the threshold policy
_SOLVER_FLAGS = (
    ("alpha1", "alpha1", "threshold multiplier of the +1 side"),
    ("alpha2", "alpha2", "threshold multiplier of the -1 side"),
    ("max_iters", "max_iterations", "iteration cap"),
    ("nbr_cadence", "neighborhood_cadence", "local search every T iterations, 0 for none"),
    ("nbr_radius", "neighborhood_radius", "flips (swap pairs on a slice) per search move"),
    ("nbr_budget", "neighborhood_budget", "sampled candidates per search"),
    ("nbr_patience", "neighborhood_patience", "fruitless sampled searches before a stop"),
)


def _solver_parent(base: SolverConfig) -> argparse.ArgumentParser:
    # every default is the subcommand's base config's value
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("solver")
    for dest, name, text in _SOLVER_FLAGS:
        default = getattr(base, name)
        g.add_argument("--" + dest.replace("_", "-"), dest=dest, type=type(default),
                       default=default, help=text + " (default %(default)s)")
    policy = base.threshold_policy
    g.add_argument("--threshold-mode", choices=[LIPSCHITZ, GRADIENT_AVERAGE],
                   default=policy.mode, help="threshold policy (default %(default)s)")
    g.add_argument("--epsilon", type=float, default=policy.epsilon,
                   help="threshold slack; defaults to max(1e-6, 1e-6*L0)")
    g.add_argument("--seed", type=int, default=base.seed, help="random seed (default %(default)s)")
    return parent


def _output_parent(timings: bool = True) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--format", choices=["json", "csv"], default="json",
                        help="output format (default %(default)s)")
    if timings:
        parent.add_argument("--timings", action="store_true")
    return parent


def _config_from(args) -> SolverConfig:
    return SolverConfig(
        **{name: getattr(args, dest) for dest, name, _ in _SOLVER_FLAGS},
        threshold_policy=ThresholdPolicy(mode=args.threshold_mode, epsilon=args.epsilon),
        seed=args.seed,
    )


def _solve_fields(cfg: SolverConfig, report) -> dict:
    # the solve summary shared by the subgraph and quad documents
    return {
        "seed": cfg.seed,
        "config": {
            **{name: getattr(cfg, name) for _, name, _ in _SOLVER_FLAGS},
            "threshold_mode": cfg.threshold_policy.mode,
            "epsilon": cfg.threshold_policy.epsilon,
        },
        "iterations": report.iterations,
        "total_flips": int(sum(report.flips_per_iteration)),
        "converged": report.converged,
    }


def _emit(args, doc: dict, wall_time: float = None) -> None:
    if getattr(args, "timings", False):
        doc["wall_time"] = wall_time
    if args.format == "json":
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
    load = graph_mod.load_matrix_market if fmt == "matrix-market" else graph_mod.load_edge_list
    return load(sys.stdin.buffer if path == "-" else path)


def cmd_subgraph(args) -> int:
    if args.k < 1:
        raise DomainError("k must be >= 1")
    cfg = _config_from(args)
    g = _load_graph(args.graph, args.graph_format)
    objective, constraint = make_dense_subgraph(g, args.k)
    report = dpcd_solve(objective, constraint, cfg)
    selection = np.nonzero(np.asarray(report.final_point) > 0)[0]
    doc = {
        "command": "subgraph",
        "n": g.n,
        "k": args.k,
        **_solve_fields(cfg, report),
        "density": graph_mod.density(g, selection),
        "objective_value": report.final_value - g.total_weight,
        "solver_objective": report.final_value,
        "dropped_constant": -g.total_weight,
        "selection": [int(i) for i in selection],
    }
    if args.baselines:
        peel = greedy_peel(g, args.k)
        peel_sel = np.nonzero(np.asarray(peel) > 0)[0]
        rnd = random_search(objective, constraint, _RANDOM_SAMPLES, seed=args.seed + 1)
        rnd_sel = np.nonzero(np.asarray(rnd.optimum) > 0)[0]
        doc["baselines"] = {
            "greedy_density": graph_mod.density(g, peel_sel),
            "random_density": graph_mod.density(g, rnd_sel),
        }
    _emit(args, doc, report.wall_time)
    return 0


def _labels(raw: np.ndarray) -> np.ndarray:
    # a label file with several columns is a label matrix; a single
    # column is a vector of class ids
    return raw if raw.ndim == 2 and raw.shape[1] > 1 else raw.ravel()


def cmd_hash(args) -> int:
    cfg = _config_from(args)
    X = hash_mod.load_matrix(args.features)
    labels = _labels(hash_mod.load_matrix(args.labels))
    # class ids train against one-hot rows
    Y = (labels if labels.ndim == 2
         else (labels[:, None] == np.unique(labels)[None, :]).astype(float))
    started = time.perf_counter()
    model = hash_mod.alternating_hash(
        X, Y, args.code_length, outer_iterations=args.outer,
        inner=cfg, lam=args.lam, seed=args.seed)
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
        yq = _labels(hash_mod.load_matrix(args.eval_labels))
        if Xq.shape[0] != yq.shape[0]:
            raise DomainError("query features and labels disagree on row count")
        score = hash_mod.evaluate_retrieval(
            hash_mod.encode(Xq, model.P), model.B, yq, labels, k=args.topk)
        doc["eval"] = {"map": score.map, "precision_at_k": score.precision_at_k,
                       "k": score.k}
    _emit(args, doc, elapsed)
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
    # json.load reads NaN, Infinity and -Infinity as numbers
    for name, field in (("A", A), ("c", c), ("d", d)):
        if not np.isfinite(field).all():
            raise ParseError(f"problem file field {name} holds a non-finite number")
    r = spec.get("r")
    if r is not None and type(r) is not int:
        raise ParseError(f"problem file field r must be an integer, got {r!r}")
    return make_quadratic(A, c, d), (UNCONSTRAINED if r is None else exact_ones(r))


def _problem(args, missing: str):
    """(objective, constraint) for quad and oracle: a problem file, the
    shifted separable diagnostic or a seeded random quadratic, then the
    --constraint-r override. `missing` is the error when there is no input."""
    rng = np.random.default_rng(args.seed)
    constraint = UNCONSTRAINED
    separable = getattr(args, "separable", False)
    if args.problem is not None:
        objective, constraint = _quad_from_file(args.problem)
    elif args.n is None:
        raise DomainError("--separable needs --n" if separable else missing)
    elif args.n < 1:
        raise DomainError(f"--n must be >= 1, got {args.n}")
    elif separable:
        objective = make_shifted_separable(rng.uniform(0.05, 0.95, size=args.n))
    else:
        A = rng.standard_normal((args.n, args.n))
        objective = make_quadratic((A + A.T) / 2.0, rng.standard_normal(args.n), 0.0)
    if args.constraint_r is not None:
        constraint = exact_ones(args.constraint_r)
    return objective, constraint


def cmd_quad(args) -> int:
    cfg = _config_from(args)
    objective, constraint = _problem(
        args, "pass --problem FILE or --n for a generated instance")
    report = dpcd_solve(objective, constraint, cfg)
    doc = {
        "command": "quad",
        "n": objective.dimension,
        "constraint_r": constraint.r if constraint.is_exact_ones else None,
        **_solve_fields(cfg, report),
        "final_value": report.final_value,
        "final_point": [int(v) for v in report.final_point],
    }
    _emit(args, doc, report.wall_time)
    return 0


def cmd_oracle(args) -> int:
    cfg = _config_from(args)
    objective, constraint = _problem(
        args, "pass --problem, or --n (optionally with --separable)")
    truth = exhaustive_oracle(objective, constraint, limit=args.limit)
    report = dpcd_solve(objective, constraint, cfg)
    eps = effective_epsilon(cfg.threshold_policy, objective.lipschitz or 0.0)
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
        doc["coefficient_bound"] = step_bound(objective, constraint, eps)
    _emit(args, doc)
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
            if method in ("dpcd", "dpcd0"):
                # dpcd0 is the same solve with the local search switched off
                cfg = SolverConfig(seed=solver_seed)
                if method == "dpcd0":
                    cfg = replace(cfg, neighborhood_cadence=0)
                value = dpcd_solve(objective, constraint, cfg).final_value - g.total_weight
            elif method == "greedy":
                sel = greedy_peel(g, args.k)
                value = objective.value(sel) - g.total_weight
            else:
                best = random_search(objective, constraint, _RANDOM_SAMPLES, seed=sample_seed)
                value = best.optimal_value - g.total_weight
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


# the flags each bench suite reads, with their defaults
_BENCH_DEFAULTS = {
    "subgraph": {"methods": list(_METHODS), "n": 150, "k": 10, "instances": 3},
    "scaling": {"methods": ["dpcd"], "sizes": [2000, 8000, 32000]},
}


def cmd_bench(args) -> int:
    if args.seed < 0:
        raise DomainError(f"--seed must be >= 0, got {args.seed}")
    defaults = _BENCH_DEFAULTS[args.suite]
    for flag in ("methods", "n", "k", "instances", "sizes"):
        if getattr(args, flag) is None:
            setattr(args, flag, defaults.get(flag))
        elif flag not in defaults:
            raise DomainError(f"--{flag} does not apply to the {args.suite} suite")
    if not args.methods:
        raise DomainError("method list is empty")
    for m in args.methods:
        if m not in _METHODS:
            raise DomainError(f"unknown method {m!r}; known: {', '.join(_METHODS)}")
        if args.suite == "scaling" and m != "dpcd":
            raise DomainError(f"--methods: the scaling suite runs only dpcd, not {m!r}")
    if args.instances is not None and args.instances < 1:
        raise DomainError(f"--instances must be >= 1, got {args.instances}")
    if args.sizes is not None and min(args.sizes, default=0) < 1:
        raise DomainError(f"--sizes needs one or more entries, each >= 1, got {args.sizes}")
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

    def solve_command(name, text, base=SolverConfig(), timings=True):
        return sub.add_parser(name, help=text, parents=[
            _output_parent(timings), _solver_parent(base)])

    p = solve_command("subgraph", "densest-k-subgraph on a graph file")
    p.add_argument("graph", help="edge list or MatrixMarket path, '-' for stdin")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--graph-format", choices=["auto", "edge-list", "matrix-market"],
                   default="auto", help="input format; auto reads .mtx and .mm files as "
                   "MatrixMarket (default %(default)s)")
    p.add_argument("--baselines", action="store_true")
    p.set_defaults(func=cmd_subgraph)

    p = solve_command("hash", "learn binary codes and optionally score retrieval",
                      hash_mod.CODE_STEP)
    p.add_argument("features")
    p.add_argument("labels")
    p.add_argument("--code-length", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=_HASH_PARAMS["lam"].default,
                   help="ridge weight of the regression matrix (default %(default)s)")
    p.add_argument("--outer", type=int, default=_HASH_PARAMS["outer_iterations"].default,
                   help="alternating rounds (default %(default)s)")
    p.add_argument("--eval", default=None, help="query feature file")
    p.add_argument("--eval-labels", default=None)
    p.add_argument("--topk", type=int, default=50,
                   help="retrieved items scored per query (default %(default)s)")
    p.set_defaults(func=cmd_hash)

    p = solve_command("quad", "solve a quadratic problem file or a seeded instance")
    p.add_argument("--problem", default=None, help="JSON file with A, c, optional d, r")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--constraint-r", type=int, default=None)
    p.set_defaults(func=cmd_quad)

    p = solve_command("oracle", "exhaustive ground truth and bound verdict", timings=False)
    p.add_argument("--problem", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--separable", action="store_true",
                   help="use the shifted separable diagnostic instead of a quadratic")
    p.add_argument("--constraint-r", type=int, default=None)
    p.add_argument("--limit", type=int, default=_ORACLE_PARAMS["limit"].default,
                   help="largest dimension enumerated (default %(default)s)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run a method grid, emit CSV")
    p.add_argument("--suite", choices=["subgraph", "scaling"], default="subgraph",
                   help="method grid to run (default %(default)s)")
    # suite flags default to None: cmd_bench fills in the suite's own
    # defaults and refuses a flag the suite does not read
    p.add_argument("--methods", type=lambda s: [m for m in s.split(",") if m])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--instances", type=int)
    p.add_argument("--sizes", type=lambda s: [int(t) for t in s.split(",") if t])
    p.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")
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
