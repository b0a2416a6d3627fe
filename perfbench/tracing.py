"""Spans around every call the benchmark makes into dpcd, from outside.

No file of the package changes. The traced run hands the workloads an API
whose functions open a span per call; objectives come back rebuilt with
`dataclasses.replace` so their value, gradient, value_batch and
flips_delta callables are timed and counted too. `alternating_hash` calls
the solver and the objective builder through the hashing module's globals,
so those names are swapped for traced ones while a traced round runs.

A span is (name, start, end, parent span index, instance id). Spans are
kept in memory and written out when the run ends. A span's self time is
its duration minus the time its direct children cover; the layer of a
span is the module prefix of its name.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np

LAYERS = ("graph", "objectives", "solver", "baselines", "hashing")

# every per-layer metric the traced run reports, with its unit; a layer a
# workload bypasses reports 0
PER_LAYER_UNITS = {
    "startup.import_s": "s",
    "graph.load_edge_list_s": "s",
    "graph.load_edge_list_edges": "count",
    "graph.load_matrix_market_s": "s",
    "graph.density_s": "s",
    "graph.self_s": "s",
    "objectives.build_s": "s",
    "objectives.gradient_calls": "count",
    "objectives.gradient_s": "s",
    "objectives.value_calls": "count",
    "objectives.value_s": "s",
    "objectives.value_batch_rows": "count",
    "objectives.value_batch_s": "s",
    "objectives.flips_delta_calls": "count",
    "objectives.flips_delta_s": "s",
    "objectives.candidates": "count",
    "objectives.self_s": "s",
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.iterations": "count",
    "solver.converged_rate": "ratio",
    "solver.principal_flips": "count",
    "solver.search_flips": "count",
    "solver.searches": "count",
    "solver.search_hit_ratio": "ratio",
    "baselines.greedy_peel_s": "s",
    "baselines.random_search_s": "s",
    "baselines.exhaustive_oracle_s": "s",
    "baselines.oracle_evaluations": "count",
    "baselines.self_s": "s",
    "hashing.load_matrix_s": "s",
    "hashing.alternating_hash_s": "s",
    "hashing.rounds": "count",
    "hashing.round_s": "s",
    "hashing.encode_s": "s",
    "hashing.evaluate_retrieval_s": "s",
    "hashing.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
    "trace.spans": "count",
}

# span name -> per-layer time metric (inclusive duration)
_TIMED = {
    "graph.load_edge_list": "graph.load_edge_list_s",
    "graph.load_matrix_market": "graph.load_matrix_market_s",
    "graph.density": "graph.density_s",
    "objectives.build": "objectives.build_s",
    "objectives.gradient": "objectives.gradient_s",
    "objectives.value": "objectives.value_s",
    "objectives.value_batch": "objectives.value_batch_s",
    "objectives.flips_delta": "objectives.flips_delta_s",
    "solver.dpcd_solve": "solver.solve_s",
    "baselines.greedy_peel": "baselines.greedy_peel_s",
    "baselines.random_search": "baselines.random_search_s",
    "baselines.exhaustive_oracle": "baselines.exhaustive_oracle_s",
    "hashing.load_matrix": "hashing.load_matrix_s",
    "hashing.alternating_hash": "hashing.alternating_hash_s",
    "hashing.encode": "hashing.encode_s",
    "hashing.evaluate_retrieval": "hashing.evaluate_retrieval_s",
}

# span name -> per-layer call-count metric
_CALLS = {
    "objectives.gradient": "objectives.gradient_calls",
    "objectives.value": "objectives.value_calls",
    "objectives.flips_delta": "objectives.flips_delta_calls",
}


def plain_api(dpcd) -> SimpleNamespace:
    """The package functions the workloads call, untouched."""
    return SimpleNamespace(
        load_edge_list=dpcd.load_edge_list,
        load_matrix_market=dpcd.load_matrix_market,
        density=dpcd.density,
        make_dense_subgraph=dpcd.make_dense_subgraph,
        make_quadratic=dpcd.make_quadratic,
        dpcd_solve=dpcd.dpcd_solve,
        greedy_peel=dpcd.greedy_peel,
        random_search=dpcd.random_search,
        exhaustive_oracle=dpcd.exhaustive_oracle,
        load_matrix=dpcd.load_matrix,
        alternating_hash=dpcd.alternating_hash,
        encode=dpcd.encode,
        evaluate_retrieval=dpcd.evaluate_retrieval,
    )


@dataclasses.dataclass
class _Solve:
    # one dpcd_solve call, replayed after the instance to split its moves
    objective: object
    constraint: object
    config: object
    start: np.ndarray
    iterates: list
    iterations: int
    converged: bool


class Tracer:
    """Records spans and counts while an instance is open.

    Calls made with no instance open (output checks, replays) pass through
    untraced, so checking never shows up as layer time.
    """

    def __init__(self, dpcd):
        self._dpcd = dpcd
        self.spans = []
        self._stack = []
        self.instance = None
        self.counts = defaultdict(float)
        self._solves = []

    # -- span recording -------------------------------------------------

    def wrap(self, name, fn, rows=None):
        """fn wrapped in a span; rows(*args) adds to the counter `name`."""

        def traced(*args, **kwargs):
            if self.instance is None:
                return fn(*args, **kwargs)
            if rows is not None:
                self.counts[name] += rows(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.instance)

        return traced

    def objective(self, f):
        """f with its callables timed; candidates and batch rows counted."""
        w = self.wrap
        return dataclasses.replace(
            f,
            value=w("objectives.value", f.value),
            gradient=w("objectives.gradient", f.gradient),
            value_batch=None if f.value_batch is None else w(
                "objectives.value_batch", f.value_batch, rows=lambda X: len(X)),
            flips_delta=None if f.flips_delta is None else w(
                "objectives.flips_delta", f.flips_delta, rows=lambda x, F: len(F)),
        )

    def _solver(self):
        solve = self.wrap("solver.dpcd_solve", self._dpcd.dpcd_solve)
        SolverConfig = self._dpcd.SolverConfig
        UNCONSTRAINED = self._dpcd.UNCONSTRAINED

        def dpcd_solve(f, c=UNCONSTRAINED, cfg=None, initial_point=None, callback=None):
            if self.instance is None or initial_point is None:
                return solve(f, c, cfg, initial_point=initial_point, callback=callback)
            iterates = []

            def record(x):
                iterates.append(np.packbits(np.asarray(x) > 0))
                if callback is not None:
                    callback(x)

            report = solve(f, c, cfg, initial_point=initial_point, callback=record)
            self._solves.append(_Solve(
                f, c, cfg or SolverConfig(), np.packbits(np.asarray(initial_point) > 0),
                iterates, report.iterations, report.converged))
            return report

        return dpcd_solve

    def api(self) -> SimpleNamespace:
        d, w = self._dpcd, self.wrap

        def builder(name, make):
            traced = w(name, make)

            def build(*args, **kwargs):
                out = traced(*args, **kwargs)
                if isinstance(out, tuple):
                    return (self.objective(out[0]),) + out[1:]
                return self.objective(out)

            return build

        def counted(name, fn, count):
            traced = w(name, fn)

            def call(*args, **kwargs):
                out = traced(*args, **kwargs)
                if self.instance is not None:
                    self.counts[name] += count(out)
                return out

            return call

        return SimpleNamespace(
            load_edge_list=counted("graph.load_edge_list", d.load_edge_list,
                                   lambda g: g.edge_count),
            load_matrix_market=w("graph.load_matrix_market", d.load_matrix_market),
            density=w("graph.density", d.density),
            make_dense_subgraph=builder("objectives.build", d.make_dense_subgraph),
            make_quadratic=builder("objectives.build", d.make_quadratic),
            dpcd_solve=self._solver(),
            greedy_peel=w("baselines.greedy_peel", d.greedy_peel),
            random_search=w("baselines.random_search", d.random_search),
            exhaustive_oracle=counted("baselines.exhaustive_oracle", d.exhaustive_oracle,
                                      lambda res: res.evaluations),
            load_matrix=w("hashing.load_matrix", d.load_matrix),
            alternating_hash=counted("hashing.alternating_hash", d.alternating_hash,
                                     lambda model: model.outer_iterations),
            encode=w("hashing.encode", d.encode),
            evaluate_retrieval=w("hashing.evaluate_retrieval", d.evaluate_retrieval),
        )

    @contextmanager
    def patched_hashing(self):
        """Route alternating_hash's inner solver and objective builder
        through the tracer for the duration of a traced round."""
        mod = self._dpcd.hashing
        saved = {k: getattr(mod, k) for k in
                 ("dpcd_solve", "make_hashing_objective", "solve_projection")}
        traced_build = self.wrap("objectives.build", saved["make_hashing_objective"])
        mod.dpcd_solve = self._solver()
        mod.make_hashing_objective = lambda *a, **kw: self.objective(traced_build(*a, **kw))
        mod.solve_projection = self.wrap("hashing.solve_projection", saved["solve_projection"])
        try:
            yield
        finally:
            for k, v in saved.items():
                setattr(mod, k, v)

    @contextmanager
    def open_instance(self, instance_id):
        self.instance = instance_id
        self._solves = []
        try:
            yield
        finally:
            self.instance = None

    # -- solver replay --------------------------------------------------

    def replay_solves(self) -> None:
        """Split every recorded solve into principal and search moves.

        Run after the instance closed, so none of this is timed. Raises if
        an iteration without a search does not reproduce. Each step
        is recomputed from the recorded iterate with the package's public
        derive_thresholds, principal_sets and balanced_flip or
        unconstrained_flip; the search moved the point by whatever
        separates the principal result from the next recorded iterate.
        """
        d = self._dpcd
        for s in self._solves:
            n = s.objective.dimension
            x = np.where(np.unpackbits(s.start, count=n).astype(bool), 1.0, -1.0)
            cadence = s.config.neighborhood_cadence
            for k, packed in enumerate(s.iterates, start=1):
                nxt = np.where(np.unpackbits(packed, count=n).astype(bool), 1.0, -1.0)
                g = np.asarray(s.objective.gradient(x), dtype=float)
                l1, l2 = d.derive_thresholds(g, s.config.threshold_policy, s.objective.lipschitz)
                sets = d.principal_sets(x, g, l1, l2, s.config.alpha1, s.config.alpha2)
                if s.constraint.is_exact_ones:
                    principal = d.balanced_flip(x, g, sets)
                else:
                    principal = d.unconstrained_flip(x, sets)
                moved = int(np.sum(principal != x))
                self.counts["solver.principal_flips"] += moved
                if cadence > 0 and (k % cadence == 0 or moved == 0):
                    self.counts["solver.searches"] += 1
                    searched = int(np.sum(nxt != principal))
                    self.counts["solver.search_flips"] += searched
                    self.counts["solver.search_hits"] += searched > 0
                elif not np.array_equal(nxt, principal):
                    raise RuntimeError(f"solver replay diverged at iteration {k}")
                x = nxt
            self.counts["solver.iterations"] += s.iterations
            self.counts["solver.solves"] += 1
            self.counts["solver.converged"] += s.converged
        self._solves = []

    # -- aggregation ----------------------------------------------------

    def round_metrics(self, first_span: int, wall_s: float) -> dict:
        """Per-layer metrics of the spans recorded since first_span, whose
        instances took wall_s in total; resets the counters."""
        spans = self.spans[first_span:]
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(spans, start=first_span):
            dur = end - start
            self_time = dur - child[i]
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += self_time
            covered += self_time
            if name in _TIMED:
                out[_TIMED[name]] += dur
            if name in _CALLS:
                out[_CALLS[name]] += 1
        c = self.counts
        out["graph.load_edge_list_edges"] = c["graph.load_edge_list"]
        out["objectives.value_batch_rows"] = c["objectives.value_batch"]
        out["objectives.candidates"] = c["objectives.flips_delta"]
        out["baselines.oracle_evaluations"] = c["baselines.exhaustive_oracle"]
        for key in ("iterations", "principal_flips", "search_flips", "searches"):
            out[f"solver.{key}"] = c[f"solver.{key}"]
        out["solver.converged_rate"] = c["solver.converged"] / c["solver.solves"] if c["solver.solves"] else 0.0
        out["solver.search_hit_ratio"] = c["solver.search_hits"] / c["solver.searches"] if c["solver.searches"] else 0.0
        rounds = c["hashing.alternating_hash"]
        out["hashing.rounds"] = rounds
        projection = sum(e - s for name, s, e, _, _ in spans if name == "hashing.solve_projection")
        out["hashing.round_s"] = (out["hashing.alternating_hash_s"] - projection) / rounds if rounds else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.uncovered_s"] = wall_s - covered
        out["trace.spans"] = float(len(spans))
        self.counts = defaultdict(float)
        return out
