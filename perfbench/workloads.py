"""The four workloads: one instance each, its output checks, its quality.

An instance runs the package's public entry points the way the CLI
subcommands do (`subgraph`, `quad`/`oracle`, `hash`), through an `api`
namespace so the traced run can substitute timed functions. `run` returns
what the checks and the quality metrics need; `check` recomputes the
outputs with the benchmark's own numpy code and returns a list of
problems; `digest` fingerprints the outputs so rounds (plain or traced)
can be compared bit for bit; `summary` keeps the few numbers the quality
metrics of a round are computed from.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

QUALITY_UNITS = {
    "subgraph-planted": {"density_mean": "edges/node", "density_vs_greedy": "ratio"},
    "subgraph-large": {"density_mean": "edges/node", "density_vs_greedy": "ratio"},
    "quad-small-many": {"optimum_rate": "ratio", "objective_sum": "value"},
    "hash-retrieval": {"map": "score", "precision_at_k": "score", "final_loss": "value",
                       "loss_rises": "count"},
}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()


def _start_point(seed: int, n: int, r) -> np.ndarray:
    # the benchmark draws the initial point itself, so the traced run can
    # replay every solver step from a known start
    rng = np.random.default_rng(seed)
    if r is None:
        return rng.integers(0, 2, size=n) * 2.0 - 1.0
    x = -np.ones(n)
    x[rng.choice(n, size=r, replace=False)] = 1.0
    return x


def _selected(point) -> np.ndarray:
    return np.nonzero(np.asarray(point) > 0)[0]


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Workload:
    def __init__(self, manifest: dict, dpcd):
        self.manifest = manifest
        self.params = manifest["params"]
        self.instances = manifest["instances"]
        self.dpcd = dpcd

    def run(self, api, inst) -> dict:
        raise NotImplementedError

    def check(self, inst, out) -> list:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def summary(self, out) -> dict:
        raise NotImplementedError

    def quality(self, summaries: list) -> dict:
        raise NotImplementedError


class _Subgraph(Workload):
    def _density_reference(self, inst, selection) -> float:
        # unit weights: x'Wx counts each edge inside the selection twice
        u, v = np.load(inst["edges"])
        inside = np.zeros(inst["n"], dtype=bool)
        inside[selection] = True
        return 2.0 * float(np.count_nonzero(inside[u] & inside[v])) / len(selection)

    def _solve(self, api, inst, graph):
        k = inst["k"]
        iterations = self.params["iterations"]
        objective, constraint = api.make_dense_subgraph(graph, k)
        cfg = self.dpcd.SolverConfig(seed=inst["solver_seed"], max_iterations=iterations,
                                     **self._solver_extra(iterations))
        report = api.dpcd_solve(objective, constraint, cfg,
                                initial_point=_start_point(inst["start_seed"], graph.n, k))
        selection = _selected(report.final_point)
        peel = _selected(api.greedy_peel(graph, k))
        return objective, constraint, {
            "graph": graph, "objective": objective, "report": report,
            "selection": selection, "density": api.density(graph, selection),
            "greedy": peel, "greedy_density": api.density(graph, peel),
        }

    def _solver_extra(self, iterations) -> dict:
        return {}

    def check(self, inst, out) -> list:
        problems = []
        k = inst["k"]
        for label, sel, dens in (("dpcd", out["selection"], out["density"]),
                                 ("greedy", out["greedy"], out["greedy_density"])):
            if len(sel) != k:
                problems.append(f"{label} selected {len(sel)} nodes, expected {k}")
                continue
            want = self._density_reference(inst, sel)
            if not _close(dens, want):
                problems.append(f"{label} density {dens!r} != reference {want!r}")
        report = out["report"]
        value = out["objective"].value(report.final_point)
        if value != report.final_value:
            problems.append(f"final_value {report.final_value!r} != objective value {value!r}")
        return problems

    def summary(self, out):
        return {"density": out["density"], "greedy_density": out["greedy_density"]}

    def quality(self, summaries):
        return {
            "density_mean": float(np.mean([s["density"] for s in summaries])),
            "density_vs_greedy": float(np.mean([s["density"] / s["greedy_density"]
                                                for s in summaries])),
        }


class SubgraphPlanted(_Subgraph):
    """A few planted graphs, n=2000 (sparse-gather side of flips_delta)."""

    def _solver_extra(self, iterations):
        # patience equal to the cap: every instance runs the same number
        # of sampled searches (see inputs.SIZES)
        return {"neighborhood_patience": iterations}

    def run(self, api, inst):
        graph = api.load_edge_list(inst["edge_list"])
        objective, constraint, out = self._solve(api, inst, graph)
        rnd = api.random_search(objective, constraint, self.params["random_samples"],
                                seed=inst["random_seed"])
        out["random"] = _selected(rnd.optimum)
        out["random_density"] = api.density(graph, out["random"])
        return out

    def check(self, inst, out):
        problems = super().check(inst, out)
        if len(out["random"]) != inst["k"]:
            problems.append(f"random search selected {len(out['random'])} nodes")
        elif not _close(out["random_density"], self._density_reference(inst, out["random"])):
            problems.append("random search density disagrees with the reference")
        return problems

    def digest(self, out):
        return _sha(out["selection"], out["report"].final_value, out["density"],
                    out["greedy"], out["random"], out["random_density"])


class SubgraphLarge(_Subgraph):
    """One n=20000 graph read as an edge list and as MatrixMarket."""

    def run(self, api, inst):
        graph = api.load_edge_list(inst["edge_list"])
        with open(inst["matrix_market"], "rb") as fh:
            mm = api.load_matrix_market(fh)
        _, _, out = self._solve(api, inst, graph)
        out["matrix_market"] = mm
        return out

    def check(self, inst, out):
        problems = super().check(inst, out)
        g, mm = out["graph"], out["matrix_market"]
        u, v = np.load(inst["edges"])
        for label, h in (("edge list", g), ("matrix market", mm)):
            if not (h.n == inst["n"] and np.array_equal(h.u, u) and np.array_equal(h.v, v)
                    and np.all(h.w == 1.0)):
                problems.append(f"{label} graph differs from the generated edges")
        return problems

    def digest(self, out):
        return _sha(out["selection"], out["report"].final_value, out["density"],
                    out["greedy"], out["greedy_density"])


class QuadSmallMany(Workload):
    """100 small dense quadratics; slice problems at even ids, cube at odd."""

    def __init__(self, manifest, dpcd):
        super().__init__(manifest, dpcd)
        # coefficient arrays are the generated inputs, read before timing
        with np.load(manifest["arrays"]) as npz:
            self.arrays = {i["id"]: (npz[f"A{i['id']}"], npz[f"c{i['id']}"])
                           for i in self.instances}

    def _constraint(self, inst):
        return self.dpcd.UNCONSTRAINED if inst["r"] is None else self.dpcd.exact_ones(inst["r"])

    def run(self, api, inst):
        A, c = self.arrays[inst["id"]]
        objective = api.make_quadratic(A, c, 0.0)
        constraint = self._constraint(inst)
        report = api.dpcd_solve(objective, constraint,
                                self.dpcd.SolverConfig(seed=inst["solver_seed"]),
                                initial_point=_start_point(inst["start_seed"], inst["n"],
                                                           inst["r"]))
        oracle = None
        if inst["n"] <= self.params["oracle_max_n"]:
            oracle = api.exhaustive_oracle(objective, constraint)
        return {"report": report, "oracle": oracle}

    def _values(self, inst, X) -> np.ndarray:
        A, c = self.arrays[inst["id"]]
        return np.einsum("ij,jk,ik->i", X, A, X) + X @ c

    def check(self, inst, out):
        problems = []
        x = np.asarray(out["report"].final_point)
        n, r = inst["n"], inst["r"]
        if x.shape != (n,) or not np.all(np.abs(x) == 1.0):
            return [f"final point is not a sign vector of length {n}"]
        if r is not None and int(np.sum(x > 0)) != r:
            problems.append(f"final point has {int(np.sum(x > 0))} ones, expected {r}")
        value = float(self._values(inst, x[None, :])[0])
        if not _close(value, out["report"].final_value):
            problems.append(f"final_value {out['report'].final_value!r} != x'Ax + c'x {value!r}")
        oracle = out["oracle"]
        if oracle is not None and n <= self.params["brute_max_n"]:
            X = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
            if r is not None:
                X = X[np.sum(X > 0, axis=1) == r]
            best = float(self._values(inst, X).min())
            if not _close(oracle.f_min, best):
                problems.append(f"oracle minimum {oracle.f_min!r} != brute force {best!r}")
        return problems

    def digest(self, out):
        o = out["oracle"]
        return _sha(np.asarray(out["report"].final_point), out["report"].final_value,
                    None if o is None else (o.f_min, o.f_max, o.evaluations))

    def summary(self, out):
        oracle = out["oracle"]
        return {"value": out["report"].final_value,
                "optimum": None if oracle is None else oracle.f_min}

    def quality(self, summaries):
        reached = [s["value"] <= s["optimum"] + 1e-9 * max(1.0, abs(s["optimum"]))
                   for s in summaries if s["optimum"] is not None]
        return {
            "optimum_rate": float(np.mean(reached)) if reached else 0.0,
            "objective_sum": float(sum(s["value"] for s in summaries)),
        }


class HashRetrieval(Workload):
    """Code learning on 50000x32 features, then Hamming-ranking retrieval."""

    def run(self, api, inst):
        p, d = self.params, self.dpcd
        X = api.load_matrix(inst["features"])
        raw = api.load_matrix(inst["labels"])
        Xq = api.load_matrix(inst["queries"])
        yq = api.load_matrix(inst["query_labels"])
        # single-column labels become one-hot rows, as the hash subcommand does
        flat = raw.ravel()
        Y = (flat[:, None] == np.unique(flat)[None, :]).astype(float)
        inner = d.SolverConfig(max_iterations=20, neighborhood_cadence=0,
                               threshold_policy=d.ThresholdPolicy(mode=d.GRADIENT_AVERAGE))
        model = api.alternating_hash(X, Y, p["r"], outer_iterations=p["outer"], inner=inner,
                                     lam=1.0, seed=inst["hash_seed"])
        codes = api.encode(Xq, model.P)
        score = api.evaluate_retrieval(codes, model.B, yq.ravel(), flat, k=p["topk"])
        return {"model": model, "codes": codes, "score": score, "labels": flat,
                "query_labels": yq.ravel()}

    def _reference(self, codes, db, q_labels, db_labels, k):
        # ascending Hamming distance, ties broken by the lower database id
        ids = np.arange(db.shape[0])
        ap, hits = [], []
        for q, lab in zip(codes, q_labels):
            dist = np.count_nonzero(db != q, axis=1)
            rel = db_labels[np.lexsort((ids, dist))] == lab
            pos = np.nonzero(rel)[0]
            ap.append(float(np.mean(np.arange(1, len(pos) + 1) / (pos + 1.0))) if len(pos) else 0.0)
            hits.append(float(np.count_nonzero(rel[:k])) / k)
        return float(np.mean(ap)), float(np.mean(hits))

    def check(self, inst, out):
        p = self.params
        problems = []
        B, codes = out["model"].B, out["codes"]
        if B.shape != (p["n"], p["r"]) or not np.all(np.abs(B) == 1.0):
            problems.append(f"training codes are not a ({p['n']}, {p['r']}) sign matrix")
        if codes.shape != (p["queries"], p["r"]) or not np.all(np.abs(codes) == 1.0):
            problems.append(f"query codes are not a ({p['queries']}, {p['r']}) sign matrix")
        if problems:
            return problems
        if not (np.array_equal(out["labels"], np.load(inst["labels_npy"]))
                and np.array_equal(out["query_labels"], np.load(inst["query_labels_npy"]))):
            problems.append("parsed labels differ from the generated ones")
        rng = np.random.default_rng(inst["check_seed"])
        sub = np.sort(rng.choice(p["queries"], size=p["check_queries"], replace=False))
        got = self.dpcd.evaluate_retrieval(codes[sub], B, out["query_labels"][sub],
                                           out["labels"], k=p["topk"])
        want = self._reference(codes[sub], B, out["query_labels"][sub], out["labels"], p["topk"])
        if not (_close(got.map, want[0]) and _close(got.precision_at_k, want[1])):
            problems.append(f"retrieval on {len(sub)} queries {got.map!r}/{got.precision_at_k!r} "
                            f"!= reference {want[0]!r}/{want[1]!r}")
        return problems

    def digest(self, out):
        m = out["model"]
        return _sha(m.B, m.W, m.P, tuple(m.loss_history), out["codes"],
                    out["score"].map, out["score"].precision_at_k)

    def summary(self, out):
        loss = out["model"].loss_history
        return {
            "map": out["score"].map,
            "precision_at_k": out["score"].precision_at_k,
            "final_loss": float(loss[-1]),
            # the README promises a non-increasing history; a rise is
            # counted here, not treated as a failed instance
            "loss_rises": float(sum(b > a for a, b in zip(loss, loss[1:]))),
        }

    def quality(self, summaries):
        return {k: float(np.mean([s[k] for s in summaries])) for k in summaries[0]}


CLASSES = {
    "subgraph-planted": SubgraphPlanted,
    "subgraph-large": SubgraphLarge,
    "quad-small-many": QuadSmallMany,
    "hash-retrieval": HashRetrieval,
}


def load(manifest_path: str, dpcd) -> Workload:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    return CLASSES[manifest["workload"]](manifest, dpcd)
