"""Seeded input generators for the benchmark workloads.

Everything here is the benchmark's own numpy code: the program under test
only ever sees the files these functions write, so its inputs stay fixed
when the package's own generators change. Nothing in this module imports
dpcd.

Each workload has a `full` size (the measured one) and a `tiny` size (the
warm-up inputs, and the smoke test's only size).
"""

from __future__ import annotations

import json
import os

import numpy as np

WORKLOADS = ("subgraph-planted", "subgraph-large", "quad-small-many", "hash-retrieval")

# Per-workload sizes. subgraph-planted pins the solver to a fixed number of
# sampled searches (max_iterations = patience) so the work per instance does
# not swing with the seed-dependent stopping iteration (47 to 100 at the
# defaults on n=2000), which would swamp any per-candidate speed change.
SIZES = {
    "subgraph-planted": {
        "full": dict(graphs=2, n=2000, k=40, p_in=0.5, p_out=0.02, iterations=30,
                     random_samples=10000),
        "tiny": dict(graphs=2, n=120, k=8, p_in=0.6, p_out=0.05, iterations=4,
                     random_samples=200),
    },
    "subgraph-large": {
        "full": dict(n=20000, k=100, p_in=0.8, p_out=0.0025, iterations=20),
        "tiny": dict(n=300, k=10, p_in=0.8, p_out=0.02, iterations=3),
    },
    "quad-small-many": {
        "full": dict(instances=100, n_min=2, n_max=64, oracle_max_n=16, brute_max_n=10),
        "tiny": dict(instances=8, n_min=2, n_max=12, oracle_max_n=8, brute_max_n=6),
    },
    "hash-retrieval": {
        "full": dict(n=50000, d=32, classes=10, scale=0.6, queries=500, r=32, outer=5,
                     topk=100, check_queries=50),
        "tiny": dict(n=400, d=8, classes=4, scale=0.6, queries=20, r=8, outer=2,
                     topk=10, check_queries=5),
    },
}


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


def planted_edges(rng, n: int, k: int, p_in: float, p_out: float):
    """Edge arrays (u < v, sorted by (u, v)) of a graph with a hidden block.

    Pairs inside a random k-block are kept with probability p_in; the number
    of outside edges is Binomial(outside pairs, p_out) and those edges are
    drawn uniformly without replacement, so memory stays linear in the edge
    count instead of quadratic in n.
    """
    block = np.sort(rng.choice(n, size=k, replace=False))
    in_block = np.zeros(n, dtype=bool)
    in_block[block] = True
    bi, bj = np.triu_indices(k, 1)
    keep = rng.random(bi.size) < p_in
    inside = block[bi[keep]] * n + block[bj[keep]]

    outside_pairs = n * (n - 1) // 2 - k * (k - 1) // 2
    want = int(rng.binomial(outside_pairs, p_out))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < want:
        draw = int((want - keys.size) * 1.05) + 64
        a = rng.integers(0, n, size=draw)
        b = rng.integers(0, n, size=draw)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        ok = (lo < hi) & ~(in_block[lo] & in_block[hi])
        keys = np.unique(np.concatenate([keys, lo[ok] * n + hi[ok]]))
    keys = np.union1d(keys[rng.permutation(keys.size)[:want]], inside)
    return keys // n, keys % n


def write_edge_list(path, n: int, u, v) -> None:
    # unit weights, so the weight column is left to the parser's default
    flat = np.empty(2 * len(u), dtype=np.int64)
    flat[0::2] = u
    flat[1::2] = v
    with open(path, "w") as fh:
        fh.write(f"#nodes {n}\n")
        fh.write(("%d %d\n" * len(u)) % tuple(flat.tolist()))


def write_matrix_market(path, n: int, u, v) -> None:
    # symmetric storage keeps the lower triangle, 1-based
    flat = np.empty(2 * len(u), dtype=np.int64)
    flat[0::2] = np.asarray(v) + 1
    flat[1::2] = np.asarray(u) + 1
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{n} {n} {len(u)}\n")
        fh.write(("%d %d 1\n" * len(u)) % tuple(flat.tolist()))


def write_matrix_binary(path, M: np.ndarray) -> None:
    """The DPCDMAT1 container: magic, two little-endian u64 dims, row-major
    little-endian float64 payload."""
    M = np.ascontiguousarray(M, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(b"DPCDMAT1")
        fh.write(np.array(M.shape, dtype="<u8").tobytes())
        fh.write(M.tobytes())


def write_csv(path, M: np.ndarray, header: str) -> None:
    # repr-exact floats so the parsed matrix equals the generated one
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write("\n".join(",".join(repr(x) for x in row) for row in M.tolist()))
        fh.write("\n")


def generate(workload: str, seed: int, size: str, out_dir: str) -> dict:
    """Write the inputs of one workload into out_dir; return its manifest.

    The manifest is JSON: the parameters, the seeds each instance uses, and
    the paths of the written files. Arrays the checks need (edge arrays,
    quadratic coefficients) go next to the files as .npy or .npz so the workload
    process reads them without the program's help.
    """
    p = dict(SIZES[workload][size])
    rng = workload_rng(workload, seed)
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"workload": workload, "seed": int(seed), "size": size, "params": p,
                "instances": []}

    def path(name):
        return os.path.join(out_dir, name)

    if workload == "subgraph-planted":
        for i in range(p["graphs"]):
            u, v = planted_edges(rng, p["n"], p["k"], p["p_in"], p["p_out"])
            write_edge_list(path(f"g{i}.txt"), p["n"], u, v)
            np.save(path(f"g{i}_edges.npy"), np.stack([u, v]))
            manifest["instances"].append({
                "id": i, "edge_list": path(f"g{i}.txt"), "edges": path(f"g{i}_edges.npy"),
                "n": p["n"], "k": p["k"],
                "solver_seed": int(rng.integers(0, 2**31 - 1)),
                "start_seed": int(rng.integers(0, 2**31 - 1)),
                "random_seed": int(rng.integers(0, 2**31 - 1)),
            })
    elif workload == "subgraph-large":
        u, v = planted_edges(rng, p["n"], p["k"], p["p_in"], p["p_out"])
        write_edge_list(path("large.txt"), p["n"], u, v)
        write_matrix_market(path("large.mtx"), p["n"], u, v)
        np.save(path("large_edges.npy"), np.stack([u, v]))
        manifest["instances"].append({
            "id": 0, "edge_list": path("large.txt"), "matrix_market": path("large.mtx"),
            "edges": path("large_edges.npy"), "n": p["n"], "k": p["k"],
            "solver_seed": int(rng.integers(0, 2**31 - 1)),
            "start_seed": int(rng.integers(0, 2**31 - 1)),
        })
    elif workload == "quad-small-many":
        # n spread evenly over [n_min, n_max], ascending, so even ids (slice
        # problems) and odd ids (cube problems) cover the same sizes and the
        # work and memory of a run depend little on the seed; the instances
        # then run in a seeded order
        count = p["instances"]
        span = p["n_max"] - p["n_min"] + 1
        sizes = p["n_min"] + (np.arange(count) * span) // count
        arrays = {}
        for i, n in enumerate(sizes.tolist()):
            A = rng.standard_normal((n, n))
            arrays[f"A{i}"] = (A + A.T) / 2.0
            arrays[f"c{i}"] = rng.standard_normal(n)
            manifest["instances"].append({
                "id": i, "n": n, "r": int(rng.integers(1, n)) if i % 2 == 0 else None,
                "solver_seed": int(rng.integers(0, 2**31 - 1)),
                "start_seed": int(rng.integers(0, 2**31 - 1)),
            })
        np.savez(path("quadratics.npz"), **arrays)
        manifest["arrays"] = path("quadratics.npz")
        order = rng.permutation(count)
        manifest["instances"] = [manifest["instances"][i] for i in order]
    elif workload == "hash-retrieval":
        centres = rng.standard_normal((p["classes"], p["d"])) * p["scale"]
        labels = rng.integers(0, p["classes"], size=p["n"])
        X = centres[labels] + rng.standard_normal((p["n"], p["d"]))
        q_labels = rng.integers(0, p["classes"], size=p["queries"])
        Xq = centres[q_labels] + rng.standard_normal((p["queries"], p["d"]))
        write_matrix_binary(path("train.bin"), X)
        write_csv(path("train_labels.csv"), labels[:, None], "label")
        write_csv(path("queries.csv"), Xq, ",".join(f"f{j}" for j in range(p["d"])))
        write_csv(path("query_labels.csv"), q_labels[:, None], "label")
        np.save(path("train_labels.npy"), labels)
        np.save(path("query_labels.npy"), q_labels)
        manifest["instances"].append({
            "id": 0, "features": path("train.bin"), "labels": path("train_labels.csv"),
            "queries": path("queries.csv"), "query_labels": path("query_labels.csv"),
            "labels_npy": path("train_labels.npy"),
            "query_labels_npy": path("query_labels.npy"),
            "hash_seed": int(rng.integers(0, 2**31 - 1)),
            "check_seed": int(rng.integers(0, 2**31 - 1)),
        })
    else:
        raise ValueError(f"unknown workload {workload!r}")

    with open(path("manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return manifest
