"""End-to-end checks of the command line, run through real subprocesses.

Documents are validated against the shipped schema.json so the emitted
shapes cannot drift from the documented ones. Exit-code policy: 0 success,
1 numeric failure, 2 usage or input error.
"""

import argparse
import dataclasses
import hashlib
import inspect
import json
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from dpcd import SolverConfig, cli, exhaustive_oracle, hashing, save_matrix_binary

SCHEMA = json.loads(resources.files("dpcd").joinpath("schema.json").read_text())

_TYPES = {
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "array": list,
    "object": dict,
}

TRIANGLE = "# toy triangle\n0 1 1.0\n0 2 1.0\n1 2 1.0\n"

TRIANGLE_MM = (
    "%%MatrixMarket matrix coordinate real symmetric\n"
    "3 3 3\n"
    "1 2 1.0\n"
    "1 3 1.0\n"
    "2 3 1.0\n"
)


def run_cli(*args, stdin_bytes=None):
    return subprocess.run(
        [sys.executable, "-m", "dpcd", *[str(a) for a in args]],
        input=stdin_bytes, capture_output=True, timeout=240)


def check_schema(doc, kind):
    shape = SCHEMA["documents"][kind]
    for key in shape["required"]:
        assert key in doc, f"{kind} document lacks {key}"
    for key, value in doc.items():
        assert key in shape["properties"], f"undocumented key {key}"
        tname = shape["properties"][key]
        if tname.endswith("?"):
            if value is None:
                continue
            tname = tname[:-1]
        assert isinstance(value, _TYPES[tname]), (key, tname, value)
        if tname in ("integer", "number"):
            assert not isinstance(value, bool), key
    # strict RFC 8259: no NaN or Infinity token anywhere in the document
    json.dumps(doc, allow_nan=False)


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    return path


@pytest.fixture
def hash_files(tmp_path):
    rng = np.random.default_rng(7)
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    X = labels[:, None] * 2.0 + rng.standard_normal((8, 3)) * 0.25
    feat = tmp_path / "features.csv"
    lab = tmp_path / "labels.csv"
    feat.write_text("f0,f1,f2\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in X) + "\n")
    lab.write_text("\n".join(str(v) for v in labels) + "\n")
    return feat, lab, X, labels


class TestSubgraph:
    def test_triangle_document(self, triangle_path):
        proc = run_cli("subgraph", triangle_path, "--k", 3)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        check_schema(doc, "subgraph")
        assert doc["command"] == "subgraph"
        assert doc["n"] == 3 and doc["k"] == 3
        assert doc["selection"] == [0, 1, 2]
        assert doc["density"] == pytest.approx(2.0)
        # the constant restores the raw objective from the solver value
        assert doc["objective_value"] == pytest.approx(
            doc["solver_objective"] + doc["dropped_constant"])
        assert "wall_time" not in doc

    def test_baselines_block(self, triangle_path):
        proc = run_cli("subgraph", triangle_path, "--k", 3, "--baselines")
        doc = json.loads(proc.stdout)
        assert doc["baselines"]["greedy_density"] == pytest.approx(2.0)
        assert doc["baselines"]["random_density"] == pytest.approx(2.0)

    def test_byte_identical_without_timings(self, triangle_path):
        first = run_cli("subgraph", triangle_path, "--k", 2, "--seed", 4)
        second = run_cli("subgraph", triangle_path, "--k", 2, "--seed", 4)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_timings_flag_adds_wall_time(self, triangle_path):
        proc = run_cli("subgraph", triangle_path, "--k", 2, "--timings")
        doc = json.loads(proc.stdout)
        check_schema(doc, "subgraph")
        assert doc["wall_time"] >= 0.0

    def test_stdin_edge_list(self):
        proc = run_cli("subgraph", "-", "--k", 3,
                       stdin_bytes=TRIANGLE.encode())
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["density"] == pytest.approx(2.0)

    def test_stdin_matrix_market(self):
        proc = run_cli("subgraph", "-", "--k", 3, "--graph-format", "matrix-market",
                       stdin_bytes=TRIANGLE_MM.encode())
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["density"] == pytest.approx(2.0)
        assert doc["selection"] == [0, 1, 2]

    def test_matrix_market_file(self, tmp_path):
        path = tmp_path / "triangle.mtx"
        path.write_text(TRIANGLE_MM)
        proc = run_cli("subgraph", path, "--k", 3)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["density"] == pytest.approx(2.0)
        assert doc["selection"] == [0, 1, 2]

    def test_csv_format_flattens(self, triangle_path):
        proc = run_cli("subgraph", triangle_path, "--k", 3, "--format", "csv")
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "key,value"
        assert "command,subgraph" in lines
        assert "config.alpha1,1.0" in lines
        assert "selection,0;1;2" in lines

    def test_zero_k_rejected(self, triangle_path):
        proc = run_cli("subgraph", triangle_path, "--k", 0)
        assert proc.returncode == 2
        assert b"error:" in proc.stderr

    def test_k_beyond_n_rejected(self, triangle_path):
        proc = run_cli("subgraph", triangle_path, "--k", 5)
        assert proc.returncode == 2

    def test_zero_budget_rejected(self, triangle_path):
        proc = run_cli("subgraph", triangle_path, "--k", 2, "--nbr-budget", 0)
        assert proc.returncode == 2
        assert b"neighborhood_budget" in proc.stderr

    def test_missing_file(self, tmp_path):
        proc = run_cli("subgraph", tmp_path / "absent.txt", "--k", 2)
        assert proc.returncode == 2
        assert b"error:" in proc.stderr

    def test_malformed_graph(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 zero 1.0\n")
        proc = run_cli("subgraph", path, "--k", 1)
        assert proc.returncode == 2
        assert b"line 1" in proc.stderr


    @pytest.mark.parametrize("data,line", [
        (b"0 1\n1 2\xff\n", b"line 2: not UTF-8"),
        (b"0 1\n1 99999999999999999999\n", b"line 2: node id outside int64"),
        (b"0 9223372036854775807\n", b"node id 9223372036854775807 too large"),
    ], ids=["non-utf8", "beyond-int64", "key-overflow"])
    def test_unreadable_graph_is_an_input_error(self, tmp_path, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        proc = run_cli("subgraph", path, "--k", 1)
        assert proc.returncode == 2, proc.stderr
        assert line in proc.stderr
        assert b"Traceback" not in proc.stderr


class TestHash:
    def test_document_and_monotone_loss(self, hash_files):
        feat, lab, _, _ = hash_files
        proc = run_cli("hash", feat, lab, "--code-length", 4, "--outer", 3)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        check_schema(doc, "hash")
        assert doc["n"] == 8 and doc["d"] == 3
        assert doc["r"] == 4 and doc["classes"] == 2
        history = doc["loss_history"]
        assert len(history) == 2 * doc["outer_iterations"]
        assert doc["final_loss"] == history[-1]
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-9

    def test_binary_features_match_csv(self, hash_files, tmp_path):
        feat, lab, X, _ = hash_files
        blob = tmp_path / "features.bin"
        save_matrix_binary(blob, X)
        text = json.loads(run_cli(
            "hash", feat, lab, "--code-length", 4, "--outer", 2).stdout)
        binary = json.loads(run_cli(
            "hash", blob, lab, "--code-length", 4, "--outer", 2).stdout)
        assert text["loss_history"] == binary["loss_history"]

    def test_eval_block(self, hash_files):
        feat, lab, _, _ = hash_files
        proc = run_cli("hash", feat, lab, "--code-length", 4,
                       "--eval", feat, "--eval-labels", lab, "--topk", 3)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["eval"]["k"] == 3
        assert 0.0 <= doc["eval"]["map"] <= 1.0
        assert 0.0 <= doc["eval"]["precision_at_k"] <= 1.0

    def test_non_utf8_features(self, hash_files, tmp_path):
        _, lab, _, _ = hash_files
        feat = tmp_path / "latin1.csv"
        feat.write_bytes(b"f0,f1,f2\n" + b"1,2,3\n" * 3 + b"1,2,\xe9\n" + b"1,2,3\n" * 4)
        proc = run_cli("hash", feat, lab, "--code-length", 4)
        assert proc.returncode == 2, proc.stderr
        assert b"line 5: not UTF-8" in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_eval_needs_labels(self, hash_files):
        feat, lab, _, _ = hash_files
        proc = run_cli("hash", feat, lab, "--code-length", 4, "--eval", feat)
        assert proc.returncode == 2
        assert b"--eval-labels" in proc.stderr

    def test_topk_beyond_database(self, hash_files):
        feat, lab, _, _ = hash_files
        proc = run_cli("hash", feat, lab, "--code-length", 4,
                       "--eval", feat, "--eval-labels", lab, "--topk", 9)
        assert proc.returncode == 2

    def test_row_count_mismatch(self, hash_files, tmp_path):
        feat, _, _, _ = hash_files
        short = tmp_path / "short.csv"
        short.write_text("0\n1\n0\n")
        proc = run_cli("hash", feat, short, "--code-length", 4)
        assert proc.returncode == 2
        assert b"rows" in proc.stderr

    def test_missing_labels_file(self, hash_files, tmp_path):
        feat, _, _, _ = hash_files
        proc = run_cli("hash", feat, tmp_path / "absent.csv",
                       "--code-length", 4)
        assert proc.returncode == 2

    def test_zero_code_length(self, hash_files):
        feat, lab, _, _ = hash_files
        proc = run_cli("hash", feat, lab, "--code-length", 0)
        assert proc.returncode == 2

    @pytest.mark.parametrize("flags,cap", [((), 20), (("--max-iters", "30"), 30)])
    def test_max_iters_reaches_code_step(self, hash_files, monkeypatch, capsys,
                                         flags, cap):
        feat, lab, _, _ = hash_files
        seen = []
        real = hashing.alternating_hash

        def spy(*args, inner, **kwargs):
            seen.append(inner)
            return real(*args, inner=inner, **kwargs)

        monkeypatch.setattr(hashing, "alternating_hash", spy)
        assert cli.main(["hash", str(feat), str(lab), "--code-length", "4",
                         "--outer", "1", *flags]) == 0
        capsys.readouterr()
        assert [cfg.max_iterations for cfg in seen] == [cap]
        assert seen[0].neighborhood_cadence == 0

    @pytest.mark.parametrize("which", range(4),
                             ids=["features", "labels", "eval", "eval-labels"])
    def test_non_finite_input_rejected(self, hash_files, tmp_path, which):
        feat, lab, X, labels = hash_files
        nan_features = tmp_path / "nan.bin"
        X = X.copy()
        X[1, 1] = np.nan
        save_matrix_binary(nan_features, X)
        inf_labels = tmp_path / "inf.csv"
        inf_labels.write_text("\n".join(["0", "0", "inf"] + [str(v) for v in labels[3:]]))
        files = [feat, lab, feat, lab]
        files[which] = (nan_features, inf_labels)[which % 2]
        proc = run_cli("hash", files[0], files[1], "--code-length", 4,
                       "--eval", files[2], "--eval-labels", files[3], "--topk", 3)
        assert proc.returncode == 2, proc.stderr
        assert b"non-finite" in proc.stderr

    def test_deterministic_output(self, hash_files):
        feat, lab, _, _ = hash_files
        a = run_cli("hash", feat, lab, "--code-length", 4, "--seed", 9)
        b = run_cli("hash", feat, lab, "--code-length", 4, "--seed", 9)
        assert a.stdout == b.stdout


class TestQuad:
    def test_problem_file(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(
            {"A": [[1.0, 0.0], [0.0, 1.0]], "c": [0.0, 0.0], "d": 0.0, "r": 1}))
        proc = run_cli("quad", "--problem", path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        check_schema(doc, "quad")
        assert doc["constraint_r"] == 1
        # x'Ix is the dimension for any sign vector
        assert doc["final_value"] == pytest.approx(2.0)
        assert sorted(doc["final_point"]) == [-1, 1]

    def test_constraint_override(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(
            {"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
             "c": [0.0, 0.0, 0.0], "r": 1}))
        doc = json.loads(run_cli(
            "quad", "--problem", path, "--constraint-r", 2).stdout)
        assert doc["constraint_r"] == 2
        assert sum(1 for v in doc["final_point"] if v == 1) == 2

    def test_generated_instance(self):
        proc = run_cli("quad", "--n", 6, "--seed", 3, "--constraint-r", 3)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        check_schema(doc, "quad")
        assert doc["n"] == 6
        assert len(doc["final_point"]) == 6
        assert sum(doc["final_point"]) == 0
        assert set(doc["final_point"]) <= {-1, 1}

    def test_unconstrained_marker_is_null(self):
        doc = json.loads(run_cli("quad", "--n", 4).stdout)
        assert doc["constraint_r"] is None

    def test_needs_problem_or_n(self):
        proc = run_cli("quad")
        assert proc.returncode == 2
        assert b"--problem" in proc.stderr

    def test_overflowing_coefficients(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(
            {"A": [[1e308, 0.0], [0.0, 1e308]], "c": [0.0, 0.0]}))
        proc = run_cli("quad", "--problem", path)
        assert proc.returncode == 1
        assert b"numeric failure" in proc.stderr

    def test_invalid_json_problem(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("quad", "--problem", path)
        assert proc.returncode == 2
        assert b"JSON" in proc.stderr

    def test_problem_missing_fields(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"A": [[1.0]]}))
        proc = run_cli("quad", "--problem", path)
        assert proc.returncode == 2

    def test_bad_epsilon(self):
        proc = run_cli("quad", "--n", 4, "--epsilon", -1)
        assert proc.returncode == 2
        assert b"epsilon" in proc.stderr

    def test_timings_csv_row(self):
        proc = run_cli("quad", "--n", 4, "--timings", "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "key,value"
        (row,) = [line for line in lines if line.startswith("wall_time,")]
        assert float(row.split(",")[1]) >= 0.0

    def test_defaults_do_not_leak_from_hash(self, capsys):
        # hash lowers --max-iters and --nbr-cadence; the other solve
        # commands keep the solver defaults
        for argv in (["quad", "--n", "4"], ["subgraph", "-", "--k", "1"]):
            args = cli.build_parser().parse_args(argv)
            assert (args.max_iters, args.nbr_cadence) == (100, 10), argv
        assert cli.main(["quad", "--n", "4"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["max_iterations"] == 100
        assert config["neighborhood_cadence"] == 10

    def test_solver_defaults_are_the_configs(self, hash_files, triangle_path,
                                             monkeypatch, capsys):
        # quad and subgraph report SolverConfig's defaults; hash hands
        # alternating_hash its own code-step config
        want = SolverConfig()
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        for argv in (["quad", "--n", "4"], ["subgraph", str(triangle_path), "--k", "1"]):
            assert cli.main(argv) == 0
            config = json.loads(capsys.readouterr().out)["config"]
            policy = config.pop("threshold_mode"), config.pop("epsilon")
            assert policy == (want.threshold_policy.mode, want.threshold_policy.epsilon)
            assert config == {k: getattr(want, k) for k in fields - {"threshold_policy", "seed"}}
        seen = []
        real = hashing.alternating_hash

        def spy(*args, inner, **kwargs):
            seen.append(inner)
            return real(*args, inner=inner, **kwargs)

        monkeypatch.setattr(hashing, "alternating_hash", spy)
        feat, lab, _, _ = hash_files
        assert cli.main(["hash", str(feat), str(lab), "--code-length", "4"]) == 0
        capsys.readouterr()
        assert seen == [hashing.CODE_STEP]

    def test_library_defaults_are_the_signatures(self):
        # hash --lambda/--outer and oracle --limit restate no default
        parser = cli.build_parser()
        hash_args = parser.parse_args(["hash", "F", "L", "--code-length", "4"])
        hash_params = inspect.signature(hashing.alternating_hash).parameters
        assert hash_args.lam == hash_params["lam"].default
        assert hash_args.outer == hash_params["outer_iterations"].default
        oracle_params = inspect.signature(exhaustive_oracle).parameters
        assert parser.parse_args(["oracle"]).limit == oracle_params["limit"].default

    def test_help_shows_every_default(self):
        # each flag that takes a value and has a default names it in its
        # subcommand's --help; switches take no value, so show none
        parser = cli.build_parser()
        (commands,) = [a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
        for name, sub in commands.items():
            text = " ".join(sub.format_help().split())
            for action in sub._actions:
                if not action.option_strings or action.nargs == 0 or action.default is None:
                    continue
                shown = (" ".join(sub._get_formatter()._expand_help(action).split())
                         if action.help else "")
                assert f"(default {action.default})" in shown, (name, action.dest)
                assert shown in text, (name, action.dest)

    @pytest.mark.parametrize("argv", [
        ("quad", "--n", -1),
        ("oracle", "--separable", "--n", -2),
        ("bench", "--suite", "scaling", "--sizes", "-3"),
    ])
    def test_sizes_below_one_rejected(self, argv):
        proc = run_cli(*argv)
        assert proc.returncode == 2, proc.stderr
        assert b">= 1" in proc.stderr
        assert b"Traceback" not in proc.stderr

    def test_average_threshold_mode(self):
        proc = run_cli("quad", "--n", 6, "--threshold-mode", "average")
        assert proc.returncode == 0, proc.stderr
        check_schema(json.loads(proc.stdout), "quad")


def planted_edge_list(n=1600, k=40, p_in=0.5, m_out=6000, seed=2024,
                      weighted=False) -> str:
    """A dense k-block plus m_out uniform edges, drawn here so the pins below
    do not move with the package's own generator; weighted draws each
    weight uniformly from [0.5, 2)."""
    rng = np.random.default_rng(seed)
    block = rng.choice(n, size=k, replace=False)
    iu, ju = np.triu_indices(k, 1)
    keep = rng.random(len(iu)) < p_in
    u = np.concatenate([block[iu[keep]], rng.integers(0, n, m_out)])
    v = np.concatenate([block[ju[keep]], rng.integers(0, n, m_out)])
    edge = u != v
    lines = [f"{a} {b}" for a, b in zip(u[edge], v[edge])]
    if weighted:
        lines = [f"{line} {float(w)!r}"
                 for line, w in zip(lines, rng.uniform(0.5, 2.0, len(lines)))]
    return "\n".join([f"#nodes {n}"] + lines) + "\n"


def hash_eval_files(tmp_path, multi_hot, n=400, nq=120, d=12, classes=5, seed=31):
    """Training and query features with their labels, as binary matrix
    files: Gaussian clusters around one centre per class, ids in one
    column or, with multi_hot, each row's class plus a random second one."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((classes, d)) * 1.5
    paths = []
    for name, rows in (("train", n), ("query", nq)):
        ids = rng.integers(0, classes, rows)
        X = centres[ids] + rng.standard_normal((rows, d))
        labels = ids[:, None].astype(float)
        if multi_hot:
            labels = (np.arange(classes)[None, :] == ids[:, None]).astype(float)
            labels[np.arange(rows), rng.integers(0, classes, rows)] = 1.0
        for kind, M in (("features", X), ("labels", labels)):
            path = tmp_path / f"{name}-{kind}.bin"
            save_matrix_binary(path, M)
            paths.append(path)
    return paths


class TestSeededPins:
    """SHA-256 of seeded documents, fixed when they were last known good.

    The determinism tests compare two runs of one version; these compare
    against earlier versions, so a change to the candidate kernels (move
    order, sampler stream or delta rounding) shows here. The digests were
    taken with numpy 2.4 and OpenBLAS on x86-64; another floating-point
    stack may round differently and need them taken afresh.
    """

    @pytest.mark.parametrize("args,digest", [
        (("--n", 12, "--seed", 3, "--constraint-r", 5),
         "ffde08f91dccd077b187f9ef9ebedeb82b4c4e788ec5434dac31f84ba8f8020c"),
        (("--n", 40, "--seed", 8),
         "ef96af9485247dda456aa8c59642d0053867bbb4721af8843cb74651e370d2f5"),
        (("--n", 64, "--seed", 11, "--constraint-r", 20),
         "35cfd3981a5e2beb048f0432117f62f75b77fbcfedd62e9ae6e4f9938b961744"),
    ], ids=["slice-exhaustive", "cube-sampled", "slice-sampled"])
    def test_quad(self, args, digest):
        proc = run_cli("quad", *args)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest

    def test_subgraph_sparse_gather(self, tmp_path):
        # n = 1600, unit weights: flips_delta reads the int8 pair table
        # (the pin dates from when n = 1600 took the sparse-gather side,
        # which reads the same numbers); at about 8 entries a row,
        # random_search's k = 40 samples keep the sparse product
        path = tmp_path / "planted.txt"
        path.write_text(planted_edge_list())
        proc = run_cli("subgraph", path, "--k", 40, "--seed", 5, "--baselines")
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "c18e05c6ac3c5679217b78e3b1e0b63d4011880fbd4f1874e9e2393c88639e42")

    def test_subgraph_weighted_baselines(self, tmp_path):
        # non-integer weights, so random_search's values are not integer-exact
        path = tmp_path / "weighted.txt"
        path.write_text(planted_edge_list(n=300, k=20, m_out=900, seed=7, weighted=True))
        proc = run_cli("subgraph", path, "--k", 20, "--seed", 2, "--baselines")
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == (
            "9cb766dad241c94bae680aa628b05d2cf6f15ae45fd0208a1f0d24b17ad83013")

    @pytest.mark.parametrize("multi_hot,args,digest", [
        (False, ("--code-length", 70, "--threshold-mode", "average", "--outer", 4,
                 "--seed", 3),
         "1a5bf2b7d00e35bfa6eaf6129a180fd356097996ad92e8d27850777c796602df"),
        (True, ("--code-length", 20, "--seed", 4),
         "c92a7d99e4243217862712e385e9715ed5879b07f96a6efd358ecf8ecf9d85e2"),
    ], ids=["average-ids-r70", "lipschitz-multihot-r20"])
    def test_hash_eval(self, tmp_path, multi_hot, args, digest):
        # the code step and retrieval scoring both feed the document;
        # r = 70 spans two 64-bit words of a packed code
        files = hash_eval_files(tmp_path, multi_hot)
        proc = run_cli("hash", files[0], files[1], *args, "--eval", files[2],
                       "--eval-labels", files[3], "--topk", 25)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", [
        (("--n", 14, "--constraint-r", 7, "--seed", 3),
         "ee3c3c29f9a08d4d64bb5f5376a8b912951d42eb719887b03b2024c00cf80f98"),
        (("--n", 16, "--seed", 2),
         "ff3c53a93fee8679f1b532792222c3cc19100141e19be23defceea0eb102eae3"),
        (("--separable", "--n", 10, "--constraint-r", 4),
         "cd08855df72560460e5dd76ad09ef6e5ed6acb79dfc4057e05bd718f1855be28"),
    ], ids=["slice", "cube", "separable-slice"])
    def test_oracle(self, args, digest):
        proc = run_cli("oracle", *args)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == digest


class TestOracle:
    def test_separable_instance(self):
        proc = run_cli("oracle", "--separable", "--n", 10, "--seed", 5)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        check_schema(doc, "oracle")
        assert doc["optimum"] == [-1] * 10
        assert doc["optimum_reached"] is True
        assert doc["bound_satisfied"] is True
        assert doc["gap"] == pytest.approx(0.0, abs=1e-9)
        assert "coefficient_bound" in doc

    def test_quadratic_instance(self):
        doc = json.loads(run_cli("oracle", "--n", 8, "--seed", 2).stdout)
        check_schema(doc, "oracle")
        assert doc["evaluations"] == 2 ** 8
        assert doc["gap"] >= -1e-12
        assert doc["f_min"] <= doc["f_max"]
        assert doc["optimum_reached"] == (doc["gap"] <= 1e-9)

    def test_constrained_enumeration_count(self):
        doc = json.loads(run_cli(
            "oracle", "--n", 10, "--constraint-r", 3).stdout)
        assert doc["evaluations"] == 120  # C(10, 3)
        assert sum(doc["optimum"]) == 2 * 3 - 10

    def test_constraint_override(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(
            {"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
             "c": [0.5, -0.25, 0.1]}))
        doc = json.loads(run_cli(
            "oracle", "--problem", path, "--constraint-r", 2).stdout)
        assert doc["evaluations"] == 3  # C(3, 2), not 2^3
        assert doc["optimum"] == [-1, 1, 1]
        doc = json.loads(run_cli(
            "oracle", "--separable", "--n", 6, "--constraint-r", 4).stdout)
        assert doc["evaluations"] == 15  # C(6, 4)
        assert doc["optimum"].count(1) == 4

    def test_csv_format(self):
        proc = run_cli("oracle", "--n", 4, "--seed", 1, "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "key,value"
        assert "command,oracle" in lines
        assert "evaluations,16" in lines
        assert not any(line.startswith("wall_time,") for line in lines)

    def test_refuses_large_instance(self):
        proc = run_cli("oracle", "--n", 30)
        assert proc.returncode == 2
        assert b"limit" in proc.stderr

    def test_separable_needs_n(self):
        proc = run_cli("oracle", "--separable")
        assert proc.returncode == 2


class TestBench:
    def _rows(self, stdout):
        lines = stdout.decode().splitlines()
        assert lines[0] == SCHEMA["bench_csv_header"]
        rows = []
        for line in lines[1:]:
            instance, method, value, secs = line.split(",")
            rows.append((instance, method, float(value), float(secs)))
        return rows

    def test_subgraph_suite(self):
        proc = run_cli("bench", "--suite", "subgraph", "--n", 40, "--k", 6,
                       "--instances", 2, "--methods", "dpcd,greedy")
        assert proc.returncode == 0, proc.stderr
        rows = self._rows(proc.stdout)
        assert len(rows) == 4
        assert {r[0] for r in rows} == {
            "planted-n40-k6-s0", "planted-n40-k6-s1"}
        assert all(r[1] in {"dpcd", "greedy"} for r in rows)
        assert all(r[3] >= 0.0 for r in rows)

    def test_values_stable_across_runs(self):
        args = ("bench", "--suite", "subgraph", "--n", 40, "--k", 6,
                "--instances", 2, "--methods", "dpcd,random", "--seed", 11)
        first = self._rows(run_cli(*args).stdout)
        second = self._rows(run_cli(*args).stdout)
        assert [r[:3] for r in first] == [r[:3] for r in second]

    def test_sgm_is_not_a_method(self):
        # the subgraph suite cannot run sgm under its cardinality constraint
        proc = run_cli("bench", "--suite", "subgraph", "--n", 20, "--k", 4,
                       "--instances", 1, "--methods", "sgm")
        assert proc.returncode == 2
        assert b"unknown method 'sgm'" in proc.stderr

    def test_scaling_suite(self):
        proc = run_cli("bench", "--suite", "scaling",
                       "--sizes", "300,600", "--methods", "dpcd")
        assert proc.returncode == 0, proc.stderr
        rows = self._rows(proc.stdout)
        assert [r[0] for r in rows] == ["hash-n300", "hash-n600"]
        assert all(r[3] > 0.0 for r in rows)

    @pytest.mark.parametrize("flag,value", [
        ("--n", "40"), ("--k", "6"), ("--instances", "2"), ("--methods", "dpcd,greedy"),
    ])
    def test_scaling_suite_refuses_subgraph_flags(self, flag, value):
        proc = run_cli("bench", "--suite", "scaling", "--sizes", "300", flag, value)
        assert proc.returncode == 2
        assert flag.encode() in proc.stderr

    def test_subgraph_suite_refuses_sizes(self):
        proc = run_cli("bench", "--n", 40, "--k", 6, "--instances", 1, "--sizes", "300")
        assert proc.returncode == 2
        assert b"--sizes" in proc.stderr

    def test_unknown_method(self):
        proc = run_cli("bench", "--methods", "dpcd,bogus")
        assert proc.returncode == 2
        assert b"unknown method" in proc.stderr

    def test_empty_method_list(self):
        proc = run_cli("bench", "--methods", "")
        assert proc.returncode == 2
        assert b"empty" in proc.stderr

    @pytest.mark.parametrize("argv,message", [
        (("--instances", "-1", "--n", "20", "--k", "3"), "--instances must be >= 1"),
        (("--instances", "0", "--n", "20", "--k", "3"), "--instances must be >= 1"),
        (("--suite", "scaling", "--sizes", ","), "--sizes needs one or more entries"),
    ])
    def test_empty_run_rejected(self, argv, message, capsys):
        # each used to exit 0 with only the CSV header
        assert cli.main(["bench", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err


def input_error(argv, capsys, word):
    """argv exits 2 with one `error:` line naming word, and prints nothing
    on stdout."""
    assert cli.main([str(a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and word in err, err


class TestOutOfRangeParameters:
    """Out-of-range flag and file values are input errors (exit 2)."""

    @pytest.mark.parametrize("argv,word", [
        (("quad", "--n", 6, "--alpha1", "nan"), "alpha1"),
        (("quad", "--n", 6, "--alpha1", "nan", "--epsilon", "nan"), "epsilon"),
        (("quad", "--n", 6, "--alpha2", "inf"), "alpha1 and alpha2"),
        (("quad", "--n", 6, "--epsilon", "inf"), "epsilon"),
        (("oracle", "--n", 4, "--epsilon", "nan"), "epsilon"),
    ])
    def test_non_finite_solver_parameter(self, argv, word, capsys):
        # these used to exit 0 with NaN or Infinity in the JSON document
        input_error(argv, capsys, word)

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda(self, hash_files, lam, capsys):
        # this used to exit 1 as a numeric failure
        feat, lab, _, _ = hash_files
        input_error(("hash", feat, lab, "--code-length", 4, "--lambda", lam),
                    capsys, "regularization")

    @pytest.mark.parametrize("command", ["quad", "oracle", "subgraph", "hash", "bench"])
    def test_negative_seed(self, command, hash_files, triangle_path, capsys):
        # each used to end in a numpy traceback (exit 1)
        feat, lab, _, _ = hash_files
        argv = {
            "quad": ("quad", "--n", 4),
            "oracle": ("oracle", "--n", 4),
            "subgraph": ("subgraph", triangle_path, "--k", 2),
            "hash": ("hash", feat, lab, "--code-length", 4),
            "bench": ("bench", "--n", 20, "--k", 3, "--instances", 1),
        }[command]
        input_error((*argv, "--seed", -1), capsys, "seed must be >= 0")

    @pytest.mark.parametrize("command", ["quad", "oracle"])
    @pytest.mark.parametrize("fields,name", [
        ('"A": [[1, 0], [0, NaN]], "c": [1, -1]', "A"),
        ('"A": [[1, 0], [0, 1]], "c": [NaN, -1]', "c"),
        ('"A": [[1, 0], [0, 1]], "c": [1, -Infinity]', "c"),
        ('"A": [[1, 0], [0, 1]], "c": [1, -1], "d": Infinity', "d"),
    ], ids=["A-nan", "c-nan", "c-minus-infinity", "d-infinity"])
    def test_problem_non_finite_number(self, tmp_path, command, fields, name, capsys):
        # json.load accepts these tokens; they used to exit 1 as a
        # numeric failure
        path = tmp_path / "problem.json"
        path.write_text("{%s}" % fields)
        input_error((command, "--problem", path), capsys,
                    f"field {name} holds a non-finite number")

    @pytest.mark.parametrize("command", ["quad", "oracle"])
    @pytest.mark.parametrize("fields,name", [
        ('"A": [[1, 0], [0, 1]], "c": ["1", "-1"], "d": "2"', "c"),
        ('"A": [[true, false], [false, true]], "c": [true, -1], "d": true', "A"),
        ('"A": [[1, "0"], [0, 1]], "c": [1, -1]', "A"),
        ('"A": [[1, 0], [0, 1]], "c": [1, false]', "c"),
        ('"A": [[1, 0], [0, 1]], "c": [1, -1], "d": "2"', "d"),
        ('"A": [[1, 0], [0, 1]], "c": [1, -1], "d": true', "d"),
    ], ids=["strings", "booleans", "A-string", "c-false", "d-string", "d-true"])
    def test_problem_takes_only_json_numbers(self, tmp_path, command, fields, name,
                                             capsys):
        # float() takes these, so they used to run with exit 0
        path = tmp_path / "problem.json"
        path.write_text("{%s}" % fields)
        input_error((command, "--problem", path), capsys,
                    f"field {name} must hold only JSON numbers")

    @pytest.mark.parametrize("r", ['"x"', "1.7", "true", "[2]"])
    def test_problem_r_must_be_an_integer(self, tmp_path, r, capsys):
        # "x" used to end in a traceback (exit 1), and 1.7 ran as r = 1
        path = tmp_path / "problem.json"
        path.write_text('{"A": [[1, 0], [0, 1]], "c": [1, -1], "r": %s}' % r)
        input_error(("quad", "--problem", path), capsys, "field r must be an integer")

    @pytest.mark.parametrize("command", ["quad", "oracle"])
    def test_problem_not_utf8(self, tmp_path, command, capsys):
        # this used to end in a UnicodeDecodeError traceback (exit 1)
        path = tmp_path / "problem.json"
        path.write_bytes(b'{"A": [[1, 0], [0, 1]], "c": [1, -1], "d": "\xff"}')
        input_error((command, "--problem", path), capsys, "not UTF-8 text")

    @pytest.mark.parametrize("command", ["quad", "oracle"])
    @pytest.mark.parametrize("fields", [
        '"A": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "c": [[1, 2], [3, 4]]',
        '"A": [[1]], "c": "12"',
        '"A": [[1]], "c": 12',
    ], ids=["nested", "string", "scalar"])
    def test_problem_c_must_be_a_list(self, tmp_path, command, fields, capsys):
        # these used to run silently: the nested c as the length-4 vector
        # 1, 2, 3, 4, and the string and the number as c = [12]
        path = tmp_path / "problem.json"
        path.write_text("{%s}" % fields)
        input_error((command, "--problem", path), capsys, "field c must be a list")


class TestTopLevel:
    def test_no_arguments_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
