"""End-to-end checks of the command line, run through real subprocesses.

Documents are validated against the shipped schema.json so the emitted
shapes cannot drift from the documented ones. Exit-code policy: 0 success,
1 numeric failure, 2 usage or input error.
"""

import json
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

from dpcd import save_matrix_binary

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

    def test_average_threshold_mode(self):
        proc = run_cli("quad", "--n", 6, "--threshold-mode", "average")
        assert proc.returncode == 0, proc.stderr
        check_schema(json.loads(proc.stdout), "quad")


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

    def test_sgm_skipped_under_cardinality(self):
        proc = run_cli("bench", "--suite", "subgraph", "--n", 20, "--k", 4,
                       "--instances", 1, "--methods", "sgm")
        assert proc.returncode == 0
        assert self._rows(proc.stdout) == []

    def test_scaling_suite(self):
        proc = run_cli("bench", "--suite", "scaling",
                       "--sizes", "300,600", "--methods", "dpcd")
        assert proc.returncode == 0, proc.stderr
        rows = self._rows(proc.stdout)
        assert [r[0] for r in rows] == ["hash-n300", "hash-n600"]
        assert all(r[3] > 0.0 for r in rows)

    def test_unknown_method(self):
        proc = run_cli("bench", "--methods", "dpcd,bogus")
        assert proc.returncode == 2
        assert b"unknown method" in proc.stderr

    def test_empty_method_list(self):
        proc = run_cli("bench", "--methods", "")
        assert proc.returncode == 2
        assert b"empty" in proc.stderr


class TestTopLevel:
    def test_no_arguments_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
