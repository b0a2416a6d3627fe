"""Smoke test of the benchmark itself, at the tiny input size.

    python3 -m pytest perfbench/tests -q

Every workload runs plain and traced; the last output line must carry
exactly the metrics BENCHMARK.json names, each with its unit, and the
table above it every workload-specific metric. Also checked: quality
metrics repeat exactly for a seed, the traced layers add up to the traced
wall time, and the benchmark refuses to run without the package.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)


def tiny(workload, seed, trace):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        if not line.startswith("#"):
            name, metric, value, unit = line.split()
            assert name == workload
            table[metric] = (float(value), unit)
    return json.loads(lines[-1]), table


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    last, table = tiny(workload, 3, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    expected.update(import_s="s", instance_s_p90="s", fail_rate="ratio")
    expected.update(workloads.QUALITY_UNITS[workload])
    for metric, unit in expected.items():
        assert table[metric][1] == unit, metric
    assert table["fail_rate"][0] == 0.0
    for m in SPEC["end_to_end"]:
        assert table[m["name"]][0] > 0, m["name"]
    if trace:
        layers = {k: v["value"] for k, v in last["metrics"].items()}
        covered = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert covered + layers["trace.uncovered_s"] == pytest.approx(layers["trace.wall_s"])
        assert layers["trace.spans"] > 0


def test_quality_repeats_for_a_seed():
    first = tiny("quad-small-many", 5, 0)[1]
    again = tiny("quad-small-many", 5, 0)[1]
    for metric in workloads.QUALITY_UNITS["quad-small-many"]:
        assert first[metric] == again[metric]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = bench("--workload", "quad-small-many", "--seed", "0", "--seconds", "1",
                 "--trace", "0", root=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
