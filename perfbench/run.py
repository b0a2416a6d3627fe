"""Benchmark entry point for the dpcd package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src`. For one workload this process writes the seeded inputs
(several times, to time set-up), times a fresh `import dpcd`, then starts
the workload in its own worker process and checks what it reports. It
prints a table of every metric with its unit, and as the last line one
JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`).
`--workload all` runs the four workloads one after another, each in its
own process. See README.md in this directory for the workloads and the
metrics.
"""

from __future__ import annotations

import os

# before numpy loads, here and (inherited) in every process started below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")

# gated in BENCHMARK.json
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_s_p50": "s",
    "peak_rss_mb": "MB",
}
# printed in the table only: too noisy on a shared machine for a bound
# (see README.md), or 0 by design (fail_rate)
REPORTED_UNITS = {
    "import_s": "s",
    "instance_s_p90": "s",
    "fail_rate": "ratio",
}
SETUP_REPEATS = 5
IMPORT_REPEATS = {"full": 5, "tiny": 1}
# a run must end within 180 s; the worker gets what is left of this
DEADLINE_S = 170.0

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); "
                 "t = time.perf_counter(); import dpcd; print(time.perf_counter() - t)")


def time_import(repeats: int) -> float:
    """Median seconds for a fresh interpreter to import dpcd; one untimed
    import first so bytecode compilation is not counted."""
    cmd = [sys.executable, "-c", _IMPORT_PROBE.format(src=SRC)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)
    return statistics.median(
        float(subprocess.run(cmd, check=True, capture_output=True, timeout=60, text=True).stdout)
        for _ in range(repeats))


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str,
                 deadline: float) -> dict:
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        import_s = time_import(IMPORT_REPEATS[size])
        inputs_dir = os.path.join(work, "inputs")
        warm_dir = os.path.join(work, "warm")
        setup = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(inputs_dir, ignore_errors=True)
            shutil.rmtree(warm_dir, ignore_errors=True)
            started = time.perf_counter()
            inputs.generate(name, seed, size, inputs_dir)
            inputs.generate(name, seed, "tiny", warm_dir)
            setup.append(time.perf_counter() - started)
        args = {
            "src": SRC,
            "manifest": os.path.join(inputs_dir, "manifest.json"),
            "warm_manifest": os.path.join(warm_dir, "manifest.json"),
            "seconds": seconds,
            "trace": trace,
            "result": os.path.join(work, "result.json"),
            "spans": os.path.join(WORK, f"spans-{name}-seed{seed}.json"),
        }
        remaining = deadline - time.monotonic()
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(args)],
                       check=True, timeout=max(1.0, remaining))
        with open(args["result"]) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = result["instance_times"]
    if not times:
        raise RuntimeError(f"{name}: no instance completed")
    result["end_to_end"] = {
        "setup_s": statistics.median(setup) + result["warmup_s"],
        "wall_s": result["wall_s"],
        "instance_s_p50": float(np.percentile(times, 50)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result["reported"] = {
        "import_s": import_s,
        "instance_s_p90": float(np.percentile(times, 90)),
        "fail_rate": result["failed"] / result["attempted"],
    }
    result["workload"] = name
    return result


def report(result: dict, seed: int, trace: bool) -> dict:
    """Print the workload's table; return its metrics for the JSON line."""
    name = result["workload"]
    e2e = result["end_to_end"]
    rows = [(k, v, END_TO_END_UNITS[k]) for k, v in e2e.items()]
    rows += [(k, v, REPORTED_UNITS[k]) for k, v in result["reported"].items()]
    units = workloads.QUALITY_UNITS[name]
    rows += [(k, result["quality"][k], units[k]) for k in units if k in result["quality"]]
    print(f"# workload {name}  seed {seed}  plain rounds {result['rounds']}  "
          f"instance samples {len(result['instance_times'])}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    if trace:
        layers = result["layers"]
        rows += [(k, layers[k], tracing.PER_LAYER_UNITS[k]) for k in tracing.PER_LAYER_UNITS]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracing.PER_LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    for metric, value, unit in rows:
        print(f"{name:18s} {metric:32s} {float(value)!r:>24} {unit}")
    for failure in result["failures"]:
        print(f"{name}: {failure}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "dpcd", "__init__.py")):
        print(f"error: no dpcd package under {SRC}", file=sys.stderr)
        return 2

    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size,
                              deadline if len(names) == 1 else time.monotonic() + DEADLINE_S)
        got = report(result, args.seed, bool(args.trace))
        correct = correct and result["failed"] == 0
        attempted += result["attempted"]
        failed += result["failed"]
        if len(names) == 1:
            metrics = got
        else:
            metrics.update({f"{name}/{k}": v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
