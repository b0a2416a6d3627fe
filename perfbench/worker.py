"""One workload in its own process, so its peak resident memory is its own.

Started by run.py with the inputs already written. It imports dpcd from the
checkout's `src`, runs the warm-up inputs once, then runs rounds (every
instance once, one client, one instance at a time) until the next round
would overrun the time budget. With tracing on, plain and traced rounds
alternate. The result goes to a JSON file; spans go to a second one.

    python3 perfbench/worker.py ARGS_JSON
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS thread, so timings do not depend on how
# many cores the machine happens to have free
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402


def import_dpcd(src: str):
    """Import the package from the checkout's src, never from elsewhere."""
    sys.path.insert(0, src)
    started = time.perf_counter()
    import dpcd
    elapsed = time.perf_counter() - started
    where = os.path.realpath(dpcd.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"dpcd imported from {where}, not from {src}")
    return dpcd, elapsed


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Runner:
    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.summaries = None

    def _fail(self, inst, problems):
        self.failed += 1
        for message in problems:
            self.failures.append(f"instance {inst['id']}: {message}")
            print(f"FAILED {self.workload.manifest['workload']} instance {inst['id']}: "
                  f"{message}", file=sys.stderr)

    def round(self, api, traced: bool):
        """Every instance once; returns (wall seconds, instance seconds)."""
        times, summaries = [], []
        for inst in self.workload.instances:
            self.attempted += 1
            started = time.perf_counter()
            try:
                if traced:
                    with self.tracer.open_instance(inst["id"]):
                        out = self.workload.run(api, inst)
                else:
                    out = self.workload.run(api, inst)
            except Exception:  # an instance that raises is counted, not fatal
                self._fail(inst, [traceback.format_exc()])
                continue
            times.append(time.perf_counter() - started)
            try:
                if traced:
                    self.tracer.replay_solves()
                problems = self.workload.check(inst, out)
                digest = self.workload.digest(out)
                summaries.append(self.workload.summary(out))
            except Exception:
                problems, digest = [traceback.format_exc()], None
            if self.digests.setdefault(inst["id"], digest) != digest:
                problems.append("outputs differ from the first round (determinism or trace fidelity)")
            if problems:
                self._fail(inst, problems)
        if self.summaries is None:
            self.summaries = summaries
        return sum(times), times


def main(argv) -> int:
    args = json.loads(argv[1])
    dpcd, import_s = import_dpcd(args["src"])
    import tracing
    import workloads

    workload = workloads.load(args["manifest"], dpcd)
    tracer = tracing.Tracer(dpcd)
    plain = tracing.plain_api(dpcd)

    # warm-up: the tiny inputs once, so lazy imports and first-call costs
    # land in set-up time rather than in the first timed instance
    warm = Runner(workloads.load(args["warm_manifest"], dpcd), tracer)
    started = time.perf_counter()
    warm.round(plain, traced=False)
    warmup_s = time.perf_counter() - started

    runner = Runner(workload, tracer)
    traced_api = tracer.api()
    plain_walls, traced_walls, instance_times, layer_rounds = [], [], [], []
    budget = float(args["seconds"])
    started = time.perf_counter()
    while True:
        if args["trace"] and len(traced_walls) < len(plain_walls):
            first = len(tracer.spans)
            with tracer.patched_hashing():
                wall, _ = runner.round(traced_api, traced=True)
            traced_walls.append(wall)
            layer_rounds.append(tracer.round_metrics(first, wall))
        else:
            wall, times = runner.round(plain, traced=False)
            plain_walls.append(wall)
            instance_times.extend(times)
        done = len(plain_walls) + len(traced_walls) >= (2 if args["trace"] else 1)
        longest = max(plain_walls + traced_walls)
        if done and time.perf_counter() - started + longest > budget:
            break

    result = {
        "warmup_s": warmup_s,
        "rounds": len(plain_walls),
        "wall_s": statistics.median(plain_walls),
        "instance_times": instance_times,
        "attempted": runner.attempted + warm.attempted,
        "failed": runner.failed + warm.failed,
        "failures": warm.failures + runner.failures,
        "quality": workload.quality(runner.summaries) if runner.summaries else {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if args["trace"]:
        # the traced round of median wall time, whole, so its layer times
        # still add up to its wall time
        layers = sorted(layer_rounds, key=lambda r: r["trace.wall_s"])[(len(layer_rounds) - 1) // 2]
        layers["startup.import_s"] = import_s
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result["wall_s"]
        result["layers"] = layers
        with open(args["spans"], "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "instance"],
                       "spans": tracer.spans}, fh)
    with open(args["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
