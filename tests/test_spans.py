"""Fixed spans on the span pool (core._map_spans) and the passes that run
on it: the cube step (thresholds and flip) and retrieval scoring.

The spans depend on the input size only, so a pass gives the same bits on
any number of workers. Each test here runs one input with two or more
workers and again with one, which runs every span inline in the calling
thread, and asserts exact equality. Both passes are elementwise or score
each query alone, so each is also compared with the whole vector as one
span.
"""
import os
import select
import sys
import threading
import time

import numpy as np
import pytest

from dpcd import (GRADIENT_AVERAGE, HashingProblem, SolverConfig, ThresholdPolicy,
                  UNCONSTRAINED, alternating_hash, core, derive_thresholds, dpcd_solve,
                  evaluate_retrieval, hashing, make_hashing_objective, signs)
from dpcd.solver import _cube_step, _thresholds

AVERAGE = ThresholdPolicy(mode=GRADIENT_AVERAGE)


def code_problem(n, r, classes, seed):
    """A hashing objective over n x r codes, and a sign point for it."""
    rng = np.random.default_rng(seed)
    Y = np.eye(classes)[rng.integers(0, classes, n)]
    W = rng.standard_normal((r, classes))
    f = make_hashing_objective(HashingProblem(Y=Y, lam=0.5, r=r), W)
    return f, signs(rng.standard_normal(n * r))


def cube_step(n, seed):
    """A function running one cube step under average thresholds on a
    fixed gradient with a tenth of its entries 0; it returns the
    thresholds (checked against the masked means), the iterate, its +1
    mask and the flip count."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(n)
    g[rng.choice(n, n // 10, replace=False)] = 0.0
    positive = rng.random(n) < 0.5

    def step():
        l1, l2 = _thresholds(g, AVERAGE, None)
        assert l1 == float(g[g > 0].mean()) and l2 == float(-g[g < 0].mean())
        x, after, flips = _cube_step(positive, g, l1, l2, 1.0, 1.0)
        return l1, l2, x.tobytes(), after.tobytes(), flips

    return step


def on_one_and_many(pool, run):
    """run() with two or more workers, then with one; both results."""
    threaded = run()
    pool.workers(1)
    inline = run()
    return threaded, inline


class TestMapSpans:
    @pytest.mark.parametrize("total,width", [(0, 1), (15, 1), (31, 1), (32, 1), (100, 1),
                                             (101, 70), (100, 3), (7, 40)])
    def test_spans_cover_the_range_in_order(self, threaded_spans, total, width):
        spans = core._map_spans(lambda lo, hi: (lo, hi), total, width)
        size = max(1, 16 // width)
        assert spans[0][0] == 0 and spans[-1][1] == total
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        # every span holds `size` items, the last the remainder too
        assert all(hi - lo == size for lo, hi in spans[:-1])
        assert size <= spans[-1][1] - spans[-1][0] < 2 * size or len(spans) == 1

    def test_layout_does_not_depend_on_the_workers(self, threaded_spans):
        threaded, inline = on_one_and_many(
            threaded_spans, lambda: core._map_spans(lambda lo, hi: (lo, hi), 1000, 3))
        assert threaded == inline

    def test_one_span_runs_inline(self, threaded_spans):
        caller = threading.get_ident()
        assert core._map_spans(lambda lo, hi: threading.get_ident(), 31) == [caller]
        threads = core._map_spans(lambda lo, hi: threading.get_ident(), 1000)
        assert len(threads) == 62 and caller not in threads
        threaded_spans.workers(1)
        assert set(core._map_spans(lambda lo, hi: threading.get_ident(), 1000)) == {caller}

    def test_span_exception_reaches_the_caller(self, threaded_spans):
        def fail(lo, hi):
            if lo >= 800:
                raise ZeroDivisionError(f"span at {lo}")
            return lo

        with pytest.raises(ZeroDivisionError, match="span at 800"):
            core._map_spans(fail, 1000)


class TestThreadedPasses:
    @pytest.mark.parametrize("n", [2500, 16_001])
    def test_cube_step(self, threaded_spans, monkeypatch, n):
        step = cube_step(n, seed=n)
        monkeypatch.setattr(core, "SPAN_ENTRIES", 1000)
        threaded, inline = on_one_and_many(threaded_spans, step)
        assert threaded == inline
        monkeypatch.setattr(core, "SPAN_ENTRIES", 1 << 20)
        assert step() == threaded

    def test_non_finite_entry_in_a_late_span(self, threaded_spans):
        g = np.ones(1000)
        g[997] = np.nan
        assert _thresholds(g, AVERAGE, None) is None
        with pytest.raises(core.NumericError, match="non-finite"):
            derive_thresholds(g, ThresholdPolicy(), lipschitz=1.0)

    @pytest.mark.parametrize("multi_hot", [False, True])
    @pytest.mark.parametrize("block", [None, 3000], ids=["one-block", "four-blocks"])
    def test_evaluate_retrieval(self, threaded_spans, monkeypatch, multi_hot, block):
        rng = np.random.default_rng(3)
        q = signs(rng.standard_normal((37, 70)))
        db = signs(rng.standard_normal((300, 70)))
        if multi_hot:
            ql, dl = rng.random((37, 4)) < 0.4, rng.random((300, 4)) < 0.4
        else:
            ql, dl = rng.integers(0, 4, 37), rng.integers(0, 4, 300)
        if block is not None:
            # relevance blocks of 10 queries: 10, 10, 10 and 7
            monkeypatch.setattr(hashing, "BLOCK_ENTRIES", block)

        def score():
            s = evaluate_retrieval(q, db, ql, dl, k=20)
            return s.map, s.precision_at_k

        # 1000 entries hold 3 queries of 300 distances: 12 spans in one
        # block of 37 queries, 3 and 2 in blocks of 10 and 7
        monkeypatch.setattr(core, "SPAN_ENTRIES", 1000)
        threaded, inline = on_one_and_many(threaded_spans, score)
        assert threaded == inline
        monkeypatch.setattr(core, "SPAN_ENTRIES", 1 << 20)
        assert score() == threaded

    def test_alternating_hash(self, threaded_spans, monkeypatch):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 5, 150)
        X = labels[:, None] + rng.standard_normal((150, 6))
        Y = np.eye(5)[labels]
        inner = SolverConfig(max_iterations=20, neighborhood_cadence=0,
                             threshold_policy=AVERAGE)

        def learn():
            m = alternating_hash(X, Y, 70, outer_iterations=3, inner=inner, seed=4)
            return m.B.tobytes(), m.W.tobytes(), m.P.tobytes(), m.loss_history

        # 150 x 70 codes: 10 spans of 1000 entries, the last of 1500
        monkeypatch.setattr(core, "SPAN_ENTRIES", 1000)
        threaded, inline = on_one_and_many(threaded_spans, learn)
        assert threaded == inline
        assert len(set(threaded[3])) > 2

    def test_concurrent_callers(self, threaded_spans):
        # more workers than cores, callers sharing the pool, and a short
        # switch interval: a span written by the wrong call would show
        threaded_spans.workers(2 * core._worker_count() + 2)
        step = cube_step(3000, seed=5)
        want = step()
        results, errors = [], []

        def caller():
            try:
                for _ in range(20):
                    results.append(step() == want)
            except Exception as e:  # reported below, not lost in the thread
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(results) == 80 and all(results)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_code_step_after_fork(threaded_spans):
    # a pool inherited through fork has no threads; the child must build
    # its own or wait forever for its spans
    f, x = code_problem(200, 16, 4, seed=9)
    cfg = SolverConfig(max_iterations=5, neighborhood_cadence=0, threshold_policy=AVERAGE)

    def solve():
        rep = dpcd_solve(f, UNCONSTRAINED, cfg, initial_point=x)
        return np.asarray(rep.final_point).tobytes() + repr(rep.value_trajectory).encode()

    want = solve()
    assert core._span_pool[1] is not None
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        # the child reports through the pipe and leaves without running
        # the parent's test teardown
        code = 1
        try:
            os.close(read_end)
            os.write(write_end, b"same" if solve() == want else b"different")
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        ready, _, _ = select.select([read_end], [], [], 60)
        answer = os.read(read_end, 16) if ready else b"timed out"
    finally:
        os.close(read_end)
        deadline = time.monotonic() + 10
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                break
            time.sleep(0.05)
    assert answer == b"same"
