"""Shared fixtures and oracles for the test suite."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from dpcd import Objective, core, make_quadratic

# property tests draw the same examples on every run, with no per-example
# deadline (timing on a loaded machine is no test result) and no example
# database written next to the sources
settings.register_profile("dpcd", derandomize=True, deadline=None,
                          max_examples=150, database=None)
settings.load_profile("dpcd")


def central_difference(f, p, h=1e-5):
    """Central finite-difference gradient of a scalar function at p."""
    p = np.asarray(p, dtype=float)
    out = np.empty(p.size)
    for i in range(p.size):
        up = p.copy()
        dn = p.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2.0 * h)
    return out


def assert_gradient_matches(obj: Objective, points, rel=1e-5, absolute=1e-8):
    """Check obj.gradient against central differences at each point.

    Entries whose magnitude is tiny are compared absolutely (the relative
    error of a near-zero difference quotient is meaningless), everything
    else relatively.
    """
    for p in points:
        p = np.asarray(p, dtype=float)
        got = np.asarray(obj.gradient(p))
        want = central_difference(obj.value, p)
        scale = np.maximum(np.abs(want), 1.0e-3)
        err = np.abs(got - want)
        bad = (err > rel * scale) & (err > absolute)
        assert not bad.any(), (
            f"gradient mismatch at {p}: analytic {got[bad]} vs fd {want[bad]}")


def peak_bytes(fn, *args):
    """The tracemalloc peak, in bytes, of fn(*args): what the call
    allocates on top of its arguments, at most."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def interior_points(n, count, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.98, 0.98, size=(count, n))


def random_quadratic(n, seed, sparse=False, density=0.3, diagonal=False):
    """Symmetric Gaussian quadratic objective, optionally sparse; with
    diagonal=True every diagonal entry is nonzero, also when sparse."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0
    if sparse:
        mask = rng.random((n, n)) < density
        mask = np.triu(mask) | np.triu(mask).T
        A = A * mask
    if diagonal:
        A[np.diag_indices(n)] = rng.uniform(0.5, 1.5, n) * rng.choice([-1.0, 1.0], n)
    if sparse:
        import scipy.sparse as sp
        A = sp.csr_array(A)
    c = rng.standard_normal(n)
    return make_quadratic(A, c, float(rng.standard_normal()))


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


class SpanPool:
    """Sets the span pool's worker count (core._worker_count) for one
    test; each setting builds a fresh pool on the next threaded pass."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.original = core._span_pool

    def workers(self, count: int) -> None:
        """count workers from here on; 1 runs every span inline."""
        self.close()
        self.monkeypatch.setattr(core, "_worker_count", lambda: count)
        self.monkeypatch.setattr(core, "_span_pool", None)

    def close(self) -> None:
        pool = core._span_pool
        if pool is not None and pool is not self.original and pool[1] is not None:
            pool[1].shutdown()


@pytest.fixture
def threaded_spans(monkeypatch):
    """Spans of 16 entries (core.SPAN_ENTRIES) on at least two workers, so
    inputs of a few dozen entries take the threaded path of
    core._map_spans; yields the SpanPool, to switch the worker count."""
    monkeypatch.setattr(core, "SPAN_ENTRIES", 16)
    pool = SpanPool(monkeypatch)
    pool.workers(max(2, core._worker_count()))
    yield pool
    pool.close()
