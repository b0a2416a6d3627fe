"""Shared fixtures and oracles for the test suite."""
import numpy as np
import pytest
from hypothesis import settings

from dpcd import Objective, make_quadratic

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
