"""Differential tests of the kernels that generate and score local-search
candidates, against loop references kept here.

The seeded outputs depend on every bit these kernels return: the random
stream of the sampler, the order of the enumerated moves (the first of
equally good moves wins) and the rounding of each delta. So each test
asserts exact equality with its reference, never closeness.
"""
import itertools
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from dpcd import make_quadratic, objectives
from dpcd.objectives import _DENSE_GATHER_LIMIT
from dpcd.solver import _EVAL_CHUNK, _distinct_rows, _exhaustive_blocks


def reference_flips_delta(A, c, x, flips):
    """Single-flip deltas summed, plus 8*x_u*x_v*A_uv per pair in (u, v)
    order, each pair's coefficients by a 2-D fancy gather (scipy's
    per-element lookup for a sparse A)."""
    if sp.issparse(A):
        A = A.tocsr()
    s = x * (4.0 * A.diagonal() * x - 4.0 * (A @ x) - 2.0 * c)
    xf = x[flips]
    delta = s[flips].sum(axis=1)
    j = flips.shape[1]
    for u in range(j):
        for v in range(u + 1, j):
            avals = np.asarray(A[flips[:, u], flips[:, v]]).ravel()
            delta += 8.0 * xf[:, u] * xf[:, v] * avals
    return delta


def reference_distinct_rows(rng, pool, j, cnt):
    """Floyd's draw with the earlier columns tested as one (cnt, t) block."""
    size = len(pool)
    rows = np.empty((cnt, j), dtype=np.intp)
    for t in range(j):
        top = size - j + t
        draw = rng.integers(0, top + 1, cnt)
        seen = (rows[:, :t] == draw[:, None]).any(axis=1)
        rows[:, t] = np.where(seen, top, draw)
    return pool[rows]


def reference_distinct_rows_loop(rng, pool, j, cnt):
    """Floyd's draw with a fresh collision mask per column, ORed from one
    compare per earlier column and stored through a boolean mask."""
    size = len(pool)
    cols = np.empty((j, cnt), dtype=np.intp)
    for t in range(j):
        top = size - j + t
        draw = rng.integers(0, top + 1, cnt)
        seen = np.zeros(cnt, dtype=bool)
        for earlier in cols[:t]:
            seen |= earlier == draw
        draw[seen] = top
        cols[t] = draw
    return pool[cols.T]


def reference_moves(pools, j):
    """Every radius-j move, one itertools.combinations subset per pool, the
    first pool varying slowest."""
    per_pool = [list(itertools.combinations(p.tolist(), j)) for p in pools]
    return np.array([sum(parts, ()) for parts in itertools.product(*per_pool)],
                    dtype=np.intp).reshape(-1, j * len(pools))


def _symmetric(n, rng, sparse, density=0.3):
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2.0
    A[np.diag_indices(n)] += 1.0
    if not sparse:
        return A
    mask = rng.random((n, n)) < density
    mask = np.triu(mask) | np.triu(mask).T
    return sp.csr_array(A * (mask | np.eye(n, dtype=bool)))


class TestFlipsDelta:
    # dense input gathers from its own buffer at any n (C or F order); sparse
    # input gathers from a dense copy up to the limit, from the CSR beyond it
    @pytest.mark.parametrize("layout,n", [
        ("dense", 12), ("fortran", 12), ("strided", 12), ("dense", _DENSE_GATHER_LIMIT + 1),
        ("sparse", 12), ("sparse", _DENSE_GATHER_LIMIT), ("sparse", _DENSE_GATHER_LIMIT + 1),
    ])
    def test_matches_pair_loop(self, layout, n):
        rng = np.random.default_rng(n)
        A = _symmetric(n, rng, layout == "sparse", density=min(0.3, 20.0 / n))
        if layout == "fortran":
            A = np.asfortranarray(A)
        elif layout == "strided":
            A = np.repeat(np.repeat(A, 2, axis=0), 2, axis=1)[::2, ::2]
            assert not (A.flags.c_contiguous or A.flags.f_contiguous)
        c = rng.standard_normal(n)
        f = make_quadratic(A, c)
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        for x in (signs, rng.uniform(-1.0, 1.0, n)):
            for j in range(1, 11):
                flips = np.argsort(rng.random((60, n)), axis=1)[:, :j]
                got = f.flips_delta(x, flips)
                assert got.dtype == np.float64
                assert np.array_equal(got, reference_flips_delta(A, c, x, flips)), j

    def test_matches_pair_loop_on_candidate_blocks(self):
        # the blocks the search really scores: sampled and enumerated moves,
        # on the cube and on the slice
        rng = np.random.default_rng(3)
        n = 30
        A, c = _symmetric(n, rng, False), rng.standard_normal(n)
        f = make_quadratic(A, c)
        x = np.where(np.arange(n) % 3 == 0, 1.0, -1.0)
        plus, minus = np.nonzero(x > 0)[0], np.nonzero(x < 0)[0]
        blocks = list(_exhaustive_blocks([plus, minus], 3))
        blocks += list(_exhaustive_blocks([np.arange(n)], 3))
        for j in range(1, 6):
            blocks.append(np.concatenate([_distinct_rows(rng, p, j, 500)
                                          for p in (plus, minus)], axis=1))
        for flips in blocks:
            assert np.array_equal(f.flips_delta(x, flips),
                                  reference_flips_delta(A, c, x, flips))


def _weighted_csr(n, edges, weights, seed, dtype=float):
    """Symmetric canonical CSR with `edges` random off-diagonal pairs and a
    full diagonal, every entry drawn from `weights`."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, n, edges), rng.integers(0, n, edges)
    key = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    u, v = key // n, key % n
    w = rng.choice(np.asarray(weights, dtype=dtype), len(key))
    off = u != v
    rows = np.concatenate([u, v[off]])
    cols = np.concatenate([v, u[off]])
    A = sp.csr_array((np.concatenate([w, w[off]]), (rows, cols)), shape=(n, n))
    A.sum_duplicates()
    return A


class TestPairTable:
    """A sparse A up to the dense-gather limit is copied into a dense table
    of the narrowest dtype that gives back every stored entry bit for bit;
    flips_delta and ones_batch read it."""

    @pytest.mark.parametrize("weights,dtype,want", [
        ([1.0, -1.0], float, np.int8),
        ([1, -3, 127], np.int64, np.int8),
        ([300, -2], np.int64, np.float32),
        ([128.0, 1.0], float, np.float32),
        ([0.5, -2.5, 3.0], float, np.float32),
        ([1.0, -0.0], float, np.float32),
        ([0.1, 1.0], float, np.float64),
    ], ids=["unit", "int8-integers", "int64-300", "128", "halves", "negative-zero", "tenths"])
    def test_narrowest_exact_dtype(self, weights, dtype, want):
        A = _weighted_csr(30, 200, weights, 1, dtype)
        table = objectives._pair_table(A)
        assert table.dtype == want
        # every stored entry bit for bit in A's dtype, so a stored -0.0
        # keeps its sign (toarray would add it to +0.0), and zeros elsewhere
        rows = np.repeat(np.arange(30), np.diff(A.indptr))
        assert table[rows, A.indices].astype(A.dtype).tobytes() == A.data.tobytes()
        assert np.count_nonzero(table) == np.count_nonzero(A.data)
        if -0.0 in weights:
            assert np.signbit(table[rows, A.indices][A.data == 0]).all()

    # TestFlipsDelta covers float64 tables (Gaussian weights) at these n
    @pytest.mark.parametrize("n", [_DENSE_GATHER_LIMIT, _DENSE_GATHER_LIMIT + 1])
    @pytest.mark.parametrize("weights", [[1.0, -1.0], [0.5, -1.5]], ids=["int8", "float32"])
    def test_flips_delta_matches_scipy_lookup(self, n, weights):
        A = _weighted_csr(n, 20 * n, weights, n)
        rng = np.random.default_rng(5)
        c = rng.standard_normal(n)
        f = make_quadratic(A, c)
        x = -np.ones(n)
        x[rng.permutation(n)[:40]] = 1.0
        for j in (1, 2, 5, 10):
            flips = np.argsort(rng.random((40, n)), axis=1)[:, :j]
            assert np.array_equal(f.flips_delta(x, flips), reference_flips_delta(A, c, x, flips))

    def test_integer_typed_csr(self):
        A = _weighted_csr(40, 300, [2, -1, 300], 4, np.int64)
        rng = np.random.default_rng(6)
        c = rng.integers(-3, 4, 40).astype(float)
        f = make_quadratic(A, c)
        x = np.where(rng.random(40) < 0.5, 1.0, -1.0)
        flips = np.argsort(rng.random((50, 40)), axis=1)[:, :6]
        assert np.array_equal(f.flips_delta(x, flips), reference_flips_delta(A, c, x, flips))
        ones = np.argsort(rng.random((50, 40)), axis=1)[:, :7]
        X = -np.ones((50, 40))
        X[np.arange(50)[:, None], ones] = 1.0
        assert np.array_equal(f.ones_batch(ones), [f.value(row) for row in X])


def _with_zero_entries(A):
    """Dense symmetric A with a stored -0.0 pair, a +0.0 pair and -0.0 on
    the diagonal."""
    A = np.array(A)
    A[0, 1] = A[1, 0] = -0.0
    A[2, 3] = A[3, 2] = 0.0
    A[4, 4] = -0.0
    return A


def _real_point(rng, n):
    """A point of the box that is no sign vector, with a 0.0 and a -0.0."""
    x = rng.uniform(-1.0, 1.0, n)
    x[0], x[1] = 0.0, -0.0
    return x


def _move_blocks(rng, x, radius, cnt):
    """Blocks of cnt moves of the given radius on the cube and on the slice
    of x."""
    plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x <= 0)
    cube = _distinct_rows(rng, np.arange(len(x)), radius, cnt)
    swap = np.concatenate([_distinct_rows(rng, p, radius, cnt) for p in (plus, minus)], axis=1)
    return {"cube": cube, "slice": swap}


class TestSignedTable:
    """On the dense side (a dense A, or a sparse A's pair table) a block
    whose rows times pairs reach n^2 builds the signed table ((8x)x') o A
    of its point, and each pair term is one take from it; a smaller block
    gathers A_uv and multiplies. Both give the pair loop's bits."""

    N = 24

    @staticmethod
    def _count_tables(monkeypatch):
        # each signed table starts as one outer product
        built = []
        outer = np.outer

        def counted(*args, **kwargs):
            built.append(1)
            return outer(*args, **kwargs)

        monkeypatch.setattr(np, "outer", counted)
        return built

    @pytest.mark.parametrize("point", ["signs", "real"])
    @pytest.mark.parametrize("kind", ["dense", "table"])
    def test_both_sides_of_the_rule(self, kind, point, monkeypatch):
        n = self.N
        rng = np.random.default_rng(17)
        if kind == "dense":
            A = _with_zero_entries(_symmetric(n, rng, False))
        else:
            A = _weighted_csr(n, 120, [1.0, -0.0, 0.5, -2.0], 17)
            assert objectives._pair_table(A).dtype == np.float32
        c = rng.standard_normal(n)
        x = np.where(rng.random(n) < 0.4, 1.0, -1.0) if point == "signs" else _real_point(rng, n)
        built = self._count_tables(monkeypatch)
        for radius in range(1, 6):
            for space in ("cube", "slice"):
                width = radius * (1 if space == "cube" else 2)
                pairs = width * (width - 1) // 2
                # the largest row count below the rule and the smallest on it
                sizes = [max(1, (n * n - 1) // pairs), -(-n * n // pairs)] if pairs else [50]
                for cnt in sizes:
                    flips = _move_blocks(rng, x, radius, cnt)[space]
                    before = len(built)
                    got = make_quadratic(A, c).flips_delta(x, flips)
                    assert len(built) - before == (pairs > 0 and cnt * pairs >= n * n)
                    with monkeypatch.context() as m:
                        m.setattr(objectives, "BLOCK_ENTRIES", 0)
                        gathered = make_quadratic(A, c).flips_delta(x, flips)
                    assert len(built) - before == (pairs > 0 and cnt * pairs >= n * n)
                    want = reference_flips_delta(A, c, x, flips)
                    assert got.tobytes() == gathered.tobytes() == want.tobytes(), (space, cnt)

    def test_block_entries_cap(self, monkeypatch):
        # a point whose n^2 exceeds BLOCK_ENTRIES never gets a table
        n = self.N
        rng = np.random.default_rng(4)
        A, c = _symmetric(n, rng, False), rng.standard_normal(n)
        x = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        flips = _distinct_rows(rng, np.arange(n), 5, 4 * n * n)
        built = self._count_tables(monkeypatch)
        monkeypatch.setattr(objectives, "BLOCK_ENTRIES", n * n - 1)
        got = make_quadratic(A, c).flips_delta(x, flips)
        assert not built
        assert got.tobytes() == reference_flips_delta(A, c, x, flips).tobytes()


class TestPointState:
    """flips_delta keeps the gains and the pair source of the last point
    it scored, keyed on a private copy of that point's bits, and reads
    A @ x from value_gradient's last call at an equal point; every call
    returns what a freshly built objective returns."""

    @staticmethod
    def _case(kind):
        if kind == "csr":
            n = _DENSE_GATHER_LIMIT + 1
            rng = np.random.default_rng(21)
            A = _symmetric(n, rng, True, density=10.0 / n)
        else:
            n = 30
            rng = np.random.default_rng(22)
            A = _symmetric(n, rng, kind == "table")
            A = _with_zero_entries(A) if kind == "dense" else A
        return A, rng.standard_normal(n), rng

    @staticmethod
    def _blocks(rng, x):
        # the single flip of entry 0, which may hold a zero of either
        # sign; then blocks big enough for a signed table at n = 30
        blocks = [np.zeros((1, 1), dtype=np.intp)]
        for radius in (2, 3, 5):
            blocks.extend(_move_blocks(rng, x, radius, 400).values())
        return blocks

    def _check(self, f, A, c, x, blocks):
        for flips in blocks:
            got = f.flips_delta(x, flips)
            fresh = make_quadratic(A, c).flips_delta(np.array(x), flips)
            assert got.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("kind", ["dense", "table", "csr"])
    def test_points_revisited(self, kind):
        A, c, rng = self._case(kind)
        n = len(c)
        x1 = _real_point(rng, n)
        x2 = x1.copy()
        x2[0] = -0.0  # equal to x1 as numbers, not as bits
        x3 = np.where(rng.random(n) < 0.3, 1.0, -1.0)
        blocks = self._blocks(rng, x3)
        f = make_quadratic(A, c)
        # each point scored after an evaluation at it, at an equal point
        # of other bits, or at another point
        for x, evaluated in ((x1, x1), (x2, x1), (x1, x2), (x3, x1), (x1, x3), (x3, x3)):
            f.value_gradient(evaluated)
            self._check(f, A, c, x, blocks)

    @pytest.mark.parametrize("kind", ["dense", "table", "csr"])
    def test_point_mutated_in_place(self, kind):
        A, c, rng = self._case(kind)
        n = len(c)
        x = np.where(rng.random(n) < 0.3, 1.0, -1.0)
        blocks = self._blocks(rng, x)
        f = make_quadratic(A, c)
        self._check(f, A, c, x, blocks)
        for i in (3, 0, 7):
            f.value_gradient(x)
            x[i] = -x[i]
            self._check(f, A, c, x, blocks)
        x[0] = 0.0
        self._check(f, A, c, x, blocks)
        x[0] = -0.0
        self._check(f, A, c, x, blocks)

    def test_threads_sharing_one_objective(self):
        # callers on several threads swap the kept point and the kept
        # product under each other; a call may rebuild another's state,
        # never read a wrong one
        A, c, rng = self._case("dense")
        n = len(c)
        points = [np.where(rng.random(n) < p, 1.0, -1.0) for p in (0.2, 0.5, 0.8)]
        blocks = [b for x in points for b in self._blocks(rng, x)]
        want = {(i, k): make_quadratic(A, c).flips_delta(x, F).tobytes()
                for i, x in enumerate(points) for k, F in enumerate(blocks)}
        f = make_quadratic(A, c)
        results, errors = [], []

        def caller(offset):
            try:
                for step in range(200):
                    i, k = (step + offset) % len(points), (step * 7 + offset) % len(blocks)
                    f.value_gradient(points[(i + step % 2) % len(points)])
                    got = f.flips_delta(points[i], blocks[k])
                    results.append(got.tobytes() == want[i, k])
            except Exception as e:  # reported below, not lost in the thread
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(results) == 800 and all(results)


class TestOnesBatchSides:
    """For a sparse A with a pair table, ones_batch sums a sample's pairs
    from the table while its r(r-1)/2 lookups are no more than the r*nnz/n
    entries of the sparse product, (r - 1)*n <= 2*nnz, and takes the
    product otherwise; a dense A always takes the product. The two sides
    agree exactly on integer weights and up to rounding on others."""

    N = 60

    @staticmethod
    def _counting_products(monkeypatch):
        # every product-side call builds one sparse indicator matrix
        made = []
        build = sp.csr_array

        def counted(*args, **kwargs):
            made.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(objectives.sp, "csr_array", counted)
        return made

    @pytest.mark.parametrize("weights,exact", [
        ([1.0], True), ([1.0, -2.0, 3.0], True), ([0.1, 0.3, 0.7], False)],
        ids=["unit", "integers", "tenths"])
    def test_both_sides_match_value(self, weights, exact, monkeypatch):
        n = self.N
        # more than n^2/2 stored entries: the table side at every r
        A = _weighted_csr(n, 4 * n * n, weights, 2)
        assert (n - 1) * n <= 2 * A.nnz
        rng = np.random.default_rng(3)
        c = rng.integers(-3, 4, n).astype(float)
        table = make_quadratic(A, c, 1.0)
        monkeypatch.setattr(objectives, "_DENSE_GATHER_LIMIT", 0)
        product = make_quadratic(A, c, 1.0)
        made = self._counting_products(monkeypatch)
        for r in (0, 1, 2, 40, n):
            ones = np.argsort(rng.random((30, n)), axis=1)[:, :r]
            X = -np.ones((30, n))
            X[np.arange(30)[:, None], ones] = 1.0
            want = np.array([table.value(row) for row in X])
            before = len(made)
            got_table = table.ones_batch(ones)
            assert len(made) == before, r
            got_product = product.ones_batch(ones)
            assert len(made) == before + 1, r
            for got in (got_table, got_product):
                if exact:
                    assert np.array_equal(got, want), r
                else:
                    assert np.allclose(got, want, rtol=1e-12, atol=1e-9), r

    def test_cost_test_picks_the_side(self, monkeypatch):
        n = self.N
        A = _weighted_csr(n, 300, [1.0], 7)
        f = make_quadratic(A, np.zeros(n))
        dense = make_quadratic(A.toarray(), np.zeros(n))
        edge = 2 * A.nnz // n + 1  # the largest r with (r - 1)*n <= 2*nnz
        made = self._counting_products(monkeypatch)
        rng = np.random.default_rng(8)
        for g, r, product in ((f, edge, False), (f, edge + 1, True), (dense, 2, True)):
            ones = np.argsort(rng.random((20, n)), axis=1)[:, :r]
            X = -np.ones((20, n))
            X[np.arange(20)[:, None], ones] = 1.0
            before = len(made)
            assert np.array_equal(g.ones_batch(ones), [g.value(row) for row in X])
            assert len(made) - before == product, r


class TestPlusRowBlock:
    """Past the dense-gather limit, a sparse A serves the pairs whose first
    column holds only +1 entries of x from a dense block of the +1 rows,
    and the other pairs from scipy's lookup."""

    N = _DENSE_GATHER_LIMIT + 1

    @pytest.fixture
    def case(self):
        rng = np.random.default_rng(11)
        A = _symmetric(self.N, rng, True, density=20.0 / self.N)
        c = rng.standard_normal(self.N)
        x = -np.ones(self.N)
        x[rng.permutation(self.N)[:40]] = 1.0
        return A, c, x, rng

    @staticmethod
    def _slice_rows(rng, first, second, j, cnt):
        return np.concatenate([_distinct_rows(rng, p, j, cnt) for p in (first, second)], axis=1)

    def _check(self, A, c, x, flips):
        got = make_quadratic(A, c).flips_delta(x, flips)
        assert np.array_equal(got, reference_flips_delta(A, c, x, flips))

    def test_slice_blocks(self, case):
        # plus-first columns, as the slice search draws them
        A, c, x, rng = case
        plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
        for j in (1, 2, 3, 5):
            self._check(A, c, x, self._slice_rows(rng, plus, minus, j, 300))

    def test_columns_mixing_plus_and_minus(self, case):
        # even rows put their +1 entries first, odd rows last, so every
        # column mixes them and each pair goes through scipy's lookup
        A, c, x, rng = case
        plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
        flips = np.empty((300, 6), dtype=np.intp)
        flips[::2] = self._slice_rows(rng, plus, minus, 3, 150)
        flips[1::2] = self._slice_rows(rng, minus, plus, 3, 150)
        self._check(A, c, x, flips)
        self._check(A, c, x, np.argsort(rng.random((300, self.N)), axis=1)[:, :7])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["all-plus", "all-minus"])
    def test_uniform_sign_x(self, case, sign):
        A, c, _, rng = case
        flips = np.argsort(rng.random((200, self.N)), axis=1)[:, :6]
        self._check(A, c, np.full(self.N, sign), flips)

    def test_block_reused_at_a_point(self, case, monkeypatch):
        # one block of +1 rows per point, over every neighbour of the +1
        # set, serves each later block there as a per-call build would
        A, c, x, rng = case
        plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
        y = x.copy()
        y[plus[0]], y[minus[0]] = -1.0, 1.0
        visits = []
        for point in (x, x, y, x):
            pools = np.flatnonzero(point > 0), np.flatnonzero(point < 0)
            flips = [self._slice_rows(rng, *pools, j, 300) for j in (1, 2, 3, 5)]
            visits.append((point, flips, [make_quadratic(A, c).flips_delta(point, F)
                                          for F in flips]))
        made = []
        make = objectives._sparse_pair_coeffs

        def counted(*args):
            made.append(1)
            return make(*args)

        monkeypatch.setattr(objectives, "_sparse_pair_coeffs", counted)
        f = make_quadratic(A, c)
        for point, flips, per_call in visits:
            for F, want in zip(flips, per_call):
                assert f.flips_delta(point, F).tobytes() == want.tobytes()
        # x, then y, then x again
        assert len(made) == 3
        self._check(A, c, x, visits[-1][1][-1])

    def test_block_entries_fallback(self, case, monkeypatch):
        monkeypatch.setattr(objectives, "BLOCK_ENTRIES", 1)
        A, c, x, rng = case
        plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
        self._check(A, c, x, self._slice_rows(rng, plus, minus, 3, 300))

    @pytest.mark.parametrize("cap", [None, 1], ids=["row-block", "no-row-block"])
    def test_one_scipy_lookup_per_block(self, case, cap, monkeypatch):
        # every pair the block of +1 rows cannot serve is read by one
        # scipy lookup per candidate block, whatever the radius
        A, c, x, rng = case
        if cap is not None:
            monkeypatch.setattr(objectives, "BLOCK_ENTRIES", cap)
        plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
        blocks = [np.argsort(rng.random((300, self.N)), axis=1)[:, :4],
                  self._slice_rows(rng, plus, minus, 3, 300),
                  self._slice_rows(rng, plus, minus, 5, 300)]
        wants = [reference_flips_delta(A, c, x, flips) for flips in blocks]
        f = make_quadratic(A, c)
        f.flips_delta(x, blocks[0][:, :1])  # the point's state, built once
        keys = []
        get = type(A).__getitem__

        def counted(self, key):
            keys.append(key)
            return get(self, key)

        monkeypatch.setattr(type(A), "__getitem__", counted)
        passes = objectives._pair_filter(A)
        for flips, want in zip(blocks, wants):
            before = len(keys)
            assert np.array_equal(f.flips_delta(x, flips), want)
            assert len(keys) - before == 1
            # the lookup reads just the pair filter's hits among the pairs
            # the +1-row block cannot serve, and they are under 20 % of them
            first, second = np.triu_indices(flips.shape[1], 1)
            if cap is None:
                missed = ~(x[flips[:, first]] > 0).all(axis=0)
                first, second = first[missed], second[missed]
            a, b = flips[:, first].T.ravel(), flips[:, second].T.ravel()
            hit = passes(a, b).astype(bool)
            rows, cols = keys[-1]
            assert np.array_equal(rows, a[hit]) and np.array_equal(cols, b[hit])
            assert hit.sum() < 0.2 * len(a)

    @pytest.mark.parametrize("golden", [None, 0], ids=["fibonacci", "one-slot-a-row"])
    def test_pair_filter(self, case, golden, monkeypatch):
        # every stored key passes; about 1 - e^(-1/8) of the others do,
        # and all of a row's keys when every key hashes to one slot
        A, _, _, rng = case
        if golden is not None:
            monkeypatch.setattr(objectives, "_GOLDEN", np.uint64(golden))
        passes = objectives._pair_filter(A)
        rows = np.repeat(np.arange(self.N), np.diff(A.indptr))
        assert passes(rows, A.indices).all()
        a, b = rng.integers(0, self.N, (2, 200000))
        absent = ~np.isin(a * self.N + b, rows * self.N + A.indices)
        rate = passes(a, b)[absent].mean()
        assert (0.09 < rate < 0.15) if golden is None else rate == 1.0

    @pytest.mark.parametrize("golden", [None, 0], ids=["fibonacci", "every-key-collides"])
    @pytest.mark.parametrize("zeros", [False, True], ids=["weights", "signed-zeros"])
    def test_filter_keeps_the_bits(self, case, golden, zeros, monkeypatch):
        # each pair coefficient is scipy's value, and each delta has the
        # reference's bytes, on A's weights and on stored +0.0 and -0.0
        # entries (one -0.0 without its mirror). A pair the filter passes
        # but A does not store reads +0.0. Zeros compare as +0.0: scipy
        # itself gives a stored -0.0 back as -0.0 when one call reads more
        # than nnz/10 pairs (it bisects each row) and as +0.0 otherwise
        # (it sums a row's matches from 0), and a zero's sign never
        # reaches a delta, whose sums start at +0.0
        A, c, x, rng = case
        if golden is not None:
            monkeypatch.setattr(objectives, "_GOLDEN", np.uint64(golden))
        plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
        flips = np.empty((300, 6), dtype=np.intp)
        flips[::2] = self._slice_rows(rng, plus, minus, 3, 150)
        flips[1::2] = self._slice_rows(rng, minus, plus, 3, 150)
        if zeros:
            upper = sp.triu(A, format="coo")
            signs = rng.choice([0.0, -0.0], upper.nnz)
            off = upper.row != upper.col
            p, q = flips[0, 0], flips[0, 3]  # a pair of the first move
            A = sp.csr_array((np.concatenate([signs, signs[off], [-0.0]]),
                              (np.concatenate([upper.row, upper.col[off], [p]]),
                               np.concatenate([upper.col, upper.row[off], [q]]))),
                             shape=A.shape)
            assert A.has_canonical_format and A[p, q] == 0 and A[q, p] == 0
        for block in (flips, np.argsort(rng.random((300, self.N)), axis=1)[:, :4]):
            cols = np.ascontiguousarray(block.T)
            coeffs = objectives._sparse_pair_coeffs(A, x, objectives._pair_filter(A))(cols)
            for u, v in itertools.combinations(range(len(cols)), 2):
                want = np.asarray(A[cols[u], cols[v]]).ravel()
                assert (coeffs(u, v) + 0.0).tobytes() == (want + 0.0).tobytes(), (u, v)
            got = make_quadratic(A, c).flips_delta(x, block)
            assert got.tobytes() == reference_flips_delta(A, c, x, block).tobytes()

    @pytest.mark.parametrize("kind", [sp.csr_array, sp.csr_matrix])
    def test_block_without_filter_hits(self, case, kind):
        # an A that stores nothing: no pair passes the filter, so the
        # block's scipy lookup gets empty index arrays
        _, c, x, rng = case
        A = kind((self.N, self.N))
        flips = np.argsort(rng.random((300, self.N)), axis=1)[:, :4]
        got = make_quadratic(A, c).flips_delta(x, flips)
        assert got.tobytes() == reference_flips_delta(A, c, x, flips).tobytes()

    def test_filter_built_once(self, case, monkeypatch):
        # one filter per objective, built when a search first scores a point
        A, c, x, rng = case
        made = []
        build = objectives._pair_filter

        def counted(A):
            made.append(1)
            return build(A)

        monkeypatch.setattr(objectives, "_pair_filter", counted)
        f = make_quadratic(A, c)
        assert not made
        plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
        for point in (x, -x, x):
            f.flips_delta(point, self._slice_rows(rng, plus, minus, 3, 50))
        assert len(made) == 1

    def test_duplicate_entries(self, case):
        # every stored entry split into two halves: the halves are summed,
        # in a copy, before any pair reads the block
        A, c, x, rng = case
        halves = sp.csr_array((np.repeat(A.data / 2.0, 2), np.repeat(A.indices, 2),
                               A.indptr * 2), shape=A.shape)
        plus, minus = np.flatnonzero(x > 0), np.flatnonzero(x < 0)
        flips = self._slice_rows(rng, plus, minus, 3, 300)
        got = make_quadratic(halves, c).flips_delta(x, flips)
        assert np.array_equal(got, reference_flips_delta(A, c, x, flips))
        assert halves.nnz == 2 * A.nnz and not halves.has_canonical_format


def _pool_cases():
    cases = []
    for j in range(1, 11):
        for size in sorted({1, 2, j, j + 1, 40}):
            if size >= j:
                cases.append((size, j))
    return cases


class TestDistinctRows:
    @pytest.mark.parametrize("size,j", _pool_cases())
    @pytest.mark.parametrize("cnt", [1, 500])
    def test_matches_block_reference(self, size, j, cnt):
        pool = np.arange(size) * 3 + 7
        rng, ref = np.random.default_rng(size * 100 + j), np.random.default_rng(size * 100 + j)
        got = _distinct_rows(rng, pool, j, cnt)
        want = reference_distinct_rows(ref, pool, j, cnt)
        assert got.dtype == want.dtype and got.shape == (cnt, j)
        assert np.array_equal(got, want)
        # the stream is left where the reference leaves it
        assert rng.integers(0, 1 << 30) == ref.integers(0, 1 << 30)


    @pytest.mark.parametrize("j", range(1, 7))
    @pytest.mark.parametrize("size", [6, 7, 12, 40, 1000])
    def test_matches_column_loop(self, size, j):
        pool = np.arange(size) * 5 + 2
        rng, ref = np.random.default_rng(size + j), np.random.default_rng(size + j)
        for cnt in (1, 37, 2000):
            got = _distinct_rows(rng, pool, j, cnt)
            want = reference_distinct_rows_loop(ref, pool, j, cnt)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state


class TestExhaustiveBlocks:
    @pytest.mark.parametrize("sizes,top", [
        ((1,), 1), ((2,), 2), ((12,), 10), ((14,), 5),
        ((0, 4), 0), ((1, 1), 1), ((1, 5), 1), ((2, 2), 2), ((3, 7), 3), ((10, 10), 10),
        ((12, 13), 4),
    ], ids=lambda v: str(v))
    def test_matches_itertools(self, sizes, top):
        rng = np.random.default_rng(sum(sizes))
        perm = rng.permutation(sum(sizes))
        pools = np.split(perm, np.cumsum(sizes)[:-1])
        blocks = list(_exhaustive_blocks(pools, top))
        assert all(0 < len(b) <= _EVAL_CHUNK for b in blocks)
        assert all(b.dtype == np.intp for b in blocks)
        rows = 0
        for j in range(1, top + 1):
            width = j * len(pools)
            got = np.concatenate([b for b in blocks if b.shape[1] == width])
            assert np.array_equal(got, reference_moves(pools, j)), j
            rows += len(got)
        # an empty pool (no +1 entry on the slice) leaves no move at all
        assert sum(map(len, blocks)) == rows
        widths = [b.shape[1] for b in blocks]
        assert widths == sorted(widths)
