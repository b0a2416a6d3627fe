"""Hashing driver, closed-form solves, retrieval metrics, matrix files."""
import numpy as np
import pytest

from dpcd import (DimensionError, DomainError, NumericError, ParseError,
                  alternating_hash, encode, evaluate_retrieval,
                  load_matrix, load_matrix_binary, load_matrix_csv,
                  save_matrix_binary, signs, solve_projection, solve_w)

from conftest import peak_bytes


class TestSolveW:
    def test_hand_case(self):
        B = np.array([[1.0], [-1.0]])
        Y = np.array([[1.0, 0.0], [0.0, 1.0]])
        W = solve_w(B, Y, lam=0.0)
        assert np.allclose(W, [[0.5, -0.5]])

    def test_ridge_shrinks_solution(self, rng):
        B = signs(rng.standard_normal((40, 6)))
        Y = rng.standard_normal((40, 3))
        norms = [np.linalg.norm(solve_w(B, Y, lam)) for lam in (0.0, 1e3, 1e6)]
        assert norms[0] >= norms[1] >= norms[2]
        assert norms[2] < 1e-2 * norms[0] + 1e-12

    def test_residual_minimal_among_perturbations(self, rng):
        B = signs(rng.standard_normal((30, 4)))
        Y = rng.standard_normal((30, 2))
        W = solve_w(B, Y, lam=0.0)
        base = np.linalg.norm(Y - B @ W)
        for _ in range(100):
            other = W + rng.standard_normal(W.shape) * 0.1
            assert base <= np.linalg.norm(Y - B @ other) + 1e-12

    def test_stationarity(self, rng):
        for lam in (0.0, 0.5, 10.0):
            B = signs(rng.standard_normal((25, 5)))
            Y = rng.standard_normal((25, 4))
            W = solve_w(B, Y, lam)
            grad = B.T @ (B @ W - Y) + lam * W
            assert np.abs(grad).max() <= 1e-8 * max(1.0, np.linalg.norm(B.T @ Y))

    def test_singular_without_ridge(self):
        B = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        Y = np.eye(3)
        with pytest.raises(NumericError, match="lam > 0"):
            solve_w(B, Y, lam=0.0)
        solve_w(B, Y, lam=0.1)

    def test_row_mismatch(self):
        with pytest.raises(DimensionError):
            solve_w(np.ones((3, 1)), np.ones((4, 1)), lam=0.0)


class TestSolveProjection:
    def test_identity_features(self):
        B = signs(np.random.default_rng(3).standard_normal((5, 2)))
        P = solve_projection(np.eye(5), B, ridge=0.0)
        assert np.allclose(P, B)

    def test_orthonormal_features(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((20, 6)))
        B = signs(rng.standard_normal((20, 3)))
        P = solve_projection(Q, B, ridge=0.0)
        assert np.allclose(P, Q.T @ B)

    def test_default_ridge_keeps_signs(self, rng):
        B = signs(rng.standard_normal((6, 4)))
        P = solve_projection(np.eye(6), B)
        assert np.array_equal(encode(np.eye(6), P), B)

    def test_residual_minimal(self, rng):
        X = rng.standard_normal((50, 8))
        B = signs(rng.standard_normal((50, 3)))
        P = solve_projection(X, B, ridge=0.0)
        base = np.linalg.norm(X @ P - B)
        for _ in range(100):
            other = P + rng.standard_normal(P.shape) * 0.05
            assert base <= np.linalg.norm(X @ other - B) + 1e-12

    def test_rank_deficient_needs_ridge(self):
        X = np.zeros((4, 3))
        B = signs(np.ones((4, 2)))
        with pytest.raises(NumericError):
            solve_projection(X, B, ridge=0.0)


class TestEncode:
    def test_zero_projection_gives_plus_one(self):
        X = np.random.default_rng(0).standard_normal((4, 3))
        assert np.all(encode(X, np.zeros((3, 2))) == 1.0)

    def test_output_is_signs(self, rng):
        codes = encode(rng.standard_normal((10, 4)), rng.standard_normal((4, 6)))
        assert set(np.unique(codes)) <= {-1.0, 1.0}

    def test_single_active_column(self, rng):
        X = rng.standard_normal((8, 3))
        P = np.zeros((3, 2))
        P[1, 1] = 1.0
        codes = encode(X, P)
        assert np.array_equal(codes[:, 1], signs(X[:, 1]))
        assert np.all(codes[:, 0] == 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            encode(np.ones((2, 3)), np.ones((4, 1)))


class TestAlternatingHash:
    def test_fixed_point_when_labels_representable(self, rng):
        B0 = signs(rng.standard_normal((40, 4)))
        W0 = rng.standard_normal((4, 3))
        Y = B0 @ W0
        X = rng.standard_normal((40, 6))
        model = alternating_hash(X, Y, r=4, lam=0.0, seed=1, initial_codes=B0)
        assert np.array_equal(model.B, B0)
        assert model.loss_history[0] == pytest.approx(0.0, abs=1e-18)
        assert model.loss_history[-1] == pytest.approx(model.loss_history[0])

    def test_loss_monotone_on_random_instances(self, rng):
        for trial in range(20):
            n, d, c, r = 30, 5, 3, 4
            X = rng.standard_normal((n, d))
            Y = np.zeros((n, c))
            Y[np.arange(n), rng.integers(0, c, n)] = 1.0
            model = alternating_hash(X, Y, r=r, lam=1.0, seed=trial)
            diffs = np.diff(model.loss_history)
            assert np.all(diffs <= 1e-9), f"trial {trial}: {model.loss_history}"

    def test_final_loss_not_above_initial(self, rng):
        X = rng.standard_normal((50, 8))
        Y = np.zeros((50, 5))
        Y[np.arange(50), rng.integers(0, 5, 50)] = 1.0
        model = alternating_hash(X, Y, r=8, lam=1.0, seed=9)
        assert model.loss_history[-1] <= model.loss_history[0] + 1e-12

    def test_history_pairs_per_outer(self, rng):
        X = rng.standard_normal((20, 4))
        Y = rng.standard_normal((20, 2))
        model = alternating_hash(X, Y, r=3, lam=0.5, seed=2, outer_iterations=4)
        assert len(model.loss_history) == 2 * model.outer_iterations
        assert model.B.shape == (20, 3)
        assert model.W.shape == (3, 2)
        assert model.P.shape == (4, 3)

    def test_deterministic(self, rng):
        X = rng.standard_normal((25, 5))
        Y = rng.standard_normal((25, 3))
        a = alternating_hash(X, Y, r=4, seed=7)
        b = alternating_hash(X, Y, r=4, seed=7)
        assert np.array_equal(a.B, b.B)
        assert a.loss_history == b.loss_history

    def test_shape_validation(self, rng):
        X = rng.standard_normal((10, 3))
        Y = rng.standard_normal((8, 2))
        with pytest.raises(DimensionError):
            alternating_hash(X, Y, r=2)
        with pytest.raises(DomainError):
            alternating_hash(X, Y[:10], r=0)
        with pytest.raises(DimensionError):
            alternating_hash(X, rng.standard_normal((10, 2)), r=2,
                             initial_codes=np.ones((10, 3)))

    def test_loss_helper_matches_history(self, rng):
        X = rng.standard_normal((15, 4))
        Y = rng.standard_normal((15, 2))
        B0 = signs(rng.standard_normal((15, 3)))

        def loss(B, W):
            R = Y - B @ W
            return 0.5 * np.sum(R * R) + 0.5 * 2.0 * np.sum(W * W)

        model = alternating_hash(X, Y, r=3, lam=2.0, seed=5, initial_codes=B0)
        # the first entry is the loss after the first W solve
        assert model.loss_history[0] == pytest.approx(loss(B0, solve_w(B0, Y, 2.0)))
        assert model.loss_history[-1] == pytest.approx(loss(model.B, model.W))


@pytest.mark.usefixtures("threaded_spans")
class TestAlternatingHashThreaded(TestAlternatingHash):
    """TestAlternatingHash again, on spans of 16 entries over two or more
    workers."""


def whole_matrix_retrieval(Q, D, rel, k):
    """Retrieval scores from the full (queries, database) distance matrix."""
    dist = (Q.shape[1] - Q @ D.T) / 2.0
    ap_sum = hits = 0.0
    for qi in range(Q.shape[0]):
        flags = rel[qi, np.argsort(dist[qi], kind="stable")]
        total = int(flags.sum())
        if total:
            positions = np.nonzero(flags)[0]
            ap_sum += float((np.arange(1, total + 1) / (positions + 1.0)).mean())
        hits += float(flags[:k].sum()) / k
    return ap_sum / Q.shape[0], hits / Q.shape[0]


class TestEvaluateRetrieval:
    def test_all_relevant(self):
        q = np.array([[1.0, 1.0]])
        db = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        score = evaluate_retrieval(q, db, [0], [0, 0, 0], k=2)
        assert score.map == pytest.approx(1.0)
        assert score.precision_at_k == pytest.approx(1.0)

    def test_none_relevant(self):
        q = np.array([[1.0, 1.0]])
        db = np.array([[1.0, 1.0], [1.0, -1.0]])
        score = evaluate_retrieval(q, db, [0], [1, 1], k=1)
        assert score.map == 0.0
        assert score.precision_at_k == 0.0

    def test_hand_case_five_sixths(self):
        q = np.array([[1.0, 1.0]])
        db = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        # distances 0, 1, 2; relevance yes, no, yes
        score = evaluate_retrieval(q, db, [0], [0, 1, 0], k=2)
        assert score.map == pytest.approx(5.0 / 6.0)
        assert score.precision_at_k == pytest.approx(0.5)

    @pytest.mark.parametrize("r", [2, 300])
    def test_distance_tie_prefers_lower_id(self, r):
        q = np.ones((1, r))
        db = np.ones((2, r))
        # both at distance 0: id 0 (irrelevant) must rank first
        score = evaluate_retrieval(q, db, [0], [1, 0], k=1)
        assert score.map == pytest.approx(0.5)
        assert score.precision_at_k == 0.0

    def test_distances_beyond_one_byte_keep_their_order(self):
        # distance 256 must rank after distance 10; a one-byte count would
        # wrap it to 0 and put the relevant id 0 first
        q = np.ones((1, 300))
        db = np.ones((2, 300))
        db[0, :256] = -1.0
        db[1, :10] = -1.0
        score = evaluate_retrieval(q, db, [0], [0, 1], k=1)
        assert score.map == 0.5
        assert score.precision_at_k == 0.0

    @pytest.mark.parametrize("bad", [0.5, 0.0, -2.0, -0.0, np.nan, np.inf])
    def test_rejects_codes_that_are_not_signs(self, bad):
        codes = np.ones((3, 4))
        codes[1, 2] = bad
        with pytest.raises(DomainError):
            evaluate_retrieval(codes[:1], codes, [0], [0, 1, 0], k=1)
        with pytest.raises(DomainError):
            evaluate_retrieval(codes[1:2], np.ones((3, 4)), [0], [0, 1, 0], k=1)

    def test_multi_hot_labels(self):
        q = np.array([[1.0, -1.0]])
        db = np.array([[1.0, -1.0], [-1.0, 1.0]])
        ql = np.array([[1, 0, 1]])
        dl = np.array([[0, 0, 1], [0, 1, 0]])
        score = evaluate_retrieval(q, db, ql, dl, k=2)
        assert score.map == pytest.approx(1.0)
        assert score.precision_at_k == pytest.approx(0.5)

    def test_cutoff_validation(self):
        q = db = np.ones((1, 2))
        with pytest.raises(DomainError):
            evaluate_retrieval(q, db, [0], [0], k=2)
        with pytest.raises(DomainError):
            evaluate_retrieval(q, db, [0], [0], k=0)

    def test_label_shape_mismatch(self):
        q = db = np.ones((2, 2))
        with pytest.raises(DimensionError):
            evaluate_retrieval(q, db, [0, 1], [[1, 0], [0, 1]], k=1)
        with pytest.raises(DimensionError):
            evaluate_retrieval(q, db, [0], [0, 1], k=1)

    def test_relabeling_invariance(self, rng):
        q = signs(rng.standard_normal((5, 8)))
        db = signs(rng.standard_normal((20, 8)) + rng.standard_normal((20, 1)))
        ql = rng.integers(0, 3, 5)
        dl = rng.integers(0, 3, 20)
        base = evaluate_retrieval(q, db, ql, dl, k=5)
        # apply a label permutation: relevance structure is unchanged
        perm = np.array([2, 0, 1])
        again = evaluate_retrieval(q, db, perm[ql], perm[dl], k=5)
        assert again.map == pytest.approx(base.map)
        assert again.precision_at_k == pytest.approx(base.precision_at_k)

    def test_row_permutation_invariance(self, rng):
        # distinct distances per query, so the tie-break never fires
        q = np.ones((1, 6))
        db = np.ones((6, 6))
        for i in range(6):
            db[i, :i] = -1.0
        dl = np.array([0, 1, 0, 1, 0, 1])
        base = evaluate_retrieval(q, db, [0], dl, k=3)
        perm = rng.permutation(6)
        again = evaluate_retrieval(q, db[perm], [0], dl[perm], k=3)
        assert again.map == pytest.approx(base.map)
        assert again.precision_at_k == pytest.approx(base.precision_at_k)

    @pytest.mark.parametrize("r", [6, 300])
    def test_query_blocks_match_whole_matrix(self, rng, r):
        # 50000 database rows put 83 queries in a block: 100 queries span
        # two; r=6 ranks one-byte distances, r=300 two-byte ones
        q = signs(rng.standard_normal((100, r)))
        db = signs(rng.standard_normal((50000, r)))
        ql = rng.integers(0, 4, 100)
        dl = rng.integers(0, 4, 50000)
        score = evaluate_retrieval(q, db, ql, dl, k=50)
        want = whole_matrix_retrieval(q, db, ql[:, None] == dl[None, :], 50)
        assert (score.map, score.precision_at_k) == want
        hot_q, hot_d = np.eye(4)[ql], np.eye(4)[dl]
        score = evaluate_retrieval(q, db, hot_q, hot_d, k=50)
        assert (score.map, score.precision_at_k) == want


    @pytest.mark.parametrize("r", [1, 7, 8, 9, 32, 63, 64, 65, 100])
    def test_packed_distances_match_float_formula(self, r):
        # whole and partial bytes and 64-bit words; the database repeats a
        # few codes, so ties between distinct ids are common at every r
        rng = np.random.default_rng(r)
        q = signs(rng.standard_normal((30, r)))
        base = signs(rng.standard_normal((40, r)))
        db = base[rng.integers(0, 40, 400)]
        db[:30] = q
        ql = rng.integers(0, 5, 30)
        dl = rng.integers(0, 5, 400)
        want = whole_matrix_retrieval(q, db, ql[:, None] == dl[None, :], 17)
        score = evaluate_retrieval(q, db, ql, dl, k=17)
        assert (score.map, score.precision_at_k) == want
        hot_q = rng.random((30, 5)) < 0.3
        hot_d = rng.random((400, 5)) < 0.3
        want = whole_matrix_retrieval(q, db, (hot_q @ hot_d.T.astype(int)) > 0, 17)
        score = evaluate_retrieval(q, db, hot_q.astype(float), hot_d.astype(float), k=17)
        assert (score.map, score.precision_at_k) == want


def test_retrieval_sign_check_allocates_no_float_copy(rng):
    # a 50000 x 32 database is 12.2 MiB of float64; the sign test took a
    # float copy of it (13.7 MiB peak with 20 queries), two bool masks
    # take a quarter of that (3.1 MiB)
    db = signs(rng.standard_normal((50_000, 32)))
    q = signs(rng.standard_normal((20, 32)))
    labels = rng.integers(0, 10, 50_000)
    peak = peak_bytes(evaluate_retrieval, q, db, labels[:20], labels, 100)
    assert peak < db.nbytes / 2


@pytest.mark.usefixtures("threaded_spans")
class TestEvaluateRetrievalThreaded(TestEvaluateRetrieval):
    """TestEvaluateRetrieval again, on spans of 16 entries over two or more
    workers: one query a span wherever the database has 16 or more rows."""


class TestMatrixFiles:
    def test_binary_round_trip(self, tmp_path, rng):
        M = rng.standard_normal((7, 3))
        p = tmp_path / "m.mat"
        save_matrix_binary(p, M)
        assert np.array_equal(load_matrix_binary(p), M)
        assert np.array_equal(load_matrix(p), M)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.mat"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ParseError, match="magic"):
            load_matrix_binary(p)

    def test_truncated_payload(self, tmp_path, rng):
        p = tmp_path / "m.mat"
        save_matrix_binary(p, rng.standard_normal((4, 4)))
        data = p.read_bytes()
        p.write_bytes(data[:-8])
        with pytest.raises(ParseError, match="payload"):
            load_matrix_binary(p)

    @pytest.mark.parametrize("cut,message", [
        (-8, "^payload holds 120 bytes, expected 128$"),
        (8, "^payload holds 136 bytes, expected 128$"),
        (-128, "^payload holds 0 bytes, expected 128$"),
        (-129, "^truncated header$"),
    ], ids=["short", "long", "empty", "header"])
    def test_binary_size_faults(self, tmp_path, rng, cut, message):
        p = tmp_path / "m.mat"
        save_matrix_binary(p, rng.standard_normal((4, 4)))
        data = p.read_bytes()
        p.write_bytes(data[:cut] if cut < 0 else data + bytes(cut))
        with pytest.raises(ParseError, match=message):
            load_matrix_binary(p)

    def test_binary_header_larger_than_file(self, tmp_path):
        # the sizes are compared before anything is allocated
        p = tmp_path / "m.mat"
        p.write_bytes(b"DPCDMAT1" + (2**40).to_bytes(8, "little") * 2)
        with pytest.raises(ParseError, match="^payload holds 0 bytes, expected"):
            load_matrix_binary(p)

    def test_binary_payload_read_once(self, tmp_path, rng):
        # reading the payload into bytes and copying it out peaked at 2.1
        # payloads (26.0 MiB for this 12.2 MiB file); reading it into the
        # returned array adds only the finiteness mask
        M = rng.standard_normal((50_000, 32))
        p = tmp_path / "train.bin"
        save_matrix_binary(p, M)
        assert peak_bytes(load_matrix_binary, p) < 1.25 * M.nbytes
        assert np.array_equal(load_matrix_binary(p), M)

    def test_csv_with_and_without_header(self, tmp_path):
        plain = tmp_path / "a.csv"
        plain.write_text("1.0,2.0\n3.0,4.0\n")
        headed = tmp_path / "b.csv"
        headed.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
        want = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(load_matrix_csv(plain), want)
        assert np.array_equal(load_matrix_csv(headed), want)
        assert np.array_equal(load_matrix(plain), want)

    def test_csv_spellings_float_accepts(self, tmp_path):
        # underscores, Arabic-Indic and full-width digits, padding, signs
        # and exponents: every field reads as float() reads it
        fields = [["1_0", "\u0661\u0662", " +3 ", ".5"],
                  ["-2.5e-3", "\uff17", "\u00a04\u00a0", "1E2"],
                  ["0", "-0", "6.", "7_000.000_1"]]
        p = tmp_path / "odd.csv"
        p.write_text("a,b,c,d\n" + "\n".join(",".join(row) for row in fields) + "\n",
                     encoding="utf-8")
        M = load_matrix_csv(p)
        assert M.tolist() == [[float(tok) for tok in row] for row in fields]
        assert np.signbit(M[2, 1])

    @pytest.mark.parametrize("text,message", [
        ("a,b\n1_0,2\n\n3,1__0\n", "^line 4: non-numeric field$"),
        ("1,\u0662\n3,4,\n5,6\n", "^line 2: non-numeric field$"),
        ("1,\u0662\n3,4,5\n5,6\n", "^line 2: expected 2 columns, got 3$"),
        ("1,2\n3,x\n5\n", "^line 2: non-numeric field$"),
        ("1,2\n3\n5,x\n", "^line 2: expected 2 columns, got 1$"),
        ("x,y\n1,2\n\n3,Infinity\n", "^line 4: non-finite field$"),
    ], ids=["double-underscore", "trailing-comma", "wide", "field-first", "width-first",
            "infinity"])
    def test_csv_faulty_line_named(self, tmp_path, text, message):
        p = tmp_path / "bad.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match=message):
            load_matrix_csv(p)

    @pytest.mark.parametrize("field", ["nan", "inf", "-Infinity"])
    def test_csv_non_finite_names_the_line(self, tmp_path, field):
        p = tmp_path / "bad.csv"
        p.write_text(f"x,y\n1,2\n\n3,{field}\n5,6\n")
        with pytest.raises(ParseError, match="^line 4: non-finite field$"):
            load_matrix_csv(p)

    def test_binary_non_finite_names_the_row(self, tmp_path, rng):
        M = rng.standard_normal((5, 3))
        M[3, 1] = np.nan
        p = tmp_path / "m.mat"
        save_matrix_binary(p, M)
        with pytest.raises(ParseError, match="^row 3 .*non-finite entry"):
            load_matrix(p)

    def test_csv_width_mismatch(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(ParseError, match="line 2"):
            load_matrix_csv(p)

    @pytest.mark.parametrize("text,line,kind", [
        ("a,b\n\n1,2\n\n1,x\n", 5, "non-numeric"),
        ("1,2\n\n3,4,5\n", 3, "expected 2 columns"),
    ], ids=["field", "width"])
    def test_csv_error_counts_blank_lines(self, tmp_path, text, line, kind):
        p = tmp_path / "bad.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"^line {line}: {kind}"):
            load_matrix_csv(p)

    @pytest.mark.parametrize("data,line", [
        (b"a,b\n1,2\n3,\xff\n", 3),
        (b"1,2\r3,4\r\n\r\n5,\xc3\n", 4),  # numbered as text mode reads lines
    ])
    def test_csv_non_utf8_names_the_line(self, tmp_path, data, line):
        p = tmp_path / "bad.csv"
        p.write_bytes(data)
        with pytest.raises(ParseError, match=f"^line {line}: not UTF-8 text"):
            load_matrix_csv(p)

    def test_csv_universal_newlines(self, tmp_path):
        p = tmp_path / "cr.csv"
        p.write_bytes(b"x,y\r1.0,2.0\r\n3.0,4.0\r")
        assert np.array_equal(load_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_csv_only_header(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("col_a,col_b\n")
        with pytest.raises(ParseError):
            load_matrix_csv(p)

    def test_csv_empty(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_matrix_csv(p)
