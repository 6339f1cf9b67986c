import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_norm_adjacency
from slicegcn import graph, ops
from slicegcn.graph import build_csr, degree_norms


class TestSpmmNorm:
    def test_edgeless_graph_zero(self):
        adj = build_csr(4, [])
        s = degree_norms(adj)
        for transpose in (False, True):
            out = ops.spmm_norm(adj, s, np.ones((4, 3)), transpose=transpose)
            np.testing.assert_array_equal(out, np.zeros((4, 3)))

    def test_single_edge_permutes(self):
        adj = build_csr(2, [(0, 1)])
        h = np.eye(2)
        out = ops.spmm_norm(adj, np.ones(2), h)
        np.testing.assert_array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 17))
        mask = rng.random((n, n)) < 0.3
        edges = [(u, v) for u in range(n) for v in range(n) if u < v and mask[u, v]]
        adj = build_csr(n, edges)
        s = degree_norms(adj)
        h = rng.standard_normal((n, 5))
        dense = dense_norm_adjacency(adj) @ h
        np.testing.assert_allclose(ops.spmm_norm(adj, s, h), dense, atol=1e-12)

    def test_path_graph_all_ones_column(self):
        adj = build_csr(3, [(0, 1), (1, 2)])
        s = degree_norms(adj)
        h = np.ones((3, 1))
        dense = dense_norm_adjacency(adj) @ h
        np.testing.assert_allclose(ops.spmm_norm(adj, s, h), dense, atol=1e-12)

    @staticmethod
    def _check_against_dense(adj, h):
        """spmm_norm and its transpose against the dense S A S oracle."""
        s = degree_norms(adj)
        dense = dense_norm_adjacency(adj)
        np.testing.assert_allclose(ops.spmm_norm(adj, s, h), dense @ h, atol=1e-12)
        np.testing.assert_allclose(ops.spmm_norm(adj, s, h, transpose=True), dense.T @ h, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle_random_directed_graphs(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 25))
        mask = rng.random((n, n)) < 0.25
        edges = [(u, v) for u in range(n) for v in range(n) if mask[u, v]]  # self-loops too
        adj = build_csr(n, edges, symmetrize=False)
        self._check_against_dense(adj, rng.standard_normal((n, 4)))

    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_star_graph(self, symmetrize):
        n = 50
        adj = build_csr(n, [(0, v) for v in range(1, n)], symmetrize=symmetrize)
        self._check_against_dense(adj, np.random.default_rng(1).standard_normal((n, 3)))

    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_isolated_nodes(self, symmetrize):
        # nodes 0, 3 and 7 touch no edge
        edges = [(1, 2), (2, 4), (4, 1), (5, 6), (6, 8), (8, 5), (2, 6)]
        adj = build_csr(9, edges, symmetrize=symmetrize)
        h = np.random.default_rng(2).standard_normal((9, 5))
        self._check_against_dense(adj, h)
        for v in (0, 3, 7):
            assert not ops.spmm_norm(adj, degree_norms(adj), h)[v].any()

    def test_rows_sum_in_csr_order(self):
        # each row is a left-to-right sum of its terms, in CSR order
        rng = np.random.default_rng(3)
        edges = [(u, v) for u in range(30) for v in range(30) if u != v and rng.random() < 0.3]
        adj = build_csr(30, edges, symmetrize=False)
        s = degree_norms(adj).astype(np.float32)
        h = rng.standard_normal((30, 6)).astype(np.float32)
        scaled = h * s[:, None]
        expect = np.zeros_like(h)
        for v in range(30):
            for u in adj.neighbors(v):
                expect[v] += scaled[u]
        expect *= s[:, None]
        np.testing.assert_array_equal(ops.spmm_norm(adj, s, h), expect)

    @pytest.mark.parametrize("cols", [1, 2, 7])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_rows_sum_in_csr_order_across_blocks(self, transpose, cols):
        # a directed graph of several row blocks; node 0 is a hub above the
        # block budget in A and in Aᵀ, so it is a block by itself in both
        n = graph._BLOCK_ENTRIES + 100
        rng = np.random.default_rng(5)
        hub = [(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)]
        adj = build_csr(n, np.concatenate([rng.integers(0, n, size=(8 * n, 2)), hub]), symmetrize=False)
        lay = adj.blocks_t if transpose else adj.blocks
        assert len(lay.blocks) > 3 and lay.blocks[0][:2] == (0, 1) and lay.blocks[0][2] > graph._BLOCK_ENTRIES
        s = degree_norms(adj).astype(np.float32)
        h = rng.standard_normal((n, cols)).astype(np.float32)
        scaled = h * s[:, None]
        expect = np.zeros_like(h)
        for v in range(n):  # row u of Aᵀ lists, ascending, the rows v of A that store u
            for u in adj.neighbors(v):
                if transpose:
                    expect[u] += scaled[v]
                else:
                    expect[v] += scaled[u]
        expect *= s[:, None]
        out = ops.spmm_norm(adj, s, h, transpose=transpose)
        np.testing.assert_array_equal(out.view(np.uint32), expect.view(np.uint32))

    def test_negative_zero_terms_sum_to_positive_zero(self):
        # the sequential sum starts from +0.0, so -0.0 + -0.0 + ... gives +0.0
        adj = build_csr(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], symmetrize=False)
        h = np.full((5, 3), -0.0)
        out = ops.spmm_norm(adj, degree_norms(adj), h)
        np.testing.assert_array_equal(out.view(np.uint64), np.zeros((5, 3), np.uint64))

    def test_shape_mismatch(self):
        adj = build_csr(3, [(0, 1)])
        with pytest.raises(ValueError):
            ops.spmm_norm(adj, degree_norms(adj), np.ones((4, 2)))


class TestGlorot:
    def test_bound(self):
        m = ops.glorot_init(20, 30, ops.rng_stream(1, 0))
        assert np.abs(m).max() <= np.sqrt(6.0 / 50)

    def test_large_sample_mean_near_zero(self):
        m = ops.glorot_init(512, 512, ops.rng_stream(2, 0))
        a = np.sqrt(6.0 / 1024)
        # uniform std is a/sqrt(3); allow 3 sigma of the sample mean
        assert abs(m.mean()) < 3 * a / np.sqrt(3 * 512 * 512)

    def test_same_stream_same_matrix(self):
        a = ops.glorot_init(8, 8, ops.rng_stream(3, 4))
        b = ops.glorot_init(8, 8, ops.rng_stream(3, 4))
        np.testing.assert_array_equal(a, b)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            ops.glorot_init(0, 4, ops.rng_stream(0, 0))


class TestRelu:
    def test_all_negative(self):
        np.testing.assert_array_equal(ops.relu(-np.ones((2, 2))), np.zeros((2, 2)))

    def test_positive_passes_gradient(self):
        a = np.ones((2, 3))
        d = np.full((2, 3), 2.0)
        np.testing.assert_array_equal(ops.relu(a), a)
        np.testing.assert_array_equal(ops.relu_backward(a, d), d)

    def test_zero_input_zero_gradient(self):
        a = np.zeros((2, 2))
        assert ops.relu(a).sum() == 0
        assert ops.relu_backward(a, np.ones((2, 2))).sum() == 0

    def test_matches_finite_differences(self):
        rng = ops.rng_stream(5, 0)
        a = rng.standard_normal((6, 4))
        d_out = rng.standard_normal((6, 4))
        h = 1e-6
        fd = ((ops.relu(a + h) - ops.relu(a - h)) / (2 * h)) * d_out
        ana = ops.relu_backward(a, d_out)
        # away from the kink the subgradient equals the difference quotient
        away = np.abs(a) > 1e-4
        np.testing.assert_allclose(ana[away], fd[away], rtol=1e-5)


class TestDropout:
    def test_rate_zero_identity(self):
        a = np.ones((3, 3))
        out, keep, scale = ops.dropout(a, 0.0, True, ops.rng_stream(0, 0))
        assert out is a and keep is None and scale is None

    def test_eval_identity(self):
        a = np.ones((3, 3))
        out, keep, scale = ops.dropout(a, 0.9, False, ops.rng_stream(0, 0))
        assert out is a and keep is None and scale is None

    def test_inverted_scaling_preserves_mean(self):
        a = np.ones((400, 400))
        out, _, _ = ops.dropout(a, 0.5, True, ops.rng_stream(7, 0))
        assert abs(out.mean() - 1.0) < 0.01

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            ops.dropout(np.ones((2, 2)), 1.0, True, ops.rng_stream(0, 0))

    def test_mask_reusable_for_backward(self):
        rng = ops.rng_stream(8, 0)
        a = np.ones((10, 10))
        out, keep, scale = ops.dropout(a, 0.3, True, rng)
        assert keep.dtype == bool and np.ndim(scale) == 0
        np.testing.assert_array_equal(out, ops.apply_mask(a, keep, scale))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bool_mask_matches_float_mask_bitwise(self, dtype):
        # the float mask keep / (1 - rate) gives the same bits, zero signs too
        rng = np.random.default_rng(9)
        a = rng.standard_normal((50, 40)).astype(dtype)
        a[0, :4] = [0.0, -0.0, np.inf, -np.inf]
        with np.errstate(invalid="ignore"):  # inf * 0
            out, keep, scale = ops.dropout(a, 0.3, True, ops.rng_stream(9, 0))
            float_mask = keep.astype(dtype) / dtype(1.0 - 0.3)
            expect = a * float_mask
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.view(f"u{a.itemsize}"), expect.view(f"u{a.itemsize}"))
        d = rng.standard_normal(a.shape).astype(dtype)
        back = ops.apply_mask(d, keep, scale)
        np.testing.assert_array_equal(back.view(f"u{a.itemsize}"), (d * float_mask).view(f"u{a.itemsize}"))

    @pytest.mark.parametrize("rate", [1e-17, 0.1, 1 / 3, 0.5, 0.7, 0.999999])
    @pytest.mark.parametrize(
        "shape",
        # the last two span several draw chunks: two whole ones, and 2.3
        [(1, 1), (7, 3), (64, 129), (5,), (2, ops._DROPOUT_CHUNK), (300, 1000)],
    )
    def test_raw_draw_matches_uniform_draw(self, rate, shape):
        # the mask comes from raw 64-bit draws; it must be the mask of
        # rng.random() >= rate and leave the stream where rng.random() would
        rng, ref = ops.rng_stream(21, 3), ops.rng_stream(21, 3)
        _, keep, _ = ops.dropout(np.ones(shape, np.float32), rate, True, rng)
        np.testing.assert_array_equal(keep, ref.random(shape) >= rate)
        assert rng.random() == ref.random()
        assert rng.integers(1 << 62) == ref.integers(1 << 62)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_ln_c(self):
        for c in (2, 5, 9):
            loss, _ = ops.softmax_cross_entropy(np.zeros((4, c)), np.zeros(4, dtype=np.int64))
            assert loss == pytest.approx(np.log(c), abs=1e-12)

    def test_confident_row(self):
        loss, d = ops.softmax_cross_entropy(
            np.array([[10.0, -10.0]]), np.array([0], dtype=np.int64)
        )
        assert loss == pytest.approx(2.061e-9, abs=1e-9)
        assert np.abs(d).max() < 1e-8

    def test_shift_invariance(self):
        rng = ops.rng_stream(9, 0)
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, 5)
        l0, d0 = ops.softmax_cross_entropy(logits, labels)
        l1, d1 = ops.softmax_cross_entropy(logits + 100.0, labels)
        assert l0 == pytest.approx(l1, rel=1e-12)
        np.testing.assert_allclose(d0, d1, atol=1e-12)

    def test_rows_sum_to_one_and_loss_nonnegative(self):
        rng = ops.rng_stream(10, 0)
        logits = rng.standard_normal((8, 6)) * 10
        labels = rng.integers(0, 6, 8)
        loss, d = ops.softmax_cross_entropy(logits, labels)
        assert loss >= 0
        probs = ops.softmax_rows(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = ops.rng_stream(11, 0)
        logits = rng.standard_normal((4, 3))
        labels = rng.integers(0, 3, 4)
        _, ana = ops.softmax_cross_entropy(logits, labels)
        h = 1e-6
        fd = np.zeros_like(logits)
        for i in range(4):
            for j in range(3):
                pert = logits.copy()
                pert[i, j] += h
                lp, _ = ops.softmax_cross_entropy(pert, labels)
                pert[i, j] -= 2 * h
                lm, _ = ops.softmax_cross_entropy(pert, labels)
                fd[i, j] = (lp - lm) / (2 * h)
        np.testing.assert_allclose(ana, fd, rtol=1e-5, atol=1e-10)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ops.softmax_cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


class TestDeterminism:
    @given(st.integers(0, 2**32 - 1), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_stream_reproducible(self, seed, stream):
        a = ops.rng_stream(seed, stream).random(16)
        b = ops.rng_stream(seed, stream).random(16)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = ops.rng_stream(1, 0).random(16)
        b = ops.rng_stream(1, 1).random(16)
        assert not np.array_equal(a, b)

    def test_op_sequence_bit_identical(self):
        def pipeline():
            rng = ops.rng_stream(42, 3)
            w = ops.glorot_init(12, 8, rng, np.float32)
            x = rng.standard_normal((20, 12)).astype(np.float32)
            y, _, _ = ops.dropout(ops.relu(x @ w), 0.4, True, rng)
            return y

        np.testing.assert_array_equal(pipeline(), pipeline())
