import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    def test_matches_dense_oracle_random_graphs(self, seed, dense_oracle):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 17))
        mask = rng.random((n, n)) < 0.3
        edges = [(u, v) for u in range(n) for v in range(n) if u < v and mask[u, v]]
        adj = build_csr(n, edges)
        s = degree_norms(adj)
        h = rng.standard_normal((n, 5))
        dense = dense_oracle(adj) @ h
        np.testing.assert_allclose(ops.spmm_norm(adj, s, h), dense, atol=1e-12)

    def test_path_graph_all_ones_column(self, dense_oracle):
        adj = build_csr(3, [(0, 1), (1, 2)])
        s = degree_norms(adj)
        h = np.ones((3, 1))
        dense = dense_oracle(adj) @ h
        np.testing.assert_allclose(ops.spmm_norm(adj, s, h), dense, atol=1e-12)

    @staticmethod
    def _check_against_dense(dense_oracle, adj, h):
        """spmm_norm and its transpose against the dense S A S oracle."""
        s = degree_norms(adj)
        dense = dense_oracle(adj)
        np.testing.assert_allclose(ops.spmm_norm(adj, s, h), dense @ h, atol=1e-12)
        np.testing.assert_allclose(ops.spmm_norm(adj, s, h, transpose=True), dense.T @ h, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle_random_directed_graphs(self, seed, dense_oracle):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 25))
        mask = rng.random((n, n)) < 0.25
        edges = [(u, v) for u in range(n) for v in range(n) if mask[u, v]]  # self-loops too
        adj = build_csr(n, edges, symmetrize=False)
        self._check_against_dense(dense_oracle, adj, rng.standard_normal((n, 4)))

    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_star_graph(self, symmetrize, dense_oracle):
        n = 50
        adj = build_csr(n, [(0, v) for v in range(1, n)], symmetrize=symmetrize)
        self._check_against_dense(dense_oracle, adj, np.random.default_rng(1).standard_normal((n, 3)))

    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_isolated_nodes(self, symmetrize, dense_oracle):
        # nodes 0, 3 and 7 touch no edge
        edges = [(1, 2), (2, 4), (4, 1), (5, 6), (6, 8), (8, 5), (2, 6)]
        adj = build_csr(9, edges, symmetrize=symmetrize)
        h = np.random.default_rng(2).standard_normal((9, 5))
        self._check_against_dense(dense_oracle, adj, h)
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
        out, keep, scale = ops.dropout(a.copy(), 0.3, True, rng)
        assert keep.dtype == bool and np.ndim(scale) == 0
        np.testing.assert_array_equal(out, ops.apply_mask(a, keep, scale))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bool_mask_matches_float_mask_bitwise(self, dtype):
        # the float mask keep / (1 - rate) gives the same bits, zero signs too
        rng = np.random.default_rng(9)
        a = rng.standard_normal((50, 40)).astype(dtype)
        a[0, :4] = [0.0, -0.0, np.inf, -np.inf]
        with np.errstate(invalid="ignore"):  # inf * 0
            out, keep, scale = ops.dropout(a.copy(), 0.3, True, ops.rng_stream(9, 0))
            float_mask = keep.astype(dtype) / dtype(1.0 - 0.3)
            expect = a * float_mask
        assert out.dtype == dtype
        np.testing.assert_array_equal(out.view(f"u{a.itemsize}"), expect.view(f"u{a.itemsize}"))
        d = rng.standard_normal(a.shape).astype(dtype)
        back = ops.apply_mask(d, keep, scale)
        np.testing.assert_array_equal(back.view(f"u{a.itemsize}"), (d * float_mask).view(f"u{a.itemsize}"))

    def test_writes_into_its_input_and_returns_it(self):
        a = np.full((30, 7), 2.0, np.float32)
        out, keep, scale = ops.dropout(a, 0.5, True, ops.rng_stream(4, 0))
        assert out is a
        np.testing.assert_array_equal(a, np.where(keep, np.float32(4.0), np.float32(0.0)))

    @staticmethod
    def _reference_mask(raw, size, rate):
        # field 4k+j of the stream is bits [16j, 16j+16) of raw draw k; as a
        # uniform draw u = field / 2**16 in [0, 1) it is kept iff u >= rate
        shifts = np.arange(4, dtype=np.uint64) * np.uint64(16)
        fields = ((raw[:, None] >> shifts) & np.uint64(0xFFFF)).reshape(-1)[:size]
        return fields / 2.0**16 >= rate

    @pytest.mark.parametrize("rate", [1e-17, 0.1, 1 / 3, 0.5, 0.7, 0.999999])
    @pytest.mark.parametrize(
        "shape",
        # sizes that are not multiples of 4; the last two span 2.25 and 1.34
        # chunks of raw draws
        [(1, 1), (7, 3), (64, 129), (5,), (9, ops._DROPOUT_CHUNK + 1), (301, 2333)],
    )
    def test_raw_draw_matches_uniform_draw(self, rate, shape):
        rng, ref = ops.rng_stream(21, 3), ops.rng_stream(21, 3).bit_generator
        _, keep, _ = ops.dropout(np.ones(shape, np.float32), rate, True, rng)
        size = int(np.prod(shape))
        raw = ref.random_raw(-(-size // 4))
        np.testing.assert_array_equal(keep.reshape(-1), self._reference_mask(raw, size, rate))

    @pytest.mark.parametrize("size", [1, 3, 4, 5, 130, 1 << 10])
    def test_stream_sits_after_a_quarter_draw_per_element(self, size):
        rng, ref = ops.rng_stream(5, 1), ops.rng_stream(5, 1)
        ops.dropout(np.ones(size), 0.3, True, rng)
        ref.bit_generator.random_raw(-(-size // 4))
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("chunk", [1, 3, 1 << 17])
    def test_mask_does_not_depend_on_chunk_size(self, chunk, monkeypatch):
        shape, rate = (37, 29), 0.3
        _, expect, _ = ops.dropout(np.ones(shape), rate, True, ops.rng_stream(6, 2))
        monkeypatch.setattr(ops, "_DROPOUT_CHUNK", chunk)
        rng = ops.rng_stream(6, 2)
        _, keep, _ = ops.dropout(np.ones(shape), rate, True, rng)
        np.testing.assert_array_equal(keep, expect)
        ref = ops.rng_stream(6, 2).bit_generator
        ref.random_raw(-(-keep.size // 4))
        assert rng.bit_generator.random_raw() == ref.random_raw()

    def test_rate_half_threshold_is_two_to_the_fifteen(self):
        class Words:  # a stream that hands out chosen raw draws
            def __init__(self, words):
                self.words = np.array(words, dtype=np.uint64)

            def random_raw(self, size):
                out, self.words = self.words[:size], self.words[size:]
                return out

        def fields(*f):  # four 16-bit fields, low bits first
            return sum(int(v) << (16 * j) for j, v in enumerate(f))

        rng = SimpleNamespace(bit_generator=Words([fields(0x7FFF, 0x8000, 0, 0xFFFF),
                                                   fields(0x8001, 1, 0x7FFE, 0x8000)]))
        _, keep, _ = ops.dropout(np.ones(7), 0.5, True, rng)
        np.testing.assert_array_equal(keep, [False, True, False, True, True, False, False])
        assert rng.bit_generator.words.size == 0

    @pytest.mark.parametrize("rate", [1e-6, 0.1, 0.5, 0.9])
    def test_keep_fraction_within_binomial_bound(self, rate):
        n = 1 << 18
        _, keep, _ = ops.dropout(np.ones(n), rate, True, ops.rng_stream(13, 0))
        p = 1 - math.ceil(rate * 2**16) / 2**16
        assert 0 <= (1 - rate) - p < 2**-16
        assert abs(int(keep.sum()) - n * p) <= 5 * math.sqrt(n * p * (1 - p)) + 1

    @pytest.mark.parametrize("rate", [1 - 2**-17, 0.99999, math.nextafter(1.0, 0.0)])
    def test_rate_near_one_drops_everything(self, rate):
        # ceil(rate * 2**16) is 2**16 here, one past the largest 16-bit field
        rng, ref = ops.rng_stream(2, 0), ops.rng_stream(2, 0).bit_generator
        a = np.ones((5, 3), np.float32)
        out, keep, _ = ops.dropout(a, rate, True, rng)
        assert not keep.any() and not out.any()
        ref.random_raw(4)  # ceil(15 / 4)
        assert rng.bit_generator.random_raw() == ref.random_raw()


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
