import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegcn import ops, slicing


def straight_line_reference(in_d, p, slice_size_scale):
    """Independent transcription of the generation loop, kept deliberately
    plain: list, explicit ifs, int() truncation."""
    in_sizes = []
    slice_size = math.ceil(in_d / p)
    for i in range(p):
        slice_start = i * slice_size
        slice_end = slice_start + int(slice_size * slice_size_scale)
        if slice_end > in_d:
            slice_start = slice_start - (slice_end - in_d)
            slice_end = in_d
        in_sizes.append((slice_start, slice_end))
    return in_sizes, slice_size


class TestSliceStrategy:
    def test_hand_trace_non_divisible(self):
        s = slicing.slice_strategy_generator(7, 3, 1.0)
        assert s.ranges == ((0, 3), (3, 6), (4, 7))
        assert s.slice_size == 3

    def test_exact_partition_when_divisible(self):
        s = slicing.slice_strategy_generator(6, 3, 1.0)
        assert s.ranges == ((0, 2), (2, 4), (4, 6))

    def test_hand_trace_overlapping_scale(self):
        s = slicing.slice_strategy_generator(10, 2, 1.5)
        assert s.slice_size == 5
        assert s.width == 7
        assert s.ranges == ((0, 7), (3, 10))

    def test_single_device(self):
        s = slicing.slice_strategy_generator(13, 1, 1.0)
        assert s.ranges == ((0, 13),)

    def test_scale_too_small(self):
        with pytest.raises(ValueError, match="empty"):
            slicing.slice_strategy_generator(8, 2, 0.1)

    def test_scale_too_large(self):
        with pytest.raises(ValueError, match="width"):
            slicing.slice_strategy_generator(8, 2, 3.0)

    @given(st.integers(1, 64), st.integers(1, 8), st.sampled_from([0.5, 1.0, 1.5]))
    @settings(max_examples=300, deadline=None)
    def test_matches_straight_line_reference(self, in_d, p, scale):
        slice_size = math.ceil(in_d / p)
        width = int(slice_size * scale)
        if not 1 <= width <= in_d:
            with pytest.raises(ValueError):
                slicing.slice_strategy_generator(in_d, p, scale)
            return
        got = slicing.slice_strategy_generator(in_d, p, scale)
        expect, expect_size = straight_line_reference(in_d, p, scale)
        assert list(got.ranges) == expect
        assert got.slice_size == expect_size
        # every range in bounds, all widths equal
        assert all(0 <= s < e <= in_d for s, e in got.ranges)
        assert len({e - s for s, e in got.ranges}) == 1
        if scale == 1.0:
            covered = set()
            for s, e in got.ranges:
                covered.update(range(s, e))
            assert covered == set(range(in_d))


class TestSliceFeature:
    def test_single_slice_is_whole_matrix(self):
        x = np.arange(12.0).reshape(3, 4)
        s = slicing.slice_strategy_generator(4, 1, 1.0)
        (out,) = slicing.slice_feature(x, s)
        np.testing.assert_array_equal(out, x)

    def test_column_index_matrix_blocks(self):
        x = np.tile(np.arange(7.0), (5, 1))
        s = slicing.slice_strategy_generator(7, 3, 1.0)
        parts = slicing.slice_feature(x, s)
        np.testing.assert_array_equal(parts[2], np.tile([4.0, 5.0, 6.0], (5, 1)))

    def test_overlapping_ranges_share_columns(self):
        x = np.tile(np.arange(10.0), (2, 1))
        s = slicing.slice_strategy_generator(10, 2, 1.5)
        a, b = slicing.slice_feature(x, s)
        np.testing.assert_array_equal(a[:, 3:], b[:, :4])  # columns 3..6 in both

    def test_slices_are_copies(self):
        x = np.zeros((2, 4))
        s = slicing.slice_strategy_generator(4, 2, 1.0)
        parts = slicing.slice_feature(x, s)
        parts[0][0, 0] = 5.0
        assert x[0, 0] == 0.0

    @given(st.integers(1, 32), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_full_cover_reconstructs_matrix(self, in_d, p):
        rng = np.random.default_rng(in_d * 100 + p)
        x = rng.standard_normal((4, in_d))
        s = slicing.slice_strategy_generator(in_d, p, 1.0)
        parts = slicing.slice_feature(x, s)
        rebuilt = np.zeros_like(x)
        for (start, end), part in zip(s.ranges, parts):
            rebuilt[:, start:end] = part  # overlap duplicates agree
        np.testing.assert_array_equal(rebuilt, x)


def _fusion_forward(x, ff, key, training):
    """feature_fusion_forward in a fresh workspace of its own, with `key` as
    the dropout key; returns (z, the fusion MLP that holds its cache)."""
    ff = dataclasses.replace(ff, key=key, ws=ops.Workspace())
    return slicing.feature_fusion_forward(x, ff, training), ff


def _fusion_backward(d_z, ff):
    """feature_fusion_backward; returns copies of the gradients it wrote into
    `ff.grads`. It consumes the forward's cache, so each backward needs a
    forward."""
    slicing.feature_fusion_backward(d_z, ff)
    return [(dw.copy(), db.copy()) for dw, db in ff.grads]


class TestFeatureFusion:
    def _fusion(self, d, p, dtype=np.float64, dropout=0.0):
        rng = ops.rng_stream(3, ops.STREAM_FUSION)
        return slicing.init_fusion(d, p, rng, dtype, dropout)

    def test_output_width(self):
        assert slicing.fusion_output_width(300, 3) == 101
        assert slicing.fusion_output_width(300, 2) == 151
        assert slicing.fusion_output_width(7, 3) == 4

    def test_parameter_sizes_at_reference_shapes(self):
        # 300 features: 120,701 fused-slice parameters at p=3, 135,751 at p=2
        for p, expect in ((3, 120_701), (2, 135_751)):
            ff = self._fusion(300, p)
            assert sum(a.size for layer in ff.layers for a in layer) == expect

    def test_zero_weights_zero_output(self):
        ff = self._fusion(6, 2)
        for w, b in ff.layers:
            w[:] = 0
        x = np.random.default_rng(0).standard_normal((5, 6))
        z, _ = _fusion_forward(x, ff, 0, training=False)
        np.testing.assert_array_equal(z, np.zeros((5, 4)))

    def test_eval_forward_deterministic(self):
        ff = self._fusion(6, 2, dropout=0.5)
        x = np.random.default_rng(1).standard_normal((5, 6))
        z1, _ = _fusion_forward(x, ff, 0, training=False)
        z2, _ = _fusion_forward(x, ff, 9, training=False)
        np.testing.assert_array_equal(z1, z2)

    def test_zero_upstream_zero_grads(self):
        ff = self._fusion(6, 3)
        x = np.random.default_rng(2).standard_normal((5, 6))
        z, trained = _fusion_forward(x, ff, 0, training=True)
        grads = _fusion_backward(np.zeros_like(z), trained)
        for dw, db in grads:
            assert not dw.any() and not db.any()

    def test_worker_sum_linearity(self):
        # two identical consumers contribute exactly twice the single gradient
        ff = self._fusion(5, 2)
        x = np.random.default_rng(3).standard_normal((4, 5))
        z, trained = _fusion_forward(x, ff, 0, training=True)
        dz = np.random.default_rng(4).standard_normal(z.shape)
        g1 = _fusion_backward(dz, trained)
        _, trained = _fusion_forward(x, ff, 0, training=True)  # g1 consumed the first
        g2 = _fusion_backward(dz + dz, trained)
        for (dw1, db1), (dw2, db2) in zip(g1, g2):
            np.testing.assert_allclose(dw2, 2 * dw1, rtol=1e-12)
            np.testing.assert_allclose(db2, 2 * db1, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        ff = self._fusion(5, 2)
        rng = np.random.default_rng(5)
        x = rng.standard_normal((6, 5))
        target = rng.standard_normal((6, 4))

        def loss():
            z, _ = _fusion_forward(x, ff, 0, training=True)
            return 0.5 * float(((z - target) ** 2).sum())

        z, trained = _fusion_forward(x, ff, 0, training=True)
        grads = _fusion_backward(z - target, trained)
        flat = [g for pair in grads for g in pair]
        params = [a for layer in ff.layers for a in layer]
        h = 1e-6
        for param, ana in zip(params, flat):
            fd = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                old = param[ix]
                param[ix] = old + h
                lp = loss()
                param[ix] = old - h
                lm = loss()
                param[ix] = old
                fd[ix] = (lp - lm) / (2 * h)
                it.iternext()
            rel = np.linalg.norm(fd - ana) / max(np.linalg.norm(fd) + np.linalg.norm(ana), 1e-12)
            assert rel <= 1e-5

    def test_hidden_width_must_match_features(self):
        ff = self._fusion(6, 2)
        with pytest.raises(ValueError):
            _fusion_forward(
                np.zeros((3, 7)), ff, 0, training=False
            )
