import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegcn import engine, nn, ops
from slicegcn.graph import NormOperator, build_csr, synth_graph


def central_diff(loss_fn, param, h=1e-6):
    fd = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        old = param[ix]
        param[ix] = old + h
        lp = loss_fn()
        param[ix] = old - h
        lm = loss_fn()
        param[ix] = old
        fd[ix] = (lp - lm) / (2 * h)
        it.iternext()
    return fd


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a) + np.linalg.norm(b), 1e-12)


@pytest.fixture(scope="module")
def rand_graph():
    return synth_graph(n=30, classes=3, d_feat=6, p_in=0.3, p_out=0.1, signal=1.0, seed=7).adj


@pytest.fixture(scope="module")
def directed_graph():
    # in-degrees differ from out-degrees, so Âᵀ != Â and the input
    # gradient needs the transposed operator
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 6), (6, 7), (7, 5), (2, 7)]
    return build_csr(8, edges, symmetrize=False)


def _op(adj, dtype=np.float64):
    """The normalized operator of `adj`, in `dtype`."""
    return NormOperator.of(adj, dtype)


def _gcn_layer(w_in, w_out, rng, dtype, form=nn.FORM_DUAL):
    (layer,), _ = nn.init_gcn_layers([w_in, w_out], rng, dtype, form)
    return layer


def _forward(*args, **kwargs):
    """gcn_layer_forward in a fresh workspace of its own."""
    return nn.gcn_layer_forward(*args, ws=ops.Workspace(), **kwargs)


def _arrays(layer) -> list:
    """W_agg, W_self (unless None) and b of a GCN layer, or of its `grads`."""
    return [a for a in (layer.w_agg, layer.w_self, layer.bias) if a is not None]


def _backward(cache, d_out, params, op, input_grad=True, rows=None):
    """gcn_layer_backward in a fresh workspace; returns (dW_agg, dW_self,
    db, dH_in), copies of the gradients it wrote into `params.grads`."""
    d_in = np.empty_like(cache.h_in) if input_grad else None
    d_in = nn.gcn_layer_backward(cache, d_out, params, op, ws=ops.Workspace(), d_in=d_in, rows=rows)
    g = params.grads
    return g.w_agg.copy(), None if g.w_self is None else g.w_self.copy(), g.bias.copy(), d_in


def _mlp_forward(x, mlp, training, key=0):
    """mlp_forward in a fresh workspace of its own, with `key` as the
    dropout key; returns (output, the MLP that holds its cache)."""
    mlp = dataclasses.replace(mlp, key=key, ws=ops.Workspace())
    return nn.mlp_forward(x, mlp, training), mlp


def _mlp_backward(mlp, d_out, input_grad=True):
    """mlp_backward; returns ([(dW, db) per layer], d_input), copies of the
    gradients it wrote into `mlp.grads`. It consumes the forward's cache,
    so each backward needs a forward."""
    d_in = np.empty_like(mlp.cache[0][0]) if input_grad else None
    d_in = nn.mlp_backward(d_out, mlp, d_in=d_in)
    return [(dw.copy(), db.copy()) for dw, db in mlp.grads], d_in


# (w_in, w_out): a narrowing layer multiplies by W_agg before aggregating
LAYER_SHAPES = {"narrowing": (5, 3), "widening": (3, 5), "equal": (4, 4)}


class TestGcnLayer:
    def test_edgeless_graph_keeps_self_path(self):
        op = _op(build_csr(4, []))
        rng = ops.rng_stream(0, 0)
        params = _gcn_layer(3, 3, rng, np.float64)
        params.bias[:] = 0
        h_in = rng.standard_normal((4, 3))
        h_out, _ = _forward(op, h_in, params, None, training=False)
        np.testing.assert_allclose(h_out, h_in @ params.w_self)

    def test_identity_self_path(self):
        op = _op(build_csr(3, [(0, 1), (1, 2)]))
        rng = ops.rng_stream(1, 0)
        params = nn.GcnLayerParams(
            w_agg=np.zeros((4, 4)), w_self=np.eye(4), bias=np.zeros(4)
        )
        h_in = rng.standard_normal((3, 4))
        h_out, _ = _forward(op, h_in, params, None, training=False)
        np.testing.assert_array_equal(h_out, h_in)

    def test_single_form_matches_dense_oracle(self):
        op = _op(build_csr(2, [(0, 1)]))
        rng = ops.rng_stream(2, 0)
        params = _gcn_layer(3, 2, rng, np.float64, form=nn.FORM_SINGLE)
        params.bias[:] = rng.standard_normal(2)
        h_in = rng.standard_normal((2, 3))
        h_out, _ = _forward(op, h_in, params, None, training=False)
        dense = np.array([[0.0, 1.0], [1.0, 0.0]])  # normalized single edge
        expect = np.maximum(dense @ h_in @ params.w_agg + params.bias, 0)
        np.testing.assert_allclose(h_out, expect, atol=1e-12)

    def test_zero_agg_weight_is_affine_plus_constant(self):
        # with W_agg = 0 the layer is H_in @ W_self plus the fixed ReLU(b) row
        op = _op(build_csr(3, [(0, 1), (1, 2)]))
        rng = ops.rng_stream(3, 0)
        params = _gcn_layer(4, 4, rng, np.float64)
        params.w_agg[:] = 0
        params.bias[:] = rng.standard_normal(4)
        h_in = rng.standard_normal((3, 4))
        h_out, _ = _forward(op, h_in, params, None, training=False)
        np.testing.assert_allclose(
            h_out, h_in @ params.w_self + np.maximum(params.bias, 0), atol=1e-12
        )

    def test_zero_upstream_zero_grads(self, rand_graph):
        op = _op(rand_graph)
        rng = ops.rng_stream(4, 0)
        params = _gcn_layer(6, 5, rng, np.float64)
        h_in = rng.standard_normal((30, 6))
        h_out, cache = _forward(op, h_in, params, None, training=True)
        dw_agg, dw_self, db, d_in = _backward(
            cache, np.zeros_like(h_out), params, op
        )
        assert not dw_agg.any() and not dw_self.any() and not db.any() and not d_in.any()

    def test_zero_agg_weight_self_gradient(self, rand_graph):
        op = _op(rand_graph)
        rng = ops.rng_stream(5, 0)
        params = _gcn_layer(6, 5, rng, np.float64)
        params.w_agg[:] = 0
        params.bias[:] = -1e3  # keep the ReLU branch inactive
        h_in = rng.standard_normal((30, 6))
        h_out, cache = _forward(op, h_in, params, None, training=True)
        d_out = rng.standard_normal(h_out.shape)
        _, dw_self, _, _ = _backward(cache, d_out.copy(), params, op)  # backward consumes its d_out
        np.testing.assert_allclose(dw_self, h_in.T @ d_out, atol=1e-12)

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    def test_gradients_match_finite_differences(self, rand_graph, form):
        op = _op(rand_graph)
        rng = ops.rng_stream(6, 0)
        params = _gcn_layer(6, 5, rng, np.float64, form=form)
        params.bias[:] = 0.01 * rng.standard_normal(5)
        h_in = rng.standard_normal((30, 6))
        target = rng.standard_normal((30, 5))

        def loss():
            out, _ = _forward(op, h_in, params, None, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = _forward(op, h_in, params, None, training=True)  # rate 0: eval's arithmetic
        d_out = h_out - target
        dw_agg, dw_self, db, d_in = _backward(cache, d_out, params, op)
        groups = [(params.w_agg, dw_agg), (params.bias, db)]
        if form == nn.FORM_DUAL:
            groups.append((params.w_self, dw_self))
        for param, ana in groups:
            assert rel_err(central_diff(loss, param), ana) <= 1e-5

    def test_input_gradient_matches_finite_differences(self, rand_graph):
        op = _op(rand_graph)
        rng = ops.rng_stream(7, 0)
        params = _gcn_layer(4, 3, rng, np.float64)
        h_in = rng.standard_normal((30, 4))
        target = rng.standard_normal((30, 3))

        def loss():
            out, _ = _forward(op, h_in, params, None, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = _forward(op, h_in, params, None, training=True)
        _, _, _, d_in = _backward(cache, h_out - target, params, op)
        assert rel_err(central_diff(loss, h_in), d_in) <= 1e-5

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    def test_directed_graph_gradients_match_finite_differences(self, directed_graph, form):
        op = _op(directed_graph)
        rng = ops.rng_stream(12, 0)
        params = _gcn_layer(4, 3, rng, np.float64, form=form)
        params.bias[:] = 0.01 * rng.standard_normal(3)
        h_in = rng.standard_normal((8, 4))
        target = rng.standard_normal((8, 3))

        def loss():
            out, _ = _forward(op, h_in, params, None, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = _forward(op, h_in, params, None, training=True)
        dw_agg, _, db, d_in = _backward(cache, h_out - target, params, op)
        for param, ana in ((h_in, d_in), (params.w_agg, dw_agg), (params.bias, db)):
            assert rel_err(central_diff(loss, param), ana) <= 1e-5

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    @pytest.mark.parametrize("graph", ["rand_graph", "directed_graph"])
    def test_both_aggregation_orders_match_finite_differences(self, request, graph, shape, form):
        self._check_finite_differences(request.getfixturevalue(graph), shape, form, subset=False)

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    @pytest.mark.parametrize("graph", ["rand_graph", "directed_graph"])
    def test_row_set_matches_finite_differences(self, request, graph, shape, form):
        # on every other row, with dropout: a loss over those rows alone,
        # whose input gradient reaches every row
        self._check_finite_differences(request.getfixturevalue(graph), shape, form, subset=True)

    @staticmethod
    def _check_finite_differences(adj, shape, form, subset):
        # a training forward: a key's dropout mask is the same in every call
        w_in, w_out = LAYER_SHAPES[shape]
        op, n = _op(adj), adj.num_nodes
        rows = op.restrict(np.arange(0, n, 2)) if subset else None
        rng = ops.rng_stream(14, 0)
        params = _gcn_layer(w_in, w_out, rng, np.float64, form=form)
        params.bias[:] = 0.01 * rng.standard_normal(w_out)
        h_in = rng.standard_normal((n, w_in))
        target = rng.standard_normal((n if rows is None else rows.num_rows, w_out))

        rate = 0.5 if subset else 0.0

        def loss():
            out, _ = _forward(op, h_in, params, 14, True, rate, rows=rows)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = _forward(op, h_in, params, 14, True, rate, rows=rows)
        assert (cache.agg is None) == (shape == "narrowing")
        dw_agg, dw_self, db, d_in = _backward(cache, h_out - target, params, op, rows=rows)
        groups = [(h_in, d_in), (params.w_agg, dw_agg), (params.bias, db)]
        if form == nn.FORM_DUAL:
            groups.append((params.w_self, dw_self))
        for param, ana in groups:
            assert rel_err(central_diff(loss, param), ana) <= 1e-5

    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    def test_given_aggregate_replaces_aggregation(self, rand_graph, monkeypatch, shape):
        op = _op(rand_graph)
        w_in, w_out = LAYER_SHAPES[shape]
        rng = ops.rng_stream(15, 0)
        params = _gcn_layer(w_in, w_out, rng, np.float64)
        h_in = rng.standard_normal((30, w_in))
        d_out = rng.standard_normal((30, w_out))
        own, own_cache = _forward(op, h_in, params, None, training=True)
        own_grads = _backward(own_cache, d_out.copy(), params, op, input_grad=False)  # consumes its d_out
        agg = ops.spmm_norm(op, h_in, np.empty_like(h_in), ws=ops.Workspace())

        calls = []
        spmm = ops.spmm_norm
        monkeypatch.setattr(ops, "spmm_norm", lambda *a, **k: calls.append(1) or spmm(*a, **k))
        out, cache = _forward(op, h_in, params, None, training=True, agg=agg)
        grads = _backward(cache, d_out, params, op, input_grad=False)
        assert not calls and cache.agg is agg
        if shape == "narrowing":  # the layer's own order differs; values agree
            np.testing.assert_allclose(out, own, atol=1e-12)
            for g, o in zip(grads[:3], own_grads[:3]):
                np.testing.assert_allclose(g, o, atol=1e-12)
        else:  # the same order: bit for bit
            np.testing.assert_array_equal(out, own)
            for g, o in zip(grads[:3], own_grads[:3]):
                np.testing.assert_array_equal(g, o)

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    def test_kept_result_replaces_layer_arithmetic(self, rand_graph, monkeypatch, shape, form):
        # an eval forward's output and mask, kept in the workspace at a
        # version, reused by a training forward at that version: the same
        # output and cache as computing the layer again
        op = _op(rand_graph, np.float32)
        w_in, w_out = LAYER_SHAPES[shape]
        params = _gcn_layer(w_in, w_out, ops.rng_stream(16, 0), np.float32, form)
        h_in = ops.rng_stream(16, 1).standard_normal((30, w_in)).astype(np.float32)
        agg = ops.spmm_norm(op, h_in, np.empty_like(h_in), ws=ops.Workspace())
        ws = ops.Workspace()
        h_eval, c_eval = nn.gcn_layer_forward(op, h_in, params, None, False, ws=ws, version=3)
        fresh, c_fresh = _forward(op, h_in, params, 17, True, 0.5, agg=agg)

        for param in _arrays(params):  # a layer that computed again would give NaN
            param[:] = np.nan
        monkeypatch.setattr(ops, "spmm_norm", None)
        out, cache = nn.gcn_layer_forward(op, h_in, params, 17, True, 0.5, ws=ws, version=3)
        np.testing.assert_array_equal(out, fresh)
        assert out is h_eval and cache.mask is c_eval.mask and cache.agg is c_eval.agg and cache.h_in is h_in
        np.testing.assert_array_equal(cache.agg, agg)
        np.testing.assert_array_equal(cache.mask, c_fresh.mask)
        np.testing.assert_array_equal(cache.keep, c_fresh.keep)
        assert cache.scale == c_fresh.scale


class TestVersionedForward:
    """A layer over a fixed input, called with its owner's `version`: what
    it keeps in the workspace, and when it forms its aggregate."""

    @staticmethod
    def _layer():
        params = _gcn_layer(4, 4, ops.rng_stream(18, 0), np.float64)
        return params, ops.rng_stream(18, 1).standard_normal((30, 4))

    def test_forward_into_out_keeps_nothing(self, rand_graph):
        op = _op(rand_graph)
        params, h_in = self._layer()
        ws = ops.Workspace()
        _, cache = nn.gcn_layer_forward(op, h_in, params, None, False, ws=ws, out=np.empty((30, 4)), version=0)
        assert cache.mask is None and (0, "out") not in ws.versions
        params.bias[:] += 1.0  # the version holds, but a result in `out` is never reused
        out, _ = nn.gcn_layer_forward(op, h_in, params, None, False, ws=ws, out=np.empty((30, 4)), version=0)
        fresh, _ = _forward(op, h_in, params, None, False, agg=cache.agg)
        np.testing.assert_array_equal(out, fresh)
        assert (0, "out") not in ws.versions

    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    def test_input_aggregated_once_over_eval_train_eval(self, rand_graph, monkeypatch, shape):
        op = _op(rand_graph)
        w_in, w_out = LAYER_SHAPES[shape]
        params = _gcn_layer(w_in, w_out, ops.rng_stream(19, 0), np.float64)
        h_in = ops.rng_stream(19, 1).standard_normal((30, w_in))
        calls = []
        spmm = ops.spmm_norm
        monkeypatch.setattr(ops, "spmm_norm", lambda *a, **k: calls.append(1) or spmm(*a, **k))
        ws = ops.Workspace()
        for training, version in ((False, 0), (True, 0), (False, 1)):  # eval, train, step, eval
            _, cache = nn.gcn_layer_forward(op, h_in, params, 19, training, 0.5, ws=ws, version=version)
        assert len(calls) == 1 and ws.versions[0, "agg"] == 0
        np.testing.assert_array_equal(cache.agg, spmm(op, h_in, np.empty_like(h_in), ws=ops.Workspace()))

    def test_training_forward_drops_the_kept_result(self, rand_graph):
        op = _op(rand_graph)
        params, h_in = self._layer()
        mlp = nn.init_mlp([4, 5, 3], ops.rng_stream(20, 0), np.float64, dropout=0.5, key=20)
        ws = ops.Workspace()
        nn.gcn_layer_forward(op, h_in, params, 20, False, 0.5, ws=ws, version=2)
        nn.mlp_forward(h_in, mlp, False, version=2)
        assert ws.versions[0, "out"] == 2 and mlp.ws.versions == {(0, "a"): 2}
        nn.gcn_layer_forward(op, h_in, params, 20, True, 0.5, ws=ws, version=2)
        nn.mlp_forward(h_in, mlp, True, version=2)
        assert ws.versions == {(0, "agg"): 2} and mlp.ws.versions == {}

    def test_unversioned_calls_leave_versions_alone(self, rand_graph):
        op = _op(rand_graph)
        params, h_in = self._layer()
        mlp = nn.init_mlp([4, 5, 3], ops.rng_stream(21, 0), np.float64, dropout=0.5, key=21)
        ws = mlp.ws = ops.Workspace()  # the layer's and the MLP's arrays in one workspace
        nn.gcn_layer_forward(op, h_in, params, 21, False, 0.5, ws=ws, version=5)
        nn.mlp_forward(h_in, mlp, False, version=5)
        before = dict(ws.versions)
        assert before == {(0, "agg"): 5, (0, "out"): 5, (0, "a"): 5}
        for training in (False, True):
            for layer in (0, 1):
                nn.gcn_layer_forward(op, h_in, params, 21, training, 0.5, ws=ws, layer=layer)
            nn.mlp_forward(h_in, mlp, training)
        assert ws.versions == before


class TestBackwardConsumesItsGradient:
    """gcn_layer_backward masks the d_out it is handed in place and writes
    further gradients over it; the arrays it writes the aggregation term
    into are dead ones of its own, never a caller's."""

    @staticmethod
    def _run(op, shape, form, d_out, given_agg, rows=None):
        """A training forward with dropout in a fresh workspace, on the row
        set `rows` when given, then a backward of `d_out` into a new d_in;
        returns (grads, d_in, the given aggregate's bytes before and after
        the backward)."""
        w_in, w_out = LAYER_SHAPES[shape]
        params = _gcn_layer(w_in, w_out, ops.rng_stream(40, 0), np.float32, form)
        h_in = ops.rng_stream(40, 1).standard_normal((op.num_rows, w_in)).astype(np.float32)
        agg = ops.spmm_norm(op, h_in, np.empty_like(h_in), ws=ops.Workspace()) if given_agg else None
        ws = ops.Workspace()
        _, cache = nn.gcn_layer_forward(op, h_in, params, 40, True, 0.5, agg=agg, ws=ws, rows=rows)
        before = None if agg is None else agg.tobytes()
        d_in = nn.gcn_layer_backward(cache, d_out, params, op, ws=ws, d_in=np.empty_like(h_in), rows=rows)
        return [g.copy() for g in _arrays(params.grads)], d_in, (before, None if agg is None else agg.tobytes())

    @staticmethod
    def _block(n, w_out):
        """A column block of a wider array, as a p > 1 device's last layer gets its d_out."""
        wide = ops.rng_stream(41, 0).standard_normal((n, 3 * w_out)).astype(np.float32)
        return wide[:, w_out : 2 * w_out]

    @pytest.mark.parametrize("row_set", [False, True])
    @pytest.mark.parametrize("given_agg", [False, True])
    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    def test_strided_d_out_gives_the_bits_of_a_contiguous_copy(self, directed_graph, shape, form, given_agg, row_set):
        # on a row set (every other row), the self path's term and a narrowing
        # layer's d_pre share the scratch, where the SpMM copies a strided input
        op = _op(directed_graph, np.float32)
        rows = op.restrict(np.arange(0, op.num_rows, 2)) if row_set else None
        block = self._block(op.num_rows if rows is None else rows.num_rows, LAYER_SHAPES[shape][1])
        assert not block.flags.c_contiguous
        contiguous = self._run(op, shape, form, block.copy(), given_agg, rows)
        strided = self._run(op, shape, form, block, given_agg, rows)
        _assert_same_bits([*strided[0], strided[1]], [*contiguous[0], contiguous[1]])

    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    def test_given_aggregate_unchanged_by_backward(self, directed_graph, shape, form, strided):
        # the fusion variants' shared Â·z is read by every device's backward
        op = _op(directed_graph, np.float32)
        block = self._block(op.num_rows, LAYER_SHAPES[shape][1])
        _, _, (before, after) = self._run(op, shape, form, block if strided else block.copy(), given_agg=True)
        assert after == before

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    def test_narrowing_layer_rejects_d_in_over_h_in(self, rand_graph, form):
        # its input gradient G W_aggᵀ (and the self path) would overwrite
        # H_in before dW_agg = H_inᵀ G reads it
        op = _op(rand_graph)
        params = _gcn_layer(*LAYER_SHAPES["narrowing"], ops.rng_stream(42, 0), np.float64, form)
        h_in = ops.rng_stream(42, 1).standard_normal((30, LAYER_SHAPES["narrowing"][0]))
        ws = ops.Workspace()
        h_out, cache = nn.gcn_layer_forward(op, h_in, params, None, True, ws=ws)
        with pytest.raises(ValueError, match="shares H_in"):
            nn.gcn_layer_backward(cache, np.ones_like(h_out), params, op, ws=ws, d_in=h_in[:, ::-1])

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    @pytest.mark.parametrize("shape", ["widening", "equal"])
    def test_other_layers_write_d_in_over_h_in(self, rand_graph, shape, form):
        # as the engine's layers above 0 do: the bits of a separate d_in
        op = _op(rand_graph)
        w_in, w_out = LAYER_SHAPES[shape]
        params = _gcn_layer(w_in, w_out, ops.rng_stream(43, 0), np.float64, form)
        h_in = ops.rng_stream(43, 1).standard_normal((30, w_in))
        d_out = ops.rng_stream(43, 2).standard_normal((30, w_out))
        h_out, cache = _forward(op, h_in.copy(), params, None, True)
        want = _backward(cache, d_out.copy(), params, op)
        h_out, cache = _forward(op, h_in, params, None, True)
        ws = ops.Workspace()
        got = nn.gcn_layer_backward(cache, d_out.copy(), params, op, ws=ws, d_in=h_in)
        assert got is h_in
        _assert_same_bits([*_arrays(params.grads), got], [g for g in want if g is not None])


class _FilledWorkspace(ops.Workspace):
    """A workspace whose arrays hold `byte` in every byte each time it hands
    one out, however often it did before. The SpMM gets no array over its
    input's memory (it reads a product formed in the scratch where it lies),
    so a pass that reads what it did not write reads poison."""

    def __init__(self, byte):
        super().__init__()
        self.byte = byte

    def get(self, key, shape, dtype, rows=0):
        a = super().get(key, shape, dtype, rows)
        a.reshape(-1).view(np.uint8).fill(self.byte)
        return a


def _assert_same_bits(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


class TestPassesReadOnlyWhatTheyWrite:
    """In a workspace of 0xFF bytes (NaN in f32 and f64), with NaN-filled
    output arrays, a pass gives bit for bit the results of a fresh workspace.
    The fresh one is zero-filled: memory numpy hands out may hold a freed
    poisoned buffer's bytes, and a read of those would go unseen."""

    DTYPES = [np.float32, np.float64]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("transpose", [False, True])
    def test_spmm_norm(self, directed_graph, transpose, dtype):
        op = _op(directed_graph, dtype)
        op = op.t if transpose else op
        h = ops.rng_stream(30, 0).standard_normal((op.num_rows, 3)).astype(dtype)

        def run(ws, fill):
            # three columns sum into out; one column, into the workspace's accumulator
            col = np.ascontiguousarray(h[:, :1])
            return [ops.spmm_norm(op, a, np.full_like(a, fill), ws=ws) for a in (h, col)]

        _assert_same_bits(run(_FilledWorkspace(0xFF), np.nan), run(_FilledWorkspace(0), 0))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    def test_gcn_layer(self, directed_graph, shape, form, dropout, dtype):
        self._check_gcn_layer(directed_graph, shape, form, dropout, dtype, rows=None)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    def test_gcn_layer_on_a_row_set(self, directed_graph, shape, form, dropout, dtype):
        # its output and d_out have the row set's rows only
        self._check_gcn_layer(directed_graph, shape, form, dropout, dtype, rows=[0, 2, 3, 6])

    @staticmethod
    def _check_gcn_layer(adj, shape, form, dropout, dtype, rows):
        op = _op(adj, dtype)
        restricted = None if rows is None else op.restrict(rows)
        m = adj.num_nodes if rows is None else len(rows)
        w_in, w_out = LAYER_SHAPES[shape]
        params = _gcn_layer(w_in, w_out, ops.rng_stream(31, 0), dtype, form)
        params.bias[:] = 0.1 * ops.rng_stream(31, 1).standard_normal(w_out)
        h_in = ops.rng_stream(31, 2).standard_normal((adj.num_nodes, w_in)).astype(dtype)
        d_out = ops.rng_stream(31, 3).standard_normal((m, w_out)).astype(dtype)

        def run(ws, fill):
            h_out, cache = nn.gcn_layer_forward(op, h_in, params, 32, True, dropout, ws=ws, rows=restricted)
            h_out = h_out.copy()
            for g in _arrays(params.grads):
                g.fill(fill)
            d_in = np.full_like(h_in, fill)
            nn.gcn_layer_backward(cache, d_out.copy(), params, op, ws=ws, d_in=d_in, rows=restricted)
            return [h_out, *(g.copy() for g in _arrays(params.grads)), d_in]

        _assert_same_bits(run(_FilledWorkspace(0xFF), np.nan), run(_FilledWorkspace(0), 0))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_mlp(self, dropout, dtype):
        self._check_mlp(dropout, dtype, rows=None)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_mlp_on_a_row_set(self, dropout, dtype):
        # x holds rows R of a 12-row input
        self._check_mlp(dropout, dtype, rows=[1, 4, 5, 8, 11])

    @staticmethod
    def _check_mlp(dropout, dtype, rows):
        restricted = None if rows is None else _op(build_csr(12, [])).restrict(rows)
        mlp = nn.init_mlp([5, 6, 4, 3], ops.rng_stream(33, 0), dtype, dropout)
        height = 9 if rows is None else len(rows)
        x = ops.rng_stream(33, 1).standard_normal((height, 5)).astype(dtype)
        d_out = ops.rng_stream(33, 2).standard_normal((height, 3)).astype(dtype)

        def run(ws, fill):
            m = dataclasses.replace(mlp, key=34, ws=ws)
            y = nn.mlp_forward(x, m, True, rows=restricted).copy()
            m.group.grad.fill(fill)
            d_in = np.full_like(x, fill)
            nn.mlp_backward(d_out, m, d_in=d_in)
            return [y, *(g.copy() for layer in m.grads for g in layer), d_in]

        _assert_same_bits(run(_FilledWorkspace(0xFF), np.nan), run(_FilledWorkspace(0), 0))


class TestSliceEncoding:
    def test_zero_table_identity(self):
        enc = nn.SliceEncoding(table=np.zeros((3, 4)))
        rep = np.random.default_rng(0).standard_normal((5, 12))
        want = rep.copy()
        assert nn.slice_encode(rep, enc) is rep
        np.testing.assert_array_equal(rep, want)

    def test_pure_broadcast(self):
        # device i's block of the representation gets row i of the table
        enc = nn.SliceEncoding(table=np.arange(8.0).reshape(2, 4))
        out = nn.slice_encode(np.zeros((3, 8)), enc)
        np.testing.assert_array_equal(out, np.tile(np.arange(8.0), (3, 1)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        enc = nn.init_slice_encoding(2, 4, ops.rng_stream(1, 0), np.float64)
        h = rng.standard_normal((6, 8))
        target = rng.standard_normal((6, 8))

        def loss():
            return 0.5 * float(((nn.slice_encode(h.copy(), enc) - target) ** 2).sum())

        d_out = nn.slice_encode(h.copy(), enc) - target
        passed = d_out.copy()
        nn.slice_encode_backward(d_out, enc)
        fd = central_diff(loss, enc.table)
        assert rel_err(fd, enc.group.grads[0]) <= 1e-5
        np.testing.assert_array_equal(d_out, passed)  # the pass-through gradient is unchanged

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [2, 3])
    def test_one_pass_has_the_bits_of_one_pass_per_device(self, p, dtype):
        # the add and the column sums over the whole representation equal
        # each device block's own, bit for bit
        width = 5
        enc = nn.init_slice_encoding(p, width, ops.rng_stream(2, 0), dtype)
        rep = np.random.default_rng(2).standard_normal((300, p * width)).astype(dtype)
        want = rep.copy()
        blocks = [want[:, i * width : (i + 1) * width] for i in range(p)]
        for i, block in enumerate(blocks):
            np.add(block, enc.table[i], out=block)
        nn.slice_encode(rep, enc)
        assert rep.tobytes() == want.tobytes()
        nn.slice_encode_backward(rep, enc)
        _assert_same_bits(list(enc.group.grads[0]), [block.sum(axis=0) for block in blocks])

    def test_bad_device_index(self):
        # a representation with a block for device 2 of a 2-row table does not broadcast
        enc = nn.SliceEncoding(table=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            nn.slice_encode(np.zeros((1, 9)), enc)


class TestMlp:
    def test_zero_weights_uniform_logits(self):
        rng = ops.rng_stream(8, 0)
        mlp = nn.init_mlp([5, 4, 3], rng, np.float64)
        for w, b in mlp.layers:
            w[:] = 0
        x = rng.standard_normal((7, 5))
        out, _ = _mlp_forward(x, mlp, training=False)
        loss, _ = ops.softmax_cross_entropy(out, np.zeros(7, dtype=np.int64))
        assert loss == pytest.approx(np.log(3), abs=1e-12)

    def test_single_layer_is_linear(self):
        rng = ops.rng_stream(9, 0)
        mlp = nn.init_mlp([5, 3], rng, np.float64)
        x = rng.standard_normal((4, 5))
        out, _ = _mlp_forward(x, mlp, training=False)
        w, b = mlp.layers[0]
        np.testing.assert_allclose(out, x @ w + b, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = ops.rng_stream(10, 0)
        mlp = nn.init_mlp([5, 6, 3], rng, np.float64, dropout=0.5)
        x = rng.standard_normal((8, 5))
        labels = rng.integers(0, 3, 8)

        def loss():  # a training forward: a key's dropout mask is the same in every call
            out, _ = _mlp_forward(x, mlp, training=True, key=10)
            return ops.softmax_cross_entropy(out, labels)[0]

        out, trained = _mlp_forward(x, mlp, training=True, key=10)
        _, d_logits = ops.softmax_cross_entropy(out, labels)
        grads, d_x = _mlp_backward(trained, d_logits)
        for (w, b), (dw, db) in zip(mlp.layers, grads):
            assert rel_err(central_diff(loss, w), dw) <= 1e-5
            assert rel_err(central_diff(loss, b), db) <= 1e-5
        assert rel_err(central_diff(loss, x), d_x) <= 1e-5

    def test_row_set_forward_gives_the_whole_forward_at_its_rows(self):
        # dropout included: rows R of the input get rows R of the output of all rows
        mlp = nn.init_mlp([5, 6, 3], ops.rng_stream(17, 0), np.float64, dropout=0.5, key=17)
        x = ops.rng_stream(17, 1).standard_normal((12, 5))
        rows = _op(build_csr(12, [])).restrict([1, 4, 5, 8, 11])
        whole = nn.mlp_forward(x, mlp, True).copy()
        np.testing.assert_allclose(nn.mlp_forward(x[rows.nodes], mlp, True, rows=rows), whole[rows.nodes], rtol=1e-12)

    def test_skipping_input_gradient_keeps_weight_gradients(self):
        rng = ops.rng_stream(13, 0)
        mlp = nn.init_mlp([5, 6, 3], rng, np.float64, dropout=0.3)
        x = rng.standard_normal((8, 5))
        d_out = rng.standard_normal((8, 3))

        def backward(input_grad):  # each backward over a forward of its own, with the same mask
            _, trained = _mlp_forward(x, mlp, training=True, key=13)
            return _mlp_backward(trained, d_out, input_grad)

        full, d_x = backward(True)
        skipped, none = backward(False)
        assert d_x is not None and none is None
        for (dw, db), (sw, sb) in zip(full, skipped):
            np.testing.assert_array_equal(dw, sw)
            np.testing.assert_array_equal(db, sb)

    def test_training_forward_leaves_its_cache_and_backward_consumes_it(self):
        # as a device's stack does: an eval forward leaves no cache, and a
        # backward clears the one it read
        mlp = nn.init_mlp([5, 6, 3], ops.rng_stream(16, 0), np.float64, dropout=0.5)
        x = ops.rng_stream(16, 1).standard_normal((7, 5))
        nn.mlp_forward(x, mlp, training=True)
        assert len(mlp.cache) == 2 and mlp.cache[0][0] is x
        assert nn.mlp_backward(np.ones((7, 3)), mlp) is None and mlp.cache is None
        nn.mlp_forward(x, mlp, training=True)
        nn.mlp_forward(x, mlp, training=False)
        assert mlp.cache is None

    def test_kept_first_layer_replaces_its_arithmetic(self):
        mlp = nn.init_mlp([5, 6, 4, 3], ops.rng_stream(14, 0), np.float32, dropout=0.4)
        x = ops.rng_stream(14, 1).standard_normal((9, 5)).astype(np.float32)
        nn.mlp_forward(x, mlp, training=False, version=0)
        # no dropout in an eval forward, so the second layer's input is relu(z)
        mask, a = mlp.ws.get((0, "mask"), (9, 6), bool), mlp.ws.get((0, "a"), (9, 6), x.dtype)
        w, b = mlp.layers[0]
        z = x @ w + b
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, z > 0)
        np.testing.assert_array_equal(a, ops.relu(z))

        fresh, fresh_mlp = _mlp_forward(x, mlp, training=True, key=15)
        for param in mlp.layers[0]:  # a first layer that computed again would give NaN
            param[:] = np.nan
        mlp.key = 15
        out = nn.mlp_forward(x, mlp, training=True, version=0)
        np.testing.assert_array_equal(out, fresh)
        cache = mlp.cache
        assert cache[0][0] is x and cache[0][1] is mask and cache[1][0] is a
        for got, want in zip(cache, fresh_mlp.cache):
            for g, f in zip(got, want):
                np.testing.assert_array_equal(g, f)

    def test_width_mismatch(self):
        rng = ops.rng_stream(11, 0)
        mlp = nn.init_mlp([5, 3], rng, np.float64)
        with pytest.raises(ValueError):
            _mlp_forward(np.zeros((2, 4)), mlp, training=False)


def _group(*arrays) -> nn.ParamGroup:
    """A group whose parameters start as copies of `arrays`."""
    group = nn.ParamGroup([a.shape for a in arrays], ops.rng_stream(0, 0), arrays[0].dtype)
    for view, a in zip(group.params, arrays):
        view[...] = a
    return group


def _reference_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-array Adam step the group step must reproduce bit for bit."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= beta1
        mi += (1.0 - beta1) * g
        vi *= beta2
        vi += (1.0 - beta2) * np.square(g)
        p -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)


class TestAdam:
    def test_zero_gradient_no_change(self):
        group = _group(np.ones((3, 3)))
        before = group.param.copy()
        nn.adam_step(group, lr=0.1)
        np.testing.assert_array_equal(group.param, before)

    def test_scalar_hand_value(self):
        group = _group(np.array([1.0]))
        group.grad[:] = 1.0
        nn.adam_step(group, lr=0.1)
        assert group.param[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-15)

    def test_bit_identical_trajectories(self):
        def run():
            rng = ops.rng_stream(12, 0)
            group = _group(rng.standard_normal((4, 4)))
            for _ in range(20):
                group.grad[:] = rng.standard_normal(16)
                nn.adam_step(group, lr=0.01)
            return group.param

        np.testing.assert_array_equal(run(), run())

    def test_gradient_scale_keeps_sign_pattern(self):
        rng = ops.rng_stream(13, 0)
        g = rng.standard_normal((5, 5))
        deltas = []
        for c in (1.0, 100.0):
            group = _group(np.zeros((5, 5)))
            group.grads[0][...] = c * g
            nn.adam_step(group, lr=0.05)
            deltas.append(group.params[0].copy())
        np.testing.assert_array_equal(np.sign(deltas[0]), np.sign(deltas[1]))
        # first-step magnitude is bounded by lr for any gradient scale
        for d in deltas:
            assert np.abs(d).max() <= 0.05 + 1e-12

    def test_non_finite_gradient_fails_fast(self):
        for bad in (np.nan, np.inf, -np.inf):
            group = _group(np.ones(2), np.ones((2, 2)))
            group.grad[:] = 1.0
            group.grads[1][1, 0] = bad
            before = [a.copy() for a in (group.param, group.m, group.v)]
            with pytest.raises(nn.NumericError):
                nn.adam_step(group, lr=0.1)
            # nothing changed
            assert group.t == 0
            for a, b in zip(before, (group.param, group.m, group.v)):
                np.testing.assert_array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        shapes=st.lists(
            st.one_of(st.tuples(st.integers(1, 9)), st.tuples(st.integers(1, 7), st.integers(1, 7))),
            min_size=1, max_size=4,
        ),
        lrs=st.lists(st.sampled_from([0.0, 1e-3, 0.01, 0.3]), min_size=1, max_size=4),
        chunk=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_group_step_matches_per_array_reference(self, dtype, shapes, lrs, chunk, seed):
        rng = np.random.default_rng(seed)
        start = [rng.standard_normal(shape).astype(dtype) for shape in shapes]
        with mock.patch.object(nn, "_ADAM_CHUNK", chunk):  # several passes, the last one short
            group = _group(*start)
        params = [a.copy() for a in start]
        m = [np.zeros_like(a) for a in start]
        v = [np.zeros_like(a) for a in start]
        for t, lr in enumerate(lrs, start=1):
            grads = [(rng.standard_normal(a.shape) * 10.0 ** rng.integers(-4, 4)).astype(dtype) for a in start]
            for view, g in zip(group.grads, grads):
                view[...] = g
            nn.adam_step(group, lr)
            _reference_adam(params, grads, m, v, t, lr)
            for got, want in zip(group.params, params):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            for got, want in zip(group.grads, grads):  # the gradients are left as they were
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("parts", [2, 3])
    def test_split_step_matches_the_whole_step(self, parts):
        # ranges of several chunks each, run last first: the update is
        # element-wise, so neither the cut nor the order moves a bit
        rng = np.random.default_rng(parts)
        start = [rng.standard_normal(shape).astype(np.float32) for shape in ((40, 30), (30,), (30, 7))]
        with mock.patch.object(nn, "_ADAM_CHUNK", 64), mock.patch.object(ops, "MIN_PASS_ELEMENTS", 100):
            whole, cut = _group(*start), _group(*start)
            rounds = []
            pool = ops.Pool(parts)
            pool.run = lambda fn, items: rounds.append(len(items)) or [fn(i) for i in items[::-1]]
            for lr in (0.01, 0.003, 0.3):
                grad = rng.standard_normal(whole.size).astype(np.float32)
                whole.grad[:] = cut.grad[:] = grad
                nn.adam_step(whole, lr)
                nn.adam_step(cut, lr, pool)
        assert rounds == [parts] * 3 and len(cut.scratch) == parts
        for a, b in ((whole.param, cut.param), (whole.m, cut.m), (whole.v, cut.v)):
            np.testing.assert_array_equal(a, b)

    def test_step_over_a_large_group_allocates_no_temporary(self):
        group = nn.ParamGroup([(1000, 1000)], ops.rng_stream(19, 0), np.float32)
        group.grad[:] = 0.5
        tracemalloc.start()
        try:
            nn.adam_step(group, lr=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no temporary of the group's 4 MB, nor of one 256 kB chunk
        assert peak < 64 << 10


class TestParamGroup:
    def test_built_in_place_from_the_stream_in_order(self):
        shapes = [(3, 4), (4,), (4, 2), (2,)]
        group = nn.ParamGroup(shapes, ops.rng_stream(20, 0), np.float32)
        ref = ops.rng_stream(20, 0)
        for view, shape in zip(group.params, shapes):
            assert view.shape == shape and np.shares_memory(view, group.param)
            if len(shape) == 2:
                a = np.sqrt(6.0 / sum(shape))
                np.testing.assert_array_equal(view, ref.uniform(-a, a, size=shape).astype(np.float32))
            else:
                assert not view.any()
        assert group.size == 12 + 4 + 8 + 2
        # views tile the buffers in order
        offsets = [a.ctypes.data - group.param.ctypes.data for a in group.params]
        assert offsets == [0, 48, 64, 96]
        grad_offsets = [a.ctypes.data - group.grad.ctypes.data for a in group.grads]
        assert grad_offsets == offsets


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert nn.cosine_lr(0, 100, 0.01) == pytest.approx(0.01)
        assert nn.cosine_lr(100, 100, 0.01) == pytest.approx(0.0, abs=1e-18)
        assert nn.cosine_lr(50, 100, 0.01) == pytest.approx(0.005)

    def test_non_increasing(self):
        values = [nn.cosine_lr(t, 37, 0.3) for t in range(38)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            nn.cosine_lr(0, 0, 0.01)


class TestCountParams:
    def test_hand_counted_tiny_model(self):
        # 6 features on 2 devices: slices of width 3, layers ceil(7/2) = 4 wide
        g = synth_graph(n=30, classes=3, d_feat=6, p_in=0.3, p_out=0.1, signal=1.0, seed=7)
        run = engine.build_run(g, engine.TrainConfig(variant="slice_se", p=2, hidden=7, layers=2))
        # per worker: (2*3*4+4) + (2*4*4+4) = 64; two workers
        assert [sum(a.size for a in w.group.params) for w in run.workers] == [64, 64]
        assert run.head.fusion is None
        assert run.head.encoding.table.size == 8
        # classifier 8 -> 7 -> 3
        assert sum(a.size for layer in run.head.classifier.layers for a in layer) == (8 * 7 + 7) + (7 * 3 + 3)
        assert run.param_count == 128 + 8 + 87

    def test_single_form_halves_layer_weights(self):
        g = synth_graph(n=30, classes=2, d_feat=3, p_in=0.3, p_out=0.1, signal=1.0, seed=7)
        cfg = engine.TrainConfig(variant="baseline", p=1, hidden=4, layers=1)
        dual = engine.build_run(g, dataclasses.replace(cfg, layer_form=nn.FORM_DUAL))
        single = engine.build_run(g, dataclasses.replace(cfg, layer_form=nn.FORM_SINGLE))
        # one 3 x 4 self-path weight fewer
        assert dual.param_count - single.param_count == 3 * 4
