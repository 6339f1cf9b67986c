import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicegcn import engine, nn, ops
from slicegcn.graph import build_csr, degree_norms, synth_graph


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
    g = synth_graph(n=30, classes=3, d_feat=6, p_in=0.3, p_out=0.1, signal=1.0, seed=7)
    return g.adj, degree_norms(g.adj)


@pytest.fixture(scope="module")
def directed_graph():
    # in-degrees differ from out-degrees, so Âᵀ != Â and the input
    # gradient needs the transposed operator
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 6), (6, 7), (7, 5), (2, 7)]
    adj = build_csr(8, edges, symmetrize=False)
    return adj, degree_norms(adj)


def _gcn_layer(w_in, w_out, rng, dtype, form=nn.FORM_DUAL):
    (layer,), _ = nn.init_gcn_layers([w_in, w_out], rng, dtype, form)
    return layer


def _forward(*args, **kwargs):
    """gcn_layer_forward in a fresh workspace of its own."""
    return nn.gcn_layer_forward(*args, ws=ops.Workspace(), **kwargs)


def _backward(cache, d_out, params, adj, s, input_grad=True):
    """gcn_layer_backward in a fresh workspace, into new gradient arrays."""
    out = [np.empty_like(a) for a in params.arrays()]
    d_in = np.empty_like(cache.h_in) if input_grad else None
    return nn.gcn_layer_backward(cache, d_out, params, adj, s, out=out, ws=ops.Workspace(), d_in=d_in)


def _mlp_forward(*args, **kwargs):
    """mlp_forward in a fresh workspace of its own."""
    return nn.mlp_forward(*args, ws=ops.Workspace(), **kwargs)


def _mlp_backward(cache, d_out, mlp, input_grad=True):
    """mlp_backward into new gradient arrays. It consumes the forward's
    cache, so each backward needs a forward."""
    out = [np.empty_like(a) for a in mlp.group.params]
    d_in = np.empty_like(cache[0][0]) if input_grad else None
    return nn.mlp_backward(cache, d_out, mlp, out=out, d_in=d_in)


# (w_in, w_out): a narrowing layer multiplies by W_agg before aggregating
LAYER_SHAPES = {"narrowing": (5, 3), "widening": (3, 5), "equal": (4, 4)}


class TestGcnLayer:
    def test_edgeless_graph_keeps_self_path(self):
        adj = build_csr(4, [])
        s = degree_norms(adj)
        rng = ops.rng_stream(0, 0)
        params = _gcn_layer(3, 3, rng, np.float64)
        params.bias[:] = 0
        h_in = rng.standard_normal((4, 3))
        h_out, _ = _forward(adj, s, h_in, params, rng, training=False)
        np.testing.assert_allclose(h_out, h_in @ params.w_self)

    def test_identity_self_path(self):
        adj = build_csr(3, [(0, 1), (1, 2)])
        s = degree_norms(adj)
        rng = ops.rng_stream(1, 0)
        params = nn.GcnLayerParams(
            w_agg=np.zeros((4, 4)), w_self=np.eye(4), bias=np.zeros(4)
        )
        h_in = rng.standard_normal((3, 4))
        h_out, _ = _forward(adj, s, h_in, params, rng, training=False)
        np.testing.assert_array_equal(h_out, h_in)

    def test_single_form_matches_dense_oracle(self):
        adj = build_csr(2, [(0, 1)])
        s = degree_norms(adj)
        rng = ops.rng_stream(2, 0)
        params = _gcn_layer(3, 2, rng, np.float64, form=nn.FORM_SINGLE)
        params.bias[:] = rng.standard_normal(2)
        h_in = rng.standard_normal((2, 3))
        h_out, _ = _forward(adj, s, h_in, params, rng, training=False)
        dense = np.array([[0.0, 1.0], [1.0, 0.0]])  # normalized single edge
        expect = np.maximum(dense @ h_in @ params.w_agg + params.bias, 0)
        np.testing.assert_allclose(h_out, expect, atol=1e-12)

    def test_zero_agg_weight_is_affine_plus_constant(self):
        # with W_agg = 0 the layer is H_in @ W_self plus the fixed ReLU(b) row
        adj = build_csr(3, [(0, 1), (1, 2)])
        s = degree_norms(adj)
        rng = ops.rng_stream(3, 0)
        params = _gcn_layer(4, 4, rng, np.float64)
        params.w_agg[:] = 0
        params.bias[:] = rng.standard_normal(4)
        h_in = rng.standard_normal((3, 4))
        h_out, _ = _forward(adj, s, h_in, params, rng, training=False)
        np.testing.assert_allclose(
            h_out, h_in @ params.w_self + np.maximum(params.bias, 0), atol=1e-12
        )

    def test_zero_upstream_zero_grads(self, rand_graph):
        adj, s = rand_graph
        rng = ops.rng_stream(4, 0)
        params = _gcn_layer(6, 5, rng, np.float64)
        h_in = rng.standard_normal((30, 6))
        h_out, cache = _forward(adj, s, h_in, params, rng, training=True)
        dw_agg, dw_self, db, d_in = _backward(
            cache, np.zeros_like(h_out), params, adj, s
        )
        assert not dw_agg.any() and not dw_self.any() and not db.any() and not d_in.any()

    def test_zero_agg_weight_self_gradient(self, rand_graph):
        adj, s = rand_graph
        rng = ops.rng_stream(5, 0)
        params = _gcn_layer(6, 5, rng, np.float64)
        params.w_agg[:] = 0
        params.bias[:] = -1e3  # keep the ReLU branch inactive
        h_in = rng.standard_normal((30, 6))
        h_out, cache = _forward(adj, s, h_in, params, rng, training=True)
        d_out = rng.standard_normal(h_out.shape)
        _, dw_self, _, _ = _backward(cache, d_out, params, adj, s)
        np.testing.assert_allclose(dw_self, h_in.T @ d_out, atol=1e-12)

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    def test_gradients_match_finite_differences(self, rand_graph, form):
        adj, s = rand_graph
        rng = ops.rng_stream(6, 0)
        params = _gcn_layer(6, 5, rng, np.float64, form=form)
        params.bias[:] = 0.01 * rng.standard_normal(5)
        h_in = rng.standard_normal((30, 6))
        target = rng.standard_normal((30, 5))

        def loss():
            out, _ = _forward(adj, s, h_in, params, rng, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = _forward(adj, s, h_in, params, rng, training=True)  # rate 0: eval's arithmetic
        d_out = h_out - target
        dw_agg, dw_self, db, d_in = _backward(cache, d_out, params, adj, s)
        groups = [(params.w_agg, dw_agg), (params.bias, db)]
        if form == nn.FORM_DUAL:
            groups.append((params.w_self, dw_self))
        for param, ana in groups:
            assert rel_err(central_diff(loss, param), ana) <= 1e-5

    def test_input_gradient_matches_finite_differences(self, rand_graph):
        adj, s = rand_graph
        rng = ops.rng_stream(7, 0)
        params = _gcn_layer(4, 3, rng, np.float64)
        h_in = rng.standard_normal((30, 4))
        target = rng.standard_normal((30, 3))

        def loss():
            out, _ = _forward(adj, s, h_in, params, rng, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = _forward(adj, s, h_in, params, rng, training=True)
        _, _, _, d_in = _backward(cache, h_out - target, params, adj, s)
        assert rel_err(central_diff(loss, h_in), d_in) <= 1e-5

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    def test_directed_graph_gradients_match_finite_differences(self, directed_graph, form):
        adj, s = directed_graph
        rng = ops.rng_stream(12, 0)
        params = _gcn_layer(4, 3, rng, np.float64, form=form)
        params.bias[:] = 0.01 * rng.standard_normal(3)
        h_in = rng.standard_normal((8, 4))
        target = rng.standard_normal((8, 3))

        def loss():
            out, _ = _forward(adj, s, h_in, params, rng, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = _forward(adj, s, h_in, params, rng, training=True)
        dw_agg, _, db, d_in = _backward(cache, h_out - target, params, adj, s)
        for param, ana in ((h_in, d_in), (params.w_agg, dw_agg), (params.bias, db)):
            assert rel_err(central_diff(loss, param), ana) <= 1e-5

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    @pytest.mark.parametrize("graph", ["rand_graph", "directed_graph"])
    def test_both_aggregation_orders_match_finite_differences(self, request, graph, shape, form):
        adj, s = request.getfixturevalue(graph)
        w_in, w_out = LAYER_SHAPES[shape]
        n = adj.num_nodes
        rng = ops.rng_stream(14, 0)
        params = _gcn_layer(w_in, w_out, rng, np.float64, form=form)
        params.bias[:] = 0.01 * rng.standard_normal(w_out)
        h_in = rng.standard_normal((n, w_in))
        target = rng.standard_normal((n, w_out))

        def loss():
            out, _ = _forward(adj, s, h_in, params, rng, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = _forward(adj, s, h_in, params, rng, training=True)
        assert (cache.agg is None) == (shape == "narrowing")
        dw_agg, dw_self, db, d_in = _backward(cache, h_out - target, params, adj, s)
        groups = [(h_in, d_in), (params.w_agg, dw_agg), (params.bias, db)]
        if form == nn.FORM_DUAL:
            groups.append((params.w_self, dw_self))
        for param, ana in groups:
            assert rel_err(central_diff(loss, param), ana) <= 1e-5

    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    def test_given_aggregate_replaces_aggregation(self, rand_graph, monkeypatch, shape):
        adj, s = rand_graph
        w_in, w_out = LAYER_SHAPES[shape]
        rng = ops.rng_stream(15, 0)
        params = _gcn_layer(w_in, w_out, rng, np.float64)
        h_in = rng.standard_normal((30, w_in))
        d_out = rng.standard_normal((30, w_out))
        own, own_cache = _forward(adj, s, h_in, params, rng, training=True)
        own_grads = _backward(own_cache, d_out, params, adj, s, input_grad=False)
        agg = ops.spmm_norm(adj, s, h_in, out=np.empty_like(h_in), ws=ops.Workspace())

        calls = []
        spmm = ops.spmm_norm
        monkeypatch.setattr(ops, "spmm_norm", lambda *a, **k: calls.append(1) or spmm(*a, **k))
        out, cache = _forward(adj, s, h_in, params, rng, training=True, agg=agg)
        grads = _backward(cache, d_out, params, adj, s, input_grad=False)
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
        # output, cache and stream position as computing the layer again
        adj, s = rand_graph
        w_in, w_out = LAYER_SHAPES[shape]
        params = _gcn_layer(w_in, w_out, ops.rng_stream(16, 0), np.float32, form)
        h_in = ops.rng_stream(16, 1).standard_normal((30, w_in)).astype(np.float32)
        agg = ops.spmm_norm(adj, s, h_in, out=np.empty_like(h_in), ws=ops.Workspace())
        ws = ops.Workspace()
        h_eval, c_eval = nn.gcn_layer_forward(adj, s, h_in, params, None, False, ws=ws, version=3)
        rng, ref = ops.rng_stream(17, 0), ops.rng_stream(17, 0)
        fresh, c_fresh = _forward(adj, s, h_in, params, ref, True, 0.5, agg=agg)

        for param in params.arrays():  # a layer that computed again would give NaN
            param[:] = np.nan
        monkeypatch.setattr(ops, "spmm_norm", None)
        out, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, True, 0.5, ws=ws, version=3)
        np.testing.assert_array_equal(out, fresh)
        assert out is h_eval and cache.mask is c_eval.mask and cache.agg is c_eval.agg and cache.h_in is h_in
        np.testing.assert_array_equal(cache.agg, agg)
        np.testing.assert_array_equal(cache.mask, c_fresh.mask)
        np.testing.assert_array_equal(cache.keep, c_fresh.keep)
        assert cache.scale == c_fresh.scale and rng.random() == ref.random()


class TestVersionedForward:
    """A layer over a fixed input, called with its owner's `version`: what
    it keeps in the workspace, and when it forms its aggregate."""

    @staticmethod
    def _layer():
        params = _gcn_layer(4, 4, ops.rng_stream(18, 0), np.float64)
        return params, ops.rng_stream(18, 1).standard_normal((30, 4))

    def test_forward_into_out_keeps_nothing(self, rand_graph):
        adj, s = rand_graph
        params, h_in = self._layer()
        ws = ops.Workspace()
        _, cache = nn.gcn_layer_forward(adj, s, h_in, params, None, False, ws=ws, out=np.empty((30, 4)), version=0)
        assert cache.mask is None and (0, "out") not in ws.versions
        params.bias[:] += 1.0  # the version holds, but a result in `out` is never reused
        out, _ = nn.gcn_layer_forward(adj, s, h_in, params, None, False, ws=ws, out=np.empty((30, 4)), version=0)
        fresh, _ = _forward(adj, s, h_in, params, None, False, agg=cache.agg)
        np.testing.assert_array_equal(out, fresh)
        assert (0, "out") not in ws.versions

    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    def test_input_aggregated_once_over_eval_train_eval(self, rand_graph, monkeypatch, shape):
        adj, s = rand_graph
        w_in, w_out = LAYER_SHAPES[shape]
        params = _gcn_layer(w_in, w_out, ops.rng_stream(19, 0), np.float64)
        h_in = ops.rng_stream(19, 1).standard_normal((30, w_in))
        calls = []
        spmm = ops.spmm_norm
        monkeypatch.setattr(ops, "spmm_norm", lambda *a, **k: calls.append(1) or spmm(*a, **k))
        ws, rng = ops.Workspace(), ops.rng_stream(19, 2)
        for training, version in ((False, 0), (True, 0), (False, 1)):  # eval, train, step, eval
            _, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, training, 0.5, ws=ws, version=version)
        assert len(calls) == 1 and ws.versions[0, "agg"] == 0
        np.testing.assert_array_equal(cache.agg, spmm(adj, s, h_in, out=np.empty_like(h_in), ws=ops.Workspace()))

    def test_training_forward_drops_the_kept_result(self, rand_graph):
        adj, s = rand_graph
        params, h_in = self._layer()
        mlp = nn.init_mlp([4, 5, 3], ops.rng_stream(20, 0), np.float64, dropout=0.5)
        ws, mlp_ws, rng = ops.Workspace(), ops.Workspace(), ops.rng_stream(20, 1)
        nn.gcn_layer_forward(adj, s, h_in, params, rng, False, 0.5, ws=ws, version=2)
        nn.mlp_forward(h_in, mlp, rng, False, ws=mlp_ws, version=2)
        assert ws.versions[0, "out"] == 2 and mlp_ws.versions == {(0, "a"): 2}
        nn.gcn_layer_forward(adj, s, h_in, params, rng, True, 0.5, ws=ws, version=2)
        nn.mlp_forward(h_in, mlp, rng, True, ws=mlp_ws, version=2)
        assert ws.versions == {(0, "agg"): 2} and mlp_ws.versions == {}

    def test_unversioned_calls_leave_versions_alone(self, rand_graph):
        adj, s = rand_graph
        params, h_in = self._layer()
        mlp = nn.init_mlp([4, 5, 3], ops.rng_stream(21, 0), np.float64, dropout=0.5)
        ws, rng = ops.Workspace(), ops.rng_stream(21, 1)
        nn.gcn_layer_forward(adj, s, h_in, params, rng, False, 0.5, ws=ws, version=5)
        nn.mlp_forward(h_in, mlp, rng, False, ws=ws, version=5)
        before = dict(ws.versions)
        assert before == {(0, "agg"): 5, (0, "out"): 5, (0, "a"): 5}
        for training in (False, True):
            for layer in (0, 1):
                nn.gcn_layer_forward(adj, s, h_in, params, rng, training, 0.5, ws=ws, layer=layer)
            nn.mlp_forward(h_in, mlp, rng, training, ws=ws)
        assert ws.versions == before


class _FilledWorkspace(ops.Workspace):
    """A workspace whose arrays hold `byte` in every byte each time it hands
    one out, however often it did before."""

    def __init__(self, byte):
        super().__init__()
        self.byte = byte

    def get(self, key, shape, dtype):
        a = super().get(key, shape, dtype)
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
        adj, s = directed_graph
        s = s.astype(dtype)
        h = ops.rng_stream(30, 0).standard_normal((adj.num_nodes, 3)).astype(dtype)

        def run(ws, fill):
            # three columns sum into out; one column, into the workspace's accumulator
            col = np.ascontiguousarray(h[:, :1])
            return [ops.spmm_norm(adj, s, a, transpose, out=np.full_like(a, fill), ws=ws) for a in (h, col)]

        _assert_same_bits(run(_FilledWorkspace(0xFF), np.nan), run(_FilledWorkspace(0), 0))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    @pytest.mark.parametrize("shape", list(LAYER_SHAPES))
    def test_gcn_layer(self, directed_graph, shape, form, dropout, dtype):
        adj, s = directed_graph
        s = s.astype(dtype)
        w_in, w_out = LAYER_SHAPES[shape]
        params = _gcn_layer(w_in, w_out, ops.rng_stream(31, 0), dtype, form)
        params.bias[:] = 0.1 * ops.rng_stream(31, 1).standard_normal(w_out)
        h_in = ops.rng_stream(31, 2).standard_normal((adj.num_nodes, w_in)).astype(dtype)
        d_out = ops.rng_stream(31, 3).standard_normal((adj.num_nodes, w_out)).astype(dtype)

        def run(ws, fill):
            rng = ops.rng_stream(32, 0)
            h_out, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, True, dropout, ws=ws)
            h_out = h_out.copy()
            out = [np.full_like(a, fill) for a in params.arrays()]
            d_in = np.full_like(h_in, fill)
            nn.gcn_layer_backward(cache, d_out.copy(), params, adj, s, out=out, ws=ws, d_in=d_in)
            return [h_out, *out, d_in]

        _assert_same_bits(run(_FilledWorkspace(0xFF), np.nan), run(_FilledWorkspace(0), 0))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_mlp(self, dropout, dtype):
        mlp = nn.init_mlp([5, 6, 4, 3], ops.rng_stream(33, 0), dtype, dropout)
        x = ops.rng_stream(33, 1).standard_normal((9, 5)).astype(dtype)
        d_out = ops.rng_stream(33, 2).standard_normal((9, 3)).astype(dtype)

        def run(ws, fill):
            y, cache = nn.mlp_forward(x, mlp, ops.rng_stream(34, 0), True, ws=ws)
            y = y.copy()
            out = [np.full_like(a, fill) for a in mlp.group.params]
            d_in = np.full_like(x, fill)
            nn.mlp_backward(cache, d_out, mlp, out=out, d_in=d_in)
            return [y, *out, d_in]

        _assert_same_bits(run(_FilledWorkspace(0xFF), np.nan), run(_FilledWorkspace(0), 0))


class TestSliceEncoding:
    def test_zero_table_identity(self):
        enc = nn.SliceEncoding(table=np.zeros((3, 4)))
        h = np.random.default_rng(0).standard_normal((5, 4))
        np.testing.assert_array_equal(nn.slice_encode(h, enc, 1), h)

    def test_pure_broadcast(self):
        enc = nn.SliceEncoding(table=np.arange(8.0).reshape(2, 4))
        out = nn.slice_encode(np.zeros((3, 4)), enc, 1)
        np.testing.assert_array_equal(out, np.tile([4.0, 5, 6, 7], (3, 1)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        enc = nn.SliceEncoding(table=rng.standard_normal((2, 4)))
        h = rng.standard_normal((6, 4))
        target = rng.standard_normal((6, 4))

        def loss():
            return 0.5 * float(((nn.slice_encode(h, enc, 0) - target) ** 2).sum())

        d_out = nn.slice_encode(h, enc, 0) - target
        d_row, d_h = nn.slice_encode_backward(d_out)
        fd = central_diff(loss, enc.table)
        assert rel_err(fd[0], d_row) <= 1e-5
        assert not fd[1].any()  # the other device's row is untouched
        np.testing.assert_array_equal(d_h, d_out)

    def test_bad_device_index(self):
        enc = nn.SliceEncoding(table=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            nn.slice_encode(np.zeros((1, 3)), enc, 2)


class TestMlp:
    def test_zero_weights_uniform_logits(self):
        rng = ops.rng_stream(8, 0)
        mlp = nn.init_mlp([5, 4, 3], rng, np.float64)
        for w, b in mlp.layers:
            w[:] = 0
        x = rng.standard_normal((7, 5))
        out, _ = _mlp_forward(x, mlp, rng, training=False)
        loss, _ = ops.softmax_cross_entropy(out, np.zeros(7, dtype=np.int64))
        assert loss == pytest.approx(np.log(3), abs=1e-12)

    def test_single_layer_is_linear(self):
        rng = ops.rng_stream(9, 0)
        mlp = nn.init_mlp([5, 3], rng, np.float64)
        x = rng.standard_normal((4, 5))
        out, _ = _mlp_forward(x, mlp, rng, training=False)
        w, b = mlp.layers[0]
        np.testing.assert_allclose(out, x @ w + b, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = ops.rng_stream(10, 0)
        mlp = nn.init_mlp([5, 6, 3], rng, np.float64)
        x = rng.standard_normal((8, 5))
        labels = rng.integers(0, 3, 8)

        def loss():
            out, _ = _mlp_forward(x, mlp, rng, training=False)
            return ops.softmax_cross_entropy(out, labels)[0]

        out, cache = _mlp_forward(x, mlp, rng, training=True)  # no dropout: eval's arithmetic
        _, d_logits = ops.softmax_cross_entropy(out, labels)
        grads, d_x = _mlp_backward(cache, d_logits, mlp)
        for (w, b), (dw, db) in zip(mlp.layers, grads):
            assert rel_err(central_diff(loss, w), dw) <= 1e-5
            assert rel_err(central_diff(loss, b), db) <= 1e-5
        assert rel_err(central_diff(loss, x), d_x) <= 1e-5

    def test_skipping_input_gradient_keeps_weight_gradients(self):
        rng = ops.rng_stream(13, 0)
        mlp = nn.init_mlp([5, 6, 3], rng, np.float64, dropout=0.3)
        x = rng.standard_normal((8, 5))
        d_out = rng.standard_normal((8, 3))

        def backward(input_grad):  # each backward over a forward of its own, with the same mask
            _, cache = _mlp_forward(x, mlp, ops.rng_stream(13, 1), training=True)
            return _mlp_backward(cache, d_out, mlp, input_grad)

        full, d_x = backward(True)
        skipped, none = backward(False)
        assert d_x is not None and none is None
        for (dw, db), (sw, sb) in zip(full, skipped):
            np.testing.assert_array_equal(dw, sw)
            np.testing.assert_array_equal(db, sb)

    def test_kept_first_layer_replaces_its_arithmetic(self):
        mlp = nn.init_mlp([5, 6, 4, 3], ops.rng_stream(14, 0), np.float32, dropout=0.4)
        x = ops.rng_stream(14, 1).standard_normal((9, 5)).astype(np.float32)
        ws = ops.Workspace()
        _, eval_cache = nn.mlp_forward(x, mlp, None, training=False, ws=ws, version=0)
        # no dropout in an eval forward, so the second layer's input is relu(z)
        mask, a = eval_cache[0][1], eval_cache[1][0]
        w, b = mlp.layers[0]
        z = x @ w + b
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, z > 0)
        np.testing.assert_array_equal(a, ops.relu(z))

        rng, ref = ops.rng_stream(15, 0), ops.rng_stream(15, 0)
        fresh, fresh_cache = _mlp_forward(x, mlp, ref, training=True)
        for param in mlp.layers[0]:  # a first layer that computed again would give NaN
            param[:] = np.nan
        out, cache = nn.mlp_forward(x, mlp, rng, training=True, ws=ws, version=0)
        np.testing.assert_array_equal(out, fresh)
        assert cache[0][0] is x and cache[0][1] is mask and cache[1][0] is a
        for got, want in zip(cache, fresh_cache):
            for g, f in zip(got, want):
                np.testing.assert_array_equal(g, f)
        assert rng.random() == ref.random()

    def test_width_mismatch(self):
        rng = ops.rng_stream(11, 0)
        mlp = nn.init_mlp([5, 3], rng, np.float64)
        with pytest.raises(ValueError):
            _mlp_forward(np.zeros((2, 4)), mlp, rng, training=False)


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
        with mock.patch.object(nn, "_ADAM_CHUNK", 64), mock.patch.object(nn, "_ADAM_MIN_RANGE", 100):
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
        assert nn.cosine_lr(50, 100, 0.01, lr_min=0.002) == pytest.approx(0.006)

    def test_non_increasing(self):
        values = [nn.cosine_lr(t, 37, 0.3, lr_min=0.01) for t in range(38)]
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
