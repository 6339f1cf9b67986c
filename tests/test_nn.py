import dataclasses

import numpy as np
import pytest

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


# (w_in, w_out): a narrowing layer multiplies by W_agg before aggregating
LAYER_SHAPES = {"narrowing": (5, 3), "widening": (3, 5), "equal": (4, 4)}


class TestGcnLayer:
    def test_edgeless_graph_keeps_self_path(self):
        adj = build_csr(4, [])
        s = degree_norms(adj)
        rng = ops.rng_stream(0, 0)
        params = nn.init_gcn_layer(3, 3, rng, np.float64)
        params.bias[:] = 0
        h_in = rng.standard_normal((4, 3))
        h_out, _ = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
        np.testing.assert_allclose(h_out, h_in @ params.w_self)

    def test_identity_self_path(self):
        adj = build_csr(3, [(0, 1), (1, 2)])
        s = degree_norms(adj)
        rng = ops.rng_stream(1, 0)
        params = nn.GcnLayerParams(
            w_agg=np.zeros((4, 4)), w_self=np.eye(4), bias=np.zeros(4)
        )
        h_in = rng.standard_normal((3, 4))
        h_out, _ = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
        np.testing.assert_array_equal(h_out, h_in)

    def test_single_form_matches_dense_oracle(self):
        adj = build_csr(2, [(0, 1)])
        s = degree_norms(adj)
        rng = ops.rng_stream(2, 0)
        params = nn.init_gcn_layer(3, 2, rng, np.float64, form=nn.FORM_SINGLE)
        params.bias[:] = rng.standard_normal(2)
        h_in = rng.standard_normal((2, 3))
        h_out, _ = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
        dense = np.array([[0.0, 1.0], [1.0, 0.0]])  # normalized single edge
        expect = np.maximum(dense @ h_in @ params.w_agg + params.bias, 0)
        np.testing.assert_allclose(h_out, expect, atol=1e-12)

    def test_zero_agg_weight_is_affine_plus_constant(self):
        # with W_agg = 0 the layer is H_in @ W_self plus the fixed ReLU(b) row
        adj = build_csr(3, [(0, 1), (1, 2)])
        s = degree_norms(adj)
        rng = ops.rng_stream(3, 0)
        params = nn.init_gcn_layer(4, 4, rng, np.float64)
        params.w_agg[:] = 0
        params.bias[:] = rng.standard_normal(4)
        h_in = rng.standard_normal((3, 4))
        h_out, _ = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
        np.testing.assert_allclose(
            h_out, h_in @ params.w_self + np.maximum(params.bias, 0), atol=1e-12
        )

    def test_zero_upstream_zero_grads(self, rand_graph):
        adj, s = rand_graph
        rng = ops.rng_stream(4, 0)
        params = nn.init_gcn_layer(6, 5, rng, np.float64)
        h_in = rng.standard_normal((30, 6))
        h_out, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=True)
        dw_agg, dw_self, db, d_in = nn.gcn_layer_backward(
            cache, np.zeros_like(h_out), params, adj, s
        )
        assert not dw_agg.any() and not dw_self.any() and not db.any() and not d_in.any()

    def test_zero_agg_weight_self_gradient(self, rand_graph):
        adj, s = rand_graph
        rng = ops.rng_stream(5, 0)
        params = nn.init_gcn_layer(6, 5, rng, np.float64)
        params.w_agg[:] = 0
        params.bias[:] = -1e3  # keep the ReLU branch inactive
        h_in = rng.standard_normal((30, 6))
        h_out, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=True)
        d_out = rng.standard_normal(h_out.shape)
        _, dw_self, _, _ = nn.gcn_layer_backward(cache, d_out, params, adj, s)
        np.testing.assert_allclose(dw_self, h_in.T @ d_out, atol=1e-12)

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    def test_gradients_match_finite_differences(self, rand_graph, form):
        adj, s = rand_graph
        rng = ops.rng_stream(6, 0)
        params = nn.init_gcn_layer(6, 5, rng, np.float64, form=form)
        params.bias[:] = 0.01 * rng.standard_normal(5)
        h_in = rng.standard_normal((30, 6))
        target = rng.standard_normal((30, 5))

        def loss():
            out, _ = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
        d_out = h_out - target
        dw_agg, dw_self, db, d_in = nn.gcn_layer_backward(cache, d_out, params, adj, s)
        groups = [(params.w_agg, dw_agg), (params.bias, db)]
        if form == nn.FORM_DUAL:
            groups.append((params.w_self, dw_self))
        for param, ana in groups:
            assert rel_err(central_diff(loss, param), ana) <= 1e-5

    def test_input_gradient_matches_finite_differences(self, rand_graph):
        adj, s = rand_graph
        rng = ops.rng_stream(7, 0)
        params = nn.init_gcn_layer(4, 3, rng, np.float64)
        h_in = rng.standard_normal((30, 4))
        target = rng.standard_normal((30, 3))

        def loss():
            out, _ = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
        _, _, _, d_in = nn.gcn_layer_backward(cache, h_out - target, params, adj, s)
        assert rel_err(central_diff(loss, h_in), d_in) <= 1e-5

    @pytest.mark.parametrize("form", [nn.FORM_SINGLE, nn.FORM_DUAL])
    def test_directed_graph_gradients_match_finite_differences(self, directed_graph, form):
        adj, s = directed_graph
        rng = ops.rng_stream(12, 0)
        params = nn.init_gcn_layer(4, 3, rng, np.float64, form=form)
        params.bias[:] = 0.01 * rng.standard_normal(3)
        h_in = rng.standard_normal((8, 4))
        target = rng.standard_normal((8, 3))

        def loss():
            out, _ = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
        dw_agg, _, db, d_in = nn.gcn_layer_backward(cache, h_out - target, params, adj, s)
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
        params = nn.init_gcn_layer(w_in, w_out, rng, np.float64, form=form)
        params.bias[:] = 0.01 * rng.standard_normal(w_out)
        h_in = rng.standard_normal((n, w_in))
        target = rng.standard_normal((n, w_out))

        def loss():
            out, _ = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
            return 0.5 * float(((out - target) ** 2).sum())

        h_out, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
        assert (cache.agg is None) == (shape == "narrowing")
        dw_agg, dw_self, db, d_in = nn.gcn_layer_backward(cache, h_out - target, params, adj, s)
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
        params = nn.init_gcn_layer(w_in, w_out, rng, np.float64)
        h_in = rng.standard_normal((30, w_in))
        d_out = rng.standard_normal((30, w_out))
        own, own_cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False)
        own_grads = nn.gcn_layer_backward(own_cache, d_out, params, adj, s, need_d_in=False)
        agg = ops.spmm_norm(adj, s, h_in)

        calls = []
        spmm = ops.spmm_norm
        monkeypatch.setattr(ops, "spmm_norm", lambda *a, **k: calls.append(1) or spmm(*a, **k))
        out, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, training=False, agg=agg)
        grads = nn.gcn_layer_backward(cache, d_out, params, adj, s, need_d_in=False)
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
        # an eval forward's (output, pre) handed to a training forward: the same
        # output, cache and stream position as computing the layer again
        adj, s = rand_graph
        w_in, w_out = LAYER_SHAPES[shape]
        params = nn.init_gcn_layer(w_in, w_out, ops.rng_stream(16, 0), np.float32, form)
        h_in = ops.rng_stream(16, 1).standard_normal((30, w_in)).astype(np.float32)
        agg = ops.spmm_norm(adj, s, h_in)
        h_eval, c_eval = nn.gcn_layer_forward(adj, s, h_in, params, None, False, agg=agg)
        rng, ref = ops.rng_stream(17, 0), ops.rng_stream(17, 0)
        fresh, c_fresh = nn.gcn_layer_forward(adj, s, h_in, params, ref, True, 0.5, agg=agg)

        for param in params.arrays():  # a layer that computed again would give NaN
            param[:] = np.nan
        monkeypatch.setattr(ops, "spmm_norm", None)
        out, cache = nn.gcn_layer_forward(adj, s, h_in, params, rng, True, 0.5, agg=agg,
                                          kept=(h_eval, c_eval.pre))
        np.testing.assert_array_equal(out, fresh)
        assert cache.pre is c_eval.pre and cache.agg is agg and cache.h_in is h_in
        np.testing.assert_array_equal(cache.keep, c_fresh.keep)
        assert cache.scale == c_fresh.scale and rng.random() == ref.random()

    def test_kept_result_needs_the_aggregate(self, rand_graph):
        adj, s = rand_graph
        params = nn.init_gcn_layer(4, 4, ops.rng_stream(18, 0), np.float64)
        h_in = np.ones((30, 4))
        h, c = nn.gcn_layer_forward(adj, s, h_in, params, None, False)
        with pytest.raises(ValueError, match="aggregate"):
            nn.gcn_layer_forward(adj, s, h_in, params, None, False, kept=(h, c.pre))


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
        out, _ = nn.mlp_forward(x, mlp, rng, training=False)
        loss, _ = ops.softmax_cross_entropy(out, np.zeros(7, dtype=np.int64))
        assert loss == pytest.approx(np.log(3), abs=1e-12)

    def test_single_layer_is_linear(self):
        rng = ops.rng_stream(9, 0)
        mlp = nn.init_mlp([5, 3], rng, np.float64)
        x = rng.standard_normal((4, 5))
        out, _ = nn.mlp_forward(x, mlp, rng, training=False)
        w, b = mlp.layers[0]
        np.testing.assert_allclose(out, x @ w + b, atol=1e-15)

    def test_gradients_match_finite_differences(self):
        rng = ops.rng_stream(10, 0)
        mlp = nn.init_mlp([5, 6, 3], rng, np.float64)
        x = rng.standard_normal((8, 5))
        labels = rng.integers(0, 3, 8)

        def loss():
            out, _ = nn.mlp_forward(x, mlp, rng, training=False)
            return ops.softmax_cross_entropy(out, labels)[0]

        out, cache = nn.mlp_forward(x, mlp, rng, training=False)
        _, d_logits = ops.softmax_cross_entropy(out, labels)
        grads, d_x = nn.mlp_backward(cache, d_logits, mlp)
        for (w, b), (dw, db) in zip(mlp.layers, grads):
            assert rel_err(central_diff(loss, w), dw) <= 1e-5
            assert rel_err(central_diff(loss, b), db) <= 1e-5
        assert rel_err(central_diff(loss, x), d_x) <= 1e-5

    def test_skipping_input_gradient_keeps_weight_gradients(self):
        rng = ops.rng_stream(13, 0)
        mlp = nn.init_mlp([5, 6, 3], rng, np.float64, dropout=0.3)
        x = rng.standard_normal((8, 5))
        out, cache = nn.mlp_forward(x, mlp, rng, training=True)
        d_out = rng.standard_normal(out.shape)
        full, d_x = nn.mlp_backward(cache, d_out, mlp)
        skipped, none = nn.mlp_backward(cache, d_out, mlp, need_d_in=False)
        assert d_x is not None and none is None
        for (dw, db), (sw, sb) in zip(full, skipped):
            np.testing.assert_array_equal(dw, sw)
            np.testing.assert_array_equal(db, sb)

    def test_kept_first_layer_replaces_its_arithmetic(self):
        mlp = nn.init_mlp([5, 6, 4, 3], ops.rng_stream(14, 0), np.float32, dropout=0.4)
        x = ops.rng_stream(14, 1).standard_normal((9, 5)).astype(np.float32)
        _, eval_cache = nn.mlp_forward(x, mlp, None, training=False)
        z, a = nn.mlp_first_layer(eval_cache)
        w, b = mlp.layers[0]
        np.testing.assert_array_equal(z, x @ w + b)
        np.testing.assert_array_equal(a, ops.relu(z))

        rng, ref = ops.rng_stream(15, 0), ops.rng_stream(15, 0)
        fresh, fresh_cache = nn.mlp_forward(x, mlp, ref, training=True)
        for param in mlp.layers[0]:  # a first layer that computed again would give NaN
            param[:] = np.nan
        out, cache = nn.mlp_forward(x, mlp, rng, training=True, kept=(z, a))
        np.testing.assert_array_equal(out, fresh)
        assert cache[0][0] is x and cache[0][1] is z
        for got, want in zip(cache, fresh_cache):
            for g, f in zip(got, want):
                np.testing.assert_array_equal(g, f)
        assert rng.random() == ref.random()

    def test_width_mismatch(self):
        rng = ops.rng_stream(11, 0)
        mlp = nn.init_mlp([5, 3], rng, np.float64)
        with pytest.raises(ValueError):
            nn.mlp_forward(np.zeros((2, 4)), mlp, rng, training=False)


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = [np.ones((3, 3))]
        state = nn.AdamState.for_params(p)
        before = p[0].copy()
        nn.adam_step(p, [np.zeros((3, 3))], state, lr=0.1)
        np.testing.assert_array_equal(p[0], before)

    def test_scalar_hand_value(self):
        p = [np.array([1.0])]
        state = nn.AdamState.for_params(p)
        nn.adam_step(p, [np.array([1.0])], state, lr=0.1)
        assert p[0][0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-15)

    def test_bit_identical_trajectories(self):
        def run():
            rng = ops.rng_stream(12, 0)
            p = [rng.standard_normal((4, 4))]
            state = nn.AdamState.for_params(p)
            for _ in range(20):
                g = [rng.standard_normal((4, 4))]
                nn.adam_step(p, g, state, lr=0.01)
            return p[0]

        np.testing.assert_array_equal(run(), run())

    def test_gradient_scale_keeps_sign_pattern(self):
        rng = ops.rng_stream(13, 0)
        g = rng.standard_normal((5, 5))
        deltas = []
        for c in (1.0, 100.0):
            p = [np.zeros((5, 5))]
            state = nn.AdamState.for_params(p)
            nn.adam_step(p, [c * g], state, lr=0.05)
            deltas.append(p[0].copy())
        np.testing.assert_array_equal(np.sign(deltas[0]), np.sign(deltas[1]))
        # first-step magnitude is bounded by lr for any gradient scale
        for d in deltas:
            assert np.abs(d).max() <= 0.05 + 1e-12

    def test_non_finite_gradient_fails_fast(self):
        p = [np.ones(2)]
        state = nn.AdamState.for_params(p)
        with pytest.raises(nn.NumericError):
            nn.adam_step(p, [np.array([1.0, np.nan])], state, lr=0.1)


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
        assert [sum(a.size for a in w.param_arrays()) for w in run.workers] == [64, 64]
        assert run.head.fusion is None
        assert run.head.encoding.table.size == 8
        # classifier 8 -> 7 -> 3
        assert sum(a.size for a in run.head.classifier.arrays()) == (8 * 7 + 7) + (7 * 3 + 3)
        assert run.param_count == 128 + 8 + 87

    def test_single_form_halves_layer_weights(self):
        g = synth_graph(n=30, classes=2, d_feat=3, p_in=0.3, p_out=0.1, signal=1.0, seed=7)
        cfg = engine.TrainConfig(variant="baseline", p=1, hidden=4, layers=1)
        dual = engine.build_run(g, dataclasses.replace(cfg, layer_form=nn.FORM_DUAL))
        single = engine.build_run(g, dataclasses.replace(cfg, layer_form=nn.FORM_SINGLE))
        # one 3 x 4 self-path weight fewer
        assert dual.param_count - single.param_count == 3 * 4
