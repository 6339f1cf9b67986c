import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicegcn
from slicegcn import engine, nn, ops
from slicegcn.engine import TrainConfig, _WorkerPool, auc_roc, evaluate
from slicegcn.graph import synth_graph


def auc_pair_counting(scores, labels):
    """O(n^2) oracle: concordant pairs count 1, ties count one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (len(pos) * len(neg))


class TestConfig:
    def test_baseline_forces_single_device(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="baseline", p=2)

    def test_rejects_bad_values(self):
        for kw in ({"p": 0}, {"epochs": -1}, {"dropout": 1.0}, {"precision": "f16"},
                   {"variant": "nope"}, {"threads": 0}):
            with pytest.raises(ValueError):
                TrainConfig(**kw)


class TestBuildRun:
    def test_baseline_shapes(self, small_graph):
        cfg = TrainConfig(variant="baseline", p=1, hidden=16, layers=2, seed=0)
        run = engine.build_run(small_graph, cfg)
        assert len(run.workers) == 1
        assert run.workers[0].w_in == small_graph.num_features
        assert run.workers[0].h_out == 16

    def test_fused_width_and_scaled_hidden(self):
        # 300 features, 3 devices, fusion on: input width 101, hidden 86
        cfg = TrainConfig(variant="slice_ffse", p=3, hidden=256, layers=3, seed=0)
        shapes = engine.derive_shapes(300, 18, cfg)
        assert shapes.w_in == 101
        assert shapes.h_out == 86
        assert shapes.classifier_sizes == (258, 256, 18)

    def test_same_seed_identical_parameters(self, small_graph):
        cfg = TrainConfig(variant="slice_ffse", p=2, hidden=8, layers=2, seed=3)
        a = engine.build_run(small_graph, cfg)
        b = engine.build_run(small_graph, cfg)
        for wa, wb in zip(a.workers, b.workers):
            for pa, pb in zip(wa.param_arrays(), wb.param_arrays()):
                np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(a.head.encoding.table, b.head.encoding.table)

    def test_more_devices_than_columns_rejected(self, small_graph):
        with pytest.raises(ValueError, match="feature columns"):
            engine.build_run(small_graph, TrainConfig(variant="slice", p=13))

    def test_param_count_matches_built_arrays(self, small_graph):
        for variant, p in (("baseline", 1), ("slice", 2), ("slice_se", 3),
                           ("slice_ff", 2), ("slice_ffse", 3)):
            cfg = TrainConfig(variant=variant, p=p, hidden=12, layers=2, seed=1)
            run = engine.build_run(small_graph, cfg)
            actual = sum(a.size for w in run.workers for a in w.param_arrays())
            actual += sum(a.size for a in run.head.classifier.arrays())
            if run.head.fusion is not None:
                actual += sum(a.size for a in run.head.fusion.arrays())
            if run.head.encoding is not None:
                actual += run.head.encoding.table.size
            assert actual == nn.count_params(run.shapes).total


class TestEpochForward:
    def test_zero_model_uniform_loss(self, small_graph):
        cfg = TrainConfig(variant="slice_se", p=2, hidden=8, layers=2, seed=0, precision="f64")
        run = engine.build_run(small_graph, cfg)
        for w in run.workers:
            for a in w.param_arrays():
                a[:] = 0
        for a in run.head.classifier.arrays():
            a[:] = 0
        run.head.encoding.table[:] = 0
        with _WorkerPool(1) as pool:
            loss, _, _ = engine.epoch_forward(run, training=False, pool=pool)
        assert loss == pytest.approx(np.log(small_graph.num_classes), abs=1e-12)

    def test_threaded_matches_sequential_bitwise(self, small_graph):
        cfg = TrainConfig(variant="slice", p=2, hidden=16, layers=2, seed=4, precision="f32")
        run_t = engine.build_run(small_graph, cfg)
        run_s = engine.build_run(small_graph, cfg)
        with _WorkerPool(2) as pt, _WorkerPool(1) as ps:
            lt, logits_t, _ = engine.epoch_forward(run_t, training=True, pool=pt)
            ls, logits_s, _ = engine.epoch_forward(run_s, training=True, pool=ps)
        assert lt == ls
        np.testing.assert_array_equal(logits_t, logits_s)

    def test_column_block_isolation(self, small_graph):
        # perturbing worker 1 leaves other devices' representation columns alone
        cfg = TrainConfig(variant="slice", p=3, hidden=12, layers=2, seed=5, precision="f64")
        run = engine.build_run(small_graph, cfg)
        with _WorkerPool(1) as pool:
            _, _, ctx0 = engine.epoch_forward(run, training=False, pool=pool)
            for a in run.workers[1].param_arrays():
                a += 0.37
            _, _, ctx1 = engine.epoch_forward(run, training=False, pool=pool)
        h_out = run.shapes.h_out
        before, after = ctx0.representation, ctx1.representation
        changed = [
            not np.array_equal(before[:, i * h_out : (i + 1) * h_out],
                               after[:, i * h_out : (i + 1) * h_out])
            for i in range(3)
        ]
        assert changed == [False, True, False]


class TestEpochBackward:
    def test_zero_upstream_zeroes_everything(self, small_graph):
        cfg = TrainConfig(variant="slice_ffse", p=2, hidden=8, layers=2, seed=6, precision="f64")
        run = engine.build_run(small_graph, cfg)
        with _WorkerPool(1) as pool:
            _, _, ctx = engine.epoch_forward(run, training=True, pool=pool)
            ctx.d_logits[:] = 0
            grads = engine.epoch_backward(run, ctx, pool)
        for flat in (w.grads for w in run.workers):
            assert all(not g.any() for g in flat)
        assert all(not g.any() for g in grads.classifier)
        assert all(not g.any() for g in grads.fusion)
        assert not grads.encoding.any()

    def test_worker_gradient_ignores_other_blocks(self, small_graph):
        # zeroing worker 1's columns of the gathered gradient leaves worker
        # 0's parameter gradients unchanged (column blocks are independent)
        cfg = TrainConfig(variant="slice", p=2, hidden=8, layers=2, seed=7, precision="f64")
        run = engine.build_run(small_graph, cfg)
        h_out = run.shapes.h_out
        adj, s = run.graph.adj, run.norm_scale
        with _WorkerPool(1) as pool:
            _, _, ctx = engine.epoch_forward(run, training=True, pool=pool)
        _, d_rep = nn.mlp_backward(ctx.cls_cache, ctx.d_logits, run.head.classifier)
        run.workers[0].backward(adj, s, d_rep[:, :h_out], need_dx=False)
        keep = [g.copy() for g in run.workers[0].grads]
        zeroed = d_rep.copy()
        zeroed[:, h_out:] = 0  # worker 1's block
        run.workers[0].backward(adj, s, zeroed[:, :h_out], need_dx=False)
        for a, b in zip(keep, run.workers[0].grads):
            np.testing.assert_array_equal(a, b)


class TestTrain:
    def test_zero_epochs_initial_evaluation_only(self, small_graph):
        cfg = TrainConfig(variant="slice", p=2, epochs=0, hidden=8, layers=2, seed=1)
        summary, reports = engine.train(small_graph, cfg)
        assert reports == []
        assert summary.best_epoch == -1
        assert 0.0 <= summary.best_val <= 1.0
        assert summary.throughput_eps is None

    def test_zero_lr_freezes_model(self, small_graph):
        cfg = TrainConfig(variant="slice", p=2, epochs=4, hidden=8, layers=2,
                          lr=0.0, dropout=0.0, seed=2, precision="f64")
        _, reports = engine.train(small_graph, cfg)
        losses = {r.loss for r in reports}
        assert len(losses) == 1

    @pytest.mark.parametrize("variant,p", [("baseline", 1), ("slice", 2), ("slice_se", 2),
                                           ("slice_ff", 2), ("slice_ffse", 2)])
    def test_loss_decreases_early(self, variant, p):
        g = synth_graph(n=400, classes=2, d_feat=16, p_in=0.05, p_out=0.005, signal=1.0, seed=1)
        cfg = TrainConfig(variant=variant, p=p, epochs=10, hidden=64, layers=2,
                          lr=5e-3, seed=1, precision="f32")
        _, reports = engine.train(g, cfg)
        assert reports[-1].loss < reports[0].loss

    def test_schedule_independent_reports(self, small_graph):
        cfg_t = TrainConfig(variant="slice", p=2, epochs=6, hidden=16, layers=2, seed=8)
        cfg_s = TrainConfig(variant="slice", p=2, epochs=6, hidden=16, layers=2, seed=8, threads=1)
        _, rep_t = engine.train(small_graph, cfg_t)
        _, rep_s = engine.train(small_graph, cfg_s)
        for a, b in zip(rep_t, rep_s):
            assert (a.epoch, a.lr, a.loss, a.train_metric, a.val_metric, a.test_metric) == (
                b.epoch, b.lr, b.loss, b.train_metric, b.val_metric, b.test_metric)

    def test_test_metric_taken_at_best_val_epoch(self, small_graph):
        cfg = TrainConfig(variant="baseline", epochs=8, hidden=16, layers=2, seed=9)
        summary, reports = engine.train(small_graph, cfg)
        best = max(range(len(reports)), key=lambda i: reports[i].val_metric)
        assert summary.best_epoch == best
        assert summary.best_val == reports[best].val_metric
        assert summary.test_at_best_val == reports[best].test_metric

    def test_parameter_count_decreases_with_devices(self):
        counts = []
        for variant, p in (("baseline", 1), ("slice", 2), ("slice", 3)):
            cfg = TrainConfig(variant=variant, p=p, hidden=256, layers=3)
            counts.append(nn.count_params(engine.derive_shapes(300, 18, cfg)).total)
        assert counts[2] < counts[1] < counts[0]

    def test_aggregation_only_layer_form(self, small_graph):
        cfg = TrainConfig(variant="slice", p=2, epochs=5, hidden=16, layers=2,
                          layer_form="eq1", seed=3)
        summary, reports = engine.train(small_graph, cfg)
        assert all(np.isfinite(r.loss) for r in reports)
        assert reports[-1].loss < reports[0].loss
        # half the layer weights of the dual form
        dual = engine.derive_shapes(12, 3, TrainConfig(variant="slice", p=2,
                                                       hidden=16, layers=2))
        assert summary.param_count < nn.count_params(dual).total

    def test_reported_throughput_matches_stopwatch(self):
        g = synth_graph(n=20000, classes=3, d_feat=32, p_in=3e-4, p_out=1e-4,
                        signal=1.0, seed=3)
        cfg = TrainConfig(variant="slice", p=2, epochs=10, hidden=64, layers=2, seed=1)
        t0 = time.perf_counter()
        summary, _ = engine.train(g, cfg)
        external = cfg.epochs / (time.perf_counter() - t0)
        assert summary.throughput_eps == pytest.approx(external, rel=0.01)

    def test_eval_forward_numeric_error_names_epoch(self, small_graph, monkeypatch):
        forward, evals = engine.epoch_forward, []

        def failing_eval(run, training, pool, **kw):
            if not training:
                evals.append(1)
                if len(evals) == 2:
                    raise nn.NumericError("non-finite training loss (nan)")
            return forward(run, training, pool, **kw)

        monkeypatch.setattr(engine, "epoch_forward", failing_eval)
        cfg = TrainConfig(variant="slice", p=2, epochs=3, hidden=8, layers=2, seed=1)
        with pytest.raises(nn.NumericError, match="^epoch 1: non-finite training loss"):
            engine.train(small_graph, cfg)


def _kept(run) -> list:
    """The kept layer-0 results: one per device, then the head's fusion layer 0."""
    return [w.layer0 for w in run.workers] + [run.head.fusion_layer0]


class TestLayer0Reuse:
    """The eval forward hands layer 0 (and fusion layer 0) to the next training forward."""

    @staticmethod
    def _recomputing_reference(graph, cfg) -> list:
        """engine.train's loop with nothing kept between passes."""
        run = engine.build_run(graph, cfg)
        rows = []
        with _WorkerPool(1) as pool:
            for epoch in range(cfg.epochs):
                loss, _, ctx = engine.epoch_forward(run, training=True, pool=pool)
                grads = engine.epoch_backward(run, ctx, pool)
                lr = nn.cosine_lr(epoch, cfg.epochs, cfg.lr)
                engine.apply_updates(run, grads, lr, pool)
                _, logits, _ = engine.epoch_forward(run, training=False, pool=pool)
                assert not any(k is not None for k in _kept(run))
                rows.append((epoch, lr, loss, *engine._metrics(run, logits)))
        return rows

    @pytest.mark.parametrize("variant", ["slice", "slice_se", "slice_ffse"])
    def test_reuse_matches_recomputing_reference(self, small_graph, monkeypatch, variant):
        runs, kept_after = [], []
        build = engine.build_run
        monkeypatch.setattr(engine, "build_run", lambda g, c: runs.append(build(g, c)) or runs[-1])
        cfg = TrainConfig(variant=variant, p=2, epochs=4, hidden=16, layers=2, seed=6)
        _, reports = engine.train(
            small_graph, cfg, on_epoch=lambda report, logits: kept_after.append(_kept(runs[-1]))
        )
        _, sequential = engine.train(small_graph, dataclasses.replace(cfg, threads=1))

        def rows(reps):
            return [(r.epoch, r.lr, r.loss, r.train_metric, r.val_metric, r.test_metric) for r in reps]

        # bit for bit: floats compare exactly
        assert rows(reports) == self._recomputing_reference(small_graph, cfg) == rows(sequential)
        # every eval but the last kept its layer 0: on the devices in direct
        # mode, on the head in fusion mode; afterwards nothing is held
        held = [[k is not None for k in kept] for kept in kept_after]
        expect = [False] * cfg.p + [True] if cfg.use_ff else [True] * cfg.p + [False]
        assert held[:-1] == [expect] * (cfg.epochs - 1)
        assert not any(held[-1]) and not any(k is not None for k in _kept(runs[0]))

    @pytest.mark.parametrize("variant", ["slice", "slice_ffse"])
    def test_update_drops_kept_result(self, small_graph, variant):
        # eval forward (keep) -> parameter update -> training forward: the
        # training forward recomputes layer 0 from the updated parameters
        cfg = TrainConfig(variant=variant, p=2, epochs=2, hidden=16, layers=2, seed=7)
        logits, losses = [], []
        for keep in (True, False):
            run = engine.build_run(small_graph, cfg)
            with _WorkerPool(2) as pool:
                _, _, ctx = engine.epoch_forward(run, training=True, pool=pool)
                grads = engine.epoch_backward(run, ctx, pool)
                engine.epoch_forward(run, training=False, pool=pool, keep=keep)
                assert any(k is not None for k in _kept(run)) == keep
                engine.apply_updates(run, grads, 1e-2, pool)
                assert not any(k is not None for k in _kept(run))
                loss, out, _ = engine.epoch_forward(run, training=True, pool=pool)
            losses.append(loss)
            logits.append(out)
        assert losses[0] == losses[1]
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_kept_result_used_by_the_training_forward(self, small_graph):
        cfg = TrainConfig(variant="slice", p=2, epochs=2, hidden=16, layers=2, seed=7)
        run = engine.build_run(small_graph, cfg)
        with _WorkerPool(1) as pool:
            engine.epoch_forward(run, training=False, pool=pool, keep=True)
            kept = [w.layer0 for w in run.workers]
            engine.epoch_forward(run, training=True, pool=pool)
        for w, (_, pre) in zip(run.workers, kept):
            assert w.cache[0].pre is pre and w.layer0 is None

    def test_only_eval_forwards_keep(self, small_graph):
        run = engine.build_run(small_graph, TrainConfig(variant="slice_ff", p=2, hidden=8))
        with _WorkerPool(1) as pool, pytest.raises(ValueError, match="eval forward"):
            engine.epoch_forward(run, training=True, pool=pool, keep=True)
        w, x = run.workers[0], run.features
        with pytest.raises(ValueError, match="fixed input"):
            w.forward(small_graph.adj, run.norm_scale, x, False, 0.5, keep=True)


class TestEvaluate:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 1])
        logits = np.eye(3)[labels] * 10.0
        assert evaluate(logits, labels, np.ones(4, bool), 3) == 1.0

    def test_binary_uses_ranking(self):
        labels = np.array([1, 0, 1, 0])
        logits = np.array([[0.0, 3.0], [0.0, 2.0], [0.0, 1.0], [0.0, 0.0]])
        # scores rank pos, neg, pos, neg -> 3 of 4 pairs concordant
        assert evaluate(logits, labels, np.ones(4, bool), 2) == pytest.approx(0.75)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(np.zeros((2, 3)), np.zeros(2, dtype=int), np.zeros(2, bool), 3)


class TestAucRoc:
    def test_rank_extremes(self):
        labels = np.array([1, 1, 0, 0])
        assert auc_roc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 1.0
        assert auc_roc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 0.0

    def test_hand_counted_case(self):
        scores = np.array([0.8, 0.4, 0.6, 0.2])
        labels = np.array([1, 1, 0, 0])
        assert auc_roc(scores, labels) == pytest.approx(0.75)

    def test_all_tied_is_half(self):
        assert auc_roc(np.ones(10), np.array([1] * 4 + [0] * 6)) == 0.5

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(40)
        labels = (rng.random(40) < 0.4).astype(int)
        labels[:2] = [0, 1]
        a = auc_roc(scores, labels)
        b = auc_roc(np.tanh(scores) * 5 + 2, labels)
        assert a == pytest.approx(b, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 50))
        scores = rng.integers(0, 6, n).astype(float)  # coarse values force ties
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        assert auc_roc(scores, labels) == pytest.approx(
            auc_pair_counting(scores, labels), abs=1e-12
        )

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc_roc(np.array([0.1, 0.2]), np.array([1, 1]))


class TestInputAggregate:
    @staticmethod
    def _spmm_calls_per_epoch(monkeypatch, graph, variant) -> list:
        calls = []
        spmm = ops.spmm_norm
        monkeypatch.setattr(ops, "spmm_norm", lambda *a, **k: calls.append(1) or spmm(*a, **k))
        per_epoch = []
        cfg = TrainConfig(variant=variant, p=2, epochs=4, hidden=16, layers=2, seed=1)
        engine.train(graph, cfg, on_epoch=lambda report, logits: per_epoch.append(len(calls) - sum(per_epoch)))
        return per_epoch

    def test_fixed_slice_aggregated_once(self, small_graph, monkeypatch):
        # per device: Â·X in the first forward only, then layer 1 in the
        # training forward, in backward and in the eval forward
        assert self._spmm_calls_per_epoch(monkeypatch, small_graph, "slice") == [2 * 4] + [2 * 3] * 3

    def test_fused_input_aggregated_every_pass(self, small_graph, monkeypatch):
        # the fusion output changes every epoch: per device, both layers in
        # the training forward, in backward and in the eval forward
        assert self._spmm_calls_per_epoch(monkeypatch, small_graph, "slice_ff") == [2 * 6] * 4

    def test_reused_aggregate_equals_a_fresh_one(self, small_graph):
        cfg = TrainConfig(variant="slice_se", p=2, epochs=4, hidden=16, layers=2, seed=3)
        run = engine.build_run(small_graph, cfg)
        assert all(w.input_agg is None for w in run.workers)
        with _WorkerPool(2) as pool:
            for _ in range(cfg.epochs):
                _, _, ctx = engine.epoch_forward(run, training=True, pool=pool)
                engine.apply_updates(run, engine.epoch_backward(run, ctx, pool), 1e-2, pool)
                engine.epoch_forward(run, training=False, pool=pool)
        adj, s = small_graph.adj, run.norm_scale
        for w, x in zip(run.workers, run.slices):
            np.testing.assert_array_equal(w.input_agg, ops.spmm_norm(adj, s, x))
            # layer 0 widens (6 -> 8), so reuse keeps the aggregate-first order bit for bit
            reused = w.forward(adj, s, x, False, cfg.dropout, fixed_input=True)
            fresh = w.forward(adj, s, x, False, cfg.dropout)
            np.testing.assert_array_equal(reused, fresh)


class TestNumpyOnly:
    def test_training_loads_no_scipy(self):
        # a fresh interpreter, so no other test's imports count
        script = (
            "import sys\n"
            "import slicegcn\n"
            "g = slicegcn.synth_graph(n=60, classes=3, d_feat=8, p_in=0.2, p_out=0.02, signal=1.0, seed=0)\n"
            "slicegcn.train(g, slicegcn.TrainConfig(variant='slice_ffse', p=2, epochs=1, hidden=8))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(slicegcn.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
