import dataclasses
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicegcn
from slicegcn import blas, engine, nn, ops, slicing
from slicegcn.engine import TrainConfig, auc_roc, evaluate
from slicegcn.graph import TEST, TRAIN, VAL, degree_norms, synth_graph


def auc_pair_counting(scores, labels):
    """O(n^2) oracle: concordant pairs count 1, ties count one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return wins / (len(pos) * len(neg))


def _reference_d_rep(run):
    """The classifier's input gradient, from its backward over copies of the
    training forward's cache, in a fresh workspace and into new arrays: the
    run's own backward still finds its forward's arrays."""
    cls_cache, _, d_logits = run.head.cache
    cache = [tuple(a.copy() if isinstance(a, np.ndarray) else a for a in layer) for layer in cls_cache]
    classifier = run.head.classifier
    out = [np.empty_like(a) for a in classifier.group.params]
    _, d_rep = nn.mlp_backward(cache, d_logits, classifier, out=out, d_in=np.empty_like(_representation(run)))
    return d_rep


def _representation(run):
    """The gathered representation, which every forward writes into the head's workspace."""
    shape = (run.graph.num_nodes, run.head.classifier.layers[0][0].shape[0])
    return run.head.cls_ws.get("rep", shape, run.features.dtype)


class TestConfig:
    def test_baseline_forces_single_device(self):
        with pytest.raises(ValueError):
            TrainConfig(variant="baseline", p=2)

    def test_rejects_bad_values(self):
        for kw in ({"p": 0}, {"epochs": -1}, {"dropout": 1.0}, {"precision": "f16"},
                   {"variant": "nope"}, {"threads": 0}, {"lr": float("nan")}, {"lr": float("inf")},
                   {"lr": -1.0}, {"slice_scale": float("nan")}, {"slice_scale": float("inf")},
                   {"slice_scale": 0.0}, {"slice_scale": -1.0}):
            with pytest.raises(ValueError):
                TrainConfig(**kw)


def _layer_shapes(run) -> list:
    """(w_in, w_out) of each device's layers, one list per device."""
    return [[layer.w_agg.shape for layer in w.layers] for w in run.workers]


class TestBuildRun:
    def test_baseline_shapes(self, wide_graph):
        cfg = TrainConfig(variant="baseline", p=1, hidden=16, layers=2, seed=0)
        run = engine.build_run(wide_graph, cfg)
        assert len(run.workers) == 1
        assert _layer_shapes(run) == [[(300, 16), (16, 16)]]

    def test_fused_width_and_scaled_hidden(self, wide_graph):
        # 300 features, 3 devices, fusion on: input width 101, hidden 86
        cfg = TrainConfig(variant="slice_ffse", p=3, hidden=256, layers=3, seed=0)
        run = engine.build_run(wide_graph, cfg)
        assert _layer_shapes(run) == [[(101, 86), (86, 86), (86, 86)]] * 3
        assert [w.shape for w, _ in run.head.classifier.layers] == [(258, 256), (256, 18)]

    def test_same_seed_identical_parameters(self, wide_graph):
        cfg = TrainConfig(variant="slice_ffse", p=2, hidden=8, layers=2, seed=3)
        a = engine.build_run(wide_graph, cfg)
        b = engine.build_run(wide_graph, cfg)
        for wa, wb in zip(a.workers, b.workers):
            for pa, pb in zip(wa.group.params, wb.group.params):
                np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(a.head.encoding.table, b.head.encoding.table)

    def test_every_parameter_is_a_view_of_its_group(self, wide_graph):
        cfg = TrainConfig(variant="slice_ffse", p=2, hidden=8, layers=2, seed=3)
        run = engine.build_run(wide_graph, cfg)
        head = run.head
        cls_arrays = [a for layer in head.classifier.layers for a in layer]
        fusion_arrays = [a for layer in head.fusion.layers for a in layer]
        owners = [(w.group, [a for layer in w.layers for a in layer.arrays()]) for w in run.workers]
        owners += [(head.classifier.group, cls_arrays), (head.encoding.group, [head.encoding.table]),
                   (head.fusion.group, fusion_arrays)]
        assert [g for g, _ in owners] == [w.group for w in run.workers] + head.groups()
        for group, arrays in owners:
            assert all(np.shares_memory(a, group.param) for a in arrays)
            assert all(np.shares_memory(g, group.grad) for g in group.grads)
            assert [a.shape for a in arrays] == [g.shape for g in group.grads]
            assert sum(a.size for a in arrays) == group.size
        assert run.param_count == sum(group.size for group, _ in owners)

    def test_more_devices_than_columns_rejected(self, wide_graph):
        with pytest.raises(ValueError, match="feature columns"):
            engine.build_run(wide_graph, TrainConfig(variant="slice", p=301))

    def test_norm_scale_consistent_with_degrees(self, small_graph):
        for precision in ("f32", "f64"):
            run = engine.build_run(small_graph, TrainConfig(precision=precision))
            assert run.norm_scale.dtype == run.config.dtype
            np.testing.assert_array_equal(
                run.norm_scale, degree_norms(small_graph.adj).astype(run.config.dtype)
            )


    def test_split_indices_held_by_the_run(self, small_graph):
        run = engine.build_run(small_graph, TrainConfig())
        for idx, tag in ((run.train_idx, TRAIN), (run.val_idx, VAL), (run.test_idx, TEST)):
            np.testing.assert_array_equal(idx, np.flatnonzero(small_graph.split == tag))


class TestEpochForward:
    def test_zero_model_uniform_loss(self, small_graph):
        cfg = TrainConfig(variant="slice_se", p=2, hidden=8, layers=2, seed=0, precision="f64")
        run = engine.build_run(small_graph, cfg)
        for w in run.workers:
            for a in w.group.params:
                a[:] = 0
        run.head.classifier.group.param[:] = 0
        run.head.encoding.table[:] = 0
        loss, _ = engine.epoch_forward(run, training=False)
        assert loss == pytest.approx(np.log(small_graph.num_classes), abs=1e-12)

    def test_threaded_matches_sequential_bitwise(self, small_graph, pooled):
        cfg = TrainConfig(variant="slice", p=2, hidden=16, layers=2, seed=4, precision="f32")
        run_t = engine.build_run(small_graph, dataclasses.replace(cfg, threads=2))
        run_s = engine.build_run(small_graph, dataclasses.replace(cfg, threads=1))
        with run_t.pool, run_s.pool:
            lt, logits_t = engine.epoch_forward(run_t, training=True)
            ls, logits_s = engine.epoch_forward(run_s, training=True)
        assert pooled
        assert lt == ls
        np.testing.assert_array_equal(logits_t, logits_s)

    def test_column_block_isolation(self, small_graph):
        # perturbing worker 1 leaves other devices' representation columns alone
        cfg = TrainConfig(variant="slice", p=3, hidden=12, layers=2, seed=5, precision="f64")
        run = engine.build_run(small_graph, cfg)
        engine.epoch_forward(run, training=False)
        before = _representation(run).copy()  # the next forward rewrites the head's array
        for a in run.workers[1].group.params:
            a += 0.37
        engine.epoch_forward(run, training=False)
        after = _representation(run)
        h_out = before.shape[1] // 3
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
        for group in [w.group for w in run.workers] + run.head.groups():
            group.grad[:] = np.nan  # every element must be written
        engine.epoch_forward(run, training=True)
        _, _, d_logits = run.head.cache
        d_logits[:] = 0
        engine.epoch_backward(run, 1e-2)
        for flat in (w.group.grads for w in run.workers):
            assert all(not g.any() for g in flat)
        assert all(not g.any() for g in run.head.classifier.group.grads)
        assert all(not g.any() for g in run.head.fusion.group.grads)
        assert not run.head.encoding.group.grads[0].any()

    def test_worker_gradient_ignores_other_blocks(self, small_graph):
        # zeroing worker 1's columns of the gathered gradient leaves worker
        # 0's parameter gradients unchanged (column blocks are independent);
        # a backward consumes its forward, so each backward gets a run of its own
        cfg = TrainConfig(variant="slice", p=2, hidden=8, layers=2, seed=7, precision="f64")
        grads = []
        for zero_other_block in (False, True):
            run = engine.build_run(small_graph, cfg)
            h_out = run.workers[0].layers[-1].bias.size
            engine.epoch_forward(run, training=True)
            d_rep = _reference_d_rep(run)
            if zero_other_block:
                d_rep[:, h_out:] = 0  # worker 1's block
            run.workers[0].backward(run.graph.adj, run.norm_scale, d_rep[:, :h_out], need_dx=False)
            grads.append(run.workers[0].group.grads)
        for a, b in zip(*grads):
            np.testing.assert_array_equal(a, b)


class TestWorkerPool:
    @staticmethod
    def _threads(pool, n):
        return pool.run(lambda i: threading.get_ident(), list(range(n)))

    def test_item_zero_runs_on_the_calling_thread(self):
        with ops.Pool(threads=3) as pool:
            idents = self._threads(pool, 3)
        assert idents[0] == threading.get_ident()
        assert threading.get_ident() not in idents[1:]

    def test_one_thread_runs_everything_inline(self):
        with ops.Pool(threads=1) as pool:
            assert self._threads(pool, 3) == [threading.get_ident()] * 3

    def test_more_items_than_threads(self):
        # three devices on two threads: the master and one pool thread
        with ops.Pool(threads=2) as pool:
            idents = self._threads(pool, 3)
            assert pool.run(lambda i: i * i, [0, 1, 2]) == [0, 1, 4]
        assert idents[0] == threading.get_ident()
        assert idents[1] == idents[2] != idents[0]

    def test_results_in_item_order(self):
        def task(i):
            time.sleep(0.01 * (4 - i))  # later items finish first
            return i

        with ops.Pool(threads=4) as pool:
            assert pool.run(task, [0, 1, 2, 3]) == [0, 1, 2, 3]

    def test_a_round_started_on_a_pool_thread_raises(self):
        # item 1 runs on the pool's one thread, where a round of its own pool
        # could wait for that thread; the master may start one
        with ops.Pool(threads=2) as pool:
            with pytest.raises(RuntimeError, match="own pool"):
                pool.run(lambda i: pool.run(lambda j: j, [0, 1]), [0, 1])
            assert pool.run(lambda i: pool.run(lambda j: i + j, [0, 1]) if i == 0 else i, [0, 1]) == [[0, 1], 1]
            with ops.Pool(threads=2) as other:
                assert pool.run(lambda i: other.run(lambda j: i + j, [0, 1]), [0, 1]) == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("failing", [0, 1])
    def test_failure_raised_after_every_task_finished(self, failing):
        finished = []

        def task(i):
            if i == failing:
                raise RuntimeError(f"task {i}")
            time.sleep(0.2)
            finished.append(i)
            return i

        with ops.Pool(threads=3) as pool:
            with pytest.raises(RuntimeError, match=f"task {failing}"):
                pool.run(task, [0, 1, 2])
            # when the failure reaches the caller, no task is still running
            assert sorted(finished) == sorted({0, 1, 2} - {failing})


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

    def test_schedule_independent_reports(self, small_graph, pooled):
        cfg_t = TrainConfig(variant="slice", p=2, epochs=6, hidden=16, layers=2, seed=8)
        cfg_s = TrainConfig(variant="slice", p=2, epochs=6, hidden=16, layers=2, seed=8, threads=1)
        _, rep_t = engine.train(small_graph, cfg_t)
        assert pooled
        _, rep_s = engine.train(small_graph, cfg_s)
        for a, b in zip(rep_t, rep_s):
            assert (a.epoch, a.lr, a.loss, a.train_metric, a.val_metric, a.test_metric) == (
                b.epoch, b.lr, b.loss, b.train_metric, b.val_metric, b.test_metric)

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_thread_count_does_not_change_results(self, small_graph, threads, pooled):
        # p=3: fewer threads than devices, one per device, and one more
        cfg = TrainConfig(variant="slice_ffse", p=3, epochs=4, hidden=12, layers=2, seed=8)

        def rows(c):
            summary, reports = engine.train(small_graph, c)
            return summary.param_count, [
                (r.epoch, r.lr, r.loss, r.train_metric, r.val_metric, r.test_metric) for r in reports
            ]

        threaded = rows(dataclasses.replace(cfg, threads=threads))
        assert bool(pooled) == (threads > 1)
        assert threaded == rows(dataclasses.replace(cfg, threads=1))

    def test_pool_calls_and_submissions_per_epoch(self, tiny_graph, monkeypatch, pooled):
        # training forward, backward (each device steps in its task), eval
        # forward: three pool calls per epoch, each handing off p - 1 tasks;
        # on 30 nodes no product reaches two blocks of `ops.SPLIT_MIN_WIDTH`
        # rows or columns, so every pool call is a device round
        run = ops.Pool.run
        calls = []

        def counting_run(pool, fn, items):
            calls.append(len(items))
            return run(pool, fn, items)

        monkeypatch.setattr(ops.Pool, "run", counting_run)
        epochs, p = 3, 2
        engine.train(tiny_graph, TrainConfig(variant="slice_ffse", p=p, epochs=epochs, hidden=8, seed=1))
        assert calls == [p] * 3 * epochs
        assert len(pooled) == (p - 1) * 3 * epochs
        calls.clear()
        pooled.clear()
        engine.train(tiny_graph, TrainConfig(variant="baseline", epochs=epochs, hidden=8, seed=1))
        assert calls == [1] * 3 * epochs and pooled == []

    def test_small_run_submits_no_task(self, submitted):
        # the CLI's default graph: one device's forward is far below
        # ops.MIN_TASK_WORK, so every round runs on the master
        g = synth_graph(n=400, classes=3, d_feat=16, p_in=0.1, p_out=0.01, signal=1.0, seed=0)
        engine.train(g, TrainConfig(variant="slice_ffse", p=2, epochs=3, seed=1))
        assert submitted == []

    @pytest.mark.parametrize("name,n,nnz,widths,to_pool", [
        # the benchmark's sliced cells (p=2, dual form, hidden 64/256/128):
        # fused input 9, 718 (Cora's 1433 features) and a direct slice of 16
        ("small_default", 400, 6_400, [9, 32, 32], False),
        ("wide_features", 2708, 10_000, [718, 128, 128], True),
        ("large_sparse", 50_000, 400_000, [16, 64, 64], True),
        # and their baseline cells (p=1): the whole features and hidden width
        ("small_default", 400, 6_400, [16, 64, 64], False),
        ("wide_features", 2708, 10_000, [1433, 256, 256], True),
        ("large_sparse", 50_000, 400_000, [32, 128, 128], True),
    ])
    def test_pool_threshold_splits_the_benchmark_shapes(self, name, n, nnz, widths, to_pool):
        assert (engine.forward_work(n, nnz, widths, dual=True) >= ops.MIN_TASK_WORK) == to_pool

    def test_test_metric_taken_at_best_val_epoch(self, small_graph):
        cfg = TrainConfig(variant="baseline", epochs=8, hidden=16, layers=2, seed=9)
        summary, reports = engine.train(small_graph, cfg)
        best = max(range(len(reports)), key=lambda i: reports[i].val_metric)
        assert summary.best_epoch == best
        assert summary.best_val == reports[best].val_metric
        assert summary.test_at_best_val == reports[best].test_metric

    def test_parameter_count_decreases_with_devices(self, wide_graph):
        counts = []
        for variant, p in (("baseline", 1), ("slice", 2), ("slice", 3)):
            cfg = TrainConfig(variant=variant, p=p, hidden=256, layers=3)
            counts.append(engine.build_run(wide_graph, cfg).param_count)
        assert counts[2] < counts[1] < counts[0]

    def test_aggregation_only_layer_form(self, wide_graph):
        # without dropout, so that the falling loss does not rest on the masks drawn
        cfg = TrainConfig(variant="slice", p=2, epochs=5, hidden=16, layers=2,
                          layer_form="eq1", dropout=0.0, seed=3)
        summary, reports = engine.train(wide_graph, cfg)
        assert all(np.isfinite(r.loss) for r in reports)
        assert reports[-1].loss < reports[0].loss
        # half the layer weights of the dual form
        dual = engine.build_run(wide_graph, dataclasses.replace(cfg, layer_form="eq6"))
        assert summary.param_count < dual.param_count

    @pytest.mark.parametrize("variant,rounds", [("baseline", 5), ("slice", 5), ("slice_se", 5),
                                                ("slice_ff", 6), ("slice_ffse", 6)])
    def test_master_device_rounds_per_epoch(self, small_graph, monkeypatch, variant, rounds):
        # a pool call is one round in when its items carry an array, and one
        # round out when its results do
        run, counted = ops.Pool.run, []

        def carries_array(xs):
            return any(isinstance(v, np.ndarray) for x in xs for v in (x if isinstance(x, tuple) else (x,)))

        def counting_run(pool, fn, items):
            results = run(pool, fn, items)
            counted.append(carries_array(items) + carries_array(results))
            return results

        monkeypatch.setattr(ops.Pool, "run", counting_run)
        epochs = 3
        p = 1 if variant == "baseline" else 2
        engine.train(small_graph, TrainConfig(variant=variant, p=p, epochs=epochs, hidden=8, seed=1))
        assert sum(counted) == rounds * epochs

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

        def failing_eval(run, training, **kw):
            if not training:
                evals.append(1)
                if len(evals) == 2:
                    raise nn.NumericError("non-finite training loss (nan)")
            return forward(run, training, **kw)

        monkeypatch.setattr(engine, "epoch_forward", failing_eval)
        cfg = TrainConfig(variant="slice", p=2, epochs=3, hidden=8, layers=2, seed=1)
        with pytest.raises(nn.NumericError, match="^epoch 1: non-finite training loss"):
            engine.train(small_graph, cfg)

    def test_no_pool_thread_outlives_the_run(self, small_graph, monkeypatch, pooled):
        # the run's pool threads end when train returns, and when it raises
        # after its rounds have started threads
        cfg = TrainConfig(variant="slice", p=3, epochs=3, hidden=12, seed=1)
        before = set(threading.enumerate())
        engine.train(small_graph, cfg)
        assert pooled and set(threading.enumerate()) == before
        forward, calls = engine.epoch_forward, []

        def failing_forward(run, training, **kw):
            calls.append(1)
            if len(calls) == 3:  # epoch 1's training forward
                raise nn.NumericError("non-finite training loss (nan)")
            return forward(run, training, **kw)

        monkeypatch.setattr(engine, "epoch_forward", failing_forward)
        pooled.clear()
        with pytest.raises(nn.NumericError, match="^epoch 1: "):
            engine.train(small_graph, cfg)
        assert pooled and set(threading.enumerate()) == before


@pytest.fixture
def two_blas_threads():
    """The loaded OpenBLAS at 2 threads for the test, and back after it."""
    if blas.threads() is None:
        pytest.skip("no OpenBLAS with a thread-count control is loaded")
    with blas.limit_threads(2):
        yield


class TestBlasThreads:
    """Every run holds the loaded OpenBLAS at one thread, and gives the
    caller's count back."""

    @pytest.mark.parametrize("variant,p,inside", [("slice_ffse", 2, 1), ("slice", 2, 1), ("baseline", 1, 1)])
    def test_count_during_and_after_the_run(self, small_graph, two_blas_threads, pooled, variant, p, inside):
        seen = []
        cfg = TrainConfig(variant=variant, p=p, epochs=2, hidden=8, seed=1)
        engine.train(small_graph, cfg, on_epoch=lambda report, logits: seen.append(blas.threads()))
        assert seen == [inside] * 2
        assert blas.threads() == 2

    def test_count_restored_after_a_numeric_error(self, small_graph, two_blas_threads, monkeypatch):
        def failing_backward(*args):
            raise nn.NumericError("non-finite gradient")

        monkeypatch.setattr(engine, "epoch_backward", failing_backward)
        with pytest.raises(nn.NumericError):
            engine.train(small_graph, TrainConfig(variant="slice", p=2, epochs=2, hidden=8, seed=1))
        assert blas.threads() == 2

    def test_without_a_library_the_run_is_unchanged(self, small_graph, monkeypatch, pooled):
        cfg = TrainConfig(variant="slice_ffse", p=2, epochs=3, hidden=8, seed=4)

        def rows(c):
            return [(r.loss, r.train_metric, r.val_metric, r.test_metric) for r in engine.train(small_graph, c)[1]]

        found = rows(cfg)
        monkeypatch.setattr(blas, "_controls", lambda: None)
        assert blas.threads() is None
        assert rows(cfg) == rows(dataclasses.replace(cfg, threads=1)) == found
        assert pooled

    def test_artifacts_do_not_depend_on_the_blas_environment(self, tmp_path):
        # products (2000 x 600 x 600 in the fusion MLP, 2000 x 600 x 64 in the
        # baseline's first layer) large enough for threaded BLAS, which
        # rounds them differently at 2 threads than at 1
        src = str(Path(slicegcn.__file__).resolve().parents[1])
        for variant, p in (("slice_ffse", 2), ("baseline", 1)):
            blobs = []
            for count in ("1", "2"):
                env = {k: v for k, v in os.environ.items() if k not in ("OMP_NUM_THREADS", "MKL_NUM_THREADS")}
                env["OPENBLAS_NUM_THREADS"] = count
                env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
                out = tmp_path / variant / count / "m.json"
                done = subprocess.run(
                    [sys.executable, "-m", "slicegcn.cli", "train", "--dataset", "synth", "--synth-nodes", "2000",
                     "--synth-feat", "600", "--variant", variant, "-p", str(p), "--epochs", "2", "--seed", "3",
                     "--no-timing", "--out", str(out)],
                    env=env, capture_output=True, text=True, timeout=300,
                )
                assert done.returncode == 0, done.stderr
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1], variant


_TRACED = [  # the functions the benchmark's tracer wraps, which no block of a split may call
    (ops, "spmm_norm"), (ops, "dropout"), (slicing, "feature_fusion_forward"), (slicing, "feature_fusion_backward"),
    *[(nn, name) for name in ("gcn_layer_forward", "gcn_layer_backward", "mlp_forward", "mlp_backward", "adam_step")],
]


@pytest.fixture
def split_rounds(monkeypatch):
    """The pool's blocks, watched: the fixture is (the item count of each
    round of several blocks, a thread-local whose `inside` is true while a
    block runs)."""
    rounds, local = [], threading.local()
    each = ops.Pool.each

    def watched_each(pool, fn, items):
        if len(items) > 1:
            rounds.append(len(items))

        def task(item):
            local.inside = True
            try:
                return fn(item)
            finally:
                local.inside = False

        return each(pool, task, items)

    monkeypatch.setattr(ops.Pool, "each", watched_each)
    return rounds, local


def _fusion_graph():
    """600 nodes, 400 features: every product of the fusion MLP splits at p=2."""
    return synth_graph(n=600, classes=3, d_feat=400, p_in=0.05, p_out=0.01, signal=1.0, seed=2)


class TestSplitRounds:
    """The head's large dense products and Adam steps run in p blocks."""

    def test_split_tasks_call_no_traced_function(self, monkeypatch, pooled, split_rounds):
        # a pool thread's span parents under the master's innermost open span,
        # so a traced call inside a block would misplace its span
        rounds, local = split_rounds
        inside = []

        def recording(fn):
            def wrapped(*args, **kwargs):
                inside.append(getattr(local, "inside", False))
                return fn(*args, **kwargs)

            return wrapped

        for module, name in _TRACED:
            monkeypatch.setattr(module, name, recording(getattr(module, name)))
        monkeypatch.setattr(nn, "_ADAM_MIN_RANGE", 1 << 12)  # the fusion MLP's step splits too
        engine.train(_fusion_graph(), TrainConfig(variant="slice_ffse", p=2, epochs=2, hidden=16, seed=1))
        assert rounds and set(rounds) == {2}
        assert inside and not any(inside)

    def test_blocks_on_the_pool_or_inline_give_the_same_bits(self, pooled, split_rounds):
        rounds, _ = split_rounds
        graph, cfg = _fusion_graph(), TrainConfig(variant="slice_ffse", p=2, epochs=3, hidden=16, seed=1)

        def rows(c):
            return [(r.loss, r.train_metric, r.val_metric, r.test_metric) for r in engine.train(graph, c)[1]]

        assert rows(cfg) == rows(dataclasses.replace(cfg, threads=1))
        # per epoch at least A W1 in training, X W0 and A W1 in eval, and three backward products
        assert len(rounds) >= 2 * 6 * cfg.epochs

    def test_eval_forward_forms_no_loss_gradient(self, small_graph, monkeypatch):
        calls, full = [], ops.softmax_cross_entropy
        monkeypatch.setattr(ops, "softmax_cross_entropy", lambda *a: calls.append(1) or full(*a))
        engine.train(small_graph, TrainConfig(variant="slice", p=2, epochs=3, hidden=8, seed=1))
        assert len(calls) == 3  # one per training forward


@pytest.mark.parametrize("variant", ["slice", "slice_ffse"])
def test_eval_forward_forms_only_the_masks_a_later_forward_reads(small_graph, variant):
    # an eval forward writes the ReLU mask of a device's layer 0 over a fixed
    # input and of the fusion MLP's hidden layer, which the next forward
    # keeps, and no other: device layers >= 1, the classifier's hidden layer
    cfg = TrainConfig(variant=variant, p=2, hidden=16, layers=3, seed=7)
    run = engine.build_run(small_graph, cfg)
    engine.epoch_forward(run, training=True)  # every mask array exists now
    n, head = small_graph.num_nodes, run.head
    masks = {("device", i, li): w.ws.get((li, "mask"), (n, layer.bias.size), bool)
             for i, w in enumerate(run.workers) for li, layer in enumerate(w.layers)}
    masks["classifier", 0, 0] = head.cls_ws.get((0, "mask"), (n, cfg.hidden), bool)
    if cfg.use_ff:
        masks["fusion", 0, 0] = head.fusion_ws.get((0, "mask"), (n, small_graph.num_features), bool)
    for m in masks.values():
        m.fill(True)
    engine.epoch_forward(run, training=False)
    written = {key for key, m in masks.items() if not m.all()}
    assert written == ({("fusion", 0, 0)} if cfg.use_ff else {("device", 0, 0), ("device", 1, 0)})


# the workspace key of a kept layer-0 result: a device's output, the fusion MLP's relu(z)
_DEVICE_KEPT, _FUSION_KEPT = (0, "out"), (0, "a")


def _kept_now(run) -> list:
    """Per device, then for the fusion MLP: whether the owner's workspace
    holds an eval forward's layer 0 at its group's current step count."""
    head = run.head
    return [w.ws.versions.get(_DEVICE_KEPT) == w.group.t for w in run.workers] + [
        head.fusion is not None and head.fusion_ws.versions.get(_FUSION_KEPT) == head.fusion.group.t
    ]


def _drop_kept(run) -> None:
    for w in run.workers:
        w.ws.versions.pop(_DEVICE_KEPT, None)
    run.head.fusion_ws.versions.pop(_FUSION_KEPT, None)


@pytest.fixture
def reuses(monkeypatch) -> list:
    """One entry per layer-0 forward, in call order: ("device", kept) for a
    device's layer 0 and ("fusion", kept) for the fusion MLP, where kept
    says whether the owner's workspace held the result an eval forward left
    in place at the call's version."""
    calls = []
    layer_forward, fusion_forward = nn.gcn_layer_forward, slicing.feature_fusion_forward

    def spy_layer(*args, ws, layer=0, version=None, **kwargs):
        if layer == 0:
            calls.append(("device", version is not None and ws.versions.get(_DEVICE_KEPT) == version))
        return layer_forward(*args, ws=ws, layer=layer, version=version, **kwargs)

    def spy_fusion(*args, ws, version=None, **kwargs):
        calls.append(("fusion", version is not None and ws.versions.get(_FUSION_KEPT) == version))
        return fusion_forward(*args, ws=ws, version=version, **kwargs)

    monkeypatch.setattr(nn, "gcn_layer_forward", spy_layer)
    monkeypatch.setattr(slicing, "feature_fusion_forward", spy_fusion)
    return calls


def _count(calls, name) -> int:
    return sum(kept for who, kept in calls if who == name)


class TestLayer0Reuse:
    """A forward reuses the layer 0 (and fusion layer 0) that an eval forward
    left in its owner's workspace, while the owner's group has not stepped."""

    @staticmethod
    def _recomputing_reference(graph, cfg) -> list:
        """engine.train's loop, in the calling thread, with the kept results
        dropped before every training forward, so that nothing is reused."""
        run = engine.build_run(graph, dataclasses.replace(cfg, threads=1))
        rows = []
        for epoch in range(cfg.epochs):
            _drop_kept(run)
            loss, _ = engine.epoch_forward(run, training=True)
            lr = nn.cosine_lr(epoch, cfg.epochs, cfg.lr)
            engine.epoch_backward(run, lr)
            engine.apply_updates(run, lr)
            _, logits = engine.epoch_forward(run, training=False)
            rows.append((epoch, lr, loss, *engine._metrics(run, logits)))
        return rows

    @pytest.mark.parametrize("variant", ["slice", "slice_se", "slice_ffse"])
    def test_reuse_matches_recomputing_reference(self, small_graph, monkeypatch, variant, pooled, reuses):
        runs, kept_after = [], []
        build = engine.build_run
        monkeypatch.setattr(engine, "build_run", lambda g, c: runs.append(build(g, c)) or runs[-1])
        cfg = TrainConfig(variant=variant, p=2, epochs=4, hidden=16, layers=2, seed=6)
        _, reports = engine.train(
            small_graph, cfg, on_epoch=lambda report, logits: kept_after.append(_kept_now(runs[-1]))
        )
        assert pooled
        # every training forward but the first reused layer 0: on each device
        # in direct mode, on the head in fusion mode
        assert _count(reuses, "device") == (0 if cfg.use_ff else cfg.p * (cfg.epochs - 1))
        assert _count(reuses, "fusion") == (cfg.epochs - 1 if cfg.use_ff else 0)
        _, sequential = engine.train(small_graph, dataclasses.replace(cfg, threads=1))

        def rows(reps):
            return [(r.epoch, r.lr, r.loss, r.train_metric, r.val_metric, r.test_metric) for r in reps]

        # bit for bit: floats compare exactly
        assert rows(reports) == self._recomputing_reference(small_graph, cfg) == rows(sequential)
        # every eval forward kept its layer 0
        expect = [False] * cfg.p + [True] if cfg.use_ff else [True] * cfg.p + [False]
        assert kept_after == [expect] * cfg.epochs

    @pytest.mark.parametrize("variant", ["slice", "slice_ffse"])
    def test_update_drops_kept_result(self, small_graph, variant, pooled, reuses):
        # eval forward -> parameter update -> training forward: the training
        # forward recomputes layer 0 from the updated parameters, as it does
        # with the kept results dropped (the update steps every group once more, on
        # the same gradients)
        cfg = TrainConfig(variant=variant, p=2, epochs=2, hidden=16, layers=2, seed=7)
        logits, losses = [], []
        for clear in (False, True):
            run = engine.build_run(small_graph, cfg)
            with run.pool:
                engine.epoch_forward(run, training=True)
                engine.epoch_backward(run, 1e-2)
                engine.epoch_forward(run, training=False)
                if clear:
                    _drop_kept(run)
                assert any(_kept_now(run)) != clear
                for w in run.workers:
                    w.step(1e-2)
                engine.apply_updates(run, 1e-2)
                assert not any(_kept_now(run))
                reuses.clear()
                loss, out = engine.epoch_forward(run, training=True)
                assert reuses and not any(kept for _, kept in reuses)
            losses.append(loss)
            logits.append(out)
        assert pooled
        assert losses[0] == losses[1]
        np.testing.assert_array_equal(logits[0], logits[1])

    def test_a_step_ends_the_reuse_of_its_own_group_only(self, small_graph, reuses):
        # eval forward -> device 0 steps -> training forward: device 0
        # recomputes its layer 0, device 1 reuses its own
        run = engine.build_run(small_graph, TrainConfig(variant="slice", p=2, hidden=16, layers=2, seed=7))
        engine.epoch_forward(run, training=False)
        run.workers[0].step(1e-2)
        reuses.clear()
        engine.epoch_forward(run, training=True)
        assert reuses == [("device", False), ("device", True)]

    def test_kept_result_used_by_the_training_forward(self, small_graph, reuses):
        cfg = TrainConfig(variant="slice", p=2, epochs=2, hidden=16, layers=2, seed=7)
        run = engine.build_run(small_graph, cfg)
        shape = (small_graph.num_nodes, run.workers[0].layers[0].w_agg.shape[1])
        engine.epoch_forward(run, training=False)
        masks = [w.ws.get((0, "mask"), shape, bool) for w in run.workers]
        engine.epoch_forward(run, training=True)
        assert reuses == [("device", False)] * cfg.p + [("device", True)] * cfg.p
        # the training cache holds the very mask array the eval forward wrote
        for w, mask in zip(run.workers, masks):
            assert w.cache[0].mask is mask and _DEVICE_KEPT not in w.ws.versions

    def test_fused_input_is_never_reused_by_a_device(self, small_graph, reuses):
        # no group steps between the two forwards, but the training forward's
        # fusion dropout changes every device's input
        run = engine.build_run(small_graph, TrainConfig(variant="slice_ff", p=2, hidden=16, layers=2, seed=7))
        engine.epoch_forward(run, training=False)
        assert not any(w.ws.versions for w in run.workers)
        engine.epoch_forward(run, training=True)
        assert [w.group.t for w in run.workers] == [0, 0]
        assert reuses == [("fusion", False)] + [("device", False)] * 2 + [("fusion", True)] + [("device", False)] * 2

    def test_one_layer_stack_reuses_nothing(self, small_graph, reuses):
        # its layer 0 writes into the representation, which the next forward overwrites
        runs = []
        build = engine.build_run
        cfg = TrainConfig(variant="slice", p=2, epochs=3, hidden=16, layers=1, seed=7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "build_run", lambda g, c: runs.append(build(g, c)) or runs[-1])
            engine.train(small_graph, cfg)
        assert len(reuses) == 2 * cfg.epochs * cfg.p and not any(kept for _, kept in reuses)
        assert all(_DEVICE_KEPT not in w.ws.versions for w in runs[0].workers)

    @pytest.mark.parametrize("variant", ["slice", "slice_ffse"])
    def test_second_eval_forward_reuses_layer_0_bit_for_bit(self, small_graph, variant, reuses):
        cfg = TrainConfig(variant=variant, p=2, hidden=16, layers=2, seed=7)
        run = engine.build_run(small_graph, cfg)
        loss_a, logits = engine.epoch_forward(run, training=False)
        first, n = logits.copy(), len(reuses)
        loss_b, second = engine.epoch_forward(run, training=False)
        assert not any(kept for _, kept in reuses[:n])
        owner = "fusion" if cfg.use_ff else "device"
        assert _count(reuses[n:], owner) == (1 if cfg.use_ff else cfg.p)
        assert loss_a == loss_b
        np.testing.assert_array_equal(first, second)


class TestEvaluate:
    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 1])
        logits = np.eye(3)[labels] * 10.0
        assert evaluate(logits, labels, np.arange(4), 3) == 1.0

    def test_binary_uses_ranking(self):
        labels = np.array([1, 0, 1, 0])
        logits = np.array([[0.0, 3.0], [0.0, 2.0], [0.0, 1.0], [0.0, 0.0]])
        # scores rank pos, neg, pos, neg -> 3 of 4 pairs concordant
        assert evaluate(logits, labels, np.arange(4), 2) == pytest.approx(0.75)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(np.zeros((2, 3)), np.zeros(2, dtype=int), np.arange(0), 3)


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
        # the fusion output changes every epoch: in the training and the eval
        # forward the master aggregates it once for every device's layer 0
        # (7 -> 8 widens) and each device its layer 1; in backward, each
        # device both layers
        assert self._spmm_calls_per_epoch(monkeypatch, small_graph, "slice_ff") == [2 * (1 + 2) + 2 * 2] * 4

    @pytest.mark.parametrize("p,hidden,widens", [(2, 16, True), (3, 18, True), (2, 8, False), (3, 12, False)])
    def test_shared_fusion_aggregate_saves_p_minus_1_calls(self, small_graph, monkeypatch, p, hidden, widens):
        # 12 features: the fused input is 7 wide at p=2 and 5 at p=3, and a
        # device layer is hidden / p wide
        run = engine.build_run(small_graph, TrainConfig(variant="slice_ffse", p=p, hidden=hidden, layers=2))
        assert nn.narrows(run.workers[0].layers[0]) != widens
        calls = []
        spmm = ops.spmm_norm
        monkeypatch.setattr(ops, "spmm_norm", lambda *a, **k: calls.append(1) or spmm(*a, **k))
        engine.epoch_forward(run, training=True)
        assert len(calls) == 2 * p - (p - 1 if widens else 0)

    @pytest.mark.parametrize("training", [True, False])
    def test_shared_fusion_aggregate_matches_each_device_aggregating(
        self, small_graph, monkeypatch, training, pooled
    ):
        cfg = TrainConfig(variant="slice_ffse", p=3, hidden=18, layers=3, seed=2, threads=2)
        results = []
        for share in (True, False):
            run = engine.build_run(small_graph, cfg)
            with pytest.MonkeyPatch.context() as mp, run.pool:
                if not share:
                    forward = engine.WorkerState.forward
                    mp.setattr(engine.WorkerState, "forward", lambda w, *a, agg=None, **k: forward(w, *a, **k))
                loss, logits = engine.epoch_forward(run, training=training)
                arrays = [_representation(run).copy(), logits.copy()]
                if training:
                    engine.epoch_backward(run, 1e-2)
                    # the devices stepped on their gradients in their backward tasks
                    arrays += [run.head.fusion.group.grad.copy()] + [w.group.param.copy() for w in run.workers]
            results.append((loss, arrays))
        assert pooled
        (loss_a, shared), (loss_b, own) = results
        assert loss_a == loss_b
        for a, b in zip(shared, own, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_reused_aggregate_equals_a_fresh_one(self, small_graph, pooled):
        cfg = TrainConfig(variant="slice_se", p=2, epochs=4, hidden=16, layers=2, seed=3)
        run = engine.build_run(small_graph, cfg)
        assert not any(w.ws.versions for w in run.workers)
        with run.pool:
            for _ in range(cfg.epochs):
                engine.epoch_forward(run, training=True)
                engine.epoch_backward(run, 1e-2)
                engine.apply_updates(run, 1e-2)
                engine.epoch_forward(run, training=False)
        assert pooled
        adj, s = small_graph.adj, run.norm_scale
        for w, x in zip(run.workers, run.slices):
            fresh_agg = ops.spmm_norm(adj, s, x, out=np.empty_like(x), ws=ops.Workspace())
            np.testing.assert_array_equal(w.ws.get((0, "agg"), x.shape, x.dtype), fresh_agg)
            assert w.ws.versions[0, "agg"] == 0  # formed in the first forward
            # layer 0 widens (6 -> 8), so reuse keeps the aggregate-first order bit for bit
            reused, fresh = np.empty((2, x.shape[0], w.layers[-1].w_agg.shape[1]), dtype=x.dtype)
            w.forward(adj, s, x, False, cfg.dropout, fixed_input=True, out=reused)
            # unversioned, in a workspace of its own: it would write over the kept arrays
            dataclasses.replace(w, ws=ops.Workspace()).forward(adj, s, x, False, cfg.dropout, out=fresh)
            np.testing.assert_array_equal(reused, fresh)


class TestBuffers:
    """Per-epoch arrays live in buffers their owners reuse from epoch to epoch."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("variant,p", [("baseline", 1), ("slice", 2), ("slice_ffse", 2)])
    def test_steady_epoch_allocates_less_than_one_layer_array(self, variant, p, threads, pooled):
        # from one epoch's end to the next, traced memory never rises by as much
        # as one n x hidden f32 array once the buffers exist (after epoch 0);
        # what remains are dropout's raw draws, half a mask's f32 size, and
        # numpy's fixed-size ufunc buffers
        n, hidden = 1000, 64
        g = synth_graph(n=n, classes=3, d_feat=16, p_in=0.1, p_out=0.01, signal=1.0, seed=2)
        cfg = TrainConfig(variant=variant, p=p, epochs=6, hidden=hidden, seed=1, threads=threads)
        rises, base = [], []

        def on_epoch(report, logits):
            current, peak = tracemalloc.get_traced_memory()
            if base:
                rises.append(peak - base[-1])
            tracemalloc.reset_peak()
            base.append(current)

        tracemalloc.start()
        try:
            engine.train(g, cfg, on_epoch=on_epoch)
        finally:
            tracemalloc.stop()
        assert len(rises) == cfg.epochs - 1
        assert max(rises[1:]) < n * hidden * 4, rises
        assert bool(pooled) == (threads > 1)  # a p = 1 run's device splits its kernels on the pool

    @pytest.mark.parametrize("variant,p", [("baseline", 1), ("slice_ffse", 2)])
    def test_workspaces_hold_what_backward_reads(self, small_graph, monkeypatch, variant, p):
        # every workspace key and its bytes after a training, counted by hand:
        # a layer keeps a bool ReLU mask (1 byte per element, like the dropout
        # keep mask), no f32 pre-activation, and the SpMM sums into its output
        runs = []
        build = engine.build_run
        monkeypatch.setattr(engine, "build_run", lambda g, c: runs.append(build(g, c)) or runs[-1])
        cfg = TrainConfig(variant=variant, p=p, epochs=2, hidden=14, layers=2, seed=4)
        engine.train(small_graph, cfg)
        (run,) = runs
        n, d, c = small_graph.num_nodes, small_graph.num_features, small_graph.num_classes
        e = small_graph.adj.blocks.max_entries  # rows of the SpMM's gather buffer
        h = cfg.hidden // p  # a device layer's width; the fusion output is as wide
        f4 = 4  # bytes of an f32
        device = {
            (0, "out"): n * h * f4, (0, "mask"): n * h, (0, "keep"): n * h,
            (1, "agg"): n * h * f4, (1, "mask"): n * h,
            "tmp": n * h * f4, "d_pre": n * h * f4,
            "spmm.padded": (n + 1) * h * f4, "spmm.gather": e * h * f4,
        }
        if cfg.use_ff:
            assert engine.slicing.fusion_output_width(d, p) == h
            device["dx"] = n * h * f4  # the input gradient, summed into d_z
        else:
            device[0, "agg"] = n * d * f4  # Â·X of the fixed input, formed once
        classifier = {
            "rep": n * p * h * f4, (0, "a"): n * cfg.hidden * f4, (0, "mask"): n * cfg.hidden,
            (0, "keep"): n * cfg.hidden, (1, "out"): n * c * f4, "d_logits": n * c * f4,
        }
        owners = [(w.ws, device) for w in run.workers] + [(run.head.cls_ws, classifier)]
        if cfg.use_ff:
            fusion = {
                (0, "a"): n * d * f4, (0, "mask"): n * d, (0, "keep"): n * d, (1, "out"): n * h * f4,
                "agg": n * h * f4, "spmm.padded": (n + 1) * h * f4, "spmm.gather": e * h * f4,
            }
            owners.append((run.head.fusion_ws, fusion))
        for ws, want in owners:
            assert {k: m.size for k, m in ws._memory.items()} == want
            assert all(dtype is bool for (k, _, dtype) in ws._arrays if k[-1] in ("mask", "keep"))

    @pytest.mark.parametrize("variant,p", [("baseline", 1), ("slice_se", 2), ("slice_ffse", 2)])
    def test_trainings_in_one_process_are_bit_identical(self, small_graph, variant, p):
        # no state leaks from one run's buffers into the next run
        cfg = TrainConfig(variant=variant, p=p, epochs=4, hidden=16, layers=3, seed=5)

        def rows():
            _, reports = engine.train(small_graph, cfg)
            return [(r.loss, r.train_metric, r.val_metric, r.test_metric) for r in reports]

        assert rows() == rows()

    def test_eval_logits_valid_until_the_callback_returns(self, small_graph):
        # on_epoch gets the classifier's own array, which the next forward rewrites
        seen, copies = [], []

        def on_epoch(report, logits):
            seen.append(logits)
            copies.append(logits.copy())

        engine.train(small_graph, TrainConfig(variant="slice", p=2, epochs=3, hidden=8, seed=1), on_epoch=on_epoch)
        assert seen[0] is seen[1] is seen[2]
        assert not np.array_equal(copies[0], copies[1])
        np.testing.assert_array_equal(seen[0], copies[-1])

    def test_backward_writes_over_dead_forward_arrays(self, small_graph):
        # the representation's gradient is written over the representation,
        # bit for bit that of a backward over copies of the forward's arrays;
        # fusion mode sums the devices' input gradients into device 0's own array
        cfg = TrainConfig(variant="slice_ffse", p=2, hidden=8, layers=2, seed=3)
        run = engine.build_run(small_graph, cfg)
        seen = []
        fusion_backward = engine.slicing.feature_fusion_backward
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine.slicing, "feature_fusion_backward",
                       lambda d_z, *a, **k: seen.append(d_z) or fusion_backward(d_z, *a, **k))
            engine.epoch_forward(run, training=True)
            d_rep = _reference_d_rep(run)
            engine.epoch_backward(run, 1e-2)
        np.testing.assert_array_equal(_representation(run), d_rep)
        w0 = run.workers[0]
        assert seen[0] is w0.ws.get("dx", seen[0].shape, seen[0].dtype)


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
