"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. The bench liveness criterion builds a 200k-node graph and takes a
couple of minutes; everything else finishes in seconds.
"""

import json
import math
import time

import numpy as np
import pytest

from slicegcn import cli, engine, slicing
from slicegcn.engine import TrainConfig
from slicegcn.graph import AttributedGraph, build_csr, save_dataset, synth_graph


def check(num, label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}")
    assert ok, f"criterion {num}: {label} {detail}"


def test_c01_slice_strategy_matches_reference():
    t0 = time.perf_counter()
    mismatches = []
    for in_d in range(1, 65):
        for p in range(1, 9):
            for scale in (0.5, 1.0, 1.5):
                slice_size = math.ceil(in_d / p)
                width = int(slice_size * scale)
                if not 1 <= width <= in_d:
                    continue
                # independent straight-line transcription of the generator
                in_sizes = []
                for i in range(p):
                    slice_start = i * slice_size
                    slice_end = slice_start + int(slice_size * scale)
                    if slice_end > in_d:
                        slice_start = slice_start - (slice_end - in_d)
                        slice_end = in_d
                    in_sizes.append((slice_start, slice_end))
                got = slicing.slice_strategy_generator(in_d, p, scale)
                ok = list(got.ranges) == in_sizes and got.slice_size == slice_size
                ok = ok and all(0 <= s < e <= in_d for s, e in got.ranges)
                ok = ok and len({e - s for s, e in got.ranges}) == 1
                if scale == 1.0:
                    cover = set()
                    for s, e in got.ranges:
                        cover.update(range(s, e))
                    ok = ok and cover == set(range(in_d))
                if not ok:
                    mismatches.append((in_d, p, scale))
    elapsed = time.perf_counter() - t0
    check(1, "slice strategy equals straight-line reference",
          not mismatches and elapsed < 1.0, f"mismatches={mismatches[:5]} elapsed={elapsed:.2f}s")


def _directed_copy(graph: AttributedGraph) -> AttributedGraph:
    """The graph with one direction of each edge.

    A row left empty gets one entry: there the pre-activation is the bias,
    which starts at the ReLU kink, where finite differences are undefined.
    """
    n = graph.num_nodes
    pairs = graph.adj.edge_list()
    pairs = pairs[pairs[:, 0] < pairs[:, 1]]
    empty = np.setdiff1d(np.arange(n), pairs[:, 0])
    chords = np.stack([empty, (empty + 1) % n], axis=1)
    adj = build_csr(n, np.concatenate([pairs, chords]), symmetrize=False)
    return AttributedGraph(adj=adj, features=graph.features, labels=graph.labels,
                           num_classes=graph.num_classes, split=graph.split)


def _gradient_failures(graph, variant, **settings) -> list:
    """(group, relative error) for every parameter group of one epoch off
    its FD; `settings` override the config's p=2, two dual-form layers."""
    cfg = TrainConfig(**{**dict(variant=variant, p=2, epochs=1, hidden=6, layers=2,
                                dropout=0.0, seed=4, precision="f64"), **settings})
    run = engine.build_run(graph, cfg)

    def loss_fn():
        loss, _ = engine.epoch_forward(run, training=True)
        return loss

    engine.epoch_forward(run, training=True)
    engine.epoch_backward(run, 0.0)  # lr 0: the devices' steps leave them as they are

    groups = {}
    for w in run.workers:
        for k, (param, grad) in enumerate(zip(w.group.params, w.group.grads)):
            groups[f"worker{w.device_index}.param{k}"] = (param, grad)
    cls_grads = run.head.classifier.group.grads
    for li, (wt, b) in enumerate(run.head.classifier.layers):
        groups[f"classifier.{li}.w"] = (wt, cls_grads[2 * li])
        groups[f"classifier.{li}.b"] = (b, cls_grads[2 * li + 1])
    if cfg.use_ff:
        fusion_grads = run.head.fusion.group.grads
        for li, (wt, b) in enumerate(run.head.fusion.layers):
            groups[f"fusion.{li}.w"] = (wt, fusion_grads[2 * li])
            groups[f"fusion.{li}.b"] = (b, fusion_grads[2 * li + 1])
    if cfg.use_se:
        groups["encoding"] = (run.head.encoding.table, run.head.encoding.group.grads[0])

    step = 1e-6
    failures = []
    for name, (param, analytic) in groups.items():
        fd = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            orig = param[ix]
            param[ix] = orig + step
            up = loss_fn()
            param[ix] = orig - step
            down = loss_fn()
            param[ix] = orig
            fd[ix] = (up - down) / (2 * step)
            it.iternext()
        rel = np.linalg.norm(fd - analytic) / max(
            np.linalg.norm(fd) + np.linalg.norm(analytic), 1e-12
        )
        if rel > 1e-5:
            failures.append((name, rel))
    return failures


def test_c02_gradients_match_finite_differences():
    # slice_ffse: device layer 0 narrows (fusion width 6 -> 3) and the input
    # gradient flows into the fusion MLP; slice_se: each device reuses Â·X of
    # its fixed slice. Both on the undirected graph and on a directed copy.
    t0 = time.perf_counter()
    graph = synth_graph(n=30, classes=3, d_feat=10, p_in=0.3, p_out=0.1, signal=1.0, seed=2)
    failures = []
    for g, kind in ((graph, "undirected"), (_directed_copy(graph), "directed")):
        for variant in ("slice_ffse", "slice_se"):
            failures += [(kind, variant, *f) for f in _gradient_failures(g, variant)]
    elapsed = time.perf_counter() - t0
    check(2, "all parameter-group gradients match central differences",
          not failures and elapsed < 30.0, f"failures={failures} elapsed={elapsed:.1f}s")


@pytest.mark.parametrize("variant,settings", [
    ("baseline", dict(p=1)),
    ("slice", dict(p=3)),
    ("slice_ff", dict(layers=1)),  # the last layer is layer 0, and narrows (fusion width 6 -> 3)
    # three single-form layers at hidden 6 leave rows whose input is all
    # zeros, so their pre-activation is the bias, 0, at the ReLU kink where
    # central differences are undefined; hidden 8 and seed 6 leave none there
    ("slice_se", dict(layers=3, layer_form=engine.nn.FORM_SINGLE, hidden=8, seed=6)),
])
def test_gradients_match_finite_differences_beyond_c02(variant, settings):
    # the paths c02 does not reach, each of which trains its last layer on
    # the training rows: a single device, three devices, a one-layer stack
    # whose layer 0 narrows and takes the training rows, and three layers
    # in the single form; on c02's graph and its directed copy
    t0 = time.perf_counter()
    graph = synth_graph(n=30, classes=3, d_feat=10, p_in=0.3, p_out=0.1, signal=1.0, seed=2)
    failures = []
    for g, kind in ((graph, "undirected"), (_directed_copy(graph), "directed")):
        failures += [(kind, *f) for f in _gradient_failures(g, variant, **settings)]
    assert not failures
    assert time.perf_counter() - t0 < 15.0


def test_c03_single_device_run_equals_baseline():
    t0 = time.perf_counter()
    graph = synth_graph(n=400, classes=2, d_feat=16, p_in=0.05, p_out=0.005, signal=1.0, seed=1)
    kwargs = dict(p=1, epochs=50, hidden=32, layers=2, slice_scale=1.0,
                  seed=11, precision="f64")
    _, rep_base = engine.train(graph, TrainConfig(variant="baseline", **kwargs))
    _, rep_slice = engine.train(graph, TrainConfig(variant="slice", **kwargs))
    delta = max(abs(a.loss - b.loss) for a, b in zip(rep_base, rep_slice))
    elapsed = time.perf_counter() - t0
    check(3, "single-device sliced run reproduces baseline losses",
          len(rep_base) == 50 and delta <= 1e-10 and elapsed < 30.0,
          f"max|dloss|={delta:.2e} elapsed={elapsed:.1f}s")


def test_c04_fusion_parameter_deltas(wide_graph):
    # 300 input features: the fusion stage adds exactly 120,701 parameters
    # at p=3 (output width 101) and 135,751 at p=2 (output width 151):
    # (300 * 300 + 300) + (300 * w + w) for output width w
    results = {}
    for p, expect in ((3, 120_701), (2, 135_751)):
        cfg = TrainConfig(variant="slice_ff", p=p, hidden=256, layers=3)
        run = engine.build_run(wide_graph, cfg)
        results[p] = (sum(a.size for layer in run.head.fusion.layers for a in layer), expect)
    ok = all(counted == expect for counted, expect in results.values())
    check(4, "feature fusion adds exactly 120,701 (p=3) / 135,751 (p=2) parameters",
          ok, str(results))


def test_c05_parameter_count_monotone_in_devices(wide_graph):
    counts = {}
    for variant, p in (("baseline", 1), ("slice", 2), ("slice", 3)):
        cfg = TrainConfig(variant=variant, p=p, hidden=256, layers=3)
        counts[p] = engine.build_run(wide_graph, cfg).param_count
    check(5, "parameter count decreases as devices increase",
          counts[3] < counts[2] < counts[1], str(counts))


def test_c06_convergence_on_planted_partition():
    t0 = time.perf_counter()
    results = {}
    for seed in (1, 2, 3):
        graph = synth_graph(n=400, classes=2, d_feat=16, p_in=0.05, p_out=0.005,
                            signal=1.0, seed=seed)
        test_idx = np.flatnonzero(graph.split == 2)
        for variant, p in (("baseline", 1), ("slice", 2), ("slice_ffse", 2)):
            cfg = TrainConfig(variant=variant, p=p, epochs=200, hidden=64, layers=2,
                              lr=5e-3, dropout=0.5, seed=seed, precision="f32")
            best = [0.0]

            # argmax accuracy: engine.evaluate would score these binary graphs by AUC-ROC
            def on_epoch(report, logits, best=best, graph=graph, test_idx=test_idx):
                accuracy = float((logits[test_idx].argmax(axis=1) == graph.labels[test_idx]).mean())
                best[0] = max(best[0], accuracy)

            engine.train(graph, cfg, on_epoch=on_epoch)
            results[(seed, variant)] = best[0]
    elapsed = time.perf_counter() - t0
    ok = all(acc >= 0.95 for acc in results.values()) and elapsed < 120.0
    check(6, "every variant reaches 0.95 test accuracy within 200 epochs",
          ok, f"{results} elapsed={elapsed:.0f}s")


def test_c07_byte_identical_artifacts(tmp_path, pooled):
    # slice_ffse also sums the devices' input gradients into device 0's array
    # and hands fusion layer 0 from the evaluation pass to the next training forward;
    # `pooled` sends these small runs' rounds to the pool, as a large graph's are
    t0 = time.perf_counter()
    identical = {}
    for variant in ("slice", "slice_ffse"):
        blobs = []
        for name, extra in (("r1", []), ("r2", []), ("seq", ["--threads", "1"])):
            d = tmp_path / variant / name
            d.mkdir(parents=True)
            rc = cli.main(["train", "--dataset", "synth", "--synth-feat", "12",
                           "--variant", variant, "-p", "3", "--epochs", "5", "--seed", "7",
                           "--no-timing", "--out", str(d / "metrics.json"), *extra])
            assert rc == 0
            blobs.append((d / "metrics.json").read_bytes())
        identical[variant] = blobs[0] == blobs[1] == blobs[2]
    elapsed = time.perf_counter() - t0
    check(7, "threaded twice + sequential reference give byte-identical artifacts",
          all(identical.values()) and len(pooled) > 0 and elapsed < 60.0,
          f"{identical} pool tasks={len(pooled)} elapsed={elapsed:.1f}s")


def test_c08_auc_matches_pair_counting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 80))
        scores = np.round(rng.standard_normal(n), 1)  # coarse grid forces ties
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        oracle = ((pos[:, None] > neg[None, :]).sum()
                  + 0.5 * (pos[:, None] == neg[None, :]).sum()) / (len(pos) * len(neg))
        worst = max(worst, abs(engine.auc_roc(scores, labels) - oracle))
    tied = engine.auc_roc(np.full(30, 2.5), np.array([1] * 10 + [0] * 20))
    elapsed = time.perf_counter() - t0
    check(8, "rank-based AUC equals pair-counting oracle; all ties give 0.5",
          worst <= 1e-12 and tied == 0.5 and elapsed < 5.0,
          f"worst={worst:.2e} tied={tied} elapsed={elapsed:.1f}s")


def test_c09_bench_liveness_large_graph(tmp_path, capsys):
    out = tmp_path / "bench.json"
    rc = cli.main([
        "bench", "--dataset", "synth",
        "--synth-nodes", "200000", "--synth-classes", "2", "--synth-feat", "32",
        "--synth-pin", "6e-5", "--synth-pout", "2e-5",
        "--hidden", "128", "--layers", "2", "--epochs", "2", "--seed", "11",
        "--cells", "baseline,slice:2,slice:3", "--out", str(out),
    ])
    table = capsys.readouterr().out
    doc = json.loads(out.read_text())
    cells = {c["cell"]: c for c in doc["cells"]}
    ok = (
        rc == 0
        and set(cells) == {"baseline p=1", "slice p=2", "slice p=3"}
        and all(c["throughput_eps"] > 0 for c in cells.values())
        and "ratio" in table
    )
    with capsys.disabled():
        check(9, "200k-node bench completes all cells with positive epochs/s",
              ok, f"cells={ {k: round(v['throughput_eps'], 3) for k, v in cells.items()} }")


def test_c10_dataset_statistics_reproduced(tmp_path, capsys):
    # converter-shaped directory with exactly 10000 nodes, 39402 undirected
    # edges, 7 features, 2 classes; the validator must print that row back
    rng = np.random.default_rng(99)
    n, target_edges = 10_000, 39_402
    pairs = set()
    while len(pairs) < target_edges:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    graph = AttributedGraph(
        adj=build_csr(n, sorted(pairs)),
        features=rng.standard_normal((n, 7)).astype(np.float32),
        labels=rng.integers(0, 2, n).astype(np.int64),
        num_classes=2,
        split=rng.integers(0, 3, n).astype(np.uint8),
    )
    save_dataset(graph, tmp_path / "ds")
    rc = cli.main(["validate-dataset", str(tmp_path / "ds")])
    text = capsys.readouterr().out
    ok = (
        rc == 0
        and "nodes:    10000" in text
        and "edges:    39402" in text
        and "features: 7" in text
        and "classes:  2" in text
    )
    with capsys.disabled():
        check(10, "validator reproduces a converted dataset's statistics row", ok, text)
