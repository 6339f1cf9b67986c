"""Parallel training orchestrator.

One run is p simulated devices plus a master. Per epoch, barrier-synchronous:

    master scatters per-device inputs (column slices, or one fused matrix)
    -> workers run their full-graph layer stacks independently, in parallel
    -> master gathers outputs in device order, concatenates column-wise,
       applies the classifier, computes the masked training loss
    -> master backpropagates the head, scatters per-device gradient blocks
    -> workers backpropagate their stacks and step their own optimizers.

Workers never talk to each other; the only cross-thread payloads are the
scattered inputs, the gathered outputs, and the gradient blocks. Every
worker owns its parameters, optimizer state, and RNG stream, so results are
bit-identical for a fixed seed no matter how the OS schedules the threads,
and a single-threaded reference execution (threads=1) matches exactly.

Each epoch ends with an evaluation forward, and the next epoch's training
forward runs with the same parameters. Layer 0 of a direct-slice device and
layer 0 of the fusion MLP see a fixed input, and dropout is the first random
draw of a training forward, so the evaluation pass hands those dropout-free
results to the next training forward: the worker and the head each keep
their own, the training forward consumes it, and a parameter update drops
it. The evaluation pass of the last epoch keeps nothing.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import nn, ops, slicing
from .graph import TRAIN, VAL, TEST, AttributedGraph
from .nn import NumericError

VARIANTS = ("baseline", "slice", "slice_se", "slice_ff", "slice_ffse")


@dataclass(frozen=True)
class TrainConfig:
    variant: str = "slice"
    p: int = 1
    epochs: int = 200
    hidden: int = 64
    layers: int = 2
    lr: float = 1e-3
    dropout: float = 0.5
    slice_scale: float = 1.0
    seed: int = 0
    precision: str = "f32"
    layer_form: str = nn.FORM_DUAL
    threads: Optional[int] = None  # None -> p; 1 -> sequential in-thread

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if self.variant == "baseline" and self.p != 1:
            raise ValueError("the baseline variant runs on a single device (p=1)")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.hidden < 1 or self.layers < 1:
            raise ValueError("hidden and layers must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.precision not in ("f32", "f64"):
            raise ValueError("precision must be f32 or f64")
        if self.layer_form not in (nn.FORM_SINGLE, nn.FORM_DUAL):
            raise ValueError(f"layer form must be {nn.FORM_SINGLE} or {nn.FORM_DUAL}")
        if self.threads is not None and self.threads < 1:
            raise ValueError("threads must be >= 1")

    @property
    def use_ff(self) -> bool:
        return self.variant in ("slice_ff", "slice_ffse")

    @property
    def use_se(self) -> bool:
        return self.variant in ("slice_se", "slice_ffse")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


@dataclass
class WorkerState:
    """One simulated device: its layer stack, optimizer, and RNG stream."""

    device_index: int
    layers: list  # of GcnLayerParams
    adam: nn.AdamState
    rng: np.random.Generator
    w_in: int
    h_out: int
    cache: Optional[list] = None  # per-layer forward caches, one epoch
    grads: Optional[list] = None  # flat, aligned with param_arrays()
    input_agg: Optional[np.ndarray] = None  # Â·x of a fixed input, from the first forward
    layer0: Optional[tuple] = None  # (output, pre) of layer 0, kept by an eval forward

    def param_arrays(self) -> list:
        return [a for layer in self.layers for a in layer.arrays()]

    def forward(
        self, adj, s, x, training: bool, dropout_rate: float, fixed_input: bool = False,
        keep: bool = False,
    ):
        """`fixed_input`: x is the same in every call, so Â·x is computed once.

        `keep` (an eval forward over a fixed input, followed by a forward
        with the same parameters) keeps layer 0's dropout-free result for
        that forward, which consumes it.
        """
        if keep and (training or not fixed_input):
            raise ValueError("only an eval forward over a fixed input keeps layer 0")
        agg = kept = None
        if fixed_input:
            if self.input_agg is None:
                self.input_agg = ops.spmm_norm(adj, s, x)
            agg = self.input_agg
            kept, self.layer0 = self.layer0, None
        h = x
        caches = []
        last = len(self.layers) - 1
        for li, layer in enumerate(self.layers):
            rate = dropout_rate if li < last else 0.0
            h, c = nn.gcn_layer_forward(adj, s, h, layer, self.rng, training, rate, agg=agg, kept=kept)
            if li == 0 and keep:
                self.layer0 = (h, c.pre)
            agg = kept = None
            caches.append(c)
        self.cache = caches if training else None
        return h

    def backward(self, adj, s, d_h, need_dx: bool):
        flat = []
        d = d_h
        for li in range(len(self.layers) - 1, -1, -1):
            need_d_in = li > 0 or need_dx
            dw_agg, dw_self, db, d_in = nn.gcn_layer_backward(
                self.cache[li], d, self.layers[li], adj, s, need_d_in
            )
            group = [dw_agg] + ([dw_self] if dw_self is not None else []) + [db]
            flat = group + flat
            d = d_in
        self.grads = flat
        return d  # dX for this device (None in direct mode)

    def step(self, lr: float):
        nn.adam_step(self.param_arrays(), self.grads, self.adam, lr)
        self.grads = None
        self.cache = None
        self.layer0 = None


@dataclass
class MasterHead:
    """Master-owned parameters: fusion (optional), encoding (optional), classifier."""

    classifier: nn.MlpParams
    cls_adam: nn.AdamState
    cls_rng: np.random.Generator
    fusion: Optional[nn.MlpParams] = None
    fusion_adam: Optional[nn.AdamState] = None
    fusion_rng: Optional[np.random.Generator] = None
    encoding: Optional[nn.SliceEncoding] = None
    enc_adam: Optional[nn.AdamState] = None
    fusion_layer0: Optional[tuple] = None  # (z, relu(z)) of fusion layer 0, kept by an eval forward


@dataclass
class RunState:
    graph: AttributedGraph
    config: TrainConfig
    strategy: slicing.SliceStrategy
    workers: list
    head: MasterHead
    shapes: nn.ModelShapes
    features: np.ndarray  # run-precision copy of graph features
    norm_scale: np.ndarray  # run-precision degree norms
    slices: Optional[list]  # precomputed per-device inputs (direct mode)
    train_idx: np.ndarray


@dataclass
class EpochContext:
    """Forward intermediates the backward pass needs."""

    representation: np.ndarray  # gathered pre-classifier matrix
    logits: np.ndarray
    cls_cache: Optional[list] = None
    fusion_cache: Optional[list] = None
    d_logits: Optional[np.ndarray] = None


@dataclass
class AllGrads:
    classifier: list  # each device keeps its own gradients in WorkerState.grads
    encoding: Optional[np.ndarray] = None  # p x h_out
    fusion: Optional[list] = None


@dataclass(frozen=True)
class EpochReport:
    epoch: int
    lr: float
    loss: float
    train_metric: float
    val_metric: float
    test_metric: float
    wall_ms: float


@dataclass(frozen=True)
class RunSummary:
    best_epoch: int  # -1 means the pre-training evaluation
    best_val: float
    test_at_best_val: float
    param_count: int
    epochs: int
    throughput_eps: Optional[float]


class _WorkerPool:
    """Runs one task per device per phase, gathered in device order.

    threads == 1 executes in the calling thread (the sequential reference);
    more threads dispatch to a pool. Results do not depend on the choice.
    """

    def __init__(self, threads: int):
        self._ex = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None

    def run(self, fn: Callable, items: list) -> list:
        if self._ex is None:
            return [fn(item) for item in items]
        futures = [self._ex.submit(fn, item) for item in items]
        return [f.result() for f in futures]

    def close(self):
        if self._ex is not None:
            self._ex.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def derive_shapes(d_feat: int, num_classes: int, config: TrainConfig) -> nn.ModelShapes:
    """Width bookkeeping shared by build_run and parameter accounting."""
    strategy = slicing.slice_strategy_generator(d_feat, config.p, config.slice_scale)
    if config.use_ff:
        w_in = slicing.fusion_output_width(d_feat, config.p)
        fusion_width = w_in
    else:
        w_in = strategy.width
        fusion_width = 0
    h_out = -(-config.hidden // config.p)
    return nn.ModelShapes(
        p=config.p,
        w_in=w_in,
        h_out=h_out,
        layers=config.layers,
        layer_form=config.layer_form,
        use_ff=config.use_ff,
        use_se=config.use_se,
        d_feat=d_feat,
        fusion_width=fusion_width,
        classifier_sizes=(config.p * h_out, config.hidden, num_classes),
    )


def build_run(graph: AttributedGraph, config: TrainConfig) -> RunState:
    """Initialize workers and head from per-purpose RNG streams."""
    d_feat = graph.num_features
    if config.p > d_feat:
        raise ValueError(f"p={config.p} devices exceed the {d_feat} feature columns")
    strategy = slicing.slice_strategy_generator(d_feat, config.p, config.slice_scale)
    shapes = derive_shapes(d_feat, graph.num_classes, config)
    dtype = config.dtype

    workers = []
    for i in range(config.p):
        rng = ops.rng_stream(config.seed, i)
        widths = [shapes.w_in] + [shapes.h_out] * config.layers
        layers = [
            nn.init_gcn_layer(widths[li], widths[li + 1], rng, dtype, config.layer_form)
            for li in range(config.layers)
        ]
        params = [a for layer in layers for a in layer.arrays()]
        workers.append(
            WorkerState(
                device_index=i,
                layers=layers,
                adam=nn.AdamState.for_params(params),
                rng=rng,
                w_in=shapes.w_in,
                h_out=shapes.h_out,
            )
        )

    cls_rng = ops.rng_stream(config.seed, ops.STREAM_CLASSIFIER)
    classifier = nn.init_mlp(list(shapes.classifier_sizes), cls_rng, dtype, config.dropout)
    head = MasterHead(
        classifier=classifier,
        cls_adam=nn.AdamState.for_params(classifier.arrays()),
        cls_rng=cls_rng,
    )
    if config.use_ff:
        head.fusion_rng = ops.rng_stream(config.seed, ops.STREAM_FUSION)
        head.fusion = slicing.init_fusion(d_feat, config.p, head.fusion_rng, dtype, config.dropout)
        head.fusion_adam = nn.AdamState.for_params(head.fusion.arrays())
    if config.use_se:
        enc_rng = ops.rng_stream(config.seed, ops.STREAM_ENCODING)
        head.encoding = nn.init_slice_encoding(config.p, shapes.h_out, enc_rng, dtype)
        head.enc_adam = nn.AdamState.for_params([head.encoding.table])

    features = np.ascontiguousarray(graph.features, dtype=dtype)
    norm_scale = graph.norm_scale.astype(dtype)
    slices = None if config.use_ff else slicing.slice_feature(features, strategy)
    return RunState(
        graph=graph,
        config=config,
        strategy=strategy,
        workers=workers,
        head=head,
        shapes=shapes,
        features=features,
        norm_scale=norm_scale,
        slices=slices,
        train_idx=np.flatnonzero(graph.split == TRAIN),
    )


def epoch_forward(run: RunState, training: bool, pool: _WorkerPool, keep: bool = False):
    """One full forward pass; returns (training-mask loss, logits, context).

    `keep` (eval forwards only): the next forward runs with the same
    parameters, so the dropout-free layer-0 results are kept for it.
    """
    if keep and training:
        raise ValueError("only an eval forward keeps layer 0")
    cfg = run.config
    adj, s = run.graph.adj, run.norm_scale
    head = run.head

    fusion_cache = None
    if cfg.use_ff:
        kept, head.fusion_layer0 = head.fusion_layer0, None
        z, fusion_cache = slicing.feature_fusion_forward(
            run.features, head.fusion, head.fusion_rng, training, kept=kept
        )
        if keep:
            head.fusion_layer0 = nn.mlp_first_layer(fusion_cache)
        inputs = [z] * cfg.p
    else:
        inputs = run.slices

    def fwd(item):
        worker, x = item
        return worker.forward(adj, s, x, training, cfg.dropout, fixed_input=not cfg.use_ff,
                              keep=keep and not cfg.use_ff)

    outputs = pool.run(fwd, list(zip(run.workers, inputs)))
    if cfg.use_se:
        outputs = [nn.slice_encode(h, head.encoding, i) for i, h in enumerate(outputs)]
    rep = outputs[0] if cfg.p == 1 else np.concatenate(outputs, axis=1)

    logits, cls_cache = nn.mlp_forward(rep, head.classifier, head.cls_rng, training)
    loss, d_sub = ops.softmax_cross_entropy(
        logits[run.train_idx], run.graph.labels[run.train_idx]
    )
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss ({loss})")

    ctx = EpochContext(representation=rep, logits=logits)
    if training:
        d_logits = np.zeros_like(logits)
        d_logits[run.train_idx] = d_sub
        ctx.cls_cache = cls_cache
        ctx.fusion_cache = fusion_cache
        ctx.d_logits = d_logits
    return loss, logits, ctx


def epoch_backward(run: RunState, ctx: EpochContext, pool: _WorkerPool) -> AllGrads:
    """Reverse the epoch: head backward, scatter blocks, worker backward."""
    cfg = run.config
    adj, s = run.graph.adj, run.norm_scale
    head = run.head

    cls_pairs, d_rep = nn.mlp_backward(ctx.cls_cache, ctx.d_logits, head.classifier)
    cls_grads = [g for pair in cls_pairs for g in pair]

    h_out = run.shapes.h_out
    blocks = [d_rep[:, i * h_out : (i + 1) * h_out] for i in range(cfg.p)]

    enc_grad = None
    if cfg.use_se:
        rows = []
        for i in range(cfg.p):
            d_row, blocks[i] = nn.slice_encode_backward(blocks[i])
            rows.append(d_row)
        enc_grad = np.stack(rows, axis=0)

    def bwd(item):
        worker, d_h = item
        return worker.backward(adj, s, d_h, need_dx=cfg.use_ff)

    dxs = pool.run(bwd, list(zip(run.workers, blocks)))

    fusion_grads = None
    if cfg.use_ff:
        d_z = dxs[0].copy()
        for dx in dxs[1:]:  # fixed device order
            d_z += dx
        fusion_pairs = slicing.feature_fusion_backward(d_z, ctx.fusion_cache, head.fusion)
        fusion_grads = [g for pair in fusion_pairs for g in pair]

    return AllGrads(classifier=cls_grads, encoding=enc_grad, fusion=fusion_grads)


def apply_updates(run: RunState, grads: AllGrads, lr: float, pool: _WorkerPool) -> None:
    """Every parameter group takes one optimizer step at the epoch's lr."""
    head = run.head
    pool.run(lambda w: w.step(lr), run.workers)
    nn.adam_step(head.classifier.arrays(), grads.classifier, head.cls_adam, lr)
    if run.config.use_se:
        nn.adam_step([head.encoding.table], [grads.encoding], head.enc_adam, lr)
    if run.config.use_ff:
        nn.adam_step(head.fusion.arrays(), grads.fusion, head.fusion_adam, lr)
        head.fusion_layer0 = None


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Rank-based AUC-ROC; tied scores contribute one half.

    Equivalent to the fraction of (positive, negative) pairs ranked
    concordantly, computed from average ranks in O(n log n).
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n = len(scores)
    n_pos = int((labels == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auc_roc needs at least one positive and one negative")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    change = np.flatnonzero(np.diff(sorted_scores)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [n]])
    avg_rank = (starts + ends + 1) / 2.0  # 1-based average rank per tie group
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(avg_rank, ends - starts)
    pos_rank_sum = ranks[labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate(logits: np.ndarray, labels: np.ndarray, mask: np.ndarray, num_classes: int) -> float:
    """Split metric: argmax accuracy, or AUC-ROC for binary tasks."""
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        raise ValueError("empty split")
    if num_classes == 2:
        scores = ops.softmax_rows(logits[idx])[:, 1]
        return auc_roc(scores, labels[idx])
    pred = logits[idx].argmax(axis=1)
    return float((pred == labels[idx]).mean())


def _metrics(run: RunState, logits: np.ndarray):
    g = run.graph
    return tuple(
        evaluate(logits, g.labels, g.split == tag, g.num_classes) for tag in (TRAIN, VAL, TEST)
    )


def train(
    graph: AttributedGraph,
    config: TrainConfig,
    on_epoch: Optional[Callable] = None,
):
    """Run the full training loop; returns (RunSummary, [EpochReport]).

    Each epoch: training forward, backward, cosine-annealed Adam step for
    every parameter group, then an evaluation forward with dropout disabled,
    which keeps its layer-0 results for the next epoch's training forward.
    The reported test metric is taken at the epoch with the best validation
    metric. Throughput covers the loop only (forward+backward+step+eval).
    `on_epoch(report, eval_logits)` is called after each epoch when given.
    """
    run = build_run(graph, config)
    threads = config.threads if config.threads is not None else config.p
    reports = []
    with _WorkerPool(threads) as pool:
        if config.epochs == 0:
            _, logits, _ = epoch_forward(run, training=False, pool=pool)
            _, val_m, test_m = _metrics(run, logits)
            summary = RunSummary(
                best_epoch=-1,
                best_val=val_m,
                test_at_best_val=test_m,
                param_count=nn.count_params(run.shapes).total,
                epochs=0,
                throughput_eps=None,
            )
            return summary, reports

        total_seconds = 0.0
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            try:
                loss, _, ctx = epoch_forward(run, training=True, pool=pool)
                grads = epoch_backward(run, ctx, pool)
                lr = nn.cosine_lr(epoch, config.epochs, config.lr)
                apply_updates(run, grads, lr, pool)
                ctx = grads = None
                _, logits, _ = epoch_forward(
                    run, training=False, pool=pool, keep=epoch + 1 < config.epochs
                )
            except NumericError as err:
                raise NumericError(f"epoch {epoch}: {err}") from err
            train_m, val_m, test_m = _metrics(run, logits)
            wall = time.perf_counter() - t0
            total_seconds += wall
            report = EpochReport(
                epoch=epoch,
                lr=lr,
                loss=loss,
                train_metric=train_m,
                val_metric=val_m,
                test_metric=test_m,
                wall_ms=wall * 1e3,
            )
            reports.append(report)
            if on_epoch is not None:
                on_epoch(report, logits)

    best = max(range(len(reports)), key=lambda i: reports[i].val_metric)
    summary = RunSummary(
        best_epoch=best,
        best_val=reports[best].val_metric,
        test_at_best_val=reports[best].test_metric,
        param_count=nn.count_params(run.shapes).total,
        epochs=config.epochs,
        throughput_eps=config.epochs / total_seconds if total_seconds > 0 else None,
    )
    return summary, reports
