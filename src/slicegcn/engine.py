"""Parallel training orchestrator.

One run is p simulated devices plus a master. Per epoch, barrier-synchronous:

    master scatters per-device inputs (column slices, or one fused matrix)
    -> workers run their full-graph layer stacks independently, in parallel
    -> master gathers outputs in device order, concatenates column-wise,
       applies the classifier, computes the masked training loss
    -> master backpropagates the head, scatters per-device gradient blocks
    -> workers backpropagate their stacks and step their own optimizers
    -> master steps the head's optimizers.

Every device aggregates with the run's normalized operator Â = S A S
(`RunState.op`), made in `build_run`, or its training rows.

Each run owns one `ops.Pool` (`RunState.pool`), which `build_run` makes
and `train` closes. The master thread runs device 0's task of each phase
itself and hands the other devices' tasks to threads - 1 pool threads, so
`threads` counts the master's thread; by default it is the number of cores
the process may run on. A pool round costs a hand-off of the
interpreter lock per task, which a small device's work does not repay, so
`build_run` decides once per run, from the shapes alone: when one device's
forward (`forward_work`) is below `ops.MIN_TASK_WORK` multiply-adds, the
pool has one thread, so every round runs inline on the master and no
kernel splits: `threads` is an upper bound. Workers never talk to each
other; the only cross-thread payloads are the scattered inputs, the
gathered outputs, and the gradient blocks. Every worker owns its parameters,
optimizer state and dropout key, and each dropout mask is a function of
that key, the layer, the step and the element (`ops.dropout`), so results
are bit-identical for a fixed seed no matter how the OS schedules the
threads, and a single-threaded reference execution (threads=1) matches
exactly.

Every run holds the loaded OpenBLAS at one thread from start to end
(`blas.limit_threads`), so every core it uses is one of its own threads:
BLAS workers neither compete with the pool nor spin between calls, and the
results do not depend on the environment's BLAS thread setting. The
master's passes outside device rounds use the pool instead: the fusion
MLP's and the classifier's products run in blocks along the output's longer
side (`ops.Pool.matmul`), the shared Â·z in row parts of near-equal entries
(`ops.spmm_norm`), the element-wise passes and dropout in node-row ranges,
and each head group's Adam step in ranges, for every p in at most one
part per thread. A p = 1 run's device, which runs on the master in a
one-item round, splits its kernels on the same pool; the devices of a
p > 1 run get `ops.INLINE`, so no round starts inside a device task. Parts
depend on the thread count and the shapes only, and every split gives the
whole's bits, so `threads` leaves every bit as it is.

In the fusion variants every device gets the same input z. When a device's
layer 0 does not narrow, it aggregates z first, so the master computes Â·z
once per forward, in the fusion MLP's workspace, and every device's layer 0
takes it as its aggregate: the same kernel on the same input, so the same
bits. It stays there until the next forward, as the devices' backward
passes read it for their layer-0 weight gradients.

Each optimizer group (a device's layer stack, the classifier, the fusion
MLP, the slice encoding) keeps its parameters, gradients and Adam moments in
one flat buffer each (`nn.ParamGroup`): each layer holds views of its
parameters and of their gradients in it, backward passes write the
gradients through those views, and a step is one pass over it.

Each epoch ends with an evaluation forward, and the next epoch's training
forward runs with the same parameters. Layer 0 of a direct-slice device and
layer 0 of the fusion MLP see a fixed input, so their owners pass their
group's step count as the layer's `version`, and the evaluation pass's
layer-0 result serves the next training forward (see `nn`).

Every layer stack (a device's, the classifier, the fusion MLP) owns its
dropout key, its workspace (`ops.Workspace`) and its training forward's
cache (`cache`), which its backward pass consumes. Each layer and SpMM runs
in its owner's workspace, where its per-epoch arrays are made in the first
epoch and reused after: devices write their outputs straight into their
column blocks of the representation, which lives in the classifier's
workspace, and backward passes write gradients over forward arrays that
are dead by then (README, "Memory").
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import blas, nn, ops, slicing
from .graph import TRAIN, VAL, TEST, AttributedGraph, NormOperator
from .nn import NumericError

VARIANTS = ("baseline", "slice", "slice_se", "slice_ff", "slice_ffse")
PRECISIONS = ("f32", "f64")
LAYER_FORMS = (nn.FORM_SINGLE, nn.FORM_DUAL)


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings; these defaults are the CLI's defaults too.

    lr, dropout and slice scale follow the usual full-batch GCN settings;
    the rest are desk-scale defaults.
    """

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
    threads: Optional[int] = None  # None -> the cores this process may use; counts the master's; 1 -> in-thread

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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not (math.isfinite(self.slice_scale) and self.slice_scale > 0):
            raise ValueError(f"slice_scale must be finite and > 0, got {self.slice_scale}")
        if self.precision not in PRECISIONS:
            raise ValueError("precision must be f32 or f64")
        if self.layer_form not in LAYER_FORMS:
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
    """One simulated device: its layer stack, their optimizer group, dropout
    key, and the workspace its per-epoch arrays live in."""

    device_index: int
    layers: list  # of GcnLayerParams, views into group
    group: nn.ParamGroup
    key: int  # its dropout key (`ops.owner_key`)
    cache: Optional[list] = None  # per-layer forward caches, one epoch
    ws: ops.Workspace = field(default_factory=ops.Workspace)
    pool: ops.Pool = ops.INLINE  # the pool its kernels split on: the run's when p = 1

    def forward(self, op, rows, x, training: bool, dropout_rate: float, fixed_input: bool = False, *, out, agg=None):
        """Runs the stack on x over the run's operator `op`; the last layer
        writes the device's output into `out`.

        `fixed_input`: x is the same in every call, so layer 0 runs at the
        group's step count as its version (see `nn`). Layer li's dropout
        mask is that of `ops.dropout_key(self.key, li, self.group.t)`.
        `agg`, when given, is Â·x computed by the caller, which layer 0 uses
        as its aggregate; it must stay valid until the device's backward
        pass. `rows`, when not None, is the operator's rows R
        (`NormOperator.restrict`): the last layer then forms rows R of the
        output only, and `out` has m rows.
        """
        h = x
        caches = []
        last = len(self.layers) - 1
        version = self.group.t if fixed_input else None
        for li, layer in enumerate(self.layers):
            rate = dropout_rate if li < last else 0.0
            key = ops.dropout_key(self.key, li, self.group.t)
            h, c = nn.gcn_layer_forward(
                op, h, layer, key, training, rate, agg=agg, ws=self.ws, layer=li,
                out=out if li == last else None, version=version, rows=rows if li == last else None,
                pool=self.pool,
            )
            agg = version = None
            caches.append(c)
        self.cache = caches if training else None
        return h

    def backward(self, op, rows, d_h, need_dx: bool):
        """Writes the stack's gradients into its group; returns dX (None in direct mode).

        `op` and `rows` are the training forward's. It consumes that
        forward's caches: the input gradient of layer li > 0 is written over
        that layer's input, the output of layer li - 1, which nothing reads
        afterwards; so one forward serves one backward. dX goes to an array
        of the device's workspace, valid until its next backward.
        """
        caches, self.cache = self.cache, None
        d, last = d_h, len(self.layers) - 1
        for li in range(last, -1, -1):
            cache = caches[li]
            if li > 0:
                d_in = cache.h_in
            elif need_dx:
                d_in = self.ws.get("dx", cache.h_in.shape, cache.h_in.dtype)
            else:
                d_in = None
            d = nn.gcn_layer_backward(
                cache, d, self.layers[li], op, ws=self.ws, d_in=d_in, rows=rows if li == last else None, pool=self.pool
            )
        return d

    def step(self, lr: float):
        nn.adam_step(self.group, lr, self.pool)


@dataclass
class MasterHead:
    """Master-owned parameters: fusion (optional), encoding (optional), classifier.

    The classifier's workspace also holds the gathered representation
    ("rep") and the logits' gradient ("d_logits"), and the fusion MLP's the
    shared Â·z ("agg").
    """

    classifier: nn.MlpParams
    fusion: Optional[nn.MlpParams] = None
    encoding: Optional[nn.SliceEncoding] = None

    def groups(self) -> list:
        """The head's optimizer groups."""
        parts = (self.classifier, self.encoding, self.fusion)
        return [part.group for part in parts if part is not None]


@dataclass
class RunState:
    graph: AttributedGraph
    config: TrainConfig
    workers: list
    head: MasterHead
    features: np.ndarray  # run-precision copy of graph features
    op: NormOperator  # graph.adj's normalized operator, in run precision
    slices: Optional[list]  # precomputed per-device inputs (direct mode)
    train_idx: np.ndarray  # node indices of the train, val and test splits
    val_idx: np.ndarray
    test_idx: np.ndarray
    pool: ops.Pool  # the run's device rounds and split blocks
    train_rows: Optional[NormOperator] = None  # op at train_idx, made by the first training forward

    def training_rows(self) -> NormOperator:
        """The operator restricted to the training rows, made at the first
        call, on the calling thread, and read-only from then on."""
        if self.train_rows is None:
            self.train_rows = self.op.restrict(self.train_idx)
        return self.train_rows

    @property
    def param_count(self) -> int:
        """Total size of the optimizer groups."""
        return sum(g.size for g in [w.group for w in self.workers] + self.head.groups())


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


def forward_work(n: int, nnz: int, widths, dual: bool) -> int:
    """Multiply-adds of one device's forward through layers of widths
    widths[0] -> ... -> widths[-1] over a graph of n nodes and nnz stored
    edges: each layer's SpMM, on its narrow side, and its dense products,
    two in the dual form (W_agg and W_self) and one in the single form."""
    per_product = 2 if dual else 1
    return sum(nnz * min(a, b) + n * a * b * per_product for a, b in zip(widths, widths[1:]))


def available_cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pool_threads(config: TrainConfig, graph: AttributedGraph, layers: list) -> int:
    """Threads a run's pool uses: `config.threads` (default
    `available_cores()`), or 1 when one device's forward through `layers`
    is below `ops.MIN_TASK_WORK` multiply-adds."""
    widths = [layers[0].w_agg.shape[0]] + [layer.w_agg.shape[1] for layer in layers]
    work = forward_work(graph.num_nodes, graph.adj.num_edges, widths, layers[0].w_self is not None)
    if work < ops.MIN_TASK_WORK:
        return 1
    return config.threads if config.threads is not None else available_cores()


def slice_strategy(config: TrainConfig, d_feat: int) -> slicing.SliceStrategy:
    """The run's slice strategy over d_feat feature columns; raises
    ValueError when the config's p or slice scale does not fit them."""
    if config.p > d_feat:
        raise ValueError(f"p={config.p} devices exceed the {d_feat} feature columns")
    return slicing.slice_strategy_generator(d_feat, config.p, config.slice_scale)


def build_run(graph: AttributedGraph, config: TrainConfig) -> RunState:
    """Initialize workers and head from per-purpose RNG streams, and give
    each owner its dropout key from the same seed and stream id.

    A device's input is its feature slice, or the fusion output; each device
    layer is ceil(hidden / p) wide. These widths are derived here only, and
    the built arrays are the run's record of them. The run's pool has
    `pool_threads` threads and cuts the master's kernels into at most one
    part per thread; with p = 1 the device's kernels split on it too. Its
    owner closes it.
    """
    d_feat = graph.num_features
    strategy = slice_strategy(config, d_feat)
    w_in = slicing.fusion_output_width(d_feat, config.p) if config.use_ff else strategy.width
    h_out = -(-config.hidden // config.p)
    widths = [w_in] + [h_out] * config.layers
    dtype = config.dtype

    seed, rate = config.seed, config.dropout
    workers = []
    for i in range(config.p):
        layers, group = nn.init_gcn_layers(widths, ops.rng_stream(seed, i), dtype, config.layer_form)
        workers.append(WorkerState(device_index=i, layers=layers, group=group, key=ops.owner_key(seed, i)))

    cls, ff = ops.STREAM_CLASSIFIER, ops.STREAM_FUSION
    classifier_sizes = [config.p * h_out, config.hidden, graph.num_classes]
    classifier = nn.init_mlp(classifier_sizes, ops.rng_stream(seed, cls), dtype, rate, ops.owner_key(seed, cls))
    head = MasterHead(classifier=classifier)
    if config.use_ff:
        fusion_rng = ops.rng_stream(seed, ff)
        head.fusion = slicing.init_fusion(d_feat, config.p, fusion_rng, dtype, rate, ops.owner_key(seed, ff))
    if config.use_se:
        enc_rng = ops.rng_stream(seed, ops.STREAM_ENCODING)
        head.encoding = nn.init_slice_encoding(config.p, h_out, enc_rng, dtype)

    features = np.ascontiguousarray(graph.features, dtype=dtype)
    slices = None if config.use_ff else slicing.slice_feature(features, strategy)
    pool = ops.Pool(pool_threads(config, graph, workers[0].layers))
    if config.p == 1:
        workers[0].pool = pool
    return RunState(
        graph=graph,
        config=config,
        workers=workers,
        head=head,
        features=features,
        op=NormOperator.of(graph.adj, dtype),
        slices=slices,
        train_idx=np.flatnonzero(graph.split == TRAIN),
        val_idx=np.flatnonzero(graph.split == VAL),
        test_idx=np.flatnonzero(graph.split == TEST),
        pool=pool,
    )


def epoch_forward(run: RunState, training: bool):
    """One full forward pass; returns (training-split loss, logits).

    A training forward runs the devices' last layers and the classifier on
    the training rows only (`RunState.training_rows`, made on the master
    before the first device round), as the loss reads nothing else, so its
    representation and logits have m rows, one per training node in order.
    An evaluation forward runs the same code on all rows. A training
    forward leaves the caches its backward reads with their owners, and the
    logits' gradient in the classifier's workspace.
    """
    cfg, op = run.config, run.op
    head, classifier, pool = run.head, run.head.classifier, run.pool
    rows = run.training_rows() if training else None

    agg = None
    if cfg.use_ff:
        fusion = head.fusion
        z = slicing.feature_fusion_forward(run.features, fusion, training, version=fusion.group.t, pool=pool)
        inputs = [z] * cfg.p
        if not nn.narrows(run.workers[0].layers[0]):
            # every device's layer 0 would aggregate this same z
            agg = ops.spmm_norm(op, z, fusion.ws.get("agg", z.shape, z.dtype), ws=fusion.ws, pool=pool)
    else:
        inputs = run.slices

    # each device writes its output straight into its column block of the
    # representation (the gather), which the slice encoding then updates in place
    n = run.graph.num_nodes
    rep_shape = (n if rows is None else rows.num_rows, classifier.layers[0][0].shape[0])
    rep = classifier.ws.get("rep", rep_shape, run.features.dtype, rows=n)
    width = rep.shape[1] // cfg.p  # every device's output is equally wide
    blocks = [rep[:, i * width : (i + 1) * width] for i in range(cfg.p)]

    def fwd(item):
        worker, x, out = item
        return worker.forward(op, rows, x, training, cfg.dropout, fixed_input=not cfg.use_ff, out=out, agg=agg)

    pool.run(fwd, list(zip(run.workers, inputs, blocks)))
    if cfg.use_se:
        nn.slice_encode(rep, head.encoding)

    logits = nn.mlp_forward(rep, classifier, training, rows=rows, pool=pool)
    train_labels = run.graph.labels[run.train_idx]
    if training:
        d_logits = classifier.ws.get("d_logits", logits.shape, logits.dtype)
        loss, _ = ops.softmax_cross_entropy(logits, train_labels, out=d_logits)
    else:
        loss = ops.cross_entropy(logits[run.train_idx], train_labels)
    if not np.isfinite(loss):
        raise NumericError(f"{'training' if training else 'evaluation'} forward: non-finite training loss ({loss})")
    return loss, logits


def epoch_backward(run: RunState, lr: float) -> None:
    """Reverse the last training forward: head backward, scatter blocks,
    worker backward. It consumes the owners' forward caches.

    Every group's gradients land in its own buffer. Each device steps its
    optimizer at `lr` at the end of its backward task; the head's groups
    step in `apply_updates`.
    """
    cfg, op, rows = run.config, run.op, run.training_rows()
    head, classifier, pool = run.head, run.head.classifier, run.pool

    # the representation (the classifier's input) is dead once the
    # classifier's weight gradients are formed, so its gradient is written over it
    rep = classifier.cache[0][0]
    d_logits = classifier.ws.get("d_logits", (len(rep), classifier.layers[-1][1].size), rep.dtype)
    d_rep = nn.mlp_backward(d_logits, classifier, d_in=rep, pool=pool)

    if cfg.use_se:  # before the devices' backward passes consume their blocks
        nn.slice_encode_backward(d_rep, head.encoding)
    width = d_rep.shape[1] // cfg.p  # every device's output is equally wide
    blocks = [d_rep[:, i * width : (i + 1) * width] for i in range(cfg.p)]

    def bwd(item):
        worker, d_h = item
        dx = worker.backward(op, rows, d_h, need_dx=cfg.use_ff)
        worker.step(lr)
        return dx

    dxs = pool.run(bwd, list(zip(run.workers, blocks)))

    if cfg.use_ff:
        d_z = dxs[0]  # device 0's own array, dead after this sum
        for dx in dxs[1:]:  # fixed device order
            d_z += dx
        slicing.feature_fusion_backward(d_z, head.fusion, pool=pool)


def apply_updates(run: RunState, lr: float) -> None:
    """The head's groups take their optimizer step at the epoch's lr, each
    in ranges on the run's pool (the devices stepped at the end of their
    backward tasks)."""
    for group in run.head.groups():
        nn.adam_step(group, lr, run.pool)


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


def evaluate(logits: np.ndarray, labels: np.ndarray, idx: np.ndarray, num_classes: int) -> float:
    """Metric over the nodes `idx` of a split: argmax accuracy, or AUC-ROC for binary tasks."""
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
        evaluate(logits, g.labels, idx, g.num_classes) for idx in (run.train_idx, run.val_idx, run.test_idx)
    )


@np.errstate(all="ignore")
def train(
    graph: AttributedGraph,
    config: TrainConfig,
    on_epoch: Optional[Callable] = None,
):
    """Run the full training loop; returns (RunSummary, [EpochReport]).

    Each epoch: training forward, backward (each device steps its optimizer
    at the end of its backward task), a cosine-annealed Adam step for each
    of the head's groups, then an evaluation forward with dropout disabled,
    whose layer-0 results the next epoch's training forward reuses.
    The reported test metric is taken at the epoch with the best validation
    metric. Throughput covers the loop only (forward+backward+step+eval).
    `on_epoch(report, eval_logits)` is called after each epoch when given.
    `eval_logits` is the classifier's output array, which every forward
    rewrites: it is valid until the callback returns, and a callback that
    keeps the logits keeps a copy. The run sets the loaded OpenBLAS to one
    thread and gives the caller's count back, and the run's pool threads
    end, when it returns or raises. Numpy warns of nothing in the run, its
    pool threads included (`np.errstate`): a `NumericError` names the fault.
    """
    run = build_run(graph, config)
    reports = []
    total_seconds = 0.0
    with blas.limit_threads(1), run.pool:
        if config.epochs == 0:
            _, logits = epoch_forward(run, training=False)
            _, val_m, test_m = _metrics(run, logits)
            best = (-1, val_m, test_m)
        for epoch in range(config.epochs):
            t0 = time.perf_counter()
            try:
                loss, _ = epoch_forward(run, training=True)
                lr = nn.cosine_lr(epoch, config.epochs, config.lr)
                epoch_backward(run, lr)
                apply_updates(run, lr)
                _, logits = epoch_forward(run, training=False)
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

    if reports:
        i = max(range(len(reports)), key=lambda i: reports[i].val_metric)
        best = (i, reports[i].val_metric, reports[i].test_metric)
    summary = RunSummary(
        *best,
        param_count=run.param_count,
        epochs=config.epochs,
        throughput_eps=config.epochs / total_seconds if total_seconds > 0 else None,
    )
    return summary, reports
