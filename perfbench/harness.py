"""Benchmark harness: set-up timing, the closed-loop training cells, checks,
and the per-layer metrics of the traced run.

All timing here is taken by the benchmark itself: around `load_dataset` and
`build_run` for set-up, and at epoch boundaries (after `build_run` returns,
then in the `on_epoch` callback) for training. The program's own `wall_ms`
and `throughput_eps` are never read, so timers added inside the program
cannot move these numbers.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

import hostspeed
import spans as sp
from workloads import Workload

# The run's --seed makes the graphs; the model's initialization and dropout
# seed is part of the cell, so seeds vary only the input.
MODEL_SEED = 0
LAYERS = 2  # GCN layers of every cell
P = 2  # devices of the sliced cell
# Set-up runs (setup_s is their median): SETUP_REPS runs for SETUP_SECONDS
# (whichever is longer) before training, and as many again after the first
# round. Two moments of the run average over some of the host's speed drift;
# always the same two keep the allocator's state (colder before training,
# warmer after) in the same proportion in every run.
SETUP_REPS, SETUP_SECONDS = 2, 1.0
# Host-speed probe groups (hostspeed.py) run between blocks of epochs at
# least PROBE_INTERVAL_S long, and between set-up reps, for PROBE_SHARE of
# the time since the previous group (at least one probe).
PROBE_SHARE, PROBE_INTERVAL_S = 0.1, 0.25
TRACED_SETUP_REPS = 3
PERCENTILES = (99.9, 99.0, 95.0, 90.0)

# ---------------------------------------------------------------------------
# Statistics


def summarize(samples: list) -> dict:
    """Median, sample count, and the highest listed percentile that still has
    at least ten samples beyond it (omitted when no percentile has)."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if n else None}
    ordered = sorted(samples)
    for pct in PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10.0:
            # Nearest rank: the smallest value with at least pct% of samples at or below it.
            out[f"p{pct:g}"] = ordered[max(0, math.ceil(pct * n / 100.0) - 1)]
            break
    return out


# ---------------------------------------------------------------------------
# Cells


@dataclass(frozen=True)
class Cell:
    label: str
    config: object  # slicegcn.engine.TrainConfig


def make_cells(workload: Workload) -> list:
    from slicegcn.engine import TrainConfig

    def cfg(variant, p):
        return TrainConfig(
            variant=variant, p=p, epochs=workload.epochs, hidden=workload.hidden,
            layers=LAYERS, seed=MODEL_SEED,
        )

    return [Cell("baseline", cfg("baseline", 1)), Cell("sliced", cfg(workload.sliced_variant, P))]


class EpochClock:
    """Epoch boundaries of one `engine.train` call, timed from outside.

    An epoch starts when `build_run` returns or the previous epoch has ended,
    and ends at its own `on_epoch` callback. With `probing`, host-speed probe
    groups run outside the epoch windows: one when `build_run` returns, one
    after each epoch that ends at least `PROBE_INTERVAL_S` after the last
    group, and one at `close()` unless the last epoch was just followed by
    one. Each group runs for `PROBE_SHARE` of the time since the previous
    group. The epochs between two groups form a block, and each is scaled by
    the two groups around its block. (Probing between every pair of
    few-millisecond epochs slowed them by 5-30%: the probe's after-effects
    then reach every epoch, where between blocks they reach one in dozens,
    which the median ignores.) When a tracer is given, its epoch counter
    follows.
    """

    def __init__(self, tracer: Optional[sp.Tracer] = None, probing: bool = False):
        self.windows: list = []  # (start, end) of each epoch
        self.losses: list = []
        self.probes: list = []  # hostspeed.Sample of each group
        self.group_before: list = []  # index in `probes` of the group before each epoch
        self.tracer = tracer
        self.probing = probing
        self._start = self._since = None

    def wrap_build_run(self, fn):
        def build_run(*args, **kwargs):
            run = fn(*args, **kwargs)
            self.begin()
            return run

        return build_run

    def on_epoch(self, report, _logits) -> None:
        self.losses.append(report.loss)
        self.tick()

    def begin(self) -> None:
        """Start the first epoch."""
        self._start = time.perf_counter()
        if self.probing:
            self._probe(PROBE_SHARE * PROBE_INTERVAL_S)
        if self.tracer is not None:
            self.tracer.epoch = 0

    def tick(self) -> None:
        """End an epoch; the next one starts."""
        end = time.perf_counter()
        self.windows.append((self._start, end))
        self._start = end
        if self.probing:
            self.group_before.append(len(self.probes) - 1)
            if end - self._since >= PROBE_INTERVAL_S:
                self._probe(PROBE_SHARE * (end - self._since))
        if self.tracer is not None:
            self.tracer.epoch = len(self.windows)

    def close(self) -> None:
        """Close the last block with a probe group, if it has none yet."""
        if self.probing and self.windows and self.group_before[-1] == len(self.probes) - 1:
            self._probe(PROBE_SHARE * (time.perf_counter() - self._since))

    def _probe(self, seconds: float) -> None:
        self.probes.append(hostspeed.sample(seconds))
        self._start = self._since = time.perf_counter()

    @property
    def epoch_seconds(self) -> list:
        return [hi - lo for lo, hi in self.windows]

    @property
    def scaled_seconds(self) -> list:
        """Each epoch time scaled to the reference host speed by the probe
        groups around its block; as measured when not probing."""
        if not self.probing:
            return self.epoch_seconds
        return [
            hostspeed.normalize(t, self.probes[g], self.probes[g + 1])
            for t, g in zip(self.epoch_seconds, self.group_before)
        ]


@dataclass
class CellRun:
    graph: int = 0  # index of the input graph it trained on
    epoch_seconds: list = field(default_factory=list)
    scaled_seconds: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    test_metric: Optional[float] = None
    error: Optional[str] = None


def run_cell(graph, cell: Cell, tracer: Optional[sp.Tracer] = None, probing: bool = False) -> CellRun:
    """Train one cell; an exception is recorded as a failed cell, not raised."""
    from slicegcn import engine

    clock = EpochClock(tracer, probing)
    out = CellRun()
    try:
        with sp.Patches() as patches:
            patches.wrap(engine, "build_run", clock.wrap_build_run)
            summary, _ = engine.train(graph, cell.config, on_epoch=clock.on_epoch)
        out.test_metric = summary.test_at_best_val
    except Exception as err:  # a failing cell is counted, and the run goes on
        out.error = _error(err)
    clock.close()
    out.epoch_seconds, out.scaled_seconds = clock.epoch_seconds, clock.scaled_seconds
    out.losses, out.windows = clock.losses, clock.windows
    return out


def _error(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def time_setup(dataset_dir, cells: list, min_reps: int, min_seconds: float, tracer: Optional[sp.Tracer] = None,
               probing: bool = False):
    """Load the dataset and build every cell's run, at least `min_reps` times
    and for at least `min_seconds`.

    A cell whose `build_run` raises is dropped from the later repetitions.
    The reps are timed like epochs, by an `EpochClock` (probed between
    blocks with `probing`). Returns (set-up seconds per rep, the same scaled
    to the reference host speed (as measured when not probing), the last
    graph, traced spans per rep as (load spans, {cell label: build_run
    spans}), {cell label: set-up error}).
    """
    from slicegcn import engine, graph as graph_mod

    clock = EpochClock(probing=probing)
    traced, errors = [], {}
    graph = None
    start = time.perf_counter()
    clock.begin()
    while len(clock.windows) < min_reps or time.perf_counter() - start < min_seconds:
        graph = None  # the previous graph is freed before the next load
        graph = graph_mod.load_dataset(dataset_dir)
        load_spans = tracer.take() if tracer else None
        cell_spans = {}
        for cell in cells:
            if cell.label in errors:
                continue
            try:
                engine.build_run(graph, cell.config)
            except Exception as err:  # a failing cell is counted, and the run goes on
                errors[cell.label] = _error(err)
            if tracer:
                cell_spans[cell.label] = tracer.take()
        clock.tick()
        traced.append((load_spans, cell_spans))
    clock.close()
    return clock.epoch_seconds, clock.scaled_seconds, graph, traced, errors


# ---------------------------------------------------------------------------
# Per-layer metrics


def _total(spans, name) -> float:
    return sum(s.duration for s in spans if s.name == name)


def epoch_layer_metrics(ss: list, lo: float, hi: float, self_time: dict) -> dict:
    """Layer metrics of one epoch from its spans and its [lo, hi] window."""
    wall = hi - lo
    spmm = [s for s in ss if s.name == "ops.spmm_norm"]
    adam = [s for s in ss if s.name == "nn.adam_step"]
    fusion_ids = {s.id for s in ss if s.name.startswith("slicing.feature_fusion")}
    workers = [s for s in ss if s.name.startswith("worker.")]
    fwd = [s for s in workers if s.name == "worker.forward"]
    bwd = [s for s in workers if s.name == "worker.backward"]
    fusion_s = _total(ss, "slicing.feature_fusion_forward") + _total(ss, "slicing.feature_fusion_backward")
    return {
        "ops.spmm_norm_s": sum(s.duration for s in spmm),
        "ops.spmm_norm_calls": len(spmm),
        "ops.spmm_norm_share": sum(s.duration for s in spmm) / wall,
        "ops.spmm_norm_gflop": sum(s.attrs["flop"] for s in spmm) / 1e9,
        "ops.dropout_s": _total(ss, "ops.dropout"),
        "nn.gcn_layer_forward_self_s": sum(self_time[s.id] for s in ss if s.name == "nn.gcn_layer_forward"),
        "nn.gcn_layer_backward_self_s": sum(self_time[s.id] for s in ss if s.name == "nn.gcn_layer_backward"),
        "nn.classifier_s": sum(
            s.duration for s in ss
            if s.name in ("nn.mlp_forward", "nn.mlp_backward") and s.parent not in fusion_ids
        ),
        "nn.adam_step_s": sum(s.duration for s in adam),
        "nn.adam_step_calls": len(adam),
        "slicing.fusion_forward_s": _total(ss, "slicing.feature_fusion_forward"),
        "slicing.fusion_backward_s": _total(ss, "slicing.feature_fusion_backward"),
        "slicing.fusion_share": fusion_s / wall,
        "engine.train_forward_s": _total(ss, "engine.train_forward"),
        "engine.eval_forward_s": _total(ss, "engine.eval_forward"),
        "engine.backward_s": _total(ss, "engine.epoch_backward"),
        "engine.update_s": _total(ss, "engine.apply_updates"),
        "engine.metrics_s": _total(ss, "engine.evaluate"),
        "engine.workers.concurrency": sp.worker_concurrency(ss),
        "engine.worker.imbalance": sp.worker_imbalance(ss),
        "engine.master.serial_share": sp.uncovered_share(workers, lo, hi),
        "engine.untraced_share": sp.uncovered_share(ss, lo, hi),
        "engine.comm.scatter_bytes": sum(s.attrs["in_bytes"] for s in fwd),
        "engine.comm.gather_bytes": sum(s.attrs["out_bytes"] for s in fwd),
        "engine.comm.grad_bytes": sum(s.attrs["in_bytes"] + s.attrs["out_bytes"] for s in bwd),
        # One round per direction of a device-parallel phase that moved data,
        # counted on device 0 (every device takes part in every phase).
        "engine.comm.rounds": sum(
            (s.attrs["in_bytes"] > 0) + (s.attrs["out_bytes"] > 0) for s in fwd + bwd if s.device == 0
        ),
        "engine.worker.cache_bytes": max((s.attrs["cache_bytes"] for s in fwd), default=0),
    }


def cell_layer_metrics(spans: list, windows: list) -> dict:
    """Median over epochs of each per-epoch layer metric."""
    self_time = sp.self_times(spans)
    by_epoch: dict = {}
    for s in spans:
        by_epoch.setdefault(s.epoch, []).append(s)
    rows = [
        epoch_layer_metrics(by_epoch.get(e, []), lo, hi, self_time) for e, (lo, hi) in enumerate(windows)
    ]
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


def setup_layer_metrics(traced: list, cells: list) -> dict:
    """Set-up layer metrics: medians over the traced set-up runs."""
    out = {
        "graph.load_dataset_s": statistics.median(_total(load, "graph.load_dataset") for load, _ in traced),
        "graph.build_csr_s": statistics.median(_total(load, "graph.build_csr") for load, _ in traced),
    }
    for cell in cells:
        out[f"{cell.label}.engine.build_run_s"] = statistics.median(
            _total(per_cell[cell.label], "engine.build_run") for _, per_cell in traced
        )
        out[f"{cell.label}.slicing.slice_feature_s"] = statistics.median(
            _total(per_cell[cell.label], "slicing.slice_feature") for _, per_cell in traced
        )
    return out


# ---------------------------------------------------------------------------
# One benchmark run


def _bits(losses: list) -> list:
    return [float(x).hex() for x in losses]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run(workload: Workload, seed: int, seconds: float, trace: bool, datasets: list) -> dict:
    """One benchmark run on `workload.graphs` input graphs, given as
    (dataset dir, input record) pairs; returns the full report (result line
    included). Set-up and tracing use the first graph."""
    from slicegcn import graph as graph_mod

    cells = make_cells(workload)
    probing = workload.probed
    dataset_dir = datasets[0][0]
    setup_samples, setup_scaled, graph, _, setup_errors = time_setup(
        dataset_dir, cells, SETUP_REPS, SETUP_SECONDS, probing=probing)
    graphs = [graph] + [graph_mod.load_dataset(d) for d, _ in datasets[1:]]
    checks = []
    for g, (_, info) in zip(graphs, datasets):
        checks.append((
            f"inputs_loaded_as_written[seed {info['seed']}]",
            (g.num_nodes, g.adj.num_edges, g.num_features, g.num_classes)
            == (info["nodes"], info["stored_edges"], info["features"], info["classes"]),
            f"{g.num_nodes} nodes, {g.adj.num_edges} stored edges",
        ))

    # Closed loop: rounds of (baseline, sliced), round r on graph r mod
    # len(graphs), while another round would end less than half a round past
    # the measuring time, and until every graph has had a round. A cell
    # whose set-up failed is not trained.
    runs = {cell.label: [] for cell in cells}
    deadline = time.perf_counter() + seconds
    rss = None
    healthy = [cell for cell in cells if cell.label not in setup_errors]
    rounds = 0
    while healthy:
        t0 = time.perf_counter()
        g = rounds % len(graphs)
        for cell in healthy:
            runs[cell.label].append(run_cell(graphs[g], cell, probing=probing))
            runs[cell.label][-1].graph = g
        rounds += 1
        if rss is None:
            # Peak memory over set-up and the first round: a fixed amount of
            # work, where later rounds add allocator slack that depends on timing.
            rss = peak_rss_mb()
            more_seconds, more_scaled, _, _, more_errors = time_setup(
                dataset_dir, healthy, SETUP_REPS, SETUP_SECONDS, probing=probing)
            setup_samples += more_seconds
            setup_scaled += more_scaled
            setup_errors.update(more_errors)
            healthy = [cell for cell in healthy if cell.label not in setup_errors]
        now = time.perf_counter()
        if rounds >= len(graphs) and now + (now - t0) / 2 > deadline:
            break

    # Each training is one operation, and so is each cell whose set-up failed.
    attempted = sum(len(r) for r in runs.values()) + len(setup_errors)
    failed = sum(r.error is not None for rs in runs.values() for r in rs) + len(setup_errors)
    metrics, cell_report = {}, {}
    for cell in cells:
        done = [r for r in runs[cell.label] if r.error is None]
        epoch_s = [t for r in runs[cell.label] for t in r.epoch_seconds]
        scaled_s = [t for r in runs[cell.label] for t in r.scaled_seconds]
        # The rate at the median (scaled) epoch time over every training in
        # the run: it ignores the host's slow spells, which move the run-long
        # mean more from run to run (see README).
        metrics[f"{cell.label}.epochs_per_s"] = 1.0 / statistics.median(scaled_s) if scaled_s else None
        # The first training on each graph stands for it (repeats are checked
        # to be identical). Mean over its epochs, then over the graphs: as
        # exact as the last-epoch loss, and far less dependent on which
        # graphs the seed drew (see README).
        first = {}
        for r in done:
            first.setdefault(r.graph, r)
        metrics[f"{cell.label}.mean_loss"] = (
            statistics.fmean(statistics.fmean(r.losses) for r in first.values()) if first else None
        )
        cell_report[cell.label] = {
            "variant": cell.config.variant,
            "p": cell.config.p,
            "trainings": len(runs[cell.label]),
            "errors": [e for e in [setup_errors.get(cell.label)] + [r.error for r in runs[cell.label]] if e],
            "epoch_s": summarize(epoch_s),
            "epoch_s_samples": epoch_s,
            "scaled_epoch_s": summarize(scaled_s),
            "scaled_epoch_s_samples": scaled_s,
            "test_metric": {datasets[g][1]["seed"]: r.test_metric for g, r in sorted(first.items())},
        }
        all_losses = [x for r in runs[cell.label] for x in r.losses]
        checks.append((f"{cell.label}.losses_finite", all(math.isfinite(x) for x in all_losses),
                       f"{len(all_losses)} losses"))
        checks.append((f"{cell.label}.repeats_identical",
                       all(_bits(r.losses) == _bits(first[r.graph].losses) for r in done),
                       f"{len(done)} trainings of {workload.epochs} epochs on {len(first)} graphs"))
        if workload.test_floor is not None:
            tm = [r.test_metric for r in done]
            checks.append((f"{cell.label}.test_metric_floor", bool(tm) and min(tm) >= workload.test_floor,
                           f"min {min(tm) if tm else None} vs floor {workload.test_floor}"))
    checks.append(("no_failed_cells", failed == 0, f"{failed} of {attempted} failed"))
    metrics["setup_s"] = statistics.median(setup_scaled)
    metrics["peak_rss_mb"] = rss if rss is not None else peak_rss_mb()

    report = {
        "workload": workload.name,
        "seed": seed,
        "inputs": [info for _, info in datasets],
        "cells": cell_report,
        "probed": probing,
        "setup_s": summarize(setup_samples),
        "setup_s_samples": setup_samples,
        "scaled_setup_s": summarize(setup_scaled),
        "scaled_setup_s_samples": setup_scaled,
        "end_to_end": metrics,
    }
    if trace:
        layer, traced_runs, spans_out = traced_pass(dataset_dir, healthy, runs, checks)
        attempted += len(traced_runs)
        failed += sum(r.error is not None for r in traced_runs)
        report["per_layer"] = layer
        report["spans"] = spans_out
        metrics = layer

    report["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
    report["result"] = {
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return report


def traced_pass(dataset_dir, cells: list, untraced: dict, checks: list):
    """Set up and train each cell once more under the tracer, on the first
    graph.

    Returns (per-layer metrics, the traced trainings, spans as JSON-ready
    dicts). A cell whose traced set-up fails counts as one failed training.
    Appends the check that traced and untraced loss sequences are
    bit-identical.
    """
    tracer = sp.Tracer()
    with sp.Patches() as patches:
        sp.install(tracer, patches)
        _, _, graph, setup_traced, errors = time_setup(dataset_dir, cells, TRACED_SETUP_REPS, 0.0, tracer)
        cells = [cell for cell in cells if cell.label not in errors]
        metrics = setup_layer_metrics(setup_traced, cells)
        traced_runs = [CellRun(error=e) for e in errors.values()]
        cell_spans = {}
        for cell in cells:
            tracer.epoch = None
            traced = run_cell(graph, cell, tracer)
            traced_runs.append(traced)
            spans = tracer.take()
            cell_spans[cell.label] = spans
            reference = next((r for r in untraced[cell.label] if r.error is None and r.graph == 0), None)
            same = traced.error is None and reference is not None and _bits(traced.losses) == _bits(reference.losses)
            checks.append((f"{cell.label}.trace_bit_identical", same,
                           f"{len(traced.losses)} traced losses, error={traced.error}"))
            layer = cell_layer_metrics(spans, traced.windows)
            untraced_epochs = [t for r in untraced[cell.label] for t in r.epoch_seconds]
            if traced.epoch_seconds and untraced_epochs:
                layer["trace.overhead"] = statistics.fmean(traced.epoch_seconds) / statistics.fmean(untraced_epochs)
            metrics.update({f"{cell.label}.{name}": value for name, value in layer.items()})
    spans_out = {label: [s.to_json() for s in ss] for label, ss in cell_spans.items()}
    return metrics, traced_runs, spans_out
