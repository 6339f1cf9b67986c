"""Command-line surface: training runs, benchmark sweeps, dataset validation.

Exit codes: 0 ok, 1 usage/config error, 2 data error, 3 numeric failure.
Set SLICEGCN_LOG=debug|info|warning to control verbosity.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import logging
import os
import resource
import sys
from pathlib import Path

from . import engine
from .engine import TrainConfig
from .graph import DatasetError, check_splits, load_dataset, synth_graph
from .nn import NumericError

log = logging.getLogger("slicegcn")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_CONFIG_FIELDS = dataclasses.fields(TrainConfig)

# Run-spec / flag defaults; the model's are TrainConfig's own.
DEFAULTS = {
    "dataset": None,
    **{f.name: f.default for f in _CONFIG_FIELDS},
    "out": "metrics.json",
    "no_timing": False,
    "synth_nodes": 400,
    "synth_classes": 3,
    "synth_feat": 16,
    "synth_pin": 0.1,
    "synth_pout": 0.01,
    "synth_signal": 1.0,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclasses.dataclass(frozen=True)
class MetricsArtifact:
    """Run summary plus per-epoch records, written out as JSON (`to_json`)."""

    schema_version: int
    config: dict
    summary: dict
    epochs: list

    def to_json(self) -> str:
        doc = {
            "schema_version": self.schema_version,
            "config": self.config,
            "summary": self.summary,
            "epochs": self.epochs,
        }
        return json.dumps(doc, indent=2) + "\n"


def build_artifact(config_echo: dict, summary, reports, include_timing: bool) -> MetricsArtifact:
    """Assemble the artifact; timing fields are nulled when excluded so the
    document is byte-for-byte reproducible at a fixed seed."""
    summary_doc = {
        "best_epoch": summary.best_epoch,
        "best_val": summary.best_val,
        "test_at_best_val": summary.test_at_best_val,
        "param_count": summary.param_count,
        "epochs": summary.epochs,
        "throughput_eps": summary.throughput_eps if include_timing else None,
    }
    epoch_docs = [
        {
            "epoch": r.epoch,
            "lr": r.lr,
            "loss": r.loss,
            "train_metric": r.train_metric,
            "val_metric": r.val_metric,
            "test_metric": r.test_metric,
            "wall_ms": r.wall_ms if include_timing else None,
        }
        for r in reports
    ]
    return MetricsArtifact(
        schema_version=SCHEMA_VERSION, config=config_echo, summary=summary_doc, epochs=epoch_docs
    )


def epochs_csv(reports) -> str:
    """Per-epoch curve data: epoch, lr, loss, val_metric."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "lr", "loss", "val_metric"])
    for r in reports:
        writer.writerow([r.epoch, repr(r.lr), repr(r.loss), repr(r.val_metric)])
    return buf.getvalue()


def _add_run_flags(p: argparse.ArgumentParser):
    # Defaults stay None here so run-spec values and built-in defaults can be
    # layered underneath explicit flags.
    p.add_argument("--dataset", help="dataset directory, or 'synth'")
    p.add_argument("--variant", choices=engine.VARIANTS)
    p.add_argument("-p", type=int, dest="p", help="number of simulated devices")
    p.add_argument("--epochs", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--slice-scale", type=float, dest="slice_scale")
    p.add_argument("--seed", type=int)
    p.add_argument("--precision", choices=engine.PRECISIONS)
    p.add_argument("--layer-form", choices=engine.LAYER_FORMS, dest="layer_form")
    p.add_argument(
        "--threads", type=int,
        help="upper bound on the run's threads, the master's included: it runs device 0 itself "
             "(default: the cores this process may use; 1 = sequential). These are all of the run's "
             "compute threads, as BLAS runs on one thread: they run the devices, and the master's "
             "large products, SpMMs, element-wise passes and optimizer steps in parts (with p = 1, "
             "one part per thread, the device's too). A run whose devices do too little work for a "
             "thread hand-off to pay runs everything on the master",
    )
    p.add_argument("--synth-nodes", type=int, dest="synth_nodes")
    p.add_argument("--synth-classes", type=int, dest="synth_classes")
    p.add_argument("--synth-feat", type=int, dest="synth_feat")
    p.add_argument("--synth-pin", type=float, dest="synth_pin")
    p.add_argument("--synth-pout", type=float, dest="synth_pout")
    p.add_argument("--synth-signal", type=float, dest="synth_signal")


def make_parser() -> _Parser:
    parser = _Parser(prog="slicegcn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run one training configuration", parents=[])
    _add_run_flags(t)
    t.add_argument("--spec", help="run-spec JSON file; explicit flags override it")
    t.add_argument("--out", help="metrics JSON path (CSV written alongside)")
    t.add_argument(
        "--no-timing",
        action="store_true",
        default=None,
        dest="no_timing",
        help="null out wall-time fields for byte-reproducible artifacts",
    )
    # run-spec values are type-checked against the flags that set the same keys
    t.set_defaults(spec_flags={a.dest: a for a in t._actions})

    b = sub.add_parser("bench", help="benchmark a list of (variant, p) cells")
    _add_run_flags(b)
    b.add_argument(
        "--cells",
        required=True,
        help="comma-separated variant[:p] cells, e.g. 'baseline,slice:2,slice:3'",
    )
    b.add_argument("--out", help="optional JSON path for the comparison table")

    v = sub.add_parser("validate-dataset", help="load a dataset directory and print statistics")
    v.add_argument("path")
    return parser


def _load_spec(path: str, flags: dict) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        raise UsageError(f"cannot read run spec: {e}") from e
    except json.JSONDecodeError as e:
        raise UsageError(f"run spec is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise UsageError("run spec must be a JSON object")
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise UsageError(f"unknown run-spec keys: {', '.join(sorted(unknown))}")
    return {key: _spec_value(key, value, flags[key]) for key, value in doc.items()}


def _spec_value(key: str, value, flag: argparse.Action):
    """A run-spec value as the flag setting `key` parses it, or a UsageError."""
    if value is None and DEFAULTS[key] is None:
        return value  # the built-in default
    if flag.nargs == 0:  # a store_true switch
        expected, ok = "true or false", isinstance(value, bool)
    elif flag.choices is not None:
        expected = f"one of {', '.join(flag.choices)}"
        ok = isinstance(value, str) and value in flag.choices
    else:
        kind = flag.type or str
        expected = kind.__name__
        ok = not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)
    if not ok:
        raise UsageError(f"run-spec key {key}: expected {expected}, got {json.dumps(value)}")
    return float(value) if flag.type is float else value


def _merge_settings(args: argparse.Namespace, spec: dict) -> dict:
    merged = dict(DEFAULTS)
    merged.update(spec)
    for key in DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _resolve_graph(settings: dict):
    dataset = settings["dataset"]
    if dataset is None:
        raise UsageError("--dataset is required (a directory path, or 'synth')")
    if dataset == "synth":
        n, classes = settings["synth_nodes"], settings["synth_classes"]
        graph = synth_graph(
            n=n, classes=classes, d_feat=settings["synth_feat"], p_in=settings["synth_pin"],
            p_out=settings["synth_pout"], signal=settings["synth_signal"], seed=settings["seed"],
        )
        try:
            check_splits(graph.split, graph.labels, classes)
        except ValueError as err:
            raise UsageError(f"--synth-nodes {n} --synth-classes {classes} gives unscorable splits: {err}") from err
        return graph
    return load_dataset(dataset)


def _make_config(settings: dict) -> TrainConfig:
    return TrainConfig(**{f.name: settings[f.name] for f in _CONFIG_FIELDS})


def _config_echo(settings: dict) -> dict:
    # threads and out are execution details, not model configuration; results
    # do not depend on them, and excluding them keeps artifacts byte-identical
    # across threaded and sequential executions of the same run.
    skip = {"no_timing", "threads", "out"}
    echo = {k: settings[k] for k in DEFAULTS if not k.startswith("synth_") and k not in skip}
    if settings["dataset"] == "synth":
        echo["synth"] = {
            k.removeprefix("synth_"): settings[k] for k in DEFAULTS if k.startswith("synth_")
        }
    return echo


def _log_epoch(report, _logits) -> None:
    """One debug line per epoch: loss, and the process's minor page faults
    and peak resident memory so far (getrusage). Log only: the artifact
    never sees it."""
    if log.isEnabledFor(logging.DEBUG):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        log.debug(
            "epoch %d loss=%.6f minor_faults=%d max_rss_kb=%d",
            report.epoch, report.loss, usage.ru_minflt, usage.ru_maxrss,
        )


def _check_out_path(path: Path) -> None:
    """Fails unless a file can be written at `path`: it is no directory, and
    its nearest existing ancestor is one. Checked before any epoch runs."""
    if path.is_dir():
        raise UsageError(f"cannot write {path}: it is a directory")
    for parent in path.parents:
        if parent.exists():
            if not parent.is_dir():
                raise UsageError(f"cannot write {path}: {parent} is not a directory")
            return


def _write(path: Path, text: str) -> None:
    """Writes `text` to `path`, making its directory; a failure is a UsageError."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror or err}") from err


def cmd_train(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec, args.spec_flags) if args.spec else {}
    settings = _merge_settings(args, spec)
    out_path = Path(settings["out"])
    _check_out_path(out_path)
    csv_path = out_path.with_suffix(".csv")
    if csv_path == out_path:
        raise UsageError(f"cannot write {out_path}: the per-epoch CSV goes to the same path")
    _check_out_path(csv_path)
    graph = _resolve_graph(settings)
    config = _make_config(settings)
    log.info(
        "training %s p=%d on %d nodes / %d features",
        config.variant,
        config.p,
        graph.num_nodes,
        graph.num_features,
    )
    summary, reports = engine.train(graph, config, on_epoch=_log_epoch)
    include_timing = not settings["no_timing"]
    artifact = build_artifact(_config_echo(settings), summary, reports, include_timing)

    _write(out_path, artifact.to_json())
    _write(csv_path, epochs_csv(reports))

    print(
        f"best_val={summary.best_val:.4f} test_at_best_val={summary.test_at_best_val:.4f} "
        f"params={summary.param_count}"
        + (f" throughput={summary.throughput_eps:.2f} eps" if include_timing and summary.throughput_eps else "")
    )
    print(f"wrote {out_path} and {csv_path}")
    return EXIT_OK


def _parse_cells(text: str) -> list:
    cells = []
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if ":" in raw:
            variant, _, p_str = raw.partition(":")
            try:
                p = int(p_str)
            except ValueError as e:
                raise UsageError(f"bad cell {raw!r}: device count must be an integer") from e
        else:
            variant, p = raw, 1
        if variant not in engine.VARIANTS:
            raise UsageError(f"bad cell {raw!r}: unknown variant {variant!r}")
        cells.append((variant, p))
    if not cells:
        raise UsageError("--cells must name at least one variant[:p] cell")
    return cells


def bench_table(rows: list) -> str:
    """Comparison table: one line per cell plus throughput ratios against
    the first cell."""
    base = rows[0]["throughput_eps"]
    header = f"{'cell':<16} {'metric':>8} {'epochs/s':>10} {'ratio':>7} {'params':>10}"
    lines = [header, "-" * len(header)]
    for r in rows:
        ratio = r["throughput_eps"] / base if base else float("nan")
        lines.append(
            f"{r['cell']:<16} {r['metric']:>8.4f} {r['throughput_eps']:>10.3f} "
            f"{ratio:>7.2f} {r['params']:>10}"
        )
    return "\n".join(lines)


def cmd_bench(args: argparse.Namespace) -> int:
    cells = _parse_cells(args.cells)
    settings = _merge_settings(args, {})
    out = Path(args.out) if args.out else None
    if out:
        _check_out_path(out)
    configs = [_make_config(dict(settings, variant=variant, p=p)) for variant, p in cells]
    graph = _resolve_graph(settings)
    for config in configs:
        try:
            engine.slice_strategy(config, graph.num_features)
        except ValueError as err:
            raise UsageError(f"bad cell '{config.variant}:{config.p}': {err}") from err
    rows = []
    for config in configs:
        log.info("bench cell %s p=%d", config.variant, config.p)
        summary, _ = engine.train(graph, config)
        rows.append(
            {
                "cell": f"{config.variant} p={config.p}",
                "metric": summary.test_at_best_val,
                "throughput_eps": summary.throughput_eps or 0.0,
                "params": summary.param_count,
            }
        )
    table = bench_table(rows)
    print(table)
    if out:
        _write(out, json.dumps({"cells": rows}, indent=2) + "\n")
        print(f"wrote {out}")
    return EXIT_OK


def cmd_validate_dataset(path: str) -> int:
    graph = load_dataset(path)
    rows, cols = graph.adj.edge_list().T
    loops = int((rows == cols).sum())  # a self-loop is stored once, any other edge twice
    print(f"nodes:    {graph.num_nodes}")
    print(f"edges:    {(graph.adj.num_edges - loops) // 2 + loops} (self-loops: {loops})")
    print(f"features: {graph.num_features}")
    print(f"classes:  {graph.num_classes}")
    counts = [int((graph.split == t).sum()) for t in (0, 1, 2)]
    print(f"split:    train={counts[0]} val={counts[1]} test={counts[2]}")
    return EXIT_OK


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SLICEGCN_LOG", "WARNING").upper())
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(args)
        if args.command == "bench":
            return cmd_bench(args)
        if args.command == "validate-dataset":
            return cmd_validate_dataset(args.path)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except DatasetError as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
