"""SHA-256 digests of training curves over a grid of run configurations.

    python3 tools/curve_digests.py                  # one line per cell: its digest
    python3 tools/curve_digests.py --against HEAD~1 # the cells whose digests differ

Run from the root of a source checkout. A cell is one `engine.train` run,
and its digest is a SHA-256 over each epoch's loss and train, val and test
metrics and the last evaluation's logits, as their bytes. The grid is every
variant x valid p in 1-3 x layers 1-3 x eq1/eq6 x f32/f64 x an undirected
and a directed graph x threads 1-3 x dropout 0 and 0.5 x hidden 12 and 6
(on the 8 features, every device's layer 0 widens or keeps its width at
12, and narrows at 6), at the default floors and with `ops.MIN_TASK_WORK`
and `ops.MIN_PASS_ELEMENTS` forced to 1, so that every kernel that can
split does: 7488 cells, 4 epochs each.

`--against REV` extracts REV with `git archive` into a temporary
directory, runs the same grid on its `src/` in a subprocess while this
checkout's grid runs, removes the directory, and prints the cells whose
digests differ. The exit code is 1 when any does. A cell whose run raises
has the exception as its digest. `--src DIR` runs the grid
on the program in DIR; `--json` prints the digests as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("baseline", "slice", "slice_se", "slice_ff", "slice_ffse")


def graphs(slicegcn):
    """An undirected 160-node synth graph, and a 500-edge directed graph
    on the same nodes, features, labels and splits."""
    g = slicegcn.synth_graph(n=160, classes=3, d_feat=8, p_in=0.1, p_out=0.01, signal=1.0, seed=0)
    rng = np.random.default_rng(1)
    pairs = set()
    while len(pairs) < 500:
        u, v = (int(x) for x in rng.integers(0, g.num_nodes, 2))
        if u != v:
            pairs.add((u, v))
    adj = slicegcn.graph.build_csr(g.num_nodes, sorted(pairs), symmetrize=False)
    directed = slicegcn.graph.AttributedGraph(adj, g.features, g.labels, g.num_classes, g.split)
    return {"undirected": g, "directed": directed}


def cells():
    """(name, config fields, graph, forced floors) of every cell of the grid."""
    for forced, variant, p, layers, form, precision, graph, threads, dropout, hidden in itertools.product(
        (False, True), VARIANTS, (1, 2, 3), (1, 2, 3), ("eq1", "eq6"), ("f32", "f64"),
        ("undirected", "directed"), (1, 2, 3), (0.0, 0.5), (12, 6),
    ):
        if variant == "baseline" and p != 1:
            continue
        name = (f"{variant} p={p} layers={layers} {form} {precision} {graph} threads={threads} "
                f"dropout={dropout} hidden={hidden} floors={'forced' if forced else 'default'}")
        fields = dict(variant=variant, p=p, layers=layers, layer_form=form, precision=precision,
                      threads=threads, dropout=dropout, epochs=4, hidden=hidden, lr=0.01, seed=0)
        yield name, fields, graph, forced


def digests(src: Path) -> dict:
    """The digest of every cell, with slicegcn imported from `src`."""
    sys.path.insert(0, str(src))
    import slicegcn
    from slicegcn import engine, ops

    if Path(slicegcn.__file__).resolve().parent != (src / "slicegcn").resolve():
        raise SystemExit(f"imported slicegcn from {slicegcn.__file__}, not from {src}")
    floors = (ops.MIN_TASK_WORK, ops.MIN_PASS_ELEMENTS)
    inputs = graphs(slicegcn)
    out = {}
    for name, fields, graph, forced in cells():
        ops.MIN_TASK_WORK, ops.MIN_PASS_ELEMENTS = (1, 1) if forced else floors
        h = hashlib.sha256()
        last = []

        def on_epoch(report, logits):
            h.update(np.array([report.loss, report.train_metric, report.val_metric, report.test_metric]).tobytes())
            last[:] = [logits.tobytes()]

        try:
            engine.train(inputs[graph], engine.TrainConfig(**fields), on_epoch=on_epoch)
        except Exception as err:  # a cell that fails has the failure as its digest
            out[name] = f"{type(err).__name__}: {err}"
            continue
        h.update(last[0])
        out[name] = h.hexdigest()
    ops.MIN_TASK_WORK, ops.MIN_PASS_ELEMENTS = floors
    return out


def against(rev: str) -> int:
    """Runs the grid on REV and on this checkout; prints the cells whose
    digests differ, and returns 1 if any does."""
    with tempfile.TemporaryDirectory(prefix="curve-digests-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        other = subprocess.Popen([sys.executable, __file__, "--src", str(Path(tmp) / "src"), "--json"],
                                 stdout=subprocess.PIPE, text=True)
        try:
            mine = digests(ROOT / "src")
        finally:
            theirs_text, _ = other.communicate()
        if other.returncode != 0:
            raise SystemExit(f"the grid on {rev} failed (exit code {other.returncode})")
    theirs = json.loads(theirs_text)
    differ = [name for name in mine if theirs.get(name) != mine[name]]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} of {len(mine)} cells differ from {rev}")
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="SHA-256 digests of slicegcn training curves over a grid")
    ap.add_argument("--against", metavar="REV", help="compare with the grid of git revision REV")
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the directory slicegcn is imported from")
    ap.add_argument("--json", action="store_true", help="print the digests as one JSON object")
    args = ap.parse_args(argv)
    if args.against:
        return against(args.against)
    result = digests(args.src.resolve())
    if args.json:
        print(json.dumps(result))
    else:
        for name, digest in result.items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
