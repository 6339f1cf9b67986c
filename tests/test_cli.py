import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from slicegcn import cli, engine, nn, ops
from slicegcn.cli import MetricsArtifact
from slicegcn.graph import AttributedGraph, build_csr, save_dataset, synth_graph

SYNTH_ARGS = ["--dataset", "synth", "--synth-feat", "12", "--epochs", "4", "--seed", "7"]


def run_cli(args):
    return cli.main(args)


def _parse_artifact(text: str) -> MetricsArtifact:
    doc = json.loads(text)
    return MetricsArtifact(
        schema_version=doc["schema_version"], config=doc["config"], summary=doc["summary"], epochs=doc["epochs"]
    )


class TestTrainCommand:
    def test_identical_runs_identical_artifacts(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            out = d / "metrics.json"
            rc = run_cli(["train", *SYNTH_ARGS, "--variant", "slice", "-p", "2",
                          "--no-timing", "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
            blobs.append((d / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[2]
        assert blobs[1] == blobs[3]

    @pytest.mark.parametrize("variant,p", [("baseline", 1), ("slice_ffse", 2)])
    def test_artifacts_do_not_depend_on_the_thread_count(self, tmp_path, monkeypatch, submitted, variant, p):
        # a graph where the master's SpMM, element-wise passes, dropout masks
        # and products split (n x hidden = 3200 x 256, ~400k stored edges): a
        # p = 1 run cuts them into one part per thread, and its device's
        # kernels too; a p = 2 run cuts the head's into p parts
        caller, on_pool = threading.get_ident(), set()

        def watch(module, name):
            fn = getattr(module, name)

            def watched(*args):
                if threading.get_ident() != caller:
                    on_pool.add(name)
                return fn(*args)

            monkeypatch.setattr(module, name, watched)

        passes = [(ops, "_scale_rows"), (ops, "_gather_reduce"), (ops, "_dropout_rows"), (nn, "_activate"),
                  (nn, "_deactivate")]
        for module, name in passes:
            watch(module, name)
        args = ["train", "--dataset", "synth", "--synth-nodes", "3200", "--synth-classes", "2",
                "--synth-feat", "200", "--synth-pin", "0.07", "--synth-pout", "0.008", "--hidden", "256",
                "--epochs", "2", "--seed", "3", "--variant", variant, "-p", str(p), "--no-timing"]
        blobs = []
        for threads in ("1", "2", "3"):
            submitted.clear()
            on_pool.clear()
            out = tmp_path / threads / "m.json"
            out.parent.mkdir()
            assert run_cli([*args, "--threads", threads, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
            products = "Pool.matmul.<locals>.<lambda>" in {fn.__qualname__ for fn in submitted}
            if threads == "1":
                assert not submitted and not on_pool
            else:
                # the master's Â·z (p = 2) is too narrow for its row passes to split
                split = {name for _, name in passes} - ({"_scale_rows"} if p > 1 else set())
                assert products and split <= on_pool
        assert blobs[0] == blobs[1] == blobs[2]

    def test_zero_devices_usage_error(self, tmp_path):
        rc = run_cli(["train", *SYNTH_ARGS, "-p", "0", "--out", str(tmp_path / "m.json")])
        assert rc == cli.EXIT_USAGE

    def test_unknown_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train", *SYNTH_ARGS, "--frobnicate"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_every_flag_documented_in_help(self):
        parser = cli.make_parser()
        sub = parser._subparsers._group_actions[0].choices
        for name, sp in sub.items():
            text = sp.format_help()
            for action in sp._actions:
                for opt in action.option_strings:
                    assert opt in text, f"{name}: {opt} missing from --help"

    def test_artifact_param_count_matches_accounting(self, tmp_path, wide_graph):
        out = tmp_path / "m.json"
        rc = run_cli(["train", "--dataset", "synth", "--synth-nodes", "90", "--synth-classes", "18",
                      "--synth-feat", "300", "--epochs", "4", "--seed", "7",
                      "--variant", "slice_ffse", "-p", "2", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        cfg = engine.TrainConfig(variant="slice_ffse", p=2, epochs=4, hidden=64,
                                 layers=2, seed=7)
        # fusion (300*300 + 300) + (300*151 + 151) = 135,751; two devices of
        # (2*151*32 + 32) + (2*32*32 + 32) = 11,776; encoding 2*32 = 64;
        # classifier (64*64 + 64) + (64*18 + 18) = 5,330
        expect = engine.build_run(wide_graph, cfg).param_count
        assert doc["summary"]["param_count"] == expect == 135_751 + 2 * 11_776 + 64 + 5_330

    def test_csv_row_count_equals_epochs(self, tmp_path):
        out = tmp_path / "m.json"
        rc = run_cli(["train", *SYNTH_ARGS, "--out", str(out)])
        assert rc == 0
        lines = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert lines[0] == "epoch,lr,loss,val_metric"
        assert len(lines) - 1 == 4

    def test_artifact_round_trip(self, tmp_path):
        out = tmp_path / "m.json"
        run_cli(["train", *SYNTH_ARGS, "--out", str(out)])
        art = _parse_artifact(out.read_text())
        assert _parse_artifact(art.to_json()) == art
        assert art.to_json() == out.read_text()

    def test_run_spec_file(self, tmp_path):
        spec = {"dataset": "synth", "variant": "slice", "p": 2, "epochs": 3,
                "synth_feat": 10, "seed": 1, "out": str(tmp_path / "s.json")}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = run_cli(["train", "--spec", str(spec_path)])
        assert rc == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["config"]["variant"] == "slice"
        assert doc["config"]["p"] == 2
        assert len(doc["epochs"]) == 3

    def test_run_spec_and_flags_give_identical_artifacts(self, tmp_path):
        # a JSON integer for a float flag is the float the flag parses
        spec = {"dataset": "synth", "epochs": 2, "lr": 1, "synth_feat": 10, "seed": 7,
                "no_timing": True, "out": str(tmp_path / "s.json")}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert run_cli(["train", "--spec", str(spec_path)]) == 0
        assert run_cli(["train", "--dataset", "synth", "--epochs", "2", "--lr", "1",
                        "--synth-feat", "10", "--seed", "7", "--no-timing",
                        "--out", str(tmp_path / "f.json")]) == 0
        assert (tmp_path / "s.json").read_bytes() == (tmp_path / "f.json").read_bytes()

    def test_flags_override_run_spec(self, tmp_path):
        spec = {"dataset": "synth", "epochs": 3, "synth_feat": 10,
                "out": str(tmp_path / "s.json")}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = run_cli(["train", "--spec", str(spec_path), "--epochs", "2"])
        assert rc == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["summary"]["epochs"] == 2

    def test_unknown_spec_key_rejected(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"dataset": "synth", "warp_factor": 9}))
        rc = run_cli(["train", "--spec", str(spec_path)])
        assert rc == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "spec",
        [{"p": "2"}, {"epochs": 2.5}, {"hidden": True}, {"synth_nodes": "x"}, {"dataset": 5},
         {"variant": "nope"}, {"no_timing": 1}],
        ids=lambda spec: next(iter(spec)),
    )
    def test_mistyped_spec_value_names_key(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"dataset": "synth", "epochs": 1, **spec}))
        rc = run_cli(["train", "--spec", str(spec_path), "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert f"run-spec key {next(iter(spec))}:" in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"),
         ("--slice-scale", "nan"), ("--slice-scale", "inf"), ("--slice-scale", "0")],
    )
    def test_bad_rate_or_scale_fails_before_epoch_0(self, tmp_path, capsys, monkeypatch, flag, value):
        forwards = []
        monkeypatch.setattr(engine, "epoch_forward", lambda *a, **k: forwards.append(1))
        rc = run_cli(["train", *SYNTH_ARGS, flag, value, "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert flag.removeprefix("--").replace("-", "_") in err and "Traceback" not in err
        assert not forwards

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_run_exits_numeric(self, tmp_path):
        rc = run_cli(["train", *SYNTH_ARGS, "--lr", "1e12", "--epochs", "20",
                      "--out", str(tmp_path / "m.json")])
        assert rc == cli.EXIT_NUMERIC

    def test_dropout_that_drops_every_element(self, tmp_path, capsys):
        # ceil(0.99999 * 2**16) is 2**16, past every 16-bit mask field
        rc = run_cli(["train", *SYNTH_ARGS, "--dropout", "0.99999", "--epochs", "1",
                      "--out", str(tmp_path / "m.json")])
        assert rc == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_dataset_directory(self, tmp_path):
        rc = run_cli(["train", "--dataset", str(tmp_path / "nope"), "--out",
                      str(tmp_path / "m.json")])
        assert rc == cli.EXIT_DATA

    @pytest.mark.parametrize("level", ["debug", None])
    def test_per_epoch_memory_line_only_under_debug(self, tmp_path, level):
        # a fresh interpreter, so that SLICEGCN_LOG configures logging as it does for a user
        env = {k: v for k, v in os.environ.items() if k != "SLICEGCN_LOG"}
        if level:
            env["SLICEGCN_LOG"] = level
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / "m.json"
        done = subprocess.run(
            [sys.executable, "-m", "slicegcn.cli", "train", *SYNTH_ARGS, "--out", str(out), "--no-timing"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        lines = [line for line in done.stderr.splitlines() if "minor_faults=" in line]
        assert len(lines) == (4 if level else 0)
        if level:
            assert all("loss=" in line and "max_rss_kb=" in line for line in lines)
        assert "minor_faults" not in out.read_text()


class TestOutPath:
    """A path the results cannot be written to fails before any training."""

    @pytest.fixture
    def trains(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli.engine, "train", lambda *a, **k: calls.append(a))
        return calls

    @staticmethod
    def _run(command, out):
        extra = ["--cells", "slice:2"] if command == "bench" else []
        return run_cli([command, *SYNTH_ARGS, *extra, "--out", str(out)])

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_directory_out_fails_before_training(self, tmp_path, capsys, trains, command):
        assert self._run(command, tmp_path) == cli.EXIT_USAGE
        assert not trains and f"cannot write {tmp_path}: it is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_out_under_a_file_fails_before_training(self, tmp_path, capsys, trains, command):
        blocker = tmp_path / "f"
        blocker.write_text("x")
        assert self._run(command, blocker / "m.json") == cli.EXIT_USAGE
        assert not trains and f"{blocker} is not a directory" in capsys.readouterr().err

    def test_csv_out_fails_before_training(self, tmp_path, capsys, trains):
        # the per-epoch CSV would be written over the metrics JSON
        out = tmp_path / "m.csv"
        assert self._run("train", out) == cli.EXIT_USAGE
        assert not trains and not out.exists() and f"cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,name", [("train", "m.json"), ("train", "m.csv"), ("bench", "b.json")])
    def test_write_failure_after_training_is_a_usage_error(self, tmp_path, capsys, command, name):
        # a dangling symlink passes the checks before training; writing through it fails
        link = tmp_path / name
        link.symlink_to(tmp_path / "gone" / name)
        out = link if name != "m.csv" else tmp_path / "m.json"
        extra = ["--cells", "slice:2"] if command == "bench" else []
        rc = run_cli([command, *SYNTH_ARGS, "--epochs", "1", *extra, "--out", str(out)])
        assert rc == cli.EXIT_USAGE
        assert f"error: cannot write {link}: No such file or directory" in capsys.readouterr().err

    def test_bench_makes_the_out_directory(self, tmp_path):
        out = tmp_path / "new" / "bench.json"
        assert self._run("bench", out) == cli.EXIT_OK
        assert len(json.loads(out.read_text())["cells"]) == 1


class TestBenchCommand:
    def test_three_cells_all_live(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = run_cli(["bench", "--dataset", "synth", "--synth-nodes", "300",
                      "--synth-feat", "12", "--epochs", "3", "--seed", "2",
                      "--cells", "baseline,slice:2,slice:3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["cells"]) == 3
        assert all(c["throughput_eps"] > 0 for c in doc["cells"])
        table = capsys.readouterr().out
        assert "baseline p=1" in table and "slice p=3" in table and "ratio" in table

    def test_empty_cells_usage_error(self):
        rc = run_cli(["bench", "--dataset", "synth", "--cells", ","])
        assert rc == cli.EXIT_USAGE

    def test_every_cell_checked_before_any_trains(self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli.engine, "train", lambda *a, **k: calls.append(a))
        rc = run_cli(["bench", "--dataset", "synth", "--cells", "slice:2,baseline:2"])
        assert rc == cli.EXIT_USAGE and not calls
        assert "baseline variant runs on a single device" in capsys.readouterr().err

    @pytest.mark.parametrize("cells,extra,bad", [
        ("slice:2,slice:99", [], "slice:99"),  # more devices than the 16 feature columns
        ("slice:2,slice:1", ["--slice-scale", "2"], "slice:1"),  # a 32-column slice of 16
    ])
    def test_cells_checked_against_the_features_before_any_trains(self, monkeypatch, capsys, cells, extra, bad):
        calls = []
        monkeypatch.setattr(cli.engine, "train", lambda *a, **k: calls.append(a))
        rc = run_cli(["bench", "--dataset", "synth", "--cells", cells, *extra])
        assert rc == cli.EXIT_USAGE and not calls
        assert f"bad cell '{bad}'" in capsys.readouterr().err

    def test_bad_cell_spec(self):
        rc = run_cli(["bench", "--dataset", "synth", "--cells", "slice:two"])
        assert rc == cli.EXIT_USAGE


class TestValidateDataset:
    def test_valid_dump_stats(self, tmp_path, capsys):
        g = synth_graph(n=50, classes=3, d_feat=7, p_in=0.3, p_out=0.05, signal=1.0, seed=4)
        save_dataset(g, tmp_path / "ds")
        rc = run_cli(["validate-dataset", str(tmp_path / "ds")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "nodes:    50" in text
        assert f"edges:    {g.adj.num_edges // 2}" in text
        assert "features: 7" in text
        assert "classes:  3" in text

    def test_self_loop_counted_once(self, tmp_path, capsys):
        # edges 0-1, 1-2, 3-3, 4-5: a self-loop is stored once, every other edge twice
        edges = np.array([[0, 1], [1, 2], [3, 3], [4, 5]])
        g = AttributedGraph(
            adj=build_csr(6, edges), features=np.zeros((6, 2), np.float32),
            labels=np.array([0, 1, 2, 0, 1, 2]), num_classes=3, split=np.array([0, 0, 1, 1, 2, 2], np.uint8),
        )
        save_dataset(g, tmp_path / "ds")
        assert run_cli(["validate-dataset", str(tmp_path / "ds")]) == 0
        assert "edges:    4 (self-loops: 1)" in capsys.readouterr().out

    def test_truncated_features_names_file(self, tmp_path, capsys):
        g = synth_graph(n=20, classes=2, d_feat=4, p_in=0.3, p_out=0.1, signal=1.0, seed=4)
        save_dataset(g, tmp_path / "ds")
        (tmp_path / "ds" / "features.bin").write_bytes(b"\x00" * 13)
        rc = run_cli(["validate-dataset", str(tmp_path / "ds")])
        assert rc == cli.EXIT_DATA
        assert "features.bin" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "meta",
        [[{"num_nodes": 20, "num_features": 4, "num_classes": 2}],
         {"num_nodes": "sixty", "num_features": 4, "num_classes": 2}],
        ids=["non-object", "non-integer-size"],
    )
    def test_malformed_meta_is_a_data_error(self, tmp_path, capsys, meta):
        g = synth_graph(n=20, classes=2, d_feat=4, p_in=0.3, p_out=0.1, signal=1.0, seed=4)
        save_dataset(g, tmp_path / "ds")
        (tmp_path / "ds" / "meta.json").write_text(json.dumps(meta))
        for args in (["validate-dataset", str(tmp_path / "ds")],
                     ["train", "--dataset", str(tmp_path / "ds"), "--epochs", "1",
                      "--out", str(tmp_path / "m.json")]):
            rc = run_cli(args)
            assert rc == cli.EXIT_DATA
            assert "meta.json" in capsys.readouterr().err

    def test_meta_that_is_not_text_is_a_data_error(self, tmp_path, capsys):
        g = synth_graph(n=20, classes=2, d_feat=4, p_in=0.3, p_out=0.1, signal=1.0, seed=4)
        save_dataset(g, tmp_path / "ds")
        with open(tmp_path / "ds" / "meta.json", "ab") as f:
            f.write(b"\xff")  # invalid UTF-8
        for args in (["validate-dataset", str(tmp_path / "ds")],
                     ["train", "--dataset", str(tmp_path / "ds"), "--epochs", "1",
                      "--out", str(tmp_path / "m.json")]):
            rc = run_cli(args)
            assert rc == cli.EXIT_DATA
            assert "meta.json" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["empty-train", "one-class-val"])
    def test_unusable_split_fails_before_epoch_0(self, tmp_path, capsys, monkeypatch, case):
        g = synth_graph(n=20, classes=2, d_feat=4, p_in=0.3, p_out=0.1, signal=1.0, seed=4)
        save_dataset(g, tmp_path / "ds")
        split, labels = g.split.copy(), g.labels.astype("<u4")
        if case == "empty-train":
            split[split == 0] = 2
            split.tofile(tmp_path / "ds" / "splits.bin")
        else:
            labels[split == 1] = 1
            labels.tofile(tmp_path / "ds" / "labels.bin")
        forwards = []
        monkeypatch.setattr(engine, "epoch_forward", lambda *a, **k: forwards.append(1))
        for args in (["validate-dataset", str(tmp_path / "ds")],
                     ["train", "--dataset", str(tmp_path / "ds"), "--epochs", "1",
                      "--out", str(tmp_path / "m.json")]):
            assert run_cli(args) == cli.EXIT_DATA
            assert "splits.bin" in capsys.readouterr().err
        assert not forwards and not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("nodes,classes,why", [
        ("3", "3", "the test split is empty"),
        ("6", "2", "split holds only class"),  # AUC-ROC needs both classes
    ])
    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_unscorable_synth_graph_fails_before_epoch_0(
        self, tmp_path, capsys, monkeypatch, command, nodes, classes, why
    ):
        forwards = []
        monkeypatch.setattr(engine, "epoch_forward", lambda *a, **k: forwards.append(1))
        extra = ["--cells", "slice:2"] if command == "bench" else []
        rc = run_cli([command, "--dataset", "synth", "--synth-nodes", nodes, "--synth-classes", classes,
                      "--epochs", "1", *extra, "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE and why in err
        assert f"--synth-nodes {nodes}" in err and f"--synth-classes {classes}" in err
        assert not forwards and not (tmp_path / "m.json").exists()
