"""Tiny-size runs of every workload, and runs with a failing cell."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import inputs
import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    return dataclasses.replace(
        workload, nodes=60, features=min(workload.features, 12), p_in=0.2, p_out=0.05, hidden=8, epochs=3,
        test_floor=0.0 if workload.test_floor is not None else None,
    )


@pytest.mark.parametrize("name", [w["name"] for w in DEFINITION["workloads"]])
def test_tiny_run_of_every_workload(name, tmp_path):
    workload = tiny(WORKLOADS[name])
    datasets = [inputs.ensure(workload, 3 * workload.graphs + k, tmp_path) for k in range(workload.graphs)]
    report = harness.run(workload, 3, 0.05, True, datasets)
    result = report["result"]
    assert result["correct"], report["checks"]
    assert result["attempted"] >= 2 and result["failed"] == 0
    # Every metric BENCHMARK.json declares is measured.
    assert all(result["metrics"].get(m["name"]) is not None for m in DEFINITION["per_layer"])
    assert all(report["end_to_end"].get(m["name"], 0) > 0 for m in DEFINITION["end_to_end"])
    assert {c["name"] for c in report["checks"]} >= {"baseline.trace_bit_identical", "sliced.trace_bit_identical"}
    assert result["metrics"]["baseline.engine.workers.concurrency"] == 1.0
    # One scaled time per measured one, and one training per graph at least.
    assert len(report["scaled_setup_s_samples"]) == len(report["setup_s_samples"])
    for cell in report["cells"].values():
        assert len(cell["scaled_epoch_s_samples"]) == len(cell["epoch_s_samples"])
        assert len(cell["test_metric"]) == workload.graphs


def test_inputs_are_a_function_of_the_seed(tmp_path):
    workload = tiny(WORKLOADS["small_default"])
    a = inputs.generate(workload, 5, tmp_path / "a")
    b = inputs.generate(workload, 5, tmp_path / "b")
    c = inputs.generate(workload, 6, tmp_path / "c")
    assert a["sha256"] == b["sha256"] != c["sha256"]
    path, info = inputs.ensure(workload, 5, tmp_path / "cache")
    assert info["sha256"] == a["sha256"]
    assert inputs.ensure(workload, 5, tmp_path / "cache") == (path, info)  # reused


@pytest.mark.parametrize("trace", [0, 1])
def test_failing_set_up_is_a_failed_operation_and_the_run_goes_on(trace, tmp_path, monkeypatch, capsys):
    # One feature column cannot be sliced over p=2 devices, so the sliced
    # cell's build_run raises; the baseline cell still trains.
    monkeypatch.setitem(WORKLOADS, "small_default", dataclasses.replace(tiny(WORKLOADS["small_default"]), features=1))
    monkeypatch.setattr(run, "WORK", tmp_path)
    assert run.main(["--workload", "small_default", "--seed", "3", "--seconds", "0.05", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] > result["failed"]
    if trace:
        assert result["metrics"]["baseline.ops.spmm_norm_s"]["value"] > 0
        assert result["metrics"]["sliced.ops.spmm_norm_s"]["value"] is None
    else:
        assert result["metrics"]["baseline.epochs_per_s"]["value"] > 0
        assert result["metrics"]["sliced.epochs_per_s"]["value"] is None


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
