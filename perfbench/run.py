"""Training benchmark for slicegcn: one workload per invocation.

    python3 perfbench/run.py --workload large_sparse --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory, never from an installed copy. Inputs are generated from
`--seed` into `.perfbench/data/` and reused by later runs of the same seed.
The full report (inputs, environment, per-epoch sample summaries, checks)
goes to `.perfbench/out/`, with the spans of a traced run beside it.

The last line of standard output is the result:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`, with
the end-to-end metrics under `--trace 0` and the per-layer metrics of a
separate traced run under `--trace 1`; the names and units of both sets,
and the workload names, are read from `BENCHMARK.json` at the root. Exit code
2 means the benchmark could not run at all (no program to import, bad
arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads(worker_threads: int) -> dict:
    """Fix BLAS/OpenMP threads so worker threads x BLAS threads <= cores.

    Must run before numpy is imported. The count changes results in the last
    bits (BLAS splits its sums by thread), so it is recorded with them.
    """
    nproc = len(os.sched_getaffinity(0))
    blas = max(1, nproc // worker_threads)
    for var in THREAD_VARS:
        os.environ[var] = str(blas)
    return {"nproc": nproc, "blas_threads": blas, "worker_threads_max": worker_threads}


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import slicegcn from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "slicegcn" / "__init__.py").is_file():
        _fail(f"no program at {src / 'slicegcn'}; run from a source checkout")
    sys.path.insert(0, str(src))
    import slicegcn

    if Path(slicegcn.__file__).resolve().parent != (src / "slicegcn").resolve():
        _fail(f"imported slicegcn from {slicegcn.__file__}, not from {src}")
    return slicegcn


def environment(pinned: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        **pinned,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="slicegcn training benchmark")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in definition["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import harness  # numpy is not imported yet, so the pinning below holds

    pinned = pin_blas_threads(harness.P)
    import_program()
    import inputs

    workload = WORKLOADS[args.workload]
    datasets = [
        inputs.ensure(workload, args.seed * workload.graphs + k, WORK / "data") for k in range(workload.graphs)
    ]
    env = environment(pinned)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {json.dumps(env)}")
    for _, info in datasets:
        print(f"inputs: {json.dumps(info)}")

    report = harness.run(workload, args.seed, args.seconds, bool(args.trace), datasets)
    report["environment"] = env

    for label, cell in report["cells"].items():
        print(f"cell {label}: {json.dumps(cell)}")
    for check in report["checks"]:
        print(f"check {check['name']}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")

    result = report["result"]
    result["metrics"] = {
        m["name"]: {"value": result["metrics"].get(m["name"]), "unit": m["unit"]}
        for m in definition["per_layer" if args.trace else "end_to_end"]
    }

    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans = report.pop("spans", None)
    if spans is not None:
        with open(f"{stem}.spans.jsonl", "w") as f:
            for label, rows in spans.items():
                for row in rows:
                    f.write(json.dumps({"cell": label, **row}) + "\n")
    Path(f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"report: {stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
