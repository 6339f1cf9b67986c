"""Seeded planted-partition inputs, written straight into the dataset format.

The benchmark owns its input generator, so a change to the program's own
generator or graph builder cannot change what the benchmark trains on. The
same (workload, seed) always yields byte-identical files. `ensure()` writes
them once and reuses the directory on later runs of the same seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import zlib
from pathlib import Path

import numpy as np

from workloads import Workload

FILES = ("meta.json", "edges.bin", "features.bin", "labels.bin", "splits.bin")
INFO = "inputs.json"  # written last; its presence marks a complete directory
SIGNAL = 1.0  # class-centroid offset added to one feature per class


def _block_pairs(rng, lo_a, hi_a, lo_b, hi_b, prob):
    """Distinct pairs (u, v), u < v, between two contiguous node blocks."""
    sa, sb = hi_a - lo_a, hi_b - lo_b
    same = lo_a == lo_b
    candidates = sa * (sa - 1) // 2 if same else sa * sb
    count = int(rng.binomial(candidates, prob)) if candidates > 0 else 0
    u = rng.integers(lo_a, hi_a, size=count)
    v = rng.integers(lo_b, hi_b, size=count)
    if same:
        keep = u != v
        u, v = np.minimum(u[keep], v[keep]), np.maximum(u[keep], v[keep])
    return u, v


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the five dataset files for (workload, seed); returns the input record."""
    n, c, d = workload.nodes, workload.classes, workload.features
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(zlib.crc32(workload.name.encode()),))
    rng = np.random.Generator(np.random.PCG64(ss))

    labels = (np.arange(n, dtype=np.int64) * c) // n  # contiguous class blocks
    bounds = np.searchsorted(labels, np.arange(c + 1))
    us, vs = [], []
    for a in range(c):
        for b in range(a, c):
            prob = workload.p_in if a == b else workload.p_out
            u, v = _block_pairs(rng, bounds[a], bounds[a + 1], bounds[b], bounds[b + 1], prob)
            us.append(u)
            vs.append(v)
    keys = np.unique(np.concatenate(us) * n + np.concatenate(vs))  # sorted, deduplicated
    edges = np.stack([keys // n, keys % n], axis=1)

    features = rng.standard_normal((n, d), dtype=np.float32)
    features[np.arange(n), labels % d] += np.float32(SIGNAL)

    perm = rng.permutation(n)
    n_train = (n + 1) // 2
    n_val = (n - n_train + 1) // 2
    split = np.full(n, 2, dtype=np.uint8)  # test
    split[perm[:n_train]] = 0
    split[perm[n_train : n_train + n_val]] = 1

    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"num_nodes": n, "num_features": d, "num_classes": c, "directed": False}
    (out_dir / "meta.json").write_text(json.dumps(meta) + "\n")
    edges.astype("<u4").tofile(out_dir / "edges.bin")
    features.astype("<f4").tofile(out_dir / "features.bin")
    labels.astype("<u4").tofile(out_dir / "labels.bin")
    split.tofile(out_dir / "splits.bin")
    info = {
        "workload": workload.name,
        "seed": seed,
        "nodes": n,
        "stored_edges": 2 * len(edges),  # u < v pairs, symmetrized on load
        "features": d,
        "classes": c,
        "sha256": content_hash(out_dir),
    }
    (out_dir / INFO).write_text(json.dumps(info, indent=2) + "\n")
    return info


def content_hash(data_dir: Path) -> str:
    h = hashlib.sha256()
    for name in FILES:
        h.update(name.encode())
        h.update((data_dir / name).read_bytes())
    return h.hexdigest()


def ensure(workload: Workload, seed: int, cache_dir: Path) -> tuple:
    """(dataset dir, input record), generating the inputs if they are not cached.

    A cached directory is re-hashed; one that does not match its record is
    generated again.
    """
    spec = json.dumps([dataclasses.asdict(workload), SIGNAL], sort_keys=True)
    tag = hashlib.sha256(spec.encode()).hexdigest()[:12]
    out = cache_dir / f"{workload.name}-seed{seed}-{tag}"
    info_path = out / INFO
    if info_path.is_file():
        info = json.loads(info_path.read_text())
        if content_hash(out) == info["sha256"]:
            return out, info
    shutil.rmtree(out, ignore_errors=True)
    return out, generate(workload, seed, out)
