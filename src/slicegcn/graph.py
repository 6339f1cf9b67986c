"""Graph storage, normalization, dataset IO, and synthetic graph generation.

Graphs are immutable after construction: the CSR index arrays and feature
matrix are marked read-only so they can be shared across worker threads
without copies. A graph holds its structure only; each run builds its own
normalized operator Â = S A S over it (`NormOperator.of`), read-only too.

Dataset directory layout (all multi-byte values little-endian):

    meta.json      {"num_nodes": n, "num_features": d, "num_classes": c}
    edges.bin      sequence of (u: u32, v: u32) pairs
    features.bin   n * d float32, row-major
    labels.bin     n u32
    splits.bin     n u8, 0=train 1=val 2=test
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .ops import rng_stream

TRAIN, VAL, TEST = 0, 1, 2

# Stream ids under the generator seed, kept disjoint from model streams.
_SYNTH_DOMAIN = 7
_STREAM_EDGES = 0
_STREAM_FEATURES = 1
_STREAM_SPLIT = 2


class DatasetError(Exception):
    """Raised for missing, malformed, or inconsistent dataset payloads."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CsrAdjacency:
    """CSR adjacency: neighbor lists sorted ascending, no duplicates.

    Row v lists the nodes v aggregates from. The CSR of the transpose Aᵀ
    (`row_offsets_t`, `col_indices_t`: the same arrays when A is symmetric)
    is built once here, read-only, so threads only ever read it.
    """

    num_nodes: int
    row_offsets: np.ndarray  # int64, length num_nodes + 1
    col_indices: np.ndarray  # int64, length nnz
    row_offsets_t: np.ndarray = field(init=False, repr=False, compare=False)
    col_indices_t: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, offsets, cols = self.num_nodes, self.row_offsets, self.col_indices
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
        t_offsets, t_cols = _csr_from_keys(cols * n + rows, n)
        symmetric = np.array_equal(t_offsets, offsets) and np.array_equal(t_cols, cols)
        object.__setattr__(self, "row_offsets_t", offsets if symmetric else _readonly(t_offsets))
        object.__setattr__(self, "col_indices_t", cols if symmetric else _readonly(t_cols))

    @property
    def num_edges(self) -> int:
        """Stored directed entries (an undirected edge counts twice)."""
        return int(len(self.col_indices))

    def edge_list(self) -> np.ndarray:
        """All stored (row, col) pairs, row-major order."""
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.row_offsets))
        return np.stack([rows, self.col_indices], axis=1)


@dataclass(frozen=True, eq=False)
class NormOperator:
    """The normalized adjacency Â = S A S of one run, S = diag(s) with s =
    `degree_norms`, as `ops.spmm_norm` reads it, or its rows R.

    Its CSR (`row_offsets`, `col_indices`) lists the columns each output
    row sums; `values` holds s at each stored entry's column and `scale` s
    at each output row, in the run's dtype, so Â H is `scale` times the CSR
    product with `values` (A S H). `nodes` is the node of each row (R), or
    None when row v is node v. Every array is made read-only.

    `t` is the transpose, made at each access from the fields held for it
    (`transposed`), or the operator itself without them (a symmetric
    graph's: A and Aᵀ share their arrays). Operators that referred to each
    other would form a reference cycle, which keeps a run's operator after
    its run until the cycle collector runs.

    `of(adj, dtype)` builds a graph's whole operator, and `restrict(R)` the
    m x n Â[R, :], whose `t` is the n x m Âᵀ[:, R]: Â[R, :] H gives rows R
    of Â H, and Âᵀ[:, R] G gives Âᵀ of the n-row array that holds G at rows
    R and zeros elsewhere.
    """

    row_offsets: np.ndarray  # int64, length num_rows + 1
    col_indices: np.ndarray  # int64 in [0, num_cols)
    values: np.ndarray  # s at each stored entry's column
    scale: np.ndarray  # s at each output row
    num_cols: int
    nodes: Optional[np.ndarray] = None  # R: int64, ascending; None for all rows
    transposed: Optional[tuple] = field(default=None, repr=False)  # the transpose's fields, in order

    def __post_init__(self):
        for a in (self.row_offsets, self.col_indices, self.values, self.scale, self.nodes, *(self.transposed or ())):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)

    @property
    def t(self) -> NormOperator:
        if self.transposed is None:
            return self
        fields = (self.row_offsets, self.col_indices, self.values, self.scale, self.num_cols, self.nodes)
        return NormOperator(*self.transposed, transposed=fields)

    @property
    def num_rows(self) -> int:
        return len(self.row_offsets) - 1

    @property
    def num_edges(self) -> int:
        """Stored entries, the same in `t`."""
        return int(len(self.col_indices))

    @classmethod
    def of(cls, adj: CsrAdjacency, dtype) -> NormOperator:
        """Â of `adj`, with s in `dtype`."""
        s, n, cols_t = degree_norms(adj).astype(dtype), adj.num_nodes, adj.col_indices_t
        t = None if cols_t is adj.col_indices else (adj.row_offsets_t, cols_t, s[cols_t], s, n, None)
        return cls(adj.row_offsets, adj.col_indices, s[adj.col_indices], s, n, transposed=t)

    def restrict(self, nodes) -> NormOperator:
        """Â[R, :] for the rows R = `nodes` (ascending and distinct) of a
        whole operator, with `t` = Âᵀ[:, R].

        Both keep the whole's entries in the whole's order, so each row of
        either sums its terms in the order the same row of Â (of Âᵀ) does,
        less the terms of the columns left out. One pass over the entries,
        with no sort.
        """
        n, t = self.num_cols, self.t
        if self.nodes is not None or self.num_rows != n:
            raise ValueError("restrict: only a whole operator restricts")
        nodes = np.array(nodes, dtype=np.int64)
        if nodes.ndim != 1 or len(nodes) and (nodes[0] < 0 or nodes[-1] >= n or (np.diff(nodes) <= 0).any()):
            raise ValueError(f"restrict: rows must be ascending, distinct nodes below {n}")
        member = np.zeros(n, dtype=bool)
        member[nodes] = True
        degree = np.diff(self.row_offsets)
        offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(degree[nodes], out=offsets[1:])
        cols = self.col_indices[np.repeat(member, degree)]
        # Âᵀ[:, R]: the entries of Âᵀ in columns R, renumbered by their place in R
        kept = member[t.col_indices]
        before = np.zeros(len(kept) + 1, dtype=np.int64)  # kept entries before each entry of Âᵀ
        np.cumsum(kept, out=before[1:])
        t_cols = (np.cumsum(member) - 1)[t.col_indices[kept]]
        s, s_rows = self.scale, self.scale[nodes]
        rows_t = (before[t.row_offsets], t_cols, s_rows[t_cols], s, len(nodes), None)
        return NormOperator(offsets, cols, s[cols], s_rows, n, nodes, transposed=rows_t)


def build_csr(num_nodes: int, edges, symmetrize: bool = True) -> CsrAdjacency:
    """Build a validated CSR adjacency from an iterable of (u, v) pairs.

    Each pair is keyed as u * num_nodes + v; one sort of the keys orders the
    entries by (row, col) and puts repeated pairs side by side, where they
    are dropped.
    """
    if num_nodes * num_nodes >= 2**63:
        raise ValueError(f"num_nodes {num_nodes} too large: (u, v) keys need num_nodes**2 < 2**63")
    edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    edges = edges.reshape(-1, 2)
    if len(edges) and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValueError("edge endpoint out of range")
    keys = [edges[:, 0] * num_nodes + edges[:, 1]]
    if symmetrize:
        keys.append(edges[:, 1] * num_nodes + edges[:, 0])
    offsets, cols = _csr_from_keys(np.concatenate(keys), num_nodes)
    return CsrAdjacency(num_nodes, _readonly(offsets), _readonly(cols))


def _csr_from_keys(keys: np.ndarray, n: int):
    """(row offsets, col indices) of the entries keyed u * n + v, deduplicated."""
    keys = np.sort(keys)
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    rows, cols = np.divmod(keys[keep], max(n, 1))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return offsets, cols


def degree_norms(adj: CsrAdjacency) -> np.ndarray:
    """s[v] = 1/sqrt(degree v), 0 for isolated nodes.

    The aggregation weight of edge (u, v) is s[u] * s[v].
    """
    deg = np.diff(adj.row_offsets).astype(np.float64)
    s = np.zeros(adj.num_nodes, dtype=np.float64)
    nz = deg > 0
    s[nz] = 1.0 / np.sqrt(deg[nz])
    return _readonly(s)


@dataclass(frozen=True)
class AttributedGraph:
    """Graph structure plus node features, labels, and split tags."""

    adj: CsrAdjacency
    features: np.ndarray  # n x d, float
    labels: np.ndarray  # n, int64 in [0, num_classes)
    num_classes: int
    split: np.ndarray  # n, uint8 in {TRAIN, VAL, TEST}

    def __post_init__(self):
        n = self.adj.num_nodes
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(f"features shape {self.features.shape} does not match {n} nodes")
        if self.labels.shape != (n,) or self.split.shape != (n,):
            raise ValueError("labels/split length does not match node count")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range")
        if not np.isin(self.split, (TRAIN, VAL, TEST)).all():
            raise ValueError("split tags must be 0 (train), 1 (val), or 2 (test)")
        if not np.isfinite(self.features).all():
            raise ValueError("non-finite feature value")
        for a in (self.features, self.labels, self.split):
            a.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.adj.num_nodes

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])


def check_splits(split: np.ndarray, labels: np.ndarray, c: int) -> None:
    """Raises ValueError unless every split holds a node and, in a binary
    task (c == 2 classes, scored by AUC-ROC), nodes of both classes."""
    counts = np.bincount(split.astype(np.int64) * c + labels, minlength=3 * c).reshape(3, c)
    for tag, name in ((TRAIN, "train"), (VAL, "val"), (TEST, "test")):
        held = np.flatnonzero(counts[tag])  # the classes of the split's nodes
        if len(held) == 0:
            raise ValueError(f"the {name} split is empty")
        if c == 2 and len(held) == 1:
            raise ValueError(f"the {name} split holds only class {held[0]}; AUC-ROC needs both classes")


def _read_exact(path: Path, dtype, count: int) -> np.ndarray:
    if not path.is_file():
        raise DatasetError(f"missing file: {path.name}")
    data = np.fromfile(path, dtype=dtype)
    if len(data) != count:
        raise DatasetError(
            f"size mismatch in {path.name}: expected {count} entries "
            f"({count * np.dtype(dtype).itemsize} bytes), found {len(data)}"
        )
    return data


def _meta_size(meta, key: str) -> int:
    """meta[key] as a positive JSON integer, or a DatasetError naming it."""
    if key not in meta:
        raise DatasetError(f"meta.json missing key '{key}'")
    value = meta[key]
    if type(value) is not int:  # bool is an int subclass; floats and strings are not sizes
        raise DatasetError(f"meta.json field {key} must be an integer, got {value!r}")
    if value <= 0:
        raise DatasetError(f"meta.json field {key} must be positive, got {value}")
    return value


def load_dataset(dir_path, symmetrize: bool = True) -> AttributedGraph:
    """Load and validate a dataset directory.

    The splits must pass `check_splits`.

    Directed inputs are symmetrized (reverse edges added, dedup) by default.
    With symmetrize=False the stored direction is preserved and a node
    aggregates over its in-neighborhood. A self-loop stored in edges.bin is
    kept, as one entry; none is added (the self path of the layer update
    covers the node itself).
    """
    d = Path(dir_path)
    meta_path = d / "meta.json"
    if not meta_path.is_file():
        raise DatasetError(f"missing file: {meta_path.name}")
    try:
        meta = json.loads(meta_path.read_bytes())
    except ValueError as e:  # JSONDecodeError, or UnicodeDecodeError on bytes that are not text
        raise DatasetError(f"meta.json is not valid JSON: {e}") from e
    if not isinstance(meta, dict):
        raise DatasetError(f"meta.json must hold a JSON object, not {type(meta).__name__}")
    n, dim, c = (_meta_size(meta, key) for key in ("num_nodes", "num_features", "num_classes"))

    edges_path = d / "edges.bin"
    if not edges_path.is_file():
        raise DatasetError("missing file: edges.bin")
    raw_edges = np.fromfile(edges_path, dtype="<u4")
    if len(raw_edges) % 2 != 0:
        raise DatasetError("size mismatch in edges.bin: odd number of u32 values")
    edges = raw_edges.reshape(-1, 2).astype(np.int64)
    if len(edges) and edges.max() >= n:
        raise DatasetError("edges.bin references a node beyond num_nodes")

    features = _read_exact(d / "features.bin", "<f4", n * dim).reshape(n, dim)
    labels = _read_exact(d / "labels.bin", "<u4", n).astype(np.int64)
    split = _read_exact(d / "splits.bin", "u1", n)

    if not np.isfinite(features).all():
        raise DatasetError("non-finite feature value in features.bin")
    if len(labels) and labels.max() >= c:
        raise DatasetError(f"label {labels.max()} >= num_classes {c}")
    if not np.isin(split, (TRAIN, VAL, TEST)).all():
        raise DatasetError("splits.bin contains a tag outside {0, 1, 2}")
    try:
        check_splits(split, labels, c)
    except ValueError as e:
        raise DatasetError(f"splits.bin: {e}") from e

    if not symmetrize:
        # In-neighborhood aggregation: row v lists u for every stored (u, v).
        edges = edges[:, ::-1]
    adj = build_csr(n, edges, symmetrize=symmetrize)
    return AttributedGraph(adj=adj, features=features, labels=labels, num_classes=c, split=split)


def save_dataset(graph: AttributedGraph, dir_path) -> None:
    """Write a graph in the dataset directory format.

    Stored edges are the full symmetric pair set of the adjacency; a loader
    round-trip reproduces the structure exactly.
    """
    d = Path(dir_path)
    d.mkdir(parents=True, exist_ok=True)
    meta = {
        "num_nodes": graph.num_nodes,
        "num_features": graph.num_features,
        "num_classes": graph.num_classes,
    }
    (d / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    graph.adj.edge_list().astype("<u4").tofile(d / "edges.bin")
    graph.features.astype("<f4").tofile(d / "features.bin")
    graph.labels.astype("<u4").tofile(d / "labels.bin")
    graph.split.astype("u1").tofile(d / "splits.bin")


def _sample_block_edges(rng, lo_a, hi_a, lo_b, hi_b, prob):
    """Sample edges between node ranges [lo_a, hi_a) and [lo_b, hi_b).

    For the diagonal case (same range), pairs are unordered with u < v.
    prob >= 1 enumerates every pair; fractional probabilities draw a binomial
    pair count and dedupe, which is O(edges) instead of O(pairs).
    """
    sa, sb = hi_a - lo_a, hi_b - lo_b
    same = lo_a == lo_b
    n_pairs = sa * (sa - 1) // 2 if same else sa * sb
    if n_pairs <= 0 or prob <= 0.0:
        return np.zeros((0, 2), dtype=np.int64)
    if prob >= 1.0:
        if same:
            u, v = np.triu_indices(sa, k=1)
        else:
            u, v = np.meshgrid(np.arange(sa), np.arange(sb), indexing="ij")
            u, v = u.ravel(), v.ravel()
        return np.stack([u + lo_a, v + lo_b], axis=1).astype(np.int64)
    count = int(rng.binomial(n_pairs, prob))
    if count == 0:
        return np.zeros((0, 2), dtype=np.int64)
    u = rng.integers(0, sa, size=count)
    v = rng.integers(0, sb, size=count)
    if same:
        keep = u != v
        u, v = u[keep], v[keep]
        u, v = np.minimum(u, v), np.maximum(u, v)
    pairs = np.unique(np.stack([u + lo_a, v + lo_b], axis=1), axis=0)
    return pairs


def synth_graph(
    n: int,
    classes: int,
    d_feat: int,
    p_in: float,
    p_out: float,
    signal: float,
    seed: int,
) -> AttributedGraph:
    """Planted-partition graph with class-centroid features.

    Nodes are assigned to `classes` contiguous, near-equal blocks. Edges are
    sampled with probability p_in inside a block and p_out across blocks.
    Features are unit Gaussian noise plus `signal` on one coordinate per
    class. Split tags are 50/25/25 by a seed-deterministic shuffle.
    """
    if n < classes:
        raise ValueError(f"need at least one node per class: n={n}, classes={classes}")
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if not (0.0 <= p_in <= 1.0 and 0.0 <= p_out <= 1.0):
        raise ValueError("edge probabilities must be in [0, 1]")
    if not (math.isfinite(signal) and signal >= 0):
        raise ValueError(f"synth_signal must be finite and >= 0, got {signal}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if d_feat < 1:
        raise ValueError("d_feat must be >= 1")

    labels = (np.arange(n, dtype=np.int64) * classes) // n
    bounds = np.searchsorted(labels, np.arange(classes + 1))

    edge_rng = rng_stream(seed, _SYNTH_DOMAIN, _STREAM_EDGES)
    chunks = []
    for a in range(classes):
        for b in range(a, classes):
            prob = p_in if a == b else p_out
            chunks.append(
                _sample_block_edges(edge_rng, bounds[a], bounds[a + 1], bounds[b], bounds[b + 1], prob)
            )
    edges = np.concatenate(chunks, axis=0) if chunks else np.zeros((0, 2), dtype=np.int64)
    adj = build_csr(n, edges, symmetrize=True)

    feat_rng = rng_stream(seed, _SYNTH_DOMAIN, _STREAM_FEATURES)
    features = feat_rng.standard_normal((n, d_feat))
    features[np.arange(n), labels % d_feat] += signal
    features = features.astype(np.float32)

    split_rng = rng_stream(seed, _SYNTH_DOMAIN, _STREAM_SPLIT)
    perm = split_rng.permutation(n)
    n_train = (n + 1) // 2
    n_val = (n - n_train + 1) // 2
    split = np.empty(n, dtype=np.uint8)
    split[perm[:n_train]] = TRAIN
    split[perm[n_train : n_train + n_val]] = VAL
    split[perm[n_train + n_val :]] = TEST

    return AttributedGraph(adj=adj, features=features, labels=labels, num_classes=classes, split=split)
