"""Dense kernels with explicit gradients, deterministic RNG streams, and
the workspace that holds an owner's reusable arrays.

Matrices are plain numpy arrays, row-major, float32 or float64 (chosen once
per run). Every kernel is a pure function of its inputs, except `dropout`,
which writes its output into the array it is given (callers pass arrays they
own). The element-wise kernels follow numpy: `out=` names the array their
result is written into, and without it they return a new one. `spmm_norm`
writes its result into `out=` and runs in its owner's `Workspace` (`ws=`),
where its temporaries live: it reads its input where it lies, and copies
it into the workspace's scratch array (`scratch`) only when it is strided
or shares memory with `out`. Kernels keep no state; a workspace belongs to
one owner, which uses it from one thread at a time.

`Pool` holds a run's threads: it runs one task per device, and cuts a
large dense product, SpMM, dropout mask or element-wise pass into at most
one part per thread, which it runs at once. `spmm_norm` and `dropout`
take the pool they split on (`pool=`, `INLINE` by default); every part
writes its own rows, so the parts' bits are the whole's.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np


def _load_sparsetools():
    """scipy's compiled sparse kernels, the extension module
    `scipy.sparse._sparsetools` loaded from its file alone.

    `import scipy.sparse` would run scipy's Python code and load some 75
    scipy modules, raising a fresh interpreter's peak RSS from 26.8 to
    48.7 MB; the extension alone adds 0.2 MB. Finding scipy's directory
    runs none of its code.
    """
    name = "scipy.sparse._sparsetools"
    spec = importlib.util.find_spec("scipy")
    for directory in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                sys.modules[name] = module
                return module
    raise ImportError(f"slicegcn needs scipy's compiled extension {name}, which was not found")


_sparsetools = _load_sparsetools()

# Stream ids for master-owned draws. Worker i uses stream id i, so master
# streams start far above any plausible device count.
STREAM_FUSION = 1 << 16
STREAM_ENCODING = (1 << 16) + 1
STREAM_CLASSIFIER = (1 << 16) + 2

_DROPOUT_CHUNK = 1 << 17  # raw draws per chunk of a dropout mask: 1 MB of uint64

# Multiply-adds of one pool task below which its hand-off to a pool thread
# costs more than it overlaps (README, "Pool rounds"): the floor of one
# device's forward for a run's device rounds, and of one part of a split
# product or SpMM. A part also has at least SPLIT_MIN_WIDTH rows or columns:
# a one-column product takes BLAS's matrix-vector path, which rounds
# differently. A range of a split element-wise pass (an Adam step's too)
# has at least MIN_PASS_ELEMENTS elements.
MIN_TASK_WORK = 16e6
SPLIT_MIN_WIDTH = 16
MIN_PASS_ELEMENTS = 1 << 18

_thread = threading.local()  # .pool: the token of the Pool whose thread this is


def _init_thread(token, errors: dict) -> None:
    """Marks a thread as its pool's, and sets its numpy error state (`np.errstate` holds for one thread)."""
    _thread.pool = token
    np.seterr(**errors)


def _cut(size: int, k: int) -> list:
    """k near-equal (start, end) ranges over [0, size); one when k < 2."""
    if k < 2:
        return [(0, size)]
    bounds = [i * size // k for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


class Pool:
    """A run's threads, and the parts its large kernels are cut into.

    `run(fn, items)` returns [fn(item) for item in items]. `threads` counts
    the calling thread: it runs item 0 itself and hands the other items to
    threads - 1 pool threads; threads == 1, and any one-item round, runs
    every item in the calling thread, in order. Results do not depend on
    the choice. `run` returns or raises only once every task has finished,
    so no task outlives a failed call; of several failures, the lowest
    item's is raised. A task must not start a round of several items on
    its own pool: `run` raises RuntimeError when called so from one of the
    pool's threads, where the round could wait for itself.

    A kernel is cut into at most one part per thread, each at or above its
    floor (`ranges`: `MIN_PASS_ELEMENTS` elements of an element-wise pass,
    which `rows` runs; `count`: `MIN_TASK_WORK` multiply-adds and
    `SPLIT_MIN_WIDTH` rows or columns of a product or SpMM), so the parts
    depend on `threads` and the shapes alone. `matmul` cuts a product's
    output along its longer side (rows on a tie); each block is one BLAS
    call over the whole inner dimension, so at one BLAS thread the blocks'
    bits are the whole product's (`tests/test_ops.py` checks the shapes the
    engine splits). A part task calls numpy, or the SpMM's compiled kernel, only.

    Pool threads keep the numpy error state of the thread that made the
    pool. `close` (or leaving a `with` block) waits for and ends them.
    """

    def __init__(self, threads: int = 1):
        self.threads = threads
        self._token = object()
        self._ex = None
        if threads > 1:
            self._ex = ThreadPoolExecutor(threads - 1, initializer=_init_thread, initargs=(self._token, np.geterr()))

    def run(self, fn: Callable, items: list) -> list:
        if self._ex is None or len(items) < 2:
            return [fn(item) for item in items]
        if getattr(_thread, "pool", None) is self._token:
            raise RuntimeError("a pool task started a round of its own pool, which could wait for itself")
        futures = [self._ex.submit(fn, item) for item in items[1:]]
        try:
            first = fn(items[0])
        finally:
            for f in futures:
                f.exception()  # waits for the task; its error, if any, is raised below
        return [first] + [f.result() for f in futures]

    def ranges(self, rows: int, width: int = 1) -> list:
        """At most `threads` near-equal (start, end) ranges over [0, rows):
        as many as keep every range at least `MIN_PASS_ELEMENTS` elements of
        rows x width, and at least one."""
        if self.threads < 2:
            return [(0, rows)]
        return _cut(rows, min(self.threads, rows // -(-MIN_PASS_ELEMENTS // max(width, 1))))

    def rows(self, fn: Callable, arrays: tuple, *args) -> None:
        """fn(*arrays, *args), in the `ranges` of the first array's rows:
        each call gets the same rows of every array (None stays None)."""
        first = arrays[0]
        ranges = self.ranges(len(first), math.prod(first.shape[1:])) if self.threads > 1 else ()
        if len(ranges) < 2:
            fn(*arrays, *args)
        else:
            self.run(lambda r: fn(*[a if a is None else a[r[0] : r[1]] for a in arrays], *args), ranges)

    def count(self, work: float, size: int) -> int:
        """How many parts a task of `work` multiply-adds over `size` rows
        (columns) splits into: at most `threads`, each with `MIN_TASK_WORK`
        multiply-adds and `SPLIT_MIN_WIDTH` rows (columns), and at least one."""
        if self.threads < 2:
            return 1
        return max(1, min(self.threads, size // SPLIT_MIN_WIDTH, int(work // MIN_TASK_WORK)))

    def matmul(self, a: np.ndarray, b: np.ndarray, *, out: np.ndarray) -> np.ndarray:
        """out = a @ b, in blocks of out's longer side (rows on a tie), or whole
        in float64, whose blocks this OpenBLAS can round apart; returns out."""
        if self.threads < 2 or a.dtype != np.float32:
            return np.matmul(a, b, out=out)
        (m, k), n = a.shape, b.shape[1]
        rows = m >= n
        size = m if rows else n
        blocks = _cut(size, self.count(m * k * n, size))
        if len(blocks) == 1:
            return np.matmul(a, b, out=out)
        if rows:
            self.run(lambda r: np.matmul(a[r[0] : r[1]], b, out=out[r[0] : r[1]]), blocks)
        else:
            self.run(lambda r: np.matmul(a, b[:, r[0] : r[1]], out=out[:, r[0] : r[1]]), blocks)
        return out

    def close(self):
        if self._ex is not None:
            self._ex.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


INLINE = Pool()  # one thread: every product and pass in one piece, and every item in the calling thread


class Workspace:
    """Arrays one owner reuses from call to call, each made at its first use.

    `get(key, shape, dtype)` returns an array of that shape and dtype over
    the key's memory, replacing the memory by a larger one when it is too
    small; the same key, shape and dtype give the same array object. A key
    names a lifetime, not a call site: values of different shapes share a
    key when each is dead before the next is written (a kernel's
    temporaries die when it returns), so a key's memory is the largest of
    them and not their sum.

    `versions` maps a key to the version at which the value its array holds
    was formed, for the results an owner keeps from one pass to the next
    (see `nn`); the workspace only stores it.

    `rows`, when given, makes new memory room for that many rows of the
    shape's width: a pass over a row subset names the whole row count for
    the arrays a pass over all rows writes later, so that pass finds its
    memory made and the subset's array is not dropped for a larger one.
    """

    def __init__(self):
        self._memory = {}  # key -> 1-D uint8 array
        self._arrays = {}  # (key, shape, dtype) -> view of the key's memory
        self.versions = {}  # key -> version of the kept value in its array

    def get(self, key, shape: tuple, dtype, rows: int = 0) -> np.ndarray:
        a = self._arrays.get((key, shape, dtype))
        if a is None:
            row_bytes = math.prod(shape[1:]) * np.dtype(dtype).itemsize
            nbytes = shape[0] * row_bytes
            memory = self._memory.get(key)
            if memory is None or memory.size < nbytes:
                memory = self._memory[key] = np.empty(max(nbytes, rows * row_bytes), dtype=np.uint8)
                self._arrays = {k: v for k, v in self._arrays.items() if k[0] != key}
            a = self._arrays[key, shape, dtype] = memory[:nbytes].view(dtype).reshape(shape)
        return a


def rng_stream(seed: int, *stream_id: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream_id).

    Same (seed, stream, draw index) yields the same value on every platform
    and under any thread schedule, because each stream is consumed by exactly
    one owner.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream_id))
    return np.random.Generator(np.random.Philox(ss))


def spmm_norm(adj, s: np.ndarray, h: np.ndarray, transpose: bool = False, *, out, ws, pool=INLINE) -> np.ndarray:
    """Degree-normalized sparse aggregation, out = Â H with Â = S A S.

    A[v, u] = 1 when u is stored in row v of `adj`, and S = diag(s), where s
    is 1/sqrt of the row degree (the in-degree on directed graphs) on both
    sides: out[v, :] = sum over u in row v of s[u] * s[v] * h[u, :].
    `transpose=True` computes Âᵀ H = S Aᵀ S H instead, which the backward
    pass needs; on undirected graphs the two coincide. `adj` is a
    `CsrAdjacency` or its restriction to rows R (`graph.RowRestriction`):
    then Â[R, :] H, with m rows, is rows R of Â H, and its transpose takes
    an m-row G and gives Âᵀ of the n-row array that holds G at rows R and
    zeros elsewhere, with the same bits. `s` always has all n nodes.

    (A S) H is summed by scipy's compiled CSR kernel `csr_matvecs` over the
    CSR of A (or of Aᵀ), whose stored values are s at each entry's column
    (`CsrAdjacency.weights`, in H's dtype): each row adds its terms
    s[u] * h[u, :] one by one in CSR order, from +0.0, so its bits do not
    depend on how the rows are cut. The kernel reads H where it lies when
    H is C-contiguous and shares no memory with `out`; any other H is first
    copied into the scratch array of `ws` (`scratch`), the only use the
    SpMM makes of it. The sum goes into `out`, which may be `h` itself but
    is never the scratch; a strided `out`, or one of another dtype, which
    the kernel would write through a copy, sums in the accumulator
    `"spmm.acc"` of `ws` instead. Scaled by S at its rows
    (`CsrAdjacency.scale`), it ends in `out`, which is returned.

    On `pool`, a copy runs in row ranges (`Pool.rows`), and the sum
    and the scaling in up to `pool.threads` row parts of near-equal stored
    entries (`Pool.count`), each of which writes its own rows only.
    """
    out_rows, n = (adj.num_nodes, adj.num_rows) if transpose else (adj.num_rows, adj.num_nodes)
    c = h.shape[-1]
    if h.ndim != 2 or h.shape[0] != n:
        raise ValueError(f"spmm_norm: H has {h.shape[0]} rows, the operator has {n} columns")
    if s.shape != (adj.num_nodes,):
        raise ValueError(f"spmm_norm: scale vector has shape {s.shape}, want ({adj.num_nodes},)")
    offsets, cols = (adj.row_offsets_t, adj.col_indices_t) if transpose else (adj.row_offsets, adj.col_indices)
    if not h.flags.c_contiguous or np.may_share_memory(h, out):
        x = scratch(ws, n, c, h.dtype)
        pool.rows(np.copyto, (x, h))
        h = x
    acc = out if out.flags.c_contiguous and out.dtype == h.dtype else ws.get("spmm.acc", (out_rows, c), h.dtype)
    k, weights = pool.count(cols.size * c, out_rows), adj.weights(s, transpose, h.dtype)
    if k == 1:
        parts = [(0, out_rows)]
    else:  # rows [lo, hi) of near-equal stored entries
        cuts = np.searchsorted(offsets, cols.size * np.arange(1, k) / k)
        bounds = np.unique(np.concatenate([[0], cuts, [out_rows]]))
        parts = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    scale = adj.scale(s, transpose)
    pool.run(lambda part: _spmm_rows(*part, offsets, cols, weights, h, acc, out, scale), parts)
    return out


SCRATCH = "tmp"  # the workspace key of a layer's temporaries and of the SpMM's copied input


def scratch(ws, n: int, c: int, dtype) -> np.ndarray:
    """The n x c scratch array of `ws`, a temporary."""
    return ws.get(SCRATCH, (n, c), dtype)


def _spmm_rows(lo: int, hi: int, offsets, cols, weights, h, acc, out, s) -> None:
    """Rows [lo, hi) of out = S (A S) h, summed in the same rows of acc,
    which may be out; A S's CSR is (offsets, cols, weights), and s holds
    the scale of out's rows."""
    rows = acc[lo:hi]
    rows[...] = 0
    _sparsetools.csr_matvecs(hi - lo, len(h), h.shape[1], offsets[lo : hi + 1], cols, weights,
                             h.reshape(-1), rows.reshape(-1))
    np.multiply(rows, s[lo:hi, None], out=out[lo:hi])


def glorot_init(out: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Fills the rows x cols array `out` with Uniform[-a, a], a = sqrt(6 / (rows + cols)).

    The draws are float64, rounded to out's dtype. Returns `out`.
    """
    rows, cols = out.shape
    if rows < 1 or cols < 1:
        raise ValueError("glorot_init needs positive dimensions")
    a = np.sqrt(6.0 / (rows + cols))
    out[...] = rng.uniform(-a, a, size=(rows, cols))
    return out


def relu(a: np.ndarray, out=None) -> np.ndarray:
    return np.maximum(a, 0, out=out)


def dropout(a, rate, training, rng, keep=None, pool=INLINE, *, rows=None, num_rows=None):
    """Inverted dropout, in place: (a, keep mask, scale).

    Writes (a * keep) * scale into `a` and returns it; the keep mask is bool
    (written into `keep` when given) and the scale is the scalar 1/(1-rate)
    in a's dtype. Survivors are scaled at train time so evaluation is a
    plain forward pass. Returns (a, None, None) when inactive; no rng draw
    happens then, keeping stream positions independent of evaluation passes.

    Each mask element costs 16 random bits. Element i (in C order) is 16-bit
    field i of the stream, where field 4k+j is bits [16j, 16j+16) of raw
    64-bit draw k, so an N-element mask consumes ceil(N/4) raw draws, and the
    mask is the same on every platform. An element is kept iff its field is
    >= t = ceil(rate * 2**16): rate 0.5 is exact, and any other rate keeps
    with probability 1 - t/2**16, below 1 - rate by less than 2**-16. A rate
    above 1 - 2**-16 gives t = 2**16 and drops every element.

    `rows`, when given, says that `a` holds the rows `rows` (ascending,
    distinct) of a `num_rows`-row array: its mask is that array's mask at
    those rows. The fields of every row are drawn, and the stream moves
    past the whole array's mask, so a row subset's mask and the stream's
    next draws are those of one whole draw.

    On `pool`, the rows of `a` run in ranges (`Pool.ranges`). Philox is
    counter-based, so a range whose first element is field f draws from a
    copy of the stream moved f // 4 raw draws on (`_skip`), and then `rng`
    moves past the whole mask: the mask and the stream's next draws are
    those of one whole draw.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a, None, None
    threshold = math.ceil(rate * 2.0**16)  # at most 2**16, as rate < 1
    if keep is None:
        keep = np.empty(a.shape, dtype=bool)
    scale = a.dtype.type(1.0) / a.dtype.type(1.0 - rate)
    bitgen = rng.bit_generator
    width = math.prod(a.shape[1:])
    total = len(a) if rows is None else num_rows
    parts = pool.ranges(len(a), width)
    if len(parts) == 1:
        _dropout_rows(bitgen, a, keep, rows, 0, total, threshold, scale)
        return a, keep, scale
    state = bitgen.state

    def part(r):
        lo, hi = r
        first, last = (lo, hi) if rows is None else (int(rows[lo]), int(rows[hi - 1]) + 1)
        copy = np.random.Philox(key=0)
        copy.state = state
        _skip(copy, first * width // 4)
        index = None if rows is None else rows[lo:hi]
        _dropout_rows(copy, a[lo:hi], keep[lo:hi], index, first, last, threshold, scale)

    pool.run(part, parts)
    _skip(bitgen, -(-total * width // 4))
    return a, keep, scale


def _dropout_rows(bitgen, a, keep, index, first: int, last: int, threshold: int, scale) -> None:
    """Dropout of `a` into `keep` and `a`, where the rows of `a` are the
    rows `index` of a whole mask (first, first + 1, … when None), from the
    fields of its rows [first, last): `bitgen` stands at the raw draw that
    holds field first * width, and the fields before it belong to the rows
    above. The rows run in blocks that end where a raw draw does, so the
    block size leaves the mask alone."""
    width = math.prod(a.shape[1:])
    flat = keep.reshape(len(keep), width)
    step = max(4, 4 * _DROPOUT_CHUNK // max(width, 1) // 4 * 4)  # a multiple of 4 rows ends a raw draw
    lo, done = first, 0  # the block's first row, and the rows of `a` written
    while lo < last:
        hi = min(lo - lo % step + step, last)
        start = lo * width // 4 * 4  # the first field of the raw draw that holds field lo * width
        raw = bitgen.random_raw(-(-(hi * width - start) // 4))
        fields = raw.astype("<u8", copy=False).view("<u2")[lo * width - start : hi * width - start]
        fields = fields.reshape(hi - lo, width)
        if index is None:
            out, done = flat[lo - first : hi - first], hi - first
        else:
            end = done + int(np.searchsorted(index[done:], hi))
            fields, out, done = fields[index[done:end] - lo], flat[done:end], end
        if threshold == 1 << 16:  # past every field: nothing is kept
            out[...] = False
        else:
            np.greater_equal(fields, np.uint16(threshold), out=out)
        lo = hi
    apply_mask(a, keep, scale, out=a)


def _skip(bitgen, k: int) -> None:
    """Moves a Philox bit generator on by k raw draws, to where
    `random_raw(k)` would leave it: first past the draws left in its
    buffer, then whole blocks of four (`advance`), then the rest."""
    state = bitgen.state
    buffered = min(k, 4 - state["buffer_pos"])
    bitgen.random_raw(buffered)
    k -= buffered
    if k >= 4:
        bitgen.advance(k // 4)  # also drops a buffered 32-bit half, which random_raw keeps
        if state["has_uint32"]:
            moved = bitgen.state
            moved["has_uint32"], moved["uinteger"] = state["has_uint32"], state["uinteger"]
            bitgen.state = moved
    bitgen.random_raw(k % 4)


def apply_mask(a, keep, scale, out=None):
    """(a * keep) * scale: dropout forward, and its backward on a gradient.

    Dropped entries become zeros carrying a's sign, as with a float mask.
    `out` may be `a` itself.
    """
    out = np.multiply(a, keep, out=out)
    out *= scale
    return out


def _cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """(loss, exp, denom, rows): the loss and the softmax's parts."""
    m, c = logits.shape
    if m == 0:
        raise ValueError("softmax_cross_entropy: empty batch")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("softmax_cross_entropy: label out of range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    denom = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(denom)
    rows = np.arange(m)
    return float(-log_probs[rows, labels].mean()), exp, denom, rows


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """The loss of `softmax_cross_entropy`, bit for bit, without its gradient."""
    return _cross_entropy(logits, labels)[0]


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray, out=None):
    """Mean cross-entropy and its gradient, written into `out` when given.

    loss = mean over rows of -log softmax(logits)[label]
    dLogits = (softmax - onehot) / m

    Rows are shifted by their max before exponentiation.
    """
    loss, exp, denom, rows = _cross_entropy(logits, labels)
    m = len(rows)
    d_logits = np.divide(exp, denom, out=out)
    d_logits[rows, labels] -= 1
    d_logits /= m
    return loss, d_logits


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax (used for evaluation-time probabilities)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
