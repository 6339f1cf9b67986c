"""Dense kernels with explicit gradients, deterministic RNG streams, and
the workspace that holds an owner's reusable arrays.

Matrices are plain numpy arrays, row-major, float32 or float64 (chosen once
per run). Every kernel is a pure function of its inputs, except `dropout`,
which writes its output into the array it is given (callers pass arrays they
own). The element-wise kernels follow numpy: `out=` names the array their
result is written into, and without it they return a new one. `spmm_norm`
writes its result into `out=` and runs in its owner's `Workspace` (`ws=`),
where its temporaries live. Kernels keep no state; a workspace belongs to
one owner, which uses it from one thread at a time.

`Pool` holds a run's threads: it runs one task per device, and cuts a
large dense product or element-wise pass into a fixed number of blocks,
which it runs at once.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

# Stream ids for master-owned draws. Worker i uses stream id i, so master
# streams start far above any plausible device count.
STREAM_FUSION = 1 << 16
STREAM_ENCODING = (1 << 16) + 1
STREAM_CLASSIFIER = (1 << 16) + 2

_DROPOUT_CHUNK = 1 << 17  # raw draws per chunk of a dropout mask: 1 MB of uint64

# Multiply-adds of one pool task below which its hand-off to a pool thread
# costs more than it overlaps (README, "Pool rounds"): the floor of one
# device's forward for a run's device rounds, and of one block of a split
# product. A block also has at least SPLIT_MIN_WIDTH rows or columns: a
# one-column product takes BLAS's matrix-vector path, which rounds differently.
MIN_TASK_WORK = 16e6
SPLIT_MIN_WIDTH = 16


class Pool:
    """A run's threads, and the fixed blocks its large products and
    element-wise passes are cut into.

    `run(fn, items)` returns [fn(item) for item in items]. `threads` counts
    the calling thread: it runs item 0 itself and hands the other items to
    threads - 1 pool threads, and threads == 1 runs every item in the
    calling thread, in order. Results do not depend on the choice. `run`
    returns or raises only once every task has finished, so no task
    outlives a failed call; of several failures, the lowest item's is
    raised.

    `ranges` cuts a length into `parts` near-equal ranges, and `matmul` cuts
    a product's output into `parts` column blocks (row blocks with
    `rows=True`) when every block reaches `MIN_TASK_WORK` multiply-adds and
    `SPLIT_MIN_WIDTH` columns (rows); otherwise either is one whole. So the
    blocks depend on `parts` and the shapes alone, not on `threads`. Each
    block of a product is one BLAS call that writes its own part of `out`
    over the whole inner dimension, so no block sums what another formed;
    at one BLAS thread the blocks' bits are the whole product's
    (`tests/test_ops.py` checks the shapes the engine splits). A block task
    calls numpy only.

    `close` (or leaving a `with` block) waits for and ends the pool threads.
    """

    def __init__(self, parts: int = 1, threads: int = 1):
        self.parts = parts
        self._ex = ThreadPoolExecutor(max_workers=threads - 1) if threads > 1 else None

    def run(self, fn: Callable, items: list) -> list:
        if self._ex is None:
            return [fn(item) for item in items]
        futures = [self._ex.submit(fn, item) for item in items[1:]]
        try:
            first = fn(items[0])
        finally:
            for f in futures:
                f.exception()  # waits for the task; its error, if any, is raised below
        return [first] + [f.result() for f in futures]

    def each(self, fn: Callable, items: list) -> None:
        """fn(item) for every item; through `run` when there are several."""
        if len(items) == 1:
            fn(items[0])
        else:
            self.run(fn, items)

    def ranges(self, size: int, min_size: int) -> list:
        """`parts` (start, end) ranges over [0, size) when each has at least
        `min_size` elements, else [(0, size)]."""
        if self.parts < 2 or size < self.parts * min_size:
            return [(0, size)]
        bounds = [i * size // self.parts for i in range(self.parts + 1)]
        return list(zip(bounds, bounds[1:]))

    def matmul(self, a: np.ndarray, b: np.ndarray, *, out: np.ndarray, rows: bool = False) -> np.ndarray:
        """out = a @ b, in blocks of out's columns (rows with `rows=True`); returns out."""
        (m, k), n = a.shape, b.shape[1]
        if m * k * n < self.parts * MIN_TASK_WORK:
            return np.matmul(a, b, out=out)
        blocks = self.ranges(m if rows else n, SPLIT_MIN_WIDTH)
        if rows:
            self.each(lambda r: np.matmul(a[r[0] : r[1]], b, out=out[r[0] : r[1]]), blocks)
        else:
            self.each(lambda r: np.matmul(a, b[:, r[0] : r[1]], out=out[:, r[0] : r[1]]), blocks)
        return out

    def close(self):
        if self._ex is not None:
            self._ex.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


INLINE = Pool()  # every product and pass in one piece, and every item in the calling thread


class Workspace:
    """Arrays one owner reuses from call to call, each made at its first use.

    `get(key, shape, dtype)` returns an array of that shape and dtype over
    the key's memory, replacing the memory by a larger one when it is too
    small; the same key, shape and dtype give the same array object. A key
    names a lifetime, not a call site: values of different shapes share a
    key when each is dead before the next is written (a kernel's
    temporaries die when it returns), so a key's memory is the largest of
    them and not their sum.
    """

    def __init__(self):
        self._memory = {}  # key -> 1-D uint8 array
        self._arrays = {}  # (key, shape, dtype) -> view of the key's memory

    def get(self, key, shape: tuple, dtype) -> np.ndarray:
        a = self._arrays.get((key, shape, dtype))
        if a is None:
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            memory = self._memory.get(key)
            if memory is None or memory.size < nbytes:
                memory = self._memory[key] = np.empty(nbytes, dtype=np.uint8)
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


def spmm_norm(adj, s: np.ndarray, h: np.ndarray, transpose: bool = False, *, out, ws) -> np.ndarray:
    """Degree-normalized sparse aggregation, out = Â H with Â = S A S.

    A[v, u] = 1 when u is stored in row v of `adj`, and S = diag(s), where s
    is 1/sqrt of the row degree (the in-degree on directed graphs) on both
    sides: out[v, :] = sum over u in row v of s[u] * s[v] * h[u, :].
    `transpose=True` computes Âᵀ H = S Aᵀ S H instead, which the backward
    pass needs; on undirected graphs the two coincide.

    The product runs over the precomputed row blocks of A (or Aᵀ): each block
    gathers its D x B rows of S H (above a zero row) in one np.take and sums
    over k in one np.add.reduce; then rows go back to node order. The reduce
    adds each row's terms one by one in CSR order from +0.0 (padding adds
    +0.0, a no-op there), so results are bit-identical for any thread schedule.

    The padded input and the gather buffer come from `ws` (they are dead
    when the call returns). The blocks sum into `out`, which may be `h`
    itself, as the input is read only through the padded copy; then the
    rows go back to node order in the padded buffer, and from there, scaled,
    into `out`, which is returned. With one column (padded to two) they sum
    into a scratch accumulator of `ws` instead.
    """
    n, c = adj.num_nodes, h.shape[-1]
    if h.ndim != 2 or h.shape[0] != n:
        raise ValueError(f"spmm_norm: H has {h.shape[0]} rows, graph has {n} nodes")
    if s.shape != (n,):
        raise ValueError(f"spmm_norm: scale vector has shape {s.shape}, want ({n},)")
    lay = adj.blocks_t if transpose else adj.blocks
    width = max(c, 2)  # one column would make a one-row block's reduce pairwise, out of order
    scaled = ws.get("spmm.padded", (n + 1, width), h.dtype)
    np.multiply(h, s[:, None], out=scaled[:n, :c])
    scaled[:n, c:] = scaled[n] = 0
    acc = out if width == c else ws.get("spmm.acc", (n, width), h.dtype)
    buf = ws.get("spmm.gather", (lay.max_entries, width), h.dtype)
    for lo, hi, d, offset in lay.blocks:
        m = d * (hi - lo)
        # indices are in range; "clip" lets take write into the buffer unbuffered
        np.take(scaled, lay.indices[offset : offset + m], axis=0, out=buf[:m], mode="clip")
        np.add.reduce(buf[:m].reshape(d, hi - lo, width), axis=0, out=acc[lo:hi], initial=0)
    # back to node order, into scaled, which is no longer read
    res = np.take(acc, lay.rank, axis=0, out=scaled[:n], mode="clip")[:, :c]
    return np.multiply(res, s[:, None], out=out)


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


def dropout(a, rate, training, rng, keep=None):
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
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a, None, None
    threshold = math.ceil(rate * 2.0**16)  # at most 2**16, as rate < 1
    if keep is None:
        keep = np.empty(a.shape, dtype=bool)
    flat = keep.reshape(-1)
    step = 4 * _DROPOUT_CHUNK  # whole raw draws, so the chunk size leaves the mask alone
    for lo in range(0, flat.size, step):
        part = flat[lo : lo + step]
        raw = rng.bit_generator.random_raw(-(-part.size // 4))
        if threshold == 1 << 16:  # past every field: nothing is kept
            part[...] = False
        else:
            fields = raw.astype("<u8", copy=False).view("<u2")[: part.size]
            np.greater_equal(fields, np.uint16(threshold), out=part)
    scale = a.dtype.type(1.0) / a.dtype.type(1.0 - rate)
    np.multiply(a, keep, out=a)  # the two roundings of apply_mask
    a *= scale
    return a, keep, scale


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


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient.

    loss = mean over rows of -log softmax(logits)[label]
    dLogits = (softmax - onehot) / m

    Rows are shifted by their max before exponentiation.
    """
    loss, exp, denom, rows = _cross_entropy(logits, labels)
    m = len(rows)
    d_logits = exp / denom
    d_logits[rows, labels] -= 1
    d_logits /= m
    return loss, d_logits


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax (used for evaluation-time probabilities)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
