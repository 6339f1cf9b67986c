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
large dense product, SpMM, dropout mask or element-wise pass into at most
a fixed number of parts, which it runs at once. `spmm_norm` and `dropout`
take the pool they split on (`pool=`, `INLINE` by default); every part
writes its own rows, so the parts' bits are the whole's.
"""

from __future__ import annotations

import math
import threading
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
# device's forward for a run's device rounds, and of one part of a split
# product or SpMM. A part also has at least SPLIT_MIN_WIDTH rows or columns:
# a one-column product takes BLAS's matrix-vector path, which rounds
# differently. A range of a split element-wise pass has at least
# MIN_PASS_ELEMENTS elements.
MIN_TASK_WORK = 16e6
SPLIT_MIN_WIDTH = 16
MIN_PASS_ELEMENTS = 1 << 18

_thread = threading.local()  # .pool: the token of the Pool whose thread this is


def _mark_pool_thread(token) -> None:
    _thread.pool = token


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
    threads - 1 pool threads, and threads == 1 runs every item in the
    calling thread, in order. Results do not depend on the choice. `run`
    returns or raises only once every task has finished, so no task
    outlives a failed call; of several failures, the lowest item's is
    raised. A task must not start a round of its own pool: `run` raises
    RuntimeError when called from one of the pool's threads, where the
    round could wait for itself.

    `ranges` cuts a length into at most `parts` near-equal ranges, as many
    as keep each at least a given length; `row_ranges` does so for the rows
    of an element-wise pass, each range at least `MIN_PASS_ELEMENTS`
    elements, and `rows` runs a pass over them. `matmul` cuts a product's output into at most `parts` blocks
    along its longer side (rows on a tie), as many as give every block
    `MIN_TASK_WORK` multiply-adds and `SPLIT_MIN_WIDTH` rows (columns). So
    the parts depend on `parts` and the shapes alone, not on `threads`. Each
    block of a product is one BLAS call that writes its own part of `out`
    over the whole inner dimension, so no block sums what another formed;
    at one BLAS thread the blocks' bits are the whole product's
    (`tests/test_ops.py` checks the shapes the engine splits). A part task
    calls numpy only.

    `close` (or leaving a `with` block) waits for and ends the pool threads.
    """

    def __init__(self, parts: int = 1, threads: int = 1):
        self.parts = parts
        self._token = object()
        self._ex = None
        if threads > 1:
            self._ex = ThreadPoolExecutor(threads - 1, initializer=_mark_pool_thread, initargs=(self._token,))

    def run(self, fn: Callable, items: list) -> list:
        if self._ex is None:
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

    def each(self, fn: Callable, items: list) -> None:
        """fn(item) for every item; through `run` when there are several."""
        if len(items) == 1:
            fn(items[0])
        else:
            self.run(fn, items)

    def ranges(self, size: int, min_size: int) -> list:
        """At most `parts` near-equal (start, end) ranges over [0, size): as
        many as keep every range at least `min_size` long, and at least one."""
        if self.parts < 2:
            return [(0, size)]
        return _cut(size, min(self.parts, size // max(min_size, 1)))

    def row_ranges(self, rows: int, width: int) -> list:
        """`ranges` over the rows of an element-wise pass over rows x width
        elements, each range at least `MIN_PASS_ELEMENTS` elements."""
        return self.ranges(rows, -(-MIN_PASS_ELEMENTS // max(width, 1)))

    def rows(self, fn: Callable, arrays: tuple, *args) -> None:
        """fn(*arrays, *args), in the `row_ranges` of the first array's rows:
        each call gets the same rows of every array (None stays None)."""
        first = arrays[0]
        if self.parts < 2 or first.size < 2 * MIN_PASS_ELEMENTS:  # one range
            fn(*arrays, *args)
            return
        ranges = self.row_ranges(len(first), first.size // len(first))
        self.each(lambda r: fn(*[a if a is None else a[r[0] : r[1]] for a in arrays], *args), ranges)

    def count(self, work: float, size: int) -> int:
        """How many parts a task of `work` multiply-adds over `size` rows
        (columns) splits into: at most `parts`, each with `MIN_TASK_WORK`
        multiply-adds and `SPLIT_MIN_WIDTH` rows (columns), and at least one."""
        if self.parts < 2 or work < 2 * MIN_TASK_WORK:
            return 1
        k = min(self.parts, size // SPLIT_MIN_WIDTH)
        if MIN_TASK_WORK > 0:
            k = min(k, int(work // MIN_TASK_WORK))
        return max(k, 1)

    def matmul(self, a: np.ndarray, b: np.ndarray, *, out: np.ndarray) -> np.ndarray:
        """out = a @ b, in blocks of out's longer side (rows on a tie); returns out."""
        (m, k), n = a.shape, b.shape[1]
        if self.parts < 2 or m * k * n < 2 * MIN_TASK_WORK:  # one block
            return np.matmul(a, b, out=out)
        rows = m >= n
        size = m if rows else n
        blocks = _cut(size, self.count(m * k * n, size))
        if len(blocks) == 1:
            return np.matmul(a, b, out=out)
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

    `versions` maps a key to the version at which the value its array holds
    was formed, for the results an owner keeps from one pass to the next
    (see `nn`); the workspace only stores it.
    """

    def __init__(self):
        self._memory = {}  # key -> 1-D uint8 array
        self._arrays = {}  # (key, shape, dtype) -> view of the key's memory
        self.versions = {}  # key -> version of the kept value in its array

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


def spmm_norm(adj, s: np.ndarray, h: np.ndarray, transpose: bool = False, *, out, ws, pool=INLINE) -> np.ndarray:
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

    On `pool`, the blocks run in up to `pool.parts` runs of near-equal
    entries (`RowBlocks.parts`, `Pool.count`), each through a gather buffer
    of its own, and the scaling and reordering passes in node-row ranges
    (`Pool.rows`). Each part writes rows no other part writes, and
    every pass ends before the next begins: the reordering reads rows of
    the accumulator, which may be `out`, that any part may have written.
    """
    n, c = adj.num_nodes, h.shape[-1]
    if h.ndim != 2 or h.shape[0] != n:
        raise ValueError(f"spmm_norm: H has {h.shape[0]} rows, graph has {n} nodes")
    if s.shape != (n,):
        raise ValueError(f"spmm_norm: scale vector has shape {s.shape}, want ({n},)")
    lay = adj.blocks_t if transpose else adj.blocks
    width = max(c, 2)  # one column would make a one-row block's reduce pairwise, out of order
    scaled = ws.get("spmm.padded", (n + 1, width), h.dtype)
    acc = out if width == c else ws.get("spmm.acc", (n, width), h.dtype)

    k, shape = pool.count(lay.indices.size * width, n), (lay.max_entries, width)
    if k == 1 and (pool.parts < 2 or n * width < 2 * MIN_PASS_ELEMENTS):  # whole: no pass splits
        np.multiply(h, s[:, None], out=scaled[:n, :c])
        scaled[:n, c:] = scaled[n] = 0
        _gather_reduce(lay, (0, len(lay.blocks)), ws.get("spmm.gather", shape, h.dtype), scaled, acc)
        # back to node order, into scaled, which is no longer read
        res = acc.take(lay.rank, axis=0, out=scaled[:n], mode="clip")[:, :c]
        return np.multiply(res, s[:, None], out=out)
    pool.rows(_scale_rows, (scaled[:n], h, s))
    scaled[n] = 0
    parts = lay.parts(k)
    buffers = [ws.get(("spmm.gather", i) if i else "spmm.gather", shape, h.dtype) for i in range(len(parts))]
    pool.each(lambda part: _gather_reduce(lay, *part, scaled, acc), list(zip(parts, buffers)))
    pool.rows(_reorder, (scaled[:n], lay.rank), acc)
    pool.rows(_unscale, (out, scaled[:n], s))
    return out


def _scale_rows(out, h, s) -> None:
    """out = S h, padded with zero columns to out's width."""
    c = h.shape[1]
    np.multiply(h, s[:, None], out=out[:, :c])
    out[:, c:] = 0


def _gather_reduce(lay, span: tuple, buf, scaled, acc) -> None:
    """The rows of acc in the row blocks span[0] <= b < span[1] of `lay`,
    summed from the rows of `scaled` through the gather buffer `buf`."""
    for lo, hi, d, offset in lay.blocks[span[0] : span[1]]:
        m = d * (hi - lo)
        # indices are in range; "clip" lets take write into the buffer unbuffered
        scaled.take(lay.indices[offset : offset + m], axis=0, out=buf[:m], mode="clip")
        np.add.reduce(buf[:m].reshape(d, hi - lo, scaled.shape[1]), axis=0, out=acc[lo:hi], initial=0)


def _reorder(out, rank, acc) -> None:
    """out = the rows `rank` of acc: rows back to node order (into the
    padded input, which is no longer read)."""
    acc.take(rank, axis=0, out=out, mode="clip")


def _unscale(out, scaled, s) -> None:
    """out = S scaled, over out's columns."""
    np.multiply(scaled[:, : out.shape[1]], s[:, None], out=out)


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


def dropout(a, rate, training, rng, keep=None, pool=INLINE):
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

    On `pool`, the rows of `a` run in ranges (`Pool.row_ranges`). Philox is
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
    split = pool.parts > 1 and a.size >= 2 * MIN_PASS_ELEMENTS  # else one range
    width = a.size // len(a) if split else 0
    rows = pool.row_ranges(len(a), width) if split else ()
    if len(rows) < 2:
        _dropout_rows(bitgen, a, keep, 0, threshold, scale)
        return a, keep, scale
    state = bitgen.state

    def part(r):
        lo, hi = r
        copy = np.random.Philox(key=0)
        copy.state = state
        _skip(copy, lo * width // 4)
        _dropout_rows(copy, a[lo:hi], keep[lo:hi], lo * width % 4, threshold, scale)

    pool.each(part, rows)
    _skip(bitgen, -(-a.size // 4))
    return a, keep, scale


def _dropout_rows(bitgen, a, keep, lead: int, threshold: int, scale) -> None:
    """Dropout of `a` into `keep` and `a`, from fields `lead`, `lead` + 1, …
    of the raw draws of `bitgen`; the fields before `lead` belong to the
    rows above."""
    flat = keep.reshape(-1)
    step = 4 * _DROPOUT_CHUNK  # whole raw draws, so the chunk size leaves the mask alone
    for lo in range(-lead, flat.size, step):
        hi = min(lo + step, flat.size)
        raw = bitgen.random_raw(-(-(hi - lo) // 4))
        part = flat[max(lo, 0) : hi]
        if threshold == 1 << 16:  # past every field: nothing is kept
            part[...] = False
        else:
            fields = raw.astype("<u8", copy=False).view("<u2")[max(-lo, 0) : hi - lo]
            np.greater_equal(fields, np.uint16(threshold), out=part)
    np.multiply(a, keep, out=a)  # the two roundings of apply_mask
    a *= scale


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
