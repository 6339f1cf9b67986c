"""Dense kernels with explicit gradients, deterministic RNG streams, keyed
dropout masks, and the workspace that holds an owner's reusable arrays.

Matrices are plain numpy arrays, row-major, float32 or float64 (chosen once
per run). Every kernel is a pure function of its inputs, except `dropout`,
which writes its output into the array it is given (callers pass arrays they
own). The element-wise kernels follow numpy: `out=` names the array their
result is written into, and without it they return a new one.
`spmm_norm(op, h, out)` applies a run's read-only normalized operator
(`graph.NormOperator`) to `h`, writes the result into `out`, and runs in
its owner's `Workspace` (`ws=`), where its temporaries live: it reads its
input where it lies, and copies it into the workspace's scratch array
(`scratch`) only when it is strided or shares memory with `out`. Kernels
keep no state; a workspace belongs to one owner, which uses it from one
thread at a time.

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


def spmm_norm(op, h: np.ndarray, out, /, *, ws, pool=INLINE) -> np.ndarray:
    """Degree-normalized sparse aggregation, out = op · H, for a normalized
    operator `op` (`graph.NormOperator`): Â = S A S, its transpose `Â.t`,
    or the rows R of either (`restrict`).

    A[v, u] = 1 when u is stored in row v of the adjacency, and S = diag(s),
    where s is 1/sqrt of the row degree (the in-degree on directed graphs)
    on both sides: (Â H)[v, :] = sum over u in row v of s[u] * s[v] * h[u, :].
    On undirected graphs Â is its own transpose. H must have `op.num_cols`
    rows and the dtype of `op.values` (ValueError otherwise); `out` has
    `op.num_rows` rows and H's width.

    (A S) H is summed by scipy's compiled CSR kernel `csr_matvecs` over the
    operator's CSR, whose stored values are s at each entry's column
    (`op.values`): each row adds its terms s[u] * h[u, :] one by one in CSR
    order, from +0.0, so its bits do not depend on how the rows are cut.
    The kernel reads H where it lies when H is C-contiguous and shares no
    memory with `out`; any other H is first copied into the scratch array
    of `ws` (`scratch`), the only use the SpMM makes of it. The sum goes
    into `out`, which may be `h` itself, and may be the scratch only when
    H is read where it lies (ValueError otherwise); a strided
    `out`, or one of another dtype, which the kernel would write through a
    copy, sums in the accumulator `"spmm.acc"` of `ws` instead. Scaled by S
    at its rows (`op.scale`), it ends in `out`, which is returned.

    On `pool`, a copy runs in row ranges (`Pool.rows`), and the sum
    and the scaling in up to `pool.threads` row parts of near-equal stored
    entries (`Pool.count`), each of which writes its own rows only.
    """
    out_rows, n, offsets, cols = op.num_rows, op.num_cols, op.row_offsets, op.col_indices
    c = h.shape[-1]
    if h.ndim != 2 or h.shape[0] != n:
        raise ValueError(f"spmm_norm: H has {h.shape[0]} rows, the operator has {n} columns")
    if h.dtype != op.values.dtype:
        raise ValueError(f"spmm_norm: H is {h.dtype}, the operator's values are {op.values.dtype}")
    if not h.flags.c_contiguous or np.may_share_memory(h, out):
        x = scratch(ws, n, c, h.dtype)
        if np.may_share_memory(x, out):
            raise ValueError("spmm_norm: out is the scratch, which the copy of H would overwrite")
        pool.rows(np.copyto, (x, h))
        h = x
    acc = out if out.flags.c_contiguous and out.dtype == h.dtype else ws.get("spmm.acc", (out_rows, c), h.dtype)
    k = pool.count(cols.size * c, out_rows)
    if k == 1:
        parts = [(0, out_rows)]
    else:  # rows [lo, hi) of near-equal stored entries
        cuts = np.searchsorted(offsets, cols.size * np.arange(1, k) / k)
        bounds = np.unique(np.concatenate([[0], cuts, [out_rows]]))
        parts = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
    pool.run(lambda part: _spmm_rows(*part, op, h, acc, out), parts)
    return out


SCRATCH = "tmp"  # the workspace key of a layer's temporaries and of the SpMM's copied input


def scratch(ws, n: int, c: int, dtype) -> np.ndarray:
    """The n x c scratch array of `ws`, a temporary."""
    return ws.get(SCRATCH, (n, c), dtype)


def _spmm_rows(lo: int, hi: int, op, h, acc, out) -> None:
    """Rows [lo, hi) of out = op · h, summed in the same rows of acc,
    which may be out."""
    rows = acc[lo:hi]
    rows[...] = 0
    _sparsetools.csr_matvecs(hi - lo, len(h), h.shape[1], op.row_offsets[lo : hi + 1], op.col_indices, op.values,
                             h.reshape(-1), rows.reshape(-1))
    np.multiply(rows, op.scale[lo:hi, None], out=out[lo:hi])


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


def dropout(a, rate, training, key, keep=None, pool=INLINE, *, rows=None):
    """Inverted dropout of the rows x w array `a`, in place: writes
    (a * keep) * scale into `a` (a dropped entry keeps a's sign, as with a
    float mask) and returns (a, keep, scale), which backward applies to the
    gradient: the bool mask, written into `keep` when given, and the scalar
    1/(1-rate) in a's dtype. Returns (a, None, None) when inactive.

    The mask is a pure function of the 64-bit `key` (`dropout_key`) and of
    each element's place: element (r, j) is kept iff 16-bit field j % 4
    (low bits first) of the SplitMix64 hash
    `_mix(key + (r * ceil(w / 4) + j // 4) * _GAMMA)` is >= ceil(rate * 2**16).
    Row i of `a` is row r = rows[i] when `rows` (int64, ascending and
    non-negative, read as uint64 with no copy) is given, so a row subset's
    mask is the whole mask at those rows, and any split of the rows on
    `pool` (`Pool.ranges`) gives the whole's bits.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a, None, None
    threshold = math.ceil(rate * 2.0**16)  # 2**16, past every field, for a rate above 1 - 2**-16
    if keep is None:
        keep = np.empty(a.shape, dtype=bool)
    scale = a.dtype.type(1.0) / a.dtype.type(1.0 - rate)
    nodes = None if rows is None else rows.view(np.uint64)

    def part(span):
        lo, hi = span
        _mask_rows(a[lo:hi], keep[lo:hi], lo if nodes is None else nodes[lo:hi], key, threshold, scale)

    pool.run(part, pool.ranges(len(a), a.shape[1]))
    return a, keep, scale


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's counter increment, 2**64 over the golden ratio
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, 1))  # its finalizer's steps
_MASK_BLOCK = 1 << 12  # hashes in a dropout mask's smallest block: 32 KB per uint64 temporary


def _mix(z: int) -> int:
    """SplitMix64's finalizer (Steele, Lea & Flood, OOPSLA'14) of a 64-bit int."""
    for shift, factor in _MIX:
        z = (z ^ z >> shift) * factor % 2**64
    return z


def owner_key(seed: int, stream_id: int) -> int:
    """The dropout key of stream `stream_id`'s owner: 64 bits of the seed sequence
    of all of `seed` under spawn key (stream_id, 2**20), unlike any `rng_stream`'s."""
    return int(np.random.SeedSequence(seed, spawn_key=(stream_id, 1 << 20)).generate_state(1, np.uint64)[0])


def dropout_key(owner: int, layer: int, step: int) -> int:
    """The mask key of an owner's layer `layer` at its optimizer step count
    `step`, one of its own for each layer below 2**24 and step below 2**40."""
    return _mix((owner + ((layer << 40) + step) * _GAMMA) % 2**64)


def _mask_rows(a, keep, nodes, key: int, threshold: int, scale) -> None:
    """Dropout on `a`, in place, row i hashed as row nodes[i], or as row
    nodes + i when `nodes` is an int: its keep mask into `keep`, a block of
    rows at a time. A block is at least `_MASK_BLOCK` hashes and a
    sixteenth of the rows, as each of its dozen numpy calls hands the
    interpreter lock to the run's other threads."""
    width = a.shape[1]
    words = -(-width // 4)  # hashes per row, of four fields each
    block = max(1, _MASK_BLOCK // words, len(a) // 16)
    cols = np.arange(words, dtype=np.uint64) * _GAMMA + key
    z_block, t_block = np.empty((2, min(block, len(a)), words), "<u8")  # little-endian on any host
    fields = z_block.view("<u2")[:, :width]
    for b in range(0, len(a), block):
        if isinstance(nodes, int):
            node = np.arange(nodes + b, nodes + min(b + block, len(a)), dtype=np.uint64)
        else:
            node = nodes[b : b + block]
        z, t, out = z_block[: len(node)], t_block[: len(node)], a[b : b + block]
        # key + (r * words + c) * _GAMMA, in same-shape passes: a broadcast operand costs a buffer
        z[...] = (node * (words * _GAMMA % 2**64))[:, None]
        t[...] = cols
        z += t
        for shift, factor in _MIX:
            np.right_shift(z, shift, out=t)
            z ^= t
            if factor != 1:
                z *= factor
        np.greater_equal(fields[: len(node)], threshold, out=keep[b : b + block])
        np.multiply(out, keep[b : b + block], out=out)
        out *= scale


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
