"""Dense kernels with explicit gradients, plus deterministic RNG streams.

Matrices are plain numpy arrays, row-major, float32 or float64 (chosen once
per run). Every kernel is a pure function of its inputs, except `dropout`,
which writes its output into the array it is given (callers pass arrays they
own). Nothing here keeps state, so arrays can be shared freely across worker
threads.
"""

from __future__ import annotations

import math

import numpy as np

# Stream ids for master-owned draws. Worker i uses stream id i, so master
# streams start far above any plausible device count.
STREAM_FUSION = 1 << 16
STREAM_ENCODING = (1 << 16) + 1
STREAM_CLASSIFIER = (1 << 16) + 2

_DROPOUT_CHUNK = 1 << 17  # raw draws per chunk of a dropout mask: 1 MB of uint64


def rng_stream(seed: int, *stream_id: int) -> np.random.Generator:
    """Counter-based generator for (seed, stream_id).

    Same (seed, stream, draw index) yields the same value on every platform
    and under any thread schedule, because each stream is consumed by exactly
    one owner.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(stream_id))
    return np.random.Generator(np.random.Philox(ss))


def spmm_norm(adj, s: np.ndarray, h: np.ndarray, transpose: bool = False) -> np.ndarray:
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
    """
    n, c = adj.num_nodes, h.shape[-1]
    if h.ndim != 2 or h.shape[0] != n:
        raise ValueError(f"spmm_norm: H has {h.shape[0]} rows, graph has {n} nodes")
    if s.shape != (n,):
        raise ValueError(f"spmm_norm: scale vector has shape {s.shape}, want ({n},)")
    lay = adj.blocks_t if transpose else adj.blocks
    width = max(c, 2)  # one column would make a one-row block's reduce pairwise, out of order
    scaled = np.empty((n + 1, width), dtype=h.dtype)
    np.multiply(h, s[:, None], out=scaled[:n, :c])
    scaled[:n, c:] = scaled[n] = 0
    acc = np.empty((n, width), dtype=h.dtype)
    buf = np.empty((lay.max_entries, width), dtype=h.dtype)
    for lo, hi, d, offset in lay.blocks:
        m = d * (hi - lo)
        # indices are in range; "clip" lets take write into the buffer unbuffered
        np.take(scaled, lay.indices[offset : offset + m], axis=0, out=buf[:m], mode="clip")
        np.add.reduce(buf[:m].reshape(d, hi - lo, width), axis=0, out=acc[lo:hi], initial=0)
    # back to node order, into scaled, which is no longer read
    out = np.take(acc, lay.rank, axis=0, out=scaled[:n], mode="clip")[:, :c]
    out *= s[:, None]
    return out


def glorot_init(rows: int, cols: int, rng: np.random.Generator, dtype=np.float64) -> np.ndarray:
    """Uniform in [-a, a] with a = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError("glorot_init needs positive dimensions")
    a = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols)).astype(dtype)


def relu(a: np.ndarray) -> np.ndarray:
    return np.maximum(a, 0)


def relu_backward(a: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    # Subgradient at 0 is 0.
    return d_out * (a > 0)


def dropout(a, rate, training, rng):
    """Inverted dropout, in place: (a, keep mask, scale).

    Writes (a * keep) * scale into `a` and returns it; the keep mask is bool
    and the scale is the scalar 1/(1-rate) in a's dtype. Survivors are scaled
    at train time so evaluation is a plain forward pass. Returns
    (a, None, None) when inactive; no rng draw happens then, keeping stream
    positions independent of evaluation passes.

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


def apply_mask(a, keep, scale):
    """(a * keep) * scale: dropout forward, and its backward on a gradient.

    Dropped entries become zeros carrying a's sign, as with a float mask.
    """
    out = a * keep
    out *= scale
    return out


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy and its gradient.

    loss = mean over rows of -log softmax(logits)[label]
    dLogits = (softmax - onehot) / m

    Rows are shifted by their max before exponentiation.
    """
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
    loss = float(-log_probs[rows, labels].mean())
    d_logits = exp / denom
    d_logits[rows, labels] -= 1
    d_logits /= m
    return loss, d_logits


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax (used for evaluation-time probabilities)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
