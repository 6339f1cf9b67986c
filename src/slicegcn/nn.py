"""Model layers with explicit forward/backward, and the optimizer.

Layer update, per device and layer (the default "dual" form):

    H_out = ReLU(b + agg(H_in) @ W_agg) + H_in @ W_self

where agg is the degree-normalized neighbor sum. The activation wraps only
the aggregation term; the self path is added outside it. The "single" form
drops the self path:

    H_out = ReLU(b + agg(H_in) @ W_agg)

where agg(H) = Â H with Â = S A S: A[v, u] = 1 when u is stored in row v of
the adjacency, and S = diag(s) holds 1/sqrt of each row's degree (the
in-degree on directed graphs) on both sides.

Each layer aggregates once, on its narrow side. Since Â (H W) = (Â H) W,
a narrowing layer (w_in > w_out) multiplies by W_agg first and aggregates
w_out columns; any other layer aggregates H. A caller whose input H is the
same in every forward (a device's fixed feature slice; dropout acts on layer
outputs, not on H) computes Â H once and passes it in as `agg`, and the
layer then skips its aggregation.

A layer's dropout-free result depends only on its input and parameters, and
dropout is the first random draw of a training forward. So an evaluation
pass over a fixed input can hand its first layer's result (`kept`) to the
next training forward, which then only draws dropout. The same holds for
the first layer of an MLP. Any parameter update invalidates a kept result.

All backward passes are hand-derived reverse-mode gradients. The input
gradient of the aggregation is Âᵀ G = S Aᵀ S G, which equals Â G only on
undirected graphs. Backward aggregates on the same side as forward: a
narrowing layer forms Âᵀ d_pre once and reuses it for both the weight and
the input gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops

FORM_SINGLE = "eq1"  # aggregation-only layer
FORM_DUAL = "eq6"  # aggregation + self path


class NumericError(Exception):
    """Raised when a loss or gradient stops being finite."""


# ---------------------------------------------------------------------------
# GCN layer


@dataclass
class GcnLayerParams:
    w_agg: np.ndarray  # w_in x w_out
    w_self: Optional[np.ndarray]  # w_in x w_out, None in the single form
    bias: np.ndarray  # w_out

    def arrays(self) -> list:
        out = [self.w_agg]
        if self.w_self is not None:
            out.append(self.w_self)
        out.append(self.bias)
        return out


def init_gcn_layer(w_in: int, w_out: int, rng, dtype, form: str = FORM_DUAL) -> GcnLayerParams:
    w_agg = ops.glorot_init(w_in, w_out, rng, dtype)
    w_self = ops.glorot_init(w_in, w_out, rng, dtype) if form == FORM_DUAL else None
    bias = np.zeros(w_out, dtype=dtype)
    return GcnLayerParams(w_agg=w_agg, w_self=w_self, bias=bias)


@dataclass
class GcnLayerCache:
    h_in: np.ndarray
    agg: Optional[np.ndarray]  # Â h_in; None when the layer multiplied by W_agg first
    pre: np.ndarray  # Â h_in W_agg + b, pre-activation
    keep: Optional[np.ndarray]  # bool dropout keep mask, None without dropout
    scale: Optional[np.generic]  # dropout scale 1/(1-rate)


def _narrows(params: GcnLayerParams) -> bool:
    w_in, w_out = params.w_agg.shape
    return w_in > w_out


def gcn_layer_forward(
    adj, s, h_in, params: GcnLayerParams, rng, training: bool, dropout_rate: float = 0.0, agg=None,
    kept=None,
):
    """One layer. Dropout (if rate > 0) is applied to the layer output.

    `agg`, when given, is Â h_in computed by the caller and is used as is.
    Otherwise a narrowing layer (w_in > w_out) aggregates H W_agg and any
    other layer aggregates H. `kept`, when given, is the (output, pre) pair
    of an evaluation forward over the same h_in, agg and parameters; only
    dropout is computed then, in place, so the kept output is consumed.
    """
    if kept is not None:
        if agg is None:
            raise ValueError("a kept layer result needs the aggregate its backward pass uses")
        h_out, pre = kept
    else:
        if agg is None and _narrows(params):
            pre = ops.spmm_norm(adj, s, h_in @ params.w_agg) + params.bias
        else:
            if agg is None:
                agg = ops.spmm_norm(adj, s, h_in)
            pre = agg @ params.w_agg + params.bias
        h_out = ops.relu(pre)
        if params.w_self is not None:
            h_out = h_out + h_in @ params.w_self
    h_out, keep, scale = ops.dropout(h_out, dropout_rate, training, rng)
    return h_out, GcnLayerCache(h_in=h_in, agg=agg, pre=pre, keep=keep, scale=scale)


def gcn_layer_backward(cache: GcnLayerCache, d_out, params: GcnLayerParams, adj, s, need_d_in: bool = True):
    """Gradients (dW_agg, dW_self, db, dH_in); dW_self/dH_in may be None.

    A narrowing layer forms G = Âᵀ d_pre once, at the output width, for
    dW_agg = H_inᵀ G (when the forward kept no aggregate) and dH_in = G W_aggᵀ.
    """
    if cache.keep is not None:
        d_out = ops.apply_mask(d_out, cache.keep, cache.scale)
    d_pre = ops.relu_backward(cache.pre, d_out)
    db = d_pre.sum(axis=0)
    narrows = _narrows(params)
    g = None
    if narrows and (cache.agg is None or need_d_in):
        g = ops.spmm_norm(adj, s, d_pre, transpose=True)
    dw_agg = cache.h_in.T @ g if cache.agg is None else cache.agg.T @ d_pre
    dw_self = cache.h_in.T @ d_out if params.w_self is not None else None
    d_in = None
    if need_d_in:
        if narrows:
            d_in = g @ params.w_agg.T
        else:
            d_in = ops.spmm_norm(adj, s, d_pre @ params.w_agg.T, transpose=True)
        if params.w_self is not None:
            d_in = d_in + d_out @ params.w_self.T
    return dw_agg, dw_self, db, d_in


# ---------------------------------------------------------------------------
# MLP (classifier head and feature fusion)


@dataclass
class MlpParams:
    layers: list  # of (W, b)
    dropout: float = 0.0

    def arrays(self) -> list:
        return [a for w, b in self.layers for a in (w, b)]


def init_mlp(sizes, rng, dtype, dropout: float = 0.0) -> MlpParams:
    """Linear layers sizes[0] -> ... -> sizes[-1], ReLU + dropout between."""
    layers = []
    for w_in, w_out in zip(sizes[:-1], sizes[1:]):
        layers.append((ops.glorot_init(w_in, w_out, rng, dtype), np.zeros(w_out, dtype=dtype)))
    return MlpParams(layers=layers, dropout=dropout)


def mlp_forward(x, mlp: MlpParams, rng, training: bool, kept=None):
    """Returns (output, cache). The last layer is linear (no activation).

    `kept`, when given, is the (z, relu(z)) pair of the first hidden layer
    from an evaluation forward over the same x and parameters (see
    `mlp_first_layer`); that layer then only applies dropout, in place, so
    the kept relu(z) is consumed.
    """
    cache = []
    h = x
    last = len(mlp.layers) - 1
    for li, (w, b) in enumerate(mlp.layers):
        if h.shape[1] != w.shape[0]:
            raise ValueError(f"mlp layer {li}: input width {h.shape[1]} != {w.shape[0]}")
        if li == last:
            cache.append((h, None, None, None))
            h = h @ w + b
            continue
        if li == 0 and kept is not None:
            z, a = kept
        else:
            z = h @ w + b
            a = ops.relu(z)
        a, keep, scale = ops.dropout(a, mlp.dropout, training, rng)
        cache.append((h, z, keep, scale))
        h = a
    return h, cache


def mlp_first_layer(cache):
    """The (z, relu(z)) pair of the first hidden layer, from an evaluation
    forward's cache (no dropout, so the second layer's input is relu(z))."""
    return cache[0][1], cache[1][0]


def mlp_backward(cache, d_out, mlp: MlpParams, need_d_in: bool = True):
    """Returns ([(dW, db) per layer], d_input); d_input is None unless need_d_in."""
    grads = [None] * len(mlp.layers)
    d = d_out
    for li in range(len(mlp.layers) - 1, -1, -1):
        h, z, keep, scale = cache[li]
        w, _ = mlp.layers[li]
        if z is not None:  # hidden layer: undo dropout and ReLU
            if keep is not None:
                d = ops.apply_mask(d, keep, scale)
            d = ops.relu_backward(z, d)
        grads[li] = (h.T @ d, d.sum(axis=0))
        d = d @ w.T if li > 0 or need_d_in else None
    return grads, d


# ---------------------------------------------------------------------------
# Slice encoding


@dataclass
class SliceEncoding:
    """One learned offset row per device, added to that device's output."""

    table: np.ndarray  # p x width


def init_slice_encoding(p: int, width: int, rng, dtype) -> SliceEncoding:
    return SliceEncoding(table=ops.glorot_init(p, width, rng, dtype))


def slice_encode(h, enc: SliceEncoding, device_index: int):
    if h.shape[1] != enc.table.shape[1]:
        raise ValueError(f"encoding width {enc.table.shape[1]} != representation width {h.shape[1]}")
    if not 0 <= device_index < enc.table.shape[0]:
        raise ValueError(f"device index {device_index} out of range")
    return h + enc.table[device_index]


def slice_encode_backward(d_h):
    """Returns (d_table_row, d_h); the pass-through gradient is unchanged."""
    return d_h.sum(axis=0), d_h


# ---------------------------------------------------------------------------
# Optimizer and schedule


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list) -> "AdamState":
        return cls(m=[np.zeros_like(p) for p in params], v=[np.zeros_like(p) for p in params])


def adam_step(params: list, grads: list, state: AdamState, lr: float) -> None:
    """In-place Adam update with bias correction. Fails fast on bad grads."""
    if len(params) != len(state.m):
        raise ValueError("optimizer state does not match parameter list")
    for g in grads:
        if not np.isfinite(g).all():
            raise NumericError("non-finite gradient")
    state.t += 1
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def cosine_lr(epoch: int, total: int, lr0: float, lr_min: float = 0.0) -> float:
    """Cosine annealing from lr0 at epoch 0 to lr_min at epoch `total`."""
    if total < 1:
        raise ValueError("schedule horizon must be >= 1")
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * epoch / total))

