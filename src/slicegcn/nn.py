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
w_out columns; any other layer aggregates H. A caller that holds Â H
already (the fusion variants' shared input) passes it in as `agg`, and the
layer then skips its aggregation.

A rectified layer keeps, for its backward pass, only where its
pre-activation was positive: it forms the pre-activation in its output
array, records pre > 0 in a bool mask, and rectifies in place, and backward
forms d_pre = d_out * mask.

A layer over a fixed input (a device's feature slice, or the features
under the fusion MLP; dropout acts on layer outputs, not on the input) is
called with `version=`, its owner's optimizer-group step count `t`, and
keeps its state in its owner's workspace, whose `versions` records the
version at which each kept result was formed. It aggregates the fixed input
once. Its dropout-free output and ReLU mask depend only on the input and
the parameters, and dropout is the first random draw of a training
forward, so it keeps them (unless it writes into `out`) and reuses them
while the version holds, drawing only dropout; a training forward drops
them, as its dropout consumes the output in place. A ReLU mask is formed
only in training, whose backward reads it, or for a kept result. The same
holds for the first layer of an MLP. An owner passes `version` to a layer
in every call or in none: an unversioned call writes over kept arrays and
leaves `versions` alone.

Forward passes and the GCN layer's backward run in their owner's
`ops.Workspace` (`ws`), and a result lives there unless `out` names an
array for it; parameter gradients go to the `out` arrays, and an input
gradient to `d_in`, formed only when given. A layer writes its cached
arrays and output under per-layer keys, so each pass writes the arrays the
previous pass did; a kept result is then already where the next
forward reads it. Temporaries share scratch keys, and backward passes write
gradients over forward arrays that nothing reads afterwards (see
`mlp_backward`, which so needs no scratch).

All backward passes are hand-derived reverse-mode gradients. The input
gradient of the aggregation is Âᵀ G = S Aᵀ S G, which equals Â G only on
undirected graphs. Backward aggregates on the same side as forward: a
narrowing layer forms Âᵀ d_pre once and reuses it for both the weight and
the input gradient.

Parameters live in optimizer groups (`ParamGroup`): the layers of a group
are views into one flat parameter buffer, backward passes can write their
gradients into views of the group's flat gradient buffer (`out`), and
`adam_step` updates a whole group in one in-place pass.
"""

from __future__ import annotations

import math
import operator
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


def init_gcn_layers(widths, rng, dtype, form: str = FORM_DUAL):
    """GCN layers widths[0] -> ... -> widths[-1], built in one new group.

    Returns (layers, group): the layers hold views into the group.
    """
    dual = form == FORM_DUAL
    shapes = [
        s for w_in, w_out in zip(widths[:-1], widths[1:])
        for s in [(w_in, w_out)] * (2 if dual else 1) + [(w_out,)]
    ]
    group = ParamGroup(shapes, rng, dtype)
    it = iter(group.params)
    layers = [GcnLayerParams(next(it), next(it) if dual else None, next(it)) for _ in widths[1:]]
    return layers, group


@dataclass
class GcnLayerCache:
    h_in: np.ndarray
    agg: Optional[np.ndarray]  # Â h_in; None when the layer multiplied by W_agg first
    mask: Optional[np.ndarray]  # bool, where the pre-activation Â h_in W_agg + b is positive; None if not recorded
    keep: Optional[np.ndarray]  # bool dropout keep mask, None without dropout
    scale: Optional[np.generic]  # dropout scale 1/(1-rate)


def _activate(h, mask, self_path, bias) -> None:
    """h = ReLU(h + bias) + self_path, in place, recording h + bias > 0 in
    the bool array `mask` first; a None mask or self path is skipped."""
    h += bias
    if mask is not None:
        np.greater(h, 0, out=mask)
    ops.relu(h, out=h)
    if self_path is not None:
        h += self_path


def narrows(params: GcnLayerParams) -> bool:
    """Whether the layer narrows (w_in > w_out), and so multiplies by W_agg before it aggregates."""
    w_in, w_out = params.w_agg.shape
    return w_in > w_out


def gcn_layer_forward(
    adj, s, h_in, params: GcnLayerParams, rng, training: bool, dropout_rate: float = 0.0, agg=None,
    *, ws, layer=0, out=None, version=None, pool=ops.INLINE,
):
    """One layer. Dropout (if rate > 0) is applied to the layer output.

    `agg`, when given, is Â h_in computed by the caller and is used as is.
    Otherwise a narrowing layer (w_in > w_out) aggregates H W_agg and any
    other layer aggregates H, or, given a `version`, h_in is fixed and its
    aggregate is formed once and kept (module docstring). The cache's mask
    is None where no mask is formed.

    The layer's cached arrays (ReLU mask, aggregate, keep mask) and its
    output live in `ws` under keys (layer, name), so every pass through
    layer `layer` writes the same arrays, and its temporaries share the
    workspace's scratch keys. `out`, when given, is the array the output is
    written into instead; the pre-activation is formed there too. The
    products, the SpMM, dropout and the element-wise passes split on `pool`.
    """
    n, (w_in, w_out), dtype = h_in.shape[0], params.w_agg.shape, h_in.dtype
    keeps = version is not None and out is None
    kept = keeps and ws.versions.pop((layer, "out"), None) == version
    if version is not None and agg is None:
        agg = ws.get((layer, "agg"), (n, w_in), dtype)
        if (layer, "agg") not in ws.versions:  # a fixed input's aggregate holds at every version
            # in a throwaway workspace: this SpMM's scratch is as wide as the input, and needed once
            ops.spmm_norm(adj, s, h_in, out=agg, ws=ops.Workspace(), pool=pool)
            ws.versions[layer, "agg"] = version
    h_out = ws.get((layer, "out"), (n, w_out), dtype) if out is None else out
    mask = ws.get((layer, "mask"), (n, w_out), bool) if training or keeps else None
    if not kept:
        if agg is None and narrows(params):
            t = pool.matmul(h_in, params.w_agg, out=ws.get("tmp", (n, w_out), dtype))
            ops.spmm_norm(adj, s, t, out=h_out, ws=ws, pool=pool)
        else:
            if agg is None:
                agg = ops.spmm_norm(
                    adj, s, h_in, out=ws.get((layer, "agg"), (n, w_in), dtype), ws=ws, pool=pool
                )
            pool.matmul(agg, params.w_agg, out=h_out)
        self_path = None
        if params.w_self is not None:
            self_path = pool.matmul(h_in, params.w_self, out=ws.get("tmp", (n, w_out), dtype))
        pool.rows(_activate, (h_out, mask, self_path), params.bias)
    if keeps and not training:
        ws.versions[layer, "out"] = version
    keep = ws.get((layer, "keep"), h_out.shape, bool) if training and dropout_rate > 0 else None
    h_out, keep, scale = ops.dropout(h_out, dropout_rate, training, rng, keep=keep, pool=pool)
    return h_out, GcnLayerCache(h_in=h_in, agg=agg, mask=mask, keep=keep, scale=scale)


def _deactivate(out, d, keep, mask, scale) -> None:
    """The gradient through dropout and the ReLU: d = (d * keep) * scale,
    in place, when dropout was applied (`keep` not None), then out = d * mask."""
    if keep is not None:
        ops.apply_mask(d, keep, scale, out=d)
    np.multiply(d, mask, out=out)


def gcn_layer_backward(
    cache: GcnLayerCache, d_out, params: GcnLayerParams, adj, s, *, out, ws, d_in=None, pool=ops.INLINE,
):
    """Gradients (dW_agg, dW_self, db, dH_in); dW_self/dH_in may be None.

    `out` holds the arrays to write the parameter gradients into, aligned
    with `params.arrays()`; they are returned. dH_in is written into `d_in`,
    and is not formed without it. The temporaries come from the scratch keys
    of `ws`, and the dropout mask is applied to `d_out` in place. The
    products, the SpMM and the element-wise passes split on `pool`.

    A narrowing layer forms G = Âᵀ d_pre once, at the output width, for
    dW_agg = H_inᵀ G (when the forward kept no aggregate) and dH_in = G W_aggᵀ.
    dH_in is formed last, after every read of H_in, so `d_in` may be H_in's
    own array.
    """
    n, (w_in, w_out), dtype = d_out.shape[0], params.w_agg.shape, d_out.dtype
    d_pre = ws.get("d_pre", (n, w_out), dtype)
    pool.rows(_deactivate, (d_pre, d_out, cache.keep, cache.mask), cache.scale)
    db = np.sum(d_pre, axis=0, out=out[-1])
    narrowing = narrows(params)
    g = None
    if narrowing and (cache.agg is None or d_in is not None):
        g = ops.spmm_norm(
            adj, s, d_pre, transpose=True, out=ws.get("tmp", (n, w_out), dtype), ws=ws, pool=pool
        )
    if cache.agg is None:
        dw_agg = pool.matmul(cache.h_in.T, g, out=out[0])
    else:
        dw_agg = pool.matmul(cache.agg.T, d_pre, out=out[0])
    dw_self = pool.matmul(cache.h_in.T, d_out, out=out[1]) if params.w_self is not None else None
    if d_in is None:
        return dw_agg, dw_self, db, None
    if narrowing:
        pool.matmul(g, params.w_agg.T, out=d_in)
    else:
        t = pool.matmul(d_pre, params.w_agg.T, out=ws.get("tmp", (n, w_in), dtype))
        ops.spmm_norm(adj, s, t, transpose=True, out=d_in, ws=ws, pool=pool)
    if params.w_self is not None:
        self_path = pool.matmul(d_out, params.w_self.T, out=ws.get("tmp", (n, w_in), dtype))
        pool.rows(operator.iadd, (d_in, self_path))
    return dw_agg, dw_self, db, d_in


# ---------------------------------------------------------------------------
# MLP (classifier head and feature fusion)


@dataclass
class MlpParams:
    layers: list  # of (W, b), views into group
    group: ParamGroup
    dropout: float = 0.0


def init_mlp(sizes, rng, dtype, dropout: float = 0.0) -> MlpParams:
    """Linear layers sizes[0] -> ... -> sizes[-1], ReLU + dropout between,
    built in one new group."""
    shapes = [s for w_in, w_out in zip(sizes[:-1], sizes[1:]) for s in ((w_in, w_out), (w_out,))]
    group = ParamGroup(shapes, rng, dtype)
    it = iter(group.params)
    return MlpParams(layers=list(zip(it, it)), group=group, dropout=dropout)


def mlp_forward(x, mlp: MlpParams, rng, training: bool, *, ws, version=None, pool=ops.INLINE):
    """Returns (output, cache). The last layer is linear (no activation).

    Layer li writes relu(z), its ReLU and keep masks and the output into
    `ws` under keys (li, name), so every pass writes the same arrays.
    `version` says that x is fixed: the first hidden layer then keeps and
    reuses its relu(z) and mask by it (module docstring). The cache's masks
    are None where none is formed. Each layer's product runs in blocks on
    `pool` (`ops.Pool.matmul`), and its bias, ReLU and dropout in row
    ranges.
    """
    cache = []
    h = x
    last = len(mlp.layers) - 1
    for li, (w, b) in enumerate(mlp.layers):
        if h.shape[1] != w.shape[0]:
            raise ValueError(f"mlp layer {li}: input width {h.shape[1]} != {w.shape[0]}")
        shape = (h.shape[0], w.shape[1])
        if li == last:
            cache.append((h, None, None, None))
            h = pool.matmul(h, w, out=ws.get((li, "out"), shape, h.dtype))
            h += b
            continue
        keeps = li == 0 and version is not None
        a = ws.get((li, "a"), shape, h.dtype)
        mask = ws.get((li, "mask"), shape, bool) if training or keeps else None
        if not (keeps and ws.versions.pop((li, "a"), None) == version):
            pool.matmul(h, w, out=a)
            pool.rows(_activate, (a, mask, None), b)
        if keeps and not training:
            ws.versions[li, "a"] = version
        keep = ws.get((li, "keep"), shape, bool) if training and mlp.dropout > 0 else None
        a, keep, scale = ops.dropout(a, mlp.dropout, training, rng, keep=keep, pool=pool)
        cache.append((h, mask, keep, scale))
        h = a
    return h, cache


def mlp_backward(cache, d_out, mlp: MlpParams, *, out, d_in=None, pool=ops.INLINE):
    """Returns ([(dW, db) per layer], d_input); d_input is None without `d_in`.

    `out` holds the arrays to write the parameter gradients into: W and b of
    each layer, in layer order. d_input is written into `d_in`, and is not
    formed without it. The backward consumes the forward's cache: the
    gradient of each hidden layer's output is written over that output,
    which nothing reads afterwards, so it needs no scratch. The products
    run in blocks on `pool` (`ops.Pool.matmul`), and the gradient through
    dropout and the ReLU in row ranges.
    """
    grads = [None] * len(mlp.layers)
    d = d_out
    for li in range(len(mlp.layers) - 1, -1, -1):
        h, mask, keep, scale = cache[li]
        w, _ = mlp.layers[li]
        if mask is not None:  # hidden layer: undo dropout and ReLU, in place (d is this pass's own)
            pool.rows(_deactivate, (d, d, keep, mask), scale)
        grads[li] = (pool.matmul(h.T, d, out=out[2 * li]), np.sum(d, axis=0, out=out[2 * li + 1]))
        if li == 0 and d_in is None:
            return grads, None
        d = pool.matmul(d, w.T, out=h if li > 0 else d_in)
    return grads, d


# ---------------------------------------------------------------------------
# Slice encoding


@dataclass
class SliceEncoding:
    """One learned offset row per device, added to that device's output."""

    table: np.ndarray  # p x width
    group: Optional[ParamGroup] = None  # the group the table is a view into


def init_slice_encoding(p: int, width: int, rng, dtype) -> SliceEncoding:
    group = ParamGroup([(p, width)], rng, dtype)
    return SliceEncoding(table=group.params[0], group=group)


def slice_encode(h, enc: SliceEncoding, device_index: int, out=None):
    """h + the device's table row, written into `out` (which may be h) when given."""
    if h.shape[1] != enc.table.shape[1]:
        raise ValueError(f"encoding width {enc.table.shape[1]} != representation width {h.shape[1]}")
    if not 0 <= device_index < enc.table.shape[0]:
        raise ValueError(f"device index {device_index} out of range")
    return np.add(h, enc.table[device_index], out=out)


def slice_encode_backward(d_h):
    """Returns (d_table_row, d_h); the pass-through gradient is unchanged."""
    return d_h.sum(axis=0), d_h


# ---------------------------------------------------------------------------
# Optimizer and schedule


_ADAM_CHUNK = 1 << 16  # elements per pass of adam_step; a scratch array holds two
_ADAM_MIN_RANGE = 1 << 18  # elements of one range of a split step


class ParamGroup:
    """One optimizer group: parameters, gradients and Adam moments, each in
    one flat buffer.

    `params` and `grads` are views into `param` and `grad`, one per shape, in
    order; a group's layers are `params` views, and their backward passes
    write into the `grads` views. The parameters are built in place: each
    2-D shape is Glorot-drawn from `rng` in order, each 1-D shape (a bias)
    starts at zero. `scratch` holds one two-row array per range of a step,
    the first made here, the others at the first step split that far.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, shapes, rng, dtype):
        size = sum(math.prod(shape) for shape in shapes)
        self.param, self.grad, self.m, self.v = (np.zeros(size, dtype=dtype) for _ in range(4))
        self.t = 0
        self.params = _views(self.param, shapes)
        self.grads = _views(self.grad, shapes)
        self.scratch = [np.empty((2, min(size, _ADAM_CHUNK)), dtype=dtype)]
        for a in self.params:
            if a.ndim == 2:
                ops.glorot_init(a, rng)

    @property
    def size(self) -> int:
        return self.param.size


def _views(flat: np.ndarray, shapes) -> list:
    views, start = [], 0
    for shape in shapes:
        n = math.prod(shape)
        views.append(flat[start : start + n].reshape(shape))
        start += n
    return views


def adam_step(group: ParamGroup, lr: float, pool=ops.INLINE) -> None:
    """One in-place Adam step with bias correction over a whole group.

    Fails fast on a non-finite gradient, before anything changes. The update
    is the per-array formula

        m = b1 m + (1 - b1) g,   v = b2 v + (1 - b2) g²,
        p -= lr (m / c1) / (sqrt(v / c2) + eps),   c_i = 1 - b_i^t,

    with the same roundings in the same order, so the bits do not depend on
    how parameters are grouped. It runs over the flat buffers in chunks,
    through two scratch rows per range: it allocates nothing the size of
    the group, and leaves the gradients as they were. The update is
    element-wise, so `pool` may cut the buffers into ranges
    (`ops.Pool.ranges`) and run them at once, with the same bits.
    """
    grad = group.grad
    if not (np.isfinite(grad.min()) and np.isfinite(grad.max())):  # min and max propagate NaN
        raise NumericError("non-finite gradient")
    group.t += 1
    c1 = 1.0 - group.beta1 ** group.t
    c2 = 1.0 - group.beta2 ** group.t
    ranges = pool.ranges(grad.size, _ADAM_MIN_RANGE)
    while len(group.scratch) < len(ranges):
        group.scratch.append(np.empty_like(group.scratch[0]))
    pool.each(lambda item: _adam_range(group, *item, lr, c1, c2), list(zip(ranges, group.scratch)))


def _adam_range(group: ParamGroup, span, scratch, lr: float, c1: float, c2: float) -> None:
    """The Adam update of the group's elements [start, end), chunk by chunk through `scratch`."""
    b1, b2, eps = group.beta1, group.beta2, group.eps
    start, end = span
    chunk = scratch.shape[1]
    for lo in range(start, end, chunk):
        hi = min(lo + chunk, end)
        p, g, m, v = (a[lo:hi] for a in (group.param, group.grad, group.m, group.v))
        s, d = scratch[:, : g.size]
        m *= b1
        np.multiply(g, 1.0 - b1, out=s)
        m += s
        v *= b2
        np.square(g, out=s)
        s *= 1.0 - b2
        v += s
        np.divide(m, c1, out=s)
        s *= lr
        np.divide(v, c2, out=d)
        np.sqrt(d, out=d)
        d += eps
        s /= d
        p -= s


def cosine_lr(epoch: int, total: int, lr0: float, lr_min: float = 0.0) -> float:
    """Cosine annealing from lr0 at epoch 0 to lr_min at epoch `total`."""
    if total < 1:
        raise ValueError("schedule horizon must be >= 1")
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * epoch / total))

