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
masks the gradient it is handed in place, d_pre = d_out * mask, once the
self path has read d_out.

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

A GCN layer's passes run in their owner's `ops.Workspace` (`ws`), and a
result lives there unless `out` names an array for it. An MLP owns its
state as a device does (`MlpParams`): its dropout stream, its workspace,
and the cache of its training forward, which its backward consumes. A
layer writes its cached arrays and output under per-layer keys, so each
pass writes the arrays the previous pass did; a kept result is then
already where the next forward reads it. A GCN layer's temporaries live in
the workspace's one scratch array (`ops.scratch`); the SpMM reads a product
formed there in place. Backward passes consume the gradient they are
handed and write gradients over forward arrays that nothing reads
afterwards (see `mlp_backward`, which so needs no scratch).

All backward passes are hand-derived reverse-mode gradients. The input
gradient of the aggregation is Âᵀ G = S Aᵀ S G, which equals Â G only on
undirected graphs. Backward aggregates on the same side as forward: a
narrowing layer forms Âᵀ d_pre once and reuses it for both the weight and
the input gradient.

Parameters live in optimizer groups (`ParamGroup`): `init_gcn_layers` and
`init_mlp` give each layer views into its group's flat parameter buffer and
views into its flat gradient buffer at the same offsets
(`GcnLayerParams.grads`, `MlpParams.grads`). A backward pass writes the
parameter gradients into those views and returns only the input gradient,
written into `d_in` and formed only when given; `adam_step` updates a
whole group in one in-place pass.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
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
    grads: Optional[GcnLayerParams] = None  # the gradients of these arrays, views into the group's `grad`


def init_gcn_layers(widths, rng, dtype, form: str = FORM_DUAL):
    """GCN layers widths[0] -> ... -> widths[-1], built in one new group.

    Returns (layers, group): the layers and their `grads` hold views into
    the group's parameters and gradients.
    """
    dual = form == FORM_DUAL
    shapes = [
        s for w_in, w_out in zip(widths[:-1], widths[1:])
        for s in [(w_in, w_out)] * (2 if dual else 1) + [(w_out,)]
    ]
    group = ParamGroup(shapes, rng, dtype)
    params, grads = iter(group.params), iter(group.grads)

    def take(it):
        return next(it), next(it) if dual else None, next(it)

    layers = [GcnLayerParams(*take(params), grads=GcnLayerParams(*take(grads))) for _ in widths[1:]]
    return layers, group


@dataclass
class GcnLayerCache:
    h_in: np.ndarray
    agg: Optional[np.ndarray]  # Â h_in at the output rows; None when the layer multiplied by W_agg first
    mask: Optional[np.ndarray]  # bool, where the pre-activation Â h_in W_agg + b is positive; None if not recorded
    keep: Optional[np.ndarray]  # bool dropout keep mask, None without dropout
    scale: Optional[np.generic]  # dropout scale 1/(1-rate)
    own_agg: bool = False  # agg was formed by this pass, and nothing reads it after backward's dW_agg
    rows: Optional[object] = None  # the operator of the output rows R (`graph.RowRestriction`); None: all rows
    h_rows: Optional[np.ndarray] = None  # h_in's rows R, the self path's input, gathered; None on all rows


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
    *, ws, layer=0, out=None, version=None, rows=None, pool=ops.INLINE,
):
    """One layer. Dropout (if rate > 0) is applied to the layer output.

    `agg`, when given, is Â h_in computed by the caller and is used as is.
    Otherwise a narrowing layer (w_in > w_out) aggregates H W_agg and any
    other layer aggregates H, or, given a `version`, h_in is fixed and its
    aggregate is formed once and kept (module docstring). The cache's mask
    is None where no mask is formed.

    `rows`, when given, is the adjacency restricted to a row set R
    (`graph.RowRestriction`), and the layer forms rows R of its output
    only: m rows of output, ReLU mask and dropout mask (the whole mask's
    rows R, see `ops.dropout`). It aggregates over the restricted operator,
    or takes rows R of a whole aggregate (a caller's `agg`, or the kept one
    of a fixed input); its self path reads H_in's rows R, gathered once,
    which its cache keeps for dW_self. Nothing is kept for a later pass.

    The layer's cached arrays (ReLU mask, aggregate, keep mask) and its
    output live in `ws` under keys (layer, name), so every pass through
    layer `layer` writes the same arrays, and its temporaries live in the
    workspace's scratch (`ops.scratch`): a narrowing layer forms H W_agg
    there, which the SpMM reads in place. `out`, when given, is the array
    the output is written into instead; the pre-activation is formed there
    too. The products, the SpMM, the gathers, dropout and the element-wise
    passes split on `pool`.
    """
    n, (w_in, w_out), dtype = h_in.shape[0], params.w_agg.shape, h_in.dtype
    op, m = (adj, n) if rows is None else (rows, rows.num_rows)
    keeps = version is not None and out is None and rows is None
    kept = keeps and ws.versions.pop((layer, "out"), None) == version
    own_agg = False
    if version is not None and agg is None:
        agg = ws.get((layer, "agg"), (n, w_in), dtype)
        if (layer, "agg") not in ws.versions:  # a fixed input's aggregate holds at every version
            ops.spmm_norm(adj, s, h_in, out=agg, ws=ws, pool=pool)
            ws.versions[layer, "agg"] = version
    h_rows = None
    if rows is not None:
        if agg is not None:
            agg, own_agg = _gather(agg, rows, ws.get((layer, "agg.rows"), (m, w_in), dtype), pool), True
        if params.w_self is not None:
            h_rows = _gather(h_in, rows, ws.get((layer, "h_in.rows"), (m, w_in), dtype), pool)
    h_out = ws.get((layer, "out"), (m, w_out), dtype) if out is None else out
    mask = ws.get((layer, "mask"), (m, w_out), bool) if training or keeps else None
    if not kept:
        if agg is None and narrows(params):
            t = pool.matmul(h_in, params.w_agg, out=ops.scratch(ws, n, w_out, dtype))
            ops.spmm_norm(op, s, t, out=h_out, ws=ws, pool=pool)
        else:
            if agg is None:
                own_agg = True
                agg = ops.spmm_norm(
                    op, s, h_in, out=ws.get((layer, "agg"), (m, w_in), dtype, rows=n), ws=ws, pool=pool
                )
            pool.matmul(agg, params.w_agg, out=h_out)
        self_path = None
        if params.w_self is not None:
            h_self = h_in if rows is None else h_rows
            self_path = pool.matmul(h_self, params.w_self, out=ops.scratch(ws, m, w_out, dtype))
        pool.rows(_activate, (h_out, mask, self_path), params.bias)
    if keeps and not training:
        ws.versions[layer, "out"] = version
    keep = ws.get((layer, "keep"), h_out.shape, bool) if training and dropout_rate > 0 else None
    h_out, keep, scale = ops.dropout(
        h_out, dropout_rate, training, rng, keep=keep, pool=pool, rows=_nodes(rows), num_rows=n
    )
    cache = GcnLayerCache(h_in, agg, mask, keep, scale, own_agg=own_agg, rows=rows, h_rows=h_rows)
    return h_out, cache


def _nodes(rows):
    """The node of each row of a row set's operator; None for all rows."""
    return None if rows is None else rows.nodes


def _gather(a, rows, out, pool) -> np.ndarray:
    """out = a[R] for the row set `rows`, in row ranges on `pool`; returns out."""
    pool.rows(_take_rows, (out, rows.nodes), a)
    return out


def _take_rows(out, index, a) -> None:
    np.take(a, index, axis=0, out=out)


_ADD_CHUNK = 1 << 15  # elements per step of `_add_rows`, whose temporary is that large


def _add_rows(a, index, out) -> None:
    """out[index] += a, a few rows at a time."""
    step = max(1, _ADD_CHUNK // max(a.shape[1], 1))
    for lo in range(0, len(a), step):
        out[index[lo : lo + step]] += a[lo : lo + step]


def _deactivate(d, keep, mask, scale) -> None:
    """The gradient through dropout and the ReLU, in place: d = (d * keep) * scale
    when dropout was applied (`keep` not None), then d = d * mask unless `mask` is None."""
    if keep is not None:
        ops.apply_mask(d, keep, scale, out=d)
    if mask is not None:
        np.multiply(d, mask, out=d)


def gcn_layer_backward(
    cache: GcnLayerCache, d_out, params: GcnLayerParams, adj, s, *, ws, d_in=None, pool=ops.INLINE,
):
    """Writes dW_agg, dW_self and db into `params.grads`; returns dH_in.

    dH_in is written into `d_in`, and is not formed without it (None is
    returned then). The backward consumes `d_out`, which may be a strided
    view (a device's column block): it applies the dropout mask to it in
    place, and, once dW_self and the self path's d_out W_selfᵀ are formed,
    the ReLU mask, so `d_out` holds d_pre; then it writes further gradients
    over it. Its temporaries are the scratch of `ws` (`ops.scratch`). The
    products, the SpMM and the element-wise passes split on `pool`.

    A narrowing layer forms G = Âᵀ d_pre once, at the output width, over
    d_pre (which the SpMM so first copies into the scratch), for
    dW_agg = H_inᵀ G (when the forward kept no aggregate) and
    dH_in = G W_aggᵀ; H_in is read after `d_in` is first written, so `d_in`
    must not share H_in's memory there (ValueError). Any other layer
    aggregates d_pre W_aggᵀ, which it forms in the scratch, and may be
    given H_in's own array as `d_in`. The aggregation term goes straight
    into `d_in` when the layer has no self path; otherwise it goes to an
    array that is dead by then and is added to `d_in`: the layer's own
    aggregate, else d_pre's memory (a strided d_pre's first columns, which
    the SpMM reaches through its accumulator), never a caller's `agg`.

    A layer whose forward ran on rows R (`cache.rows`) takes m rows of
    `d_out` and writes all n rows of `d_in`. Its aggregation runs over the
    restricted operator's transpose, Âᵀ[:, R], which reads the m-row
    d_pre W_aggᵀ (d_pre itself in a narrowing layer, whose G then goes to
    the workspace's `"g"`), and its term goes straight into `d_in`; the self
    path's term, formed over H_in's gathered rows once dW_self has read
    them, is then added at rows R. H_in is read before `d_in` is written.
    """
    m, (w_in, w_out), dtype = d_out.shape[0], params.w_agg.shape, d_out.dtype
    n, rows = cache.h_in.shape[0], cache.rows
    grads, narrowing, dual = params.grads, narrows(params), params.w_self is not None
    op = adj if rows is None else rows
    if rows is None and narrowing and d_in is not None and np.shares_memory(d_in, cache.h_in):
        raise ValueError("gcn_layer_backward: a narrowing layer's d_in shares H_in's memory, which it reads last")
    if cache.keep is not None:
        pool.rows(_deactivate, (d_out, cache.keep, None), cache.scale)
    if dual:
        h_self = cache.h_in if rows is None else cache.h_rows
        pool.matmul(h_self.T, d_out, out=grads.w_self)
        if d_in is not None:  # on rows R, over the gathered rows, which nothing reads after dW_self
            self_term = pool.matmul(d_out, params.w_self.T, out=d_in if rows is None else h_self)
    d_pre = d_out
    pool.rows(_deactivate, (d_pre, None, cache.mask), None)
    np.sum(d_pre, axis=0, out=grads.bias)
    if cache.agg is not None:
        pool.matmul(cache.agg.T, d_pre, out=grads.w_agg)
    if narrowing:
        if cache.agg is None or d_in is not None:
            g_out = d_pre if rows is None else ws.get("g", (n, w_out), dtype)
            g = ops.spmm_norm(op, s, d_pre, transpose=True, out=g_out, ws=ws, pool=pool)
        if cache.agg is None:
            pool.matmul(cache.h_in.T, g, out=grads.w_agg)
        if d_in is None:
            return None
        term = pool.matmul(g, params.w_agg.T, out=ops.scratch(ws, n, w_in, dtype) if dual and rows is None else d_in)
    else:
        if d_in is None:
            return None
        t = pool.matmul(d_pre, params.w_agg.T, out=ops.scratch(ws, m, w_in, dtype))
        if not dual or rows is not None:
            target = d_in
        elif cache.own_agg:
            target = cache.agg
        elif d_pre.flags.c_contiguous:
            target = d_pre.reshape(-1)[: n * w_in].reshape(n, w_in)
        else:  # a one-layer stack's strided block: the SpMM sums in an accumulator of `ws`
            target = d_pre[:, :w_in]
        term = ops.spmm_norm(op, s, t, transpose=True, out=target, ws=ws, pool=pool)
    if dual and rows is None:
        pool.rows(operator.iadd, (d_in, term))
    elif dual:
        pool.rows(_add_rows, (self_term, rows.nodes), d_in)
    return d_in


# ---------------------------------------------------------------------------
# MLP (classifier head and feature fusion)


@dataclass
class MlpParams:
    """An MLP's layers, and the state its passes keep, as a device's do."""

    layers: list  # of (W, b), views into group.params
    grads: list  # of (dW, db), views into group.grads
    group: ParamGroup
    rng: Optional[np.random.Generator]  # dropout stream: the one the layers were drawn from
    dropout: float = 0.0
    ws: ops.Workspace = field(default_factory=ops.Workspace)  # where its passes' arrays live
    cache: Optional[list] = None  # per-layer caches of a training forward, one epoch


def init_mlp(sizes, rng, dtype, dropout: float = 0.0) -> MlpParams:
    """Linear layers sizes[0] -> ... -> sizes[-1], ReLU + dropout between,
    built in one new group; `rng` goes on as their dropout stream."""
    shapes = [s for w_in, w_out in zip(sizes[:-1], sizes[1:]) for s in ((w_in, w_out), (w_out,))]
    group = ParamGroup(shapes, rng, dtype)
    params, grads = iter(group.params), iter(group.grads)
    return MlpParams(
        layers=list(zip(params, params)), grads=list(zip(grads, grads)), group=group, rng=rng, dropout=dropout
    )


def mlp_forward(x, mlp: MlpParams, training: bool, *, version=None, rows=None, pool=ops.INLINE):
    """Returns the output. The last layer is linear (no activation).

    Layer li writes relu(z), its ReLU and keep masks and the output into
    `mlp.ws` under keys (li, name), so every pass writes the same arrays,
    and dropout draws from `mlp.rng`. `version` says that x is fixed: the
    first hidden layer then keeps and reuses its relu(z) and mask by it
    (module docstring). `rows`, a row set's operator
    (`graph.RowRestriction`), says that x holds the rows R of an n-row
    input: dropout then draws the n-row masks and keeps their rows R
    (`ops.dropout`), so each row's mask is the one it has in a pass over
    all rows. A training forward leaves its cache in `mlp.cache`
    for the backward; its masks are None where none is formed. Each layer's
    product runs in blocks on `pool` (`ops.Pool.matmul`), and its bias,
    ReLU and dropout in row ranges.
    """
    ws, cache = mlp.ws, []
    h = x
    last = len(mlp.layers) - 1
    whole = len(x) if rows is None else rows.num_nodes  # the rows of a pass over all rows
    for li, (w, b) in enumerate(mlp.layers):
        if h.shape[1] != w.shape[0]:
            raise ValueError(f"mlp layer {li}: input width {h.shape[1]} != {w.shape[0]}")
        shape = (h.shape[0], w.shape[1])
        if li == last:
            cache.append((h, None, None, None))
            h = pool.matmul(h, w, out=ws.get((li, "out"), shape, h.dtype, rows=whole))
            h += b
            continue
        keeps = li == 0 and version is not None and rows is None
        a = ws.get((li, "a"), shape, h.dtype, rows=whole)
        mask = ws.get((li, "mask"), shape, bool) if training or keeps else None
        if not (keeps and ws.versions.pop((li, "a"), None) == version):
            pool.matmul(h, w, out=a)
            pool.rows(_activate, (a, mask, None), b)
        if keeps and not training:
            ws.versions[li, "a"] = version
        keep = ws.get((li, "keep"), shape, bool) if training and mlp.dropout > 0 else None
        a, keep, scale = ops.dropout(
            a, mlp.dropout, training, mlp.rng, keep=keep, pool=pool, rows=_nodes(rows), num_rows=whole
        )
        cache.append((h, mask, keep, scale))
        h = a
    mlp.cache = cache if training else None
    return h


def mlp_backward(d_out, mlp: MlpParams, *, d_in=None, pool=ops.INLINE):
    """Writes each layer's dW and db into `mlp.grads`; returns d_input.

    d_input is written into `d_in`, and is not formed without it (None is
    returned then). The backward consumes the training forward's cache
    (`mlp.cache`): the gradient of each hidden layer's output is written
    over that output, which nothing reads afterwards, so it needs no
    scratch. The products run in blocks on `pool` (`ops.Pool.matmul`), and
    the gradient through dropout and the ReLU in row ranges.
    """
    cache, mlp.cache = mlp.cache, None
    d = d_out
    for li in range(len(mlp.layers) - 1, -1, -1):
        h, mask, keep, scale = cache[li]
        (w, _), (dw, db) = mlp.layers[li], mlp.grads[li]
        if mask is not None:  # hidden layer: undo dropout and ReLU, in place (d is this pass's own)
            pool.rows(_deactivate, (d, keep, mask), scale)
        pool.matmul(h.T, d, out=dw)
        np.sum(d, axis=0, out=db)
        if li == 0 and d_in is None:
            return None
        d = pool.matmul(d, w.T, out=h if li > 0 else d_in)
    return d


# ---------------------------------------------------------------------------
# Slice encoding


@dataclass
class SliceEncoding:
    """One learned offset row per device, added to that device's output
    block of the gathered representation."""

    table: np.ndarray  # p x width
    group: Optional[ParamGroup] = None  # the group the table is a view into


def init_slice_encoding(p: int, width: int, rng, dtype) -> SliceEncoding:
    group = ParamGroup([(p, width)], rng, dtype)
    return SliceEncoding(table=group.params[0], group=group)


def slice_encode(rep, enc: SliceEncoding):
    """Adds each device's table row to its column block of the gathered
    representation `rep`, in place, as one pass over `rep`; returns rep."""
    rep += enc.table.reshape(-1)
    return rep


def slice_encode_backward(d_rep, enc: SliceEncoding) -> None:
    """Writes the table's gradient, the column sums of each device's block
    of `d_rep`, into the group's gradient view; d_rep passes through unchanged."""
    np.sum(d_rep, axis=0, out=enc.group.grads[0].reshape(-1))


# ---------------------------------------------------------------------------
# Optimizer and schedule


_ADAM_CHUNK = 1 << 16  # elements per pass of adam_step; a scratch array holds two


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
    ranges = pool.ranges(grad.size)
    while len(group.scratch) < len(ranges):
        group.scratch.append(np.empty_like(group.scratch[0]))
    pool.run(lambda item: _adam_range(group, *item, lr, c1, c2), list(zip(ranges, group.scratch)))


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


def cosine_lr(epoch: int, total: int, lr0: float) -> float:
    """Cosine annealing from lr0 at epoch 0 to 0 at epoch `total`."""
    if total < 1:
        raise ValueError("schedule horizon must be >= 1")
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * epoch / total))

