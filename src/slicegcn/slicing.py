"""Slice strategy generation, feature slicing, and feature fusion.

Two ways to produce per-device inputs from the n x d feature matrix:
direct slicing cuts equal-width column ranges, one per device; feature
fusion compresses the full features through a small shared MLP whose output
is broadcast to every device. The fusion forward runs in its owner's
workspace, as every layer does, and keeps only a bool ReLU mask of its
hidden layer for backward (see `nn`). Its products and element-wise passes
run in parts on the pool the caller gives (`ops.Pool`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, ops


@dataclass(frozen=True)
class SliceStrategy:
    """Equal-width (start, end) column ranges, one per device."""

    ranges: tuple  # of (start, end), 0-based half-open
    slice_size: int  # ceil(d / p)
    scale: float

    @property
    def p(self) -> int:
        return len(self.ranges)

    @property
    def width(self) -> int:
        s, e = self.ranges[0]
        return e - s


def slice_strategy_generator(in_d: int, p: int, scale: float = 1.0) -> SliceStrategy:
    """Compute per-device column ranges over a width-in_d feature matrix.

    slice_size = ceil(in_d / p); each device i covers
    [i * slice_size, i * slice_size + int(slice_size * scale)), and a range
    running past in_d is shifted back so it ends exactly at in_d. All ranges
    therefore share one width; with scale=1.0 they cover [0, in_d).
    """
    if in_d < 1 or p < 1:
        raise ValueError(f"need in_d >= 1 and p >= 1, got in_d={in_d}, p={p}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    slice_size = -(-in_d // p)
    width = int(slice_size * scale)
    if width < 1:
        raise ValueError(f"scale {scale} yields an empty slice (slice_size={slice_size})")
    if width > in_d:
        raise ValueError(f"scale {scale} yields slice width {width} > feature dim {in_d}")
    ranges = []
    for i in range(p):
        start = i * slice_size
        end = start + width
        if end > in_d:
            start -= end - in_d
            end = in_d
        ranges.append((start, end))
    return SliceStrategy(ranges=tuple(ranges), slice_size=slice_size, scale=scale)


def slice_feature(x: np.ndarray, strategy: SliceStrategy) -> list:
    """Cut x into per-device column blocks (contiguous copies)."""
    if strategy.ranges[-1][1] > x.shape[1]:
        raise ValueError(
            f"strategy covers {strategy.ranges[-1][1]} columns, matrix has {x.shape[1]}"
        )
    return [np.ascontiguousarray(x[:, start:end]) for start, end in strategy.ranges]


def fusion_output_width(in_d: int, p: int) -> int:
    """Width of the fused per-device input: ceil(d / p) + 1."""
    return -(-in_d // p) + 1


def init_fusion(in_d: int, p: int, rng, dtype, dropout: float) -> nn.MlpParams:
    """Two-layer fusion MLP: in_d -> in_d -> ceil(in_d / p) + 1."""
    return nn.init_mlp([in_d, in_d, fusion_output_width(in_d, p)], rng, dtype, dropout)


def feature_fusion_forward(
    x: np.ndarray, ff: nn.MlpParams, rng, training: bool, *, ws, version=None, pool=ops.INLINE,
):
    """Compress features into the shared per-device input Z.

    The single output is delivered to every worker; there is one fusion MLP,
    not one per device. `ws` is the workspace the MLP's arrays live in, and
    `version`, the fusion group's step count, keeps and reuses its hidden
    layer there (see `nn.mlp_forward`).
    """
    w0 = ff.layers[0][0]
    if w0.shape != (x.shape[1], x.shape[1]):
        raise ValueError(f"fusion hidden layer {w0.shape} does not match feature dim {x.shape[1]}")
    return nn.mlp_forward(x, ff, rng, training, ws=ws, version=version, pool=pool)


def feature_fusion_backward(d_z: np.ndarray, cache, ff: nn.MlpParams, *, out, pool=ops.INLINE):
    """Gradients of the fusion MLP given the summed worker input gradient.

    Because every worker consumes the same Z, the caller accumulates
    d_z = sum of per-worker input gradients in fixed device order. Returns
    [(dW, db) per layer], written into `out` (see `nn.mlp_backward`); the
    gradient w.r.t. the raw features is not computed, since nothing upstream
    of the features trains.
    """
    grads, _ = nn.mlp_backward(cache, d_z, ff, out=out, pool=pool)
    return grads
