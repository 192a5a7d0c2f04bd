"""Spatial ops for the CNN backbone: conv2d, max_pool2d, batch_norm.

Layout is NCHW throughout. conv2d lowers to a GEMM over sliding windows;
its input gradient is rebuilt with a k*k strided scatter (cheap: kernels
here are at most 3x3). max_pool2d pools non-overlapping k x k windows, the
only pooling the pyramid uses.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DimensionError, NumericError
from .tensor import Tensor, _from_op


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate [B,C,H,W] with [O,C,kh,kw] -> [B,O,Ho,Wo]; no bias, since
    every conv here feeds a BatchNorm whose batch mean would swallow it."""
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects 4D input and weight, got {x.shape} and {w.shape}")
    bsz, c, h, wid = x.shape
    o, c2, kh, kw = w.shape
    if c != c2:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs weight {w.shape}")
    hp, wp = h + 2 * padding, wid + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(f"kernel {(kh, kw)} larger than padded input {(hp, wp)}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    if padding:
        xp = np.zeros((bsz, c, hp, wp), dtype=x.data.dtype)
        xp[:, :, padding:padding + h, padding:padding + wid] = x.data
    else:
        xp = x.data
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(bsz * ho * wo, c * kh * kw)
    wmat = w.data.reshape(o, c * kh * kw)
    out = cols @ wmat.T
    out_data = out.reshape(bsz, ho, wo, o).transpose(0, 3, 1, 2)

    def bw(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(bsz * ho * wo, o)
        if w.requires_grad:
            w._accum((g2.T @ cols).reshape(o, c, kh, kw), owned=True)
        if x.requires_grad:
            dcols = (g2 @ wmat).reshape(bsz, ho, wo, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
            dxp = np.zeros((bsz, c, hp, wp), dtype=g.dtype)
            for di in range(kh):
                for dj in range(kw):
                    dxp[:, :, di:di + ho * stride:stride,
                        dj:dj + wo * stride:stride] += dcols[:, :, :, :, di, dj]
            if padding:
                dxp = dxp[:, :, padding:padding + h, padding:padding + wid]
            x._accum(dxp, owned=True)

    return _from_op(out_data, (x, w), bw)


def max_pool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max pool; ties route the gradient to the first cell."""
    if x.ndim != 4:
        raise DimensionError(f"max_pool2d expects [B,C,H,W], got {x.shape}")
    bsz, c, h, w = x.shape
    if h % k or w % k:
        raise DimensionError(f"spatial extents {(h, w)} not divisible by pool size {k}")
    ho, wo = h // k, w // k
    win = x.data.reshape(bsz, c, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5)
    flat = win.reshape(bsz, c, ho, wo, k * k)
    idx = flat.argmax(axis=-1)  # numpy argmax = first occurrence on ties
    out_data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        buf = np.zeros((bsz, c, ho, wo, k * k), dtype=g.dtype)
        np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
        x._accum(buf.reshape(bsz, c, ho, wo, k, k)
                    .transpose(0, 1, 2, 4, 3, 5).reshape(bsz, c, h, w))

    return _from_op(np.ascontiguousarray(out_data), (x,), bw)


_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               mode: str = "train") -> Tensor:
    """Per-channel normalization of [B,C,H,W].

    Train mode normalizes by the batch statistics, differentiates through
    them, and updates the running buffers in place (unbiased variance, like
    the usual convention). Eval mode treats the running stats as constants.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    if x.ndim != 4:
        raise DimensionError(f"batch_norm expects [B,C,H,W], got {x.shape}")
    bsz, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"batch_norm params need shape ({c},), got {gamma.shape}/{beta.shape}")
    axes = (0, 2, 3)
    n = bsz * h * w

    if mode == "train":
        if bsz < 2:
            raise NumericError("degenerate variance: train-mode batch_norm needs batch size >= 2")
        mu = x.data.mean(axis=axes)
        xc = x.data - mu[None, :, None, None]
        var = (xc * xc).sum(axis=axes) / n
        running_mean *= 1.0 - _BN_MOMENTUM
        running_mean += _BN_MOMENTUM * mu.astype(running_mean.dtype)
        running_var *= 1.0 - _BN_MOMENTUM
        running_var += _BN_MOMENTUM * (var * n / (n - 1)).astype(running_var.dtype)
    else:
        mu = running_mean.astype(x.data.dtype)
        var = running_var.astype(x.data.dtype)
        xc = x.data - mu[None, :, None, None]

    inv = 1.0 / np.sqrt(var + _BN_EPS)
    xhat = xc * inv[None, :, None, None]
    out_data = xhat * gamma.data[None, :, None, None] + beta.data[None, :, None, None]

    def bw(g):
        if gamma.requires_grad:
            gamma._accum((g * xhat).sum(axis=axes))
        if beta.requires_grad:
            beta._accum(g.sum(axis=axes))
        if x.requires_grad:
            dxh = g * gamma.data[None, :, None, None]
            if mode == "train":
                s1 = dxh.sum(axis=axes, keepdims=True)
                s2 = (dxh * xhat).sum(axis=axes, keepdims=True)
                x._accum(inv[None, :, None, None] * (dxh - s1 / n - xhat * s2 / n))
            else:
                x._accum(dxh * inv[None, :, None, None])

    return _from_op(out_data, (x, gamma, beta), bw)
