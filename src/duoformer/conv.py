"""Spatial ops for the CNN backbone: conv2d, max_pool2d, batch_norm.

Layout is channel-last [B, H, W, C] throughout; weights are [O, C, kh, kw].
conv2d lowers to a GEMM whose rows are its output; its input gradient is a
k*k strided scatter (kernels here are at most 3x3). max_pool2d pools
non-overlapping k x k windows, the only pooling the pyramid uses.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DimensionError, NumericError
from .tensor import Tensor, _from_op


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate [B,H,W,C] with [O,C,kh,kw] -> [B,Ho,Wo,O]; no bias, since
    every conv here feeds a BatchNorm whose batch mean would swallow it."""
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects 4D input and weight, got {x.shape} and {w.shape}")
    bsz, h, wid, c = x.shape
    o, c2, kh, kw = w.shape
    if c != c2:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs weight {w.shape}")
    hp, wp = h + 2 * padding, wid + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(f"kernel {(kh, kw)} larger than padded input {(hp, wp)}")
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1

    if padding:
        xp = np.zeros((bsz, hp, wp, c), dtype=x.data.dtype)
        xp[:, padding:padding + h, padding:padding + wid] = x.data
    else:
        xp = x.data
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = win.reshape(bsz * ho * wo, c * kh * kw)  # [B,Ho,Wo,C,kh,kw] rows
    wmat = w.data.reshape(o, c * kh * kw)

    def bw(g):
        g2 = g.reshape(bsz * ho * wo, o)
        if w.requires_grad:
            w._accum((g2.T @ cols).reshape(o, c, kh, kw), owned=True)
        if x.requires_grad:
            dcols = (g2 @ wmat).reshape(bsz, ho, wo, c, kh, kw)
            dxp = np.zeros((bsz, hp, wp, c), dtype=g.dtype)
            for di in range(kh):
                for dj in range(kw):
                    dxp[:, di:di + ho * stride:stride,
                        dj:dj + wo * stride:stride] += dcols[..., di, dj]
            x._accum(dxp[:, padding:padding + h, padding:padding + wid], owned=True)

    return _from_op((cols @ wmat.T).reshape(bsz, ho, wo, o), (x, w), bw)


def max_pool2d(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max pool of [B,H,W,C]; ties route the gradient to the first cell."""
    if x.ndim != 4:
        raise DimensionError(f"max_pool2d expects [B,H,W,C], got {x.shape}")
    bsz, h, w, c = x.shape
    if h % k or w % k:
        raise DimensionError(f"spatial extents {(h, w)} not divisible by pool size {k}")
    ho, wo = h // k, w // k
    win = x.data.reshape(bsz, ho, k, wo, k, c).transpose(0, 1, 3, 5, 2, 4)
    flat = win.reshape(bsz, ho, wo, c, k * k)
    idx = flat.argmax(axis=-1)  # numpy argmax = first occurrence on ties
    out_data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def bw(g):
        buf = np.zeros((bsz, ho, wo, c, k * k), dtype=g.dtype)
        np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
        x._accum(buf.reshape(bsz, ho, wo, c, k, k)
                    .transpose(0, 1, 4, 2, 5, 3).reshape(bsz, h, w, c))

    return _from_op(np.ascontiguousarray(out_data), (x,), bw)


_BN_MOMENTUM = 0.1
_BN_EPS = 1e-5


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               mode: str = "train") -> Tensor:
    """Per-channel normalization of [B,H,W,C]; channel vectors broadcast on the last axis.

    Train mode normalizes by the batch statistics, differentiates through
    them, and updates the running buffers in place (unbiased variance, like
    the usual convention). Eval mode treats the running stats as constants.
    """
    if mode not in ("train", "eval"):
        raise ContractError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    if x.ndim != 4:
        raise DimensionError(f"batch_norm expects [B,H,W,C], got {x.shape}")
    bsz, h, w, c = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"batch_norm params need shape ({c},), got {gamma.shape}/{beta.shape}")
    axes = (0, 1, 2)
    n = bsz * h * w

    if mode == "train":
        if bsz < 2:
            raise NumericError("degenerate variance: train-mode batch_norm needs batch size >= 2")
        mu = x.data.mean(axis=axes)
        xc = x.data - mu
        var = (xc * xc).sum(axis=axes) / n
        running_mean *= 1.0 - _BN_MOMENTUM
        running_mean += _BN_MOMENTUM * mu.astype(running_mean.dtype)
        running_var *= 1.0 - _BN_MOMENTUM
        running_var += _BN_MOMENTUM * (var * n / (n - 1)).astype(running_var.dtype)
    else:
        mu = running_mean.astype(x.data.dtype)
        var = running_var.astype(x.data.dtype)
        xc = x.data - mu

    inv = 1.0 / np.sqrt(var + _BN_EPS)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def bw(g):
        if gamma.requires_grad:
            gamma._accum((g * xhat).sum(axis=axes))
        if beta.requires_grad:
            beta._accum(g.sum(axis=axes))
        if x.requires_grad:
            dxh = g * gamma.data
            if mode == "train":
                s1 = dxh.sum(axis=axes)
                s2 = (dxh * xhat).sum(axis=axes)
                x._accum(inv * (dxh - s1 / n - xhat * s2 / n))
            else:
                x._accum(dxh * inv)

    return _from_op(out_data, (x, gamma, beta), bw)
