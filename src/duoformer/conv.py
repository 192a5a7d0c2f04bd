"""Spatial ops for the CNN backbone: conv2d, max_pool2d, batch_norm and the
fused conv_bn_relu.

Layout is channel-last [B, H, W, C] throughout. Weights are [O, C, kh, kw]
with their memory in (kh, kw, C) order (``channel_last``, which ``Conv2d``
applies). A conv is one GEMM, ``cols @ wmat.T``, whose n = B*Ho*Wo rows are
its output. ``_lower`` copies each window of the (padded) input into
``cols`` with K in the same (kh, kw, C) order, as runs of kw*C contiguous
values, so ``_wmat`` is a view of the weight. ``_conv_grads`` takes the rows'
gradient back: the weight gradient is one GEMM against ``cols``, in the
weight's layout, the input gradient a strided scatter of the k*k taps
(kernels here are at most 3x3), ``stride`` adjacent taps per add. max_pool2d
pools non-overlapping k x k windows, the only pooling the pyramid uses.

``conv_bn_relu`` is relu(batch_norm(conv2d(x))) as one graph node on the
GEMM output. BN's sums are BLAS reductions (``ones @ z``, ``einsum``);
normalize, scale, shift and ReLU run in place. A recorded node keeps
``cols``, x-hat, 1/sigma and its output, whose sign is the ReLU mask.
Without a graph nothing is kept, and eval mode applies the running
statistics as one per-channel scale gamma/sigma and shift beta - mu*scale.
It is the model's only conv path; ``conv2d``, ``batch_norm`` and
``tensor.relu`` are the composed form it is tested against.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DimensionError, NumericError
from .tensor import Tensor, _from_op, _records


def channel_last(w: np.ndarray, dtype) -> np.ndarray:
    """``w`` [O, C, kh, kw] in ``dtype`` with its memory in (kh, kw, C) order, cast
    and laid out in one pass; a view of ``w`` if it already is both."""
    return w.transpose(0, 2, 3, 1).astype(dtype, order="C", copy=False).transpose(0, 3, 1, 2)


def _lower(x: Tensor, w: Tensor, stride: int, padding: int):
    """Check a conv of [B,H,W,C] with [O,C,kh,kw]; return (cols [n, K], [B,Ho,Wo,O])."""
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
    win = win.transpose(0, 1, 2, 4, 5, 3)  # [B,Ho,Wo,kh,kw,C]
    return win.reshape(bsz * ho * wo, kh * kw * c), (bsz, ho, wo, o)


def _wmat(w: np.ndarray) -> np.ndarray:
    """The [O, K] weight in `_lower`'s (kh, kw, C) K order; a view of a channel-last w."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def _conv_grads(dz: np.ndarray, cols: np.ndarray, x: Tensor, w: Tensor,
                stride: int, padding: int) -> None:
    """Accumulate x's and w's gradients from dz, the gradient of `cols @ wmat.T`."""
    bsz, h, wid, c = x.shape
    o, _, kh, kw = w.shape
    if w.requires_grad:
        w._accum((dz.T @ cols).reshape(o, kh, kw, c).transpose(0, 3, 1, 2))
    if x.requires_grad:
        hp, wp = h + 2 * padding, wid + 2 * padding
        ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
        dcols = (dz @ _wmat(w.data)).reshape(bsz, ho, wo, kh, kw, c)
        # padded column y = stride * q + t, so the `stride` taps that start at
        # dj land on one contiguous run of stride * C values per output column
        wq = -(-wp // stride)
        dxp = np.zeros((bsz, hp, wq, stride, c), dtype=dz.dtype)
        for di in range(kh):
            rows = dxp[:, di:di + ho * stride:stride]
            for dj in range(0, kw, stride):
                q, span = dj // stride, min(stride, kw - dj)
                rows[:, :, q:q + wo, :span] += dcols[:, :, :, di, dj:dj + span]
        dxp = dxp.reshape(bsz, hp, wq * stride, c)
        x._accum(dxp[:, padding:padding + h, padding:padding + wid])


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlate [B,H,W,C] with [O,C,kh,kw] -> [B,Ho,Wo,O]; no bias, since
    every conv here feeds a BatchNorm whose batch mean would swallow it."""
    cols, shape = _lower(x, w, stride, padding)

    def bw(g):
        _conv_grads(g.reshape(cols.shape[0], -1), cols, x, w, stride, padding)

    return _from_op((cols @ _wmat(w.data).T).reshape(shape), (x, w), bw)


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


def _check_mode(mode: str, bsz: int) -> None:
    if mode not in ("train", "eval"):
        raise ContractError(f"batch_norm mode must be 'train' or 'eval', got {mode!r}")
    if mode == "train" and bsz < 2:
        raise NumericError("degenerate variance: train-mode batch_norm needs batch size >= 2")


def _track(running_mean: np.ndarray, running_var: np.ndarray, mu: np.ndarray,
           var: np.ndarray, n: int) -> None:
    """Momentum update of the running statistics in place (unbiased variance)."""
    running_mean *= 1.0 - _BN_MOMENTUM
    running_mean += _BN_MOMENTUM * mu.astype(running_mean.dtype)
    running_var *= 1.0 - _BN_MOMENTUM
    running_var += _BN_MOMENTUM * (var * n / (n - 1)).astype(running_var.dtype)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               mode: str = "train") -> Tensor:
    """Per-channel normalization of [B,H,W,C]; channel vectors broadcast on the last axis.

    Train mode normalizes by the batch statistics, differentiates through
    them, and updates the running buffers in place (unbiased variance, like
    the usual convention). Eval mode treats the running stats as constants.
    """
    if x.ndim != 4:
        raise DimensionError(f"batch_norm expects [B,H,W,C], got {x.shape}")
    bsz, h, w, c = x.shape
    _check_mode(mode, bsz)
    if gamma.shape != (c,) or beta.shape != (c,):
        raise DimensionError(f"batch_norm params need shape ({c},), got {gamma.shape}/{beta.shape}")
    axes = (0, 1, 2)
    n = bsz * h * w

    if mode == "train":
        mu = x.data.mean(axis=axes)
        xc = x.data - mu
        var = (xc * xc).sum(axis=axes) / n
        _track(running_mean, running_var, mu, var, n)
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


def conv_bn_relu(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 stride: int = 1, padding: int = 0, mode: str = "train") -> Tensor:
    """relu(batch_norm(conv2d(x, w, stride, padding), gamma, beta, ...)) as one graph node.

    BN works on the conv's [B*Ho*Wo, O] GEMM output z, in place. Train mode
    takes the batch statistics with BLAS reductions and updates the running
    buffers as `batch_norm` does; the backward gets BN's two sums from dbeta
    and dgamma (s1 = gamma*dbeta, s2 = gamma*dgamma). Values and gradients
    equal the composed ops' up to rounding.
    """
    cols, shape = _lower(x, w, stride, padding)
    _check_mode(mode, shape[0])
    n, o = cols.shape[0], shape[3]
    if gamma.shape != (o,) or beta.shape != (o,):
        raise DimensionError(f"batch_norm params need shape ({o},), got {gamma.shape}/{beta.shape}")
    params = (x, w, gamma, beta)
    # Per-channel passes see the rows k at a time, as [n/k, k*O] with each
    # channel vector tiled k times, so numpy's inner loops run k*O values
    # long rather than O (8 in the first stages).
    k = math.gcd(n, max(1, 1024 // o))

    def tile(v):
        t = np.empty((k, o), dtype=v.dtype)
        t[...] = v
        return t.reshape(-1)

    def col_dot(a, b):  # per-channel sum of a*b over all rows
        return np.einsum("ij,ij->j", a, b).reshape(k, o).sum(axis=0)

    z = (cols @ _wmat(w.data).T).reshape(n // k, k * o)
    if mode == "train":
        mu = (np.ones(n, z.dtype) @ z.reshape(n, o)) / n
        z -= tile(mu)
        var = col_dot(z, z) / n
        _track(running_mean, running_var, mu, var, n)
    else:
        mu = running_mean.astype(z.dtype)
        var = running_var.astype(z.dtype)
    inv = 1.0 / np.sqrt(var + _BN_EPS)

    if not _records(params):
        scale = gamma.data * inv
        z *= tile(scale)
        z += tile(beta.data if mode == "train" else beta.data - mu * scale)
        np.maximum(z, 0, out=z)
        return _from_op(z.reshape(shape), params, None)

    if mode == "eval":
        z -= tile(mu)
    xhat = z
    xhat *= tile(inv)
    out = xhat * tile(gamma.data)
    out += tile(beta.data)
    np.maximum(out, 0, out=out)

    def bw(g):
        nonlocal xhat
        dy = g.reshape(out.shape)  # this node owns g (tensor.py ownership rule); consumed here
        dy *= out > 0
        dbeta = np.ones(n, dy.dtype) @ dy.reshape(n, o)
        dgamma = col_dot(dy, xhat)
        if gamma.requires_grad:
            gamma._accum(dgamma)
        if beta.requires_grad:
            beta._accum(dbeta)
        if x.requires_grad or w.requires_grad:
            if mode == "train":  # dy - (s1 + xhat * s2) / (n * gamma), in place
                xhat *= tile(dgamma / n)
                xhat += tile(dbeta / n)
                dy -= xhat
            xhat = None
            dy *= tile(gamma.data * inv)
            _conv_grads(dy.reshape(n, o), cols, x, w, stride, padding)

    return _from_op(out.reshape(shape), params, bw)
