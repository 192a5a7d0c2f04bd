"""Slow, obviously-correct reference implementations used to pin the library.

Everything here is written with explicit loops (or scipy-free scalar math) and
deliberately shares no code with src/. Keep it dumb. The exceptions are at
the end. The composed-graph references take the tensor module as an argument
and spell out, primitive op by primitive op, the graph that a fused op
replaces, so the fused op can be held to it bit for bit. The plain formulas
(LayerNorm, Adam) are the whole-array numpy forms that the in-place kernels
replaced, which those kernels must match to a stated bound.
"""

import math

import numpy as np


def matmul_loops(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m), dtype=np.float64)
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += float(a[i, t]) * float(b[t, j])
            out[i, j] = s
    return out


def softmax_rows(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        row = x[i].astype(np.float64)
        m = row.max()
        e = np.array([np.exp(v - m) for v in row])
        out[i] = e / e.sum()
    return out


def layer_norm_rows(x, gamma, beta, eps=1e-6):
    out = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1, x.shape[-1]).astype(np.float64)
    of = out.reshape(-1, x.shape[-1])
    for i in range(flat.shape[0]):
        row = flat[i]
        mu = row.mean()
        var = ((row - mu) ** 2).mean()
        of[i] = (row - mu) / np.sqrt(var + eps) * gamma + beta
    return out


def conv2d_loops(x, w, b=None, stride=1, padding=0):
    """x: [B,C,H,W], w: [O,C,kh,kw] -> [B,O,Ho,Wo]. Seven honest loops."""
    bsz, c, h, ww = x.shape
    o, c2, kh, kw = w.shape
    assert c == c2
    if padding:
        xp = np.zeros((bsz, c, h + 2 * padding, ww + 2 * padding), dtype=np.float64)
        xp[:, :, padding:padding + h, padding:padding + ww] = x
    else:
        xp = x.astype(np.float64)
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((bsz, o, ho, wo), dtype=np.float64)
    for n in range(bsz):
        for f in range(o):
            for i in range(ho):
                for j in range(wo):
                    s = 0.0
                    for ch in range(c):
                        for di in range(kh):
                            for dj in range(kw):
                                s += float(xp[n, ch, i * stride + di, j * stride + dj]) * \
                                     float(w[f, ch, di, dj])
                    out[n, f, i, j] = s + (float(b[f]) if b is not None else 0.0)
    return out


def maxpool_loops(x, k):
    """Non-overlapping max pool, kernel == stride == k."""
    bsz, c, h, w = x.shape
    assert h % k == 0 and w % k == 0
    out = np.zeros((bsz, c, h // k, w // k), dtype=x.dtype)
    for n in range(bsz):
        for ch in range(c):
            for i in range(h // k):
                for j in range(w // k):
                    out[n, ch, i, j] = x[n, ch, i * k:(i + 1) * k, j * k:(j + 1) * k].max()
    return out


def attention_pairs(x, wq, wk, wv, wo, bq, bk, bv, bo, n_heads):
    """Single-batch multi-head self-attention, one (query, key) pair at a time.

    x: [T, D]. Weight layout matches a plain x @ W + b projection with heads
    taken as contiguous slices of the projected dimension.
    """
    t, d = x.shape
    dh = d // n_heads
    q = x @ wq + bq
    k = x @ wk + bk
    v = x @ wv + bv
    out = np.zeros((t, d), dtype=np.float64)
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        for i in range(t):
            scores = np.zeros(t)
            for j in range(t):
                scores[j] = float(qh[i] @ kh[j]) / np.sqrt(dh)
            m = scores.max()
            e = np.exp(scores - m)
            a = e / e.sum()
            for j in range(t):
                out[i, sl] += a[j] * vh[j]
    return out @ wo + bo


def adam_scalar(theta, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    """Run Adam on one scalar parameter; grad_fn maps theta to its gradient."""
    m = 0.0
    v = 0.0
    history = []
    for step in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** step)
        vhat = v / (1 - beta2 ** step)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
        history.append(theta)
    return np.array(history)


def balanced_accuracy_confusion(y_true, y_pred, n_classes):
    """Unweighted mean recall over classes that actually appear."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        cm[t, p] += 1
    recalls = []
    for c in range(n_classes):
        total = cm[c].sum()
        if total > 0:
            recalls.append(cm[c, c] / total)
    return float(np.mean(recalls))


def finite_diff(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of one ndarray."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def patch_scatter(r, c, p, g):
    """Row-major (patch, offset) for position (r, c) of a p x p grid cut g x g ways.

    Independent of the tokenizer's reshape/transpose route: patches tile the
    grid in contiguous (p/g) x (p/g) blocks, both indices row-major.
    """
    pp = p // g
    return (r // pp) * g + (c // pp), (r % pp) * pp + (c % pp)


def attention_composed(T, x, wqkv, bqkv, wproj, bproj, heads):
    """Multi-head self-attention over x [*lead, t, d] as a graph of primitive
    ops: qkv matmul+bias, q/k/v slices, head split, scaled scores, softmax,
    weighted sum, head merge, proj matmul+bias. Returns the output Tensor and the probabilities."""
    *lead, t, d = x.shape
    dh = d // heads
    b = int(np.prod(lead)) if lead else 1
    qkv = T.matmul(x.reshape((b, t, d)), wqkv, bias=bqkv)
    q, k, v = (qkv[:, :, i * d:(i + 1) * d].reshape((b, t, heads, dh)).transpose((0, 2, 1, 3))
               for i in range(3))
    scores = T.scale(T.matmul(q, k.transpose((0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    attn = T.softmax(scores, axis=-1)
    out = T.matmul(attn, v).transpose((0, 2, 1, 3)).reshape((b, t, d))
    return T.matmul(out, wproj, bias=bproj).reshape(tuple(lead) + (t, d)), attn.data


def ffn_composed(T, x, w1, b1, w2, b2):
    """fc1 -> GELU -> fc2 as three primitive ops."""
    return T.matmul(T.gelu(T.matmul(x, w1, bias=b1)), w2, bias=b2)


def layer_norm_plain(x, gamma, beta, g, eps=1e-6):
    """LayerNorm over the last axis and its backward for the output gradient
    g, as whole-array numpy: (out, dx, dgamma, dbeta)."""
    d = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gamma + beta
    dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
    dbeta = g.reshape(-1, d).sum(axis=0)
    dxh = g * gamma
    dx = inv * (dxh - dxh.mean(axis=-1, keepdims=True)
                - xhat * (dxh * xhat).mean(axis=-1, keepdims=True))
    return out, dx, dgamma, dbeta


def plain_adam(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One bias-corrected Adam step on arrays, in place, in the paper's order."""
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    p -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.dtype, copy=False)
