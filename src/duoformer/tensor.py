"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a row-major numpy array (f32 or f64) plus an optional
gradient buffer. Operations build a DAG of closures; ``backward()`` on a
scalar walks the graph once in reverse topological order and accumulates
gradients into every reachable tensor with ``requires_grad``. Repeated
backward calls keep accumulating until ``zero_grad``.

All operations are stable on finite inputs (softmax subtracts the max,
normalizations carry an epsilon); non-finite values are the caller's signal
of a genuine numeric failure and can be checked with ``assert_finite``.

Inside ``with no_grad():`` ops record no graph, so a forward-only pass keeps
no activations alive.

Each op keeps only what its backward reads and builds no parameter- or
activation-sized scratch it can avoid:

* ``matmul(a, b, bias=)`` keeps its operands. The bias is added in place
  into the product, so ``linear`` is one graph node. For a 2-D weight under
  a batched input, the weight gradient is summed one matrix product at a
  time into one weight-sized buffer instead of a ``[batch, k, n]`` stack.
* ``gelu`` keeps its input and ``tanh(u)``. Forward and backward run chunk
  by chunk (``flat_chunks``), so their temporaries are chunk-sized.
* ``index`` keeps its input and the index. Backward adds into the slice of
  the parent's gradient (``np.add.at`` for advanced indices, so repeated
  indices accumulate) instead of a zero buffer the size of the parent.
* A tensor's first gradient is a copy of the incoming one, not zeros plus
  an add; an op that computed a fresh gradient (``_accum(owned=True)``)
  hands it over without the copy. A gradient whose dtype differs from the
  tensor's is a ContractError.

These rewrites give bit-identical results to their plain forms, op by op:
the same numpy operations on the same values in the same order. Where
several consumers add gradients into one tensor, the order of those adds
follows the backward walk of the graph.
"""

from __future__ import annotations

import contextlib

import numpy as np

from .errors import ContractError, DimensionError, NumericError

DTYPES = {"f32": np.float32, "f64": np.float64}


def _as_array(data, dtype=None):
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(DTYPES[dtype] if isinstance(dtype, str) else dtype, copy=False)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # ---- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(DTYPES[dtype] if isinstance(dtype, str) else dtype),
                      requires_grad=self.requires_grad)

    # ---- gradient machinery --------------------------------------------------

    def _accum(self, g: np.ndarray, owned: bool = False):
        """Add ``g`` into ``self.grad``.

        ``owned`` hands ``g`` over: a fresh array nothing else holds, kept as
        the first gradient when it is laid out like ``self.data``.
        """
        _check_grad_dtype(self, g)
        if self.grad is not None:
            self.grad += g
        elif owned and g.shape == self.data.shape and g.strides == self.data.strides:
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate d(self)/d(leaf) into every requires_grad tensor in the graph.

        ``self`` must be a scalar (size 1). Calling backward again without
        ``zero_grad`` adds to the existing gradients.
        """
        if self.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None  # interior buffers are scratch; only leaves keep grads

    # ---- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, neg(_wrap(other, self)))

    def __neg__(self):
        return neg(self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / float(other))
        raise ContractError("division only supported by python scalars")

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return index(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


def _wrap(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Ops run inside this context record no graph: no output requires grad."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _from_op(data: np.ndarray, parents, backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _check_same_dtype(a: Tensor, b: Tensor, op: str):
    if a.data.dtype != b.data.dtype:
        raise ContractError(f"{op}: dtype mismatch {a.data.dtype.name} vs {b.data.dtype.name}")


_CHUNK = 1 << 16  # elements per chunk of a chunked elementwise pass


def flat_chunks(*arrays):
    """Matching views of same-shape arrays, ``_CHUNK`` flat elements at a time,
    so an elementwise pass keeps its temporaries chunk-sized. Arrays that are
    not all C-contiguous come back whole, as one chunk."""
    if not all(a.flags.c_contiguous for a in arrays):
        yield arrays
        return
    flat = [a.reshape(-1) for a in arrays]
    for lo in range(0, flat[0].size, _CHUNK):
        yield tuple(f[lo:lo + _CHUNK] for f in flat)


def _check_grad_dtype(t: Tensor, g: np.ndarray):
    if g.dtype != t.data.dtype:
        raise ContractError(f"gradient dtype {g.dtype.name} != tensor dtype {t.data.dtype.name}")


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def assert_finite(t: Tensor, context: str = "tensor"):
    if not np.isfinite(t.data).all():
        raise NumericError(f"non-finite values in {context}")
    return t


# ---- elementwise arithmetic ----------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _wrap(b, a)
    _check_same_dtype(a, b, "add")
    out_data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.shape))

    return _from_op(out_data, (a, b), bw)


def neg(a: Tensor) -> Tensor:
    def bw(g):
        a._accum(-g)

    return _from_op(-a.data, (a,), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "mul")
    out_data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.shape))

    return _from_op(out_data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    def bw(g):
        a._accum(g * c)

    return _from_op(a.data * c, (a,), bw)


# ---- contractions ---------------------------------------------------------------


def matmul(a: Tensor, b: Tensor, bias: "Tensor | None" = None) -> Tensor:
    """Batched matrix product; leading axes broadcast, last two contract.

    ``bias`` (broadcast over the product) is added in place, in the same
    graph node.
    """
    _check_same_dtype(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs rank >= 2 operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    out_data = np.matmul(a.data, b.data)
    if bias is not None:
        _check_same_dtype(a, bias, "matmul bias")
        if np.broadcast_shapes(out_data.shape, bias.shape) != out_data.shape:
            raise DimensionError(f"bias shape {bias.shape} does not broadcast to {out_data.shape}")
        out_data += bias.data

    def bw(g):
        if bias is not None and bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.shape))
        if a.requires_grad:
            a._accum(_unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape),
                     owned=True)
        if b.requires_grad:
            if b.ndim == 2 and a.ndim > 2:
                b._accum(_weight_grad(a.data, g), owned=True)
            else:
                b._accum(_unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _from_op(out_data, (a, b, bias), bw)


def _weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """sum_i a[i].T @ g[i] over the leading index i, accumulated in order:
    the values of summing the [*lead, k, n] product stack over its leading
    axes, without building the stack."""
    lead = np.ndindex(a.shape[:-2])
    first = next(lead)
    acc = np.matmul(a[first].T, g[first])
    tmp = np.empty_like(acc)
    for i in lead:
        acc += np.matmul(a[i].T, g[i], out=tmp)
    return acc


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: x @ w (+ b), one graph node."""
    return matmul(x, w, bias=b)


# ---- shape manipulation ----------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out_data = a.data.reshape(shape)
    src_shape = a.data.shape

    def bw(g):
        a._accum(g.reshape(src_shape))

    return _from_op(out_data, (a,), bw)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def bw(g):
        a._accum(g.transpose(inv))

    return _from_op(a.data.transpose(axes), (a,), bw)


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    src = a.data.shape

    def bw(g):
        a._accum(_unbroadcast(g, src))

    return _from_op(np.broadcast_to(a.data, shape).copy(), (a,), bw)


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    for p in parts[1:]:
        _check_same_dtype(parts[0], p, "concat")
    out_data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def bw(g):
        offset = 0
        for p, s in zip(parts, sizes):
            if p.requires_grad:
                sel = [slice(None)] * g.ndim
                sel[axis] = slice(offset, offset + s)
                p._accum(g[tuple(sel)])
            offset += s

    return _from_op(out_data, tuple(parts), bw)


def _is_advanced(idx) -> bool:
    items = idx if isinstance(idx, tuple) else (idx,)
    return any(isinstance(i, (list, np.ndarray)) for i in items)


def index(a: Tensor, idx) -> Tensor:
    """Basic or advanced indexing; gradient adds into the slice of ``a.grad``.

    Repeated advanced indices accumulate one gradient per occurrence.
    """
    out_data = a.data[idx]
    if not isinstance(out_data, np.ndarray):
        out_data = np.asarray(out_data)
    advanced = _is_advanced(idx)

    def bw(g):
        _check_grad_dtype(a, g)
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        if advanced:
            np.add.at(a.grad, idx, g)
        else:
            a.grad[idx] += g

    return _from_op(out_data.copy(), (a,), bw)


# ---- reductions -------------------------------------------------------------------


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _from_op(np.asarray(out_data), (a,), bw)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        n = a.data.size
    else:
        ax = axis if isinstance(axis, tuple) else (axis,)
        n = 1
        for i in ax:
            n *= a.data.shape[i]

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a._accum(np.broadcast_to(g, a.data.shape) / n)

    return _from_op(np.asarray(out_data), (a,), bw)


# ---- activations ---------------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def bw(g):
        a._accum(g * (a.data > 0))

    return _from_op(out_data, (a,), bw)


_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU; the backward differentiates the approximation.

    Evaluates 0.5 * x * (1 + tanh(C * (x + A * x**3))) in place, chunk by
    chunk; keeps x and tanh(...).
    """
    x = a.data
    t = np.empty_like(x)
    out_data = np.empty_like(x)
    for xc, tc, oc in flat_chunks(x, t, out_data):
        np.power(xc, 3, out=tc)
        tc *= _GELU_A
        tc += xc
        tc *= _GELU_C
        np.tanh(tc, out=tc)
        np.multiply(0.5, xc, out=oc)
        oc *= 1.0 + tc

    def bw(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t**2) * du),
        # du = C * (1 + 3 * A * x**2)
        r = np.empty_like(x)
        for xc, tc, gc, rc in flat_chunks(x, t, g, r):
            du = np.square(xc)
            du *= 3.0 * _GELU_A
            du += 1.0
            du *= _GELU_C
            s = np.square(tc)
            np.subtract(1.0, s, out=s)
            np.multiply(0.5, xc, out=rc)
            rc *= s
            rc *= du
            np.add(1.0, tc, out=s)
            s *= 0.5
            rc += s
            rc *= gc
        a._accum(r, owned=True)

    return _from_op(out_data, (a,), bw)


# ---- normalization and softmax ----------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis``; rows sum to 1."""
    if not (-a.ndim <= axis < a.ndim):
        raise DimensionError(f"softmax axis {axis} invalid for shape {a.shape}")
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        a._accum((g - (g * y).sum(axis=axis, keepdims=True)) * y)

    return _from_op(y, (a,), bw)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm params must have shape ({d},), got {gamma.shape} and {beta.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gamma.data + beta.data

    def bw(g):
        if gamma.requires_grad:
            gamma._accum((g * xhat).reshape(-1, d).sum(axis=0))
        if beta.requires_grad:
            beta._accum(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            dxh = g * gamma.data
            x._accum(inv * (dxh - dxh.mean(axis=-1, keepdims=True)
                            - xhat * (dxh * xhat).mean(axis=-1, keepdims=True)))

    return _from_op(out_data, (x, gamma, beta), bw)


# ---- losses -------------------------------------------------------------------------------


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy of [B, K] logits against integer labels [B]."""
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects [batch, classes] logits, got {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise ContractError(f"labels must lie in [0, {k}), got range "
                            f"[{labels.min()}, {labels.max()}]")
    z = logits.data
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    nll = lse[:, 0] - z[np.arange(n), labels]
    out_data = np.asarray(nll.mean(), dtype=z.dtype)

    def bw(g):
        p = np.exp(z - lse)
        p[np.arange(n), labels] -= 1.0
        logits._accum(g * p / n)

    return _from_op(out_data, (logits,), bw)
