"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a row-major numpy array (f32 or f64) plus an optional
gradient buffer. Operations build a DAG of closures; ``backward()`` on a
scalar walks the graph once in reverse topological order and accumulates
gradients into every reachable tensor with ``requires_grad``.

The graph is single-use. The walk consumes it: once a node's closure has
run, the node drops its closure and its parents, so the arrays that closure
saved are released as soon as the walk passes it, not when ``backward``
returns. Leaf gradients accumulate across graphs until ``zero_grad``; to
take a second gradient, run the forward again. A walk that reaches a node
an earlier walk consumed raises ContractError before any gradient moves.

All operations are stable on finite inputs (softmax subtracts the max,
normalizations carry an epsilon); non-finite values are the caller's signal
of a genuine numeric failure.

Inside ``with no_grad():`` ops record no graph, so a forward-only pass keeps
no activations alive.

Each op keeps only what its backward reads and builds no parameter- or
activation-sized scratch it can avoid:

* ``matmul(a, b, bias=)`` keeps its operands. The bias is added in place
  into the product, so an affine map is one graph node. A batched input
  meets a 2-D weight as one GEMM over its rows flattened to a matrix
  (``_mm``), in the forward and both gradients, not one GEMM per leading index.
* ``gelu`` keeps its input and ``tanh(u)``. Forward and backward run chunk
  by chunk (``flat_chunks``), so their temporaries are chunk-sized.
* ``index`` keeps its input and the index. Backward adds into the slice of
  the parent's gradient (``np.add.at`` for advanced indices, so repeated
  indices accumulate) instead of a zero buffer the size of the parent.
* ``layer_norm`` keeps x-hat and 1/sigma. Row sums are einsums (the same for a
  row whatever its neighbours), column sums GEMVs, the rest in place; backward
  overwrites x-hat. It is within 1e-12 of its plain form in f64 (``oracles.py``).
* Gradient ownership: a first gradient laid out like the tensor's data (same
  shape, same strides on axes longer than 1) becomes its ``grad``; others are
  copied into the data's layout. Each backward hands each parent a fresh array
  or a view of its own ``g``, which ``backward`` drops once the closure returns.
  So that a tensor passed twice cannot change ``g`` under a later reader, ``add``
  copies ``g`` for its second operand when the first kept it, and ``matmul``
  hands its bias ``g`` last. A gradient in another dtype is a ContractError.

The other rewrites give bit-identical results to their plain forms (for a
2-D weight under a batched input, the flattened product), op by op: the same
numpy operations on the same values in the same order. Where several
consumers add gradients into one tensor, the order follows the backward walk.

Two fused ops each replace a transformer sub-block's graph of primitive
ops with one node and a hand-written backward:

* ``attention(x, wqkv, bqkv, wproj, bproj, heads, queries=None)`` keeps
  the reshaped input, ``qkv``, the softmax probabilities and the merged
  heads; q, k and v are views of ``qkv``. Neither the raw and scaled scores
  nor the pre-merge heads outlive the forward. With ``queries`` = nq, the
  first nq tokens of each sequence are the only queries, and no key or
  value is formed: q is projected from those nq rows, each head's key
  weights fold into its query (q~ = q_h Wk,h^T) and its value weights
  into the attention-weighted input (u = p x, then u Wv,h + bv,h). The key
  bias adds one constant to every score of a row, which softmax cancels,
  so it is left out and its gradient is exactly 0. Every array the op
  keeps but x is nq rows wide.
* ``ffn(x, w1, b1, w2, b2)`` keeps fc1's output and ``tanh(u)``. Its
  backward, which runs once, consumes them: fc1's output gradient is
  written over the GELU output's gradient, and the GELU output, which
  fc2's weight gradient reads, is recomputed in place over fc1's output,
  so at most three fc1-output-sized buffers are alive at once. When the
  op records no graph, the GELU runs in place over fc1's output with
  chunk-sized scratch.

Forward and backward run the numpy operations of the composed graph in
the same order, with the kernels the primitive ops use (``_mm``, ``_softmax``,
the GELU chunks, ``_accum_rhs_grad``, ``_unbroadcast``); only q, k and v enter
their products as strided views of ``qkv`` instead of copies. Values and
gradients match the composed graph bit for bit (``tests/test_fused_ops.py``).
Attention with ``queries`` set has no composed twin and its own backward in
the same folded form; in f64 it matches the first rows of the full op to a
relative 1e-12, output and gradients alike.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .errors import ContractError, DimensionError

DTYPES = {"f32": np.float32, "f64": np.float64}


def _resolve(dtype):
    """A numpy dtype from a `DTYPES` name, or `dtype` itself."""
    return DTYPES[dtype] if isinstance(dtype, str) else dtype


def _as_array(data, dtype=None):
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(_resolve(dtype), copy=False)
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

    def astype(self, dtype) -> "Tensor":
        """A copy in ``dtype``; its gradient reaches ``self`` cast back."""
        src = self.data.dtype
        return _from_op(self.data.astype(_resolve(dtype)), (self,),
                        lambda g: self._accum(g.astype(src)))

    # ---- gradient machinery --------------------------------------------------

    def _accum(self, g: np.ndarray):
        """Add ``g`` into ``self.grad``; a first ``g`` laid out like the data is kept."""
        _check_grad_dtype(self, g)
        if self.grad is not None:
            self.grad += g
        elif g.shape == self.data.shape and all(  # a size-1 axis's stride steps nowhere
                s == t for s, t, n in zip(g.strides, self.data.strides, g.shape) if n > 1):
            self.grad = g
        else:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Accumulate d(self)/d(leaf) into every requires_grad tensor in the graph.

        ``self`` must be a scalar (size 1). The walk consumes the graph:
        each node it passes drops its closure and parents (``_parents`` is
        then None), and a later walk through such a node raises
        ContractError. Leaf gradients add to any left by an earlier graph.
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
            if node._parents is None:
                raise ContractError("backward through a graph an earlier backward() consumed; "
                                    "run the forward again to rebuild it")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None  # interior buffers are scratch; only leaves keep grads
                node._backward = None
                node._parents = None

    # ---- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __getitem__(self, idx):
        return index(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def transpose(self, axes):
        return transpose(self, axes)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis=axis, keepdims=keepdims)


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


def _records(parents) -> bool:
    """Whether an op over ``parents`` records a graph node."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _from_op(data: np.ndarray, parents, backward) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    if _records(parents):
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
    """Matching views of same-shape arrays, ``_CHUNK`` elements at a time in memory
    order, so an elementwise pass keeps its temporaries chunk-sized. Arrays that are
    not all dense and laid out alike come back whole, as one chunk."""
    order = sorted(range(arrays[0].ndim), key=lambda i: -arrays[0].strides[i])
    if not all(a.transpose(order).flags.c_contiguous for a in arrays):
        yield arrays
        return
    flat = [a.transpose(order).reshape(-1) for a in arrays]  # views: each is dense in order
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


# ---- elementwise arithmetic ----------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_dtype(a, b, "add")
    out_data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.shape))
        if b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            b._accum(gb.copy() if gb is a.grad else gb)

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
    out_data = _mm(a.data, b.data)
    if bias is not None:
        _check_same_dtype(a, bias, "matmul bias")
        if np.broadcast_shapes(out_data.shape, bias.shape) != out_data.shape:
            raise DimensionError(f"bias shape {bias.shape} does not broadcast to {out_data.shape}")
        out_data += bias.data

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(_mm(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            _accum_rhs_grad(b, a.data, g)
        if bias is not None and bias.requires_grad:
            bias._accum(_unbroadcast(g, bias.shape))

    return _from_op(out_data, (a, b, bias), bw)


def _accum_rhs_grad(b: Tensor, a: np.ndarray, g: np.ndarray):
    """Add the gradient of ``b`` in ``a @ b`` (output gradient ``g``) into ``b``.
    A 2-D b's, sum_i a[i].T @ g[i] over a's leading i, is one GEMM over rows."""
    if b.ndim == 2:
        b._accum(_rows(a).T @ _rows(g))
    else:
        b._accum(_unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), b.shape))


def _rows(a: np.ndarray) -> np.ndarray:
    """a [*lead, k] as one [prod(lead), k] matrix: a view when a's layout allows."""
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b; a batched a against a 2-D b is one GEMM, not one per leading index."""
    if b.ndim == 2 and a.ndim > 2:
        return (_rows(a) @ b).reshape(a.shape[:-1] + b.shape[1:])
    return np.matmul(a, b)


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


def _gelu_tanh(xc: np.ndarray, tc: np.ndarray):
    """tc = tanh(C * (x + A * x**3)) for one chunk.

    The cube is x * x * x: np.power(x, 3) can take a per-element scalar
    path for negative bases that costs more than the rest of the GELU."""
    np.multiply(xc, xc, out=tc)
    tc *= xc
    tc *= _GELU_A
    tc += xc
    tc *= _GELU_C
    np.tanh(tc, out=tc)


def _gelu_out(xc: np.ndarray, tc: np.ndarray, oc: np.ndarray):
    """oc = 0.5 * x * (1 + t) for one chunk; oc may be xc."""
    np.multiply(0.5, xc, out=oc)
    oc *= 1.0 + tc


def _gelu_into(x: np.ndarray, t: np.ndarray, out: np.ndarray):
    """out = gelu(x) and t = tanh(u), chunk by chunk."""
    for xc, tc, oc in flat_chunks(x, t, out):
        _gelu_tanh(xc, tc)
        _gelu_out(xc, tc, oc)


def _gelu_grad_into(x: np.ndarray, t: np.ndarray, g: np.ndarray, r: np.ndarray):
    """r = g * gelu'(x) from x and t = tanh(u), chunk by chunk; r may be g.
    Each chunk's factor is built in chunk-sized scratch before g is read."""
    # g * (0.5 * (1 + t) + 0.5 * x * (1 - t**2) * du),
    # du = C * (1 + 3 * A * x**2)
    for xc, tc, gc, rc in flat_chunks(x, t, g, r):
        du = np.square(xc)
        du *= 3.0 * _GELU_A
        du += 1.0
        du *= _GELU_C
        s = np.square(tc)
        np.subtract(1.0, s, out=s)
        f = np.multiply(0.5, xc)
        f *= s
        f *= du
        np.add(1.0, tc, out=s)
        s *= 0.5
        f += s
        np.multiply(f, gc, out=rc)


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU; the backward differentiates the approximation.

    Evaluates 0.5 * x * (1 + tanh(C * (x + A * x**3))) in place, chunk by
    chunk, with the cube as two multiplies (x * x * x, not np.power);
    keeps x and tanh(...).
    """
    x = a.data
    t = np.empty_like(x)
    out_data = np.empty_like(x)
    _gelu_into(x, t, out_data)

    def bw(g):
        r = np.empty_like(x)
        _gelu_grad_into(x, t, g, r)
        a._accum(r)

    return _from_op(out_data, (a,), bw)


# ---- normalization and softmax ----------------------------------------------------------


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax along ``axis``; rows sum to 1."""
    if not (-a.ndim <= axis < a.ndim):
        raise DimensionError(f"softmax axis {axis} invalid for shape {a.shape}")
    y = _softmax(a.data, axis)

    def bw(g):
        a._accum(_softmax_grad(g, y, axis))

    return _from_op(y, (a,), bw)


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    y = x - x.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    return y


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    return (g - (g * y).sum(axis=axis, keepdims=True)) * y


_LN_EPS = 1e-6


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise DimensionError(
            f"layer_norm params must have shape ({d},), got {gamma.shape} and {beta.shape}")
    xh = _rows(np.subtract(x.data, np.einsum("...j->...", x.data)[..., None] / d, order="C"))
    inv = 1 / np.sqrt(np.einsum("ij,ij->i", xh, xh) / d + _LN_EPS)
    xh *= inv[:, None]
    out_data = np.multiply(xh, gamma.data).reshape(x.shape)
    out_data += beta.data

    def bw(g):
        g = _rows(g)
        ones = np.ones(len(g), g.dtype)
        if beta.requires_grad:
            beta._accum(ones @ g)
        r = np.multiply(g, xh)
        if gamma.requires_grad:
            gamma._accum(ones @ r)
        if x.requires_grad:
            b = np.einsum("ij,j->i", r, gamma.data)[:, None] / d  # row means of dL/dx-hat * x-hat
            np.multiply(g, gamma.data, out=r)  # dL/dx-hat
            r -= np.einsum("ij->i", r)[:, None] / d
            r -= np.multiply(xh, b, out=xh)
            r *= inv[:, None]
            x._accum(r.reshape(x.shape))

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


# ---- fused transformer blocks -----------------------------------------------------------


def _check_affine(op: str, x: Tensor, k: int, w: Tensor, b: Tensor):
    """w [k, n] and b [n] in x's dtype: an affine map from width k."""
    _check_same_dtype(x, w, op)
    _check_same_dtype(x, b, op)
    if w.ndim != 2 or w.shape[0] != k or b.shape != w.shape[1:]:
        raise DimensionError(f"{op}: weight {w.shape} and bias {b.shape} do not map width {k}")


def _linear_grad(x: np.ndarray, w: Tensor, b: Tensor, g: np.ndarray) -> np.ndarray:
    """Backward of ``x @ w + b`` inside a fused op, in matmul's order: b's and
    w's gradients accumulate, x's is returned."""
    if b.requires_grad:
        b._accum(_unbroadcast(g, b.shape))
    gx = _mm(g, w.data.T)
    if w.requires_grad:
        _accum_rhs_grad(w, x, g)
    return gx


def _split_heads(qkv: np.ndarray, heads: int):
    """q, k, v as [b, heads, t, d / heads] views of the fused [b, t, 3d] projection."""
    b, t, d3 = qkv.shape
    parts = qkv.reshape((b, t, 3, heads, d3 // (3 * heads))).transpose((2, 0, 3, 1, 4))
    return parts[0], parts[1], parts[2]


def _column_heads(w: np.ndarray, heads: int) -> np.ndarray:
    """A [d, n] weight's contiguous column heads as a [heads, d, n / heads] view."""
    d, n = w.shape
    return w.reshape((d, heads, n // heads)).transpose((1, 0, 2))


def attention(x: Tensor, wqkv: Tensor, bqkv: Tensor, wproj: Tensor, bproj: Tensor,
              heads: int, queries: int | None = None):
    """Multi-head self-attention over the second-to-last axis of x [*lead, t, d].

    One graph node for qkv = x @ wqkv + bqkv, the head split (heads are
    contiguous slices of each of q, k, v), softmax(q k^T / sqrt(d / heads)),
    the weighted sum of v, the head merge and the output projection. All
    leading axes are batch. The first ``queries`` tokens of each sequence
    (all t when None) are the queries; all t tokens are keys and values.
    With ``queries`` set no key or value is formed: the key and value
    weights fold into the query rows (``_query_rows_attention``), and the
    key bias, which softmax cancels, gets a gradient of exactly 0.
    Returns the output Tensor [*lead, nq, d] and the attention probabilities
    [prod(lead), heads, nq, t] as an ndarray, with nq = queries or t.
    """
    if x.ndim < 2:
        raise DimensionError(f"attention needs [..., tokens, dim] input, got {x.shape}")
    *lead, t, d = x.shape
    if queries is not None and not 1 <= queries <= t:
        raise DimensionError(f"attention: {queries} queries out of {t} tokens")
    _check_affine("attention qkv", x, d, wqkv, bqkv)
    _check_affine("attention proj", x, d, wproj, bproj)
    if wqkv.shape[1] != 3 * d or d % heads:
        raise DimensionError(f"attention: qkv width {wqkv.shape[1]} is not 3 x {d} "
                             f"split over {heads} heads")
    if queries is not None:
        return _query_rows_attention(x, wqkv, bqkv, wproj, bproj, heads, queries)
    bsz = math.prod(lead)
    dh = d // heads
    c = 1.0 / math.sqrt(dh)
    x2 = x.data.reshape((bsz, t, d))
    qkv = _mm(x2, wqkv.data)
    qkv += bqkv.data
    q, k, v = _split_heads(qkv, heads)
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    scores *= c
    probs = _softmax(scores, -1)
    del scores
    merged = np.matmul(probs, v).transpose((0, 2, 1, 3)).reshape((bsz, t, d))
    out_data = _mm(merged, wproj.data)
    out_data += bproj.data

    def bw(g):
        g = g.reshape((bsz, t, wproj.shape[1]))
        dm = _linear_grad(merged, wproj, bproj, g)
        do = np.ascontiguousarray(dm.reshape((bsz, t, heads, dh)).transpose((0, 2, 1, 3)))
        del dm
        q, k, v = _split_heads(qkv, heads)
        dp = np.matmul(do, np.swapaxes(v, -1, -2))
        dv = np.matmul(np.swapaxes(probs, -1, -2), do)
        del do
        ds = _softmax_grad(dp, probs, -1)
        del dp
        ds *= c
        dq = np.matmul(ds, k)
        dkt = np.matmul(np.swapaxes(q, -1, -2), ds)
        del ds
        dqkv = np.empty_like(qkv)
        for part, grad in zip(_split_heads(dqkv, heads), (dq, np.swapaxes(dkt, -1, -2), dv)):
            part[...] = grad
        del dq, dkt, dv
        dx = _linear_grad(x2, wqkv, bqkv, dqkv)
        if x.requires_grad:
            x._accum(dx.reshape(x.shape))

    out = _from_op(out_data.reshape(tuple(lead) + out_data.shape[-2:]),
                   (x, wqkv, bqkv, wproj, bproj), bw)
    return out, probs


def _query_rows_attention(x: Tensor, wqkv: Tensor, bqkv: Tensor, wproj: Tensor,
                          bproj: Tensor, heads: int, nq: int):
    """``attention`` whose only queries are the first nq tokens of each sequence.

    Per head h, with Wk,h and Wv,h its [d, dh] key and value columns and
    q = x[:nq] Wq + bq: q~ = q_h Wk,h^T / sqrt(dh), p = softmax(q~ x^T),
    u = p x and o_h = u Wv,h + bv,h. The key bias adds q_h . bk,h to every
    score of a row, which softmax cancels, so it is left out and its
    gradient is 0. Keys and values of all t tokens are never formed; the
    backward keeps x, q, q~, p, u and the merged heads, all nq rows wide
    but x. Per-head products run as one GEMM per head over all sequences
    ([heads, bsz * nq, .]); products with x as one per sequence
    ([*lead, heads * nq, .]).
    """
    *lead, t, d = x.shape
    bsz = math.prod(lead)
    dh = d // heads
    c = 1.0 / math.sqrt(dh)

    def per_sequence(a):  # [heads, bsz * nq, k] -> [*lead, heads * nq, k]
        k = a.shape[-1]
        return a.reshape((heads, bsz, nq, k)).transpose((1, 0, 2, 3)).reshape(
            tuple(lead) + (heads * nq, k))

    def per_head(a):  # [*lead, heads * nq, k] -> [heads, bsz * nq, k]
        k = a.shape[-1]
        return a.reshape((bsz, heads, nq, k)).transpose((1, 0, 2, 3)).reshape(
            (heads, bsz * nq, k))

    xs = x.data
    xq = xs[..., :nq, :]
    wq, wk, wv = (wqkv.data[:, i * d:(i + 1) * d] for i in range(3))
    wkh, wvh = _column_heads(wk, heads), _column_heads(wv, heads)
    q = _mm(xq, wq)
    q += bqkv.data[:d]
    qh = q.reshape((bsz * nq, heads, dh)).transpose((1, 0, 2))
    qk = np.matmul(qh, np.swapaxes(wkh, -1, -2))
    qk *= c
    qk = per_sequence(qk)
    probs = _softmax(np.matmul(qk, np.swapaxes(xs, -1, -2)), -1)
    u = per_head(np.matmul(probs, xs))
    o = np.matmul(u, wvh)
    o += bqkv.data[2 * d:].reshape((heads, 1, dh))
    merged = o.transpose((1, 0, 2)).reshape(tuple(lead) + (nq, d))
    out_data = _mm(merged, wproj.data)
    out_data += bproj.data

    def bw(g):
        dm = _linear_grad(merged, wproj, bproj, g)
        do = dm.reshape((bsz * nq, heads, dh)).transpose((1, 0, 2))
        dw = np.empty_like(wqkv.data)
        db = np.zeros_like(bqkv.data)
        db[2 * d:] = _rows(dm).sum(axis=0)
        _column_heads(dw[:, 2 * d:], heads)[...] = np.matmul(np.swapaxes(u, -1, -2), do)
        du = per_sequence(np.matmul(do, np.swapaxes(wvh, -1, -2)))
        ds = _softmax_grad(np.matmul(du, np.swapaxes(xs, -1, -2)), probs, -1)
        # x's gradient through u = p x and the scores q~ x^T, as one product
        dx = np.matmul(np.swapaxes(np.concatenate([probs, ds], axis=-2), -1, -2),
                       np.concatenate([du, qk], axis=-2), out=np.empty_like(xs))
        ds *= c
        dqk = per_head(np.matmul(ds, xs))
        _column_heads(dw[:, d:2 * d], heads)[...] = np.matmul(np.swapaxes(dqk, -1, -2), qh)
        dq = np.matmul(dqk, wkh).transpose((1, 0, 2)).reshape(q.shape)
        db[:d] = _rows(dq).sum(axis=0)
        dw[:, :d] = _rows(xq).T @ _rows(dq)
        dx[..., :nq, :] += _mm(dq, wq.T)
        if bqkv.requires_grad:
            bqkv._accum(db)
        if wqkv.requires_grad:
            wqkv._accum(dw)
        if x.requires_grad:
            x._accum(dx)

    out = _from_op(out_data, (x, wqkv, bqkv, wproj, bproj), bw)
    return out, probs.reshape((bsz, heads, nq, t))


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """fc1 -> tanh-GELU -> fc2 over the last axis of x, one graph node.

    The GELU is ``gelu``'s chunked expression. When the op records a graph
    it keeps fc1's output h and tanh(u) t. Backward runs once and consumes
    them: it writes fc1's output gradient over the GELU output's gradient,
    then recomputes the GELU output in place over h for fc2's weight
    gradient and drops t. Without a graph, the GELU runs in place over h
    with chunk-sized scratch.
    """
    _check_affine("ffn fc1", x, x.shape[-1], w1, b1)
    _check_affine("ffn fc2", x, w1.shape[1], w2, b2)
    params = (x, w1, b1, w2, b2)
    h = _mm(x.data, w1.data)
    h += b1.data
    if not _records(params):
        for (hc,) in flat_chunks(h):
            tc = np.empty_like(hc)
            _gelu_tanh(hc, tc)
            _gelu_out(hc, tc, hc)
        out_data = _mm(h, w2.data)
        out_data += b2.data
        return _from_op(out_data, params, None)
    t = np.empty_like(h)
    a = np.empty_like(h)
    _gelu_into(h, t, a)
    out_data = _mm(a, w2.data)
    out_data += b2.data

    def bw(g):
        nonlocal t
        da = _mm(g, w2.data.T)
        _gelu_grad_into(h, t, da, da)  # da now holds fc1's output gradient
        for hc, tc in flat_chunks(h, t):
            _gelu_out(hc, tc, hc)  # h now holds the GELU output
        t = None
        if b2.requires_grad:
            b2._accum(_unbroadcast(g, b2.shape))
        if w2.requires_grad:
            _accum_rhs_grad(w2, h, g)
        dx = _linear_grad(x.data, w1, b1, da)
        if x.requires_grad:
            x._accum(dx)

    return _from_op(out_data, params, bw)
