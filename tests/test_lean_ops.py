"""The memory-lean training-path ops against their plain numpy formulas.

Each rewritten op (matmul with a fused bias, gelu, softmax, index) must
give bit-identical values to the plain formula written out inline here: the
same numpy operations in the same order. np.array_equal, not a tolerance.
Adam's m and v are held to ``oracles.plain_adam`` bit for bit too; its
parameter update folds the bias corrections, so p is held to a stated bound.
So are the contract tests of the flattened-GEMM kernel that compare against
a different summation (f64, or the triple-loop oracle).
"""

import gc

import numpy as np
import numpy.testing as npt
import pytest

from duoformer import tensor as T
from duoformer import trainer
from duoformer.config import DuoFormerConfig, TrainConfig
from duoformer.conv import channel_last
from duoformer.data import make_synthetic
from duoformer.errors import ContractError, DimensionError
from duoformer.gradcheck import grad_check_report
from duoformer.model import DuoFormer
from duoformer.tensor import Tensor
from oracles import layer_norm_plain, matmul_loops, plain_adam

DTYPES = (np.float32, np.float64)


def _graph_ops(root: Tensor) -> int:
    """Number of op nodes (nodes with a backward) reachable from root."""
    seen, stack, ops = set(), [root], 0
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        ops += n._backward is not None
        stack.extend(n._parents)
    return ops


# ---- matmul with a fused bias -------------------------------------------------


def _plain_linear(x, w, b, g):
    """One GEMM over the rows of x flattened to a matrix, then a broadcast
    add, each differentiated on its own."""
    k, n = w.shape
    x2, g2 = x.reshape(-1, k), g.reshape(-1, n)
    out = (x2 @ w).reshape(g.shape) + b
    gx = (g2 @ w.T).reshape(x.shape)
    gw = x2.T @ g2
    gb = g.sum(axis=tuple(range(g.ndim - 1)))
    return out, gx, gw, gb


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,transposed", [
    ((5, 7, 16), False),
    ((3, 4, 7, 16), False),
    ((6, 16, 9), True),
    ((2, 3, 16, 9), True),
    ((7, 16), False),
])
def test_matmul_bias_matches_plain_formula(dtype, shape, transposed):
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(shape).astype(dtype)
    if transposed:  # a non-contiguous [..., t, k] view
        x0 = np.swapaxes(x0, -1, -2)
    k, n = x0.shape[-1], 24
    w0 = (rng.standard_normal((k, n)) * 0.1).astype(dtype)
    b0 = rng.standard_normal(n).astype(dtype)
    g0 = rng.standard_normal(x0.shape[:-1] + (n,)).astype(dtype)
    x, w, b = (Tensor(v, requires_grad=True) for v in (x0, w0, b0))
    out = T.matmul(x, w, bias=b)
    T.tensor_sum(T.mul(out, Tensor(g0))).backward()
    want = _plain_linear(x0, w0, b0, g0)
    for name, got, ref in zip(("out", "gx", "gw", "gb"), (out.data, x.grad, w.grad, b.grad), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape, name
        assert np.array_equal(got, ref), name


def test_matmul_bias_gradcheck_4d():
    rng = np.random.default_rng(1)
    x = Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal(6), requires_grad=True)

    def f(ps):
        y = T.matmul(ps["x"], ps["w"], bias=ps["b"])
        return T.tensor_sum(T.mul(y, y))

    assert max(grad_check_report(f, {"x": x, "w": w, "b": b}).values()) < 1e-4


def test_matmul_rejects_bias_that_grows_the_output():
    with pytest.raises(DimensionError, match="bias"):
        T.matmul(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 4))),
                 bias=Tensor(np.zeros((2, 3, 4))))


def test_linear_adds_exactly_one_graph_node():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    out = T.matmul(x, w, bias=b)
    assert _graph_ops(out) == 1
    assert {id(p) for p in out._parents} == {id(x), id(w), id(b)}


def test_weight_grad_under_batched_input_f32_agrees_with_f64():
    """The flattened weight-gradient GEMM sums 182 row products in one
    kernel. Against the f64 sum of the per-index products, its f32 error per
    element, in units of f32 eps times the magnitude sum |x|^T |g|, measured
    at most 2.42 over seeds 0-199 of this shape (1.11 at seed 0); the bound
    is 4. The f64 gradient agrees with that sum to 1e-12."""
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal((2, 7, 13, 32)).astype(np.float32)
    w0 = rng.standard_normal((32, 24)).astype(np.float32)
    g0 = rng.standard_normal((2, 7, 13, 24)).astype(np.float32)
    x64, g64 = x0.astype(np.float64), g0.astype(np.float64)
    want = np.matmul(np.swapaxes(x64, -1, -2), g64).sum(axis=(0, 1))
    mag = np.matmul(np.swapaxes(np.abs(x64), -1, -2), np.abs(g64)).sum(axis=(0, 1))
    for dtype, bound in ((np.float32, 4 * np.finfo(np.float32).eps), (np.float64, 1e-12)):
        w = Tensor(w0.astype(dtype), requires_grad=True)
        out = T.matmul(Tensor(x0.astype(dtype)), w)
        T.tensor_sum(T.mul(out, Tensor(g0.astype(dtype)))).backward()
        assert w.grad.dtype == dtype
        assert (np.abs(w.grad - want) / mag).max() <= bound


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("view", [
    lambda a: np.swapaxes(a, -1, -2),  # last axis strided
    lambda a: a[:, ::2],  # a leading axis strided
    lambda a: a.transpose((1, 0, 2, 3)),  # leading axes permuted
])
def test_non_contiguous_batched_input_matches_its_contiguous_copy(dtype, view):
    rng = np.random.default_rng(3)
    x0 = view(rng.standard_normal((3, 6, 16, 16)).astype(dtype))
    assert not x0.flags.c_contiguous
    d, h = x0.shape[-1], 12
    params = [rng.standard_normal(s).astype(dtype) for s in ((d, h), (h,), (h, d), (d,))]
    g0 = rng.standard_normal(x0.shape).astype(dtype)

    def run(op, xv):
        x = Tensor(xv, requires_grad=True)
        ps = [Tensor(p, requires_grad=True) for p in params]
        out = op(x, ps)
        T.tensor_sum(T.mul(out, Tensor(g0[..., :out.shape[-1]]))).backward()
        return [out.data, x.grad] + [p.grad for p in ps if p.grad is not None]

    for op in (lambda x, ps: T.matmul(x, ps[0], bias=ps[1]), lambda x, ps: T.ffn(x, *ps)):
        got, want = run(op, x0), run(op, np.ascontiguousarray(x0))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("a_shape,b_shape", [((3, 4, 5), (3, 5, 6)), ((4, 5), (2, 5, 6)),
                                             ((2, 1, 4, 5), (3, 5, 6))])
def test_batched_rhs_takes_the_stacked_path(monkeypatch, a_shape, b_shape):
    """A rank > 2 right operand is a stack of matrices, not one affine map:
    it goes through np.matmul's stacked loop, slice by slice."""
    rng = np.random.default_rng(4)
    a0, b0 = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
    stacked = []
    real = np.matmul
    monkeypatch.setattr(np, "matmul", lambda p, q: stacked.append(q.ndim) or real(p, q))
    a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
    out = T.matmul(a, b)
    T.tensor_sum(out).backward()
    monkeypatch.undo()
    assert stacked and all(n > 2 for n in stacked)
    lead = out.shape[:-2]
    a_full = np.broadcast_to(a0, lead + a_shape[-2:])
    b_full = np.broadcast_to(b0, lead + b_shape[-2:])
    for i in np.ndindex(lead):
        npt.assert_allclose(out.data[i], matmul_loops(a_full[i], b_full[i]), atol=1e-12, rtol=0)


# ---- gelu -------------------------------------------------------------------------


def _plain_gelu(x, g):
    c, a = float(np.sqrt(2.0 / np.pi)), 0.044715
    u = c * (x + a * (x * x * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)
    du = c * (1.0 + 3.0 * a * x ** 2)
    return out, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t ** 2) * du)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape", [(1,), (17,), (4, 5, 300), (65537,)])
def test_gelu_matches_plain_formula(dtype, shape):
    rng = np.random.default_rng(3)
    x0 = (rng.standard_normal(shape) * 3).astype(dtype)
    g0 = rng.standard_normal(shape).astype(dtype)
    x = Tensor(x0, requires_grad=True)
    out = T.gelu(x)
    T.tensor_sum(T.mul(out, Tensor(g0))).backward()
    want_out, want_grad = _plain_gelu(x0, g0)
    assert out.data.dtype == x.grad.dtype == dtype
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(x.grad, want_grad)


# ---- softmax -----------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("axis", [-1, 1])
def test_softmax_matches_plain_formula(dtype, axis):
    rng = np.random.default_rng(6)
    x0 = (rng.standard_normal((3, 4, 5)) * 3).astype(dtype)
    g0 = rng.standard_normal((3, 4, 5)).astype(dtype)
    x = Tensor(x0, requires_grad=True)
    out = T.softmax(x, axis=axis)
    T.tensor_sum(T.mul(out, Tensor(g0))).backward()
    e = np.exp(x0 - x0.max(axis=axis, keepdims=True))
    y = e / e.sum(axis=axis, keepdims=True)
    assert np.array_equal(out.data, y)
    assert np.array_equal(x.grad, (g0 - (g0 * y).sum(axis=axis, keepdims=True)) * y)


# ---- layer_norm -------------------------------------------------------------------------

LN_CASES = [((1, 16), "rows"), ((5, 7, 16), "rows"), ((2, 3, 5, 16), "scale_block"),
            ((3, 4, 768), "rows"), ((2, 3, 4, 768), "scale_block")]


def _ln_inputs(shape, layout, rng, constant_rows=False):
    """x (f64, in the model's layout), gamma, beta and an output gradient."""
    d = shape[-1]
    if layout == "scale_block":  # [B, N, S+1, D] viewed from a [B, S+1, N, D] buffer
        b, n, s, _ = shape
        x = (rng.standard_normal((b, s, n, d)) * 3 + 1).transpose((0, 2, 1, 3))
    else:
        x = rng.standard_normal(shape) * 3 + 1
    if constant_rows:  # var = 0: only epsilon keeps 1/sigma finite
        x[..., ::2, :] = 0.5
    return x, rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(shape)


def _ln_run(x, gamma, beta, g, dtype):
    """(out, dx, dgamma, dbeta) of tensor.layer_norm in ``dtype``; x keeps its layout."""
    xt, gt, bt = (Tensor(a.astype(dtype), requires_grad=True) for a in (x, gamma, beta))
    out = T.layer_norm(xt, gt, bt)
    T.tensor_sum(T.mul(out, Tensor(g.astype(dtype)))).backward()
    return out.data, xt.grad, gt.grad, bt.grad


def _close(got, want, rel):
    """max |got - want| within ``rel`` of max |want| (so an all-zero want is matched exactly)."""
    return np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("constant_rows", [False, True])
@pytest.mark.parametrize("shape,layout", LN_CASES)
def test_layer_norm_matches_plain_formula_in_f64(shape, layout, constant_rows):
    args = _ln_inputs(shape, layout, np.random.default_rng(30), constant_rows)
    for got, want in zip(_ln_run(*args, np.float64), layer_norm_plain(*args)):
        assert got.shape == want.shape and got.dtype == np.float64
        assert _close(got, want, 1e-12)


@pytest.mark.parametrize("shape,layout", LN_CASES)
def test_layer_norm_f32_agrees_with_f64(shape, layout):
    args = _ln_inputs(shape, layout, np.random.default_rng(31))
    for got, want in zip(_ln_run(*args, np.float32), _ln_run(*args, np.float64)):
        assert got.dtype == np.float32 and _close(got, want, 2e-6)


def test_layer_norm_gradcheck_f64():
    x, gamma, beta, w = _ln_inputs((2, 3, 4, 16), "scale_block", np.random.default_rng(32))
    params = {name: Tensor(a.copy(), requires_grad=True)
              for name, a in zip(("x", "gamma", "beta"), (x, gamma, beta))}
    report = grad_check_report(lambda ps: T.tensor_sum(T.mul(T.layer_norm(*ps.values()), Tensor(w))),
                               params)
    assert max(report.values()) < 1e-4


# ---- index ----------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("idx", [(slice(None), 0), (Ellipsis, slice(1, 4)), 2, (1, 2, 3)])
def test_index_grad_matches_zero_buffer_formula(dtype, idx):
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((4, 5, 6)).astype(dtype)
    x = Tensor(x0, requires_grad=True)
    out = x[idx]
    g0 = rng.standard_normal(out.shape).astype(dtype)
    # a second consumer, so the grad already exists when the slice lands
    loss = T.tensor_sum(T.mul(out, Tensor(g0))) + T.tensor_sum(T.mul(x, Tensor(np.ones_like(x0))))
    loss.backward()
    buf = np.zeros_like(x0)
    buf[idx] += g0
    assert np.array_equal(out.data, x0[idx])
    assert np.array_equal(x.grad, np.ones_like(x0) + buf)


def test_index_repeated_fancy_indices_accumulate():
    x = Tensor(np.arange(5.0), requires_grad=True)
    T.tensor_sum(x[[0, 0, 1]]).backward()
    npt.assert_array_equal(x.grad, [2.0, 1.0, 0.0, 0.0, 0.0])


def test_index_repeated_rows_2d():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    T.tensor_sum(T.mul(x[np.array([2, 0, 2, 2])], Tensor(np.ones((4, 2))))).backward()
    npt.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [3.0, 3.0]])


# ---- gradient accumulation --------------------------------------------------------------


def test_accum_rejects_mismatched_grad_dtype():
    x = Tensor(np.zeros(3, np.float32), requires_grad=True)
    with pytest.raises(ContractError, match="dtype"):
        x._accum(np.ones(3))
    x._accum(np.ones(3, np.float32))
    with pytest.raises(ContractError, match="dtype"):
        x._accum(np.ones(3))


def test_first_grad_is_kept_when_laid_out_like_data():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    g = np.ones((2, 3))
    x._accum(g)
    assert x.grad is g
    x._accum(np.full((2, 3), 2.0))  # a second gradient adds in place
    assert x.grad is g
    npt.assert_array_equal(g, np.full((2, 3), 3.0))


def test_first_grad_in_another_layout_is_copied():
    y = Tensor(np.zeros((3, 2)).T, requires_grad=True)  # F-ordered view
    g = np.ones((2, 3))
    y._accum(g)
    assert not np.shares_memory(y.grad, g)
    assert y.grad.strides == y.data.strides
    npt.assert_array_equal(y.grad, g)
    grad = y.grad
    y._accum(g)
    assert y.grad is grad
    npt.assert_array_equal(g, np.ones((2, 3)))
    npt.assert_array_equal(y.grad, np.full((2, 3), 2.0))


def test_view_of_a_leaf_hands_its_gradient_over(traced_memory):
    """The reshape passes mean's gradient buffer to the leaf: one buffer.
    Copying it at the view, as every view did, peaks at two."""
    x = Tensor(np.random.default_rng(20).standard_normal((512, 512)), requires_grad=True)
    loss = T.mean(T.reshape(x, (256, 1024)))
    with traced_memory() as mem:
        loss.backward()
    assert mem["peak"] < 1.5 * x.data.nbytes
    npt.assert_array_equal(x.grad, np.full(x.shape, 1.0 / x.size))


def _weighted_sum(y: Tensor, w: np.ndarray) -> Tensor:
    return T.tensor_sum(T.mul(y, Tensor(w)))


def test_add_gives_each_operand_its_own_gradient():
    rng = np.random.default_rng(21)
    a, b = (Tensor(rng.standard_normal((3, 4)), requires_grad=True) for _ in range(2))
    w = rng.standard_normal((3, 4))
    _weighted_sum(a + b, w).backward()
    npt.assert_array_equal(a.grad, w)
    npt.assert_array_equal(b.grad, w)
    assert not np.shares_memory(a.grad, b.grad)
    v = rng.standard_normal((3, 4))
    _weighted_sum(a, v).backward()  # a second graph adds into a.grad only
    npt.assert_array_equal(a.grad, w + v)
    npt.assert_array_equal(b.grad, w)


def test_add_of_a_tensor_to_itself_doubles_its_gradient():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    w = np.random.default_rng(22).standard_normal((3, 4))
    _weighted_sum(x + x, w).backward()
    npt.assert_array_equal(x.grad, 2 * w)


@pytest.mark.parametrize("broadcast_first", [False, True])
def test_add_gives_a_broadcast_operand_its_summed_gradient(broadcast_first):
    rng = np.random.default_rng(23)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    c = Tensor(rng.standard_normal(4), requires_grad=True)
    w = rng.standard_normal((3, 4))
    _weighted_sum(c + a if broadcast_first else a + c, w).backward()
    npt.assert_array_equal(a.grad, w)
    npt.assert_array_equal(c.grad, w.sum(axis=0))


def test_matmul_bias_that_is_also_an_operand():
    """x @ w + x with the bias fused: the bias gradient, which may keep g,
    is added after both operands' products have read g."""
    rng = np.random.default_rng(24)
    x, w = (rng.standard_normal((3, 3)) for _ in range(2))
    v = rng.standard_normal((3, 3))
    fx, fw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    _weighted_sum(T.matmul(fx, fw, bias=fx), v).backward()
    cx, cw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    _weighted_sum(T.matmul(cx, cw) + cx, v).backward()
    npt.assert_array_equal(fx.grad, cx.grad)
    npt.assert_array_equal(fw.grad, cw.grad)


# ---- no_grad ------------------------------------------------------------------------------


def test_no_grad_records_no_graph_and_restores():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    with T.no_grad():
        with T.no_grad():
            y = T.matmul(Tensor(np.ones((1, 2))), w)
        z = T.gelu(y)
    assert not y.requires_grad and y._parents == () and y._backward is None
    assert not z.requires_grad
    assert T.matmul(Tensor(np.ones((1, 2))), w).requires_grad


def test_no_grad_restores_after_error():
    with pytest.raises(RuntimeError):
        with T.no_grad():
            raise RuntimeError("boom")
    w = Tensor(np.ones((1, 1)), requires_grad=True)
    assert T.matmul(Tensor(np.ones((1, 1))), w).requires_grad


# ---- Adam ---------------------------------------------------------------------------------


def _assert_adam_param_close(got, want, steps, lr_max):
    """p from the folded update against the plain formula: a relative 1e-12
    in f64; in f32, each step's rounding of p and of its update."""
    if got.dtype == np.float64:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    else:
        bound = steps * (np.spacing(np.abs(want)) + 4 * np.finfo(np.float32).eps * lr_max)
        assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("dtype", DTYPES)
def test_adam_matches_plain_formula_over_five_steps(dtype):
    shapes = [(T._CHUNK * 2 + 7,), (3, 5), ()]
    rng = np.random.default_rng(5)
    init = [rng.standard_normal(s).astype(dtype) for s in shapes]
    params = [Tensor(a.copy(), requires_grad=True) for a in init]
    state = trainer.adam_init(params)
    ref = [a.copy() for a in init]
    ref_m = [np.zeros_like(a) for a in init]
    ref_v = [np.zeros_like(a) for a in init]
    for step in range(1, 6):
        grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
        lr = 1e-3 * step
        trainer.adam_step(params, grads, state, lr=lr)
        for i, g in enumerate(grads):
            plain_adam(ref[i], g, ref_m[i], ref_v[i], step, lr)
    for i in range(len(shapes)):
        _assert_adam_param_close(params[i].data, ref[i], steps=5, lr_max=5e-3)
        assert np.array_equal(state["m"][i], ref_m[i])
        assert np.array_equal(state["v"][i], ref_v[i])


def test_adam_scratch_is_one_chunk(traced_memory):
    """The update's temporaries share one chunk-sized buffer; the plain
    formula's m-hat, v-hat and quotient peaked at 4-5 chunks. Conv weights are
    chunked in their channel-last memory order too: a 3x3 one, and a 1x1 one
    whose gradient differs from m and v in the strides of its size-1 axes."""
    n = 3 * T._CHUNK
    rng = np.random.default_rng(6)
    params = [Tensor(rng.standard_normal(n), requires_grad=True)]
    grads = [rng.standard_normal(n)]
    for o, c, k in [(96, 256, 3), (768, 256, 1)]:
        w = channel_last(rng.standard_normal((o, c, k, k)), np.float64)
        params.append(Tensor(w, requires_grad=True))
        grads.append(rng.standard_normal((o, k, k, c)).transpose(0, 3, 1, 2))  # as conv's GEMM
    ref = [(np.array(p.data), np.zeros(p.shape), np.zeros(p.shape)) for p in params]
    state = trainer.adam_init(params)
    trainer.adam_step(params, grads, state, lr=1e-3)
    with traced_memory() as mem:
        trainer.adam_step(params, grads, state, lr=1e-3)
    assert mem["peak"] < 1.5 * T._CHUNK * params[0].data.itemsize
    for i, (p, g, (want, m, v)) in enumerate(zip(params, grads, ref)):
        for step in (1, 2):
            plain_adam(want, g, m, v, step, 1e-3)
        assert np.array_equal(state["m"][i], m) and np.array_equal(state["v"][i], v)
        _assert_adam_param_close(p.data, want, steps=2, lr_max=1e-3)


def test_adam_updates_non_contiguous_param():
    base = np.arange(12.0).reshape(3, 4)
    p = Tensor(base.T, requires_grad=True)  # F-ordered view
    ref = base.T.copy()
    state = trainer.adam_init([p])
    g = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    trainer.adam_step([p], [g], state, lr=0.1)
    plain_adam(ref, g, np.zeros_like(ref), np.zeros_like(ref), 1, 0.1)
    assert np.array_equal(p.data, ref)


# ---- trainer: graph lifetime --------------------------------------------------------------


TOY = dict(input_size=32, patch_count=4, embed_dim=8, heads=2, layers=1,
           stages=(0, 1, 2), channels=(2, 3, 4, 5), num_classes=2)


def _live_graph_nodes() -> int:
    return sum(1 for o in gc.get_objects() if isinstance(o, Tensor) and o._backward is not None)


def test_predict_records_no_graph():
    images, _, _ = make_synthetic(classes=2, samples=6, size=32, seed=0)
    model = DuoFormer(DuoFormerConfig(seed=0, **TOY))
    outputs = []
    orig = type(model).forward

    def forward(*args, **kwargs):
        y = orig(model, *args, **kwargs)
        outputs.append(y)
        return y

    object.__setattr__(model, "forward", forward)
    preds = trainer.predict(model, images, batch_size=4)
    assert preds.shape == (6,) and len(outputs) == 2
    assert all(_graph_ops(y) == 0 and not y.requires_grad for y in outputs)
    assert T.gelu(Tensor(np.ones(2), requires_grad=True)).requires_grad


def test_backward_leaves_only_leaf_gradients(traced_memory):
    """With the loss still referenced, nothing of the graph outlives the
    walk: a two-layer duo model's graph kept 38 times the gradients' bytes
    when backward released it only on return."""
    model = DuoFormer(DuoFormerConfig(seed=0, input_size=64, patch_count=4, embed_dim=32,
                                      heads=4, layers=2, channels=(4, 8, 8, 16),
                                      num_classes=3))
    x = Tensor(np.random.default_rng(18).standard_normal((2, 64, 64, 3)).astype(np.float32))
    labels = np.array([0, 2])
    T.cross_entropy(model(x), labels).backward()  # warm-up: first-call allocations
    model.zero_grad()
    gc.collect()
    with traced_memory() as mem:
        loss = T.cross_entropy(model(x), labels)
        loss.backward()
        gc.collect()
    grads = sum(p.grad.nbytes for p in model.parameters() if p.grad is not None)
    assert mem["current"] < grads + 64 * 1024
    assert loss._parents is None


def test_train_frees_graph_before_adam(monkeypatch):
    images, labels, _ = make_synthetic(classes=2, samples=12, size=32, seed=0)
    live = []
    orig = trainer.adam_step

    def adam_step(*args, **kwargs):
        gc.collect()
        live.append(_live_graph_nodes())
        return orig(*args, **kwargs)

    monkeypatch.setattr(trainer, "adam_step", adam_step)
    cfg = TrainConfig(batch_size=4, max_epochs=1, patience=1, max_lr=1e-3, seed=0)
    trainer.train(DuoFormer(DuoFormerConfig(seed=0, **TOY)), images, labels, cfg)
    assert live and all(n == 0 for n in live)
