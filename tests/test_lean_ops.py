"""The memory-lean training-path ops against their plain numpy formulas.

Each rewritten op (matmul with a fused bias, gelu, index, Adam) must give
bit-identical values to the plain formula written out inline here: the same
numpy operations in the same order. np.array_equal, not a tolerance.
"""

import gc

import numpy as np
import numpy.testing as npt
import pytest

from duoformer import tensor as T
from duoformer import trainer
from duoformer.config import DuoFormerConfig, TrainConfig
from duoformer.data import make_synthetic
from duoformer.errors import ContractError, DimensionError
from duoformer.gradcheck import grad_check
from duoformer.model import DuoFormer
from duoformer.tensor import Tensor

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
    """matmul then a broadcast add, each differentiated on its own."""
    out = np.matmul(x, w) + b
    gx = np.matmul(g, np.swapaxes(w, -1, -2))
    gw = np.matmul(np.swapaxes(x, -1, -2), g)
    if gw.ndim > 2:
        gw = gw.sum(axis=tuple(range(gw.ndim - 2)))
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
    (out * Tensor(g0)).sum().backward()
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
        y = T.matmul(ps[0], ps[1], bias=ps[2])
        return (y * y).sum()

    assert grad_check(f, [x, w, b]) < 1e-4


def test_matmul_rejects_bias_that_grows_the_output():
    with pytest.raises(DimensionError, match="bias"):
        T.matmul(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 4))),
                 bias=Tensor(np.zeros((2, 3, 4))))


def test_linear_adds_exactly_one_graph_node():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
    w = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    out = T.linear(x, w, b)
    assert _graph_ops(out) == 1
    assert {id(p) for p in out._parents} == {id(x), id(w), id(b)}


# ---- gelu -------------------------------------------------------------------------


def _plain_gelu(x, g):
    c, a = float(np.sqrt(2.0 / np.pi)), 0.044715
    u = c * (x + a * x ** 3)
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
    (out * Tensor(g0)).sum().backward()
    want_out, want_grad = _plain_gelu(x0, g0)
    assert out.data.dtype == x.grad.dtype == dtype
    assert np.array_equal(out.data, want_out)
    assert np.array_equal(x.grad, want_grad)


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
    ((out * Tensor(g0)).sum() + (x * Tensor(np.ones_like(x0))).sum()).backward()
    buf = np.zeros_like(x0)
    buf[idx] += g0
    assert np.array_equal(out.data, x0[idx])
    assert np.array_equal(x.grad, np.ones_like(x0) + buf)


def test_index_repeated_fancy_indices_accumulate():
    x = Tensor(np.arange(5.0), requires_grad=True)
    x[[0, 0, 1]].sum().backward()
    npt.assert_array_equal(x.grad, [2.0, 1.0, 0.0, 0.0, 0.0])


def test_index_repeated_rows_2d():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    (x[np.array([2, 0, 2, 2])] * Tensor(np.ones((4, 2)))).sum().backward()
    npt.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [3.0, 3.0]])


# ---- gradient accumulation --------------------------------------------------------------


def test_accum_rejects_mismatched_grad_dtype():
    x = Tensor(np.zeros(3, np.float32), requires_grad=True)
    with pytest.raises(ContractError, match="dtype"):
        x._accum(np.ones(3))
    x._accum(np.ones(3, np.float32))
    with pytest.raises(ContractError, match="dtype"):
        x._accum(np.ones(3))


def test_first_grad_is_a_copy():
    x = Tensor(np.zeros(3), requires_grad=True)
    g = np.ones(3)
    x._accum(g)
    x._accum(g)
    npt.assert_array_equal(g, np.ones(3))
    npt.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_owned_grad_is_kept_only_when_laid_out_like_data():
    x = Tensor(np.zeros((2, 3)), requires_grad=True)
    g = np.ones((2, 3))
    x._accum(g, owned=True)
    assert x.grad is g
    y = Tensor(np.zeros((3, 2)).T, requires_grad=True)  # F-ordered view
    y._accum(g.copy(), owned=True)
    assert y.grad.strides == np.zeros_like(y.data).strides
    npt.assert_array_equal(y.grad, g)


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


def _plain_adam(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    mhat = m / (1 - b1 ** t)
    vhat = v / (1 - b2 ** t)
    p -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(p.dtype, copy=False)


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
            _plain_adam(ref[i], g, ref_m[i], ref_v[i], step, lr)
    for i in range(len(shapes)):
        assert np.array_equal(params[i].data, ref[i])
        assert np.array_equal(state["m"][i], ref_m[i])
        assert np.array_equal(state["v"][i], ref_v[i])


def test_adam_updates_non_contiguous_param():
    base = np.arange(12.0).reshape(3, 4)
    p = Tensor(base.T, requires_grad=True)  # F-ordered view
    ref = base.T.copy()
    state = trainer.adam_init([p])
    g = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    trainer.adam_step([p], [g], state, lr=0.1)
    _plain_adam(ref, g, np.zeros_like(ref), np.zeros_like(ref), 1, 0.1)
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
