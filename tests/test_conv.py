import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from duoformer import tensor as T
from duoformer.conv import _wmat, batch_norm, channel_last, conv2d, conv_bn_relu, max_pool2d
from duoformer.errors import ContractError, DimensionError, NumericError
from duoformer.gradcheck import grad_check_report
from duoformer.layers import BatchNorm2d, Conv2d, conv_bn_relu_unit
from duoformer.rng import SeedStream
from duoformer.tensor import Tensor


def nhwc(a):
    """The NCHW oracles' arrays in the ops' channel-last layout."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def fd(fn, x0, h=1e-5):
    return oracles.finite_diff(lambda a: float(fn(Tensor(a)).data), x0.astype(np.float64), h=h)


def ag(fn, x0):
    x = Tensor(x0.astype(np.float64), requires_grad=True)
    fn(x).backward()
    return x.grad


# ---- conv2d -----------------------------------------------------------------


def test_conv_1x1_identity_kernel():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 4, 4, 1))
    w = np.ones((1, 1, 1, 1))
    out = conv2d(Tensor(x), Tensor(w))
    npt.assert_array_equal(out.data, x)


def test_conv_allones_kernel_constant_input():
    c = 3.5
    x = np.full((1, 5, 5, 1), c)
    w = np.ones((1, 1, 3, 3))
    out = conv2d(Tensor(x), Tensor(w))
    assert out.shape == (1, 3, 3, 1)
    npt.assert_allclose(out.data, 9 * c, atol=1e-12)


def test_conv_matches_six_loop_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    for wdata in (w, channel_last(w, np.float64)):  # C order, or as Conv2d keeps it
        for stride, padding in [(1, 0), (2, 1), (1, 1), (2, 0)]:
            out = conv2d(Tensor(nhwc(x)), Tensor(wdata), stride=stride, padding=padding)
            ref = nhwc(oracles.conv2d_loops(x, w, np.zeros(3), stride=stride, padding=padding))
            npt.assert_allclose(out.data, ref, atol=1e-12, rtol=0)


@pytest.mark.parametrize("o", [3, 8, 40], ids=["rows-gt-O", "rows-eq-O", "rows-lt-O"])
def test_conv_matches_six_loop_oracle_at_any_row_count(o):
    # 8 GEMM rows at stride 2 against 3, 8 or 40 output channels: one K order serves
    # all three, with the weight in C order or channel-last as Conv2d keeps it
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 2, 5, 5))
    w = rng.standard_normal((o, 2, 3, 3))
    ref = nhwc(oracles.conv2d_loops(x, w, stride=2))
    dx = fd(lambda t: T.tensor_sum(conv2d(t, Tensor(w), stride=2)), nhwc(x))
    dw = fd(lambda t: T.tensor_sum(conv2d(Tensor(nhwc(x)), t, stride=2)), w)
    for wdata in (w, channel_last(w, np.float64)):
        xt, wt = Tensor(nhwc(x), requires_grad=True), Tensor(wdata, requires_grad=True)
        out = conv2d(xt, wt, stride=2)
        npt.assert_allclose(out.data, ref, atol=1e-12, rtol=0)
        T.tensor_sum(out).backward()
        npt.assert_allclose(xt.grad, dx, atol=1e-6)
        npt.assert_allclose(wt.grad, dw, atol=1e-6)


def test_conv_output_extent_formula():
    x = Tensor(np.zeros((1, 11, 7, 1)))
    w = Tensor(np.zeros((1, 1, 3, 3)))
    out = conv2d(x, w, stride=2, padding=1)
    assert out.shape == (1, (11 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1, 1)


def test_conv_kernel_too_large():
    with pytest.raises(DimensionError):
        conv2d(Tensor(np.zeros((1, 2, 2, 1))), Tensor(np.zeros((1, 1, 3, 3))))


def test_conv_channel_mismatch():
    with pytest.raises(DimensionError):
        conv2d(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.zeros((1, 3, 3, 3))))


def test_conv_grads_match_finite_diff(k=3, padding=1):
    rng = np.random.default_rng(2)
    x0 = nhwc(rng.standard_normal((2, 2, 5, 5)))
    w0 = rng.standard_normal((3, 2, k, k))
    xt, wt = Tensor(x0), Tensor(w0)

    fn_x = lambda t: T.tensor_sum(conv2d(t, wt, stride=2, padding=padding))
    fn_w = lambda t: T.tensor_sum(conv2d(xt, t, stride=2, padding=padding))
    for fn, v0 in [(fn_x, x0), (fn_w, w0)]:
        npt.assert_allclose(ag(fn, v0), fd(fn, v0), atol=1e-6)


def test_conv_grads_match_finite_diff_where_no_window_reaches_the_last_column():
    test_conv_grads_match_finite_diff(k=2, padding=0)


def test_conv_grad_weighted_output():
    # non-uniform downstream gradient exercises the scatter path properly
    rng = np.random.default_rng(3)
    x0 = nhwc(rng.standard_normal((1, 2, 6, 6)))
    w = Tensor(rng.standard_normal((2, 2, 3, 3)))
    g = Tensor(nhwc(rng.standard_normal((1, 2, 3, 3))))
    fn = lambda t: T.tensor_sum(T.mul(conv2d(t, w, stride=2, padding=1), g))
    npt.assert_allclose(ag(fn, x0), fd(fn, x0), atol=1e-6)


# ---- max_pool2d -------------------------------------------------------------


def test_pool_max_of_window():
    out = max_pool2d(Tensor(np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])), k=2)
    npt.assert_array_equal(out.data, [[[[4.0]]]])


def test_pool_constant_input():
    out = max_pool2d(Tensor(np.full((1, 4, 4, 2), 7.0)), k=2)
    npt.assert_array_equal(out.data, np.full((1, 2, 2, 2), 7.0))


def test_pool_matches_window_scan_oracle():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 8, 8))
    out = max_pool2d(Tensor(nhwc(x)), k=2)
    npt.assert_array_equal(out.data, nhwc(oracles.maxpool_loops(x, 2)))


@settings(deadline=None)
@given(arrays(np.float64, (1, 2, 4, 4), elements=st.floats(-100, 100)), st.sampled_from([2, 4]))
def test_pool_each_cell_is_window_max(x, k):
    out = max_pool2d(Tensor(nhwc(x)), k=k)
    npt.assert_array_equal(out.data, nhwc(oracles.maxpool_loops(x, k)))


def test_pool_indivisible_extent():
    with pytest.raises(DimensionError):
        max_pool2d(Tensor(np.zeros((1, 5, 5, 1))), k=2)


def test_pool_tie_routes_to_first_occurrence():
    x = Tensor(np.full((1, 2, 2, 1), 5.0), requires_grad=True)
    T.tensor_sum(max_pool2d(x, k=2)).backward()
    npt.assert_array_equal(x.grad, [[[[1.0], [0.0]], [[0.0], [0.0]]]])


def test_pool_grad_matches_finite_diff():
    rng = np.random.default_rng(5)
    x0 = rng.permutation(64).astype(np.float64).reshape(1, 8, 8, 1)  # distinct values
    g = Tensor(rng.standard_normal((1, 4, 4, 1)))
    fn = lambda t: T.tensor_sum(T.mul(max_pool2d(t, k=2), g))
    npt.assert_allclose(ag(fn, x0), fd(fn, x0), atol=1e-6)


# ---- batch_norm -------------------------------------------------------------


def _bn_state(c, dtype=np.float64):
    return np.zeros(c, dtype), np.ones(c, dtype)


def test_bn_eval_identity_stats():
    rng = np.random.default_rng(6)
    x = nhwc(rng.standard_normal((2, 3, 4, 4)))
    rm, rv = _bn_state(3)
    out = batch_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, mode="eval")
    npt.assert_allclose(out.data, x, rtol=1e-4, atol=1e-7)  # off only by the eps in 1/sqrt(1+eps)


def test_bn_train_unit_variance_batch():
    # per channel the batch holds {-1, +1}: already normalized
    x = np.zeros((2, 1, 1, 2))
    x[0, 0, 0, :] = -1.0
    x[1, 0, 0, :] = 1.0
    rm, rv = _bn_state(2)
    out = batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, mode="train")
    npt.assert_allclose(out.data, x, atol=1e-4)


def test_bn_train_matches_direct_formula():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((3, 4, 2, 2)) * 2 + 1
    gamma = rng.standard_normal(4)
    beta = rng.standard_normal(4)
    rm, rv = _bn_state(4)
    out = batch_norm(Tensor(nhwc(x)), Tensor(gamma), Tensor(beta), rm, rv, mode="train")
    ref = np.zeros_like(x)
    for c in range(4):
        vals = x[:, c]
        mu = vals.mean()
        var = ((vals - mu) ** 2).mean()
        ref[:, c] = (vals - mu) / np.sqrt(var + 1e-5) * gamma[c] + beta[c]
    npt.assert_allclose(out.data, nhwc(ref), atol=1e-10, rtol=0)


def test_bn_train_rejects_batch_of_one():
    rm, rv = _bn_state(2)
    with pytest.raises(NumericError):
        batch_norm(Tensor(np.zeros((1, 4, 4, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                   rm, rv, mode="train")


def test_bn_bad_mode():
    rm, rv = _bn_state(2)
    with pytest.raises(ContractError):
        batch_norm(Tensor(np.zeros((2, 4, 4, 2))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                   rm, rv, mode="test")


def test_bn_running_stats_momentum_update():
    rng = np.random.default_rng(8)
    x = nhwc(rng.standard_normal((4, 2, 3, 3)) * 3 + 5)
    rm, rv = _bn_state(2)
    batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, mode="train")
    n = 4 * 3 * 3
    mu = x.mean(axis=(0, 1, 2))
    var_unbiased = x.var(axis=(0, 1, 2)) * n / (n - 1)
    npt.assert_allclose(rm, 0.9 * 0 + 0.1 * mu, atol=1e-12)
    npt.assert_allclose(rv, 0.9 * 1 + 0.1 * var_unbiased, atol=1e-12)


def test_bn_eval_does_not_mutate_stats():
    rng = np.random.default_rng(9)
    x = nhwc(rng.standard_normal((2, 2, 3, 3)))
    rm, rv = _bn_state(2)
    rm0, rv0 = rm.copy(), rv.copy()
    batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, mode="eval")
    npt.assert_array_equal(rm, rm0)
    npt.assert_array_equal(rv, rv0)


def test_bn_train_grads_match_finite_diff():
    rng = np.random.default_rng(10)
    x0 = nhwc(rng.standard_normal((3, 2, 2, 2)))
    g0 = rng.standard_normal(2)
    b0 = rng.standard_normal(2)
    gw = Tensor(nhwc(rng.standard_normal((3, 2, 2, 2))))

    def make(pick):
        def fn(p):
            vals = [Tensor(x0), Tensor(g0), Tensor(b0)]
            vals[pick] = p
            rm, rv = _bn_state(2)
            out = batch_norm(vals[0], vals[1], vals[2], rm, rv, mode="train")
            return T.tensor_sum(T.mul(out, gw))
        return fn

    for pick, v0 in [(0, x0), (1, g0), (2, b0)]:
        fn = make(pick)
        npt.assert_allclose(ag(fn, v0), fd(fn, v0), atol=1e-5)


def test_bn_eval_grad_matches_finite_diff():
    rng = np.random.default_rng(11)
    x0 = nhwc(rng.standard_normal((2, 2, 3, 3)))
    rm = rng.standard_normal(2)
    rv = rng.random(2) + 0.5
    gamma, beta = Tensor(np.full(2, 1.3)), Tensor(np.full(2, -0.2))
    fn = lambda t: T.tensor_sum(batch_norm(t, gamma, beta, rm, rv, mode="eval"))
    npt.assert_allclose(ag(fn, x0), fd(fn, x0), atol=1e-6)


# ---- conv_bn_relu -----------------------------------------------------------

# (kernel, stride, padding); a [3, 8, 8, 5] input gives 192 or 48 GEMM rows,
# so 7 output channels give n > O and 500 give n < O; the ids K-hwc and K-chw
# stand for those two cases.
UNITS = [(3, 1, 1), (3, 2, 1), (1, 1, 0)]
WIDTHS = [7, 500]


def _unit(o, k, dtype=np.float64, seed=13, shape=(3, 8, 8, 5)):
    """Input, weight, gamma, beta, running mean and var, and an output weighting."""
    rng = np.random.default_rng(seed)
    arrays = (rng.standard_normal(shape), rng.standard_normal((o, shape[3], k, k)),
              rng.standard_normal(o), rng.standard_normal(o))
    rm, rv = rng.standard_normal(o), rng.random(o) + 0.5
    return [a.astype(dtype) for a in arrays] + [rm, rv]


def _run(op, arrays, stride, padding, mode, grad=True):
    """Output, both running statistics after the call, and the four gradients."""
    x, w, gamma, beta = (Tensor(a, requires_grad=grad) for a in arrays[:4])
    rm, rv = arrays[4].copy(), arrays[5].copy()
    out = op(x, w, gamma, beta, rm, rv, stride, padding, mode)
    if grad:
        g = np.random.default_rng(14).standard_normal(out.shape).astype(out.data.dtype)
        T.tensor_sum(T.mul(out, Tensor(g))).backward()
    return [out.data, rm, rv] + [t.grad for t in (x, w, gamma, beta) if grad]


def _composed(x, w, gamma, beta, rm, rv, stride, padding, mode):
    return T.relu(batch_norm(conv2d(x, w, stride, padding), gamma, beta, rm, rv, mode))


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("o", WIDTHS, ids=["K-hwc", "K-chw"])
@pytest.mark.parametrize("k,stride,padding", UNITS, ids=["3x3s1", "3x3s2", "1x1"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_conv_bn_relu_matches_composed_ops(mode, k, stride, padding, o):
    arrays = _unit(o, k)
    fused = _run(conv_bn_relu, arrays, stride, padding, mode)
    ref = _run(_composed, arrays, stride, padding, mode)
    for name, a, b in zip(["out", "running_mean", "running_var", "dx", "dw", "dgamma", "dbeta"],
                          fused, ref):
        assert a.shape == b.shape, name
        assert _rel(a, b) <= 1e-12, name
    with T.no_grad():  # the in-place path that keeps no x-hat
        lean = _run(conv_bn_relu, arrays, stride, padding, mode, grad=False)
    for name, a, b in zip(["out", "running_mean", "running_var"], lean, ref):
        assert _rel(a, b) <= 1e-12, name


@pytest.mark.parametrize("o", [4, 40], ids=["K-hwc", "K-chw"])  # against 18 GEMM rows
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_conv_bn_relu_gradcheck_f64(mode, o):
    x, w, gamma, beta, rm, rv = _unit(o, 3, shape=(2, 5, 5, 3), seed=15)
    params = {name: Tensor(a, requires_grad=True)
              for name, a in zip(("x", "w", "gamma", "beta"), (x, w, gamma, beta))}
    g = Tensor(np.random.default_rng(16).standard_normal((2, 3, 3, o)))

    def f(ps):
        return T.tensor_sum(T.mul(conv_bn_relu(*ps.values(), rm.copy(), rv.copy(), 2, 1, mode), g))

    assert max(grad_check_report(f, params).values()) < 1e-4


@pytest.mark.parametrize("o", WIDTHS, ids=["K-hwc", "K-chw"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_conv_bn_relu_f32_agrees_with_f64(mode, o):
    f64 = _run(conv_bn_relu, _unit(o, 3), 2, 1, mode)
    f32 = _run(conv_bn_relu, _unit(o, 3, dtype=np.float32), 2, 1, mode)
    assert [a.dtype for a in f32] == [np.float32] + [np.float64] * 2 + [np.float32] * 4
    for a, b in zip(f32, f64):
        assert _rel(a.astype(np.float64), b) <= 1e-5


def test_conv_bn_relu_train_rejects_batch_of_one():
    x, w, gamma, beta, rm, rv = _unit(4, 3, shape=(1, 4, 4, 2))
    with pytest.raises(NumericError):
        conv_bn_relu(Tensor(x), Tensor(w), Tensor(gamma), Tensor(beta), rm, rv, 1, 1, "train")


def test_conv_bn_relu_bad_mode():
    x, w, gamma, beta, rm, rv = _unit(4, 3, shape=(2, 4, 4, 2))
    with pytest.raises(ContractError):
        conv_bn_relu(Tensor(x), Tensor(w), Tensor(gamma), Tensor(beta), rm, rv, 1, 1, "test")


# ---- weight layout ------------------------------------------------------------------


def _conv_unit(o, k, dtype):
    rng = SeedStream(17).child("unit").generator()
    return (Conv2d(5, o, k, rng, stride=2, padding=k // 2).to_dtype(dtype),
            BatchNorm2d(o).to_dtype(dtype))


@pytest.mark.parametrize("k", [3, 1], ids=["3x3", "1x1"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cast_conv_weight_is_channel_last(dtype, k):
    """The cast lays the weight out in the lowering's K order, so its [O, K]
    matrix is a view; the values are the f64 draws cast, in the same shape."""
    draws = Conv2d(5, 7, k, SeedStream(17).child("unit").generator()).w.data
    w = _conv_unit(7, k, dtype)[0].w.data
    assert w.shape == draws.shape and w.dtype == dtype
    assert np.array_equal(w, draws.astype(dtype))
    assert np.shares_memory(_wmat(w), w)


@pytest.mark.parametrize("o", [4, 400], ids=["rows-gt-O", "rows-lt-O"])  # 48 GEMM rows
@pytest.mark.parametrize("k", [3, 1], ids=["3x3", "1x1"])
@pytest.mark.parametrize("fused", [True, False], ids=["conv_bn_relu", "conv2d"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv_weight_gradient_is_kept_without_a_copy(monkeypatch, dtype, fused, k, o):
    """The weight gradient GEMM lands in the weight's own layout, so `_accum`
    keeps it as given: no weight-sized copy per backward. (An f64 1x1 weight
    keeps its C-order strides, which differ from the gradient's on size-1 axes.)"""
    conv, bn = _conv_unit(o, k, dtype)
    kept = []
    real = Tensor._accum

    def accum(t, g):
        first = t.grad is None
        real(t, g)
        if t is conv.w and first:
            kept.append(t.grad is g)

    monkeypatch.setattr(Tensor, "_accum", accum)
    x = Tensor(np.random.default_rng(18).standard_normal((3, 8, 8, 5)).astype(dtype))
    out = (conv_bn_relu_unit(conv, bn, x) if fused
           else conv2d(x, conv.w, stride=conv.stride, padding=conv.padding))
    T.tensor_sum(T.mul(out, out)).backward()
    assert kept == [True]
