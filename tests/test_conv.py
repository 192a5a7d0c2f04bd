import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from duoformer.conv import batch_norm, conv2d, max_pool2d
from duoformer.errors import ContractError, DimensionError, NumericError
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
    for stride, padding in [(1, 0), (2, 1), (1, 1), (2, 0)]:
        out = conv2d(Tensor(nhwc(x)), Tensor(w), stride=stride, padding=padding)
        ref = nhwc(oracles.conv2d_loops(x, w, np.zeros(3), stride=stride, padding=padding))
        npt.assert_allclose(out.data, ref, atol=1e-12, rtol=0)


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


def test_conv_grads_match_finite_diff():
    rng = np.random.default_rng(2)
    x0 = nhwc(rng.standard_normal((2, 2, 5, 5)))
    w0 = rng.standard_normal((3, 2, 3, 3))
    xt, wt = Tensor(x0), Tensor(w0)

    fn_x = lambda t: conv2d(t, wt, stride=2, padding=1).sum()
    fn_w = lambda t: conv2d(xt, t, stride=2, padding=1).sum()
    for fn, v0 in [(fn_x, x0), (fn_w, w0)]:
        npt.assert_allclose(ag(fn, v0), fd(fn, v0), atol=1e-6)


def test_conv_grad_weighted_output():
    # non-uniform downstream gradient exercises the scatter path properly
    rng = np.random.default_rng(3)
    x0 = nhwc(rng.standard_normal((1, 2, 6, 6)))
    w = Tensor(rng.standard_normal((2, 2, 3, 3)))
    g = Tensor(nhwc(rng.standard_normal((1, 2, 3, 3))))
    fn = lambda t: (conv2d(t, w, stride=2, padding=1) * g).sum()
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
    max_pool2d(x, k=2).sum().backward()
    npt.assert_array_equal(x.grad, [[[[1.0], [0.0]], [[0.0], [0.0]]]])


def test_pool_grad_matches_finite_diff():
    rng = np.random.default_rng(5)
    x0 = rng.permutation(64).astype(np.float64).reshape(1, 8, 8, 1)  # distinct values
    g = Tensor(rng.standard_normal((1, 4, 4, 1)))
    fn = lambda t: (max_pool2d(t, k=2) * g).sum()
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
            return (batch_norm(vals[0], vals[1], vals[2], rm, rv, mode="train") * gw).sum()
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
    fn = lambda t: batch_norm(t, gamma, beta, rm, rv, mode="eval").sum()
    npt.assert_allclose(ag(fn, x0), fd(fn, x0), atol=1e-6)
