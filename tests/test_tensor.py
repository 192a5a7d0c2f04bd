import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from duoformer import tensor as T
from duoformer.errors import ContractError, DimensionError
from duoformer.tensor import Tensor


def autograd_grad(fn, x0):
    x = Tensor(x0.astype(np.float64), requires_grad=True)
    fn(x).backward()
    return x.grad


def fd_grad(fn, x0, h=1e-5):
    return oracles.finite_diff(lambda a: float(fn(Tensor(a)).data), x0.astype(np.float64), h=h)


# ---- matmul ----------------------------------------------------------------


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(Tensor(np.eye(2)), Tensor(a))
    npt.assert_array_equal(out.data, a)


def test_matmul_selector_row():
    sel = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    out = T.matmul(Tensor(sel), Tensor(b))
    npt.assert_array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    out = T.matmul(Tensor(a), Tensor(b))
    npt.assert_allclose(out.data, oracles.matmul_loops(a, b), atol=1e-12, rtol=0)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_grad_matches_finite_diff():
    rng = np.random.default_rng(1)
    a0 = rng.standard_normal((3, 4))
    b = Tensor(rng.standard_normal((4, 2)))
    fn = lambda x: T.matmul(x, b).sum()
    npt.assert_allclose(autograd_grad(fn, a0), fd_grad(fn, a0), atol=1e-6)


def test_matmul_batched_broadcast_grad():
    rng = np.random.default_rng(2)
    a = Tensor(rng.standard_normal((5, 3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    T.matmul(a, b).sum().backward()
    assert a.grad.shape == a.shape and b.grad.shape == b.shape
    b0 = b.data.copy()
    fn = lambda x: T.matmul(a.detach(), x).sum()
    npt.assert_allclose(b.grad, fd_grad(fn, b0), atol=1e-6)


# ---- softmax ----------------------------------------------------------------


def test_softmax_symmetry():
    npt.assert_allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-12)


def test_softmax_closed_form():
    out = T.softmax(Tensor([np.log(2.0), 0.0]))
    npt.assert_allclose(out.data, [2 / 3, 1 / 3], atol=1e-12)


def test_softmax_shift_invariance_no_overflow():
    out = T.softmax(Tensor([1000.0, 1000.0]))
    assert np.isfinite(out.data).all()
    npt.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)


def test_softmax_bad_axis():
    with pytest.raises(DimensionError):
        T.softmax(Tensor(np.zeros((2, 3))), axis=5)


@settings(deadline=None)
@given(arrays(np.float64, (4, 7), elements=st.floats(-1e4, 1e4)))
def test_softmax_rows_sum_to_one(x):
    # entries underflow to exact 0 once the max-gap exceeds ~745, so >= here
    s = T.softmax(Tensor(x), axis=-1).data
    assert ((s >= 0) & (s <= 1 + 1e-12)).all()
    npt.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-12)
    npt.assert_allclose(s, oracles.softmax_rows(x), atol=1e-12)


@settings(deadline=None)
@given(arrays(np.float64, (3, 5), elements=st.floats(-50, 50)))
def test_softmax_strictly_positive_moderate_range(x):
    s = T.softmax(Tensor(x), axis=-1).data
    assert ((s > 0) & (s < 1 + 1e-12)).all()


def test_softmax_f32_rows_sum_within_1e6():
    rng = np.random.default_rng(3)
    x = (rng.standard_normal((8, 16)) * 1e4).astype(np.float32)
    s = T.softmax(Tensor(x), axis=-1).data
    npt.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_grad_matches_finite_diff():
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((3, 5))
    w = rng.standard_normal((3, 5))
    fn = lambda x: (T.softmax(x, axis=-1) * Tensor(w)).sum()
    npt.assert_allclose(autograd_grad(fn, x0), fd_grad(fn, x0), atol=1e-6)


# ---- layer_norm -------------------------------------------------------------


def _ln_params(d):
    return Tensor(np.ones(d)), Tensor(np.zeros(d))


def test_layer_norm_already_normalized():
    g, b = _ln_params(2)
    out = T.layer_norm(Tensor([[1.0, -1.0]]), g, b)
    npt.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)


def test_layer_norm_constant_input():
    g, b = _ln_params(2)
    out = T.layer_norm(Tensor([[5.0, 5.0]]), g, b)
    npt.assert_allclose(out.data, [[0.0, 0.0]], atol=1e-2)


def test_layer_norm_matches_hand_formula():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 8))
    gamma = rng.standard_normal(8)
    beta = rng.standard_normal(8)
    out = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
    npt.assert_allclose(out.data, oracles.layer_norm_rows(x, gamma, beta), atol=1e-10, rtol=0)


def test_layer_norm_normalizes_before_affine():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((4, 3, 16)) * 7 + 3
    g, b = _ln_params(16)
    out = T.layer_norm(Tensor(x), g, b).data
    npt.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    npt.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)


def test_layer_norm_param_shape_error():
    with pytest.raises(DimensionError):
        T.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_layer_norm_grad_all_three_inputs():
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((2, 6))
    g0 = rng.standard_normal(6)
    b0 = rng.standard_normal(6)
    w = rng.standard_normal((2, 6))

    for pick in range(3):
        vals = [x0, g0, b0]

        def fn(p, pick=pick):
            args = [Tensor(v) for v in vals]
            args[pick] = p
            return (T.layer_norm(*args) * Tensor(w)).sum()

        npt.assert_allclose(autograd_grad(fn, vals[pick]), fd_grad(fn, vals[pick]), atol=1e-6)


# ---- backward machinery -----------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    x.sum().backward()
    npt.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    (x * x).sum().backward()
    npt.assert_allclose(x.grad, [2.0, 4.0, 6.0], atol=1e-12)


def test_backward_accumulates_across_calls():
    x = Tensor([1.0, 2.0], requires_grad=True)
    x.sum().backward()
    x.sum().backward()
    npt.assert_array_equal(x.grad, [2.0, 2.0])


def test_second_backward_through_a_consumed_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = (x * x).sum()
    loss.backward()
    with pytest.raises(ContractError, match="run the forward again"):
        loss.backward()
    npt.assert_array_equal(x.grad, [2.0, 4.0])


def test_loss_sharing_a_consumed_subgraph_raises_before_any_gradient_moves():
    x = Tensor([1.0, 2.0], requires_grad=True)
    w = Tensor([3.0, 5.0], requires_grad=True)
    y = x * x
    y.sum().backward()
    with pytest.raises(ContractError, match="run the forward again"):
        ((y * w).sum() + w.sum()).backward()
    npt.assert_array_equal(x.grad, [2.0, 4.0])
    assert w.grad is None


def test_backward_accumulates_on_reuse():
    x = Tensor([3.0], requires_grad=True)
    y = (x * x) + (x * 2.0)  # dy/dx = 2x + 2 = 8
    y.sum().backward()
    npt.assert_allclose(x.grad, [8.0], atol=1e-12)


def test_backward_rejects_nonscalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        (x * x).backward()


def test_broadcast_add_grad_sums():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    (a + b).sum().backward()
    npt.assert_array_equal(a.grad, np.ones((3, 4)))
    npt.assert_array_equal(b.grad, 3 * np.ones(4))


def test_dtype_mismatch_rejected():
    with pytest.raises(ContractError):
        Tensor(np.zeros(2, np.float32)) + Tensor(np.zeros(2, np.float64))


# ---- shape ops ---------------------------------------------------------------


@settings(deadline=None)
@given(arrays(np.float64, (2, 3, 4), elements=st.floats(-10, 10)))
def test_reshape_roundtrip_identity(x):
    t = Tensor(x)
    npt.assert_array_equal(t.reshape(4, 6).reshape(2, 3, 4).data, x)


@settings(deadline=None)
@given(arrays(np.float64, (2, 3, 4), elements=st.floats(-10, 10)),
       st.permutations([0, 1, 2]))
def test_transpose_inverse_identity(x, perm):
    perm = tuple(perm)
    inv = tuple(np.argsort(perm))
    npt.assert_array_equal(Tensor(x).transpose(perm).transpose(inv).data, x)


def test_reshape_grad():
    x0 = np.arange(6.0)
    fn = lambda x: (x.reshape(2, 3) * Tensor(np.arange(6.0).reshape(2, 3))).sum()
    npt.assert_allclose(autograd_grad(fn, x0), np.arange(6.0), atol=1e-12)


def test_transpose_grad_matches_finite_diff():
    rng = np.random.default_rng(8)
    x0 = rng.standard_normal((2, 3, 4))
    w = Tensor(rng.standard_normal((4, 2, 3)))
    fn = lambda x: (x.transpose((2, 0, 1)) * w).sum()
    npt.assert_allclose(autograd_grad(fn, x0), fd_grad(fn, x0), atol=1e-6)


def test_concat_forward_and_grad():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(2 * np.ones((2, 3)), requires_grad=True)
    out = T.concat([a, b], axis=1)
    assert out.shape == (2, 5)
    npt.assert_array_equal(out.data[:, :2], 1.0)
    npt.assert_array_equal(out.data[:, 2:], 2.0)
    (out * Tensor(np.arange(10.0).reshape(2, 5))).sum().backward()
    npt.assert_array_equal(a.grad, [[0, 1], [5, 6]])
    npt.assert_array_equal(b.grad, [[2, 3, 4], [7, 8, 9]])


def test_index_slice_forward_and_grad():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = x[1:, ::2]
    npt.assert_array_equal(out.data, [[4, 6], [8, 10]])
    out.sum().backward()
    expect = np.zeros((3, 4))
    expect[1:, ::2] = 1
    npt.assert_array_equal(x.grad, expect)


def test_broadcast_to_grad():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    T.broadcast_to(x, (3, 2)).sum().backward()
    npt.assert_array_equal(x.grad, [3.0, 3.0])


# ---- reductions ----------------------------------------------------------------


def test_mean_forward_and_grad():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    m = x.mean()
    npt.assert_allclose(m.data, 2.5)
    m.backward()
    npt.assert_allclose(x.grad, np.full((2, 3), 1 / 6))


def test_mean_axis_grad_matches_finite_diff():
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal((3, 4))
    w = Tensor(rng.standard_normal(4))
    fn = lambda x: (x.mean(axis=0) * w).sum()
    npt.assert_allclose(autograd_grad(fn, x0), fd_grad(fn, x0), atol=1e-6)


def test_sum_axis_keepdims():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    out = x.sum(axis=1, keepdims=True)
    assert out.shape == (2, 1)
    out.sum().backward()
    npt.assert_array_equal(x.grad, np.ones((2, 3)))


# ---- activations -----------------------------------------------------------------


def test_relu_values():
    out = T.relu(Tensor([-2.0, 0.0, 3.0]))
    npt.assert_array_equal(out.data, [0.0, 0.0, 3.0])


def test_relu_grad_gate():
    x = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
    T.relu(x).sum().backward()
    npt.assert_array_equal(x.grad, [0.0, 1.0, 1.0])


def test_relu_grad_matches_finite_diff():
    rng = np.random.default_rng(10)
    x0 = rng.standard_normal(20) + 0.05  # keep away from the kink
    fn = lambda x: T.relu(x).sum()
    npt.assert_allclose(autograd_grad(fn, x0), fd_grad(fn, x0), atol=1e-6)


def test_gelu_fixed_points():
    out = T.gelu(Tensor([0.0]))
    npt.assert_allclose(out.data, [0.0], atol=1e-12)
    # large positive ~ identity, large negative ~ 0
    out = T.gelu(Tensor([10.0, -10.0]))
    npt.assert_allclose(out.data, [10.0, 0.0], atol=1e-4)


def test_gelu_grad_matches_finite_diff():
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(20)
    fn = lambda x: T.gelu(x).sum()
    npt.assert_allclose(autograd_grad(fn, x0), fd_grad(fn, x0), atol=1e-6)


# ---- matmul with bias (an affine map) -------------------------------------------------


def test_linear_identity_weight():
    x = np.array([[1.0, 2.0]])
    out = T.matmul(Tensor(x), Tensor(np.eye(2)), bias=Tensor(np.zeros(2)))
    npt.assert_array_equal(out.data, x)


def test_linear_bias_broadcasts():
    out = T.matmul(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 4))),
                   bias=Tensor(np.arange(4.0)))
    npt.assert_array_equal(out.data, np.tile(np.arange(4.0), (3, 1)))


def test_linear_grad_matches_finite_diff():
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((3, 4)))
    w0 = rng.standard_normal((4, 2))
    b = Tensor(rng.standard_normal(2))
    fn = lambda w: T.matmul(x, w, bias=b).sum()
    npt.assert_allclose(autograd_grad(fn, w0), fd_grad(fn, w0), atol=1e-6)


# ---- cross entropy -------------------------------------------------------------------


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((4, 3)))
    loss = T.cross_entropy(logits, np.array([0, 1, 2, 0]))
    npt.assert_allclose(loss.data, np.log(3.0), atol=1e-12)


def test_cross_entropy_confident_correct():
    logits = np.full((2, 3), -50.0)
    logits[0, 1] = 50.0
    logits[1, 2] = 50.0
    loss = T.cross_entropy(Tensor(logits), np.array([1, 2]))
    npt.assert_allclose(loss.data, 0.0, atol=1e-12)


def test_cross_entropy_stable_at_large_logits():
    logits = Tensor(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
    loss = T.cross_entropy(logits, np.array([0, 1]))
    assert np.isfinite(loss.data)
    npt.assert_allclose(loss.data, 0.0, atol=1e-12)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ContractError):
        T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_cross_entropy_grad_matches_finite_diff():
    rng = np.random.default_rng(13)
    x0 = rng.standard_normal((5, 4))
    labels = np.array([0, 1, 2, 3, 1])
    fn = lambda x: T.cross_entropy(x, labels)
    npt.assert_allclose(autograd_grad(fn, x0), fd_grad(fn, x0), atol=1e-6)


# ---- misc ------------------------------------------------------------------------------


def test_grad_shape_matches_data_shape():
    x = Tensor(np.zeros((2, 5)), requires_grad=True)
    (x * x).sum().backward()
    assert x.grad.shape == x.data.shape and x.grad.dtype == x.data.dtype
