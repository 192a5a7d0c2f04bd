import numpy as np
import pytest

from duoformer import tensor as T
from duoformer.errors import ContractError, NumericError
from duoformer.gradcheck import grad_check_report
from duoformer.tensor import Tensor


def _p(x):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)


def test_square_at_three_is_nearly_exact():
    x = _p([3.0])
    err = grad_check_report(lambda d: T.tensor_sum(T.mul(d["x"], d["x"])), {"x": x})["x"]
    assert err < 1e-9


def test_softmax_cross_entropy_under_1e6():
    rng = np.random.default_rng(0)
    logits = _p(rng.standard_normal((4, 7)))
    labels = np.array([0, 3, 6, 2])
    err = grad_check_report(lambda d: T.cross_entropy(d["logits"], labels),
                            {"logits": logits})["logits"]
    assert err < 1e-6


def test_composite_graph_under_1e4():
    rng = np.random.default_rng(1)
    w1 = _p(rng.standard_normal((5, 8)) * 0.3)
    b1 = _p(np.zeros(8))
    w2 = _p(rng.standard_normal((8, 3)) * 0.3)
    x = Tensor(rng.standard_normal((4, 5)))
    labels = np.array([0, 1, 2, 1])

    def f(d):
        h = T.gelu(T.matmul(x, d["w1"], bias=d["b1"]))
        return T.cross_entropy(T.matmul(h, d["w2"]), labels)

    assert max(grad_check_report(f, {"w1": w1, "b1": b1, "w2": w2}).values()) < 1e-4


def test_deliberately_wrong_backward_is_caught():
    # an op whose backward claims d/dx x^2 = 3x must fail the check
    from duoformer.tensor import _from_op

    def bad_square(a):
        def bw(g):
            a._accum(g * 3.0 * a.data)
        return _from_op(a.data ** 2, (a,), bw)

    x = _p([2.0])
    err = grad_check_report(lambda d: T.tensor_sum(bad_square(d["x"])), {"x": x})["x"]
    assert err > 1e-2


def test_report_names_parameters():
    x, y = _p([1.0]), _p([2.0])
    rep = grad_check_report(lambda d: T.tensor_sum(T.mul(d["x"], d["y"])), {"x": x, "y": y})
    assert set(rep) == {"x", "y"}
    assert max(rep.values()) < 1e-8


def test_sampling_limits_coordinate_count():
    rng = np.random.default_rng(2)
    x = _p(rng.standard_normal(1000))
    calls = {"n": 0}

    def f(d):
        calls["n"] += 1
        return T.tensor_sum(T.mul(d["x"], d["x"]))

    err = grad_check_report(f, {"x": x}, sample=5)["x"]
    assert err < 1e-7
    assert calls["n"] == 1 + 2 * 5  # one backward pass + two evals per coordinate


def test_h_out_of_range_rejected():
    x = _p([1.0])
    with pytest.raises(ContractError):
        grad_check_report(lambda d: T.tensor_sum(d["x"]), {"x": x}, h=1e-2)


@pytest.mark.parametrize("sample", [0, -1])
def test_sample_below_1_rejected(sample):
    """sample=0 would probe no coordinate and report a vacuous 0.0."""
    with pytest.raises(ContractError, match="sample"):
        grad_check_report(lambda d: T.tensor_sum(d["x"]), {"x": _p([1.0, 2.0])}, sample=sample)


def test_f32_params_rejected():
    x = Tensor(np.zeros(2, np.float32), requires_grad=True)
    with pytest.raises(ContractError):
        grad_check_report(lambda d: T.tensor_sum(d["x"]), {"x": x})


def test_nonfinite_forward_propagates():
    x = _p([0.0])

    def f(d):
        out = T.tensor_sum(d["x"])
        out.data = np.asarray(np.inf)
        return out

    with pytest.raises(NumericError):
        grad_check_report(f, {"x": x})


def test_restores_parameter_values():
    x = _p([1.0, 2.0, 3.0])
    before = x.data.copy()
    grad_check_report(lambda d: T.tensor_sum(T.mul(d["x"], d["x"])), {"x": x})
    np.testing.assert_array_equal(x.data, before)
    assert x.grad is None  # left clean for the caller


def test_non_contiguous_parameter_is_perturbed_in_place():
    # a transposed leaf: reshape(-1) of its data would copy, leaving the numeric gradient 0
    w = Tensor(np.random.default_rng(5).standard_normal((4, 3)).T, requires_grad=True)
    assert not w.data.flags.c_contiguous
    c = np.arange(12.0).reshape(3, 4)
    report = grad_check_report(lambda d: T.tensor_sum(T.mul(T.mul(d["w"], d["w"]), Tensor(c))),
                               {"w": w})
    assert report["w"] < 1e-8
    assert not w.data.flags.c_contiguous  # checked where it lives, not through a copy
