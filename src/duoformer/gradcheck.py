"""Finite-difference verification of the backward pass.

`grad_check_report` compares analytic gradients against central differences
on f64 parameters and returns, per parameter, the worst relative error

    |analytic - numeric| / max(|analytic|, |numeric|, 1e-6),

maximized over sampled coordinates. The 1e-6 denominator floor matches the
noise in the numerator: a central difference of an O(1) loss at h=1e-5
carries ~1e-11 of roundoff, so below 1e-6 a relative comparison measures
noise, not correctness — while a genuinely dropped term of that size still
trips the 1e-4 tolerance through the floored ratio. Functions under test may
mutate batch-norm running statistics between calls; train-mode forwards do
not read them, so the comparison stays valid.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, NumericError
from .tensor import Tensor


def _coords(param: Tensor, sample, rng) -> np.ndarray:
    size = param.size
    if sample is None or size <= sample:
        return np.arange(size)
    return np.sort(rng.choice(size, size=sample, replace=False))


def _eval_scalar(f, params) -> float:
    out = f(params)
    val = float(out.data)
    if not np.isfinite(val):
        raise NumericError("non-finite value during finite-difference evaluation")
    return val


def grad_check_report(f, named_params: "dict[str, Tensor]", h: float = 1e-5,
                      sample: "int | None" = None, rng=None) -> "dict[str, float]":
    """Per-parameter max relative error of analytic vs. central-difference grads.

    f maps the live parameter dict to a scalar Tensor. h must lie in
    [1e-6, 1e-4]; all parameters must be f64 with requires_grad set.
    """
    if not (1e-6 <= h <= 1e-4):
        raise ContractError(f"h must lie in [1e-6, 1e-4], got {h}")
    if sample is not None and sample < 1:
        raise ContractError(f"sample must be >= 1 coordinate per parameter, got {sample}")
    for name, p in named_params.items():
        if p.data.dtype != np.float64:
            raise ContractError(f"grad_check requires f64 parameters; {name} is {p.data.dtype.name}")
        if not p.requires_grad:
            raise ContractError(f"parameter {name} does not require grad")
    if rng is None:
        rng = np.random.default_rng(0)

    params = dict(named_params)
    for p in params.values():
        p.zero_grad()
    loss = f(params)
    if not np.isfinite(loss.data).all():
        raise NumericError("non-finite loss in grad_check forward")
    loss.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in params.items()}

    report: "dict[str, float]" = {}
    for name, p in params.items():
        aflat = analytic[name].reshape(-1)
        worst = 0.0
        for i in _coords(p, sample, rng):
            at = np.unravel_index(i, p.shape)  # into p.data itself, whatever its strides
            orig = p.data[at]
            p.data[at] = orig + h
            fp = _eval_scalar(f, params)
            p.data[at] = orig - h
            fm = _eval_scalar(f, params)
            p.data[at] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = aflat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            worst = max(worst, rel)
        report[name] = worst
    for p in params.values():
        p.zero_grad()
    return report

