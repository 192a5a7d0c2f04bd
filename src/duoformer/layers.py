"""Parameter containers and basic trainable layers.

Module tracks parameters (Tensor attributes), submodules (Module
attributes), and non-trainable state (registered ndarrays, e.g. BN running
stats) by assignment order. Dotted names follow attribute paths, so
`encoder.layer0.scale.qkv.w` is the `w` of the `qkv` of the `scale` child
of `layer0` of `encoder`.

Layers build their parameters in f64, the precision of the initializers'
draws. `DuoFormer` casts each component to its configured dtype with
`to_dtype` as soon as it is built, so f32 parameters are the f64 ones
rounded.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import tensor as T
from .conv import batch_norm, conv2d, conv_bn_relu
from .errors import ContractError
from .rng import kaiming_uniform, trunc_normal
from .tensor import Tensor


class Module:
    def __init__(self):
        self._params = OrderedDict()
        self._children = OrderedDict()
        self._state = OrderedDict()
        self.training = True

    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_state(self, name, arr: np.ndarray):
        """Attach a non-trainable buffer that still rides along in checkpoints."""
        self._state[name] = arr
        setattr(self, name, arr)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ---- traversal ----------------------------------------------------------

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_state(self, prefix: str = ""):
        for name, arr in self._state.items():
            yield prefix + name, arr
        for cname, child in self._children.items():
            yield from child.named_state(prefix + cname + ".")

    def modules(self):
        yield self
        for child in self._children.values():
            yield from child.modules()

    # ---- mode / gradient management -------------------------------------------

    def train(self, mode: bool = True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def to_dtype(self, dtype):
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
            p.grad = None
        return self

    # ---- (de)serialization boundary ----------------------------------------------

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        out: "OrderedDict[str, np.ndarray]" = OrderedDict()
        for name, p in self.named_parameters():
            out[name] = p.data
        for name, arr in self.named_state():
            out[name] = arr
        return out

    def load_state_dict(self, d: "dict[str, np.ndarray]"):
        own_params = dict(self.named_parameters())
        own_state = dict(self.named_state())
        expected = set(own_params) | set(own_state)
        got = set(d)
        if expected != got:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise ContractError(f"state dict mismatch: missing {missing}, unexpected {extra}")
        for name, p in own_params.items():
            arr = d[name]
            if tuple(arr.shape) != p.shape:
                raise ContractError(f"{name}: shape {arr.shape} != expected {p.shape}")
            p.data = arr.astype(p.data.dtype, copy=True)
            p.grad = None
        for name, buf in own_state.items():
            arr = d[name]
            if tuple(arr.shape) != buf.shape:
                raise ContractError(f"{name}: shape {arr.shape} != expected {buf.shape}")
            buf[...] = arr.astype(buf.dtype, copy=False)
        return self


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng):
        super().__init__()
        self.w = Tensor(trunc_normal(rng, (d_in, d_out)), requires_grad=True)
        self.b = Tensor(np.zeros(d_out), requires_grad=True)

    def forward(self, x):
        return T.matmul(x, self.w, bias=self.b)


class LayerNorm(Module):
    def __init__(self, d: int):
        super().__init__()
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def forward(self, x):
        return T.layer_norm(x, self.gamma, self.beta)


class Conv2d(Module):
    def __init__(self, c_in: int, c_out: int, k: int, rng, stride: int = 1, padding: int = 0):
        super().__init__()
        self.w = Tensor(kaiming_uniform(rng, (c_out, c_in, k, k), fan_in=c_in * k * k),
                        requires_grad=True)
        self.stride = stride
        self.padding = padding

    def forward(self, x):
        return conv2d(x, self.w, stride=self.stride, padding=self.padding)


class BatchNorm2d(Module):
    def __init__(self, c: int):
        super().__init__()
        self.gamma = Tensor(np.ones(c), requires_grad=True)
        self.beta = Tensor(np.zeros(c), requires_grad=True)
        self.register_state("running_mean", np.zeros(c))  # f64 state in every model dtype
        self.register_state("running_var", np.ones(c))

    def forward(self, x):
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                          mode="train" if self.training else "eval")


def conv_bn_relu_unit(conv: Conv2d, bn: BatchNorm2d, x: Tensor) -> Tensor:
    """relu(bn(conv(x))) on the two modules' tensors, as one `conv_bn_relu` node."""
    return conv_bn_relu(x, conv.w, bn.gamma, bn.beta, bn.running_mean, bn.running_var,
                        conv.stride, conv.padding, mode="train" if bn.training else "eval")
