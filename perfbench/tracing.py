"""Outside-in instrumentation of the duoformer program.

Everything here works by replacing public names of the program's modules
while a workload runs, and restoring them afterwards; no file under `src/`
is touched. Two instruments share the patching helper:

* `Probe` is always on. It records the loss at every `Tensor.backward` and
  the time of every `trainer.adam_step` return: one float conversion and
  one clock read per training step.
* `Tracer` is on only in a traced run. It records a span at every module
  call, every autodiff op and op backward closure, and every trainer call
  (backward, Adam, predict, checkpoint save/load), plus exact counts
  (op calls, graph nodes, computed FLOPs and useful-byte ratios). Spans are
  kept in memory and written out when the run ends.

Spans carry the id of the *unit* they belong to: one training step, one
validation batch or one inference batch. Per-layer metrics are medians over
units; see `Tracer.layer_metrics`.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict

import numpy as np

from duoformer import conv, layers, scale_token, serialize, tensor, trainer
from duoformer import model as model_mod

clock = time.perf_counter

# Ops reported per name. `tensor.{scale,neg,sum}` are traced too, so every
# graph node carries a scope for the retained-bytes split, but they are
# not part of the reported op list.
TENSOR_OPS = ("matmul", "add", "mul", "index", "concat", "transpose", "reshape",
              "broadcast_to", "mean", "relu", "gelu", "softmax", "layer_norm",
              "cross_entropy")
CONV_OPS = ("conv2d", "batch_norm", "max_pool2d")
_UNREPORTED_OPS = ("scale", "neg", "tensor_sum")
# Ops whose backward scatters or sums through a larger buffer than the
# gradient it returns; `bwd_useful_frac` is gradient bytes / buffer bytes.
_USEFUL_FRAC_OPS = ("tensor.matmul", "tensor.index")
# Names other modules bound with `from .conv import ...`; each must be
# patched where it is looked up.
_CONV_IMPORTS = ((layers, "conv2d"), (layers, "batch_norm"), (scale_token, "max_pool2d"))

# Child attribute of an encoder layer -> scope. Anything else under
# `encoder` (the encoder and layer objects themselves) is glue.
_LAYER_CHILD_SCOPES = {"scale": "attention.scale_msa", "patch": "attention.patch_msa",
                       "attn": "attention.block_msa", "ffn": "attention.ffn",
                       "ln1": "attention.layer_norm", "ln2": "attention.layer_norm"}
_TOP_SCOPES = {"backbone": "backbone", "scale_token": "scale_token", "proj": "tokenizer",
               "head": "model.head"}

MB = 1024.0 * 1024.0


def scope_of(path: str) -> str:
    """Map a dotted module path of a DuoFormer to its reported scope.

    The root model's own work (the mean-pool readout) counts as the head.
    """
    if not path:
        return "model.head"
    top, _, rest = path.partition(".")
    if top == "encoder":
        parts = rest.split(".")
        if len(parts) >= 2 and parts[1] in _LAYER_CHILD_SCOPES:
            return _LAYER_CHILD_SCOPES[parts[1]]
        return "attention.glue"
    return _TOP_SCOPES[top]


def module_paths(model) -> "dict[int, str]":
    """id(module) -> dotted attribute path, for every module under `model`."""
    out = {}
    stack = [("", model)]
    while stack:
        path, m = stack.pop()
        out[id(m)] = path
        for name, child in m._children.items():
            stack.append((f"{path}.{name}" if path else name, child))
    return out


class Patches:
    """Replace attributes and put the originals back on `restore`."""

    def __init__(self):
        self._saved = []

    def set(self, obj, name, value):
        self._saved.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def restore(self):
        while self._saved:
            obj, name, value = self._saved.pop()
            setattr(obj, name, value)


class Probe:
    """Per-step losses and `adam_step` return times; always installed.

    `step_returns` holds the clock at each `adam_step` return, with a None
    wherever `trainer.predict` ran, so an interval never spans validation.
    """

    def __init__(self):
        self.losses = []
        self.step_returns = []
        self._patches = Patches()

    def __enter__(self):
        orig_backward = tensor.Tensor.backward
        orig_adam = trainer.adam_step
        orig_predict = trainer.predict
        losses, returns = self.losses, self.step_returns

        def backward(t):
            losses.append(float(t.data))
            return orig_backward(t)

        def adam_step(*args, **kwargs):
            orig_adam(*args, **kwargs)
            returns.append(clock())

        def predict(*args, **kwargs):
            returns.append(None)
            return orig_predict(*args, **kwargs)

        self._patches.set(tensor.Tensor, "backward", backward)
        self._patches.set(trainer, "adam_step", adam_step)
        self._patches.set(trainer, "predict", predict)
        return self

    def __exit__(self, *exc):
        self._patches.restore()

    def step_ms(self) -> "list[float]":
        """Intervals between successive `adam_step` returns within an epoch."""
        r = self.step_returns
        return [(b - a) * 1e3 for a, b in zip(r, r[1:]) if a is not None and b is not None]


def _root_buffer(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _closure_arrays(fn):
    """ndarrays a backward closure keeps alive (directly or via Tensors)."""
    for cell in fn.__closure__ or ():
        try:
            v = cell.cell_contents
        except ValueError:  # empty cell
            continue
        items = v if isinstance(v, (list, tuple)) else (v,)
        for item in items:
            if isinstance(item, tensor.Tensor):
                yield item.data
            elif isinstance(item, np.ndarray):
                yield item


def _shape_counts(name, args, out, c):
    """Counts computed from shapes: FLOPs, and the bytes of each backward's
    result against the buffer it builds first (for `bwd_useful_frac`)."""
    if name == "tensor.matmul":
        a, b = args[0], args[1]
        batch = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
        m, k = a.shape[-2:]
        c["tensor.matmul.flop"] += 2.0 * batch * m * k * b.shape[-1]
        for x in (a, b):
            if x.requires_grad:
                # backward forms a full-batch product, then sums it to x's shape
                c["tensor.matmul.grad_bytes"] += x.data.nbytes
                c["tensor.matmul.inter_bytes"] += (batch * x.shape[-2] * x.shape[-1]
                                                   * x.data.itemsize)
    elif name == "tensor.index":
        a = args[0]
        if a.requires_grad:
            c["tensor.index.grad_bytes"] += out.data.nbytes
            c["tensor.index.inter_bytes"] += a.data.nbytes
    elif name == "conv.conv2d":
        w = args[1]
        o, ci, kh, kw = w.shape
        bsz, _, ho, wo = out.shape
        c["conv.conv2d.flop"] += 2.0 * bsz * ho * wo * o * ci * kh * kw


class _TimedBackward:
    """Stands in for a graph node's `_backward` closure and times it."""

    __slots__ = ("orig", "tracer", "op", "scope", "seq")

    def __init__(self, orig, tracer, op, scope, seq):
        self.orig = orig
        self.tracer = tracer
        self.op = op
        self.scope = scope
        self.seq = seq

    def __call__(self, g):
        tr = self.tracer
        sid = tr._open("bwd", self.op, self.scope)
        try:
            self.orig(g)
        finally:
            tr._close(sid)


# span record fields
_ID, _PARENT, _KIND, _NAME, _SCOPE, _UNIT, _T0, _T1, _CHILD = range(9)


class Tracer:
    """Spans and counts at module, op and trainer boundaries.

    Use as a context manager around the traced part of a workload; call
    `watch(model, config)` before each model is run so module calls map to
    scopes.
    """

    def __init__(self):
        self.spans = []
        self.units = []            # unit id -> (phase, config)
        self.counts = []           # unit id -> defaultdict(float) of exact counts
        self.retained = []         # unit id -> {scope: bytes} or None
        self.calls = defaultdict(list)  # (metric, config) -> one value per call
        self.phase = "train"
        self.config = ""
        self._unit = None
        self._stack = []
        self._paths = {}
        self._seq = 0
        self._param_bufs = set()
        self._patches = Patches()

    # ---- units and spans ----------------------------------------------------

    def watch(self, model, config: str):
        self._paths = module_paths(model)
        self._param_bufs = {id(_root_buffer(p.data)) for p in model.parameters()}
        self.config = config
        self.end_unit()

    def end_unit(self):
        self._unit = None

    def _unit_id(self) -> int:
        if self._unit is None:
            self._unit = len(self.units)
            self.units.append((self.phase, self.config))
            self.counts.append(defaultdict(float))
            self.retained.append(None)
        return self._unit

    def _open(self, kind, name, scope):
        parent = self._stack[-1] if self._stack else -1
        if scope is None and parent >= 0:
            scope = self.spans[parent][_SCOPE]
        sid = len(self.spans)
        self.spans.append([sid, parent, kind, name, scope, self._unit_id(), clock(), 0.0, 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        rec = self.spans[sid]
        rec[_T1] = clock()
        self._stack.pop()
        if rec[_PARENT] >= 0:
            self.spans[rec[_PARENT]][_CHILD] += rec[_T1] - rec[_T0]

    # ---- installation ---------------------------------------------------------

    def __enter__(self):
        p = self._patches
        for name in TENSOR_OPS + _UNREPORTED_OPS:
            p.set(tensor, name, self._wrap_op("tensor." + name, getattr(tensor, name)))
        for name in CONV_OPS:
            p.set(conv, name, self._wrap_op("conv." + name, getattr(conv, name)))
        for mod, name in _CONV_IMPORTS:
            p.set(mod, name, getattr(conv, name))
        p.set(layers.Module, "__call__", self._wrap_module_call(layers.Module.__call__))
        p.set(model_mod, "tokenize", self._wrap_fn("tokenize", model_mod.tokenize, "tokenizer"))
        p.set(model_mod, "attach_scale_token",
              self._wrap_fn("attach_scale_token", model_mod.attach_scale_token, "scale_token"))
        p.set(tensor.Tensor, "backward", self._wrap_backward(tensor.Tensor.backward))
        p.set(trainer, "adam_step", self._wrap_call("trainer.adam_step", trainer.adam_step,
                                                    end_unit=True))
        p.set(trainer, "predict", self._wrap_predict(trainer.predict))
        p.set(serialize, "save_tensors", self._wrap_io("serialize.save", serialize.save_tensors))
        p.set(serialize, "load_tensors", self._wrap_io("serialize.load", serialize.load_tensors))
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        self._stack.clear()

    # ---- wrappers ---------------------------------------------------------------

    def _wrap_op(self, name, fn):
        tr = self

        def op(*args, **kwargs):
            scope = "model.loss" if name == "tensor.cross_entropy" else None
            sid = tr._open("op", name, scope)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._close(sid)
            rec = tr.spans[sid]
            c = tr.counts[rec[_UNIT]]
            c[name + ".calls"] += 1
            c[name + ".out_bytes"] += out.data.nbytes
            _shape_counts(name, args, out, c)
            if out._backward is not None:
                tr._seq += 1
                out._backward = _TimedBackward(out._backward, tr, name, rec[_SCOPE], tr._seq)
            if rec[_PARENT] >= 0:  # keep this bookkeeping out of the parent's self time
                tr.spans[rec[_PARENT]][_CHILD] += clock() - rec[_T1]
            return out

        return op

    def _wrap_module_call(self, orig_call):
        tr = self

        def __call__(module, *args, **kwargs):
            path = tr._paths.get(id(module))
            if path is None:
                return orig_call(module, *args, **kwargs)
            sid = tr._open("module", path or "model", scope_of(path))
            try:
                out = orig_call(module, *args, **kwargs)
            finally:
                tr._close(sid)
            if path == "" and tr.phase in ("val", "infer"):
                tr._record_graph(out, tr.spans[sid][_UNIT])
                tr.end_unit()  # one inference batch per root forward
            return out

        return __call__

    def _wrap_fn(self, name, fn, scope):
        tr = self

        def wrapped(*args, **kwargs):
            sid = tr._open("module", name, scope)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(sid)

        return wrapped

    def _wrap_call(self, name, fn, end_unit=False):
        tr = self

        def wrapped(*args, **kwargs):
            sid = tr._open("call", name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(sid)
                if end_unit:
                    tr.end_unit()

        return wrapped

    def _wrap_backward(self, orig):
        tr = self

        def backward(t):
            tr._record_graph(t, tr._unit_id())  # before the span: not timed
            sid = tr._open("call", "tensor.backward", None)
            try:
                return orig(t)
            finally:
                tr._close(sid)

        return backward

    def _wrap_predict(self, orig):
        tr = self

        def predict(*args, **kwargs):
            saved = tr.phase
            tr.phase = "val" if saved == "train" else saved
            tr.end_unit()
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                if tr.phase in ("val", "infer"):
                    tr.calls[("trainer.val_ms", tr.config)].append((clock() - t0) * 1e3)
                tr.phase = saved
                tr.end_unit()

        return predict

    def _wrap_io(self, name, fn):
        tr = self

        def wrapped(path, *args, **kwargs):
            sid = tr._open("call", name, None)
            try:
                return fn(path, *args, **kwargs)
            finally:
                tr._close(sid)
                rec = tr.spans[sid]
                tr.calls[(name + "_ms", tr.config)].append((rec[_T1] - rec[_T0]) * 1e3)
                if name == "serialize.save":
                    tr.calls[("serialize.mb", tr.config)].append(os.path.getsize(path) / MB)

        return wrapped

    # ---- graph accounting -----------------------------------------------------------

    def _record_graph(self, root, unit):
        """Node count and retained bytes per scope of the graph under `root`.

        Retained bytes are node data plus the arrays the backward closures
        hold, deduplicated by underlying buffer; parameters are excluded.
        A buffer is charged to the scope of the earliest node holding it.
        """
        nodes, seen, stack = [], set(), [root]
        while stack:
            n = stack.pop()
            if id(n) in seen:
                continue
            seen.add(id(n))
            nodes.append(n)
            stack.extend(p for p in n._parents if p.requires_grad and id(p) not in seen)
        ops = sorted((n for n in nodes if isinstance(n._backward, _TimedBackward)),
                     key=lambda n: n._backward.seq)
        charged = set(self._param_bufs)
        by_scope = defaultdict(float)
        for n in ops:
            bw = n._backward
            for arr in (n.data, *_closure_arrays(bw.orig)):
                buf = _root_buffer(arr)
                if id(buf) not in charged:
                    charged.add(id(buf))
                    by_scope[bw.scope] += buf.nbytes
        self.counts[unit]["tensor.graph_nodes"] += len(nodes)
        if self.phase in ("val", "infer"):
            self.calls[("trainer.predict.graph_nodes", self.config)].append(len(nodes))
        self.retained[unit] = dict(by_scope)

    # ---- results ------------------------------------------------------------------------

    def _complete_units(self, phase: str) -> "dict[int, list]":
        """unit id -> spans, for the units of `phase` that ran a whole step
        (ended by `adam_step`) or a whole inference batch (a root forward)."""
        spans = defaultdict(list)
        for rec in self.spans:
            spans[rec[_UNIT]].append(rec)
        marker = "trainer.adam_step" if phase == "train" else "model"
        return {u: recs for u, recs in spans.items()
                if self.units[u][0] == phase and any(r[_NAME] == marker for r in recs)}

    def unit_metrics(self, unit: int, spans) -> "dict[str, float]":
        """Every per-layer metric of one unit (ms, MB, counts)."""
        m = defaultdict(float)
        for rec in spans:
            dur = (rec[_T1] - rec[_T0]) * 1e3
            kind, name, scope = rec[_KIND], rec[_NAME], rec[_SCOPE]
            if kind in ("module", "op") and scope is not None:
                m[scope + ".fwd_ms"] += dur - rec[_CHILD] * 1e3
            if kind == "op":
                m[name + ".fwd_ms"] += dur
            elif kind == "bwd":
                m[name + ".bwd_ms"] += dur
                m["tensor.backward.walk_ms"] -= dur
                if scope is not None:
                    m[scope + ".bwd_ms"] += dur
            elif name == "tensor.backward":
                m["trainer.bwd_ms"] += dur
                m["tensor.backward.walk_ms"] += dur
            elif name == "trainer.adam_step":
                m["trainer.adam_ms"] += dur
            if (kind == "module" and name == "model") or name == "tensor.cross_entropy":
                m["trainer.fwd_ms"] += dur
        c = self.counts[unit]
        for key, v in c.items():
            if key.endswith(".calls") or key == "tensor.graph_nodes":
                m[key] = v
            elif key.endswith(".out_bytes"):
                m[key[:-len(".out_bytes")] + ".out_mb"] = v / MB
        for op in ("tensor.matmul", "conv.conv2d"):
            m[op + ".gflop"] = c.get(op + ".flop", 0.0) / 1e9
        for key in ("grad_bytes", "inter_bytes"):
            for op in _USEFUL_FRAC_OPS:
                m[f"{op}.{key}"] = c.get(f"{op}.{key}", 0.0)
        retained = self.retained[unit] or {}
        for scope, nbytes in retained.items():
            m[scope + ".retained_mb"] = nbytes / MB
        m["tensor.graph_retained_mb"] = sum(retained.values()) / MB
        return m

    def layer_metrics(self, phase: str) -> "dict[str, float]":
        """Per-layer metrics of one phase: for each config the median over its
        units, summed over configs (so: one step or batch of each config)."""
        by_config = defaultdict(list)
        for u, spans in self._complete_units(phase).items():
            by_config[self.units[u][1]].append(self.unit_metrics(u, spans))
        out = defaultdict(float)
        for rows in by_config.values():
            for k in set().union(*rows):
                out[k] += float(np.median([r.get(k, 0.0) for r in rows]))
        for op in _USEFUL_FRAC_OPS:  # a ratio of the sums, not a sum of ratios
            grad, inter = out.pop(op + ".grad_bytes", 0.0), out.pop(op + ".inter_bytes", 0.0)
            out[op + ".bwd_useful_frac"] = grad / inter if inter else 1.0
        return dict(out)

    def count_mismatches(self, phase: str) -> int:
        """Units whose exact counts differ from the first unit of their config."""
        first, bad = {}, 0
        for u in self._complete_units(phase):
            config = self.units[u][1]
            counts = dict(self.counts[u])
            if first.setdefault(config, counts) != counts:
                bad += 1
        return bad

    def call_metrics(self) -> "dict[str, float]":
        """Per-call medians (predict, checkpoint save/load), summed over configs."""
        out = defaultdict(float)
        for (name, _config), values in self.calls.items():
            out[name] += float(np.median(values))
        return dict(out)

    def write_spans(self, path: str):
        """One header line naming the columns, then one JSON array per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t_base = self.spans[0][_T0] if self.spans else 0.0
        with open(path, "w") as f:
            f.write(json.dumps({"columns": ["id", "parent", "kind", "name", "scope", "unit",
                                            "phase", "config", "start_ms", "end_ms"]}) + "\n")
            for rec in self.spans:
                phase, config = self.units[rec[_UNIT]]
                f.write(json.dumps([rec[_ID], rec[_PARENT], rec[_KIND], rec[_NAME],
                                    rec[_SCOPE], rec[_UNIT], phase, config,
                                    round((rec[_T0] - t_base) * 1e3, 4),
                                    round((rec[_T1] - t_base) * 1e3, 4)]) + "\n")
