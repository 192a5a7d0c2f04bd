"""The benchmark's workloads: train-toy, train-paper and infer-toy.

Each workload is a closed loop: one client issues the next training step or
inference batch only after the previous one returned. Inputs come from the
workload seed alone. Every step or batch the workload runs is an attempted
operation; it fails if it raises, is refused, or fails an output check.
"""

from __future__ import annotations

import copy
import gc
import math
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from duoformer import ablate, data, tensor, trainer
from duoformer import model as model_mod
from duoformer.config import DuoFormerConfig, TrainConfig
from duoformer.model import DuoFormer
from duoformer.tensor import Tensor

from tracing import Probe, Tracer, clock

# f32 against an f64 copy of the same weights. Untrained toy logits range
# from ~1e-5 (duo) to ~0.1 (scale_only), so the logit tolerance is relative
# to each batch's largest f64 logit; at the seed the f32 error is below 1e-6
# of it. The paper loss is ~1.4.
LOGIT_RTOL = 1e-4
LOSS_ATOL = 1e-4


@dataclass(frozen=True)
class Sizes:
    toy_samples: int       # 64 px synthetic set for train-toy and infer-toy
    paper: DuoFormerConfig
    paper_peak_mb: float   # peak RSS of train-paper, for the memory guard
    setup_repeats: int     # toy set-up is repeated; setup_s is the median


FULL = Sizes(toy_samples=768, paper=DuoFormerConfig(layers=1),
             # traced run at the seed on a 2-CPU, 8 GB x86 box: 3789 MB
             paper_peak_mb=3800.0, setup_repeats=3)
# every batch full, so exact counts repeat across steps
TINY = Sizes(toy_samples=192,
             paper=DuoFormerConfig(input_size=64, patch_count=4, embed_dim=16, heads=4,
                                   layers=1, channels=(8, 16, 32, 64)),
             paper_peak_mb=400.0, setup_repeats=1)

TOY_BATCH = 32       # the ablate defaults
TOY_MAX_LR = 3e-3
TOY_EPOCHS = 1       # per config and round
INFER_BATCH = 64
PAPER_BATCH = 2
PAPER_SCHEDULE = 100  # nominal onecycle length for the paper steps
MEMORY_HEADROOM = 1.2  # train-paper starts only with this multiple of its peak available


@dataclass
class Result:
    """What a workload hands back to run.py."""
    ok: "list[bool]" = field(default_factory=list)          # one per attempted op
    checks: "dict[str, list]" = field(default_factory=dict)  # name -> [passed, total]
    e2e: "dict[str, tuple]" = field(default_factory=dict)    # name -> (value, samples)
    layer: "dict[str, float]" = field(default_factory=dict)
    notes: "list[str]" = field(default_factory=list)
    refused: bool = False
    tracer: "Tracer | None" = None

    def attempt(self, n: int = 1) -> range:
        start = len(self.ok)
        self.ok.extend([True] * n)
        return range(start, start + n)

    def check(self, name: str, ops, passed: bool):
        """Record one output check covering the attempted ops `ops`."""
        c = self.checks.setdefault(name, [0, 0])
        c[1] += 1
        if passed:
            c[0] += 1
        else:
            for i in ops:
                self.ok[i] = False


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    v = sorted(values)
    return float(v[max(0, math.ceil(q / 100.0 * len(v)) - 1)])


def record_step_times(res: "Result", step_ms: "list[float]"):
    """Mean, median and p90 of the timed steps or batches.

    The mean is the gated central figure: on a host whose speed flips
    between a fast and a slow state, the median of a run jumps between the
    two, while the mean follows the share of time spent in each.
    """
    n = len(step_ms)
    res.e2e["step_ms_mean"] = (statistics.fmean(step_ms), n)
    res.e2e["step_ms_p50"] = (statistics.median(step_ms), n)
    res.e2e["step_ms_p90"] = (percentile(step_ms, 90), n)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def available_mb() -> "float | None":
    """MemAvailable, capped by the cgroup limit when one is set."""
    avail = None
    try:
        with open("/proc/meminfo") as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    avail = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    try:
        with open("/sys/fs/cgroup/memory.max") as f:
            limit = f.read().strip()
        with open("/sys/fs/cgroup/memory.current") as f:
            used = int(f.read().strip())
        if limit != "max":
            room = (int(limit) - used) / (1024.0 * 1024.0)
            avail = room if avail is None else min(avail, room)
    except (OSError, ValueError):
        pass
    return avail


def f64_copy(model: DuoFormer) -> DuoFormer:
    """Same weights in f64, recording no graph."""
    m = copy.deepcopy(model).to_dtype(np.float64)
    for p in m.parameters():
        p.requires_grad = False
    return m


def _record_forwards(model, batch_ms: list, logits: list):
    """Make each `model(...)` call append its wall time and its logits."""
    orig = type(model).forward

    def timed_forward(*args, **kwargs):
        t0 = clock()
        y = orig(model, *args, **kwargs)
        batch_ms.append((clock() - t0) * 1e3)
        logits.append(y.data)
        return y

    object.__setattr__(model, "forward", timed_forward)


def train_step(model, params, state, x, y, step, total_steps, tc) -> float:
    """One step made of the calls `trainer.train` makes."""
    model.zero_grad()
    loss = tensor.cross_entropy(model(Tensor(x)), y)
    loss.backward()
    trainer.adam_step(params, [p.grad for p in params], state,
                      trainer.onecycle_lr(step, total_steps, tc), betas=tc.betas)
    return float(loss.data)


class Workload:
    """Shared run state: seed, time budget, trace flag, scratch directory."""

    def __init__(self, seed: int, seconds: float, trace: bool, sizes: Sizes, work_dir: str):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = sizes
        self.work_dir = work_dir
        self.res = Result()
        self.setup_times = []

    def another_fits(self, t_start: float, t_unit: float) -> bool:
        """Whether one more unit, as long as the one begun at `t_unit`,
        still ends within the measuring time begun at `t_start`."""
        now = clock()
        return (now - t_start) + (now - t_unit) <= self.seconds

    def toy_configs(self):
        return [(name, replace(cfg, seed=self.seed))
                for name, cfg in ablate.suite_grid("attention", 64, 4)]

    def toy_data(self):
        t0 = clock()
        images, labels, _ = data.make_synthetic(4, self.sizes.toy_samples, 64, self.seed)
        self.data_gen_s = clock() - t0
        return images, labels

    def finish_trace(self, tracer: Tracer, phase: str, traced_ops, traced_s: float,
                     plain_s: float):
        res = self.res
        res.tracer = tracer
        res.layer = tracer.layer_metrics(phase)
        res.layer.update(tracer.call_metrics())
        res.layer["data.gen_s"] = self.data_gen_s
        res.layer["trace.overhead_frac"] = traced_s / plain_s - 1.0
        res.check("exact counts repeat across steps", traced_ops,
                  tracer.count_mismatches(phase) == 0)


# ---- train-toy -----------------------------------------------------------------------------


class TrainToy(Workload):
    """`trainer.train` with an out_dir on the attention suite, one config after another."""

    def train_cfg(self) -> TrainConfig:
        return TrainConfig(batch_size=TOY_BATCH, max_epochs=TOY_EPOCHS, patience=TOY_EPOCHS,
                           max_lr=TOY_MAX_LR, seed=self.seed)

    def setup(self):
        t0 = clock()
        images, labels = self.toy_data()
        tc = self.train_cfg()
        train_idx = data.split_dataset(labels, tc.val_fraction, tc.test_fraction, self.seed)[0]
        batch = train_idx[:TOY_BATCH]
        losses = []
        for _name, cfg in self.toy_configs():  # warm-up: one step of each config
            m = DuoFormer(cfg)
            params = m.parameters()
            losses.append(train_step(m, params, trainer.adam_init(params),
                                     images[batch], labels[batch], 0, 2, tc))
        self.setup_times.append(clock() - t0)
        ops = self.res.attempt(len(losses))
        self.res.check("loss finite", ops, all(np.isfinite(losses)))
        return images, labels

    def round(self, images, labels, probe: Probe, tracer: "Tracer | None"):
        """Train every config once; returns (losses, seconds in train, last-epoch losses)."""
        first = len(probe.losses)
        seconds, last_epoch = 0.0, []
        for name, cfg in self.toy_configs():
            m = DuoFormer(cfg)
            if tracer is not None:
                tracer.watch(m, name)
            out_dir = os.path.join(self.work_dir, name)
            t0 = clock()
            rec = trainer.train(m, images, labels, self.train_cfg(), out_dir=out_dir)
            seconds += clock() - t0
            shutil.rmtree(out_dir)
            last_epoch.append(rec.epochs[-1].train_loss)
        return probe.losses[first:], seconds, last_epoch

    def run(self):
        res = self.res
        for _ in range(self.sizes.setup_repeats):
            images, labels = self.setup()
        tracer = Tracer() if self.trace else None
        with Probe() as probe:
            gc.collect()
            reference = None
            plain_s = traced_s = 0.0
            n_steps = 0
            traced_ops = []
            t_start = clock()
            while True:
                t_unit = clock()
                losses, secs, last_epoch = self.round(images, labels, probe, None)
                plain_s += secs
                n_steps += len(losses)
                ops = res.attempt(len(losses))
                res.check("loss finite", ops, all(np.isfinite(losses)))
                if reference is None:
                    reference, loss_end = losses, float(np.mean(last_epoch))
                else:
                    res.check("losses repeat across rounds", ops, losses == reference)
                if tracer is not None:
                    with tracer:
                        t_losses, secs, _ = self.round(images, labels, probe, tracer)
                    traced_s += secs
                    t_ops = res.attempt(len(t_losses))
                    traced_ops += t_ops
                    res.check("traced losses bit-identical", t_ops, t_losses == reference)
                if not self.another_fits(t_start, t_unit):
                    break
            step_ms = probe.step_ms()
        if tracer is not None:
            self.finish_trace(tracer, "train", traced_ops, traced_s, plain_s)
            return res
        res.e2e["samples_per_s"] = (n_steps * TOY_BATCH / plain_s, n_steps)
        record_step_times(res, step_ms)
        res.e2e["loss_end"] = (loss_end, len(last_epoch))
        return res


# ---- infer-toy -----------------------------------------------------------------------------


class InferToy(Workload):
    """`model.load_checkpoint`, then repeated `trainer.evaluate` passes."""

    def setup(self, tracer: "Tracer | None" = None):
        t0 = clock()
        images, labels = self.toy_data()
        models = []
        for name, cfg in self.toy_configs():
            path = os.path.join(self.work_dir, name + ".dfc")
            m = DuoFormer(cfg)
            if tracer is not None:
                tracer.watch(m, name)
            model_mod.save_checkpoint(path, m)
            m, _ = model_mod.load_checkpoint(path)
            trainer.predict(m, images[:INFER_BATCH], INFER_BATCH)  # warm-up batch
            models.append((name, m))
        if tracer is None:
            self.setup_times.append(clock() - t0)
        return images, labels, models

    def round(self, images, labels, models, tracer: "Tracer | None"):
        """One evaluate pass per config; returns (logits per config, batch ms, seconds)."""
        logits, batch_ms, seconds = [], [], 0.0
        for name, m in models:
            out = []
            _record_forwards(m, batch_ms, out)
            if tracer is not None:
                tracer.watch(m, name)
            t0 = clock()
            trainer.evaluate(m, images, labels, INFER_BATCH)
            seconds += clock() - t0
            object.__delattr__(m, "forward")
            logits.append(np.concatenate(out))
        return logits, batch_ms, seconds

    def check_f64(self, images, models, logits, ops_per_config):
        """f32 logits against an f64 copy of each loaded checkpoint."""
        for (name, m), l32, ops in zip(models, logits, ops_per_config):
            m64 = f64_copy(m).eval()
            l64 = np.concatenate([
                m64(Tensor(images[i:i + INFER_BATCH].astype(np.float64))).data
                for i in range(0, len(images), INFER_BATCH)])
            top2 = np.sort(l64, axis=1)[:, -2:]
            same = np.argmax(l32, axis=1) == np.argmax(l64, axis=1)
            worst = 0.0
            for b, op in zip(range(0, len(images), INFER_BATCH), ops):
                sl = slice(b, b + INFER_BATCH)
                scale = np.abs(l64[sl]).max()
                err = np.abs(l32[sl] - l64[sl]).max()
                worst = max(worst, err / scale)
                # argmax must agree wherever the f64 top-two gap exceeds the tolerance
                decided = (top2[sl, 1] - top2[sl, 0]) > 2 * LOGIT_RTOL * scale
                self.res.check("f32 logits match f64 copy", [op],
                               bool(err <= LOGIT_RTOL * scale))
                self.res.check("argmax matches f64 copy", [op], bool(same[sl][decided].all()))
            self.res.notes.append(f"{name}: largest f32-f64 logit error {worst:.1e} "
                                  f"of the batch's largest logit")

    def run(self):
        res = self.res
        os.makedirs(self.work_dir, exist_ok=True)
        for _ in range(self.sizes.setup_repeats):
            images, labels, models = self.setup()
        res.attempt(len(models))  # the warm-up batches
        tracer = Tracer() if self.trace else None
        if tracer is not None:
            tracer.phase = "setup"
            with tracer:
                self.setup(tracer)
            tracer.phase = "infer"
        gc.collect()
        n_batches = math.ceil(len(images) / INFER_BATCH)
        reference = None
        plain_s = traced_s = 0.0
        batch_ms, traced_ops = [], []
        t_start = clock()
        while True:
            t_unit = clock()
            logits, ms, secs = self.round(images, labels, models, None)
            plain_s += secs
            batch_ms += ms
            ops = res.attempt(len(ms))
            per_config = [ops[i * n_batches:(i + 1) * n_batches] for i in range(len(models))]
            for l, o in zip(logits, per_config):
                res.check("logits finite", o, bool(np.isfinite(l).all()))
            if reference is None:
                reference, ref_ops = logits, per_config
            else:
                for l, r, o in zip(logits, reference, per_config):
                    res.check("logits repeat across rounds", o, np.array_equal(l, r))
            if tracer is not None:
                with tracer:
                    t_logits, t_ms, secs = self.round(images, labels, models, tracer)
                traced_s += secs
                t_ops = res.attempt(len(t_ms))
                traced_ops += t_ops
                res.check("traced logits bit-identical", t_ops,
                          all(np.array_equal(a, b) for a, b in zip(t_logits, reference)))
            if not self.another_fits(t_start, t_unit):
                break
        self.check_f64(images, models, reference, ref_ops)
        if tracer is not None:
            self.finish_trace(tracer, "infer", traced_ops, traced_s, plain_s)
            return res
        loss = []
        for l in reference:
            z = l.astype(np.float64)
            lse = z.max(axis=1) + np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1))
            loss.append(float(np.mean(lse - z[np.arange(len(labels)), labels])))
        res.e2e["samples_per_s"] = (len(batch_ms) * INFER_BATCH / plain_s, len(batch_ms))
        record_step_times(res, batch_ms)
        res.e2e["loss_end"] = (float(np.mean(loss)), len(loss))
        return res


# ---- train-paper ---------------------------------------------------------------------------


class TrainPaper(Workload):
    """The paper geometry (224 px, N=49, D=768) with one layer, batch 2."""

    def setup(self):
        t0 = clock()
        cfg = replace(self.sizes.paper, seed=self.seed)
        model = DuoFormer(cfg)
        t_data = clock()
        images, labels, _ = data.make_synthetic(4, PAPER_BATCH, cfg.input_size, self.seed)
        self.data_gen_s = clock() - t_data
        params = model.parameters()
        return model, params, trainer.adam_init(params), images, labels, clock() - t0

    def steps(self, model, params, state, images, labels, count, tracer=None):
        """Step 0 (the warm-up), then `count` timed steps, or as many as fit
        in the measuring time when count is None (at least one).
        Returns (losses, step seconds), step 0 included."""
        tc = TrainConfig(seed=self.seed)
        losses, times = [], []
        for step in range(PAPER_SCHEDULE):
            if tracer is not None:
                tracer.phase = "warmup" if step == 0 else "train"
            t0 = clock()
            losses.append(train_step(model, params, state, images, labels,
                                     step, PAPER_SCHEDULE, tc))
            times.append(clock() - t0)
            if step == 0:
                t_start = clock()
            elif step == count or (count is None and not self.another_fits(t_start, t0)):
                break
        return losses, times

    def run(self):
        res = self.res
        need = self.sizes.paper_peak_mb * MEMORY_HEADROOM
        avail = available_mb()
        if avail is not None and avail < need:
            res.check("enough memory to start", res.attempt(), False)
            res.refused = True
            res.notes.append(f"refused: {avail:.0f} MB available, need {need:.0f} MB")
            return res
        model, params, state, images, labels, build_s = self.setup()
        t0 = clock()
        ref = f64_copy(model)
        loss64 = float(tensor.cross_entropy(ref(Tensor(images.astype(np.float64))), labels).data)
        del ref
        gc.collect()
        res.notes.append(f"f64 reference forward took {clock() - t0:.1f} s (not in setup_s)")
        losses, times = self.steps(model, params, state, images, labels, None)
        self.setup_times.append(build_s + times[0])
        ops = res.attempt(len(losses))
        res.check("first-step loss matches f64 forward", [ops[0]],
                  abs(losses[0] - loss64) <= LOSS_ATOL)
        res.notes.append(f"first-step loss f32 {losses[0]:.7f}, f64 {loss64:.7f}")
        for op, loss in zip(ops, losses):
            res.check("loss finite", [op], bool(np.isfinite(loss)))
        step_ms = [t * 1e3 for t in times[1:]]
        if self.trace:
            del model, params, state
            gc.collect()
            model, params, state, images, labels, _ = self.setup()
            tracer = Tracer()
            tracer.watch(model, "paper")
            with tracer:
                t_losses, t_times = self.steps(model, params, state, images, labels,
                                               len(step_ms), tracer)
            t_ops = res.attempt(len(t_losses))
            res.check("traced losses bit-identical", t_ops, t_losses == losses)
            self.finish_trace(tracer, "train", t_ops, sum(t_times[1:]), sum(times[1:]))
            return res
        res.e2e["samples_per_s"] = (len(step_ms) * PAPER_BATCH
                                    / sum(times[1:]), len(step_ms))
        record_step_times(res, step_ms)
        res.e2e["loss_end"] = (losses[1], 1)
        return res


WORKLOADS = {"train-toy": TrainToy, "train-paper": TrainPaper, "infer-toy": InferToy}
