"""Training loop: Adam (no weight decay), per-step OneCycle schedule,
epoch-level early stopping on validation balanced accuracy, best-checkpoint
restore before the test evaluation.

run.jsonl is appended one epoch at a time so an interrupted run still
leaves a usable record.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .backbone import FeaturePyramid
from .config import TrainConfig
from .data import split_dataset
from .errors import ContractError, NumericError
from .model import DuoFormer, save_checkpoint
from .rng import SeedStream
from .tensor import Tensor


# ---- optimizer -------------------------------------------------------------------


def adam_init(params) -> dict:
    return {"step": 0,
            "m": [np.zeros_like(p.data) for p in params],
            "v": [np.zeros_like(p.data) for p in params]}


def adam_step(params, grads, state: dict, lr: float, betas=(0.9, 0.999),
              eps: float = 1e-8) -> None:
    """One bias-corrected Adam update, in place; no weight decay.

    The plain elementwise formula, applied chunk by chunk (``T.flat_chunks``)
    so no temporary is parameter-sized.
    """
    b1, b2 = betas
    state["step"] += 1
    t = state["step"]
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            g = np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ContractError(f"grad shape {g.shape} != param shape {p.data.shape}")
        for pc, m, v, gc in T.flat_chunks(p.data, state["m"][i], state["v"][i], g):
            m *= b1
            m += (1 - b1) * gc
            v *= b2
            v += (1 - b2) * gc * gc
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            pc -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(pc.dtype, copy=False)


# ---- schedule ---------------------------------------------------------------------


def onecycle_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Cosine warmup to max_lr at round(pct_start*(total-1)), cosine anneal after."""
    if not (0 <= step < total_steps):
        raise ContractError(f"step {step} outside [0, {total_steps})")
    start_lr = cfg.max_lr / cfg.div_factor
    final_lr = cfg.max_lr / cfg.final_div_factor
    peak = int(round(cfg.pct_start * (total_steps - 1)))
    if step <= peak:
        frac = 1.0 if peak == 0 else step / peak
        return start_lr + (cfg.max_lr - start_lr) * (1 - math.cos(math.pi * frac)) / 2
    frac = (step - peak) / (total_steps - 1 - peak)
    return final_lr + (cfg.max_lr - final_lr) * (1 + math.cos(math.pi * frac)) / 2


# ---- metrics ----------------------------------------------------------------------


def balanced_accuracy(predictions, labels, num_classes: int) -> float:
    """Unweighted mean per-class recall; classes absent from labels are skipped."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ContractError("balanced_accuracy needs at least one sample")
    recalls = []
    for c in range(num_classes):
        sel = labels == c
        if sel.any():
            recalls.append(float((predictions[sel] == c).mean()))
    return float(np.mean(recalls))


def per_class_recall(predictions, labels, num_classes: int) -> "list[float | None]":
    out = []
    for c in range(num_classes):
        sel = labels == c
        out.append(float((predictions[sel] == c).mean()) if sel.any() else None)
    return out


class EarlyStopper:
    """Strict-improvement tracker: stop once `patience` epochs pass without
    the validation score exceeding the best seen."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_epoch = -1
        self.best_score = -float("inf")

    def update(self, epoch: int, score: float) -> bool:
        """Record an epoch; returns True when training should stop."""
        if score > self.best_score:
            self.best_score = score
            self.best_epoch = epoch
        return epoch - self.best_epoch >= self.patience

    @property
    def improved(self) -> bool:
        return self.best_epoch >= 0


# ---- records -----------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_balanced_acc: float
    lr: float
    seconds: float


@dataclass
class RunRecord:
    epochs: "list[EpochRecord]" = field(default_factory=list)
    best_epoch: int = -1
    test_balanced_acc: float = float("nan")
    test_acc: float = float("nan")
    test_per_class_recall: "list[float | None]" = field(default_factory=list)

    @property
    def best_val(self) -> float:
        return self.epochs[self.best_epoch].val_balanced_acc if self.epochs else float("nan")

    def comparable(self) -> dict:
        """Everything except wall-clock times (for determinism checks)."""
        d = asdict(self)
        for e in d["epochs"]:
            e.pop("seconds")
        return d


# ---- loop --------------------------------------------------------------------------


def slice_pyramid(pyramid: FeaturePyramid, idx) -> FeaturePyramid:
    """Sub-pyramid for the given sample indices (features copied, not viewed)."""
    return FeaturePyramid([(i, Tensor(feat.data[idx])) for i, feat in pyramid.stages],
                          input_size=pyramid.input_size)


def _batch_forward(model, images, pyramid, idx):
    if pyramid is not None:
        return model(pyramid=slice_pyramid(pyramid, idx))
    return model(Tensor(images[idx]))


def predict(model: DuoFormer, images: "np.ndarray | None", batch_size: int = 64,
            pyramid: "FeaturePyramid | None" = None) -> np.ndarray:
    """Eval-mode argmax predictions, batched.

    Exactly one of `images` / `pyramid` supplies the inputs; a pyramid
    covers the samples along its batch axis (precomputed, frozen features).
    """
    if (images is None) == (pyramid is None):
        raise ContractError("provide exactly one of images or pyramid")
    n = pyramid.batch if pyramid is not None else len(images)
    was_training = model.training
    model.eval()
    preds = []
    with T.no_grad():
        for i in range(0, n, batch_size):
            logits = _batch_forward(model, images, pyramid, np.arange(i, min(i + batch_size, n)))
            preds.append(np.argmax(logits.data, axis=1))
    if was_training:
        model.train()
    return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)


def evaluate(model: DuoFormer, images: "np.ndarray | None", labels: np.ndarray,
             batch_size: int = 64, pyramid: "FeaturePyramid | None" = None) -> dict:
    preds = predict(model, images, batch_size, pyramid=pyramid)
    k = model.cfg.num_classes
    return {
        "balanced_accuracy": balanced_accuracy(preds, labels, k),
        "accuracy": float((preds == labels).mean()),
        "per_class_recall": per_class_recall(preds, labels, k),
    }


def train(model: DuoFormer, images: "np.ndarray | None", labels: np.ndarray,
          cfg: TrainConfig, out_dir: "str | None" = None, splits=None, log=None,
          pyramid: "FeaturePyramid | None" = None) -> RunRecord:
    """Run the full protocol; returns the record with test metrics filled in.

    splits: optional (train_idx, val_idx, test_idx); when omitted, a
    stratified split seeded by cfg.seed is used. Caller owns disjointness
    when passing explicit splits.

    pyramid: precomputed features for the whole dataset; training then
    bypasses (and never updates) the backbone.
    """
    cfg.validate()
    if (images is None) == (pyramid is None):
        raise ContractError("provide exactly one of images or pyramid")
    if pyramid is not None and pyramid.batch != len(labels):
        raise ContractError(f"pyramid batch {pyramid.batch} != {len(labels)} labels")
    if splits is None:
        splits = split_dataset(labels, cfg.val_fraction, cfg.test_fraction, cfg.seed)
    train_idx, val_idx, test_idx = (np.asarray(s) for s in splits)

    params = model.parameters()
    state = adam_init(params)
    steps_per_epoch = max(1, math.ceil(len(train_idx) / cfg.batch_size))
    total_steps = cfg.max_epochs * steps_per_epoch
    shuffle_stream = SeedStream(cfg.seed).child("shuffle")

    record = RunRecord()
    stopper = EarlyStopper(cfg.patience)
    best_state = None
    jsonl = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        jsonl = open(os.path.join(out_dir, "run.jsonl"), "a")

    try:
        global_step = 0
        for epoch in range(cfg.max_epochs):
            t0 = time.perf_counter()
            model.train()
            order = train_idx[shuffle_stream.child(epoch).generator()
                              .permutation(len(train_idx))]
            losses = []
            lr = 0.0
            for b in range(0, len(order), cfg.batch_size):
                batch = order[b:b + cfg.batch_size]
                if len(batch) == 1:
                    continue  # train-mode BN cannot normalize a single sample
                model.zero_grad()
                logits = _batch_forward(model, images, pyramid, batch)
                loss = T.cross_entropy(logits, labels[batch])
                if not np.isfinite(loss.data):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, batch {b // cfg.batch_size}")
                loss.backward()
                losses.append(float(loss.data))
                del logits, loss  # free the graph before Adam runs
                lr = onecycle_lr(global_step, total_steps, cfg)
                adam_step(params, [p.grad for p in params], state, lr,
                          betas=cfg.betas)
                global_step += 1

            if pyramid is not None:
                val_preds = predict(model, None, cfg.batch_size,
                                    pyramid=slice_pyramid(pyramid, val_idx))
            else:
                val_preds = predict(model, images[val_idx], cfg.batch_size)
            val_bacc = balanced_accuracy(val_preds, labels[val_idx], model.cfg.num_classes)
            rec = EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)),
                              val_balanced_acc=val_bacc, lr=lr,
                              seconds=time.perf_counter() - t0)
            record.epochs.append(rec)
            if jsonl is not None:
                jsonl.write(json.dumps(asdict(rec)) + "\n")
                jsonl.flush()
            if log is not None:
                log(f"epoch {epoch}: loss {rec.train_loss:.4f} "
                    f"val_bacc {val_bacc:.4f} lr {lr:.2e}")

            prev_best = stopper.best_epoch
            stop = stopper.update(epoch, val_bacc)
            if stopper.best_epoch != prev_best:
                record.best_epoch = epoch
                best_state = {k: v.copy() for k, v in model.state_dict().items()}
                if out_dir is not None:
                    save_checkpoint(os.path.join(out_dir, "best.dfc"), model, cfg)
            if stop:
                break
    finally:
        if jsonl is not None:
            jsonl.close()

    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "last.dfc"), model, cfg)
    if best_state is not None:
        model.load_state_dict(best_state)
    if pyramid is not None:
        test_metrics = evaluate(model, None, labels[test_idx], cfg.batch_size,
                                pyramid=slice_pyramid(pyramid, test_idx))
    else:
        test_metrics = evaluate(model, images[test_idx], labels[test_idx], cfg.batch_size)
    record.test_balanced_acc = test_metrics["balanced_accuracy"]
    record.test_acc = test_metrics["accuracy"]
    record.test_per_class_recall = test_metrics["per_class_recall"]
    return record
