"""Training loop: Adam (no weight decay), per-step OneCycle schedule,
epoch-level early stopping on validation balanced accuracy, best-checkpoint
restore before the test evaluation.

run.jsonl is written and flushed one epoch at a time, so an interrupted run
still leaves a usable record; a later run into the same directory replaces it.
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
from .config import TrainConfig, serialize_config
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

    Both corrections fold into the step size and epsilon (Kingma & Ba, sec. 2):
    m and v match the plain formula bit for bit, p up to rounding. Each pass runs
    chunk by chunk (``T.flat_chunks``) through one chunk of scratch, with scalars
    in p's dtype. A parameter whose grad is None is skipped, as PyTorch's Adam does.
    """
    b1, b2 = betas
    state["step"] += 1
    root = math.sqrt(1 - b2 ** state["step"])
    scalars = (b1, 1 - b1, b2, 1 - b2, lr * root / (1 - b1 ** state["step"]), eps * root)
    scratch = np.empty(T._CHUNK, np.float64)  # one chunk of any float dtype, viewed as p's
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            continue  # no gradient reached p (e.g. a frozen backbone): p, m, v stay as they are
        if g.shape != p.data.shape:
            raise ContractError(f"grad shape {g.shape} != param shape {p.data.shape}")
        k1, c1, k2, c2, step, eps_t = (p.data.dtype.type(c) for c in scalars)
        for pc, m, v, gc in T.flat_chunks(p.data, state["m"][i], state["v"][i], g):
            s = (scratch.view(pc.dtype)[:pc.size].reshape(pc.shape) if pc.size <= T._CHUNK
                 else np.empty_like(pc))  # flat_chunks hands a non-contiguous p over whole
            m *= k1
            m += np.multiply(c1, gc, out=s)
            v *= k2
            np.multiply(c2, gc, out=s)
            v += np.multiply(s, gc, out=s)
            np.sqrt(v, out=s)
            s += eps_t
            pc -= np.multiply(np.divide(m, s, out=s), step, out=s)


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
    if np.size(labels) == 0:
        raise ContractError("balanced_accuracy needs at least one sample")
    recalls = per_class_recall(predictions, labels, num_classes)
    return float(np.mean([r for r in recalls if r is not None]))


def per_class_recall(predictions, labels, num_classes: int) -> "list[float | None]":
    """Recall of each class; None for a class absent from labels."""
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    out = []
    for c in range(num_classes):
        sel = labels == c
        out.append(float((predictions[sel] == c).mean()) if sel.any() else None)
    return out


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


def _model_input(batch):
    """An images batch becomes a Tensor; a FeaturePyramid batch goes in as it is."""
    return batch if isinstance(batch, FeaturePyramid) else Tensor(batch)


def predict(model: DuoFormer, inputs: "np.ndarray | FeaturePyramid",
            batch_size: int = 64) -> np.ndarray:
    """Eval-mode argmax predictions, batched.

    inputs: images [n, H, W, 3], or a FeaturePyramid of precomputed
    features for n samples (indexed along its batch axis). A non-finite
    logit is a NumericError, not a prediction.
    """
    n = len(inputs)
    was_training = model.training
    model.eval()
    preds = []
    try:
        with T.no_grad():
            for i in range(0, n, batch_size):
                logits = model(_model_input(inputs[i:i + batch_size]))
                if not np.isfinite(logits.data).all():
                    raise NumericError(f"non-finite logits in the batch from sample {i}")
                preds.append(np.argmax(logits.data, axis=1))
    finally:
        model.train(was_training)
    return np.concatenate(preds) if preds else np.empty(0, dtype=np.int64)


def evaluate(model: DuoFormer, inputs: "np.ndarray | FeaturePyramid", labels: np.ndarray,
             batch_size: int = 64) -> dict:
    preds = predict(model, inputs, batch_size)
    k = model.cfg.num_classes
    return {
        "balanced_accuracy": balanced_accuracy(preds, labels, k),
        "accuracy": float((preds == labels).mean()),
        "per_class_recall": per_class_recall(preds, labels, k),
    }


def train(model: DuoFormer, inputs: "np.ndarray | FeaturePyramid", labels: np.ndarray,
          cfg: TrainConfig, out_dir: "str | None" = None, splits=None, log=None) -> RunRecord:
    """Run the full protocol; returns the record with test metrics filled in.

    inputs: images [n, H, W, 3], or a FeaturePyramid of precomputed
    features for all n samples; training then bypasses (and never updates)
    the backbone.

    splits: optional (train_idx, val_idx, test_idx); when omitted, a
    stratified split seeded by cfg.seed is used. Caller owns disjointness
    when passing explicit splits.
    """
    cfg.validate()
    if len(inputs) != len(labels):
        raise ContractError(f"input batch {len(inputs)} != {len(labels)} labels")
    if splits is None:
        splits = split_dataset(labels, cfg.val_fraction, cfg.test_fraction, cfg.seed)
    train_idx, val_idx, test_idx = (np.asarray(s) for s in splits)
    if len(train_idx) < 2:
        raise ContractError(f"training split has {len(train_idx)} samples; "
                            "train-mode BN needs at least 2")
    for name, idx in (("validation", val_idx), ("test", test_idx)):
        if not len(idx):
            raise ContractError(f"{name} split has no samples")

    params = model.parameters()
    state = adam_init(params)
    n = len(train_idx)  # a size-1 remainder batch is skipped, so it takes no step
    total_steps = cfg.max_epochs * (n // cfg.batch_size + (n % cfg.batch_size > 1))
    shuffle_stream = SeedStream(cfg.seed).child("shuffle")

    record = RunRecord()
    best_score = -float("inf")
    best_state = None
    jsonl = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.txt"), "w") as f:
            f.write(serialize_config(model.cfg, cfg))
        jsonl = open(os.path.join(out_dir, "run.jsonl"), "w")

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
                logits = model(_model_input(inputs[batch]))
                loss = T.cross_entropy(logits, labels[batch])
                if not np.isfinite(loss.data):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, batch {b // cfg.batch_size}")
                loss.backward()
                losses.append(float(loss.data))
                lr = onecycle_lr(global_step, total_steps, cfg)
                adam_step(params, [p.grad for p in params], state, lr,
                          betas=cfg.betas)
                global_step += 1

            val_preds = predict(model, inputs[val_idx], cfg.batch_size)
            val_bacc = balanced_accuracy(val_preds, labels[val_idx], model.cfg.num_classes)
            rec = EpochRecord(epoch=epoch, train_loss=float(np.mean(losses)),
                              val_balanced_acc=val_bacc, lr=lr,
                              seconds=time.perf_counter() - t0)
            record.epochs.append(rec)
            if jsonl is not None:
                jsonl.write(json.dumps(asdict(rec), allow_nan=False) + "\n")
                jsonl.flush()
            if log is not None:
                log(f"epoch {epoch}: loss {rec.train_loss:.4f} "
                    f"val_bacc {val_bacc:.4f} lr {lr:.2e}")

            if val_bacc > best_score:  # a tie is no improvement
                best_score = val_bacc
                record.best_epoch = epoch
                best_state = {k: v.copy() for k, v in model.state_dict().items()}
                if out_dir is not None:
                    save_checkpoint(os.path.join(out_dir, "best.dfc"), model, cfg)
            elif epoch - record.best_epoch >= cfg.patience:
                break
    finally:
        if jsonl is not None:
            jsonl.close()

    if out_dir is not None:
        save_checkpoint(os.path.join(out_dir, "last.dfc"), model, cfg)
    if best_state is not None:
        model.load_state_dict(best_state)
    test_metrics = evaluate(model, inputs[test_idx], labels[test_idx], cfg.batch_size)
    record.test_balanced_acc = test_metrics["balanced_accuracy"]
    record.test_acc = test_metrics["accuracy"]
    record.test_per_class_recall = test_metrics["per_class_recall"]
    return record
