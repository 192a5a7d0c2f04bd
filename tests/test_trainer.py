import json
import os

import numpy as np
import numpy.testing as npt
import pytest

from duoformer.config import DuoFormerConfig, TrainConfig, parse_config
from duoformer.data import make_synthetic, split_dataset
from duoformer.errors import ConfigError, ContractError, NumericError
from duoformer.model import DuoFormer, load_checkpoint
from duoformer.tensor import Tensor
from duoformer.trainer import (adam_init, adam_step, balanced_accuracy, evaluate,
                               onecycle_lr, per_class_recall, predict, train)
from duoformer import tensor as T
from duoformer import trainer
from oracles import adam_scalar, balanced_accuracy_confusion


# ---- Adam ---------------------------------------------------------------------


def test_first_step_magnitude_is_lr():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    state = adam_init([p])
    g = np.array([0.4, -0.1, 2.0])
    adam_step([p], [g], state, lr=0.01)
    delta = p.data - np.array([1.0, -2.0, 3.0])
    npt.assert_allclose(np.abs(delta), np.full(3, 0.01), rtol=1e-6)
    npt.assert_array_equal(np.sign(delta), -np.sign(g))


def test_zero_grad_is_exact_noop_from_rest():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    state = adam_init([p])
    adam_step([p], [np.zeros(2)], state, lr=0.5)
    npt.assert_array_equal(p.data, np.array([1.0, 2.0]))


def test_none_grad_treated_as_zero():
    p = Tensor(np.array([3.0]), requires_grad=True)
    state = adam_init([p])
    adam_step([p], [None], state, lr=0.5)
    npt.assert_array_equal(p.data, np.array([3.0]))


def test_none_grad_leaves_param_and_moments_untouched():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = adam_init([p])
    adam_step([p], [np.array([0.5, 0.3])], state, lr=0.1)
    before = [p.data.copy(), state["m"][0].copy(), state["v"][0].copy()]
    assert np.all(before[1] != 0) and np.all(before[2] != 0)
    adam_step([p], [None], state, lr=0.1)
    for got, want in zip([p.data, state["m"][0], state["v"][0]], before):
        npt.assert_array_equal(got, want)


def test_five_step_quadratic_matches_scalar_oracle():
    p = Tensor(np.array(1.0), requires_grad=True)
    state = adam_init([p])
    got = []
    for _ in range(5):
        p.zero_grad()
        (p * p).backward()
        adam_step([p], [p.grad], state, lr=0.1)
        got.append(float(p.data))
    want = adam_scalar(1.0, lambda th: 2.0 * th, lr=0.1, steps=5)
    npt.assert_allclose(np.array(got), want, atol=1e-12)


def test_adam_rejects_shape_mismatch():
    p = Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ContractError, match="shape"):
        adam_step([p], [np.zeros(4)], adam_init([p]), lr=0.1)


def test_params_update_independently():
    a = Tensor(np.array([1.0]), requires_grad=True)
    b = Tensor(np.array([1.0]), requires_grad=True)
    state = adam_init([a, b])
    adam_step([a, b], [np.array([1.0]), np.zeros(1)], state, lr=0.1)
    assert a.data[0] != 1.0 and b.data[0] == 1.0


# ---- OneCycle -----------------------------------------------------------------


def _tc(**over):
    kw = dict(seed=0)
    kw.update(over)
    return TrainConfig(**kw)


def test_onecycle_endpoints():
    cfg = _tc(max_lr=1e-3, div_factor=25.0, final_div_factor=1e4)
    assert onecycle_lr(0, 100, cfg) == pytest.approx(1e-3 / 25.0, abs=0)
    assert onecycle_lr(99, 100, cfg) == pytest.approx(1e-3 / 1e4, abs=1e-21)


def test_onecycle_attains_max_exactly_once():
    cfg = _tc(max_lr=1e-4, pct_start=0.3)
    total = 100
    lrs = [onecycle_lr(s, total, cfg) for s in range(total)]
    peak = int(round(0.3 * (total - 1)))
    assert lrs[peak] == 1e-4
    assert sum(1 for v in lrs if v == 1e-4) == 1
    assert max(lrs) == 1e-4


def test_onecycle_monotone_warmup_and_anneal():
    cfg = _tc(max_lr=5e-4)
    total = 60
    lrs = [onecycle_lr(s, total, cfg) for s in range(total)]
    peak = int(np.argmax(lrs))
    assert all(lrs[i] < lrs[i + 1] for i in range(peak))
    assert all(lrs[i] > lrs[i + 1] for i in range(peak, total - 1))


def test_onecycle_rejects_out_of_range_steps():
    cfg = _tc()
    with pytest.raises(ContractError):
        onecycle_lr(-1, 10, cfg)
    with pytest.raises(ContractError):
        onecycle_lr(10, 10, cfg)


def test_onecycle_single_step_schedule():
    assert onecycle_lr(0, 1, _tc(max_lr=1e-4)) == 1e-4  # peak collapses onto step 0


# ---- metrics -------------------------------------------------------------------


def test_balanced_accuracy_perfect_and_degenerate():
    labels = np.array([0, 0, 1, 1])
    assert balanced_accuracy(labels, labels, 2) == 1.0
    assert balanced_accuracy(np.zeros(4, dtype=np.int64), labels, 2) == 0.5


def test_balanced_accuracy_weights_classes_not_samples():
    # 9-vs-1 imbalance: per-sample accuracy would be 0.9, per-class mean is 0.5
    labels = np.array([0] * 9 + [1])
    preds = np.zeros(10, dtype=np.int64)
    assert balanced_accuracy(preds, labels, 2) == 0.5
    assert float((preds == labels).mean()) == 0.9


def test_balanced_accuracy_matches_confusion_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(3, 60))
        k = int(rng.integers(2, 5))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        if not labels.size:
            continue
        got = balanced_accuracy(preds, labels, k)
        want = balanced_accuracy_confusion(labels, preds, k)
        assert abs(got - want) <= 1e-12


def test_balanced_accuracy_permutation_invariant():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 3, size=30)
    preds = rng.integers(0, 3, size=30)
    perm = rng.permutation(30)
    assert balanced_accuracy(preds, labels, 3) == balanced_accuracy(preds[perm], labels[perm], 3)


def test_balanced_accuracy_skips_absent_classes():
    labels = np.array([0, 0, 1])
    preds = np.array([0, 2, 1])
    # class 2 never occurs in labels; mean over recalls {0: 0.5, 1: 1.0}
    assert balanced_accuracy(preds, labels, 3) == 0.75


def test_balanced_accuracy_rejects_empty():
    with pytest.raises(ContractError):
        balanced_accuracy(np.empty(0), np.empty(0), 2)


def test_per_class_recall_none_for_absent():
    labels = np.array([0, 0, 1])
    preds = np.array([0, 1, 1])
    assert per_class_recall(preds, labels, 3) == [0.5, 1.0, None]


# ---- training loop -------------------------------------------------------------


TOY_MODEL = dict(input_size=32, patch_count=4, embed_dim=8, heads=2, layers=1,
                 stages=(0, 1, 2), channels=(2, 3, 4, 5), num_classes=2)


def _toy(seed=0, **over):
    kw = dict(TOY_MODEL)
    kw.update(over)
    return DuoFormer(DuoFormerConfig(seed=seed, **kw))


def _toy_data(samples=24, classes=2, seed=0):
    images, labels, _ = make_synthetic(classes=classes, samples=samples, size=32, seed=seed)
    return images, labels


def test_descent_direction_over_seeds():
    """One small Adam step from init must reduce the batch loss (5 seeds).

    f64 end to end: the deltas are ~1e-7 and float32 rounding would mask them.
    """
    images, labels = _toy_data(8)
    x, y = Tensor(images.astype(np.float64)), labels
    for seed in range(5):
        model = _toy(seed=seed, dtype="f64")
        model.train()
        model.zero_grad()
        loss0 = T.cross_entropy(model(x), y)
        loss0.backward()
        params = model.parameters()
        adam_step(params, [p.grad for p in params], adam_init(params), lr=1e-5)
        loss1 = T.cross_entropy(model(x), y)
        assert float(loss1.data) < float(loss0.data), f"seed {seed}"


def test_train_is_deterministic_under_fixed_seed(tmp_path):
    images, labels = _toy_data(24)
    cfg = TrainConfig(batch_size=8, max_epochs=2, patience=2, max_lr=1e-3, seed=0)
    rec1 = train(_toy(seed=0), images, labels, cfg)
    rec2 = train(_toy(seed=0), images, labels, cfg)
    assert rec1.comparable() == rec2.comparable()


def test_train_respects_max_epochs():
    images, labels = _toy_data(18)
    cfg = TrainConfig(batch_size=6, max_epochs=3, patience=3, max_lr=1e-3, seed=0)
    rec = train(_toy(), images, labels, cfg)
    assert len(rec.epochs) == 3
    assert [e.epoch for e in rec.epochs] == [0, 1, 2]


def test_train_stops_early_on_plateau():
    images, labels = _toy_data(18)
    # lr ~ 0 freezes the weights, but train-mode batch norm still updates its
    # running statistics. A learnable scale token on a precomputed pyramid
    # reads no batch norm, so epoch 1 cannot improve on epoch 0.
    model = _toy(scale_token_mode="learnable")
    pyr = _full_pyramid(model, images)
    cfg = TrainConfig(batch_size=6, max_epochs=10, patience=1, max_lr=1e-12, seed=0)
    rec = train(model, pyr, labels, cfg)
    assert len(rec.epochs) == 2
    assert rec.best_epoch == 0


def _script_val_scores(monkeypatch, scores):
    """train() reads these validation scores in order, then 0.0 (the test split too)."""
    calls = iter(scores)
    monkeypatch.setattr(trainer, "balanced_accuracy", lambda *args: next(calls, 0.0))


def test_early_stopper_strict_improvement_sequence(monkeypatch):
    # plateau [0.5, 0.6, 0.6, 0.6] with patience 2: best stays at the first
    # 0.6 and training stops two epochs later, before max_epochs
    _script_val_scores(monkeypatch, [0.5, 0.6, 0.6, 0.6])
    images, labels = _toy_data(24)
    cfg = TrainConfig(batch_size=8, max_epochs=8, patience=2, max_lr=1e-3, seed=0)
    rec = train(_toy(), images, labels, cfg)
    assert [e.val_balanced_acc for e in rec.epochs] == [0.5, 0.6, 0.6, 0.6]
    assert rec.best_epoch == 1


def test_early_stopper_resets_on_improvement(monkeypatch):
    # the dip at epoch 2 does not stop the run, and patience 2 counts again
    # from the new best at epoch 3: epochs 4 and 5 read 0.0, then it stops
    _script_val_scores(monkeypatch, [0.1, 0.2, 0.15, 0.3])
    images, labels = _toy_data(24)
    cfg = TrainConfig(batch_size=8, max_epochs=8, patience=2, max_lr=1e-3, seed=0)
    rec = train(_toy(), images, labels, cfg)
    assert [e.val_balanced_acc for e in rec.epochs] == [0.1, 0.2, 0.15, 0.3, 0.0, 0.0]
    assert rec.best_epoch == 3


def test_train_restores_best_checkpoint(tmp_path):
    images, labels = _toy_data(24)
    out = tmp_path / "run"
    cfg = TrainConfig(batch_size=8, max_epochs=3, patience=3, max_lr=1e-3, seed=0)
    model = _toy()
    train(model, images, labels, cfg, out_dir=str(out))
    best, _ = load_checkpoint(out / "best.dfc")
    for name, arr in best.state_dict().items():
        npt.assert_array_equal(arr, model.state_dict()[name], err_msg=name)
    assert (out / "last.dfc").exists()


def test_train_writes_the_config_it_ran_into_the_run_directory(tmp_path):
    images, labels = _toy_data(18)
    out = tmp_path / "run"
    cfg = TrainConfig(batch_size=6, max_epochs=1, patience=1, max_lr=1e-3, seed=3)
    model = _toy(seed=3)
    train(model, images, labels, cfg, out_dir=str(out))
    assert parse_config((out / "config.txt").read_text()) == (model.cfg, cfg)


def test_train_writes_epoch_records(tmp_path):
    images, labels = _toy_data(18)
    out = tmp_path / "run"
    cfg = TrainConfig(batch_size=6, max_epochs=2, patience=2, max_lr=1e-3, seed=0)
    rec = train(_toy(), images, labels, cfg, out_dir=str(out))
    lines = [json.loads(s) for s in (out / "run.jsonl").read_text().splitlines()]
    assert len(lines) == len(rec.epochs) == 2
    for line in lines:
        assert set(line) == {"epoch", "train_loss", "val_balanced_acc", "lr", "seconds"}


def test_train_fills_test_metrics():
    images, labels = _toy_data(24)
    cfg = TrainConfig(batch_size=8, max_epochs=2, patience=2, max_lr=1e-3, seed=0)
    rec = train(_toy(), images, labels, cfg)
    assert np.isfinite(rec.test_balanced_acc)
    assert np.isfinite(rec.test_acc)
    assert len(rec.test_per_class_recall) == 2


def test_train_accepts_explicit_splits():
    images, labels = _toy_data(24)
    cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1, max_lr=1e-3, seed=0)
    splits = (np.arange(16), np.arange(16, 20), np.arange(20, 24))
    rec = train(_toy(), images, labels, cfg, splits=splits)
    assert len(rec.epochs) == 1


def test_train_skips_singleton_batch():
    images, labels = _toy_data(24)
    # 17 train samples with batch 8 -> final batch of 1 must be skipped, not crash
    cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1, max_lr=1e-3, seed=0)
    splits = (np.arange(17), np.arange(17, 21), np.arange(21, 24))
    rec = train(_toy(), images, labels, cfg, splits=splits)
    assert len(rec.epochs) == 1


def test_non_finite_loss_raises_numeric_error():
    images, labels = _toy_data(12)
    model = _toy()
    model.head.b.data[:] = np.float32(np.inf)
    cfg = TrainConfig(batch_size=6, max_epochs=1, patience=1, max_lr=1e-3, seed=0)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="epoch 0"):
        train(model, images, labels, cfg)


def test_predict_and_evaluate_consistency():
    images, labels = _toy_data(12)
    model = _toy()
    preds = predict(model, images, batch_size=5)
    metrics = evaluate(model, images, labels, batch_size=5)
    assert preds.shape == (12,)
    assert metrics["balanced_accuracy"] == balanced_accuracy(preds, labels, 2)
    recalls = [r for r in metrics["per_class_recall"] if r is not None]
    assert np.isclose(np.mean(recalls), metrics["balanced_accuracy"])


@pytest.mark.parametrize("training", [True, False])
def test_failed_predict_restores_mode(training):
    model = _toy().train(training)
    images, _, _ = make_synthetic(classes=2, samples=3, size=64, seed=0)
    with pytest.raises(ConfigError, match="input_size"):
        predict(model, images)  # 64 px images on a 32 px model
    assert all(m.training is training for m in model.modules())


# ---- frozen-backbone (pyramid) training -----------------------------------------


def _full_pyramid(model, images):
    model.eval()
    pyr = model.backbone(Tensor(images))
    model.train()
    return pyr


def test_train_from_pyramid_freezes_backbone():
    images, labels = _toy_data(24)
    model = _toy()
    pyr = _full_pyramid(model, images)
    before = {k: v.copy() for k, v in model.state_dict().items()}
    cfg = TrainConfig(batch_size=8, max_epochs=2, patience=2, max_lr=1e-3, seed=0)
    rec = train(model, pyr, labels, cfg)
    assert len(rec.epochs) == 2 and np.isfinite(rec.test_balanced_acc)
    moved = {k for k, v in model.state_dict().items() if not np.array_equal(v, before[k])}
    assert not any(k.startswith("backbone.") for k in moved)
    assert any(k.startswith("encoder.") for k in moved)
    assert any(k.startswith("head.") for k in moved)


def test_train_pyramid_batch_must_match_labels():
    images, labels = _toy_data(24)
    model = _toy()
    pyr = _full_pyramid(model, images[:20])
    cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1, max_lr=1e-3, seed=0)
    with pytest.raises(ContractError, match="input batch"):
        train(model, pyr, labels, cfg)


def test_train_image_count_must_match_labels():
    images, labels = _toy_data(24)
    cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1, max_lr=1e-3, seed=0)
    with pytest.raises(ContractError, match="input batch"):
        train(_toy(), images, labels[:-1], cfg)


def test_pyramid_predict_matches_image_predict():
    """With the backbone in eval mode the two input routes agree exactly."""
    images, labels = _toy_data(12)
    model = _toy()
    model.eval()
    pyr = model.backbone(Tensor(images))
    npt.assert_array_equal(predict(model, pyr, 5),
                           predict(model, images, batch_size=5))


# ---- schedule length ----------------------------------------------------------------


def test_schedule_ends_on_final_lr_when_remainder_batch_is_skipped():
    """17 samples at batch 8: the size-1 remainder takes no step, so it is not counted."""
    images, labels = _toy_data(24)
    idx = np.arange(24)
    cfg = TrainConfig(batch_size=8, max_epochs=2, patience=2, max_lr=5e-3, seed=0)
    rec = train(_toy(), images, labels, cfg, splits=(idx[:17], idx[17:], idx[17:]))
    assert rec.epochs[-1].lr == pytest.approx(cfg.max_lr / cfg.final_div_factor)


def test_train_split_below_two_samples_raises():
    images, labels = _toy_data(24)
    idx = np.arange(24)
    cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1, max_lr=1e-3, seed=0)
    with pytest.raises(ContractError, match="training split has 1 samples"):
        train(_toy(), images, labels, cfg, splits=(idx[:1], idx[1:], idx[1:]))


@pytest.mark.parametrize("empty,named", [("validation", "validation"), ("test", "test"),
                                         ("both", "validation")])
def test_train_rejects_an_empty_split_before_any_step(monkeypatch, empty, named):
    steps = []
    monkeypatch.setattr(trainer, "adam_step", lambda *args, **kwargs: steps.append(1))
    cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1, max_lr=1e-3, seed=0)
    if empty == "both":  # 2 samples per class: both 1/6 fractions round to 0 samples
        images, labels = _toy_data(8, classes=4)
        model, splits = _toy(num_classes=4), None
    else:
        images, labels = _toy_data(24)
        idx = np.arange(24)
        model = _toy()
        splits = ((idx[:16], idx[:0], idx[16:]) if empty == "validation"
                  else (idx[:16], idx[16:], idx[:0]))
    with pytest.raises(ContractError, match=f"^{named} split has no samples"):
        train(model, images, labels, cfg, splits=splits)
    assert steps == []


# ---- overfit across seeds ------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 3])
def test_overfit_recipe_reaches_full_train_accuracy_on_other_seeds(seed):
    """The acceptance gate's overfit recipe with only the model/train seed changed.

    The gate runs at seed 0. Without a residual around the patch attention,
    seeds 1 and 3 stalled at train accuracy 0.562 and 0.578.
    """
    images, labels, _ = make_synthetic(classes=4, samples=64, size=32, seed=0)
    idx = np.arange(len(labels))
    cfg = DuoFormerConfig(input_size=32, patch_count=4, embed_dim=16, heads=4, layers=2,
                          stages=(0, 1, 2), channels=(4, 8, 16, 32), num_classes=4,
                          seed=seed)
    model = DuoFormer(cfg)
    tc = TrainConfig(batch_size=16, max_epochs=120, patience=120, max_lr=5e-3, seed=seed)
    train(model, images, labels, tc, splits=(idx, idx, idx))
    assert (predict(model, images, tc.batch_size) == labels).mean() >= 0.99
