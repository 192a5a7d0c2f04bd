"""The suite runner: spawned single-thread-BLAS workers giving in-process results."""

import os
from dataclasses import replace

import pytest

from duoformer import ablate
from duoformer.config import TrainConfig
from duoformer.data import make_synthetic
from duoformer.errors import ConfigError
from duoformer.model import DuoFormer, count_parameters
from duoformer.trainer import train

TINY_TRAIN = TrainConfig(batch_size=8, max_epochs=2, patience=2, max_lr=1e-3)


@pytest.fixture(scope="module")
def tiny_set():
    images, labels, _ = make_synthetic(classes=4, samples=24, size=64, seed=0)
    return images, labels


def test_worker_blas_pinned_whatever_the_parent_has(monkeypatch, tiny_set):
    # conftest pins this process, so raise the parent's value to see what the pool sets
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    with ablate._worker_pool(1, *tiny_set) as pool:
        seen = pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result()
        assert seen == "1"
        assert pool.submit(os.getenv, "MKL_NUM_THREADS").result() == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"  # parent restored
    assert "MKL_NUM_THREADS" not in os.environ


def test_suite_results_equal_in_process_training(tiny_set):
    images, labels = tiny_set
    report = ablate.run_suite("attention", images, labels, seeds=(1,), train_cfg=TINY_TRAIN)
    grid = dict(ablate.suite_grid("attention", 64, 4))
    for row in report["rows"]:
        (run,) = row["per_seed"]
        model = DuoFormer(replace(grid[row["config_id"]], seed=1))
        rec = train(model, images, labels, replace(TINY_TRAIN, seed=1))
        assert run["val_balanced_acc"] == rec.best_val, row["config_id"]
        assert run["test_balanced_acc"] == rec.test_balanced_acc, row["config_id"]
        assert run["params"] == count_parameters(model)["total"], row["config_id"]


def test_bad_train_config_rejected_before_any_worker(monkeypatch, tiny_set):
    def no_pool(*args):
        raise AssertionError("pool started")

    monkeypatch.setattr(ablate, "_worker_pool", no_pool)
    with pytest.raises(ConfigError, match="patience"):
        ablate.run_suite("attention", *tiny_set, train_cfg=replace(TINY_TRAIN, patience=3))
