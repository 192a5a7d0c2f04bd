"""Ablation suites: fixed config grids trained over a shared seed set.

Each suite trains every configuration in its grid with seeds {0,1,2} on the
provided dataset and reports per-config mean ± std of validation/test
balanced accuracy, parameter count, and wall time — as a text table and as
JSON. Grids are sized for the 64 px synthetic dataset. Runs train in spawned
worker processes with single-thread BLAS, one per usable CPU; a script that
calls `run_suite` needs an `if __name__ == "__main__":` guard, as any spawn pool.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

import numpy as np

from .backbone import STAGE_INDICES
from .config import DuoFormerConfig, TrainConfig
from .errors import ConfigError
from .model import DuoFormer, count_parameters
from .trainer import train

# BLAS/OpenMP pool sizes. They act only when numpy is first imported, so a
# process is pinned by setting them before it starts.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SUITE_NAMES = ("attention", "scale-token", "stages", "heads-layers")
SEED_SET = (0, 1, 2)

# Training settings every suite run uses unless the caller overrides them.
SUITE_TRAIN = TrainConfig(batch_size=32, max_epochs=30, patience=10, max_lr=3e-3)

# Desk-scale base model; each suite swaps out the axis it ablates.
_BASE = dict(patch_count=4, embed_dim=16, heads=4, layers=2, stages=(1, 2, 3),
             channels=(8, 16, 32, 64), scale_token_mode="fused",
             readout="scale_token_patch_attn", attention_mode="duo")


def suite_grid(suite: str, input_size: int, num_classes: int):
    """Ordered (config_id, DuoFormerConfig) pairs; the runner fills in seeds."""

    def base(**over) -> DuoFormerConfig:
        kw = dict(_BASE, input_size=input_size, num_classes=num_classes)
        kw.update(over)
        return DuoFormerConfig(**kw).validate()

    if suite == "attention":
        return [
            ("duo", base()),
            ("scale_only", base(attention_mode="scale_only", readout="scale_attn_only_fc")),
            ("patch_only", base(attention_mode="patch_only", readout="avg_tokens",
                                scale_token_mode="none")),
        ]
    if suite == "scale-token":
        return [
            ("fused", base()),
            ("learnable", base(scale_token_mode="learnable")),
            ("first_token", base(readout="first_token", scale_token_mode="none")),
            ("avg_tokens", base(readout="avg_tokens", scale_token_mode="none")),
        ]
    if suite == "stages":
        subsets = [(3,), (2, 3), (1, 3), (1, 2, 3), STAGE_INDICES]
        return [("stages_" + "".join(map(str, s)), base(stages=s)) for s in subsets]
    if suite == "heads-layers":
        # embed 12 on purpose: heads=8 does not divide it, so the grid skips
        # that head count instead of building a config validate() would reject.
        grid = []
        for layers in (2, 4, 6):
            for heads in (2, 4, 8):
                if 12 % heads:
                    continue
                grid.append((f"L{layers}_h{heads}",
                             base(embed_dim=12, heads=heads, layers=layers)))
        return grid
    raise ConfigError(f"unknown suite {suite!r}; valid: {', '.join(SUITE_NAMES)}")


@dataclass
class RunResult:
    config_id: str
    seed: int
    val_balanced_acc: float
    test_balanced_acc: float
    params: int
    seconds: float


# Worker-process dataset, set once per worker so jobs don't each carry a copy.
_DATA = None


def _init_pool(images, labels):
    global _DATA
    _DATA = (images, labels)


def _single_run(job) -> RunResult:
    config_id, model_cfg, train_cfg = job
    images, labels = _DATA
    t0 = time.perf_counter()
    model = DuoFormer(model_cfg)
    rec = train(model, images, labels, train_cfg)
    return RunResult(config_id, model_cfg.seed, rec.best_val, rec.test_balanced_acc,
                     count_parameters(model)["total"], time.perf_counter() - t0)


@contextmanager
def _worker_pool(workers: int, images, labels):
    """Spawned workers with single-thread BLAS (a forked one keeps the parent's pool)."""
    saved = {var: os.environ[var] for var in THREAD_VARS if var in os.environ}
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context("spawn"),
                                 initializer=_init_pool,
                                 initargs=(images, labels)) as pool:
            yield pool
    finally:
        for var in THREAD_VARS:
            os.environ.pop(var, None)
        os.environ.update(saved)


def run_suite(suite: str, images: np.ndarray, labels: np.ndarray,
              out_dir: "str | None" = None, seeds=SEED_SET,
              train_cfg: TrainConfig = SUITE_TRAIN, log=None) -> dict:
    """Run one suite end to end; `log` gets a line per finished run. Returns the report."""
    train_cfg.validate()
    grid = suite_grid(suite, int(images.shape[1]), int(labels.max()) + 1)
    jobs = [(config_id, replace(cfg, seed=s), replace(train_cfg, seed=s))
            for config_id, cfg in grid for s in seeds]

    results = []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with _worker_pool(min(len(jobs), cpus or 1), images, labels) as pool:
        for res in pool.map(_single_run, jobs):
            if log is not None:
                log(f"{res.config_id} seed {res.seed}: "
                    f"val {res.val_balanced_acc:.3f} test {res.test_balanced_acc:.3f} "
                    f"({res.seconds:.0f}s)")
            results.append(res)

    report = _summarize(suite, grid, results, seeds)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as f:
            json.dump(report, f, indent=2)
        with open(os.path.join(out_dir, "report.txt"), "w") as f:
            f.write(format_table(report))
    return report


def _summarize(suite, grid, results, seeds) -> dict:
    by_id: "dict[str, list[RunResult]]" = {}
    for r in results:
        by_id.setdefault(r.config_id, []).append(r)
    rows = []
    for config_id, _ in grid:
        rs = sorted(by_id[config_id], key=lambda r: r.seed)
        val = np.array([r.val_balanced_acc for r in rs])
        test = np.array([r.test_balanced_acc for r in rs])
        rows.append({
            "config_id": config_id,
            "val_mean": float(val.mean()), "val_std": float(val.std()),
            "test_mean": float(test.mean()), "test_std": float(test.std()),
            "params": rs[0].params,
            "seconds": float(sum(r.seconds for r in rs)),
            "per_seed": [asdict(r) for r in rs],
        })
    return {"suite": suite, "seed_set": list(seeds), "rows": rows}


def format_table(report: dict) -> str:
    header = (f"suite: {report['suite']}  "
              f"(seeds {', '.join(str(s) for s in report['seed_set'])})")
    cols = f"{'config':<14} {'val bacc':<16} {'test bacc':<16} {'params':>8} {'seconds':>8}"
    lines = [header, cols, "-" * len(cols)]
    for row in report["rows"]:
        lines.append(f"{row['config_id']:<14} "
                     f"{row['val_mean']:.3f} ± {row['val_std']:.3f}    "
                     f"{row['test_mean']:.3f} ± {row['test_std']:.3f}    "
                     f"{row['params']:>8d} {row['seconds']:>8.0f}")
    return "\n".join(lines) + "\n"
