"""Command-line entry point.

Subcommands: gen-synthetic, tokenize, train, eval, gradcheck, ablate,
export-pyramid.

Exit codes (stable contract):
  0  success
  2  configuration problem (bad flags, bad config file, geometry mismatch)
  3  I/O or file-format problem (missing paths, corrupt .dft/.dfc files)
  4  numeric failure (non-finite loss or statistics)

`gradcheck` additionally exits 1 when the check itself fails — the run
completed, but a parameter group exceeded the tolerance.

`--deterministic` re-execs the interpreter with BLAS thread pools pinned to one
thread: the pinning env vars act only when numpy is first imported, which has
happened by the time flags are parsed. Seeds are untouched; the flag only
removes thread-count nondeterminism. `ablate` needs no flag: every run trains
in a spawned worker with single-thread BLAS, one worker per available CPU.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import tensor as T
from .ablate import SUITE_NAMES, SUITE_TRAIN, THREAD_VARS, format_table, run_suite
from .backbone import FeaturePyramid, load_pyramid, save_pyramid
from .config import parse_config
from .data import gen_synthetic, load_dataset, split_dataset
from .errors import (ConfigError, ContractError, DimensionError, FormatError,
                     NumericError)
from .gradcheck import grad_check_report
from .model import DuoFormer, load_checkpoint
from .serialize import load_tensor, save_tensor
from .tensor import Tensor, no_grad
from .trainer import evaluate, train

_GUARD = "DUOFORMER_DETERMINISTIC"


def _reexec_deterministic(argv):
    env = dict(os.environ, **dict.fromkeys(THREAD_VARS + (_GUARD,), "1"))
    os.execve(sys.executable, [sys.executable, "-m", "duoformer.cli"] + argv, env)


def _log(msg: str) -> None:
    print(msg, flush=True)  # progress lines should survive piped/buffered stdout


def _read_config(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise FormatError(f"cannot read config {path}: {e}") from e
    return parse_config(text)


def _check_geometry(images, labels, input_size: int, num_classes: int) -> None:
    if images.shape[1] != input_size:
        raise ConfigError(f"dataset images are {images.shape[1]} px but the model "
                          f"expects input_size={input_size}")
    seen = int(labels.max()) + 1 if len(labels) else 0
    if seen > num_classes:
        raise ConfigError(f"dataset has labels up to {seen - 1} but the model "
                          f"has num_classes={num_classes}")


# ---- subcommands ---------------------------------------------------------------


def cmd_gen_synthetic(args) -> int:
    out = gen_synthetic(args.out, args.classes, args.samples, args.size, args.seed)
    print(f"wrote {args.samples} samples, {args.classes} classes, "
          f"{args.size} px -> {out}")
    return 0


def cmd_tokenize(args) -> int:
    model_cfg, _ = _read_config(args.config)
    model = DuoFormer(model_cfg).eval()
    if args.image is not None:
        arr = load_tensor(args.image)
        x = Tensor(arr[None] if arr.ndim == 3 else arr)
    else:
        x = load_pyramid(args.pyramid)
    mst = model.tokens(model.pyramid_from(x))
    tokens = mst.tokens.data
    if tokens.shape[0] == 1:
        tokens = tokens[0]  # single image -> [S, N, D]
    save_tensor(args.out, np.ascontiguousarray(tokens))
    layout_path = args.out + ".layout.txt"
    with open(layout_path, "w") as f:
        f.write("# stage, per-patch grid side P', tokens per patch P'^2\n")
        for idx, pp, count in mst.scale_layout:
            f.write(f"stage = {idx}, grid = {pp}, tokens = {count}\n")
    print(f"wrote {args.out} shape {tuple(tokens.shape)} "
          f"(S={mst.scale_extent}) and {layout_path}")
    return 0


def cmd_train(args) -> int:
    model_cfg, train_cfg = _read_config(args.config)
    if args.seed is not None:
        model_cfg = replace(model_cfg, seed=args.seed)
        train_cfg = replace(train_cfg, seed=args.seed)
    images, labels = load_dataset(args.data)
    _check_geometry(images, labels, model_cfg.input_size, model_cfg.num_classes)
    model = DuoFormer(model_cfg)
    # precomputed features bypass the backbone, which then stays frozen
    inputs = images if args.pyramid is None else load_pyramid(args.pyramid)
    rec = train(model, inputs, labels, train_cfg, out_dir=args.out, log=_log)
    print(f"best val balanced accuracy: {rec.best_val:.4f} (epoch {rec.best_epoch})")
    print(f"test balanced accuracy: {rec.test_balanced_acc:.4f}")
    return 0


def cmd_eval(args) -> int:
    model, train_cfg = load_checkpoint(args.checkpoint)
    images, labels = load_dataset(args.data)
    _check_geometry(images, labels, model.cfg.input_size, model.cfg.num_classes)
    # same seeded split the training run used, so scores line up with its print
    _, _, test_idx = split_dataset(labels, train_cfg.val_fraction,
                                   train_cfg.test_fraction, train_cfg.seed)
    metrics = evaluate(model, images[test_idx], labels[test_idx],
                       batch_size=train_cfg.batch_size)
    print(f"test balanced accuracy: {metrics['balanced_accuracy']:.4f}")
    print(f"test accuracy: {metrics['accuracy']:.4f}")
    for c, r in enumerate(metrics["per_class_recall"]):
        print(f"recall[{c}]: {'n/a' if r is None else f'{r:.4f}'}")
    out = args.out or os.path.join(os.path.dirname(args.checkpoint) or ".",
                                   "metrics.json")
    payload = dict(metrics, checkpoint=os.path.abspath(args.checkpoint),
                   data=os.path.abspath(args.data), n_test=int(len(test_idx)))
    with open(out, "w") as f:
        json.dump(payload, f, indent=2)
    print(f"wrote {out}")
    return 0


def cmd_gradcheck(args) -> int:
    if not (0 < args.tol < np.inf):
        raise ConfigError(f"--tol must be positive and finite, got {args.tol}")
    model_cfg, _ = _read_config(args.config)
    # central differences need f64 headroom regardless of the configured dtype
    model_cfg = replace(model_cfg, dtype="f64", seed=args.seed)
    model = DuoFormer(model_cfg)
    model.train()
    rng = np.random.default_rng(args.seed)
    # Fresh init is a degenerate point: stacked sigma=0.02 projections leave
    # many true gradients at 1e-7..1e-9, below the central-difference noise
    # floor, so relative error is meaningless there. Perturb to a generic
    # nearby point before checking.
    for p in model.parameters():
        p.data += rng.normal(scale=0.1, size=p.data.shape)
    # batch of 2: smallest batch train-mode BN accepts
    images = Tensor(rng.uniform(size=(2, model_cfg.input_size, model_cfg.input_size, 3)))
    labels = rng.integers(model_cfg.num_classes, size=2)

    def loss(_params):
        return T.cross_entropy(model(images), labels)

    report = grad_check_report(loss, dict(model.named_parameters()),
                               h=args.eps, sample=args.samples,
                               rng=np.random.default_rng(args.seed + 1))
    width = max(len(name) for name in report)
    failed = 0
    for name in sorted(report):
        err = report[name]
        mark = "" if err < args.tol else "  FAIL"
        print(f"{name:<{width}}  {err:.3e}{mark}")
        failed += err >= args.tol
    worst = max(report, key=report.get)
    print(f"worst: {worst} {report[worst]:.3e} (tolerance {args.tol:g})")
    if failed:
        print(f"FAIL: {failed} parameter group(s) exceed {args.tol:g}")
        return 1
    print("PASS")
    return 0


def cmd_ablate(args) -> int:
    images, labels = load_dataset(args.data)
    # patience >= max_epochs never stops early, so the cap changes no run
    train_cfg = replace(SUITE_TRAIN, batch_size=args.batch_size, max_epochs=args.max_epochs,
                        patience=min(args.patience, args.max_epochs), max_lr=args.max_lr)
    report = run_suite(args.suite, images, labels, out_dir=args.out,
                       train_cfg=train_cfg, log=_log)
    print(format_table(report))
    print(f"wrote {os.path.join(args.out, 'report.txt')} and report.json")
    return 0


def cmd_export_pyramid(args) -> int:
    if args.batch_size < 1:
        raise ConfigError(f"--batch-size must be >= 1, got {args.batch_size}")
    model_cfg, _ = _read_config(args.config)
    images, labels = load_dataset(args.data)
    _check_geometry(images, labels, model_cfg.input_size, model_cfg.num_classes)
    if not len(images):
        raise ContractError(f"dataset {args.data} has no images")
    model = DuoFormer(model_cfg).eval()  # batch-stats BN would leak chunk boundaries
    chunks = {i: [] for i in model.stage_indices}
    with no_grad():  # features only: no batch needs a graph
        for lo in range(0, len(images), args.batch_size):
            batch = Tensor(images[lo:lo + args.batch_size])
            for idx, feat in model.pyramid_from(batch).stages:
                chunks[idx].append(feat.data)
    stages = [(i, Tensor(np.concatenate(chunks[i], axis=0))) for i in model.stage_indices]
    save_pyramid(args.out, FeaturePyramid(stages, input_size=model_cfg.input_size))
    shapes = ", ".join(f"stage{i} {tuple(t.shape)}" for i, t in stages)
    print(f"wrote {args.out}: {shapes}")
    return 0


# ---- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="duoformer",
        description="Multi-scale dual-attention transformer: data generation, "
                    "training, evaluation, gradient verification, ablations.")
    p.add_argument("--deterministic", action="store_true",
                   help="pin BLAS pools to one thread (re-execs; default off)")
    sub = p.add_subparsers(dest="command", required=True, metavar="command")

    g = sub.add_parser("gen-synthetic", help="write a synthetic dataset directory")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--classes", type=int, default=4, help="class count (default 4)")
    g.add_argument("--samples", type=int, default=256, help="sample count (default 256)")
    g.add_argument("--size", type=int, default=64, help="image side in px (default 64)")
    g.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    g.set_defaults(fn=cmd_gen_synthetic)

    t = sub.add_parser("tokenize", help="write the [S,N,D] multi-scale token tensor "
                                        "for one image or pyramid")
    t.add_argument("--config", required=True, help="key=value config file")
    src = t.add_mutually_exclusive_group(required=True)
    src.add_argument("--image", help=".dft image [H,W,3] or [B,H,W,3]")
    src.add_argument("--pyramid", help=".dfc feature pyramid (bypasses the backbone)")
    t.add_argument("--out", required=True, help="output .dft path; a .layout.txt "
                                                "sidecar is written next to it")
    t.set_defaults(fn=cmd_tokenize)

    tr = sub.add_parser("train", help="train on a dataset directory")
    tr.add_argument("--config", required=True, help="key=value config file")
    tr.add_argument("--data", required=True, help="dataset directory")
    tr.add_argument("--out", required=True, help="run directory (run.jsonl, best.dfc, last.dfc)")
    tr.add_argument("--pyramid", default=None,
                    help="optional precomputed .dfc feature pyramid for the whole "
                         "dataset; the backbone is bypassed and stays frozen")
    tr.add_argument("--seed", type=int, default=None,
                    help="override the config seed (default: use config)")
    tr.set_defaults(fn=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset's test split")
    ev.add_argument("--checkpoint", required=True, help=".dfc checkpoint")
    ev.add_argument("--data", required=True, help="dataset directory")
    ev.add_argument("--out", default=None,
                    help="metrics.json path (default: next to the checkpoint)")
    ev.set_defaults(fn=cmd_eval)

    gc = sub.add_parser("gradcheck", help="finite-difference check of every "
                                          "parameter group (f64 forced)")
    gc.add_argument("--config", required=True, help="key=value config file")
    gc.add_argument("--eps", type=float, default=1e-5,
                    help="central-difference step (default 1e-5)")
    gc.add_argument("--samples", type=int, default=4,
                    help="probed coordinates per parameter (default 4)")
    gc.add_argument("--seed", type=int, default=0, help="probe/model seed (default 0)")
    gc.add_argument("--tol", type=float, default=1e-4,
                    help="max relative error allowed (default 1e-4)")
    gc.set_defaults(fn=cmd_gradcheck)

    ab = sub.add_parser("ablate", help="run a fixed config grid over seeds {0,1,2}")
    ab.add_argument("--suite", required=True, choices=SUITE_NAMES, help="which grid")
    ab.add_argument("--data", required=True, help="dataset directory")
    ab.add_argument("--out", required=True, help="report directory")
    ab.add_argument("--max-epochs", type=int, default=SUITE_TRAIN.max_epochs,
                    help="epoch budget per run (default %(default)s)")
    ab.add_argument("--batch-size", type=int, default=SUITE_TRAIN.batch_size,
                    help="batch size (default %(default)s)")
    ab.add_argument("--patience", type=int, default=SUITE_TRAIN.patience,
                    help="early-stop patience, capped at --max-epochs (default %(default)s)")
    ab.add_argument("--max-lr", type=float, default=SUITE_TRAIN.max_lr,
                    help="one-cycle peak learning rate (default %(default)s)")
    ab.set_defaults(fn=cmd_ablate)

    ex = sub.add_parser("export-pyramid", help="write the frozen backbone's feature "
                                               "pyramid of a whole dataset")
    ex.add_argument("--config", required=True, help="key=value config file")
    ex.add_argument("--data", required=True, help="dataset directory")
    ex.add_argument("--out", required=True, help="output .dfc path, read by --pyramid")
    ex.add_argument("--batch-size", type=int, default=64,
                    help="backbone forward chunk (default %(default)s)")
    ex.set_defaults(fn=cmd_export_pyramid)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--deterministic" in argv and not os.environ.get(_GUARD):
        _reexec_deterministic(argv)
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
