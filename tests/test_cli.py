"""End-to-end exercises of the command-line interface.

Most tests call main() in-process (fast, monkeypatchable); a couple go
through a real subprocess where process-level behavior (re-exec, console
entry) is the point.
"""

import json
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from duoformer import cli
from duoformer.serialize import load_tensor, save_tensor

TOY_CFG = """\
# 32 px toy geometry on a 2x2 patch grid
input_size = 32
patch_count = 4
embed_dim = 16
heads = 4
layers = 2
stages = 0, 1, 2
channels = 4, 8, 16, 32
num_classes = 4
seed = 0
batch_size = 16
max_epochs = 4
patience = 4
max_lr = 3e-3
"""


@pytest.fixture()
def toy_cfg(tmp_path):
    p = tmp_path / "toy.cfg"
    p.write_text(TOY_CFG)
    return str(p)


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert cli.main(["gen-synthetic", "--out", str(out), "--samples", "48",
                     "--size", "32", "--seed", "0"]) == 0
    return str(out)


# ---- gen-synthetic ---------------------------------------------------------------


def test_gen_synthetic_writes_dataset(dataset):
    images = load_tensor(os.path.join(dataset, "images.dft"))
    labels = load_tensor(os.path.join(dataset, "labels.dft"))
    assert images.shape == (48, 32, 32, 3) and labels.shape == (48,)
    assert os.path.exists(os.path.join(dataset, "manifest.txt"))


def test_gen_synthetic_rerun_is_byte_identical(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (a, b):
        assert cli.main(["gen-synthetic", "--out", out, "--samples", "16",
                         "--size", "32", "--seed", "3"]) == 0
    for name in ("images.dft", "labels.dft", "manifest.txt"):
        with open(os.path.join(a, name), "rb") as fa, \
             open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_gen_synthetic_size_16_exits_2(tmp_path, capsys):
    assert cli.main(["gen-synthetic", "--out", str(tmp_path / "x"),
                     "--size", "16"]) == 2
    assert "32" in capsys.readouterr().err


def test_gen_synthetic_size_no_stage_fits_exits_2(tmp_path, capsys):
    out = tmp_path / "x"
    assert cli.main(["gen-synthetic", "--out", str(out), "--samples", "8",
                     "--size", "33"]) == 2
    assert "divisible" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_gen_synthetic_samples_below_1_exits_2(tmp_path, samples, capsys):
    assert cli.main(["gen-synthetic", "--out", str(tmp_path / "x"),
                     "--samples", samples]) == 2
    assert "samples must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ---- tokenize ---------------------------------------------------------------------


def test_tokenize_single_image(tmp_path, toy_cfg):
    img = tmp_path / "img.dft"
    save_tensor(img, np.random.default_rng(0).random((32, 32, 3)).astype(np.float32))
    out = tmp_path / "tokens.dft"
    assert cli.main(["tokenize", "--config", toy_cfg, "--image", str(img),
                     "--out", str(out)]) == 0
    tokens = load_tensor(out)
    assert tokens.shape == (21, 4, 16)
    layout = (tmp_path / "tokens.dft.layout.txt").read_text()
    assert "stage = 2, grid = 1, tokens = 1" in layout
    assert layout.index("stage = 2") < layout.index("stage = 0")  # deepest first


def test_tokenize_patch_only_writes_one_token_row(tmp_path):
    cfg = tmp_path / "po.cfg"
    cfg.write_text(TOY_CFG + "attention_mode = patch_only\nreadout = avg_tokens\n"
                             "scale_token_mode = none\n")
    img = tmp_path / "img.dft"
    save_tensor(img, np.zeros((32, 32, 3), dtype=np.float32))
    out = tmp_path / "t.dft"
    assert cli.main(["tokenize", "--config", str(cfg), "--image", str(img),
                     "--out", str(out)]) == 0
    assert load_tensor(out).shape == (1, 4, 16)  # S = 1: the deepest stage only
    assert (tmp_path / "t.dft.layout.txt").read_text().splitlines()[1:] == [
        "stage = 2, grid = 1, tokens = 1"]


def test_tokenize_pyramid_matches_image(tmp_path, toy_cfg):
    from duoformer.backbone import save_pyramid
    from duoformer.config import parse_config
    from duoformer.model import DuoFormer
    from duoformer.tensor import Tensor

    image = np.random.default_rng(1).random((32, 32, 3)).astype(np.float32)
    img, pyr = tmp_path / "img.dft", tmp_path / "pyr.dfc"
    save_tensor(img, image)
    model = DuoFormer(parse_config(TOY_CFG)[0]).eval()
    save_pyramid(pyr, model.backbone(Tensor(image[None])))
    for flag, path, out in (("--image", img, "a.dft"), ("--pyramid", pyr, "b.dft")):
        assert cli.main(["tokenize", "--config", toy_cfg, flag, str(path),
                         "--out", str(tmp_path / out)]) == 0
    assert (tmp_path / "a.dft").read_bytes() == (tmp_path / "b.dft").read_bytes()
    assert ((tmp_path / "a.dft.layout.txt").read_text()
            == (tmp_path / "b.dft.layout.txt").read_text())


def test_tokenize_pyramid_wrong_input_size_exits_2(tmp_path, toy_cfg, capsys):
    from duoformer.backbone import FeaturePyramid, save_pyramid
    from duoformer.tensor import Tensor

    # a valid 64 px pyramid for the toy's stages and widths; the toy expects 32 px
    feats = [(i, Tensor(np.zeros((1, 16 >> i, 16 >> i, c), dtype=np.float32)))
             for i, c in zip((0, 1, 2), (4, 8, 16))]
    pyr = tmp_path / "pyr64.dfc"
    save_pyramid(pyr, FeaturePyramid(feats, input_size=64))
    assert cli.main(["tokenize", "--config", toy_cfg, "--pyramid", str(pyr),
                     "--out", str(tmp_path / "t.dft")]) == 2
    assert "input_size" in capsys.readouterr().err


def test_tokenize_pyramid_non_scalar_input_size_exits_3(tmp_path, toy_cfg, capsys):
    from duoformer.serialize import save_tensors

    pyr = tmp_path / "pyr.dfc"
    save_tensors(pyr, {"stage2": np.zeros((1, 2, 2, 16), np.float32),
                       "input_size": np.array([32, 32], np.int64)})
    assert cli.main(["tokenize", "--config", toy_cfg, "--pyramid", str(pyr),
                     "--out", str(tmp_path / "t.dft")]) == 3
    assert "input_size" in capsys.readouterr().err


def test_tokenize_pyramid_unknown_stage_name_exits_3(tmp_path, toy_cfg, capsys):
    from duoformer.serialize import save_tensors

    pyr = tmp_path / "pyr.dfc"  # "³" passes str.isdigit() but not int()
    save_tensors(pyr, {"stage\u00b3": np.zeros((1, 1, 1, 32), np.float32),
                       "input_size": np.array(32, np.int64)})
    assert cli.main(["tokenize", "--config", toy_cfg, "--pyramid", str(pyr),
                     "--out", str(tmp_path / "t.dft")]) == 3
    assert "unexpected entry" in capsys.readouterr().err


# ---- train / eval ------------------------------------------------------------------


def test_train_writes_artifacts_and_eval_matches(tmp_path, toy_cfg, dataset, capsys):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", toy_cfg, "--data", dataset,
                     "--out", str(run)]) == 0
    train_out = capsys.readouterr().out
    for name in ("run.jsonl", "best.dfc", "last.dfc", "config.txt"):
        assert (run / name).exists(), name
    assert cli.main(["eval", "--checkpoint", str(run / "best.dfc"),
                     "--data", dataset]) == 0
    eval_out = capsys.readouterr().out
    # the same seeded test split -> eval reproduces train's final print
    train_line = [l for l in train_out.splitlines() if l.startswith("test balanced")][0]
    eval_line = [l for l in eval_out.splitlines() if l.startswith("test balanced")][0]
    assert train_line == eval_line
    metrics = json.loads((run / "metrics.json").read_text())
    recalls = [r for r in metrics["per_class_recall"] if r is not None]
    npt.assert_allclose(np.mean(recalls), metrics["balanced_accuracy"], atol=1e-12)


def test_train_seed_flag_overrides_config(tmp_path, toy_cfg, dataset):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", toy_cfg, "--data", dataset,
                     "--out", str(run), "--seed", "7"]) == 0
    assert "seed = 7" in (run / "config.txt").read_text()


def test_train_geometry_mismatch_exits_2(tmp_path, toy_cfg, capsys):
    data64 = tmp_path / "d64"
    assert cli.main(["gen-synthetic", "--out", str(data64), "--samples", "16"]) == 0
    assert cli.main(["train", "--config", toy_cfg, "--data", str(data64),
                     "--out", str(tmp_path / "r")]) == 2
    assert "input_size" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "heads = 0", "heads = -4", "embed_dim = 0", "patch_count = 0", "patch_count = -4",
    "max_lr = nan", "max_lr = inf", "beta1 = 2", "beta2 = -1", "div_factor = nan",
    "final_div_factor = inf"])
def test_train_config_value_no_run_can_use_exits_2(tmp_path, dataset, line, capsys):
    """A value no run can use is a config error: no traceback, no non-finite model."""
    key = line.split(" = ")[0]
    kept = [k for k in TOY_CFG.splitlines() if not k.startswith(f"{key} ")]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(kept + [line, ""]))
    assert cli.main(["train", "--config", str(cfg), "--data", dataset,
                     "--out", str(tmp_path / "r")]) == 2
    assert key in capsys.readouterr().err


def test_train_shallow_fused_subset_exits_2(tmp_path, dataset, capsys):
    cfg = tmp_path / "shallow.cfg"
    cfg.write_text(TOY_CFG.replace("stages = 0, 1, 2", "stages = 0"))
    assert cli.main(["train", "--config", str(cfg), "--data", dataset,
                     "--out", str(tmp_path / "r")]) == 2
    assert "P'" in capsys.readouterr().err


def test_train_48px_three_stage_fused_config(tmp_path):
    # 48 px is whole through stage 2 (48 / 16 = 3), the deepest stage this config builds
    data = tmp_path / "d48"
    assert cli.main(["gen-synthetic", "--out", str(data), "--samples", "24",
                     "--size", "48"]) == 0
    cfg = tmp_path / "48.cfg"
    cfg.write_text(TOY_CFG.replace("input_size = 32", "input_size = 48")
                   .replace("patch_count = 4", "patch_count = 9")
                   .replace("max_epochs = 4", "max_epochs = 1")
                   .replace("patience = 4", "patience = 1"))
    assert cli.main(["train", "--config", str(cfg), "--data", str(data),
                     "--out", str(tmp_path / "run")]) == 0


# rank 255, every extent 2**64 - 1: the payload byte count has over 4300 decimal digits
HOSTILE_DFT1 = b"DFT1\x00\xff" + b"\xff" * 8 * 255


@pytest.mark.parametrize("command", ["train", "eval"])
def test_hostile_images_header_exits_3(tmp_path, toy_cfg, dataset, command, capsys):
    with open(os.path.join(dataset, "images.dft"), "wb") as f:
        f.write(HOSTILE_DFT1)
    if command == "train":
        argv = ["train", "--config", toy_cfg, "--out", str(tmp_path / "r")]
    else:
        argv = ["eval", "--checkpoint", _toy_checkpoint(tmp_path, lambda e: None)]
    assert cli.main(argv + ["--data", dataset]) == 3
    assert "truncated" in capsys.readouterr().err


def test_train_missing_data_exits_3(tmp_path, toy_cfg):
    assert cli.main(["train", "--config", toy_cfg,
                     "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "r")]) == 3


@pytest.fixture()
def empty_dataset(tmp_path):
    data = tmp_path / "empty"
    data.mkdir()
    save_tensor(str(data / "images.dft"), np.zeros((0, 32, 32, 3), dtype=np.float32))
    save_tensor(str(data / "labels.dft"), np.zeros(0, dtype=np.int64))
    return str(data)


def test_train_empty_dataset_exits_2(tmp_path, toy_cfg, empty_dataset, capsys):
    assert cli.main(["train", "--config", toy_cfg, "--data", empty_dataset,
                     "--out", str(tmp_path / "r")]) == 2
    assert "training split has 0 samples" in capsys.readouterr().err


def test_ablate_empty_dataset_exits_2(tmp_path, empty_dataset, capsys):
    assert cli.main(["ablate", "--suite", "attention", "--data", empty_dataset,
                     "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert "has no samples" in err and "Traceback" not in err


def test_train_from_pyramid(tmp_path, toy_cfg, dataset):
    from duoformer.backbone import save_pyramid
    from duoformer.config import parse_config
    from duoformer.data import load_dataset
    from duoformer.model import DuoFormer
    from duoformer.tensor import Tensor

    model_cfg, _ = parse_config(TOY_CFG)
    images, _ = load_dataset(dataset)
    extractor = DuoFormer(model_cfg).eval()
    pyr = extractor.backbone(Tensor(images))
    pyr_path = tmp_path / "pyr.dfc"
    save_pyramid(pyr_path, pyr)
    run = tmp_path / "run"
    assert cli.main(["train", "--config", toy_cfg, "--data", dataset,
                     "--out", str(run), "--pyramid", str(pyr_path)]) == 0
    assert (run / "best.dfc").exists()


# ---- export-pyramid ----------------------------------------------------------------


def test_export_pyramid_script_feeds_train(tmp_path, toy_cfg, dataset):
    pyr = tmp_path / "pyr.dfc"
    assert cli.main(["export-pyramid", "--config", toy_cfg, "--data", dataset,
                     "--out", str(pyr), "--batch-size", "16"]) == 0
    assert cli.main(["train", "--config", toy_cfg, "--data", dataset,
                     "--out", str(tmp_path / "run"), "--pyramid", str(pyr)]) == 0


def test_export_pyramid_feeds_f64_train(tmp_path, dataset):
    cfg = tmp_path / "f64.cfg"
    cfg.write_text(TOY_CFG + "dtype = f64\n")
    pyr = tmp_path / "pyr.dfc"
    assert cli.main(["export-pyramid", "--config", str(cfg), "--data", dataset,
                     "--out", str(pyr)]) == 0
    assert cli.main(["train", "--config", str(cfg), "--data", dataset,
                     "--out", str(tmp_path / "run"), "--pyramid", str(pyr)]) == 0


def test_export_pyramid_records_no_graph(tmp_path, toy_cfg, dataset, monkeypatch):
    from duoformer.backbone import ToyBackbone

    real, feats = ToyBackbone.forward, []

    def forward(self, images):
        pyr = real(self, images)
        feats.extend(feat for _, feat in pyr.stages)
        return pyr

    monkeypatch.setattr(ToyBackbone, "forward", forward)
    assert cli.main(["export-pyramid", "--config", toy_cfg, "--data", dataset,
                     "--out", str(tmp_path / "pyr.dfc"), "--batch-size", "16"]) == 0
    assert len(feats) == 3 * 3  # three batches of 16, three stages each
    assert not any(f.requires_grad or f._parents for f in feats)


def _export(cfg, data, tmp_path, *extra):
    return cli.main(["export-pyramid", "--config", cfg, "--data", data,
                     "--out", str(tmp_path / "pyr.dfc"), *extra])


def test_export_pyramid_missing_config_exits_3(tmp_path, dataset, capsys):
    assert _export(str(tmp_path / "absent.cfg"), dataset, tmp_path) == 3
    assert "absent.cfg" in capsys.readouterr().err


def test_export_pyramid_invalid_config_exits_2(tmp_path, dataset, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(TOY_CFG.replace("embed_dim = 16", "embed_dim = 7")
                   .replace("heads = 4", "heads = 2"))
    assert _export(str(cfg), dataset, tmp_path) == 2
    assert "heads" in capsys.readouterr().err


def test_export_pyramid_missing_data_exits_3(tmp_path, toy_cfg, capsys):
    assert _export(toy_cfg, str(tmp_path / "nowhere"), tmp_path) == 3
    assert "dataset file missing" in capsys.readouterr().err


def test_export_pyramid_geometry_mismatch_exits_2(tmp_path, toy_cfg, capsys):
    data = tmp_path / "d64"
    assert cli.main(["gen-synthetic", "--out", str(data), "--samples", "4", "--size", "64"]) == 0
    assert _export(toy_cfg, str(data), tmp_path) == 2
    assert "64 px" in capsys.readouterr().err
    assert not (tmp_path / "pyr.dfc").exists()


def test_export_pyramid_empty_dataset_exits_2(tmp_path, toy_cfg, empty_dataset, capsys):
    assert _export(toy_cfg, empty_dataset, tmp_path) == 2
    assert "no images" in capsys.readouterr().err


def test_export_pyramid_batch_size_0_exits_2(tmp_path, toy_cfg, dataset, capsys):
    assert _export(toy_cfg, dataset, tmp_path, "--batch-size", "0") == 2
    assert "--batch-size" in capsys.readouterr().err


def _toy_checkpoint(tmp_path, edit):
    """A fresh toy checkpoint with `edit` applied to its tensor entries."""
    from duoformer.config import parse_config
    from duoformer.model import DuoFormer, save_checkpoint
    from duoformer.serialize import load_tensors, save_tensors

    path = tmp_path / "ckpt.dfc"
    save_checkpoint(path, DuoFormer(parse_config(TOY_CFG)[0]))
    entries = load_tensors(path)
    edit(entries)
    save_tensors(path, entries)
    return str(path)


def test_eval_checkpoint_missing_tensor_exits_3(tmp_path, dataset, capsys):
    ckpt = _toy_checkpoint(tmp_path, lambda e: e.pop("head.b"))
    assert cli.main(["eval", "--checkpoint", ckpt, "--data", dataset]) == 3
    assert "head.b" in capsys.readouterr().err


def test_eval_checkpoint_invalid_config_exits_3(tmp_path, dataset, capsys):
    from duoformer.serialize import save_tensors, text_to_array

    bad = tmp_path / "bad.dfc"
    save_tensors(bad, {"config": text_to_array("embed_dim = 7\nheads = 2\n")})
    assert cli.main(["eval", "--checkpoint", str(bad), "--data", dataset]) == 3
    assert "heads" in capsys.readouterr().err


def test_eval_checkpoint_misshaped_tensor_exits_3(tmp_path, dataset, capsys):
    ckpt = _toy_checkpoint(tmp_path, lambda e: e.update({"head.w": np.zeros((3, 3),
                                                                            np.float32)}))
    assert cli.main(["eval", "--checkpoint", ckpt, "--data", dataset]) == 3
    assert "head.w" in capsys.readouterr().err


def test_eval_all_nan_checkpoint_exits_4(tmp_path, dataset, capsys):
    def poison(entries):
        for name, arr in entries.items():
            if arr.dtype.kind == "f":
                entries[name] = np.full_like(arr, np.nan)

    ckpt = _toy_checkpoint(tmp_path, poison)
    assert cli.main(["eval", "--checkpoint", ckpt, "--data", dataset]) == 4
    assert "non-finite logits" in capsys.readouterr().err
    assert not (tmp_path / "metrics.json").exists()


def test_eval_corrupted_magic_exits_3(tmp_path, dataset, capsys):
    bad = tmp_path / "bad.dfc"
    bad.write_bytes(b"XXXX" + b"\x00" * 64)
    assert cli.main(["eval", "--checkpoint", str(bad), "--data", dataset]) == 3
    assert "magic" in capsys.readouterr().err


def test_eval_non_utf8_config_exits_3(tmp_path, dataset, capsys):
    from duoformer.serialize import save_tensors

    bad = tmp_path / "bad.dfc"
    save_tensors(bad, {"config": np.array([0x41, 0xFF, 0xFE], dtype=np.int64)})
    assert cli.main(["eval", "--checkpoint", str(bad), "--data", dataset]) == 3
    assert "UTF-8" in capsys.readouterr().err


# ---- gradcheck ---------------------------------------------------------------------


def test_gradcheck_passes_at_toy_config(toy_cfg, capsys):
    assert cli.main(["gradcheck", "--config", toy_cfg, "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    # every parameter group is listed
    for group in ("backbone.stage0.conv1.w", "encoder.layer0.scale.qkv.w",
                  "proj.stage2.w", "scale_token.fuse.conv.w", "head.w"):
        assert group in out, group


def test_gradcheck_corrupted_backward_exits_nonzero(toy_cfg, monkeypatch, capsys):
    """Sentinel: silently scaling one op's backward must trip the check."""
    from duoformer import tensor as T

    real = T.ffn

    def corrupted(x, *params):
        # identical forward value, input gradient detached -> analytic grad
        # loses the path through the FFN to everything upstream
        return real(x.detach(), *params) + x * 0.0

    monkeypatch.setattr(T, "ffn", corrupted)
    assert cli.main(["gradcheck", "--config", toy_cfg, "--samples", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_bad_eps_exits_2(toy_cfg):
    assert cli.main(["gradcheck", "--config", toy_cfg, "--eps", "1e-2"]) == 2


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_gradcheck_tol_not_positive_finite_exits_2(toy_cfg, tol, capsys):
    assert cli.main(["gradcheck", "--config", toy_cfg, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol" in captured.err  # rejected before any check runs


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_gradcheck_samples_below_1_exits_2(toy_cfg, samples, capsys):
    assert cli.main(["gradcheck", "--config", toy_cfg, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "sample" in captured.err


# ---- ablate ------------------------------------------------------------------------


def test_ablate_unknown_suite_exits_2(dataset, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["ablate", "--suite", "nonsense", "--data", dataset,
                  "--out", str(tmp_path / "r")])
    assert exc.value.code == 2


def test_ablate_writes_reports(tmp_path):
    # suite grids include stage 3, which the 32 px toy geometry can't host
    data = tmp_path / "data64"
    assert cli.main(["gen-synthetic", "--out", str(data), "--samples", "48"]) == 0
    out = tmp_path / "rep"
    assert cli.main(["ablate", "--suite", "attention", "--data", str(data),
                     "--out", str(out), "--max-epochs", "1", "--patience", "1",
                     "--batch-size", "16"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["config_id"] for r in report["rows"]] == ["duo", "scale_only", "patch_only"]
    assert report["seed_set"] == [0, 1, 2]
    for row in report["rows"]:
        assert set(row) >= {"config_id", "val_mean", "val_std", "test_mean",
                            "test_std", "params", "seconds"}
        assert len(row["per_seed"]) == 3
    table = (out / "report.txt").read_text()
    assert "duo" in table and "±" in table


def test_ablate_parallel_logs_each_finished_run(tmp_path):
    from duoformer.ablate import run_suite
    from duoformer.config import TrainConfig
    from duoformer.data import load_dataset

    data = tmp_path / "data64"
    assert cli.main(["gen-synthetic", "--out", str(data), "--samples", "24"]) == 0
    images, labels = load_dataset(str(data))
    lines = []
    run_suite("attention", images, labels, seeds=(0,), log=lines.append,
              train_cfg=TrainConfig(batch_size=8, max_epochs=1, patience=1, max_lr=1e-3))
    assert [line.split()[0] for line in lines] == ["duo", "scale_only", "patch_only"]


def test_ablate_short_budget_caps_patience(tmp_path, capsys):
    # the default patience (10) exceeds a 2-epoch budget; it is capped, not rejected
    data = tmp_path / "data64"
    assert cli.main(["gen-synthetic", "--out", str(data), "--samples", "24"]) == 0
    args = ["ablate", "--suite", "attention", "--data", str(data), "--batch-size", "8"]
    assert cli.main(args + ["--out", str(tmp_path / "r"), "--max-epochs", "2"]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text())
    assert all(len(row["per_seed"]) == 3 for row in report["rows"])
    capsys.readouterr()
    assert cli.main(args + ["--out", str(tmp_path / "r0"), "--patience", "0"]) == 2
    assert "patience" in capsys.readouterr().err


def test_ablate_heads_layers_grid_skips_indivisible():
    from duoformer.ablate import suite_grid
    grid = suite_grid("heads-layers", 64, 4)
    ids = [config_id for config_id, _ in grid]
    assert ids == ["L2_h2", "L2_h4", "L4_h2", "L4_h4", "L6_h2", "L6_h4"]
    assert all(cfg.embed_dim % cfg.heads == 0 for _, cfg in grid)


def test_ablate_stage_grid_mirrors_subset_sweep():
    from duoformer.ablate import suite_grid
    grid = suite_grid("stages", 64, 4)
    assert [config_id for config_id, _ in grid] == [
        "stages_3", "stages_23", "stages_13", "stages_123", "stages_0123"]


def test_ablate_scale_token_grid():
    from duoformer.ablate import suite_grid
    grid = suite_grid("scale-token", 64, 4)
    assert [config_id for config_id, _ in grid] == [
        "fused", "learnable", "first_token", "avg_tokens"]


# ---- process-level -----------------------------------------------------------------


def test_help_lists_every_subcommand():
    proc = subprocess.run([sys.executable, "-m", "duoformer.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for cmd in ("gen-synthetic", "tokenize", "train", "eval", "gradcheck", "ablate",
                "export-pyramid"):
        assert cmd in proc.stdout, cmd
    assert "--deterministic" in proc.stdout


def test_subcommand_help_shows_defaults():
    proc = subprocess.run([sys.executable, "-m", "duoformer.cli",
                           "gen-synthetic", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for fragment in ("--classes", "--samples", "--size", "--seed",
                     "default 4", "default 256", "default 64", "default 0"):
        assert fragment in proc.stdout, fragment


def test_deterministic_runs_through_reexec(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "duoformer.cli", "--deterministic",
         "gen-synthetic", "--out", str(tmp_path / "d"), "--samples", "8",
         "--size", "32"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "d" / "images.dft").exists()


def test_deterministic_reexec_pins_thread_vars(monkeypatch):
    captured = {}

    def fake_execve(exe, argv, env):
        captured["argv"], captured["env"] = argv, env
        raise SystemExit(0)

    monkeypatch.delenv(cli._GUARD, raising=False)
    monkeypatch.setattr(os, "execve", fake_execve)
    with pytest.raises(SystemExit):
        cli.main(["--deterministic", "gen-synthetic", "--out", "x"])
    for var in cli.THREAD_VARS:
        assert captured["env"][var] == "1", var
    assert captured["env"][cli._GUARD] == "1"
    assert "--deterministic" in captured["argv"]
