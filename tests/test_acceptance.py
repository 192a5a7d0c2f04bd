"""Release gate: ten end-to-end checks with pinned tolerances and budgets.

Each check prints one PASS line (visible under `pytest -s`; pytest -v shows
the per-test verdict regardless) and carries its own oracle — pairwise
attention, scalar Adam, confusion-matrix recall — independent of the library
code it verifies, so a regression cannot silently weaken the gate. The two
training checks (07, 08) dominate the wall time; everything else is seconds.
"""

import math
import time
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from duoformer import cli
from duoformer.ablate import run_suite
from duoformer.attention import MSA, DuoEncoder, DuoLayer
from duoformer.backbone import FeaturePyramid, stage_extent
from duoformer.config import DuoFormerConfig, TrainConfig, serialize_config
from duoformer.data import make_synthetic
from duoformer.errors import ConfigError
from duoformer.model import DuoFormer, load_checkpoint, save_checkpoint
from duoformer.rng import SeedStream
from duoformer.scale_token import FusedScaleToken, attach_scale_token
from duoformer.serialize import (load_tensors, save_tensors, tensor_from_bytes,
                                 tensor_to_bytes)
from duoformer.tokenizer import (patch_index_map, scale_layout, tokenize,
                                 tokens_per_patch)
from duoformer.tensor import Tensor
from duoformer.trainer import (adam_init, adam_step, balanced_accuracy,
                               onecycle_lr, predict, train)

TOY = DuoFormerConfig(input_size=32, patch_count=4, embed_dim=16, heads=4,
                      layers=2, stages=(0, 1, 2), channels=(4, 8, 16, 32),
                      num_classes=4)


def _line(num: int, label: str, detail: str) -> None:
    print(f"[{num:2d}/10] {label}: PASS — {detail}")


def test_criterion_01_geometry():
    t0 = time.perf_counter()
    lay = scale_layout(224, 49, (0, 1, 2, 3))
    assert [(i, pp) for i, pp, _ in lay] == [(3, 1), (2, 2), (1, 4), (0, 8)]
    assert sum(count for _, _, count in lay) == 85

    rng = np.random.default_rng(0)

    def stage_feats(h, i, d=3):
        p = stage_extent(h, i)
        return i, Tensor(rng.normal(size=(1, p, p, d)).astype(np.float32))

    toks = tokenize([stage_feats(224, i) for i in (0, 1, 2, 3)], 49, 224)
    assert toks.tokens.shape == (1, 85, 49, 3)
    assert toks.scale_extent == 85
    with_token = attach_scale_token(toks, Tensor(np.zeros((1, 49, 3), np.float32)))
    assert with_token.tokens.shape[1] == 86

    toks32 = tokenize([stage_feats(32, i) for i in (0, 1, 2)], 4, 32)
    assert toks32.tokens.shape == (1, 21, 4, 3)
    assert toks32.scale_extent == 21

    dt = time.perf_counter() - t0
    assert dt < 1.0
    _line(1, "geometry", f"S=85@224/49 (+token 86), S=21@32/4 in {dt:.2f}s")


def test_criterion_02_token_bijection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    seen = set()
    checked = 0
    while checked < 20:
        h = int(rng.choice([32, 64, 96, 128]))
        g = int(rng.choice([1, 2, 4]))
        n = g * g
        valid = []
        for i in range(4):
            try:
                tokens_per_patch(h, n, i)
                valid.append(i)
            except ConfigError:
                pass
        if not valid:
            continue
        k = int(rng.integers(1, len(valid) + 1))
        stages = tuple(sorted(rng.choice(valid, size=k, replace=False).tolist()))
        key = (h, n, stages)
        if key in seen:
            continue
        seen.add(key)

        # sentinel value i*1e6 + flat spatial index, unique across the config
        projected = []
        for i in stages:
            p = stage_extent(h, i)
            vals = (i * 10 ** 6 + np.arange(p * p, dtype=np.float64)).reshape(1, p, p, 1)
            projected.append((i, Tensor(vals)))
        toks = tokenize(projected, n, h).tokens.data[0, :, :, 0]  # [S, N]

        expected = np.sort(np.concatenate(
            [i * 10 ** 6 + np.arange(stage_extent(h, i) ** 2, dtype=np.float64)
             for i in stages]))
        assert np.array_equal(np.sort(toks.ravel()), expected)  # each exactly once

        starts, row = {}, 0
        for i, _, count in scale_layout(h, n, stages):
            starts[i] = row
            row += count
        imap = patch_index_map(h, n, stages)
        for i in stages:
            p = stage_extent(h, i)
            for f in range(p * p):
                patch, offset = imap[i][f]
                assert toks[starts[i] + offset, patch] == i * 10 ** 6 + f
        checked += 1

    dt = time.perf_counter() - t0
    assert dt < 10.0
    _line(2, "token bijection", f"20 random configs, exact slots, in {dt:.1f}s")


def test_criterion_03_gradient_suite(tmp_path, capsys):
    cfg_path = tmp_path / "toy.cfg"
    cfg_path.write_text(serialize_config(TOY, TrainConfig()))
    t0 = time.perf_counter()
    rc = cli.main(["gradcheck", "--config", str(cfg_path)])
    dt = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert rc == 0
    assert out.rstrip().endswith("PASS")
    groups = dict(DuoFormer(replace(TOY, dtype="f64").validate()).named_parameters())
    for name in groups:  # report covers every parameter group
        assert name in out
    assert dt < 60.0
    _line(3, "gradient suite", f"{len(groups)} groups < 1e-4 in {dt:.0f}s")


def _msa_pairwise_oracle(x, msa):
    """Per-(batch, head, query, key) loops; only vector dot products inside."""
    wqkv, bqkv = msa.qkv.w.data, msa.qkv.b.data
    wproj, bproj = msa.proj.w.data, msa.proj.b.data
    b, t, d = x.shape
    h, dh = msa.heads, msa.head_dim
    out = np.empty_like(x)
    for bi in range(b):
        qkv = np.stack([x[bi, ti] @ wqkv + bqkv for ti in range(t)])
        q, k, v = qkv[:, :d], qkv[:, d:2 * d], qkv[:, 2 * d:]
        mixed = np.zeros((t, d))
        for hi in range(h):
            sl = slice(hi * dh, (hi + 1) * dh)
            for ti in range(t):
                scores = np.array([q[ti, sl] @ k[tj, sl] for tj in range(t)])
                scores /= math.sqrt(dh)
                e = np.exp(scores - scores.max())
                a = e / e.sum()
                for tj in range(t):
                    mixed[ti, sl] += a[tj] * v[tj, sl]
        out[bi] = mixed @ wproj + bproj
    return out


def test_criterion_04_attention_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(10):
        dh = int(rng.choice([2, 3]))
        h = int(rng.choice([1, 2, 4]))
        d = h * dh
        b = int(rng.integers(1, 4))
        t = int(rng.integers(2, 7))
        msa = MSA(d, h, SeedStream(trial).child("msa"))
        x = rng.normal(size=(b, t, d))
        got, attn = msa(Tensor(x), return_attn=True)
        ref = _msa_pairwise_oracle(x, msa)
        worst = max(worst, float(np.max(np.abs(got.data - ref))))
        assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) <= 1e-6  # rows sum to 1
    assert worst <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _line(4, "attention oracle", f"10 shapes, max |batched - pairwise| = {worst:.1e}")


def test_criterion_05_structural_isolation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    d, h, rows, n = 16, 4, 6, 4  # rows = scale token + 5 scale slots
    layer = DuoLayer(d, h, SeedStream(5).child("layer"))
    for p in layer.parameters():  # generic point, not the near-identity init
        p.data += rng.normal(scale=0.1, size=p.data.shape)
    x = rng.normal(size=(2, rows, n, d))

    # scale attention: perturbing one patch leaves every other patch bitwise intact
    base = layer.scale_block(Tensor(x)).data
    x_pert = x.copy()
    x_pert[:, :, 2] += rng.normal(size=(2, rows, d))
    pert = layer.scale_block(Tensor(x_pert)).data
    others = [p for p in range(n) if p != 2]
    assert np.array_equal(base[:, :, others], pert[:, :, others])
    assert not np.array_equal(base[:, :, 2], pert[:, :, 2])

    # patch attention: perturbing non-conduit scale rows cannot reach it
    pa_base = layer.patch_attention(Tensor(x[:, 0])).data
    x_scale = x.copy()
    x_scale[:, 1:] += rng.normal(size=(2, rows - 1, n, d))
    pa_pert = layer.patch_attention(Tensor(x_scale[:, 0])).data
    assert np.max(np.abs(pa_base - pa_pert)) <= 1e-6

    # permutation properties with positional tables disabled
    enc = DuoEncoder(d, h, 2, rows, n, SeedStream(55).child("enc"), mode="duo",
                     readout="scale_token_patch_attn", pos_scale=False,
                     pos_patch=False)
    y = enc(Tensor(x)).data
    perm = rng.permutation(n)
    y_perm = enc(Tensor(x[:, :, perm])).data
    assert np.max(np.abs(y_perm - y[:, perm])) <= 1e-5  # patch equivariance

    sperm = np.concatenate([[0], 1 + rng.permutation(rows - 1)])
    y_scale = enc(Tensor(x[:, sperm])).data
    assert np.max(np.abs(y_scale - y)) <= 1e-5  # scale invariance (conduit fixed)

    dt = time.perf_counter() - t0
    assert dt < 30.0
    _line(5, "structural isolation",
          "cross-patch bitwise, cross-scale <= 1e-6, permutations <= 1e-5")


def test_criterion_06_fused_token_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    channels = (3, 5, 7, 9)
    d = 11
    mod = FusedScaleToken((0, 1, 2, 3), channels, 64, 4, d, SeedStream(6).child("tok"))
    pyr = FeaturePyramid(
        [(i, Tensor(rng.normal(size=(2, stage_extent(64, i), stage_extent(64, i),
                                     channels[i]))))
         for i in (0, 1, 2, 3)], input_size=64)

    down = dict(mod.downsampled(pyr))
    # deepest stage already sits on the patch grid: identity path, bitwise
    assert np.array_equal(down[3].data, pyr.stage(3).data)

    cat = mod.concatenated(pyr)
    assert cat.shape[-1] == sum(channels) == mod.concat_channels
    assert np.array_equal(cat.data[..., -channels[3]:], down[3].data)
    assert mod.fuse.conv.w.shape == (d, sum(channels), 1, 1)

    out = mod(pyr)
    assert out.shape == (2, 4, d)
    assert float(out.data.min()) >= 0.0  # ReLU output

    dt = time.perf_counter() - t0
    assert dt < 5.0
    _line(6, "fused token structure",
          f"identity path exact, concat width {sum(channels)}, output [B,N,D] >= 0")


def test_criterion_07_overfit_and_determinism():
    t0 = time.perf_counter()
    images, labels, _ = make_synthetic(classes=4, samples=64, size=32, seed=0)
    idx = np.arange(len(labels))
    runs = []
    for _rep in range(2):
        model = DuoFormer(replace(TOY, seed=0).validate())
        tc = TrainConfig(batch_size=16, max_epochs=120, patience=120,
                         max_lr=5e-3, seed=0)
        rec = train(model, images, labels, tc, splits=(idx, idx, idx))
        preds = predict(model, images, tc.batch_size)
        model.eval()
        logits = model(Tensor(images[:8])).data.copy()
        runs.append((float((preds == labels).mean()), rec.comparable(), logits))

    acc1, hist1, logits1 = runs[0]
    acc2, hist2, logits2 = runs[1]
    assert len(hist1["epochs"]) <= 300
    assert acc1 >= 0.99
    assert acc2 == acc1 and hist2 == hist1  # deterministic repeat
    assert np.array_equal(logits1, logits2)

    dt = time.perf_counter() - t0
    assert dt < 600.0
    _line(7, "overfit + determinism",
          f"train acc {acc1:.3f} in {len(hist1['epochs'])} epochs, repeat bitwise, {dt:.0f}s")


def test_criterion_08_ablation_trend(tmp_path):
    t0 = time.perf_counter()
    images, labels, _ = make_synthetic(classes=4, samples=768, size=64, seed=0)
    report = run_suite("attention", images, labels, out_dir=str(tmp_path))
    dt = time.perf_counter() - t0
    assert dt < 45 * 60

    rows = {r["config_id"]: r for r in report["rows"]}
    assert set(rows) == {"duo", "scale_only", "patch_only"}
    assert all(len(r["per_seed"]) == 3 for r in rows.values())
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "report.txt").exists()

    duo = rows["duo"]["test_mean"]
    scale_only = rows["scale_only"]["test_mean"]
    patch_only = rows["patch_only"]["test_mean"]
    trend = duo >= scale_only and duo >= patch_only
    per_seed = {cid: " / ".join(f"{r['test_balanced_acc']:.3f}" for r in row["per_seed"])
                for cid, row in rows.items()}
    detail = (f"duo {duo:.3f} ({per_seed['duo']}) vs scale_only {scale_only:.3f} "
              f"({per_seed['scale_only']}) / patch_only {patch_only:.3f} "
              f"({per_seed['patch_only']}) in {dt / 60:.0f} min")
    # The gate is mechanical: grid complete, shared seeds, report written,
    # within budget. The ordering itself is reported either way.
    if trend:
        _line(8, "ablation trend", detail)
    else:
        print(f"[ 8/10] ablation trend: REPORTED (ordering not reproduced) — {detail}")


def test_criterion_09_trainer_components():
    t0 = time.perf_counter()

    # Adam vs scalar oracle, 5 steps
    p = Tensor(np.array([1.5]), requires_grad=True)
    state = adam_init([p])
    theta, m, v = 1.5, 0.0, 0.0
    for step, g in enumerate([0.3, -0.2, 0.7, 0.05, -0.9], start=1):
        adam_step([p], [np.array([g])], state, lr=0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** step)
        vhat = v / (1 - 0.999 ** step)
        theta -= 0.01 * mhat / (math.sqrt(vhat) + 1e-8)
        assert abs(float(p.data[0]) - theta) <= 1e-12

    # onecycle peaks exactly once, exactly at max_lr = 1e-4
    cfg = TrainConfig()
    total = 137
    lrs = [onecycle_lr(s, total, cfg) for s in range(total)]
    peak = max(lrs)
    assert abs(peak - 1e-4) <= 1e-18
    assert sum(1 for lr in lrs if lr == peak) == 1

    # balanced accuracy vs confusion-matrix oracle (with an absent class)
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=200)  # class 3 never appears
    preds = rng.integers(0, 4, size=200)
    conf = np.zeros((4, 4))
    for lab, pr in zip(labels, preds):
        conf[lab, pr] += 1
    recalls = [conf[c, c] / conf[c].sum() for c in range(4) if conf[c].sum()]
    assert abs(balanced_accuracy(preds, labels, 4) - np.mean(recalls)) <= 1e-12

    dt = time.perf_counter() - t0
    assert dt < 5.0
    _line(9, "trainer components", "adam <= 1e-12, one peak at 1e-4, bacc <= 1e-12")


def test_criterion_10_formats(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)

    # DFT1 round trip, all dtypes including a scalar
    for arr in (rng.normal(size=(3, 4)).astype(np.float32),
                rng.normal(size=(2, 3, 5)),
                np.arange(7, dtype=np.int64),
                np.float64(3.25)):
        back = tensor_from_bytes(tensor_to_bytes(arr))
        assert back.dtype == np.asarray(arr).dtype and back.shape == np.shape(arr)
        assert np.array_equal(back, arr)

    # DFC1 round trip preserves order and bytes
    entries = OrderedDict([("b", rng.normal(size=(2, 2))),
                           ("a", np.arange(3, dtype=np.int64))])
    save_tensors(tmp_path / "pair.dfc", entries)
    back = load_tensors(tmp_path / "pair.dfc")
    assert list(back) == ["b", "a"]
    assert all(np.array_equal(back[k], entries[k]) for k in entries)

    # checkpoint reload reproduces bitwise logits
    model = DuoFormer(TOY.validate())
    model.eval()
    images = rng.uniform(size=(2, 32, 32, 3)).astype(np.float32)
    logits = model(Tensor(images)).data.copy()
    ckpt = tmp_path / "model.dfc"
    save_checkpoint(ckpt, model, TrainConfig())
    reloaded, _ = load_checkpoint(ckpt)
    reloaded.eval()
    assert np.array_equal(reloaded(Tensor(images)).data, logits)

    # corrupted magic -> exit 3 through the CLI
    raw = bytearray(ckpt.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.dfc"
    bad.write_bytes(raw)
    assert cli.main(["gen-synthetic", "--out", str(tmp_path / "d16"),
                     "--samples", "16", "--size", "32"]) == 0
    rc = cli.main(["eval", "--checkpoint", str(bad), "--data", str(tmp_path / "d16")])
    capsys.readouterr()
    assert rc == 3

    dt = time.perf_counter() - t0
    assert dt < 5.0
    _line(10, "formats", f"round trips bitwise, bad magic -> exit 3, {dt:.1f}s")
