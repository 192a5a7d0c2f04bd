import copy
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from duoformer import tensor as T
from duoformer.ablate import SUITE_NAMES, suite_grid
from duoformer.backbone import FeaturePyramid
from duoformer.config import DuoFormerConfig, TrainConfig
from duoformer.conv import _wmat
from duoformer.errors import ConfigError, ContractError
from duoformer.layers import Conv2d
from duoformer.model import DuoFormer, count_parameters, load_checkpoint, save_checkpoint
from duoformer.serialize import load_tensors
from duoformer.tensor import DTYPES, Tensor, cross_entropy

TOY = dict(input_size=32, patch_count=4, embed_dim=8, heads=2, layers=2,
           stages=(0, 1, 2), channels=(2, 3, 4, 5), num_classes=4, seed=0)


def _cfg(**over):
    kw = dict(TOY)
    kw.update(over)
    return DuoFormerConfig(**kw)


def _model(**over):
    return DuoFormer(_cfg(**over)).eval()


def _images(b=2, h=32, seed=0):
    return Tensor(np.random.default_rng(seed).random((b, h, h, 3)).astype(np.float32))


# ---- assembly across modes ------------------------------------------------------


def test_logits_shape_at_224():
    m = DuoFormer(DuoFormerConfig(input_size=224, patch_count=49, embed_dim=8, heads=2,
                                  layers=2, stages=(0, 1, 2, 3), channels=(2, 3, 4, 5),
                                  num_classes=4, seed=0)).eval()
    out = m(_images(2, 224))
    assert out.shape == (2, 4)


@pytest.mark.parametrize("mode,readout,token", [
    ("duo", "scale_token_patch_attn", "fused"),
    ("duo", "scale_token_patch_attn", "learnable"),
    ("duo", "first_token", "none"),
    ("duo", "avg_tokens", "none"),
    ("scale_only", "scale_attn_only_fc", "fused"),
    ("scale_only", "scale_attn_only_fc", "learnable"),
    ("patch_only", "avg_tokens", "none"),
])
def test_every_mode_forwards(mode, readout, token):
    m = _model(attention_mode=mode, readout=readout, scale_token_mode=token)
    assert m(_images()).shape == (2, 4)


def test_token_count_21_at_toy_geometry():
    assert _model().token_count == 21


def test_canonical_parameter_names():
    names = {n for n, _ in _model().named_parameters()}
    assert "backbone.stage0.conv1.w" in names
    assert "encoder.layer1.scale.qkv.w" in names
    assert "proj.stage2.w" in names
    assert "scale_token.fuse.conv.w" in names
    assert "head.w" in names


def test_patch_only_drops_multiscale_parts():
    m = _model(attention_mode="patch_only", readout="avg_tokens",
               scale_token_mode="none")
    names = {n.split(".", 1)[0] for n, _ in m.named_parameters()}
    assert "scale_token" not in names
    proj_names = {n for n, _ in m.named_parameters() if n.startswith("proj.")}
    assert proj_names == {"proj.stage2.w", "proj.stage2.b"}


def test_no_scale_token_params_in_none_mode():
    m = _model(readout="first_token", scale_token_mode="none")
    assert not any(n.startswith("scale_token") for n, _ in m.named_parameters())


# ---- parameter counting -----------------------------------------------------------


def test_head_param_count_27():
    m = _model(embed_dim=8, num_classes=3)
    assert count_parameters(m)["head"] == 8 * 3 + 3 == 27


def test_layer_doubling_adds_constant_encoder_cost():
    counts = [count_parameters(_model(layers=l))["encoder"] for l in (1, 2, 3)]
    assert counts[1] - counts[0] == counts[2] - counts[1] > 0


def test_total_matches_checkpoint_enumeration(tmp_path):
    m = _model()
    p = tmp_path / "ckpt.dfc"
    save_checkpoint(p, m)
    entries = load_tensors(p)
    entries.pop("config")
    state_names = {n for n, _ in m.named_state()}
    brute = sum(arr.size for name, arr in entries.items() if name not in state_names)
    assert count_parameters(m)["total"] == brute


# ---- forward semantics ----------------------------------------------------------


def test_eval_forward_deterministic():
    m = _model()
    x = _images()
    a = m(x).data
    b = m(x).data
    npt.assert_array_equal(a, b)


def test_pyramid_path_matches_image_path():
    m = _model()
    x = _images()
    pyr = m.backbone(x)
    npt.assert_array_equal(m(x).data, m(pyr).data)


def test_pyramid_size_mismatch_rejected():
    m = _model()
    # 64 px needs stage 3 so the fused token still lands on the patch grid
    big = DuoFormer(_cfg(input_size=64, stages=(0, 1, 2, 3))).eval()
    pyr = big.backbone(_images(h=64))
    with pytest.raises(ConfigError, match="input_size"):
        m(pyr)


def test_pyramid_missing_stage_rejected():
    m = _model(stages=(0, 1, 2))
    pyr = m.backbone(_images())
    pyr = FeaturePyramid(pyr.stages[1:], input_size=pyr.input_size)
    with pytest.raises(ConfigError, match="stages \\[0\\]"):
        m(pyr)


def test_pyramid_of_model_dtype_passes_through_uncopied():
    m = _model(dtype="f64")
    pyr = m.backbone(_images().astype("f64"))
    assert m.pyramid_from(pyr) is pyr


def test_f64_model_casts_f32_pyramid():
    m = _model(dtype="f64")
    pyr = m.backbone(_images().astype("f64"))
    f32 = FeaturePyramid([(i, f.astype("f32")) for i, f in pyr.stages], input_size=32)
    assert all(f.data.dtype == np.float64 for _, f in m.pyramid_from(f32).stages)
    assert m(f32).data.dtype == np.float64


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("model_dtype,image_dtype", [("f32", "f64"), ("f64", "f32")])
def test_images_of_another_dtype_match_precast_images(model_dtype, image_dtype):
    """Logits and gradients equal those of the images cast to the model's dtype, bitwise."""
    labels = np.array([0, 3])
    runs = []
    for x in (_images().astype(image_dtype), _images().astype(model_dtype)):
        m = DuoFormer(_cfg(dtype=model_dtype))
        logits = m(x)
        cross_entropy(logits, labels).backward()
        runs.append([logits.data] + [p.grad for p in m.parameters()])
    assert all(_bitwise_equal(a, b) for a, b in zip(*runs))


@pytest.mark.parametrize("kind", ["images", "pyramid"])
@pytest.mark.parametrize("model_dtype,input_dtype", [("f32", "f64"), ("f64", "f32")])
def test_gradient_reaches_an_input_of_another_dtype(kind, model_dtype, input_dtype):
    """The cast is a graph node: the input's gradient is the pre-cast input's, cast back."""
    images = _images().data
    stages = [(i, f.data) for i, f in _model().backbone(_images()).stages]
    grads = []
    for dtype in (DTYPES[input_dtype], DTYPES[model_dtype]):
        if kind == "images":
            leaves = [Tensor(images.astype(dtype), requires_grad=True)]
            x = leaves[0]
        else:
            leaves = [Tensor(f.astype(dtype), requires_grad=True) for _, f in stages]
            x = FeaturePyramid([(i, t) for (i, _), t in zip(stages, leaves)], input_size=32)
        T.tensor_sum(DuoFormer(_cfg(dtype=model_dtype))(x)).backward()
        grads.append([t.grad for t in leaves])
    assert all(_bitwise_equal(a, b.astype(a.dtype)) for a, b in zip(*grads))


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_f32_parameters_are_the_f64_ones_rounded(suite):
    """One home for the dtype: the f32 build is the f64 build cast; BN stats stay f64."""
    for _, cfg in suite_grid(suite, 64, 4):
        built = {d: DuoFormer(replace(cfg, dtype=d)) for d in DTYPES}
        f64 = dict(built["f64"].named_parameters())
        for name, p in built["f32"].named_parameters():
            assert _bitwise_equal(p.data, f64[name].data.astype(np.float32)), name
        for d, m in built.items():
            assert all(p.data.dtype == DTYPES[d] for p in m.parameters())
            stats = dict(m.named_state())
            assert stats and all(name.rsplit(".", 1)[1] in ("running_mean", "running_var")
                                 and arr.dtype == np.float64 for name, arr in stats.items())


def test_backbone_is_cast_before_the_encoder_is_built(monkeypatch):
    """Each component is cast as soon as it is built, so the f64 draws of
    the backbone and of the encoder are never alive together."""
    import duoformer.model as model_mod
    make_backbone, make_encoder = model_mod.ToyBackbone, model_mod.DuoEncoder
    backbones, seen = [], []

    def backbone(*args, **kwargs):
        backbones.append(make_backbone(*args, **kwargs))
        return backbones[-1]

    def encoder(*args, **kwargs):
        seen.append({p.data.dtype for p in backbones[-1].parameters()})
        return make_encoder(*args, **kwargs)

    monkeypatch.setattr(model_mod, "ToyBackbone", backbone)
    monkeypatch.setattr(model_mod, "DuoEncoder", encoder)
    DuoFormer(_cfg(dtype="f32"))
    assert seen == [{np.dtype(np.float32)}]


_PATCH_ONLY = dict(attention_mode="patch_only", readout="avg_tokens", scale_token_mode="none")


def test_patch_only_runs_on_deepest_stage_pyramid():
    m = _model(**_PATCH_ONLY)
    assert m.stage_indices == (2,) and m.token_count == 1
    full = m.backbone(_images())
    assert full.stage_indices == (2,)
    deepest = FeaturePyramid([(2, full.stage(2))], input_size=32)
    npt.assert_array_equal(m(deepest).data, m(_images()).data)


def test_patch_only_logits_follow_the_hybrid_baseline():
    m = _model(**_PATCH_ONLY)
    rng = np.random.default_rng(3)
    for _, p in m.named_parameters():
        p.data = p.data + rng.standard_normal(p.shape).astype(p.data.dtype) * 0.1
    x = _images()
    proj = m.proj.stage2(m.backbone(x).stage(2))  # [B, g, g, D]
    b, g, _, d = proj.shape
    want = m.head(m.encoder(proj.reshape((b, 1, g * g, d))).mean(axis=1))
    npt.assert_array_equal(m(x).data, want.data)


def test_train_and_eval_disagree_through_bn():
    m = _model()
    rng = np.random.default_rng(42)  # fresh-init logits are tiny; give the net some signal
    for _, p in m.named_parameters():
        p.data = p.data + rng.standard_normal(p.shape).astype(p.data.dtype) * 0.1
    x = _images()
    eval_out = m(x).data
    m.train()
    train_out = m(x).data
    assert np.abs(eval_out - train_out).max() > 1e-6


# ---- checkpoints -------------------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    m = _model()
    x = _images()
    before = m(x).data
    p = tmp_path / "ckpt.dfc"
    save_checkpoint(p, m, TrainConfig(seed=0))
    m2, tc = load_checkpoint(p)
    m2.eval()
    npt.assert_array_equal(m2(x).data, before)
    assert tc.seed == 0


def test_checkpoint_restores_running_stats(tmp_path):
    m = _model().train()
    m(_images())  # mutate BN stats
    m.eval()
    x = _images(seed=5)
    before = m(x).data
    p = tmp_path / "ckpt.dfc"
    save_checkpoint(p, m)
    m2, _ = load_checkpoint(p)
    npt.assert_array_equal(m2.eval()(x).data, before)


def test_loaded_and_f64_copied_models_keep_conv_weights_channel_last(tmp_path):
    """A loaded checkpoint and an f64 copy (deepcopy, then to_dtype) keep each
    conv weight's (kh, kw, C) memory, so the lowering's [O, K] matrix stays a view."""
    m = _model()
    p = tmp_path / "ckpt.dfc"
    save_checkpoint(p, m)
    loaded, _ = load_checkpoint(p)
    f64 = copy.deepcopy(m).to_dtype(np.float64)
    convs = [[mod.w.data for mod in model.modules() if isinstance(mod, Conv2d)]
             for model in (m, loaded, f64)]
    assert len(convs[0]) == 9 and {w.shape[2] for w in convs[0]} == {1, 3}  # the 1x1 fuse
    for ws in convs:
        assert all(np.shares_memory(_wmat(w), w) for w in ws)
    for w, w_loaded, w64 in zip(*convs):
        assert np.array_equal(w, w_loaded) and np.array_equal(w, w64)


def test_checkpoint_without_config_rejected(tmp_path):
    from duoformer.errors import FormatError
    from duoformer.serialize import save_tensors
    p = tmp_path / "bad.dfc"
    save_tensors(p, {"head.w": np.zeros((8, 4), np.float32)})
    with pytest.raises(FormatError, match="config"):
        load_checkpoint(p)


def test_state_dict_strictness():
    m = _model()
    sd = m.state_dict()
    sd.pop("head.b")
    with pytest.raises(ContractError, match="head.b"):
        _model().load_state_dict(sd)


# ---- config validation ---------------------------------------------------------------


@pytest.mark.parametrize("mode,readout,token", [
    ("duo", "scale_attn_only_fc", "fused"),
    ("duo", "scale_token_patch_attn", "none"),
    ("scale_only", "first_token", "none"),
    ("scale_only", "scale_token_patch_attn", "fused"),
    ("patch_only", "avg_tokens", "fused"),
    ("patch_only", "scale_token_patch_attn", "none"),
])
def test_invalid_combos_rejected(mode, readout, token):
    with pytest.raises(ConfigError, match="combination"):
        _cfg(attention_mode=mode, readout=readout, scale_token_mode=token).validate()


@pytest.mark.parametrize("stages", [(3,), (1, 3), (2, 3), (1, 2, 3)])
def test_stage_subsets_validate_at_canonical_geometry(stages):
    cfg = DuoFormerConfig(input_size=224, patch_count=49, embed_dim=8, heads=2,
                          layers=1, stages=stages, channels=(2, 3, 4, 5), seed=0)
    cfg.validate()
    m = DuoFormer(cfg).eval()
    assert m(_images(1, 224)).shape == (1, 4)


def test_stage_integrality_violation_names_stage():
    with pytest.raises(ConfigError, match="stage 3"):
        _cfg(stages=(0, 1, 2, 3)).validate()  # P_3 = 1 < sqrt(N) = 2 at 32 px


def test_patch_only_needs_grid_aligned_deepest_stage():
    with pytest.raises(ConfigError, match="patch_only"):
        DuoFormerConfig(input_size=64, patch_count=4, embed_dim=8, heads=2, layers=1,
                        stages=(0, 1, 2), channels=(2, 3, 4, 5), seed=0,
                        attention_mode="patch_only", readout="avg_tokens",
                        scale_token_mode="none").validate()


def test_patch_only_layer_override():
    m = _model(attention_mode="patch_only", readout="avg_tokens", scale_token_mode="none",
               layers=2, patch_only_layers=3)
    assert m.encoder.layer_count == 3


def test_backbone_stops_at_deepest_configured_stage():
    # learnable token: no patch-grid anchor, so a shallow-only subset is legal
    m = _model(stages=(0, 1), scale_token_mode="learnable")
    assert not any(n.startswith("backbone.stage2") for n, _ in m.named_parameters())
    assert m.backbone.stages[-1] == 1


def test_48px_three_stage_fused_model_forwards():
    # 48 px divides 4 * 2**2 but not 32: a stage 0-2 backbone takes it
    m = _model(input_size=48, patch_count=9, stages=(0, 1, 2), scale_token_mode="fused")
    assert m(_images(2, 48)).shape == (2, 4)
