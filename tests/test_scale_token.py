import numpy as np
import numpy.testing as npt
import pytest

from duoformer.backbone import FeaturePyramid
from duoformer.errors import ConfigError, ContractError
from duoformer.rng import SeedStream
from duoformer.scale_token import (FusedScaleToken, LearnableScaleToken, attach_scale_token,
                                   downsample_plan)
from duoformer.tensor import Tensor
from duoformer.tokenizer import tokenize

CHANNELS = [2, 3, 4, 5]


def _pyramid(input_size, stages, channels=CHANNELS, batch=1, seed=0, fill=None):
    rng = np.random.default_rng(seed)
    feats = []
    for i in sorted(stages):
        p = input_size // (4 * 2 ** i)
        shape = (batch, p, p, channels[i])
        arr = np.full(shape, fill, dtype=np.float32) if fill is not None \
            else rng.random(shape).astype(np.float32)
        feats.append((i, Tensor(arr)))
    return FeaturePyramid(feats, input_size=input_size)


def _fused(stages, input_size=224, n_patches=49, d=4, channels=CHANNELS):
    st = FusedScaleToken(stages, channels, input_size, n_patches, d, SeedStream(0).child("st"))
    return st.to_dtype(np.float32).eval()


# ---- downsample plans -----------------------------------------------------------


def test_canonical_plans_at_224():
    # ratios 8/4/2/1 -> conv+pool4, conv+pool2, pool2, identity
    assert downsample_plan(8, 0) == (True, 4)
    assert downsample_plan(4, 1) == (True, 2)
    assert downsample_plan(2, 2) == (False, 2)
    assert downsample_plan(1, 3) == (False, 1)


def test_shallow_ratio2_uses_conv():
    assert downsample_plan(2, 0) == (True, 1)
    assert downsample_plan(2, 1) == (True, 1)


def test_plan_rejects_non_power_of_two():
    with pytest.raises(ConfigError, match="power of 2"):
        downsample_plan(3, 0)


def test_plan_rejects_sub_grid_extent():
    with pytest.raises(ConfigError, match="stage 2"):
        downsample_plan(0, 2)


def test_only_conv_stages_get_modules():
    st = _fused((0, 1, 2, 3))
    names = {n for n, _ in st.named_parameters()}
    assert any(n.startswith("down0.") for n in names)
    assert any(n.startswith("down1.") for n in names)
    assert not any(n.startswith("down2.") for n in names)
    assert not any(n.startswith("down3.") for n in names)


# ---- fused token forward -----------------------------------------------------


def test_canonical_concat_width_is_3840():
    wide = [256, 512, 1024, 2048]
    st = FusedScaleToken((0, 1, 2, 3), wide, 224, 49, 32, SeedStream(0).child("st"))
    assert st.concat_channels == 3840
    assert st.fuse.conv.w.shape == (32, 3840, 1, 1)


@pytest.mark.parametrize("stages", [(3,), (2, 3), (1, 2, 3), (0, 1, 2, 3)])
def test_output_shape_across_subsets(stages):
    st = _fused(stages)
    out = st(_pyramid(224, stages, batch=2))
    assert out.shape == (2, 49, 4)


def test_zero_pyramid_gives_zero_token():
    # fresh BN stats are (0, 1) and the convs carry no bias, so zeros propagate
    st = _fused((0, 1, 2, 3))
    out = st(_pyramid(224, (0, 1, 2, 3), fill=0.0))
    npt.assert_array_equal(out.data, np.zeros_like(out.data))


def test_output_nonnegative():
    st = _fused((1, 2, 3))
    out = st(_pyramid(224, (1, 2, 3), seed=3))
    assert (out.data >= 0).all()


def test_deepest_stage_identity_path():
    """Stage 3 sits on the patch grid already: its channels reach the concat untouched."""
    st = _fused((2, 3))
    pyr = _pyramid(224, (2, 3), seed=1)
    cat = st.concatenated(pyr)  # [B, 7, 7, C2+C3], deepest last
    npt.assert_array_equal(cat.data[..., -CHANNELS[3]:], pyr.stage(3).data)


def test_eval_forward_deterministic():
    st = _fused((0, 1, 2, 3))
    pyr = _pyramid(224, (0, 1, 2, 3), seed=2)
    a = st(pyr).data
    b = st(pyr).data
    npt.assert_array_equal(a, b)


def test_train_mode_forward_shape():
    st = FusedScaleToken((2, 3), CHANNELS, 224, 49, 4, SeedStream(0).child("st"))
    out = st(_pyramid(224, (2, 3), batch=2))
    assert out.shape == (2, 49, 4)


def test_gradient_reaches_every_stage():
    stages = (0, 1, 2, 3)
    st = _fused(stages)
    pyr = _pyramid(224, stages, seed=4)
    for _, feat in pyr.stages:
        feat.requires_grad = True
    st(pyr).sum().backward()
    for i, feat in pyr.stages:
        assert feat.grad is not None and np.abs(feat.grad).sum() > 0, f"stage {i}"


# ---- learnable token -----------------------------------------------------------


def test_learnable_token_shape_and_broadcast():
    lt = LearnableScaleToken(49, 4, SeedStream(0).child("lt"))
    out = lt(_pyramid(224, (3,), batch=3))
    assert out.shape == (3, 49, 4)
    npt.assert_array_equal(out.data[0], out.data[1])
    npt.assert_array_equal(out.data[0], lt.token.data)


def test_learnable_token_follows_pyramid_batch():
    lt = LearnableScaleToken(49, 4, SeedStream(0).child("lt"))
    out = lt(_pyramid(224, (3,), batch=2))
    assert out.shape == (2, 49, 4)


def test_learnable_token_gradient_accumulates_over_batch():
    lt = LearnableScaleToken(4, 2, SeedStream(0).child("lt"))
    lt(_pyramid(224, (3,), batch=3)).sum().backward()
    npt.assert_allclose(lt.token.grad, np.full((4, 2), 3.0), atol=1e-12)


# ---- attach --------------------------------------------------------------------


def _tokens(batch=1, d=3):
    rng = np.random.default_rng(0)
    feats = [(i, Tensor(rng.random((batch, 32 // (4 * 2 ** i), 32 // (4 * 2 ** i), d))
                        .astype(np.float32))) for i in (0, 1, 2)]
    return tokenize(feats, 4, 32)


def test_attach_prepends_at_index_zero():
    toks = _tokens(batch=2)
    tok = Tensor(np.random.default_rng(1).random((2, 4, 3)).astype(np.float32))
    out = attach_scale_token(toks, tok)
    assert out.has_scale_token
    assert out.tokens.shape == (2, 22, 4, 3)
    npt.assert_array_equal(out.tokens.data[:, 0], tok.data)
    npt.assert_array_equal(out.tokens.data[:, 1:], toks.tokens.data)


def test_attach_shifts_stage_slices():
    toks = _tokens()
    tok = Tensor(np.full((1, 4, 3), 7.0, dtype=np.float32))
    out = attach_scale_token(toks, tok)
    assert out.scale_layout == toks.scale_layout  # the layout counts stage rows only
    npt.assert_array_equal(out.tokens.data[:, 0], tok.data)
    npt.assert_array_equal(out.tokens.data[:, 1:], toks.tokens.data)


def test_attach_none_is_passthrough():
    toks = _tokens()
    assert attach_scale_token(toks, None) is toks


def test_attach_rejects_double_attach():
    toks = _tokens()
    tok = Tensor(np.zeros((1, 4, 3), dtype=np.float32))
    out = attach_scale_token(toks, tok)
    with pytest.raises(ContractError, match="already"):
        attach_scale_token(out, tok)


def test_attach_rejects_shape_mismatch():
    toks = _tokens()
    with pytest.raises(ContractError, match="shape"):
        attach_scale_token(toks, Tensor(np.zeros((1, 9, 3), dtype=np.float32)))
