import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duoformer import tensor as T
from duoformer.config import (DuoFormerConfig, TrainConfig, VALID_COMBOS, parse_config,
                              serialize_config)
from duoformer.errors import ConfigError
from duoformer.model import DuoFormer

TOY_TEXT = """\
# toy run
input_size = 32
patch_count = 4
embed_dim = 8
heads = 2
layers = 2
stages = 0, 1, 2
channels = 2, 3, 4, 5
num_classes = 4
seed = 11          # shared by init and shuffling
batch_size = 8
max_epochs = 5
patience = 5
max_lr = 0.001
"""


def test_parse_basic_file():
    model_cfg, train_cfg = parse_config(TOY_TEXT)
    assert model_cfg.input_size == 32
    assert model_cfg.stages == (0, 1, 2)
    assert model_cfg.channels == (2, 3, 4, 5)
    assert train_cfg.batch_size == 8
    assert train_cfg.max_lr == 0.001


def test_seed_is_shared():
    model_cfg, train_cfg = parse_config(TOY_TEXT)
    assert model_cfg.seed == train_cfg.seed == 11


def test_defaults_fill_missing_keys():
    model_cfg, train_cfg = parse_config("input_size = 32\npatch_count = 4\nstages = 0,1,2\n")
    assert model_cfg.embed_dim == DuoFormerConfig().embed_dim
    assert train_cfg.patience == TrainConfig().patience


def test_parse_serialize_round_trip():
    model_cfg, train_cfg = parse_config(TOY_TEXT)
    text = serialize_config(model_cfg, train_cfg)
    again_model, again_train = parse_config(text)
    assert again_model == model_cfg
    assert again_train == train_cfg


def test_every_key_parses_by_its_field_type():
    # a non-default value for every key, so each type's parser is exercised
    model_cfg = DuoFormerConfig(input_size=64, patch_count=4, embed_dim=12, heads=3, layers=1,
                                stages=(1, 3), channels=(1, 2, 3, 4), scale_token_mode="none",
                                readout="avg_tokens", attention_mode="patch_only",
                                num_classes=3, pos_scale=False, pos_patch=False, dtype="f64",
                                seed=5, patch_only_layers=2).validate()
    train_cfg = TrainConfig(batch_size=4, max_epochs=7, patience=3, max_lr=0.25, beta1=0.5,
                            beta2=0.75, pct_start=0.5, div_factor=2.5, final_div_factor=8.0,
                            seed=5, val_fraction=0.125, test_fraction=0.25).validate()
    assert parse_config(serialize_config(model_cfg, train_cfg)) == (model_cfg, train_cfg)


def test_serialize_emits_every_key_once():
    model_cfg, train_cfg = parse_config(TOY_TEXT)
    text = serialize_config(model_cfg, train_cfg)
    keys = [line.split("=")[0].strip() for line in text.splitlines()]
    assert len(keys) == len(set(keys))
    assert "seed" in keys and "patch_only_layers" in keys


def test_serialize_rejects_divergent_seeds():
    model_cfg, _ = parse_config(TOY_TEXT)
    with pytest.raises(ConfigError, match="seed"):
        serialize_config(model_cfg, TrainConfig(seed=99))


def test_comments_and_blank_lines_ignored():
    model_cfg, _ = parse_config("\n# full-line comment\ninput_size = 64  # trailing\n"
                                "\npatch_count = 4\nstages = 0,1,2,3\n")
    assert model_cfg.input_size == 64


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 2.*warmup"):
        parse_config("input_size = 32\nwarmup = 5\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("heads = 2\nheads = 4\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="heads"):
        parse_config("heads = lots\n")


def test_bool_parsing():
    model_cfg, _ = parse_config("pos_scale = false\npos_patch = true\n")
    assert model_cfg.pos_scale is False and model_cfg.pos_patch is True
    with pytest.raises(ConfigError, match="boolean"):
        parse_config("pos_scale = maybe\n")


def test_optional_int_parsing():
    model_cfg, _ = parse_config("patch_only_layers = none\n")
    assert model_cfg.patch_only_layers is None
    model_cfg, _ = parse_config(
        "attention_mode = patch_only\nreadout = avg_tokens\nscale_token_mode = none\n"
        "patch_only_layers = 12\n")
    assert model_cfg.patch_only_layers == 12


def test_every_valid_combo_validates():
    for mode, readout, token in sorted(VALID_COMBOS):
        DuoFormerConfig(attention_mode=mode, readout=readout, scale_token_mode=token,
                        seed=0).validate()


def test_valid_combos_are_the_seven_readout_triples():
    assert VALID_COMBOS == {
        ("duo", "scale_token_patch_attn", "fused"), ("duo", "scale_token_patch_attn", "learnable"),
        ("duo", "first_token", "none"), ("duo", "avg_tokens", "none"),
        ("scale_only", "scale_attn_only_fc", "fused"),
        ("scale_only", "scale_attn_only_fc", "learnable"),
        ("patch_only", "avg_tokens", "none")}


def test_default_config_is_canonical():
    cfg = DuoFormerConfig()
    assert (cfg.input_size, cfg.patch_count, cfg.embed_dim) == (224, 49, 768)
    assert cfg.stages == (0, 1, 2, 3) and cfg.channels == (256, 512, 1024, 2048)
    cfg.validate()


def test_train_config_guards():
    with pytest.raises(ConfigError, match="batch_size"):
        TrainConfig(batch_size=1).validate()
    with pytest.raises(ConfigError, match="patience"):
        TrainConfig(patience=0).validate()
    with pytest.raises(ConfigError, match="patience"):
        TrainConfig(max_epochs=5, patience=6).validate()
    with pytest.raises(ConfigError, match="weight_decay"):
        TrainConfig(weight_decay=0.01).validate()
    with pytest.raises(ConfigError, match="pct_start"):
        TrainConfig(pct_start=1.5).validate()
    with pytest.raises(ConfigError, match="div_factor"):
        TrainConfig(div_factor=0.5).validate()


def test_model_config_guards():
    with pytest.raises(ConfigError, match="heads"):
        DuoFormerConfig(embed_dim=10, heads=4).validate()
    with pytest.raises(ConfigError, match="stages"):
        DuoFormerConfig(stages=()).validate()
    with pytest.raises(ConfigError, match="stages"):
        DuoFormerConfig(stages=(0, 7)).validate()
    with pytest.raises(ConfigError, match="square"):
        DuoFormerConfig(patch_count=5).validate()
    with pytest.raises(ConfigError, match="channels"):
        DuoFormerConfig(channels=(8, 8)).validate()
    with pytest.raises(ConfigError, match="num_classes"):
        DuoFormerConfig(num_classes=1).validate()
    with pytest.raises(ConfigError, match="dtype"):
        DuoFormerConfig(dtype="f16").validate()


@pytest.mark.parametrize("field, value", [("heads", 0), ("heads", -4), ("embed_dim", 0),
                                          ("patch_count", 0), ("patch_count", -4)])
def test_model_size_below_1_is_a_config_error(field, value):
    """Rejected before `embed_dim % heads` or `patch_grid` can use the value."""
    with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
        DuoFormerConfig(**{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("max_lr", math.nan), ("max_lr", math.inf), ("beta1", 2.0), ("beta2", -1.0),
    ("div_factor", math.nan), ("final_div_factor", math.inf)])
def test_train_value_that_gives_a_nan_model_is_a_config_error(field, value):
    """Accepted, each of these values trains a non-finite model."""
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value}).validate()


def test_train_config_accepts_the_edges_of_the_beta_range():
    TrainConfig(beta1=0.0, beta2=0.0).validate()
    TrainConfig(beta1=0.999999, beta2=0.999999).validate()


@pytest.mark.parametrize("key", ["attention_mode", "readout", "scale_token_mode"])
def test_unknown_mode_value_fails_combination_check(key):
    with pytest.raises(ConfigError, match="unsupported combination.*valid: "):
        DuoFormerConfig(**{key: "bogus"}).validate()


def test_fused_token_needs_patch_grid_anchor():
    """fused mode builds its identity path from the stage on the patch grid,
    so the deepest configured stage must have P' = 1."""
    with pytest.raises(ConfigError, match="P'=8"):
        DuoFormerConfig(stages=(0,)).validate()
    with pytest.raises(ConfigError, match="deepest stage 2"):
        DuoFormerConfig(stages=(0, 1, 2)).validate()
    # fine once stage 3 joins, and never a constraint for learnable/none
    DuoFormerConfig(stages=(0, 3)).validate()
    DuoFormerConfig(stages=(0, 1, 2), scale_token_mode="learnable").validate()
    DuoFormerConfig(stages=(0, 1, 2), scale_token_mode="none",
                    readout="first_token").validate()


# ---- property: every text parses or is a ConfigError, every accepted model runs ----

_INTS = st.one_of(st.integers(-2, 4), st.sampled_from([8, 16, 32, 64])).map(str)
_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, 1.0, 1e4]),
                    st.floats(-1.0, 1e5)).map(repr)
_WORDS = sorted({v for combo in VALID_COMBOS for v in combo} | {"f32", "f64", "f16", ""})
_VALUES = {
    "int": _INTS,
    "float": _FLOATS,
    "str": st.sampled_from(_WORDS),
    "bool": st.sampled_from(["true", "false", "0", "maybe"]),
    "tuple[int, ...]": st.lists(st.integers(-1, 4), max_size=4).map(
        lambda v: ", ".join(map(str, v))),
    "int | None": st.one_of(st.just("none"), _INTS),
}
_FIELD_VALUES = {f.name: _VALUES[f.type] for cls in (DuoFormerConfig, TrainConfig)
                 for f in fields(cls)}
# Toy geometries whose deepest stage sits on the patch grid, so that a draw
# with no hostile override is accepted, and every accepted draw builds in
# milliseconds: (input_size, patch_count, stages).
_GEOMETRIES = [("32", "4", "0, 1, 2"), ("32", "1", "0, 1, 2, 3"), ("64", "4", "0, 1, 2, 3"),
               ("64", "16", "0, 1, 2"), ("64", "16", "2")]
_TOY_BASE = st.builds(
    lambda geo, width, combo, channels: {
        "input_size": geo[0], "patch_count": geo[1], "stages": geo[2],
        "embed_dim": str(4 * width), "heads": str(width), "layers": "1",
        "attention_mode": combo[0], "readout": combo[1], "scale_token_mode": combo[2],
        "channels": ", ".join(map(str, channels))},
    st.sampled_from(_GEOMETRIES), st.sampled_from([1, 2, 4]), st.sampled_from(sorted(VALID_COMBOS)),
    st.lists(st.integers(1, 6), min_size=4, max_size=4))
_OVERRIDES = st.lists(st.sampled_from(sorted(_FIELD_VALUES)), max_size=3, unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({k: _FIELD_VALUES[k] for k in keys}))


@settings(deadline=None, max_examples=400)
@given(_TOY_BASE, _OVERRIDES)
def test_any_config_text_parses_or_is_a_config_error_and_accepted_models_run(base, overrides):
    text = "".join(f"{k} = {v}\n" for k, v in {**base, **overrides}.items())
    try:
        model_cfg, _ = parse_config(text)
    except ConfigError:
        return
    model = DuoFormer(replace(model_cfg, dtype="f32"))
    size = model_cfg.input_size
    images = T.Tensor(np.random.default_rng(0).standard_normal((2, size, size, 3))
                      .astype(np.float32))
    logits = model(images)  # train mode, graph recorded
    assert logits.dtype == np.float32 and np.isfinite(logits.data).all(), text
    model.eval()
    with T.no_grad():
        assert np.isfinite(model(images).data).all(), text
