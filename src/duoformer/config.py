"""Run configuration: model + training dataclasses and the key=value file format.

The file format is flat text, one `key = value` per line, `#` comments,
unknown keys rejected. `seed` is a single shared key: it seeds both
parameter initialization and data shuffling/splitting. parse/serialize
round-trips up to comment stripping and key order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .backbone import STAGE_INDICES, stage_set
from .errors import ConfigError
from .tensor import DTYPES
from .tokenizer import patch_grid, tokens_per_patch

# readout -> (attention modes, scale-token modes, query rows of the last scale
# block or None for all of them, whether the last patch attention is the readout)
READOUTS = {
    "scale_token_patch_attn": (("duo",), ("fused", "learnable"), 1, True),
    "first_token": (("duo",), ("none",), 1, False),
    "avg_tokens": (("duo", "patch_only"), ("none",), None, False),
    "scale_attn_only_fc": (("scale_only",), ("fused", "learnable"), 1, False),
}
# (attention_mode, readout, scale_token_mode) triples that make structural sense
VALID_COMBOS = {(mode, readout, token) for readout, (modes, tokens, _, _) in READOUTS.items()
                for mode in modes for token in tokens}


@dataclass
class DuoFormerConfig:
    input_size: int = 224
    patch_count: int = 49
    embed_dim: int = 768
    heads: int = 8
    layers: int = 6
    stages: tuple[int, ...] = STAGE_INDICES
    channels: tuple[int, ...] = (256, 512, 1024, 2048)
    scale_token_mode: str = "fused"
    readout: str = "scale_token_patch_attn"
    attention_mode: str = "duo"
    num_classes: int = 4
    pos_scale: bool = True
    pos_patch: bool = True
    dtype: str = "f32"
    seed: int = 0
    patch_only_layers: int | None = None  # None -> use `layers`

    def validate(self) -> "DuoFormerConfig":
        for name in ("input_size", "patch_count", "embed_dim", "heads", "layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        patch_grid(self.patch_count)
        stages = stage_set(self.stages)
        # P' per stage (raises naming the stage); the deepest one anchors the patch grid
        pps = [tokens_per_patch(self.input_size, self.patch_count, s) for s in stages]
        deepest, deepest_pp = stages[-1], pps[-1]
        if self.embed_dim % self.heads:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by heads {self.heads}")
        if len(self.channels) != len(STAGE_INDICES) or any(c < 1 for c in self.channels):
            raise ConfigError(f"channels must be {len(STAGE_INDICES)} positive widths, "
                              f"got {self.channels}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.dtype not in DTYPES:
            raise ConfigError(f"dtype must be one of {tuple(DTYPES)}, got {self.dtype!r}")
        if self.scale_token_mode == "fused" and deepest_pp != 1:
            raise ConfigError(
                f"fused scale token anchors its identity path on the patch grid: "
                f"deepest stage {deepest} has P'={deepest_pp}, need P'=1")
        combo = (self.attention_mode, self.readout, self.scale_token_mode)
        if combo not in VALID_COMBOS:
            raise ConfigError(
                f"unsupported combination attention_mode={combo[0]}, readout={combo[1]}, "
                f"scale_token_mode={combo[2]}; valid: {sorted(VALID_COMBOS)}")
        if self.attention_mode == "patch_only":
            if deepest_pp != 1:
                raise ConfigError(
                    f"patch_only needs the deepest stage on the patch grid "
                    f"(P'={deepest_pp} at stage {deepest}; require P'=1)")
            if self.patch_only_layers is not None and self.patch_only_layers < 1:
                raise ConfigError(f"patch_only_layers must be >= 1, got {self.patch_only_layers}")
        return self


@dataclass
class TrainConfig:
    batch_size: int = 32
    max_epochs: int = 100
    patience: int = 20
    max_lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.0
    pct_start: float = 0.3
    div_factor: float = 25.0
    final_div_factor: float = 1e4
    seed: int = 0
    val_fraction: float = 1.0 / 6.0
    test_fraction: float = 1.0 / 6.0

    @property
    def betas(self) -> "tuple[float, float]":
        return (self.beta1, self.beta2)

    def validate(self) -> "TrainConfig":
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2 (train-mode BN), got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not (1 <= self.patience <= self.max_epochs):
            raise ConfigError(
                f"patience must lie in [1, max_epochs={self.max_epochs}], got {self.patience}")
        if not 0 < self.max_lr < math.inf:
            raise ConfigError(f"max_lr must be positive and finite, got {self.max_lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError(f"beta1 and beta2 must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.weight_decay != 0.0:
            raise ConfigError("weight_decay is fixed at 0 (training uses none); "
                              f"got {self.weight_decay}")
        if not (0.0 < self.pct_start < 1.0):
            raise ConfigError(f"pct_start must lie in (0, 1), got {self.pct_start}")
        if not (1 < self.div_factor < math.inf and 1 < self.final_div_factor < math.inf):
            raise ConfigError("div_factor and final_div_factor must be finite and exceed 1")
        if not (0.0 < self.val_fraction < 0.5 and 0.0 < self.test_fraction < 0.5):
            raise ConfigError("val/test fractions must lie in (0, 0.5)")
        return self


# ---- key=value text format ---------------------------------------------------

def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "1", "yes"):
        return True
    if s.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_int_tuple(s: str) -> "tuple[int, ...]":
    s = s.strip()
    if not s:
        return ()
    return tuple(int(v.strip()) for v in s.split(","))


def _parse_opt_int(s: str):
    return None if s.lower() == "none" else int(s)


# A key's parser follows from its field's annotation (a string under
# `from __future__ import annotations`); a field of any other type fails here.
_TYPE_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
                 "tuple[int, ...]": _parse_int_tuple, "int | None": _parse_opt_int}
_PARSERS = {f.name: _TYPE_PARSERS[f.type]
            for cls in (DuoFormerConfig, TrainConfig) for f in fields(cls)}
_MODEL_FIELDS = [f.name for f in fields(DuoFormerConfig)]
_TRAIN_FIELDS = [f.name for f in fields(TrainConfig) if f.name != "seed"]


def parse_config(text: str) -> "tuple[DuoFormerConfig, TrainConfig]":
    """Parse key=value lines into validated config pairs; unknown keys rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from e
    model_kwargs = {k: v for k, v in values.items() if k in _MODEL_FIELDS}
    train_kwargs = {k: v for k, v in values.items() if k in _TRAIN_FIELDS}
    if "seed" in values:
        train_kwargs["seed"] = values["seed"]
    model_cfg = DuoFormerConfig(**model_kwargs).validate()
    train_cfg = TrainConfig(**train_kwargs).validate()
    return model_cfg, train_cfg


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, tuple):
        return ", ".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(model_cfg: DuoFormerConfig, train_cfg: TrainConfig) -> str:
    if model_cfg.seed != train_cfg.seed:
        raise ConfigError("the file format has one shared seed; model and train seeds differ "
                          f"({model_cfg.seed} vs {train_cfg.seed})")
    lines = []
    for name in _MODEL_FIELDS:
        lines.append(f"{name} = {_format_value(getattr(model_cfg, name))}")
    for name in _TRAIN_FIELDS:
        lines.append(f"{name} = {_format_value(getattr(train_cfg, name))}")
    return "\n".join(lines) + "\n"
