"""Full model assembly: backbone -> projections -> scale token -> encoder -> head.

Three attention modes share one readout convention: the encoder (or its
substitute) produces [B, N, D], which is mean-pooled over patches and sent
through a single affine head.

  duo         scale blocks + patch attention each layer; classification
              reads the final patch-attention output (or, for the
              w/o-scale-token readouts, the token tensor after the final
              scale block).
  scale_only  scale blocks only; reads the scale-token slice.
  patch_only  plain pre-norm transformer over the deepest stage's N patch
              tokens (the hybrid-ViT baseline).
"""

from __future__ import annotations

from collections import OrderedDict

from . import serialize
from .backbone import FeaturePyramid, ToyBackbone, stage_set
from .attention import DuoEncoder, PatchEncoder
from .config import DuoFormerConfig, TrainConfig, parse_config, serialize_config
from .errors import ConfigError, ContractError, FormatError
from .layers import Linear, Module
from .rng import SeedStream
from .scale_token import FusedScaleToken, LearnableScaleToken, attach_scale_token
from .tensor import DTYPES, Tensor
from .tokenizer import MultiScaleTokens, scale_layout, tokenize


class DuoFormer(Module):
    def __init__(self, cfg: DuoFormerConfig):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        stream = SeedStream(cfg.seed)
        stages = stage_set(cfg.stages)
        if cfg.attention_mode == "patch_only":
            stages = stages[-1:]  # the hybrid baseline tokenizes the deepest stage only
        self.stage_indices = stages
        # each component is drawn in f64, the draws' precision, and cast as soon
        # as it is built, so no more than one of them is ever alive in f64
        dtype = DTYPES[cfg.dtype]

        self.backbone = ToyBackbone(cfg.channels, stream.child("backbone"),
                                    stages=stages).to_dtype(dtype)
        self.proj = Module()
        for i in stages:
            setattr(self.proj, f"stage{i}",
                    Linear(cfg.channels[i], cfg.embed_dim,
                           stream.child("proj").child(f"stage{i}").generator()))
        self.proj.to_dtype(dtype)
        self.token_count = sum(count for _, _, count in
                               scale_layout(cfg.input_size, cfg.patch_count, stages))

        if cfg.attention_mode == "patch_only":
            depth = cfg.patch_only_layers or cfg.layers
            self.encoder = PatchEncoder(cfg.embed_dim, cfg.heads, depth, cfg.patch_count,
                                        stream.child("encoder"),
                                        pos_patch=cfg.pos_patch).to_dtype(dtype)
        else:
            if cfg.scale_token_mode == "fused":
                self.scale_token = FusedScaleToken(stages, cfg.channels, cfg.input_size,
                                                   cfg.patch_count, cfg.embed_dim,
                                                   stream.child("scale_token"))
            elif cfg.scale_token_mode == "learnable":
                self.scale_token = LearnableScaleToken(cfg.patch_count, cfg.embed_dim,
                                                       stream.child("scale_token"))
            if cfg.scale_token_mode != "none":
                self.scale_token.to_dtype(dtype)
            scale_extent = self.token_count + (cfg.scale_token_mode != "none")
            self.encoder = DuoEncoder(cfg.embed_dim, cfg.heads, cfg.layers, scale_extent,
                                      cfg.patch_count, stream.child("encoder"),
                                      mode=cfg.attention_mode, readout=cfg.readout,
                                      pos_scale=cfg.pos_scale,
                                      pos_patch=cfg.pos_patch).to_dtype(dtype)

        self.head = Linear(cfg.embed_dim, cfg.num_classes,
                           stream.child("head").generator()).to_dtype(dtype)

    # ---- forward ----------------------------------------------------------------

    def pyramid_from(self, x: "Tensor | FeaturePyramid") -> FeaturePyramid:
        """The pyramid of images or pyramid `x` in the model's dtype, checked against the config."""
        dtype = DTYPES[self.cfg.dtype]
        if isinstance(x, FeaturePyramid):
            if any(feat.data.dtype != dtype for _, feat in x.stages):  # pyramid files are f32
                x = FeaturePyramid([(i, feat.astype(dtype)) for i, feat in x.stages],
                                   input_size=x.input_size)
            pyramid = x
        else:
            pyramid = self.backbone(x if x.data.dtype == dtype else x.astype(dtype))
        if pyramid.input_size != self.cfg.input_size:
            raise ConfigError(f"pyramid input_size {pyramid.input_size} != configured "
                              f"{self.cfg.input_size}")
        missing = [s for s in self.stage_indices if s not in pyramid.stage_indices]
        if missing:
            raise ConfigError(f"pyramid lacks configured stages {missing}")
        return pyramid

    def tokens(self, pyramid: FeaturePyramid) -> MultiScaleTokens:
        """Projected and tokenized stages, without a scale token."""
        projected = [(i, getattr(self.proj, f"stage{i}")(pyramid.stage(i)))
                     for i in self.stage_indices]
        return tokenize(projected, self.cfg.patch_count, self.cfg.input_size)

    def forward(self, x: "Tensor | FeaturePyramid") -> Tensor:
        """x: images [B, H, W, 3], or a FeaturePyramid that bypasses the backbone."""
        pyramid = self.pyramid_from(x)
        mst = self.tokens(pyramid)
        if self.cfg.scale_token_mode != "none":
            mst = attach_scale_token(mst, self.scale_token(pyramid))
        return self.head(self.encoder(mst.tokens).mean(axis=1))  # [B, N, D] -> [B, D] -> logits


def count_parameters(model: DuoFormer) -> "OrderedDict[str, int]":
    """Trainable scalar counts per top-level component, plus 'total'."""
    out: "OrderedDict[str, int]" = OrderedDict()
    for name, p in model.named_parameters():
        group = name.split(".", 1)[0]
        out[group] = out.get(group, 0) + p.size
    out["total"] = sum(out.values())
    return out


# ---- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, model: DuoFormer, train_cfg: "TrainConfig | None" = None) -> None:
    """DFC1 with every parameter/state tensor plus a `config` text entry."""
    entries = OrderedDict(model.state_dict())
    tc = train_cfg if train_cfg is not None else TrainConfig(seed=model.cfg.seed)
    entries["config"] = serialize.text_to_array(serialize_config(model.cfg, tc))
    serialize.save_tensors(path, entries)


def load_checkpoint(path) -> "tuple[DuoFormer, TrainConfig]":
    """Rebuild the model from the embedded config, then restore all tensors."""
    entries = serialize.load_tensors(path)
    if "config" not in entries:
        raise FormatError("checkpoint lacks a 'config' entry")
    text = serialize.array_to_text(entries.pop("config"))
    try:  # an invalid embedded config, or tensors that do not fit it
        model_cfg, train_cfg = parse_config(text)
        model = DuoFormer(model_cfg)
        model.load_state_dict(entries)
    except (ConfigError, ContractError) as e:
        raise FormatError(f"checkpoint {path}: {e}") from e
    return model, train_cfg
