"""Scale/patch dual attention.

A duo layer runs (1) a pre-norm MSA+FFN block over the scale axis,
independently per patch, and (2) a residual MSA, x + MSA(x) with no LN or
FFN, over the patch axis on the scale-token slice. The patch-attention
output is written back into scale index 0, so the next layer's scale
attention sees patch-level context through that single conduit.

Both the scale block and the hybrid baseline's block are
``_pre_norm_block``. ``_READOUTS`` maps each readout to the query rows of
the last scale block and to whether the last layer has patch attention:
readouts that consume the token tensor itself (first_token, avg_tokens,
scale_attn_only_fc) need none, and none is created. Every readout but
avg_tokens reads scale row 0 of the final layer only, so that layer's
scale block takes row 0 alone as its query: LN1 still covers all scale
rows, which row 0 attends over, but no key or value is formed
(``tensor.attention`` folds the key and value weights into the query row,
and the key bias, which softmax cancels, gets a gradient of exactly 0),
and the attention output, residuals, LN2 and FFN run on that one row.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .layers import LayerNorm, Linear, Module
from .tensor import Tensor


class MSA(Module):
    """Multi-head self-attention over the second-to-last axis.

    Heads are contiguous slices of the fused qkv projection; scores scale
    by 1/sqrt(D/h). All leading axes are batch. One ``tensor.attention``
    graph node.
    """

    def __init__(self, embed_dim: int, heads: int, stream):
        super().__init__()
        if embed_dim % heads:
            raise ConfigError(f"embed dim {embed_dim} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = embed_dim // heads
        self.qkv = Linear(embed_dim, 3 * embed_dim, stream.child("qkv").generator())
        self.proj = Linear(embed_dim, embed_dim, stream.child("proj").generator())

    def forward(self, x: Tensor, return_attn: bool = False, queries: int | None = None):
        out, attn = T.attention(x, self.qkv.w, self.qkv.b, self.proj.w, self.proj.b,
                                self.heads, queries)
        if return_attn:
            *lead, t, _ = x.shape
            return out, attn.reshape(tuple(lead) + (self.heads, attn.shape[-2], t))
        return out


class FFN(Module):
    """linear -> GELU -> linear with hidden width 4D, one ``tensor.ffn`` graph node."""

    def __init__(self, embed_dim: int, stream):
        super().__init__()
        self.fc1 = Linear(embed_dim, 4 * embed_dim, stream.child("fc1").generator())
        self.fc2 = Linear(4 * embed_dim, embed_dim, stream.child("fc2").generator())

    def forward(self, x):
        return T.ffn(x, self.fc1.w, self.fc1.b, self.fc2.w, self.fc2.b)


def _pre_norm_block(x: Tensor, ln1: LayerNorm, attn: MSA, ln2: LayerNorm, ffn: FFN,
                    queries: int | None = None) -> Tensor:
    """y = x + attn(ln1(x)), then y + ffn(ln2(y)), over the second-to-last axis.

    LN1 covers every row; only the first ``queries`` rows (all when None)
    attend over them, and only those rows go on and are returned.
    """
    h = attn(ln1(x), queries=queries)
    if queries is not None:
        x = x[..., :queries, :]
    y = x + h
    return y + ffn(ln2(y))


class DuoLayer(Module):
    """One scale-attention block plus (optionally) one patch attention."""

    def __init__(self, embed_dim: int, heads: int, stream, with_patch: bool = True):
        super().__init__()
        self.ln1 = LayerNorm(embed_dim)
        self.scale = MSA(embed_dim, heads, stream.child("scale"))
        self.ln2 = LayerNorm(embed_dim)
        self.ffn = FFN(embed_dim, stream.child("ffn"))
        if with_patch:
            self.patch = MSA(embed_dim, heads, stream.child("patch"))
        self.with_patch = with_patch

    def scale_block(self, x: Tensor, queries: int | None = None) -> Tensor:
        """Pre-norm block over the scale axis of [B, S(+1), N, D] -> [B, queries, N, D]."""
        xt = x.transpose((0, 2, 1, 3))  # patches become batch
        y = _pre_norm_block(xt, self.ln1, self.scale, self.ln2, self.ffn, queries)
        return y.transpose((0, 2, 1, 3))

    def patch_attention(self, scale_tokens: Tensor) -> Tensor:
        """Residual MSA over the patch axis, x + MSA(x): no LN, no FFN."""
        if not self.with_patch:
            raise ContractError("this layer was built without patch attention")
        return scale_tokens + self.patch(scale_tokens)


# readout -> (query rows of the last scale block, None for all of them;
# whether the last layer's patch attention output is the readout)
_READOUTS = {"scale_token_patch_attn": (1, True), "first_token": (1, False),
             "scale_attn_only_fc": (1, False), "avg_tokens": (None, False)}


class DuoEncoder(Module):
    """L stacked duo layers over [B, S(+1), N, D] -> readout [B, N, D].

    scale_pos is added once before layer 1; patch_pos is added to the
    conduit entering the first patch attention. Both are zero-initialized
    and optional. The readout is the last patch attention's output when
    the last layer has one (scale_token_patch_attn in duo mode), else the
    last scale block's row 0, which it then returns alone (first_token,
    scale_attn_only_fc), or the mean of all its rows (avg_tokens).
    """

    def __init__(self, embed_dim: int, heads: int, layers: int, scale_extent: int,
                 n_patches: int, stream, mode: str = "duo",
                 readout: str = "scale_token_patch_attn",
                 pos_scale: bool = True, pos_patch: bool = True):
        super().__init__()
        if layers < 1:
            raise ConfigError(f"encoder needs layers >= 1, got {layers}")
        if mode not in ("duo", "scale_only"):
            raise ConfigError(f"encoder mode must be duo or scale_only, got {mode!r}")
        if readout not in _READOUTS:
            raise ConfigError(f"unknown readout {readout!r}; valid: {', '.join(_READOUTS)}")
        self.layer_count = layers
        self._last_queries, reads_patch = _READOUTS[readout]
        patch_layers = 0
        if mode == "duo":
            patch_layers = layers if reads_patch else layers - 1
        for i in range(layers):
            setattr(self, f"layer{i}",
                    DuoLayer(embed_dim, heads, stream.child(f"layer{i}"),
                             with_patch=i < patch_layers))
        self.scale_pos = (Tensor(np.zeros((scale_extent, embed_dim)), requires_grad=True)
                          if pos_scale else None)
        self.patch_pos = (Tensor(np.zeros((n_patches, embed_dim)), requires_grad=True)
                          if pos_patch and patch_layers > 0 else None)

    def layers(self):
        return [getattr(self, f"layer{i}") for i in range(self.layer_count)]

    def forward(self, x: Tensor) -> Tensor:
        b, s, n, d = x.shape
        if self.scale_pos is not None:
            if self.scale_pos.shape[0] != s:
                raise DimensionError(
                    f"scale extent {s} does not match positional table {self.scale_pos.shape}")
            x = x + self.scale_pos.reshape((1, s, 1, d))
        for i, layer in enumerate(self.layers()):
            x = layer.scale_block(x, self._last_queries if i + 1 == self.layer_count else None)
            if not layer.with_patch:
                continue
            conduit = x[:, 0]  # [B, N, D]
            if self.patch_pos is not None and i == 0:  # patch attention starts at layer 0
                conduit = conduit + self.patch_pos
            out = layer.patch_attention(conduit)
            if i + 1 < self.layer_count:
                x = T.concat([out.reshape((b, 1, n, d)), x[:, 1:]], axis=1)
        if layer.with_patch:  # the last layer's patch attention output is the readout
            return out
        return x.mean(axis=1) if self._last_queries is None else x[:, 0]


class TransformerBlock(Module):
    """Standard pre-norm block (both residuals, LN, FFN) over the token axis."""

    def __init__(self, embed_dim: int, heads: int, stream):
        super().__init__()
        self.ln1 = LayerNorm(embed_dim)
        self.attn = MSA(embed_dim, heads, stream.child("attn"))
        self.ln2 = LayerNorm(embed_dim)
        self.ffn = FFN(embed_dim, stream.child("ffn"))

    def forward(self, x):
        return _pre_norm_block(x, self.ln1, self.attn, self.ln2, self.ffn)


class PatchEncoder(Module):
    """Plain ViT-style encoder over the one-row tokens [B, 1, N, D] (the hybrid baseline)."""

    def __init__(self, embed_dim: int, heads: int, layers: int, n_patches: int,
                 stream, pos_patch: bool = True):
        super().__init__()
        if layers < 1:
            raise ConfigError(f"encoder needs layers >= 1, got {layers}")
        self.layer_count = layers
        for i in range(layers):
            setattr(self, f"layer{i}",
                    TransformerBlock(embed_dim, heads, stream.child(f"layer{i}")))
        self.pos = (Tensor(np.zeros((n_patches, embed_dim)), requires_grad=True)
                    if pos_patch else None)

    def forward(self, x: Tensor) -> Tensor:
        b, _, n, d = x.shape
        x = x.reshape((b, n, d))
        if self.pos is not None:
            x = x + self.pos
        for i in range(self.layer_count):
            x = getattr(self, f"layer{i}")(x)
        return x
