"""Multi-scale tokenization: project each pyramid stage to D, split into the
N patches shared by all stages, and concatenate along a new scale axis.

Geometry: sqrt(N) must be an integer g; stage i contributes P'_i^2 tokens
per patch with P'_i = P_i / g = H / (4 * 2**i * g), which must divide
exactly. Patches tile the image as a g x g grid (row-major); within a patch,
a stage's P'_i x P'_i positions are row-major too. The scale axis orders
stages deepest first, so scale index 0 belongs to the deepest included
stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import stage_extent
from .errors import ConfigError
from .tensor import Tensor


@dataclass
class MultiScaleTokens:
    """tokens: [B, S(+1), N, D]; scale_layout: (stage, P', P'^2) deepest first."""
    tokens: Tensor
    scale_layout: "list[tuple[int, int, int]]"
    has_scale_token: bool = False

    @property
    def scale_extent(self) -> int:
        return self.tokens.shape[1]


def patch_grid(n_patches: int) -> int:
    g = math.isqrt(n_patches)
    if g * g != n_patches:
        raise ConfigError(f"patch count N={n_patches} is not a perfect square")
    return g


def tokens_per_patch(input_size: int, n_patches: int, stage: int) -> int:
    """P'_i = H / (4 * 2**i * sqrt(N)), validated to be a positive integer."""
    g = patch_grid(n_patches)
    p = stage_extent(input_size, stage)
    if p % g:
        raise ConfigError(
            f"stage {stage}: extent P={p} not divisible by sqrt(N)={g} "
            f"(H={input_size}, N={n_patches})")
    return p // g


def scale_layout(input_size: int, n_patches: int, stages) -> "list[tuple[int, int, int]]":
    """Deepest-first (stage, P'_i, P'_i^2) triples; S = sum of the counts."""
    return [(i, tokens_per_patch(input_size, n_patches, i),
             tokens_per_patch(input_size, n_patches, i) ** 2)
            for i in sorted(stages, reverse=True)]


def patch_index_map(input_size: int, n_patches: int, stages) -> "dict[int, np.ndarray]":
    """Per stage: map[f] = (patch, offset) for flat row-major position f = r*P + c."""
    g = patch_grid(n_patches)
    out = {}
    for i in sorted(stages, reverse=True):
        pp = tokens_per_patch(input_size, n_patches, i)
        p = pp * g
        m = np.empty((p * p, 2), dtype=np.int64)
        for r in range(p):
            for c in range(p):
                patch = (r // pp) * g + (c // pp)
                offset = (r % pp) * pp + (c % pp)
                m[r * p + c] = (patch, offset)
        out[i] = m
    return out


def tokenize(projected: "list[tuple[int, Tensor]]", n_patches: int,
             input_size: int) -> MultiScaleTokens:
    """Stack per-stage token grids into [B, S, N, D], deepest stage first."""
    g = patch_grid(n_patches)
    by_stage = dict(projected)
    layout = scale_layout(input_size, n_patches, list(by_stage))
    parts = []
    for idx, pp, _count in layout:
        feat = by_stage[idx]
        b, p, p2, d = feat.shape
        # [B,P,P,D] -> [B,g,p',g,p',D] -> [B,p',p',g,g,D] -> [B,p'^2,N,D]
        x = feat.reshape((b, g, pp, g, pp, d)).transpose((0, 2, 4, 1, 3, 5))
        parts.append(x.reshape((b, pp * pp, g * g, d)))
    tokens = parts[0] if len(parts) == 1 else T.concat(parts, axis=1)
    return MultiScaleTokens(tokens=tokens, scale_layout=layout, has_scale_token=False)

