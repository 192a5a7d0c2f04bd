"""Scale token: compress every pyramid stage to the sqrt(N) x sqrt(N) patch
grid, concatenate channels (deepest stage last), and fuse with a 1x1 conv +
BN + ReLU into one D-vector per patch.

Per-stage downsampling depends only on the ratio P'_i = P_i / sqrt(N):
P' == 1 is the identity; P' == 2 pools for stages >= 2 and convolves
(3x3, stride 2) for stages < 2; P' >= 4 convolves once (halving) and pools
by the remaining factor. At the canonical geometry this yields
conv+pool4 / conv+pool2 / pool2 / identity for stages 0..3.
"""

from __future__ import annotations

from . import tensor as T
from .backbone import FeaturePyramid
from .conv import max_pool2d
from .errors import ConfigError, ContractError
from .layers import BatchNorm2d, Conv2d, Module, conv_bn_relu_unit
from .rng import trunc_normal
from .tensor import Tensor
from .tokenizer import MultiScaleTokens, tokens_per_patch


def downsample_plan(ratio: int, stage: int) -> "tuple[bool, int]":
    """(use_conv, pool_factor) turning a P'=ratio map into the patch grid."""
    if ratio < 1:
        raise ConfigError(f"stage {stage}: extent below the patch grid (ratio {ratio})")
    if ratio == 1:
        return False, 1
    if ratio & (ratio - 1):
        raise ConfigError(f"stage {stage}: ratio {ratio} to the patch grid is not a power of 2")
    if ratio == 2:
        return (stage < 2), 1 if stage < 2 else 2
    return True, ratio // 2


class _ConvBNReLU(Module):
    def __init__(self, c_in, c_out, k, rng, stride=1, padding=0):
        super().__init__()
        self.conv = Conv2d(c_in, c_out, k, rng, stride=stride, padding=padding)
        self.bn = BatchNorm2d(c_out)

    def forward(self, x):
        return conv_bn_relu_unit(self.conv, self.bn, x)


class FusedScaleToken(Module):
    """Pyramid summary token: per-stage downsample, channel concat, 1x1 fuse to D."""

    def __init__(self, stages, channels, input_size: int, n_patches: int, embed_dim: int, stream):
        super().__init__()
        stages = sorted(stages)
        plans = {}
        for i in stages:
            ratio = tokens_per_patch(input_size, n_patches, i)
            use_conv, pool = downsample_plan(ratio, i)
            plans[i] = (use_conv, pool)
            if use_conv:
                rng = stream.child(f"down{i}").generator()
                setattr(self, f"down{i}",
                        _ConvBNReLU(channels[i], channels[i], 3, rng, stride=2, padding=1))
        self.stages = stages
        self.plans = plans
        self.concat_channels = sum(channels[i] for i in stages)
        self.fuse = _ConvBNReLU(self.concat_channels, embed_dim, 1,
                                stream.child("fuse").generator())

    def downsampled(self, pyramid: FeaturePyramid) -> "list[tuple[int, Tensor]]":
        """Per-stage [B, g, g, C_i] maps on the patch grid, before concat/fusion."""
        out = []
        for i in self.stages:
            x = pyramid.stage(i)
            use_conv, pool = self.plans[i]
            if use_conv:
                x = getattr(self, f"down{i}")(x)
            if pool > 1:
                x = max_pool2d(x, pool)
            out.append((i, x))
        return out

    def concatenated(self, pyramid: FeaturePyramid) -> Tensor:
        """Channel concat of the downsampled stages (deepest last), pre-fusion."""
        parts = [x for _, x in self.downsampled(pyramid)]
        return parts[0] if len(parts) == 1 else T.concat(parts, axis=-1)

    def forward(self, pyramid: FeaturePyramid) -> Tensor:
        x = self.fuse(self.concatenated(pyramid))  # [B, g, g, D]
        b, g, _, d = x.shape
        return x.reshape((b, g * g, d))


class LearnableScaleToken(Module):
    """Free [N, D] parameter broadcast over the pyramid's batch."""

    def __init__(self, n_patches: int, embed_dim: int, stream):
        super().__init__()
        rng = stream.child("token").generator()
        self.token = Tensor(trunc_normal(rng, (n_patches, embed_dim)), requires_grad=True)

    def forward(self, pyramid: FeaturePyramid) -> Tensor:
        n, d = self.token.shape
        return T.broadcast_to(self.token.reshape((1, n, d)), (pyramid.batch, n, d))


def attach_scale_token(tokens: MultiScaleTokens, scale_token: "Tensor | None") -> MultiScaleTokens:
    """Prepend the [B, N, D] token at scale index 0 (None passes through)."""
    if scale_token is None:
        return tokens
    if tokens.has_scale_token:
        raise ContractError("tokens already carry a scale token at index 0")
    b, s, n, d = tokens.tokens.shape
    if scale_token.shape != (b, n, d):
        raise ContractError(
            f"scale token shape {scale_token.shape} does not match tokens [{b}, {n}, {d}]")
    stacked = T.concat([scale_token.reshape((b, 1, n, d)), tokens.tokens], axis=1)
    return MultiScaleTokens(tokens=stacked, scale_layout=tokens.scale_layout,
                            has_scale_token=True)
