"""Four-stage feature pyramid: toy CNN forward or ingestion from disk.

Stage i of an H-px input has spatial extent P_i = H / (4 * 2**i): the stem
downsamples by 4 and each later stage by a further 2. Every map, from the
image to the pyramid boundary, is channel-last [B, P, P, C].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, FormatError
from .layers import BatchNorm2d, Conv2d, Module, conv_bn_relu_unit
from .serialize import load_tensors, save_tensors
from .tensor import Tensor

STAGE_INDICES = (0, 1, 2, 3)


def stage_set(stages) -> "tuple[int, ...]":
    """`stages` sorted and deduplicated; raises unless a non-empty subset of STAGE_INDICES."""
    out = tuple(sorted(set(stages)))
    if not out or any(s not in STAGE_INDICES for s in out):
        raise ConfigError(f"invalid stage subset {tuple(stages)}: stages must be a non-empty "
                          f"subset of {STAGE_INDICES}")
    return out


def stage_extent(input_size: int, stage: int) -> int:
    """P_i = H / (4 * 2**i); raises when not an exact integer."""
    denom = 4 * 2 ** stage
    if input_size % denom:
        raise ConfigError(f"input size {input_size} not divisible by {denom} (stage {stage})")
    return input_size // denom


@dataclass
class FeaturePyramid:
    """Ordered (stage_index, features [B, P_i, P_i, C_i]) pairs plus the input size."""
    stages: "list[tuple[int, Tensor]]"
    input_size: int

    def __post_init__(self):
        if not self.stages:
            raise ContractError("pyramid must contain at least one stage")
        last = -1
        batch = None
        for idx, feat in self.stages:
            if idx not in STAGE_INDICES:
                raise ContractError(f"stage index {idx} outside {STAGE_INDICES}")
            if idx <= last:
                raise ContractError("stage indices must be strictly increasing")
            last = idx
            if feat.ndim != 4 or feat.shape[1] != feat.shape[2]:
                raise ContractError(f"stage{idx} features must be [B,P,P,C], got {feat.shape}")
            p = stage_extent(self.input_size, idx)
            if feat.shape[1] != p:
                raise ContractError(f"stage{idx} spatial extent {feat.shape[1]} != "
                                    f"H/(4*2^{idx}) = {p} for input size {self.input_size}")
            if batch is None:
                batch = feat.shape[0]
            elif feat.shape[0] != batch:
                raise ContractError(f"stage{idx} batch extent {feat.shape[0]} != {batch}")

    @property
    def batch(self) -> int:
        return self.stages[0][1].shape[0]

    def __len__(self) -> int:
        return self.batch

    def __getitem__(self, idx) -> "FeaturePyramid":
        """Sub-pyramid of the samples `idx` selects (an index array copies them)."""
        return FeaturePyramid([(i, Tensor(feat.data[idx])) for i, feat in self.stages],
                              input_size=self.input_size)

    @property
    def stage_indices(self) -> "tuple[int, ...]":
        return tuple(i for i, _ in self.stages)

    def stage(self, idx: int) -> Tensor:
        for i, feat in self.stages:
            if i == idx:
                return feat
        raise ContractError(f"pyramid has no stage {idx} (present: {self.stage_indices})")


class _Stage(Module):
    """conv3x3(s2) -> BN -> ReLU -> conv3x3(s1 or s2) -> BN -> ReLU."""

    def __init__(self, c_in: int, c_out: int, rng, second_stride: int):
        super().__init__()
        self.conv1 = Conv2d(c_in, c_out, 3, rng, stride=2, padding=1)
        self.bn1 = BatchNorm2d(c_out)
        self.conv2 = Conv2d(c_out, c_out, 3, rng, stride=second_stride, padding=1)
        self.bn2 = BatchNorm2d(c_out)

    def forward(self, x):
        x = conv_bn_relu_unit(self.conv1, self.bn1, x)
        return conv_bn_relu_unit(self.conv2, self.bn2, x)


class ToyBackbone(Module):
    """Minimal CNN producing the pyramid stages it is built for; two convs per stage.

    Stage 0 is the stem (both convs stride 2, total /4); stages 1-3 use one
    stride-2 and one stride-1 conv (/2 each). Conv stages 0..max(stages) are
    built, and `forward` emits exactly `stages`.
    """

    def __init__(self, channels, stream, stages=STAGE_INDICES):
        super().__init__()
        if len(channels) != len(STAGE_INDICES):
            raise ConfigError(f"backbone needs {len(STAGE_INDICES)} channel widths, "
                              f"got {list(channels)}")
        stages = stage_set(stages)
        self.stages = stages
        prev = 3
        for i, c in enumerate(channels[:stages[-1] + 1]):
            rng = stream.child(f"stage{i}").generator()
            setattr(self, f"stage{i}", _Stage(prev, c, rng, second_stride=2 if i == 0 else 1))
            prev = c

    def forward(self, images: Tensor) -> FeaturePyramid:
        """images: [B, H, W, 3] channel-last, H == W with a whole extent at every built stage."""
        if images.ndim != 4 or images.shape[3] != 3:
            raise ConfigError(f"expected [B,H,W,3] images, got {images.shape}")
        b, h, w, _ = images.shape
        if h != w:
            raise ConfigError(f"input must be square, got {h}x{w}")
        stage_extent(h, self.stages[-1])  # divides for the deepest stage, so for all
        x, out = images, []
        for i in range(self.stages[-1] + 1):
            x = getattr(self, f"stage{i}")(x)
            if i in self.stages:
                out.append((i, x))
        return FeaturePyramid(out, input_size=h)


_STAGE_ENTRIES = {f"stage{i}": i for i in STAGE_INDICES}


def save_pyramid(path, pyramid: FeaturePyramid) -> None:
    entries = {f"stage{i}": feat.data.astype(np.float32, copy=False)
               for i, feat in pyramid.stages}
    entries["input_size"] = np.array(pyramid.input_size, dtype=np.int64)
    save_tensors(path, entries)


def load_pyramid(path) -> FeaturePyramid:
    """Read a pyramid container; a failed FeaturePyramid check is a FormatError."""
    entries = load_tensors(path)
    if "input_size" not in entries:
        raise FormatError("pyramid container lacks an 'input_size' entry")
    input_size = entries.pop("input_size")
    if input_size.ndim != 0 or input_size.dtype != np.int64:
        raise FormatError(f"pyramid 'input_size' must be a rank-0 i64 entry, got "
                          f"{input_size.dtype} of shape {input_size.shape}")
    stages = []
    for name, arr in entries.items():
        if name not in _STAGE_ENTRIES:
            raise FormatError(f"unexpected entry {name!r} in pyramid container")
        stages.append((_STAGE_ENTRIES[name], Tensor(arr.astype(np.float32))))
    try:
        return FeaturePyramid(sorted(stages, key=lambda t: t[0]), input_size=int(input_size))
    except (ConfigError, ContractError) as e:
        raise FormatError(f"pyramid {path}: {e}") from e
