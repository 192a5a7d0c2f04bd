"""Synthetic shape x texture dataset.

Each image carries two independent cues on a gray background:

* shape (low frequency): a bright disk or square footprint, clearly visible
  after 8x downsampling;
* texture (high frequency): horizontal stripes inside the footprint with
  period 2 px or 4 px and per-sample random phase — full-period block
  averages cancel the stripes, and the random phase decorrelates the edge
  residual, so the cue dies under 8x pooling and only survives at fine
  scales (as local vertical-derivative energy, not as a fixed template).

Labels are shape_index * n_textures + texture_index. Noise is seeded
per-sample, sigma 0.1, and images are float32 in [0, 1].
"""

from __future__ import annotations

import os

import numpy as np

from .backbone import STAGE_INDICES, stage_extent
from .errors import ConfigError, FormatError
from .rng import SeedStream
from .serialize import load_tensor, save_tensor

SHAPES = ("disk", "square")
TEXTURE_PERIODS = (2, 4)
NOISE_SIGMA = 0.1


def class_names(classes: int) -> "list[str]":
    if classes == 2:
        return [f"{s}_p{TEXTURE_PERIODS[0]}" for s in SHAPES]
    if classes == 4:
        return [f"{s}_p{p}" for s in SHAPES for p in TEXTURE_PERIODS]
    raise ConfigError(f"classes must be 2 (shape only) or 4 (shape x texture), got {classes}")


def _render(size: int, shape: str, period: int, rng) -> np.ndarray:
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    cx = size / 2 + rng.uniform(-size * 0.05, size * 0.05)
    cy = size / 2 + rng.uniform(-size * 0.05, size * 0.05)
    half = size * rng.uniform(0.22, 0.3)
    if shape == "disk":
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= half ** 2
    else:
        mask = (np.abs(xx - cx) <= half) & (np.abs(yy - cy) <= half)
    img = np.full((size, size), 0.35)
    img[mask] = 0.75
    phase = rng.integers(0, period)  # keeps 8x block averages from seeing a fixed template
    stripe = np.where(((yy + phase) // (period // 2)).astype(np.int64) % 2 == 0, 0.15, -0.15)
    img = img + stripe * mask
    img3 = np.repeat(img[:, :, None], 3, axis=2)
    img3 = img3 + rng.normal(0.0, NOISE_SIGMA, size=img3.shape)
    return np.clip(img3, 0.0, 1.0).astype(np.float32)


def make_synthetic(classes: int = 4, samples: int = 256, size: int = 64,
                   seed: int = 0) -> "tuple[np.ndarray, np.ndarray, list[str]]":
    """In-memory dataset: images [n, size, size, 3] f32, labels [n] i64."""
    if size < 32:
        raise ConfigError(f"size must be >= 32 (one cell at stage 3 of the backbone), got {size}")
    stage_extent(size, STAGE_INDICES[0])  # no stage of any config fits a size this rejects
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    names = class_names(classes)
    n_tex = len(TEXTURE_PERIODS) if classes == 4 else 1
    stream = SeedStream(seed).child("synthetic")
    images = np.empty((samples, size, size, 3), dtype=np.float32)
    labels = np.empty(samples, dtype=np.int64)
    for i in range(samples):
        label = i % classes
        shape = SHAPES[label // n_tex]
        period = TEXTURE_PERIODS[label % n_tex]
        images[i] = _render(size, shape, period, stream.child(i).generator())
        labels[i] = label
    return images, labels, names


def gen_synthetic(out_dir, classes: int = 4, samples: int = 256, size: int = 64,
                  seed: int = 0) -> str:
    """Write images.dft / labels.dft / manifest.txt into out_dir."""
    images, labels, names = make_synthetic(classes, samples, size, seed)
    os.makedirs(out_dir, exist_ok=True)
    save_tensor(os.path.join(out_dir, "images.dft"), images)
    save_tensor(os.path.join(out_dir, "labels.dft"), labels)
    manifest = (f"seed = {seed}\n"
                f"size = {size}\n"
                f"samples = {samples}\n"
                f"classes = {', '.join(names)}\n")
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write(manifest)
    return out_dir


def load_dataset(data_dir) -> "tuple[np.ndarray, np.ndarray]":
    images_path = os.path.join(data_dir, "images.dft")
    labels_path = os.path.join(data_dir, "labels.dft")
    for p in (images_path, labels_path):
        if not os.path.exists(p):
            raise FormatError(f"dataset file missing: {p}")
    images = load_tensor(images_path)
    labels = load_tensor(labels_path)
    if images.ndim != 4 or images.shape[3] != 3 or images.dtype != np.float32:
        raise FormatError(f"images.dft must be [n,size,size,3] f32, got "
                          f"{images.shape} {images.dtype.name}")
    if labels.ndim != 1 or labels.dtype != np.int64 or labels.shape[0] != images.shape[0]:
        raise FormatError(f"labels.dft must be [n] i64 matching images, got "
                          f"{labels.shape} {labels.dtype.name}")
    if (labels < 0).any():
        raise FormatError(f"labels.dft holds a negative class id, {labels.min()}")
    return images, labels


def split_dataset(labels: np.ndarray, val_fraction: float, test_fraction: float,
                  seed: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Stratified (train, val, test) index arrays; seeded, disjoint, exhaustive."""
    rng = SeedStream(seed).child("split").generator()
    train, val, test = ([np.empty(0, dtype=np.int64)] for _ in range(3))  # no labels: empty splits
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        idx = idx[rng.permutation(len(idx))]
        n_test = int(round(len(idx) * test_fraction))
        n_val = int(round(len(idx) * val_fraction))
        test.append(idx[:n_test])
        val.append(idx[n_test:n_test + n_val])
        train.append(idx[n_test + n_val:])
    return (np.sort(np.concatenate(train)), np.sort(np.concatenate(val)),
            np.sort(np.concatenate(test)))


def block_average(images: np.ndarray, factor: int) -> np.ndarray:
    """Average over factor x factor blocks (the downsampling that kills texture)."""
    n, h, w, c = images.shape
    if h % factor or w % factor:
        raise ConfigError(f"extent {(h, w)} not divisible by {factor}")
    return images.reshape(n, h // factor, factor, w // factor, factor, c).mean(axis=(2, 4))
