import os

import numpy as np
import numpy.testing as npt
import pytest

from duoformer.data import (class_names, gen_synthetic, load_dataset, make_synthetic,
                            split_dataset)
from duoformer.errors import ConfigError, FormatError
from duoformer.serialize import save_tensor


# ---- generation ------------------------------------------------------------------


def test_classes_balanced_by_construction():
    _, labels, names = make_synthetic(classes=4, samples=256, seed=0)
    assert names == ["disk_p2", "disk_p4", "square_p2", "square_p4"]
    counts = np.bincount(labels, minlength=4)
    npt.assert_array_equal(counts, np.full(4, 64))


def test_two_class_variant_uses_shape_only():
    _, labels, names = make_synthetic(classes=2, samples=64, seed=0)
    assert names == ["disk_p2", "square_p2"]
    npt.assert_array_equal(np.bincount(labels), np.array([32, 32]))


def test_class_names_rejects_other_counts():
    with pytest.raises(ConfigError, match="classes"):
        class_names(3)


def test_images_are_unit_interval_f32():
    images, _, _ = make_synthetic(classes=4, samples=8, size=32, seed=0)
    assert images.dtype == np.float32 and images.shape == (8, 32, 32, 3)
    assert images.min() >= 0.0 and images.max() <= 1.0


def test_same_seed_is_bitwise_identical():
    a, la, _ = make_synthetic(classes=4, samples=16, size=32, seed=7)
    b, lb, _ = make_synthetic(classes=4, samples=16, size=32, seed=7)
    npt.assert_array_equal(a, b)
    npt.assert_array_equal(la, lb)


def test_different_seeds_differ():
    a, _, _ = make_synthetic(classes=4, samples=8, size=32, seed=0)
    b, _, _ = make_synthetic(classes=4, samples=8, size=32, seed=1)
    assert np.abs(a - b).max() > 0


def test_size_below_backbone_floor_rejected():
    with pytest.raises(ConfigError, match="32"):
        make_synthetic(classes=4, samples=4, size=16, seed=0)


@pytest.mark.parametrize("size", [33, 34, 50])
def test_size_no_stage_fits_rejected(size):
    # stage 0 is H / 4, and every deeper stage needs a larger power of 2 to divide H
    with pytest.raises(ConfigError, match="not divisible by 4"):
        make_synthetic(classes=2, samples=2, size=size, seed=0)


def test_size_only_stage_0_fits_accepted():
    images, _, _ = make_synthetic(classes=2, samples=2, size=36, seed=0)
    assert images.shape == (2, 36, 36, 3)


@pytest.mark.parametrize("samples", [0, -1])
def test_sample_count_below_1_rejected(samples):
    with pytest.raises(ConfigError, match="samples must be >= 1"):
        make_synthetic(classes=4, samples=samples, size=32, seed=0)


# ---- the scale structure of the cues -----------------------------------------------


def _nearest_centroid_accuracy(feats, labels):
    """Fit centroids on a shuffled half, score the other half."""
    idx = np.random.default_rng(0).permutation(len(feats))
    train, test = idx[::2], idx[1::2]
    classes = np.unique(labels)
    centroids = np.stack([feats[train][labels[train] == c].mean(axis=0) for c in classes])
    d = ((feats[test][:, None, :] - centroids[None]) ** 2).sum(axis=2)
    preds = classes[np.argmin(d, axis=1)]
    return float((preds == labels[test]).mean())


def block_average(images: np.ndarray, factor: int) -> np.ndarray:
    """Average over factor x factor blocks (the downsampling that kills texture)."""
    n, h, w, c = images.shape
    if h % factor or w % factor:
        raise ConfigError(f"extent {(h, w)} not divisible by {factor}")
    return images.reshape(n, h // factor, factor, w // factor, factor, c).mean(axis=(2, 4))


def _row_energy(images):
    """Mean squared vertical derivative — phase-free stripe-frequency statistic."""
    return ((images[:, 1:] - images[:, :-1]) ** 2).mean(axis=(1, 2, 3))


def test_downsampling_kills_texture_but_not_shape():
    images, labels, _ = make_synthetic(classes=4, samples=200, size=64, seed=0)
    coarse = block_average(images, 8).reshape(len(images), -1)
    assert _nearest_centroid_accuracy(coarse, labels // 2) > 0.75  # shape survives
    assert _nearest_centroid_accuracy(coarse, labels % 2) < 0.65  # texture at chance


def test_texture_is_a_frequency_cue_at_full_resolution():
    # the random stripe phase rules out template matching; the vertical
    # derivative energy still tells period 2 from period 4
    images, labels, _ = make_synthetic(classes=4, samples=200, size=64, seed=0)
    texture = labels % 2
    e_fine = _row_energy(images)
    e_coarse = _row_energy(block_average(images, 8))
    assert e_fine[texture == 0].mean() > 1.2 * e_fine[texture == 1].mean()
    thr = (e_fine[texture == 0].mean() + e_fine[texture == 1].mean()) / 2
    assert ((e_fine < thr).astype(int) == texture).mean() > 0.8
    ratio = e_coarse[texture == 0].mean() / e_coarse[texture == 1].mean()
    assert abs(ratio - 1.0) < 0.05


def test_block_average_values():
    x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
    out = block_average(x, 2)
    npt.assert_allclose(out[0, :, :, 0], np.array([[2.5, 4.5], [10.5, 12.5]]))


def test_block_average_rejects_indivisible():
    with pytest.raises(ConfigError):
        block_average(np.zeros((1, 6, 6, 1), dtype=np.float32), 4)


# ---- on-disk dataset ----------------------------------------------------------------


def test_gen_load_round_trip(tmp_path):
    d = tmp_path / "data"
    gen_synthetic(str(d), classes=4, samples=12, size=32, seed=3)
    images, labels = load_dataset(str(d))
    want_images, want_labels, _ = make_synthetic(classes=4, samples=12, size=32, seed=3)
    npt.assert_array_equal(images, want_images)
    npt.assert_array_equal(labels, want_labels)


def test_manifest_contents(tmp_path):
    d = tmp_path / "data"
    gen_synthetic(str(d), classes=4, samples=12, size=32, seed=3)
    text = (d / "manifest.txt").read_text()
    assert "seed = 3" in text and "size = 32" in text and "samples = 12" in text
    assert "disk_p2" in text


def test_same_seed_same_files(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    gen_synthetic(str(d1), classes=2, samples=8, size=32, seed=5)
    gen_synthetic(str(d2), classes=2, samples=8, size=32, seed=5)
    for name in ("images.dft", "labels.dft", "manifest.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(FormatError, match="missing"):
        load_dataset(str(tmp_path))


def test_load_rejects_wrong_dtype(tmp_path):
    d = tmp_path / "data"
    os.makedirs(d)
    save_tensor(d / "images.dft", np.zeros((4, 32, 32, 3), dtype=np.float32))
    save_tensor(d / "labels.dft", np.zeros(4, dtype=np.float32))  # labels must be i64
    with pytest.raises(FormatError, match="labels"):
        load_dataset(str(d))


def test_load_rejects_length_mismatch(tmp_path):
    d = tmp_path / "data"
    os.makedirs(d)
    save_tensor(d / "images.dft", np.zeros((4, 32, 32, 3), dtype=np.float32))
    save_tensor(d / "labels.dft", np.zeros(5, dtype=np.int64))
    with pytest.raises(FormatError, match="labels"):
        load_dataset(str(d))


def test_load_rejects_a_negative_class_id(tmp_path):
    d = tmp_path / "data"
    os.makedirs(d)
    save_tensor(d / "images.dft", np.zeros((4, 32, 32, 3), dtype=np.float32))
    save_tensor(d / "labels.dft", np.array([0, 1, -1, 1], dtype=np.int64))
    with pytest.raises(FormatError, match="negative class id, -1"):
        load_dataset(str(d))


# ---- splits ---------------------------------------------------------------------------


def test_split_sizes_at_768():
    labels = np.arange(768) % 4
    train, val, test = split_dataset(labels, 1.0 / 6.0, 1.0 / 6.0, seed=0)
    assert (len(train), len(val), len(test)) == (512, 128, 128)


def test_split_is_stratified():
    labels = np.arange(768) % 4
    train, val, test = split_dataset(labels, 1.0 / 6.0, 1.0 / 6.0, seed=0)
    for part, size in ((train, 128), (val, 32), (test, 32)):
        npt.assert_array_equal(np.bincount(labels[part], minlength=4), np.full(4, size))


def test_split_disjoint_and_exhaustive():
    labels = np.arange(100) % 4
    train, val, test = split_dataset(labels, 0.2, 0.1, seed=1)
    combined = np.concatenate([train, val, test])
    npt.assert_array_equal(np.sort(combined), np.arange(100))


def test_split_deterministic_per_seed():
    labels = np.arange(60) % 3
    a = split_dataset(labels, 0.2, 0.2, seed=4)
    b = split_dataset(labels, 0.2, 0.2, seed=4)
    c = split_dataset(labels, 0.2, 0.2, seed=5)
    for x, y in zip(a, b):
        npt.assert_array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_split_indices_sorted():
    labels = np.arange(40) % 2
    for part in split_dataset(labels, 0.25, 0.25, seed=2):
        npt.assert_array_equal(part, np.sort(part))


def test_split_of_no_labels_is_empty():
    for part in split_dataset(np.zeros(0, dtype=np.int64), 0.2, 0.2, seed=0):
        assert part.shape == (0,) and part.dtype == np.int64
