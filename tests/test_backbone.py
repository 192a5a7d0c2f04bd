import numpy as np
import numpy.testing as npt
import pytest

from duoformer.backbone import (FeaturePyramid, ToyBackbone, load_pyramid, save_pyramid,
                                stage_extent)
from duoformer.errors import ConfigError, ContractError, FormatError
from duoformer.gradcheck import grad_check_report
from duoformer.rng import SeedStream
from duoformer.tensor import Tensor


def _backbone(channels=(2, 3, 4, 5), dtype=np.float32, stages=(0, 1, 2, 3)):
    # eval mode so batch-1 probes don't trip the BN small-batch guard
    bb = ToyBackbone(channels, SeedStream(0).child("bb"), stages=stages).to_dtype(dtype)
    return bb.eval()


def _images(b, h, rng_seed=0, dtype=np.float32):
    return Tensor(np.random.default_rng(rng_seed).random((b, h, h, 3)).astype(dtype))


# ---- geometry ---------------------------------------------------------------


def test_stage_extents_at_224():
    bb = _backbone(channels=(1, 1, 1, 1))
    pyr = bb(_images(1, 224))
    assert [f.shape[1] for _, f in pyr.stages] == [56, 28, 14, 7]


def test_stage_shapes_at_64():
    bb = _backbone(channels=(8, 16, 32, 64))
    pyr = bb(_images(1, 64))
    shapes = [(f.shape[1], f.shape[2], f.shape[3]) for _, f in pyr.stages]
    assert shapes == [(16, 16, 8), (8, 8, 16), (4, 4, 32), (2, 2, 64)]


def test_batch_passthrough():
    pyr = _backbone(stages=(0, 1, 2))(_images(2, 32))
    assert all(f.shape[0] == 2 for _, f in pyr.stages)


@pytest.mark.parametrize("h", [32, 64, 96, 128, 224])
def test_extent_formula_property(h):
    pyr = _backbone(channels=(1, 1, 1, 1))(_images(1, h))
    for i, f in pyr.stages:
        assert f.shape[1] == h // (4 * 2 ** i) == stage_extent(h, i)


def test_rejects_indivisible_input():
    with pytest.raises(ConfigError, match="32"):
        _backbone()(_images(1, 48))


def test_input_rule_follows_the_deepest_built_stage():
    # 48 px has whole extents through stage 2 (48 / 16 = 3) but not stage 3
    pyr = _backbone(stages=(0, 1, 2))(_images(1, 48))
    assert [f.shape[1] for _, f in pyr.stages] == [12, 6, 3]
    with pytest.raises(ConfigError, match="16"):
        _backbone(stages=(0, 1, 2))(_images(1, 40))


def test_rejects_non_square():
    bb = _backbone()
    x = Tensor(np.zeros((1, 32, 64, 3), dtype=np.float32))
    with pytest.raises(ConfigError, match="square"):
        bb(x)


def test_stage_subset_selects():
    bb = _backbone(stages=(1, 2))
    assert bb(_images(1, 32)).stage_indices == (1, 2)
    # conv stages run through the deepest requested one and stop there
    assert [n for n in bb._children] == ["stage0", "stage1", "stage2"]


def test_backbone_rejects_invalid_stage_subset_at_construction():
    for stages in [(), (0, 4), (-1, 2)]:
        with pytest.raises(ConfigError, match="stage subset"):
            _backbone(stages=stages)


# ---- FeaturePyramid invariants ------------------------------------------------


def test_pyramid_rejects_wrong_extent():
    feat = Tensor(np.zeros((1, 9, 9, 4), dtype=np.float32))
    with pytest.raises(ContractError, match="extent"):
        FeaturePyramid([(0, feat)], input_size=32)


def test_pyramid_rejects_unordered_stages():
    f8 = Tensor(np.zeros((1, 8, 8, 4), dtype=np.float32))
    f4 = Tensor(np.zeros((1, 4, 4, 4), dtype=np.float32))
    with pytest.raises(ContractError, match="increasing"):
        FeaturePyramid([(1, f4), (0, f8)], input_size=32)


def test_pyramid_rejects_mixed_batch():
    f8 = Tensor(np.zeros((1, 8, 8, 4), dtype=np.float32))
    f4 = Tensor(np.zeros((2, 4, 4, 4), dtype=np.float32))
    with pytest.raises(ContractError, match="batch"):
        FeaturePyramid([(0, f8), (1, f4)], input_size=32)


def test_pyramid_rejects_empty():
    with pytest.raises(ContractError):
        FeaturePyramid([], input_size=32)


def test_pyramid_stage_lookup():
    f8 = Tensor(np.zeros((1, 8, 8, 4), dtype=np.float32))
    pyr = FeaturePyramid([(0, f8)], input_size=32)
    assert pyr.stage(0) is f8
    with pytest.raises(ContractError):
        pyr.stage(3)


def test_pyramid_len_and_index_select_samples():
    rng = np.random.default_rng(0)
    pyr = FeaturePyramid([(0, Tensor(rng.random((3, 8, 8, 2)))),
                          (1, Tensor(rng.random((3, 4, 4, 3))))], input_size=32)
    assert len(pyr) == 3
    sub = pyr[np.array([2, 0])]
    assert len(sub) == 2 and sub.stage_indices == (0, 1) and sub.input_size == 32
    for (_, full), (_, part) in zip(pyr.stages, sub.stages):
        npt.assert_array_equal(part.data, full.data[[2, 0]])
    sub.stage(0).data[...] = -1.0  # a copy: the source pyramid is unchanged
    assert pyr.stage(0).data.min() >= 0.0


# ---- gradients ------------------------------------------------------------------


def test_backbone_train_mode_needs_batch():
    bb = ToyBackbone((2, 3, 4, 5), SeedStream(0).child("bb"))
    with pytest.raises(Exception, match="batch"):
        bb(_images(1, 32))


def test_backbone_grad_check():
    bb = ToyBackbone((2, 3, 4, 5), SeedStream(0).child("bb"))
    # data seed chosen so no ReLU pre-activation sits within the FD step of zero
    x = Tensor(np.random.default_rng(0).random((2, 32, 32, 3)))
    weights = {i: np.random.default_rng(10 + i).standard_normal((1,)).item()
               for i in range(4)}

    def loss(_params):
        pyr = bb(x)
        total = None
        for i, f in pyr.stages:
            term = f.sum() * weights[i]
            total = term if total is None else total + term
        return total

    report = grad_check_report(loss, dict(bb.named_parameters()), sample=4)
    worst = max(report.values())
    assert worst < 1e-4, f"worst relative error {worst}"


# ---- save / load -------------------------------------------------------------------


def test_pyramid_round_trip(tmp_path):
    pyr = _backbone(stages=(0, 2))(_images(2, 32))
    p = tmp_path / "pyr.dfc"
    save_pyramid(p, pyr)
    back = load_pyramid(p)
    assert back.input_size == 32 and back.stage_indices == (0, 2)
    for (i, a), (j, b) in zip(pyr.stages, back.stages):
        assert i == j
        npt.assert_array_equal(a.data, b.data)


def test_load_pyramid_minimal_valid(tmp_path):
    from duoformer.serialize import save_tensors
    p = tmp_path / "pyr.dfc"
    save_tensors(p, {"stage3": np.zeros((1, 7, 7, 64), np.float32),
                     "input_size": np.array(224, np.int64)})
    pyr = load_pyramid(p)
    assert pyr.stage_indices == (3,) and pyr.input_size == 224


def test_load_pyramid_rejects_bad_extent(tmp_path):
    from duoformer.serialize import save_tensors
    p = tmp_path / "pyr.dfc"
    save_tensors(p, {"stage1": np.zeros((1, 27, 27, 16), np.float32),
                     "input_size": np.array(224, np.int64)})
    with pytest.raises(FormatError, match="stage1"):
        load_pyramid(p)


def test_load_pyramid_rejects_mixed_batch(tmp_path):
    from duoformer.serialize import save_tensors
    p = tmp_path / "pyr.dfc"
    save_tensors(p, {"stage2": np.zeros((1, 14, 14, 8), np.float32),
                     "stage3": np.zeros((2, 7, 7, 8), np.float32),
                     "input_size": np.array(224, np.int64)})
    with pytest.raises(FormatError, match="batch"):
        load_pyramid(p)


def test_load_pyramid_rejects_stray_entry(tmp_path):
    from duoformer.serialize import save_tensors
    p = tmp_path / "pyr.dfc"
    save_tensors(p, {"stage3": np.zeros((1, 7, 7, 8), np.float32),
                     "junk": np.zeros(3, np.float32),
                     "input_size": np.array(224, np.int64)})
    with pytest.raises(FormatError, match="junk"):
        load_pyramid(p)


def test_load_pyramid_requires_input_size(tmp_path):
    from duoformer.serialize import save_tensors
    p = tmp_path / "pyr.dfc"
    save_tensors(p, {"stage3": np.zeros((1, 7, 7, 8), np.float32)})
    with pytest.raises(FormatError, match="input_size"):
        load_pyramid(p)


@pytest.mark.parametrize("input_size", [np.array([32, 32], np.int64), np.array(32.0)],
                         ids=["vector", "float"])
def test_load_pyramid_requires_scalar_i64_input_size(tmp_path, input_size):
    from duoformer.serialize import save_tensors
    p = tmp_path / "pyr.dfc"
    save_tensors(p, {"stage2": np.zeros((1, 2, 2, 8), np.float32), "input_size": input_size})
    with pytest.raises(FormatError, match="input_size"):
        load_pyramid(p)


@pytest.mark.parametrize("name", ["stage\u00b3", "stage01", "stage4", "stage-1", "stage"])
def test_load_pyramid_rejects_unknown_stage_names(tmp_path, name):
    from duoformer.serialize import save_tensors
    p = tmp_path / "pyr.dfc"
    save_tensors(p, {name: np.zeros((1, 7, 7, 8), np.float32),
                     "input_size": np.array(224, np.int64)})
    with pytest.raises(FormatError, match="unexpected entry"):
        load_pyramid(p)


@pytest.mark.parametrize("entries", [
    {},  # no stage at all
    {"stage2": np.zeros((1, 7, 7, 8), np.float32)},  # 30 px: no whole stage-2 extent
    {"stage2": np.zeros((7, 7, 8), np.float32)},  # rank 3
], ids=["empty", "indivisible", "rank3"])
def test_load_pyramid_reports_pyramid_checks_as_format_errors(tmp_path, entries):
    from duoformer.serialize import save_tensors
    p = tmp_path / "pyr.dfc"
    save_tensors(p, dict(entries, input_size=np.array(30, np.int64)))
    with pytest.raises(FormatError):
        load_pyramid(p)
