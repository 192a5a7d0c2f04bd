import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duoformer.errors import ConfigError
from duoformer.layers import Linear
from duoformer.rng import SeedStream
from duoformer.tensor import Tensor
from duoformer.tokenizer import (patch_grid, patch_index_map, scale_layout, tokenize,
                                 tokens_per_patch)
from oracles import patch_scatter


def _projected(input_size, n_patches, stages, d=3, batch=1, seed=0):
    """Random already-projected stages [(idx, Tensor [B,P,P,D])]."""
    rng = np.random.default_rng(seed)
    out = []
    for i in sorted(stages):
        p = input_size // (4 * 2 ** i)
        out.append((i, Tensor(rng.random((batch, p, p, d)).astype(np.float32))))
    return out


# ---- geometry ----------------------------------------------------------------


def test_scale_extent_85_at_224():
    layout = scale_layout(224, 49, (0, 1, 2, 3))
    assert [c for _, _, c in layout] == [1, 4, 16, 64]
    assert sum(c for _, _, c in layout) == 85


def test_scale_extent_21_at_32():
    layout = scale_layout(32, 4, (0, 1, 2))
    assert sum(c for _, _, c in layout) == 21


def test_deepest_first_ordering():
    layout = scale_layout(224, 49, (1, 3, 0, 2))
    assert [i for i, _, _ in layout] == [3, 2, 1, 0]


def test_tokens_per_patch_values():
    assert [tokens_per_patch(224, 49, i) for i in range(4)] == [8, 4, 2, 1]


def test_stage3_indivisible_at_32():
    # P_3 = 1 cannot be split over a 2x2 patch grid
    with pytest.raises(ConfigError, match="stage 3"):
        tokens_per_patch(32, 4, 3)


def test_patch_grid_rejects_non_square():
    with pytest.raises(ConfigError, match="square"):
        patch_grid(48)


@given(h_mult=st.integers(1, 4), g=st.sampled_from([1, 2, 7]))
@settings(max_examples=30, deadline=None)
def test_extent_formula_property(h_mult, g):
    h = 32 * h_mult * g
    stages = [i for i in range(4) if (h // (4 * 2 ** i)) % g == 0]
    layout = scale_layout(h, g * g, stages)
    assert sum(c for _, _, c in layout) == sum(
        (h // (4 * 2 ** i * g)) ** 2 for i in stages)


# ---- index map --------------------------------------------------------------


def test_index_map_bijection_224():
    maps = patch_index_map(224, 49, (0, 1, 2, 3))
    for i, m in maps.items():
        pp = tokens_per_patch(224, 49, i)
        pairs = {tuple(row) for row in m}
        assert len(pairs) == m.shape[0]
        assert pairs == {(n, o) for n in range(49) for o in range(pp * pp)}


def test_index_map_matches_scatter_oracle():
    maps = patch_index_map(224, 49, (0, 1, 2, 3))
    for i, m in maps.items():
        p = 224 // (4 * 2 ** i)
        for r in range(p):
            for c in range(p):
                assert tuple(m[r * p + c]) == patch_scatter(r, c, p, 7)


def test_index_map_deepest_is_identity_grid():
    # P'_3 = 1: each deepest-stage position IS its patch
    m = patch_index_map(224, 49, (3,))[3]
    npt.assert_array_equal(m[:, 0], np.arange(49))
    npt.assert_array_equal(m[:, 1], np.zeros(49, dtype=np.int64))


def test_index_map_patches_are_contiguous_blocks():
    m = patch_index_map(64, 4, (0,))[0]
    p, pp = 16, 8
    for n in range(4):
        flat = np.nonzero(m[:, 0] == n)[0]
        rows, cols = flat // p, flat % p
        assert rows.max() - rows.min() == pp - 1
        assert cols.max() - cols.min() == pp - 1
        assert len(flat) == pp * pp


def test_cross_stage_alignment():
    # a coarse position and every fine position it covers share a patch
    for i in range(3):
        for j in range(i + 1, 4):
            pi, pj = 224 // (4 * 2 ** i), 224 // (4 * 2 ** j)
            ratio = pi // pj
            for rj in range(pj):
                for cj in range(pj):
                    coarse, _ = patch_scatter(rj, cj, pj, 7)
                    for dr in range(ratio):
                        for dc in range(ratio):
                            fine, _ = patch_scatter(rj * ratio + dr, cj * ratio + dc, pi, 7)
                            assert fine == coarse


# ---- projection --------------------------------------------------------------


def test_identity_projection_preserves_features():
    d = 4
    feat = _projected(32, 4, (2,), d=d)[0][1]
    proj = Linear(d, d, SeedStream(0).child("p").generator()).to_dtype(np.float32)
    proj.w.data = np.eye(d, dtype=np.float32)
    npt.assert_array_equal(proj(feat).data, feat.data)


def test_projection_matches_per_position_matmul():
    c_in, d = 5, 3
    rng = np.random.default_rng(7)
    feat = Tensor(rng.random((2, 4, 4, c_in)))
    proj = Linear(c_in, d, SeedStream(1).child("p").generator())
    proj.w.data = rng.standard_normal((c_in, d))
    proj.b.data = rng.standard_normal(d)
    out = proj(feat).data
    for b in range(2):
        for r in range(4):
            for c in range(4):
                want = feat.data[b, r, c] @ proj.w.data + proj.b.data
                npt.assert_allclose(out[b, r, c], want, atol=1e-12)


# ---- tokenize ----------------------------------------------------------------


def test_token_tensor_shape():
    toks = tokenize(_projected(224, 49, (0, 1, 2, 3), d=2), 49, 224)
    assert toks.tokens.shape == (1, 85, 49, 2)
    assert toks.scale_extent == 85


def test_scale_axis_deepest_first():
    projected = _projected(224, 49, (0, 1, 2, 3), d=2)
    toks = tokenize(projected, 49, 224)
    assert toks.scale_layout == [(3, 1, 1), (2, 2, 4), (1, 4, 16), (0, 8, 64)]
    # each stage's rows are that stage tokenized alone, at its place in the layout
    base = 0
    for idx, _, count in toks.scale_layout:
        alone = tokenize([(idx, dict(projected)[idx])], 49, 224).tokens.data
        npt.assert_array_equal(toks.tokens.data[:, base:base + count], alone)
        base += count


def test_sentinel_scatter_full_bijection():
    """Every (stage, r, c) position lands exactly where the oracle says."""
    stages = (0, 1, 2, 3)
    projected = []
    ids = {}
    next_id = 1.0
    for i in sorted(stages):
        p = 224 // (4 * 2 ** i)
        arr = np.zeros((1, p, p, 1), dtype=np.float64)
        for r in range(p):
            for c in range(p):
                arr[0, r, c, 0] = next_id
                ids[(i, r, c)] = next_id
                next_id += 1.0
        projected.append((i, Tensor(arr)))
    toks = tokenize(projected, 49, 224)
    base = 0
    for i, pp, count in toks.scale_layout:
        p = pp * 7
        for r in range(p):
            for c in range(p):
                patch, offset = patch_scatter(r, c, p, 7)
                got = toks.tokens.data[0, base + offset, patch, 0]
                assert got == ids[(i, r, c)], (i, r, c)
        base += count
    assert base == 85


def test_tokenize_is_multiset_bijection():
    projected = _projected(32, 4, (0, 1, 2), d=3, batch=2, seed=3)
    toks = tokenize(projected, 4, 32)
    before = sorted(tuple(v) for _, f in projected
                    for v in f.data.reshape(-1, 3))
    after = sorted(tuple(v) for v in toks.tokens.data.reshape(-1, 3))
    assert before == after


def test_tokenize_single_stage():
    toks = tokenize(_projected(32, 4, (2,), d=2), 4, 32)
    assert toks.tokens.shape == (1, 1, 4, 2)


def test_tokenize_gradient_flows_back():
    feat = Tensor(np.random.default_rng(0).random((1, 8, 8, 2)), requires_grad=True)
    toks = tokenize([(0, feat)], 4, 32)
    toks.tokens.sum().backward()
    npt.assert_array_equal(feat.grad, np.ones_like(feat.data))
