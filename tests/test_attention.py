import numpy as np
import numpy.testing as npt
import pytest

from duoformer.attention import MSA, DuoEncoder, DuoLayer, PatchEncoder
from duoformer.errors import ConfigError, ContractError, DimensionError
from duoformer.rng import SeedStream
from duoformer.tensor import Tensor
from oracles import attention_pairs


def _msa(d, h, seed=0, dtype=np.float64, randomize_bias=True):
    m = MSA(d, h, SeedStream(seed).child("msa")).to_dtype(dtype)
    if randomize_bias:
        rng = np.random.default_rng(seed + 100)
        m.qkv.b.data = rng.standard_normal(3 * d).astype(dtype) * 0.1
        m.proj.b.data = rng.standard_normal(d).astype(dtype) * 0.1
    return m


def _oracle_weights(m):
    d = m.qkv.w.shape[0]
    w, b = m.qkv.w.data, m.qkv.b.data
    return dict(wq=w[:, :d], wk=w[:, d:2 * d], wv=w[:, 2 * d:],
                bq=b[:d], bk=b[d:2 * d], bv=b[2 * d:],
                wo=m.proj.w.data, bo=m.proj.b.data, n_heads=m.heads)


# ---- MSA --------------------------------------------------------------------


def test_single_token_attends_to_itself():
    m = _msa(4, 2)
    x = Tensor(np.random.default_rng(0).standard_normal((1, 1, 4)))
    _, attn = m(x, return_attn=True)
    npt.assert_array_equal(attn, np.ones((1, 2, 1, 1)))


def test_identical_tokens_get_uniform_weights():
    m = _msa(4, 2)
    row = np.random.default_rng(1).standard_normal(4)
    x = Tensor(np.broadcast_to(row, (1, 5, 4)).copy())
    _, attn = m(x, return_attn=True)
    npt.assert_allclose(attn, np.full((1, 2, 5, 5), 0.2), atol=1e-12)


def test_attention_rows_sum_to_one():
    m = _msa(8, 4)
    x = Tensor(np.random.default_rng(2).standard_normal((2, 7, 8)))
    _, attn = m(x, return_attn=True)
    npt.assert_allclose(attn.sum(axis=-1), np.ones((2, 4, 7)), atol=1e-12)


def test_msa_queries_are_the_first_rows_over_all_keys():
    m = _msa(8, 4)
    x = Tensor(np.random.default_rng(3).standard_normal((2, 3, 7, 8)))
    full, full_attn = m(x, return_attn=True)
    out, attn = m(x, return_attn=True, queries=2)
    assert out.shape == (2, 3, 2, 8) and attn.shape == (2, 3, 4, 2, 7)
    npt.assert_allclose(out.data, full.data[:, :, :2], rtol=1e-12)
    npt.assert_allclose(attn, full_attn[:, :, :, :2], rtol=1e-12)


@pytest.mark.parametrize("b,t,d,h", [(1, 1, 8, 1), (1, 3, 8, 2), (2, 5, 16, 4),
                                     (1, 49, 32, 8), (3, 2, 6, 3)])
def test_msa_matches_pairwise_oracle(b, t, d, h):
    m = _msa(d, h, seed=d + h)
    x = np.random.default_rng(t).standard_normal((b, t, d))
    out = m(Tensor(x)).data
    kw = _oracle_weights(m)
    for i in range(b):
        npt.assert_allclose(out[i], attention_pairs(x[i], **kw), atol=1e-10)


def test_msa_leading_axes_are_batch():
    m = _msa(6, 2)
    x = np.random.default_rng(3).standard_normal((2, 3, 4, 6))
    out4 = m(Tensor(x)).data
    out3 = m(Tensor(x.reshape(6, 4, 6))).data
    npt.assert_array_equal(out4.reshape(6, 4, 6), out3)


def test_zero_value_projection_kills_output():
    m = _msa(4, 2, randomize_bias=False)
    d = 4
    m.qkv.w.data[:, 2 * d:] = 0.0  # zero V
    x = Tensor(np.random.default_rng(4).standard_normal((1, 5, 4)))
    npt.assert_array_equal(m(x).data, np.zeros((1, 5, 4)))


def test_msa_rejects_bad_head_split():
    with pytest.raises(ConfigError, match="heads"):
        MSA(6, 4, SeedStream(0).child("m"))


def test_msa_rejects_wrong_token_dim():
    m = _msa(8, 2)
    with pytest.raises(DimensionError):
        m(Tensor(np.zeros((1, 3, 6))))


def test_heads_change_the_function():
    x = Tensor(np.random.default_rng(5).standard_normal((1, 4, 8)))
    m1 = _msa(8, 1, seed=9, randomize_bias=False)
    m2 = _msa(8, 2, seed=9, randomize_bias=False)
    m2.qkv.w.data = m1.qkv.w.data.copy()
    m2.proj.w.data = m1.proj.w.data.copy()
    assert np.abs(m1(x).data - m2(x).data).max() > 1e-6


# ---- scale block -----------------------------------------------------------------


def _np_gelu(x):
    c = np.sqrt(2.0 / np.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x ** 3)))


def _np_ln(x, gamma, beta, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def _randomized_layer(d, h, seed=0, with_patch=True, dtype=np.float64):
    layer = DuoLayer(d, h, SeedStream(seed).child("layer"), with_patch=with_patch).to_dtype(dtype)
    rng = np.random.default_rng(seed + 50)
    for _, p in layer.named_parameters():
        p.data = p.data + rng.standard_normal(p.shape).astype(dtype) * 0.05
    return layer


def test_scale_block_matches_numpy_composition():
    d, h, s, n = 8, 2, 5, 3
    layer = _randomized_layer(d, h, seed=1)
    x = np.random.default_rng(6).standard_normal((2, s, n, d))
    got = layer.scale_block(Tensor(x)).data

    kw = _oracle_weights(layer.scale)
    want = np.empty_like(x)
    for b in range(2):
        for j in range(n):
            seq = x[b, :, j, :]  # scale axis is the token axis
            y = seq + attention_pairs(
                _np_ln(seq, layer.ln1.gamma.data, layer.ln1.beta.data), **kw)
            hmid = _np_gelu(_np_ln(y, layer.ln2.gamma.data, layer.ln2.beta.data)
                            @ layer.ffn.fc1.w.data + layer.ffn.fc1.b.data)
            want[b, :, j, :] = y + hmid @ layer.ffn.fc2.w.data + layer.ffn.fc2.b.data
    npt.assert_allclose(got, want, atol=1e-10)


def test_scale_block_no_cross_patch_flow():
    layer = _randomized_layer(4, 2, seed=2, dtype=np.float32)
    x = np.random.default_rng(7).standard_normal((1, 3, 4, 4)).astype(np.float32)
    base = layer.scale_block(Tensor(x)).data
    x2 = x.copy()
    x2[0, :, 2, :] += 1.0  # hit every scale of patch 2
    pert = layer.scale_block(Tensor(x2)).data
    others = [0, 1, 3]
    npt.assert_array_equal(base[:, :, others], pert[:, :, others])
    assert np.abs(base[:, :, 2] - pert[:, :, 2]).max() > 0


def test_scale_block_grad_check():
    from duoformer.gradcheck import grad_check_report
    layer = _randomized_layer(4, 2, seed=3)
    x = Tensor(np.random.default_rng(8).standard_normal((1, 3, 2, 4)))
    w = np.random.default_rng(9).standard_normal((1, 3, 2, 4))

    def loss(_params):
        return (layer.scale_block(x) * Tensor(w)).sum()

    report = grad_check_report(loss, dict(layer.named_parameters()), sample=4)
    assert max(report.values()) < 1e-4


# ---- patch attention ---------------------------------------------------------------


def test_patch_attention_is_residual():
    layer = DuoLayer(4, 2, SeedStream(0).child("layer"))
    for _, p in layer.patch.named_parameters():
        p.data = np.zeros_like(p.data)
    x = Tensor(np.random.default_rng(10).standard_normal((1, 5, 4)))
    out = layer.patch_attention(x)
    # zero weights -> the MSA branch is zero and the residual passes x through
    npt.assert_array_equal(out.data, x.data)


def test_patch_attention_matches_oracle_49x32():
    layer = _randomized_layer(32, 4, seed=4)
    x = np.random.default_rng(11).standard_normal((2, 49, 32))
    out = layer.patch_attention(Tensor(x)).data
    kw = _oracle_weights(layer.patch)
    for i in range(2):
        npt.assert_allclose(out[i], x[i] + attention_pairs(x[i], **kw), atol=1e-10)


def test_patch_attention_single_patch():
    layer = _randomized_layer(4, 2, seed=5)
    x = Tensor(np.random.default_rng(12).standard_normal((1, 1, 4)))
    _, attn = layer.patch(x, return_attn=True)
    npt.assert_array_equal(attn, np.ones((1, 2, 1, 1)))


def test_missing_patch_attention_raises():
    layer = DuoLayer(4, 2, SeedStream(0).child("layer"), with_patch=False)
    with pytest.raises(ContractError, match="patch attention"):
        layer.patch_attention(Tensor(np.zeros((1, 3, 4), dtype=np.float32)))


# ---- encoder ---------------------------------------------------------------------


def _encoder(d=4, h=2, layers=2, s=4, n=4, mode="duo", readout="scale_token_patch_attn",
             pos=False, seed=0, dtype=np.float64):
    enc = DuoEncoder(d, h, layers, s, n, SeedStream(seed).child("enc"), mode=mode,
                     readout=readout, pos_scale=pos, pos_patch=pos).to_dtype(dtype)
    rng = np.random.default_rng(seed + 77)
    for _, p in enc.named_parameters():
        p.data = p.data + rng.standard_normal(p.shape).astype(dtype) * 0.05
    return enc


def test_patch_layer_allocation_follows_readout():
    def patch_flags(enc):
        return [ly.with_patch for ly in enc.layers()]

    assert patch_flags(_encoder(layers=3)) == [True, True, True]
    assert patch_flags(_encoder(layers=3, readout="first_token")) == [True, True, False]
    assert patch_flags(_encoder(layers=3, readout="avg_tokens")) == [True, True, False]
    assert patch_flags(_encoder(layers=3, mode="scale_only",
                                readout="scale_attn_only_fc")) == [False, False, False]


def test_single_layer_encoder_is_manual_composition():
    enc = _encoder(layers=1)
    x = np.random.default_rng(13).standard_normal((2, 4, 4, 4))
    got = enc(Tensor(x)).data
    layer = enc.layer0
    want = layer.patch_attention(layer.scale_block(Tensor(x))[:, 0]).data
    npt.assert_array_equal(got, want)


def test_two_layer_encoder_write_back():
    """Layer 2's scale attention must see layer 1's patch output at index 0."""
    enc = _encoder(layers=2)
    x = np.random.default_rng(14).standard_normal((1, 4, 4, 4))
    got = enc(Tensor(x)).data

    l0, l1 = enc.layer0, enc.layer1
    import duoformer.tensor as T
    h1 = l0.scale_block(Tensor(x))
    c1 = l0.patch_attention(h1[:, 0])
    merged = T.concat([c1.reshape((1, 1, 4, 4)), h1[:, 1:]], axis=1)
    h2 = l1.scale_block(merged, queries=1)  # as the encoder runs its last block
    want = l1.patch_attention(h2[:, 0]).data
    npt.assert_array_equal(got, want)


def test_scale_only_readout_is_conduit_row():
    enc = _encoder(layers=2, mode="scale_only", readout="scale_attn_only_fc")
    x = np.random.default_rng(15).standard_normal((2, 4, 4, 4))
    got = enc(Tensor(x)).data
    want = enc.layer1.scale_block(enc.layer0.scale_block(Tensor(x))).data[:, 0]
    npt.assert_array_equal(got, want)


def test_avg_tokens_reads_final_scale_block():
    enc = _encoder(layers=2, readout="avg_tokens")
    x = np.random.default_rng(16).standard_normal((1, 4, 4, 4))
    got = enc(Tensor(x)).data

    import duoformer.tensor as T
    h1 = enc.layer0.scale_block(Tensor(x))
    c1 = enc.layer0.patch_attention(h1[:, 0])
    merged = T.concat([c1.reshape((1, 1, 4, 4)), h1[:, 1:]], axis=1)
    want = enc.layer1.scale_block(merged).data.mean(axis=1)
    npt.assert_allclose(got, want, atol=1e-12)


def test_one_layer_encoder_grad_check_through_the_row0_block(monkeypatch):
    import duoformer.tensor as T
    from duoformer.gradcheck import grad_check_report
    queries, attention = [], T.attention

    def spy(*args):
        queries.append(args[6] if len(args) > 6 else None)
        return attention(*args)

    monkeypatch.setattr(T, "attention", spy)
    enc = _encoder(layers=1, n=3, pos=True)
    x = Tensor(np.random.default_rng(20).standard_normal((1, 4, 3, 4)), requires_grad=True)
    w = Tensor(np.random.default_rng(21).standard_normal((1, 3, 4)))
    report = grad_check_report(lambda _: (enc(x) * w).sum(),
                               dict(enc.named_parameters(), x=x))
    assert max(report.values()) < 1e-4
    assert queries[:2] == [1, None]  # scale attention: row 0 only; patch attention: all patches


def test_last_layer_ffn_sees_only_the_rows_the_readout_reads(monkeypatch):
    import duoformer.tensor as T
    shapes, ffn = [], T.ffn

    def spy(x, *params):
        shapes.append(x.shape)
        return ffn(x, *params)

    monkeypatch.setattr(T, "ffn", spy)
    x = Tensor(np.random.default_rng(22).standard_normal((2, 4, 3, 4)))
    for mode, readout, last_rows in [("duo", "scale_token_patch_attn", 1),
                                     ("duo", "first_token", 1),
                                     ("scale_only", "scale_attn_only_fc", 1),
                                     ("duo", "avg_tokens", 4)]:
        shapes.clear()
        _encoder(layers=2, n=3, mode=mode, readout=readout)(x)
        assert shapes == [(2, 3, 4, 4), (2, 3, last_rows, 4)], readout  # [B, N, rows, D]


def test_first_token_readout_shape():
    enc = _encoder(layers=2, readout="first_token")
    x = np.random.default_rng(17).standard_normal((2, 4, 5, 4))
    enc2 = _encoder(layers=2, readout="first_token")
    assert enc(Tensor(x)).shape == (2, 5, 4)
    npt.assert_array_equal(enc(Tensor(x)).data, enc2(Tensor(x)).data)


def test_patch_permutation_equivariance():
    enc = _encoder(layers=2, pos=False)
    x = np.random.default_rng(18).standard_normal((1, 4, 4, 4))
    perm = np.array([2, 0, 3, 1])
    base = enc(Tensor(x)).data
    permuted = enc(Tensor(x[:, :, perm, :])).data
    npt.assert_allclose(permuted, base[:, perm, :], atol=1e-5)


def test_scale_permutation_invariance():
    # shuffling the non-conduit scale rows must not move the readout
    enc = _encoder(layers=2, pos=False)
    x = np.random.default_rng(19).standard_normal((1, 5, 4, 4))
    perm = np.array([0, 3, 1, 4, 2])  # fixes index 0
    base = enc(Tensor(x)).data
    permuted = enc(Tensor(x[:, perm, :, :])).data
    npt.assert_allclose(permuted, base, atol=1e-5)


def test_scale_pos_added_once():
    # setting the table to c must equal feeding x + c with a zero table
    enc = _encoder(layers=1, pos=True)
    x = np.random.default_rng(20).standard_normal((1, 4, 4, 4))
    enc.scale_pos.data[...] = 0.5
    shifted = enc(Tensor(x)).data
    enc.scale_pos.data[...] = 0.0
    want = enc(Tensor(x + 0.5)).data
    npt.assert_allclose(shifted, want, atol=1e-12)


def test_encoder_rejects_scale_extent_mismatch():
    enc = _encoder(layers=1, pos=True)
    with pytest.raises(DimensionError, match="extent"):
        enc(Tensor(np.zeros((1, 9, 4, 4))))


def test_encoder_rejects_bad_mode_and_depth():
    with pytest.raises(ConfigError):
        DuoEncoder(4, 2, 0, 4, 4, SeedStream(0).child("e"))
    with pytest.raises(ConfigError):
        DuoEncoder(4, 2, 1, 4, 4, SeedStream(0).child("e"), mode="patch_only")
    with pytest.raises(ConfigError, match="unknown readout"):  # at build, not first forward
        DuoEncoder(4, 2, 1, 4, 4, SeedStream(0).child("e"), readout="bogus")


# ---- patch encoder (hybrid baseline) ---------------------------------------------


def test_patch_encoder_block_has_residuals():
    enc = PatchEncoder(4, 2, 1, 5, SeedStream(0).child("pe"), pos_patch=False)
    for _, p in enc.layer0.named_parameters():
        if p.shape and p.data.ndim >= 1:
            p.data = np.zeros_like(p.data)
    # zeroed weights silence attention and FFN; residuals pass x through LN-free
    x = np.random.default_rng(21).standard_normal((1, 5, 4))
    npt.assert_array_equal(enc(Tensor(x[:, None])).data, x)


def test_patch_encoder_stacks_layers():
    enc = PatchEncoder(4, 2, 2, 5, SeedStream(3).child("pe"))
    rng = np.random.default_rng(22)
    for _, p in enc.named_parameters():
        p.data = p.data + rng.standard_normal(p.shape) * 0.05
    x = np.random.default_rng(23).standard_normal((2, 5, 4))
    got = enc(Tensor(x[:, None])).data
    want = enc.layer1(enc.layer0(Tensor(x) + enc.pos)).data
    npt.assert_array_equal(got, want)
