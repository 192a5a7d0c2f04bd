"""The fused attention and FFN ops against the primitive-op graphs they replace.

`tensor.attention` and `tensor.ffn` must give the values and gradients of
the composed graphs in `oracles` bit for bit (np.array_equal, no tolerance),
on the input layouts the model feeds them, and keep only what their
backward reads. A retained-bytes guard pins a small model's graph so that a
dropped intermediate cannot come back unnoticed. Attention with `queries`
set has no composed twin: in f64 it must match the full op's first rows
to a relative 1e-12.
"""

import numpy as np
import pytest

from duoformer import tensor as T
from duoformer.config import DuoFormerConfig
from duoformer.errors import DimensionError
from duoformer.gradcheck import grad_check_report
from duoformer.model import DuoFormer
from duoformer.tensor import Tensor
from oracles import attention_composed, ffn_composed

DTYPES = (np.float32, np.float64)


def _closure_arrays(fn):
    """ndarrays a backward closure keeps alive, directly or through Tensors."""
    for cell in fn.__closure__ or ():
        try:
            v = cell.cell_contents
        except ValueError:  # empty cell
            continue
        for item in v if isinstance(v, (list, tuple)) else (v,):
            if isinstance(item, Tensor):
                yield item.data
            elif isinstance(item, np.ndarray):
                yield item


def _root_buffer(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def graph_footprint(root: Tensor, exclude=()):
    """(nodes, op nodes, retained bytes) of the graph under `root`.

    Retained bytes are the op nodes' data plus the arrays their backward
    closures hold, counted once per underlying buffer; the buffers of
    `exclude` (parameters, inputs) are not counted.
    """
    nodes, seen, stack = [], set(), [root]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        nodes.append(n)
        stack.extend(p for p in n._parents if p.requires_grad)
    ops = [n for n in nodes if n._backward is not None]
    charged = {id(_root_buffer(t.data)) for t in exclude}
    nbytes = 0
    for n in ops:
        for arr in (n.data, *_closure_arrays(n._backward)):
            buf = _root_buffer(arr)
            if id(buf) not in charged:
                charged.add(id(buf))
                nbytes += buf.nbytes
    return len(nodes), len(ops), nbytes


# ---- fixtures ------------------------------------------------------------------------


def _input(shape, layout, dtype, rng):
    """A requires-grad input of `shape` in one of the layouts the model feeds."""
    if layout == "scale_block":  # [B, N, S+1, D] viewed from a [B, S+1, N, D] buffer
        b, n, s, d = shape
        data = rng.standard_normal((b, s, n, d)).astype(dtype).transpose((0, 2, 1, 3))
    else:
        data = rng.standard_normal(shape).astype(dtype)
    return Tensor(data, requires_grad=True)


def _params(rng, dtype, *dims):
    """(w, b) pairs mapping dims[0] -> dims[1] -> ..., at a generic point."""
    out = []
    for k, n in zip(dims[:-1], dims[1:]):
        out.append(Tensor((rng.standard_normal((k, n)) * 0.2).astype(dtype), requires_grad=True))
        out.append(Tensor((rng.standard_normal(n) * 0.1).astype(dtype), requires_grad=True))
    return out


def _named(tensors):
    """`grad_check_report`'s parameter dict over `tensors`, in order."""
    return {f"p{i}": t for i, t in enumerate(tensors)}


def _attention_params(rng, dtype, d):
    wqkv, bqkv = _params(rng, dtype, d, 3 * d)
    wproj, bproj = _params(rng, dtype, d, d)
    return [wqkv, bqkv, wproj, bproj]


def _run(op, x, params, g, extra=None):
    """Forward, then backward of sum(out * g) (+ a second consumer of x)."""
    out = op(x, params)
    attn = None
    if isinstance(out, tuple):
        out, attn = out
    loss = T.tensor_sum(T.mul(out, Tensor(g)))
    if extra is not None:
        loss = loss + T.tensor_sum(T.mul(x, Tensor(extra)))
    loss.backward()
    return out.data, attn, [x.grad] + [p.grad for p in params]


def _fused_attention(heads):
    return lambda x, ps: T.attention(x, *ps, heads)


def _composed_attention(heads):
    return lambda x, ps: attention_composed(T, x, *ps, heads)


def _fused_ffn(x, ps):
    return T.ffn(x, *ps)


def _composed_ffn(x, ps):
    return ffn_composed(T, x, *ps)


def _twin_runs(fused, composed, make_params, shape, layout, dtype, second_consumer):
    """Run fused and composed on equal fresh copies of one input and parameters."""
    results = []
    for op in (fused, composed):
        rng = np.random.default_rng(7)
        x = _input(shape, layout, dtype, rng)
        params = make_params(rng, dtype, shape[-1])
        g = rng.standard_normal(shape).astype(dtype)
        extra = rng.standard_normal(shape).astype(dtype) if second_consumer else None
        results.append(_run(op, x, params, g, extra))
    return results


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


LAYOUTS = [
    ((3, 5, 6, 16), "scale_block"),  # [B, N, S+1, D] transposed view, as the scale block feeds
    ((2, 7, 16), "conduit"),          # [B, N, D], as the patch attention feeds
    ((2, 3, 2, 4, 16), "lead"),       # several leading batch axes
    ((5, 16), "plain"),               # no leading axis
]


# ---- bitwise against the composed graphs -------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,layout", LAYOUTS)
@pytest.mark.parametrize("heads", [1, 4])
def test_attention_matches_composed_graph_bitwise(dtype, shape, layout, heads):
    (out, attn, grads), (ref_out, ref_attn, ref_grads) = _twin_runs(
        _fused_attention(heads), _composed_attention(heads), _attention_params,
        shape, layout, dtype, second_consumer=heads == 4)
    _assert_bitwise(out, ref_out)
    _assert_bitwise(attn, ref_attn)
    for got, want in zip(grads, ref_grads):
        _assert_bitwise(got, want)


def _ffn_params(rng, dtype, d):
    return _params(rng, dtype, d, 4 * d, d)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("shape,layout", LAYOUTS)
@pytest.mark.parametrize("second_consumer", [False, True])
def test_ffn_matches_composed_graph_bitwise(dtype, shape, layout, second_consumer):
    (out, _, grads), (ref_out, _, ref_grads) = _twin_runs(
        _fused_ffn, _composed_ffn, _ffn_params, shape, layout, dtype, second_consumer)
    _assert_bitwise(out, ref_out)
    for got, want in zip(grads, ref_grads):
        _assert_bitwise(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_ffn_spanning_several_chunks_matches_composed_graph(dtype):
    shape = (T._CHUNK // 64 + 3, 16)  # fc1's output spans several gelu chunks
    (out, _, grads), (ref_out, _, ref_grads) = _twin_runs(
        _fused_ffn, _composed_ffn, _ffn_params, shape, "plain", dtype, second_consumer=False)
    _assert_bitwise(out, ref_out)
    for got, want in zip(grads, ref_grads):
        _assert_bitwise(got, want)


def test_constant_input_gets_no_gradient():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((2, 3, 8)))
    params = _attention_params(rng, np.float64, 8)
    out, _ = T.attention(x, *params, 2)
    T.tensor_sum(T.ffn(out, *_ffn_params(rng, np.float64, 8))).backward()
    assert x.grad is None and all(p.grad is not None for p in params)


# ---- queries: only the first rows are queries ---------------------------------------------


def _first_rows_run(shape, layout, dtype, queries, rows):
    """The op with `queries` under an output gradient drawn for the first `rows`
    rows; the full op (queries None) gets it padded with zeros. Returns the
    first `rows` rows of the output and probabilities, then the five gradients."""
    rng = np.random.default_rng(21)
    x = _input(shape, layout, dtype, rng)
    params = _attention_params(rng, dtype, shape[-1])
    *lead, t, d = shape
    g = rng.standard_normal((*lead, rows, d)).astype(dtype)
    if queries is None:
        g = np.concatenate([g, np.zeros((*lead, t - rows, d), dtype)], axis=-2)
    out, attn, grads = _run(lambda x, ps: T.attention(x, *ps, 4, queries), x, params, g)
    return [out[..., :rows, :], attn[:, :, :rows]] + grads


@pytest.mark.parametrize("queries", [1, 3, "t"])
@pytest.mark.parametrize("shape,layout", LAYOUTS[:2])
def test_attention_queries_match_the_first_rows_of_the_full_op(shape, layout, queries):
    if queries == "t":  # every row is a query, still through the folded form
        queries = shape[-2]
    got = _first_rows_run(shape, layout, np.float64, queries, queries)
    want = _first_rows_run(shape, layout, np.float64, None, queries)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_attention_queries_f32_agrees_with_f64():
    lo, hi = (_first_rows_run((3, 6, 16), "conduit", dtype, 2, 2) for dtype in DTYPES)
    for a, b in zip(lo, hi):
        assert a.dtype == np.float32
        assert np.max(np.abs(a - b)) <= 1e-5 * max(1.0, np.max(np.abs(b)))


# ---- finite differences and f32 against f64 -------------------------------------------------


def test_attention_gradcheck_f64():
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((2, 4, 3, 6)), requires_grad=True)
    params = _attention_params(rng, np.float64, 6)
    g = Tensor(rng.standard_normal((2, 3, 4, 6)))

    def f(ps):  # the op sees the transposed scale-block layout
        x, *params = ps.values()
        return T.tensor_sum(T.mul(T.attention(x.transpose((0, 2, 1, 3)), *params, 3)[0], g))

    assert max(grad_check_report(f, _named([x] + params)).values()) < 1e-4


@pytest.mark.parametrize("shape,layout", LAYOUTS[:2])
def test_attention_with_queries_gradcheck_f64(shape, layout):
    rng = np.random.default_rng(22)
    shape = shape[:-1] + (8,)
    x = _input(shape, layout, np.float64, rng)
    params = _attention_params(rng, np.float64, 8)
    g = Tensor(rng.standard_normal(shape[:-2] + (2, 8)))

    def f(ps):
        x, *params = ps.values()
        return T.tensor_sum(T.mul(T.attention(x, *params, 2, 2)[0], g))

    assert max(grad_check_report(f, _named([x] + params)).values()) < 1e-4


def test_ffn_gradcheck_f64():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((2, 4, 3, 5)), requires_grad=True)
    params = _ffn_params(rng, np.float64, 5)
    g = Tensor(rng.standard_normal((2, 3, 4, 5)))

    def f(ps):
        x, *params = ps.values()
        return T.tensor_sum(T.mul(T.ffn(x.transpose((0, 2, 1, 3)), *params), g))

    assert max(grad_check_report(f, _named([x] + params)).values()) < 1e-4


@pytest.mark.parametrize("fused,make_params", [(_fused_attention(4), _attention_params),
                                               (_fused_ffn, _ffn_params)])
def test_f32_agrees_with_f64(fused, make_params):
    runs = {}
    for dtype in DTYPES:
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((3, 6, 16)).astype(dtype), requires_grad=True)
        params = make_params(rng, np.float64, 16)
        params = [Tensor(p.data.astype(dtype), requires_grad=True) for p in params]
        g = rng.standard_normal((3, 6, 16)).astype(dtype)
        out, _, grads = _run(fused, x, params, g)
        runs[dtype] = [out] + grads
    for lo, hi in zip(runs[np.float32], runs[np.float64]):
        assert lo.dtype == np.float32
        assert np.max(np.abs(lo - hi)) <= 1e-5 * max(1.0, np.max(np.abs(hi)))


# f32 GELU against the plain formula in f64. Measured worst case over 6e6
# inputs (N(0, s) for s = 1, 3, 6): 1.79 f32 ULPs of x, with the cube as
# x * x * x and as np.power alike. The error is counted in ULPs of x, not of
# the output: for x << 0 the output is 0.5 * x * (1 + tanh(u)) with tanh(u)
# near -1, and that cancellation is the formula's, not the cube's.
GELU_ULPS = 2.0


def _gelu_ulps(out32, x32):
    x = x32.astype(np.float64)
    want = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)))
    return np.max(np.abs(out32 - want) / np.spacing(np.abs(x32)).astype(np.float64))


def test_f32_gelu_is_within_two_ulps_of_f64_over_several_chunks():
    x = (np.random.default_rng(19).standard_normal((3, 400, 130)) * 3).astype(np.float32)
    assert x.size > 2 * T._CHUNK
    out = T.gelu(Tensor(x)).data
    assert out.dtype == np.float32
    assert _gelu_ulps(out, x) <= GELU_ULPS


@pytest.mark.parametrize("graph", [True, False])
def test_f32_ffn_gelu_is_within_two_ulps_of_f64_over_several_chunks(graph):
    # fc1 copies x into each quarter of the hidden layer and fc2 reads the first
    # quarter back: both products are exact, so the output is the GELU alone
    d = 8
    eye = np.eye(d, dtype=np.float32)
    w1 = Tensor(np.tile(eye, (1, 4)), requires_grad=graph)
    w2 = Tensor(np.concatenate([eye] + [np.zeros_like(eye)] * 3), requires_grad=graph)
    b1, b2 = Tensor(np.zeros(4 * d, np.float32)), Tensor(np.zeros(d, np.float32))
    x = (np.random.default_rng(20).standard_normal((3, 2000, d)) * 3).astype(np.float32)
    assert 4 * x.size > 2 * T._CHUNK
    out = T.ffn(Tensor(x), w1, b1, w2, b2)
    assert out.requires_grad is graph
    assert _gelu_ulps(out.data, x) <= GELU_ULPS


# ---- no_grad ------------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
def test_no_grad_ffn_equals_recorded_output(dtype):
    rng = np.random.default_rng(12)
    x = _input((2, 5, T._CHUNK // 256 + 1, 16), "scale_block", dtype, rng)
    params = _ffn_params(rng, dtype, 16)
    recorded = T.ffn(x, *params)
    with T.no_grad():
        bare = T.ffn(x, *params)
    assert recorded.requires_grad and not bare.requires_grad and bare._backward is None
    _assert_bitwise(bare.data, recorded.data)


def test_no_grad_attention_gives_recorded_probabilities():
    rng = np.random.default_rng(13)
    x = _input((2, 4, 5, 8), "scale_block", np.float32, rng)
    params = _attention_params(rng, np.float32, 8)
    out, attn = T.attention(x, *params, 2)
    with T.no_grad():
        bare, bare_attn = T.attention(x, *params, 2)
    _, ref_attn = attention_composed(T, x, *params, 2)
    assert not bare.requires_grad
    _assert_bitwise(bare.data, out.data)
    _assert_bitwise(bare_attn, attn)
    _assert_bitwise(attn, ref_attn)


# ---- contracts -----------------------------------------------------------------------------


def test_attention_rejects_mismatched_weights():
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal((2, 3, 8)))
    wqkv, bqkv, wproj, bproj = _attention_params(rng, np.float64, 8)
    with pytest.raises(DimensionError):
        T.attention(x, wqkv, bqkv, wproj, bproj, 3)  # 8 is not split over 3 heads
    with pytest.raises(DimensionError):
        T.attention(x, wproj, bproj, wproj, bproj, 2)  # qkv is [d, d]
    for queries in (0, 4):  # x has 3 tokens
        with pytest.raises(DimensionError):
            T.attention(x, wqkv, bqkv, wproj, bproj, 2, queries)


def test_ffn_rejects_unchained_weights():
    rng = np.random.default_rng(15)
    x = Tensor(rng.standard_normal((2, 3, 8)))
    w1, b1, w2, b2 = _ffn_params(rng, np.float64, 8)
    with pytest.raises(DimensionError):
        T.ffn(x, w1, b1, w1, b1)


# ---- what the graph keeps --------------------------------------------------------------------


def test_attention_keeps_qkv_probabilities_merged_heads_and_output():
    b, t, d, h = 3, 5, 8, 2
    rng = np.random.default_rng(16)
    x = Tensor(rng.standard_normal((b, t, d)), requires_grad=True)
    params = _attention_params(rng, np.float64, d)
    out, _ = T.attention(x, *params, h)
    nodes, ops, nbytes = graph_footprint(out, exclude=[x] + params)
    assert (nodes, ops) == (6, 1)
    assert nbytes == 8 * (b * t * 3 * d + b * h * t * t + b * t * d + b * t * d)


def test_attention_with_queries_keeps_no_key_or_value_array():
    """The folded form keeps x, which the graph holds anyway, and arrays
    nq rows wide; the qkv projection it replaces was bsz * t * 3d."""
    b, t, d, h = 3, 9, 8, 2
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((b, t, d)), requires_grad=True)
    params = _attention_params(rng, np.float64, d)
    out, _ = T.attention(x, *params, h, queries=1)
    kept = {id(_root_buffer(a)): _root_buffer(a) for a in _closure_arrays(out._backward)}
    for p in params:
        kept.pop(id(_root_buffer(p.data)), None)
    assert kept and max(a.size for a in kept.values()) < b * t * 2 * d


def test_ffn_keeps_fc1_output_tanh_and_output():
    rows, d = 7, 6
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((rows, d)), requires_grad=True)
    params = _ffn_params(rng, np.float64, d)
    out = T.ffn(x, *params)
    nodes, ops, nbytes = graph_footprint(out, exclude=[x] + params)
    assert (nodes, ops) == (6, 1)
    assert nbytes == 8 * (2 * rows * 4 * d + rows * d)


def test_ffn_backward_peak_is_one_fc1_output_buffer_plus_chunk_scratch(traced_memory):
    """Backward consumes the saved fc1 output and tanh(u): beyond them, it
    allocates one fc1-output-sized buffer (the GELU gradient, then fc1's
    output gradient in place) plus chunk scratch and input- and
    weight-sized gradients. A backward that recomputes the GELU output
    into a buffer of its own peaks at 2.3 fc1 outputs on this shape."""
    rows, d, hidden = 1024, 64, 1024  # fc1's output spans 16 chunks
    rng = np.random.default_rng(19)
    x = Tensor(rng.standard_normal((2, rows // 2, d)).astype(np.float32), requires_grad=True)
    params = _params(rng, np.float32, d, hidden, d)
    loss = T.tensor_sum(T.ffn(x, *params))
    fc1_bytes = rows * hidden * 4
    with traced_memory() as mem:
        loss.backward()
    assert mem["peak"] < 1.5 * fc1_bytes


GUARD = dict(input_size=64, patch_count=4, embed_dim=32, heads=4, layers=1,
             stages=(0, 1, 2, 3), channels=(4, 8, 8, 16), num_classes=3)


def test_retained_graph_of_a_one_layer_duo_forward_is_pinned():
    """A change that keeps more of the forward alive for backward fails here.

    With the attention and FFN built from primitive ops, this graph was
    (186, 125, 6492136): the slice copies, raw and scaled scores, the
    pre-merge heads and the GELU output were kept too. The patch
    attention's residual added one `add` node, whose output is the
    [2, 4, 32] f32 conduit (1024 bytes): (146, 85, 3889128) before it.
    The final scale block keeps only scale row 0 past LN1 (the queries,
    residuals, LN2 and FFN), at the cost of one `index` node for the
    residual's row slice: (147, 86, 3890152) before that.
    The conv stack works channel-last, so the nine `transpose` nodes that
    took each emitted backbone stage out of NCHW, each scale-token stage
    back into it and the fused map out again are gone; they were views, so
    no byte changed: (148, 87, 1647176) before that.
    Each of the eleven conv -> BN -> ReLU units (two per backbone stage,
    one per scale-token conv and the fuse) is one `conv_bn_relu` node that
    keeps `cols`, x-hat, 1/sigma and its output, where the three composed
    nodes also kept the conv output and the BN output: (139, 78, 1647176)
    before that.
    The row-0 scale block forms no keys or values: its attention keeps q,
    q~ and u, each one row per head, where it kept the [8, 86, 96] f32
    qkv projection: (117, 56, 1534536) before that.
    Each tokenized stage is reshape -> one transpose -> reshape, where it
    took two, so four `transpose` nodes (views) are gone: (117, 56, 1279560)
    before that.
    """
    model = DuoFormer(DuoFormerConfig(seed=0, **GUARD))
    images = Tensor(np.random.default_rng(18).standard_normal((2, 64, 64, 3)).astype(np.float32))
    logits = model(images)
    assert graph_footprint(logits, exclude=model.parameters()) == (113, 52, 1279560)
