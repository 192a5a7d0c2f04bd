"""Properties of the readers on hostile bytes.

Any byte string handed to a reader gives back a value or a FormatError:
DFT1 records built from arbitrary header fields, and DFT1, DFC1 and pyramid
files mutated from valid ones. `eval` on a mutated checkpoint ends through
the CLI's exit-code contract (0, 2 or 3, or 4 when a mutated weight makes a
logit non-finite), never with a traceback.
"""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duoformer import cli
from duoformer import serialize as ser
from duoformer.backbone import FeaturePyramid, load_pyramid, save_pyramid
from duoformer.errors import FormatError
from duoformer.tensor import Tensor

U64_MAX = 2 ** 64 - 1


@st.composite
def dft1_from_fields(draw) -> bytes:
    """Magic, then any dtype code, rank 0-255, extents up to 2**64-1, and a short payload."""
    code = draw(st.one_of(st.integers(0, 2), st.integers(0, 255)))
    rank = draw(st.one_of(st.integers(0, 3), st.integers(0, 255)))
    one = st.one_of(st.integers(0, 3), st.integers(0, U64_MAX), st.just(U64_MAX))
    extents = draw(st.one_of(st.lists(one, min_size=rank, max_size=rank),
                             one.map(lambda e: [e] * rank)))
    payload = draw(st.binary(max_size=64))
    return b"DFT1" + struct.pack(f"<BB{rank}Q", code, rank, *extents) + payload


@st.composite
def mutated(draw, data: bytes, max_edits: int = 4, max_insert: int = 8) -> bytes:
    """`data` after 1..max_edits byte sets, inserts, deletions or truncations."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, max_edits))):
        kind = draw(st.sampled_from(("set", "insert", "delete", "truncate")))
        at = draw(st.integers(0, max(len(buf) - 1, 0)))
        if kind == "set" and buf:
            buf[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            buf[at:at] = draw(st.binary(min_size=1, max_size=max_insert))
        elif kind == "delete":
            del buf[at:at + draw(st.integers(1, 8))]
        else:
            del buf[at:]
    return bytes(buf)


def _value_or_format_error(read, *args):
    try:
        return read(*args)
    except FormatError:
        return None


@settings(deadline=None, max_examples=300)
@given(dft1_from_fields())
@example(b"DFT1\x00\xff" + b"\xff" * 8 * 255)  # a byte count of over 4300 decimal digits
def test_dft1_from_header_fields(data):
    arr = _value_or_format_error(ser.tensor_from_bytes, data)
    if arr is not None:
        rank, = struct.unpack_from("<B", data, 5)
        assert arr.ndim == rank and arr.dtype in (np.float32, np.float64, np.int64)


VALID_DFT1 = [ser.tensor_to_bytes(a) for a in (
    np.arange(6, dtype=np.float32).reshape(2, 3), np.array(2.5), np.arange(4, dtype=np.int64))]


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(VALID_DFT1).flatmap(mutated))
def test_mutated_dft1(data):
    arr = _value_or_format_error(ser.tensor_from_bytes, data)
    assert arr is None or isinstance(arr, np.ndarray)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def _valid_dfc1(path) -> bytes:
    ser.save_tensors(path, {"a": np.ones((2, 2), np.float32), "nameé": np.arange(3),
                            "s": np.array(-0.0), "text": ser.text_to_array("k = v\n")})
    return path.read_bytes()


def _valid_pyramid(path) -> bytes:
    feats = [(1, Tensor(np.ones((1, 4, 4, 2), np.float32))),
             (2, Tensor(np.ones((1, 2, 2, 2), np.float32)))]
    save_pyramid(path, FeaturePyramid(feats, input_size=32))
    return path.read_bytes()


@pytest.mark.parametrize("valid, read", [(_valid_dfc1, ser.load_tensors),
                                         (_valid_pyramid, load_pyramid)],
                         ids=["dfc1", "pyramid"])
def test_mutated_container_files(workdir, valid, read):
    good = valid(workdir / "good.dfc")
    path = workdir / "mutated.dfc"

    @settings(deadline=None, max_examples=200)
    @given(mutated(good))
    def check(data):
        path.write_bytes(data)
        _value_or_format_error(read, path)

    check()


TINY_CFG = """\
input_size = 32
patch_count = 4
embed_dim = 4
heads = 2
layers = 1
stages = 1, 2
channels = 1, 1, 1, 1
num_classes = 4
seed = 0
batch_size = 8
"""


def test_eval_on_mutated_checkpoint_follows_exit_contract(workdir, capsys):
    from duoformer.config import parse_config
    from duoformer.model import DuoFormer, save_checkpoint

    data = workdir / "data"
    assert cli.main(["gen-synthetic", "--out", str(data), "--samples", "16",
                     "--size", "32"]) == 0
    save_checkpoint(workdir / "good_ckpt.dfc", DuoFormer(parse_config(TINY_CFG)[0]))
    good = (workdir / "good_ckpt.dfc").read_bytes()
    path, metrics = workdir / "ckpt.dfc", workdir / "metrics.json"

    # one edit inserting at most one byte: several digits inserted into embed_dim would
    # build a model larger than memory before its tensors are matched to the file's
    @settings(deadline=None, max_examples=60)
    @given(mutated(good, max_edits=1, max_insert=1))
    def check(blob):
        path.write_bytes(blob)
        code = cli.main(["eval", "--checkpoint", str(path), "--data", str(data),
                         "--out", str(metrics)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3) or (code == 4 and "non-finite logits" in err)

    with np.errstate(all="ignore"):  # mutated weights may be NaN or huge
        check()
