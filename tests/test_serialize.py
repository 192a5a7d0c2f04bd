import io
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duoformer import serialize as ser
from duoformer.errors import FormatError


# ---- golden byte layouts (hand-packed, independent of the writer) -----------


def test_dft1_golden_bytes_f32_vector():
    expect = b"DFT1" + bytes([0, 1]) + (2).to_bytes(8, "little") + struct.pack("<2f", 1.0, 2.0)
    got = ser.tensor_to_bytes(np.array([1.0, 2.0], dtype=np.float32))
    assert got == expect
    npt.assert_array_equal(ser.tensor_from_bytes(expect), np.array([1.0, 2.0], np.float32))


def test_dft1_golden_bytes_rank0_f64_scalar():
    expect = b"DFT1" + bytes([1, 0]) + struct.pack("<d", 3.5)
    got = ser.tensor_to_bytes(np.array(3.5, dtype=np.float64))
    assert got == expect
    out = ser.tensor_from_bytes(expect)
    assert out.shape == () and out.dtype == np.float64 and out == 3.5


def test_dft1_golden_bytes_i64_matrix():
    expect = (b"DFT1" + bytes([2, 2])
              + (2).to_bytes(8, "little") + (3).to_bytes(8, "little")
              + struct.pack("<6q", 1, 2, 3, 4, 5, 6))
    got = ser.tensor_to_bytes(np.arange(1, 7, dtype=np.int64).reshape(2, 3))
    assert got == expect


def test_dfc1_golden_bytes():
    t = ser.tensor_to_bytes(np.array([7], dtype=np.int64))
    expect = b"DFC1" + struct.pack("<I", 1) + struct.pack("<H", 3) + b"abc" + t
    import tempfile, os
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "c.dfc")
        ser.save_tensors(p, {"abc": np.array([7], dtype=np.int64)})
        with open(p, "rb") as f:
            assert f.read() == expect


# ---- round trips -------------------------------------------------------------


@pytest.mark.parametrize("arr", [
    np.array(1.25, dtype=np.float32),
    np.arange(6, dtype=np.float64).reshape(2, 3),
    np.arange(24, dtype=np.int64).reshape(2, 3, 4),
    np.zeros((0,), dtype=np.float32),
    np.float32(np.random.default_rng(0).standard_normal((3, 1, 5))),
])
def test_round_trip_bitwise(arr, tmp_path):
    p = tmp_path / "t.dft"
    ser.save_tensor(p, arr)
    back = ser.load_tensor(p)
    assert back.dtype == arr.dtype and back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


@settings(deadline=None, max_examples=30)
@given(arrays(np.float32, st.tuples(st.integers(0, 4), st.integers(0, 4)),
              elements=st.floats(-1e6, 1e6, width=32)))
def test_round_trip_property(arr):
    back = ser.tensor_from_bytes(ser.tensor_to_bytes(arr))
    assert back.tobytes() == np.ascontiguousarray(arr).tobytes()
    assert back.shape == arr.shape


def test_checkpoint_round_trip_preserves_order_and_bits(tmp_path):
    rng = np.random.default_rng(1)
    entries = {
        "backbone.stage0.conv1.w": rng.standard_normal((4, 3, 3, 3)).astype(np.float32),
        "encoder.layer0.scale.q.w": rng.standard_normal((8, 8)).astype(np.float32),
        "labels": np.array([0, 1, 2], dtype=np.int64),
        "scalar": np.array(0.125, dtype=np.float64),
    }
    p = tmp_path / "c.dfc"
    ser.save_tensors(p, entries)
    back = ser.load_tensors(p)
    assert list(back) == list(entries)
    for k in entries:
        assert back[k].tobytes() == entries[k].tobytes()
        assert back[k].dtype == entries[k].dtype


def test_non_contiguous_input_saved_row_major():
    arr = np.arange(12, dtype=np.float64).reshape(3, 4).T  # F-ordered view
    back = ser.tensor_from_bytes(ser.tensor_to_bytes(arr))
    npt.assert_array_equal(back, arr)


# ---- rejection paths -----------------------------------------------------------


def test_bad_tensor_magic():
    good = ser.tensor_to_bytes(np.zeros(2, np.float32))
    with pytest.raises(FormatError, match="magic"):
        ser.tensor_from_bytes(b"XXXX" + good[4:])


def test_bad_checkpoint_magic(tmp_path):
    p = tmp_path / "c.dfc"
    ser.save_tensors(p, {"a": np.zeros(1, np.float32)})
    raw = bytearray(p.read_bytes())
    raw[:4] = b"ZZZZ"
    p.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="magic"):
        ser.load_tensors(p)


def test_unknown_dtype_code():
    good = bytearray(ser.tensor_to_bytes(np.zeros(2, np.float32)))
    good[4] = 9
    with pytest.raises(FormatError, match="dtype code"):
        ser.tensor_from_bytes(bytes(good))


def test_truncated_payload():
    good = ser.tensor_to_bytes(np.zeros(4, np.float64))
    with pytest.raises(FormatError, match="truncated"):
        ser.tensor_from_bytes(good[:-3])


@pytest.mark.parametrize("data", [
    # f32, rank 2, extents (2**32, 2**32): the element count wraps to 0 in int64
    b"DFT1\x00\x02" b"\x00\x00\x00\x00\x01\x00\x00\x00" b"\x00\x00\x00\x00\x01\x00\x00\x00",
    # f32, rank 2, extents (2**63, 2)
    b"DFT1\x00\x02" b"\x00\x00\x00\x00\x00\x00\x00\x80" b"\x02\x00\x00\x00\x00\x00\x00\x00",
    # f32, rank 2, extents (0, 2**63): no payload, but an extent numpy cannot hold
    b"DFT1\x00\x02" b"\x00\x00\x00\x00\x00\x00\x00\x00" b"\x00\x00\x00\x00\x00\x00\x00\x80",
])
def test_hostile_extents_raise_format_error(data):
    with pytest.raises(FormatError):
        ser.tensor_from_bytes(data)


def test_extents_checked_against_bytes_left():
    header = ser.tensor_to_bytes(np.zeros((3, 2), np.float64))[:22]
    with pytest.raises(FormatError, match="48 payload bytes, 0 remain"):
        ser.tensor_from_bytes(header)


def test_trailing_bytes_rejected():
    good = ser.tensor_to_bytes(np.zeros(2, np.float32))
    with pytest.raises(FormatError, match="trailing"):
        ser.tensor_from_bytes(good + b"\x00")


def test_unsupported_dtype_on_write():
    with pytest.raises(FormatError, match="unsupported dtype"):
        ser.tensor_to_bytes(np.zeros(2, dtype=np.int32))


def test_duplicate_entry_names_rejected(tmp_path):
    t = ser.tensor_to_bytes(np.zeros(1, np.float32))
    raw = (b"DFC1" + struct.pack("<I", 2)
           + struct.pack("<H", 1) + b"a" + t
           + struct.pack("<H", 1) + b"a" + t)
    p = tmp_path / "dup.dfc"
    p.write_bytes(raw)
    with pytest.raises(FormatError, match="duplicate"):
        ser.load_tensors(p)


def test_truncated_checkpoint_entry(tmp_path):
    p = tmp_path / "c.dfc"
    ser.save_tensors(p, {"ab": np.zeros(8, np.float64)})
    p.write_bytes(p.read_bytes()[:-5])
    with pytest.raises(FormatError, match="truncated"):
        ser.load_tensors(p)


# ---- text entries ----------------------------------------------------------------


def test_text_entry_round_trip():
    s = "attention_mode = duo\n# comment with unicode: Σ=85\n"
    arr = ser.text_to_array(s)
    assert arr.dtype == np.int64
    assert ser.array_to_text(arr) == s
    # and survives the container
    back = ser.tensor_from_bytes(ser.tensor_to_bytes(arr))
    assert ser.array_to_text(back) == s


def test_text_entry_rejects_out_of_range():
    with pytest.raises(FormatError):
        ser.array_to_text(np.array([65, 300], dtype=np.int64))


def test_text_entry_rejects_non_utf8():
    with pytest.raises(FormatError, match="UTF-8"):
        ser.array_to_text(np.array([0x41, 0xFF, 0xFE], dtype=np.int64))


def test_byte_count_past_the_int_to_str_limit_is_a_format_error():
    # rank 255, every extent 2**64 - 1: the byte count has over 4300 decimal digits
    with pytest.raises(FormatError, match="over 2\\*\\*64 payload bytes"):
        ser.tensor_from_bytes(b"DFT1\x00\xff" + b"\xff" * 8 * 255)
