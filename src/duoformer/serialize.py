"""Binary tensor containers.

Single tensor, "DFT1":  magic `DFT1` | u8 dtype (0=f32, 1=f64, 2=i64) |
u8 rank | rank x u64 little-endian extents | row-major little-endian payload.
Rank 0 is a scalar with a bare payload.

Checkpoint, "DFC1":  magic `DFC1` | u32 entry count | per entry:
u16 name length | UTF-8 name | embedded DFT1 record. Entry order is
preserved on read (insertion-ordered dict).

Text rides along as i64 arrays of UTF-8 bytes (see text_to_array); that keeps
the format at exactly three dtypes.
"""

from __future__ import annotations

import io
import math
import struct
from collections import OrderedDict

import numpy as np

from .errors import FormatError

TENSOR_MAGIC = b"DFT1"
CHECKPOINT_MAGIC = b"DFC1"

_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("<i8"): 2}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("<i8")}


def _read_exact(f, n: int, what: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file: expected {n} bytes for {what}, got {len(data)}")
    return data


def write_dft1(f, arr: np.ndarray) -> None:
    arr = np.asarray(arr)  # note: ascontiguousarray would promote rank 0 to rank 1
    key = arr.dtype.newbyteorder("<")
    if key not in _DTYPE_CODES:
        raise FormatError(f"unsupported dtype {arr.dtype.name}; only f32/f64/i64 are storable")
    f.write(TENSOR_MAGIC)
    f.write(struct.pack("<BB", _DTYPE_CODES[key], arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    f.write(arr.astype(key, copy=False).tobytes())  # tobytes is always C-order


def read_dft1(f) -> np.ndarray:
    magic = _read_exact(f, 4, "magic")
    if magic != TENSOR_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
    code, rank = struct.unpack("<BB", _read_exact(f, 2, "header"))
    if code not in _CODE_DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    dtype = _CODE_DTYPES[code]
    shape = struct.unpack(f"<{rank}Q", _read_exact(f, 8 * rank, "extents"))
    nbytes = math.prod(shape) * dtype.itemsize  # Python ints: a hostile header cannot wrap
    pos = f.tell()
    left = f.seek(0, io.SEEK_END) - pos
    f.seek(pos)
    if nbytes > left:
        # a hostile count can pass int-to-str's 4300-digit limit, so a large one is not printed
        need = nbytes if nbytes < 2 ** 64 else "over 2**64"
        raise FormatError(f"truncated file: extents {shape} need {need} payload bytes, "
                          f"{left} remain")
    payload = _read_exact(f, nbytes, "payload")
    try:
        return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    except ValueError as e:  # e.g. a zero extent beside one numpy cannot index
        raise FormatError(f"extents {shape}: {e}") from e


def tensor_to_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    write_dft1(buf, arr)
    return buf.getvalue()


def tensor_from_bytes(data: bytes) -> np.ndarray:
    buf = io.BytesIO(data)
    arr = read_dft1(buf)
    if buf.read(1):
        raise FormatError("trailing bytes after tensor payload")
    return arr


def save_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        write_dft1(f, arr)


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        arr = read_dft1(f)
        if f.read(1):
            raise FormatError(f"trailing bytes after tensor payload in {path}")
    return arr


def save_tensors(path, entries: "dict[str, np.ndarray]") -> None:
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries.items():
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise FormatError(f"entry name too long ({len(raw)} bytes)")
            f.write(struct.pack("<H", len(raw)))
            f.write(raw)
            write_dft1(f, arr)


def load_tensors(path) -> "OrderedDict[str, np.ndarray]":
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    with open(path, "rb") as f:
        magic = _read_exact(f, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        (count,) = struct.unpack("<I", _read_exact(f, 4, "entry count"))
        for i in range(count):
            (nlen,) = struct.unpack("<H", _read_exact(f, 2, f"name length of entry {i}"))
            try:
                name = _read_exact(f, nlen, f"name of entry {i}").decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(f"entry {i} name is not valid UTF-8") from e
            if name in out:
                raise FormatError(f"duplicate entry name {name!r}")
            out[name] = read_dft1(f)
        if f.read(1):
            raise FormatError(f"trailing bytes after last entry in {path}")
    return out


def text_to_array(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.int64)


def array_to_text(arr: np.ndarray) -> str:
    if arr.ndim != 1:
        raise FormatError(f"text entries must be rank 1, got rank {arr.ndim}")
    vals = arr.astype(np.int64)
    if vals.size and (vals.min() < 0 or vals.max() > 255):
        raise FormatError("text entry holds values outside byte range")
    try:
        return vals.astype(np.uint8).tobytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError("text entry is not valid UTF-8") from e
