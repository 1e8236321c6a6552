"""Low-level helpers for the little-endian binary container formats.

Every on-disk container starts with a 4-byte magic, followed by fixed-width
integers (u8/u32) and packed numpy arrays. All multi-byte values are
little-endian regardless of host byte order.
"""

import math
import os
import struct

import numpy as np

from .errors import FormatError


def bytes_left(fh):
    """Bytes between the position of ``fh`` and the end of its file."""
    return os.fstat(fh.fileno()).st_size - fh.tell()


# reads up to this size cannot over-allocate, so they skip the file-size check
_UNCHECKED_READ = 1 << 16


def read_exact(fh, n, path):
    # read no more than the file holds: a corrupt header can claim more bytes
    # than memory does, and fh.read(n) would allocate all of them up front
    buf = fh.read(n if n <= _UNCHECKED_READ else min(n, bytes_left(fh)))
    if len(buf) != n:
        raise FormatError(f"{path}: truncated file (wanted {n} bytes, got {len(buf)})")
    return buf


def check_magic(fh, magic, path):
    got = fh.read(len(magic))
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")


def write_u8(fh, value):
    fh.write(struct.pack("<B", value))


def read_u8(fh, path):
    return struct.unpack("<B", read_exact(fh, 1, path))[0]


def write_u32(fh, value):
    fh.write(struct.pack("<I", value))


def read_u32(fh, path):
    return struct.unpack("<I", read_exact(fh, 4, path))[0]


def write_f64(fh, value):
    fh.write(struct.pack("<d", value))


def read_f64(fh, path):
    return struct.unpack("<d", read_exact(fh, 8, path))[0]


def write_str8(fh, text):
    data = text.encode("utf-8")
    if len(data) > 255:
        raise FormatError(f"string too long for u8 length prefix: {text!r}")
    write_u8(fh, len(data))
    fh.write(data)


def read_str8(fh, path):
    data = read_exact(fh, read_u8(fh, path), path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: string {data!r} is not UTF-8") from exc


def write_array(fh, arr, dtype):
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def read_array(fh, dtype, shape, path):
    dt = np.dtype(dtype)
    buf = read_exact(fh, dt.itemsize * math.prod(shape), path)
    return np.frombuffer(buf, dtype=dt).reshape(shape).copy()
