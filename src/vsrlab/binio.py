"""Low-level helpers for the little-endian binary container formats.

Every on-disk container starts with a 4-byte magic, followed by fixed-width
integers (u8/u32), u8-length-prefixed UTF-8 strings and packed numpy arrays.
All multi-byte values are little-endian regardless of host byte order.

Savers write fields with the ``write_*`` functions. Loaders read them back
through one ``Reader``, which checks the magic and takes the file size once.
Each field is checked against the bytes left before it is read, so a corrupt
length allocates nothing and a short file is a ``FormatError``. A loader
ends with ``Reader.end``: a container ends at its last field, and a file
with bytes after it is a ``FormatError`` too. Only a header reader, which
stops after the header, skips that check.
"""

import math
import os
import struct

import numpy as np

from .errors import FormatError


class Reader:
    """Reads one container's fields, in order, from ``fh`` (opened ``"rb"``).

    ``left`` is the number of bytes between the read position and the end of
    the file. Every error names ``path``.
    """

    def __init__(self, fh, path, magic):
        self._fh = fh
        self._path = path
        self.left = os.fstat(fh.fileno()).st_size - fh.tell()
        got = fh.read(min(len(magic), self.left))
        self.left -= len(got)
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")

    def _read(self, n):
        buf = self._fh.read(min(n, self.left))
        self.left -= len(buf)
        if len(buf) != n:
            raise self._truncated(n, len(buf))
        return buf

    def _truncated(self, n, got):
        return FormatError(f"{self._path}: truncated file (wanted {n} bytes, got {got})")

    def u8(self):
        return self._read(1)[0]

    def u32(self):
        return struct.unpack("<I", self._read(4))[0]

    def str8(self):
        data = self._read(self.u8())
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self._path}: string {data!r} is not UTF-8") from exc

    def array(self, dtype, shape):
        """A new array, read straight into its own memory."""
        dt = np.dtype(dtype)
        n = dt.itemsize * math.prod(shape)
        if n > self.left:
            raise self._truncated(n, self.left)
        out = np.empty(shape, dtype=dt)
        got = self._fh.readinto(out)
        self.left -= got
        if got != n:
            raise self._truncated(n, got)
        return out

    def end(self):
        """Check that the file ends at the field just read."""
        if self.left:
            raise FormatError(f"{self._path}: trailing bytes after the last field")


def write_u8(fh, value):
    fh.write(struct.pack("<B", value))


def write_u32(fh, value):
    fh.write(struct.pack("<I", value))


def write_str8(fh, text):
    data = text.encode("utf-8")
    if len(data) > 255:
        raise FormatError(f"string too long for u8 length prefix: {text!r}")
    write_u8(fh, len(data))
    fh.write(data)


def write_array(fh, arr, dtype):
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())
