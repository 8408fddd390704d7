"""The one file layer: atomic writes, the magic/version header of the
binary files, and exact reads: a short read or bytes left after the last
record raise ValueError naming the file and the byte offset.
"""

import contextlib
import csv
import math
import os
import struct

import numpy as np
from numpy.typing import NDArray


@contextlib.contextmanager
def atomic_write(path: str, mode: str = "wb", **kwargs):
    """Write to a temp file beside `path`, renamed into place when the
    block ends; on any error the old file is left as it was."""
    tmp = f"{os.path.abspath(path)}.{os.getpid()}.tmp"
    os.makedirs(os.path.dirname(tmp), exist_ok=True)
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, rows) -> None:
    with atomic_write(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def write_header(f, magic: bytes, version: int) -> None:
    f.write(magic + struct.pack("<I", version))


def read_header(f, magic: bytes, versions: tuple, kind: str, path: str) -> int:
    """Check what write_header wrote; return the version."""
    if f.read(len(magic)) != magic:
        raise ValueError(f"{path}: bad magic, not a {kind} file")
    (version,) = unpack_exact(f, "<I", path)
    if version not in versions:
        raise ValueError(f"{path}: unsupported version {version}")
    return version


def read_exact(f, n: int, path: str) -> bytes:
    # Compare with the bytes left before reading, so that a corrupted
    # length field cannot make the read allocate an arbitrary buffer.
    offset = f.tell()
    left = os.fstat(f.fileno()).st_size - offset
    if n > left:
        raise ValueError(f"{path}: truncated at byte offset {offset}: "
                         f"expected {n} bytes, {left} left")
    return f.read(n)


def unpack_exact(f, fmt: str, path: str) -> tuple:
    return struct.unpack(fmt, read_exact(f, struct.calcsize(fmt), path))


def read_shape(f, rank: int, path: str) -> tuple[int, ...]:
    dims = np.frombuffer(read_exact(f, 8 * rank, path), dtype="<u8")
    return tuple(int(d) for d in dims)


def read_float64(f, shape: tuple[int, ...], path: str) -> NDArray:
    data = np.frombuffer(read_exact(f, 8 * math.prod(shape), path),
                         dtype="<f8")
    try:
        return data.reshape(shape).astype(np.float64)
    except ValueError as e:  # an empty array with over 64 or too-long axes
        raise ValueError(f"{path}: bad array shape: {e}") from e


def expect_end(f, path: str) -> None:
    offset = f.tell()
    if f.read(1):
        raise ValueError(f"{path}: unexpected trailing bytes at byte offset "
                         f"{offset}")
