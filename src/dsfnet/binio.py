"""Exact-length reads for the binary dataset and parameter files.

A short read or bytes left after the last record raise ValueError naming
the file and the byte offset, never struct.error or a reshape error.
"""

import math
import os
import struct

import numpy as np
from numpy.typing import NDArray


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
    return data.reshape(shape).astype(np.float64)


def expect_end(f, path: str) -> None:
    offset = f.tell()
    if f.read(1):
        raise ValueError(f"{path}: unexpected trailing bytes at byte offset "
                         f"{offset}")
