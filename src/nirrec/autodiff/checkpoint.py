"""Flat named-tensor container for model checkpoints and dataset shards.

Layout (all integers little-endian):

    8 bytes   magic "NIRGNN01"
    u64       entry count
    per entry, sorted by name:
        u32       name byte length
        bytes     name, UTF-8
        u32       rank
        u64 * r   dimension sizes
        f64 * n   row-major values

Sorting entries by name makes the bytes a pure function of the stored
mapping, which is what the byte-identical-run guarantees rest on.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

from ..errors import IngestionError
from .tensor import Tensor

MAGIC = b"NIRGNN01"


def _as_array(value) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _raw_bytes(arr: np.ndarray) -> memoryview:
    """Byte view of a C-contiguous array, without a copy."""
    return memoryview(arr.reshape(-1)).cast("B")


def save_tensors(path: str | Path, tensors: Mapping[str, "Tensor | np.ndarray"]) -> None:
    """Write a name→tensor mapping; values are coerced to float64.

    Each header and array goes straight to the file, so a float64 tensor
    is never copied on the way.
    """
    entries = sorted(tensors.items())
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(entries)))
        for name, value in entries:
            arr = np.ascontiguousarray(_as_array(value), dtype="<f8")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(name_bytes)}sI", len(name_bytes), name_bytes, arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(_raw_bytes(arr))


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a container written by :func:`save_tensors`.

    Each array is read into a fresh, writable array of its own, so the
    file is never held in memory beside the arrays.  Sizes are checked
    against the bytes left in the file before anything is allocated.
    """
    with Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            left = size - fh.tell()
            if n > left:
                raise ValueError(f"entry needs {n} bytes, {left} left")
            raw = fh.read(n)
            if len(raw) != n:
                raise ValueError(f"read {len(raw)} of {n} bytes")
            return raw

        head = fh.read(len(MAGIC) + 8)
        if len(head) < len(MAGIC) + 8 or head[: len(MAGIC)] != MAGIC:
            raise IngestionError(f"{path}: not a named-tensor container (bad magic)")
        (count,) = struct.unpack_from("<Q", head, len(MAGIC))
        out: dict[str, np.ndarray] = {}
        try:
            for _ in range(count):
                (name_len,) = struct.unpack("<I", read(4))
                name = read(name_len).decode("utf-8")
                (rank,) = struct.unpack("<I", read(4))
                shape = struct.unpack(f"<{rank}Q", read(8 * rank))
                nbytes = 8 * math.prod(shape)
                if nbytes > size - fh.tell():
                    raise ValueError(f"{name!r} needs {nbytes} bytes, {size - fh.tell()} left")
                values = np.empty(shape, dtype="<f8")
                got = fh.readinto(_raw_bytes(values))
                if got != nbytes:
                    raise ValueError(f"read {got} of {nbytes} bytes of {name!r}")
                out[name] = values.astype(np.float64, copy=False)
        except (struct.error, ValueError) as e:
            raise IngestionError(f"{path}: truncated or corrupt container ({e})") from e
        trailing = size - fh.tell()
    if trailing:
        raise IngestionError(f"{path}: {trailing} trailing bytes after last entry")
    return out
