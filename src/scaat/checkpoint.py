"""Binary parameter checkpoints.

Layout (all little-endian): the 4-byte magic ``SCT1``, then one record
per tensor: uint32 name length, UTF-8 name bytes, uint32 rank, uint32
extents, then the raw float32 values in row-major order. Records run to
end of file; tensor order is preserved. Every stored value must be
finite.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict

import numpy as np

from .reports import atomic_write

MAGIC = b"SCT1"
MAX_RANK = 32   # numpy 1's limit on array dimensions; numpy 2 allows 64


class CheckpointError(ValueError):
    pass


def save_checkpoint(tensors: "OrderedDict[str, np.ndarray]", path) -> None:
    blobs = [MAGIC]
    for name, arr in tensors.items():
        nb = name.encode("utf-8")
        a = np.ascontiguousarray(arr, dtype="<f4")
        blobs.append(struct.pack("<I", len(nb)))
        blobs.append(nb)
        blobs.append(struct.pack("<I", a.ndim))
        blobs.append(struct.pack(f"<{a.ndim}I", *a.shape))
        blobs.append(a.tobytes())
    atomic_write(path, b"".join(blobs))


def load_checkpoint(path) -> "OrderedDict[str, np.ndarray]":
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {buf[:4]!r}, expected {MAGIC!r}")
    out: OrderedDict[str, np.ndarray] = OrderedDict()
    pos = 4
    while pos < len(buf):
        try:
            (nlen,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            if len(buf) < pos + nlen:
                raise struct.error("name")
            name = buf[pos : pos + nlen].decode("utf-8")
            pos += nlen
            (rank,) = struct.unpack_from("<I", buf, pos)
            if rank > MAX_RANK:
                raise CheckpointError(f"tensor rank {rank} near byte {pos} exceeds {MAX_RANK}")
            pos += 4
            shape = struct.unpack_from(f"<{rank}I", buf, pos)
            pos += 4 * rank
            # Python ints cannot wrap; numpy bounds the nonzero extents' product
            if 4 * math.prod(d or 1 for d in shape) > np.iinfo(np.intp).max:
                raise CheckpointError(f"tensor extents {shape} near byte {pos} exceed the address space")
            end = pos + 4 * math.prod(shape)
            if end > len(buf):
                raise struct.error("data")
            arr = np.frombuffer(buf[pos:end], dtype="<f4").reshape(shape)
            pos = end
        except struct.error as exc:
            raise CheckpointError(f"truncated checkpoint record near byte {pos}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name near byte {pos} is not UTF-8: {exc}") from exc
        # checked before widening, where a signalling NaN would warn
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name!r} holds non-finite values")
        out[name] = arr.astype(np.float64)
    return out
