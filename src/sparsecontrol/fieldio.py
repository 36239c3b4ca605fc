"""Binary field dumps.

Layout: magic bytes ``PFLD``, then three little-endian uint32 values
(number of time slices, nodes per axis, space dimension), then the field
values as little-endian float64, time-major, row-major in space.
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import SpaceTimeField

MAGIC = b"PFLD"
_HEADER = struct.Struct("<4sIII")


def write_field(path, f: SpaceTimeField):
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(MAGIC, f.n_slices, f.grid.n_per_axis,
                                  f.grid.n_dim))
        handle.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def read_field(path):
    """Read a dump back as (values, n_per_axis, n_dim)."""
    with open(path, "rb") as handle:
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError("field dump is truncated")
        magic, n_slices, n_per_axis, n_dim = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"not a field dump: bad magic {magic!r}")
        n_nodes = n_per_axis**n_dim
        data = np.frombuffer(handle.read(), dtype="<f8")
    if data.size != n_slices * n_nodes:
        raise ValueError("field dump is truncated")
    return data.reshape(n_slices, n_nodes).copy(), n_per_axis, n_dim
