"""Binary field dumps in the BFX1 format.

Layout (all little-endian):

    bytes 0..3    magic  b"BFX1"
    bytes 4..7    u32    format version (currently 1)
    bytes 8..15   reserved, zero
    bytes 16..19  u32    d   (spatial dimension)
    bytes 20..23  u32    n   (points per axis)
    bytes 24..31  f64    L   (box half-width)
    bytes 32..    n^d    f64 samples, flat row-major over axes

The payload is exactly the ``RealField.values`` buffer, so a round trip is
bit-exact.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .lattice import Grid, RealField

MAGIC = b"BFX1"
VERSION = 1
_HEADER = struct.Struct("<4sI8x")
_GEOMETRY = struct.Struct("<IId")


def write_field(path: str | Path, f: RealField) -> None:
    """Write a field to ``path`` in BFX1 format."""
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION))
        fh.write(_GEOMETRY.pack(g.d, g.n, g.L))
        # the samples' own buffer, not a copy of its bytes
        fh.write(memoryview(np.ascontiguousarray(f.values, dtype="<f8")).cast("B"))


def read_field(path: str | Path) -> RealField:
    """Read a BFX1 dump back into a field: the payload's size is checked
    before it is read, straight into the field's array."""
    offset = _HEADER.size + _GEOMETRY.size
    with open(path, "rb") as fh:
        head = fh.read(offset)
        if len(head) < offset:
            raise ValueError(f"{path}: truncated BFX1 file")
        magic, version = _HEADER.unpack_from(head, 0)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a BFX1 file (bad magic {magic!r})")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported BFX1 version {version}")
        d, n, L = _GEOMETRY.unpack_from(head, _HEADER.size)
        grid = Grid(d=int(d), n=int(n), L=float(L))
        expected = grid.npoints * 8
        size = os.fstat(fh.fileno()).st_size - offset
        if size != expected:
            raise ValueError(f"{path}: payload has {size} bytes, expected {expected}")
        values = np.empty(grid.npoints, dtype="<f8")
        if fh.readinto(memoryview(values).cast("B")) != expected:
            raise ValueError(f"{path}: truncated BFX1 file")
    return RealField(grid, values)
