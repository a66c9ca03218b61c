"""BFX1 binary field dumps."""

import struct
import tracemalloc

import numpy as np
import pytest

from nlrd.fieldio import MAGIC, VERSION, read_field, write_field
from nlrd.lattice import Grid, RealField


def sample_field(seed=0):
    g = Grid(d=3, n=4, L=2.5)
    rng = np.random.default_rng(seed)
    return RealField(g, rng.standard_normal(g.npoints))


def test_round_trip_is_bit_exact(tmp_path):
    f = sample_field()
    path = tmp_path / "field.bfx1"
    write_field(path, f)
    back = read_field(path)
    assert back.grid == f.grid
    assert np.array_equal(back.values, f.values)


def test_header_layout(tmp_path):
    f = sample_field()
    path = tmp_path / "field.bfx1"
    write_field(path, f)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack_from("<I", raw, 4)[0] == VERSION
    assert raw[8:16] == b"\x00" * 8
    d, n = struct.unpack_from("<II", raw, 16)
    (L,) = struct.unpack_from("<d", raw, 24)
    assert (d, n, L) == (3, 4, 2.5)
    assert len(raw) == 32 + f.grid.npoints * 8


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bfx1"
    write_field(path, sample_field())
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_field(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.bfx1"
    write_field(path, sample_field())
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        read_field(path)


def test_rejects_truncated_file(tmp_path):
    path = tmp_path / "bad.bfx1"
    write_field(path, sample_field())
    raw = path.read_bytes()
    path.write_bytes(raw[:20])
    with pytest.raises(ValueError, match="truncated"):
        read_field(path)


def test_rejects_payload_size_mismatch(tmp_path):
    path = tmp_path / "bad.bfx1"
    write_field(path, sample_field())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="payload"):
        read_field(path)


def peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_round_trip_makes_no_copy_of_the_payload(tmp_path):
    """A write hands the samples' own buffer to the file, and a read checks
    the payload's size and reads it straight into the field's array."""
    g = Grid(d=5, n=12, L=4.0)
    f = RealField(g, np.random.default_rng(1).standard_normal(g.npoints))
    path = tmp_path / "field.bfx1"
    write_field(path, f)
    read_field(path)
    payload = f.values.nbytes
    assert peak_bytes(lambda: write_field(path, f)) < 0.1 * payload
    assert peak_bytes(lambda: read_field(path)) < 1.3 * payload
    assert np.array_equal(read_field(path).values, f.values)
