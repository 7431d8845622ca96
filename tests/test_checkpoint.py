import os
import struct
from collections import OrderedDict

import numpy as np
import pytest

from scaat.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from conftest import flip_every_bit


def test_round_trip(tmp_path, rng):
    tensors = OrderedDict(
        [
            ("conv1.w", rng.standard_normal((2, 1, 3, 3))),
            ("fc.b", rng.standard_normal(5)),
            ("scalarish", rng.standard_normal((1,))),
        ]
    )
    path = tmp_path / "m.sct"
    save_checkpoint(tensors, path)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        np.testing.assert_allclose(loaded[name], tensors[name], rtol=1e-6)
        assert loaded[name].shape == tensors[name].shape


def test_resave_is_byte_identical(tmp_path, rng):
    tensors = OrderedDict([("w", rng.standard_normal((4, 4)))])
    p1, p2 = tmp_path / "a.sct", tmp_path / "b.sct"
    save_checkpoint(tensors, p1)
    save_checkpoint(load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.sct"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_record(tmp_path, rng):
    path = tmp_path / "m.sct"
    save_checkpoint(OrderedDict([("w", rng.standard_normal((8, 8)))]), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_little_endian_layout(tmp_path):
    path = tmp_path / "m.sct"
    save_checkpoint(OrderedDict([("ab", np.array([1.0, 2.0]))]), path)
    blob = path.read_bytes()
    assert blob[:4] == b"SCT1"
    assert blob[4:8] == (2).to_bytes(4, "little")  # name length
    assert blob[8:10] == b"ab"
    assert blob[10:14] == (1).to_bytes(4, "little")  # rank
    assert blob[14:18] == (2).to_bytes(4, "little")  # extent
    assert blob[18:] == np.array([1.0, 2.0], dtype="<f4").tobytes()


def test_every_cut_point_loads_a_prefix_or_raises(tmp_path, rng):
    tensors = OrderedDict([("conv1.wé", rng.standard_normal((2, 3))), ("ünï.b", rng.standard_normal(2))])
    path = tmp_path / "m.sct"
    save_checkpoint(tensors, path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        try:
            loaded = load_checkpoint(path)
        except CheckpointError:
            continue
        assert list(loaded) == list(tensors)[: len(loaded)], cut


# a flipped exponent bit can make a float32 signalling NaN, which numpy
# warns about when it widens the value to float64: the filter turns that
# warning into a failure, so the finite check must come first
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_bit_flip_loads_or_raises(tmp_path):
    # 523 bytes, among whose flips are a rank of 68 (past numpy's limit),
    # fc.b extents whose product wraps to 0 in int64, and exponent bits
    # that make a weight infinite or NaN
    rng = np.random.default_rng(0)
    tensors = OrderedDict([("conv1.w", rng.standard_normal((4, 3, 3, 3))), ("fc.b", rng.standard_normal(10))])
    path = tmp_path / "m.sct"
    save_checkpoint(tensors, path)

    def load(blob):
        path.write_bytes(blob)
        return load_checkpoint(path)

    outcomes = flip_every_bit(path.read_bytes(), load, CheckpointError)
    assert len(outcomes) == 8 * 523
    assert any(isinstance(o, CheckpointError) and "rank 68" in str(o) for o in outcomes)
    assert any(isinstance(o, CheckpointError) and "'fc.b' holds non-finite" in str(o) for o in outcomes)
    for o in outcomes:
        if not isinstance(o, CheckpointError):
            assert all(np.isfinite(arr).all() for arr in o.values())


def test_zero_extent_beside_huge_extents(tmp_path):
    # holds no values, but numpy rejects the shape: its nonzero extents'
    # product overflows the address space
    path = tmp_path / "m.sct"
    path.write_bytes(b"SCT1" + struct.pack("<I", 1) + b"w" + struct.pack("<5I", 4, 0, *[0xFFFFFFFF] * 3))
    with pytest.raises(CheckpointError, match="address space"):
        load_checkpoint(path)


def test_failed_replace_keeps_old_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "m.sct"
    save_checkpoint(OrderedDict([("w", np.ones(3))]), path)
    old = path.read_bytes()

    def fail(src, dst):
        raise error

    monkeypatch.setattr(os, "replace", fail)
    error = OSError("replace refused")
    with pytest.raises(OSError, match="replace refused"):
        save_checkpoint(OrderedDict([("w", rng.standard_normal(5))]), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.sct"]
    error = KeyboardInterrupt()   # not an OSError: raised unchanged, and the temp file still goes
    with pytest.raises(KeyboardInterrupt) as caught:
        save_checkpoint(OrderedDict([("w", rng.standard_normal(5))]), path)
    assert caught.value is error
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["m.sct"]
