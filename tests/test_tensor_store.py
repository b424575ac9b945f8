"""Container round-trips, parameter classification, and alignment checks."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from rankmerge import (
    ArchitectureMismatch,
    FormatError,
    TensorMap,
    TruncationError,
    UnsupportedDtype,
    classify,
    load_checkpoint,
    save_checkpoint,
    validate_aligned,
)

from conftest import random_tensor_map
from rankmerge.rng import stream
from rankmerge.tensor_store import _load_hashed, _read_container


@pytest.fixture
def tmap():
    g = stream(3, "store-tests")
    return TensorMap(
        {
            "blocks.0.weight": g.standard_normal((8, 6)).astype(np.float32),
            "blocks.0.bias": g.standard_normal(8).astype(np.float32),
            "blocks.1.weight": g.standard_normal((4, 8)),
        },
        metadata={"source": "unit-test"},
    )


def test_round_trip_preserves_everything(tmap, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tmap, path)
    loaded = load_checkpoint(path)
    assert loaded == tmap
    assert loaded.metadata == {"source": "unit-test"}
    for name in tmap.names():
        assert loaded[name].dtype == tmap[name].dtype


def test_save_is_byte_deterministic(tmap, tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(tmap, a)
    save_checkpoint(tmap, b)
    assert a.read_bytes() == b.read_bytes()


def test_insertion_order_does_not_matter(tmp_path):
    g = stream(4, "store-tests")
    w1, w2 = g.standard_normal((3, 3)), g.standard_normal((2, 5))
    forward = TensorMap({"a.weight": w1, "b.weight": w2})
    backward = TensorMap({"b.weight": w2, "a.weight": w1})
    assert forward.names() == backward.names() == ["a.weight", "b.weight"]
    pa, pb = tmp_path / "f.ckpt", tmp_path / "r.ckpt"
    save_checkpoint(forward, pa)
    save_checkpoint(backward, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_tensors_are_read_only(tmap):
    with pytest.raises(ValueError):
        tmap["blocks.0.bias"][0] = 1.0


def test_header_layout_is_external_format(tmap, tmp_path):
    """The on-disk layout must stay readable by other tooling: an 8-byte
    little-endian header length, a JSON table with dtype/shape/offsets, then
    the raw little-endian buffers."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(tmap, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    assert header["blocks.0.weight"]["dtype"] == "F32"
    assert header["blocks.1.weight"]["dtype"] == "F64"
    assert header["blocks.0.weight"]["shape"] == [8, 6]
    start, end = header["blocks.0.weight"]["data_offsets"]
    raw = blob[8 + header_len :][start:end]
    expected = tmap["blocks.0.weight"].astype("<f4").tobytes(order="C")
    assert raw == expected


def test_load_rejects_truncated_data(tmap, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tmap, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(TruncationError):
        load_checkpoint(path)


def test_load_rejects_garbage_header(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(struct.pack("<Q", 4) + b"nope")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_load_rejects_short_file(tmp_path):
    path = tmp_path / "tiny.ckpt"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_load_rejects_unknown_dtype(tmap, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tmap, path)
    blob = path.read_bytes()
    (header_len,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + header_len])
    header["blocks.0.weight"]["dtype"] = "BF16"
    raw = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + blob[8 + header_len :])
    with pytest.raises(UnsupportedDtype):
        load_checkpoint(path)


def _spec(start: int) -> str:
    return json.dumps({"dtype": "F32", "shape": [2], "data_offsets": [start, start + 8]})


@pytest.mark.parametrize(
    "header, data_len",
    [
        # The last of two equal keys used to win silently.
        (f'{{"a":{_spec(0)},"a":{_spec(0)}}}', 8),
        (f'{{"a":{_spec(0)},"b":{_spec(4)}}}', 12),
        (f'{{"a":{_spec(0)},"b":{_spec(12)}}}', 20),
        (f'{{"a":{_spec(0)}}}', 12),
        # JSON booleans are not integers: false used to load as offset 0, and
        # true as a dimension escaped as a TypeError.
        ('{"a":{"dtype":"F32","shape":[2],"data_offsets":[false,8]}}', 8),
        ('{"a":{"dtype":"F32","shape":[true,2],"data_offsets":[0,8]}}', 8),
    ],
    ids=["duplicate-key", "overlapping-offsets", "gapped-offsets", "trailing-bytes",
         "boolean-offset", "boolean-dimension"],
)
def test_load_rejects_malformed_layout(tmp_path, header, data_len):
    path = tmp_path / "bad.ckpt"
    raw = header.encode()
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + bytes(data_len))
    for load in (load_checkpoint, _load_hashed):
        with pytest.raises(FormatError):
            load(path)


def test_layout_is_checked_before_any_byte_is_read_or_hashed(tmap, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tmap, path)
    path.write_bytes(path.read_bytes() + b"\0")
    (header_len,) = struct.unpack("<Q", path.read_bytes()[:8])
    seen = []
    with open(path, "rb") as fh:
        with pytest.raises(FormatError, match="1 bytes follow"):
            _read_container(fh, path.stat().st_size, seen.append)
        assert fh.tell() == 8 + header_len
    assert seen == []


def test_hashed_load_digests_exactly_the_file(tmap, tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tmap, path)
    loaded, digest = _load_hashed(path)
    assert loaded == tmap and loaded.metadata == tmap.metadata
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_int_tensors_rejected_on_construction():
    with pytest.raises(UnsupportedDtype):
        TensorMap({"counts": np.arange(6).reshape(2, 3)})


@pytest.mark.parametrize(
    "shape,expected",
    [
        ((4, 3), True),
        ((2, 2), True),
        ((128, 1), False),
        ((1, 128), False),
        ((7,), False),
        ((2, 3, 4), False),
    ],
)
def test_classify_by_shape(shape, expected):
    assert classify("anything.weight", np.zeros(shape)) is expected


def test_classify_ignores_name():
    """A bias-like vector stays on the averaging path even if named weight,
    and vice versa — classification is a pure function of the shape."""
    assert classify("encoder.bias", np.zeros((16, 16))) is True
    assert classify("encoder.weight", np.zeros(16)) is False


def test_validate_aligned_passes_identical_architectures():
    g = stream(5, "store-tests")
    shapes = {"a.weight": (4, 4), "b.bias": (4,)}
    maps = [random_tensor_map(g, shapes) for _ in range(3)]
    validate_aligned(maps)  # should not raise


def test_validate_aligned_reports_first_offender_by_name():
    g = stream(6, "store-tests")
    base = {"m.alpha": (3, 3), "m.beta": (3, 3), "m.gamma": (3, 3)}
    first = random_tensor_map(g, base)
    second = random_tensor_map(g, {**base, "m.beta": (3, 4), "m.gamma": (5, 5)})
    with pytest.raises(ArchitectureMismatch) as excinfo:
        validate_aligned([first, second])
    assert "m.beta" in str(excinfo.value)


def test_validate_aligned_rejects_dtype_mismatch():
    g = stream(7, "store-tests")
    a = random_tensor_map(g, {"w": (3, 3)}, dtype=np.float32)
    b = random_tensor_map(g, {"w": (3, 3)}, dtype=np.float64)
    with pytest.raises(ArchitectureMismatch):
        validate_aligned([a, b])


def test_validate_aligned_needs_two():
    g = stream(8, "store-tests")
    with pytest.raises(ValueError):
        validate_aligned([random_tensor_map(g, {"w": (2, 2)})])


def test_load_copies_each_tensor_once(tmp_path):
    g = stream(9, "store-tests")
    tmap = TensorMap({
        "a.weight": g.standard_normal((1024, 512)).astype(np.float32),
        "b.weight": g.standard_normal((512, 512)),
        "b.bias": g.standard_normal(7),
    })
    path = tmp_path / "big.ckpt"
    save_checkpoint(tmap, path)
    size = path.stat().st_size
    assert size > 4_000_000
    # Hashing feeds the digest each array's own bytes, so it holds no copy.
    for load in (load_checkpoint, lambda p: _load_hashed(p)[0]):
        tracemalloc.start()
        try:
            loaded = load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size
        for _, arr in loaded.items():
            assert arr.flags.aligned and not arr.flags.writeable
        assert loaded == tmap


def test_failed_save_leaves_the_target_untouched(tmap, tmp_path, fail_writes_to):
    path = tmp_path / "model.ckpt"
    save_checkpoint(tmap, path)
    before = path.read_bytes()
    fail_writes_to("model.ckpt")
    other = TensorMap({"w": np.ones((3, 3))})
    with pytest.raises(OSError):
        save_checkpoint(other, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
