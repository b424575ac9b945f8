"""Property tests for the checkpoint container.

Random float32/float64 tensor maps must round-trip byte for byte, and a
container that is not exactly one well-formed file must raise one of the
reader's three errors, never anything else. A file that loads is hashed
whole, in the same pass.
"""

from __future__ import annotations

import hashlib
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from rankmerge import (
    FormatError,
    TensorMap,
    TruncationError,
    UnsupportedDtype,
    load_checkpoint,
    save_checkpoint,
)
from rankmerge.tensor_store import _load_hashed

READER_ERRORS = (FormatError, TruncationError, UnsupportedDtype)
FUZZ = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])

tensors = st.sampled_from([np.float32, np.float64]).flatmap(
    lambda dtype: arrays(dtype, array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
)
tensor_maps = st.builds(
    TensorMap,
    st.dictionaries(st.text("abc.01", min_size=1, max_size=6), tensors, min_size=1, max_size=4),
    st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2),
)


def _save(tmap: TensorMap) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        save_checkpoint(tmap, path)
        return path.read_bytes()


def _load(blob: bytes) -> TensorMap:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(blob)
        return load_checkpoint(path)


def _split(blob: bytes) -> tuple[list[tuple[str, object]], bytes]:
    (n,) = struct.unpack("<Q", blob[:8])
    return list(json.loads(blob[8 : 8 + n]).items()), blob[8 + n :]


def _join(items: list[tuple[str, object]], data: bytes) -> bytes:
    # Written by hand so that a repeated key survives serialization.
    header = ("{" + ",".join(f"{json.dumps(k)}:{json.dumps(v)}" for k, v in items) + "}").encode()
    return struct.pack("<Q", len(header)) + header + data


@FUZZ
@given(tensor_maps)
def test_random_maps_round_trip_byte_for_byte(tmap):
    blob = _save(tmap)
    back = _load(blob)
    assert back.names() == tmap.names() and back.metadata == tmap.metadata
    for (_, a), (_, b) in zip(tmap.items(), back.items()):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert _save(back) == blob


def _repeat_key(draw, items, data):
    tensors_only = [i for i, (k, _) in enumerate(items) if k != "__metadata__"]
    i = draw(st.sampled_from(tensors_only))
    return _join(items + [items[i]], data)


def _shift(draw, items, data):
    i = draw(st.sampled_from([i for i, (k, _) in enumerate(items) if k != "__metadata__"]))
    by = draw(st.integers(-16, 16).filter(bool))
    name, spec = items[i]
    start, end = spec["data_offsets"]
    items[i] = (name, {**spec, "data_offsets": [start + by, end + by]})
    return _join(items, data)


def _overlap(draw, items, data):
    idx = [i for i, (k, _) in enumerate(items) if k != "__metadata__"]
    assume(len(idx) >= 2)
    i, j = draw(st.permutations(idx))[:2]
    (name, spec), (_, other) = items[j], items[i]
    start, end = spec["data_offsets"]
    moved = other["data_offsets"][0]
    items[j] = (name, {**spec, "data_offsets": [moved, moved + end - start]})
    return _join(items, data)


def _trailing(draw, items, data):
    return _join(items, data + draw(st.binary(min_size=1, max_size=16)))


MUTATIONS = {"repeat_key": _repeat_key, "shift": _shift, "overlap": _overlap, "trailing": _trailing}


@FUZZ
@given(tensor_maps, st.sampled_from(sorted(MUTATIONS)), st.data())
def test_mutated_headers_raise_only_reader_errors(tmap, mutation, data):
    items, payload = _split(_save(tmap))
    blob = MUTATIONS[mutation](data.draw, items, payload)
    with pytest.raises(READER_ERRORS):
        _load(blob)


@FUZZ
@given(tensor_maps, st.data())
def test_truncated_files_raise_only_reader_errors(tmap, data):
    blob = _save(tmap)
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(READER_ERRORS):
        _load(blob[:cut])


@FUZZ
@given(tensor_maps, st.data())
def test_corrupted_bytes_load_or_raise_only_reader_errors(tmap, data):
    blob = bytearray(_save(tmap))
    for _ in range(data.draw(st.integers(1, 4))):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    try:
        _load(bytes(blob))
    except READER_ERRORS:
        pass


@FUZZ
@given(tensor_maps, st.data())
def test_a_hashed_load_digests_the_whole_file_or_raises_a_reader_error(tmap, data):
    blob = bytearray(_save(tmap))
    for _ in range(data.draw(st.integers(0, 4))):
        blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ckpt"
        path.write_bytes(blob)
        try:
            _, digest = _load_hashed(path)
        except READER_ERRORS:
            return
    assert digest == hashlib.sha256(blob).hexdigest()
