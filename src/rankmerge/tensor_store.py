"""Checkpoint container: named dense tensors in a bit-exact binary format.

A checkpoint is stored as a single file:

* 8 bytes: unsigned little-endian length ``N`` of the JSON header,
* ``N`` bytes: UTF-8 JSON mapping tensor name to
  ``{"dtype": "F32"|"F64", "shape": [...], "data_offsets": [start, end]}``,
  plus an optional ``"__metadata__"`` string-to-string map,
* the concatenated raw little-endian row-major buffers.

Offsets are relative to the start of the data section. Tensors are written
in lexicographic name order with contiguous buffers, so saving the same map
twice produces byte-identical files. The reader accepts exactly this
layout: header keys are unique, and the buffers, sorted by offset, tile
the data section with no gap, overlap or trailing byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import struct
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    ArchitectureMismatch,
    FormatError,
    TruncationError,
    UnsupportedDtype,
)

__all__ = [
    "TensorMap",
    "classify",
    "load_checkpoint",
    "save_checkpoint",
    "validate_aligned",
]

_DTYPE_TAGS = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
_TAG_FOR_KIND = {"f4": "F32", "f8": "F64"}


def _dtype_tag(dtype: np.dtype) -> str:
    tag = _TAG_FOR_KIND.get(dtype.str.lstrip("<>=|"))
    if tag is None:
        raise UnsupportedDtype(f"dtype {dtype} is not one of float32/float64")
    return tag


def _check_tensor(name: str, arr: np.ndarray) -> np.ndarray:
    if arr.ndim < 1:
        raise FormatError(f"tensor '{name}' must have at least one dimension")
    if any(d < 1 for d in arr.shape):
        raise FormatError(f"tensor '{name}' has a non-positive dimension: {arr.shape}")
    _dtype_tag(arr.dtype)
    out = np.ascontiguousarray(arr)
    if out is arr and arr.flags.writeable:
        out = arr.copy()
    out.flags.writeable = False
    return out


class TensorMap:
    """Immutable, name-ordered collection of dense tensors plus metadata.

    Iteration order is lexicographic by name regardless of insertion order.
    Arrays are stored read-only; mutate-by-accident is a bug we refuse to
    inherit from callers.
    """

    __slots__ = ("_entries", "_metadata")

    def __init__(
        self,
        entries: Mapping[str, np.ndarray],
        metadata: Mapping[str, str] | None = None,
    ):
        checked = {name: _check_tensor(name, np.asarray(arr)) for name, arr in entries.items()}
        self._entries: dict[str, np.ndarray] = {k: checked[k] for k in sorted(checked)}
        self._metadata: dict[str, str] = {str(k): str(v) for k, v in (metadata or {}).items()}

    @property
    def metadata(self) -> dict[str, str]:
        return dict(self._metadata)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self) -> Iterable[tuple[str, np.ndarray]]:
        return self._entries.items()

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __getitem__(self, name: str) -> np.ndarray:
        return self._entries[name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorMap):
            return NotImplemented
        if self.names() != other.names() or self._metadata != other._metadata:
            return False
        return all(
            a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
            for (_, a), (_, b) in zip(self.items(), other.items())
        )

    def __repr__(self) -> str:
        return f"TensorMap({len(self)} tensors)"


def classify(name: str, tensor: np.ndarray) -> bool:
    """Whether a parameter takes the SVD merge path, by shape alone.

    Exactly-2-D tensors with both dimensions >= 2 take the SVD merge path;
    everything else (biases, norm scales, [1, n] strips, 3-D tensors) is
    averaged. ``name`` is the :data:`Classifier` signature's, for callers
    that narrow this rule by name; it never influences the result.
    """
    shape = np.shape(tensor)
    return len(shape) == 2 and min(shape) >= 2


# Whether a parameter takes the SVD merge path; callers narrow ``classify`` by name.
Classifier = Callable[[str, np.ndarray], bool]


def _atomic_write(path: str | Path, chunks: Iterable[bytes | np.ndarray]) -> str:
    """Write ``chunks`` in order to a new file next to ``path``, hashing them as
    they go, move it onto ``path`` in one step, and return the SHA-256 hex digest.
    A write that fails leaves ``path`` as it was and no temporary file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    digest = hashlib.sha256()
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest.hexdigest()


def _write_text(path: str | Path, text: str) -> str:
    """Write ``text`` to ``path`` as UTF-8, atomically; return its SHA-256."""
    return _atomic_write(path, [text.encode()])


def _write_json(path: str | Path, payload: object, indent: int | None = 2) -> str:
    """Write ``payload`` as key-sorted JSON plus a newline, atomically; return its SHA-256."""
    return _write_text(path, json.dumps(payload, sort_keys=True, indent=indent) + "\n")


def _write_csv(path: str | Path, rows: Iterable[Iterable[object]]) -> str:
    """Write ``rows`` in the csv module's default dialect, atomically; return its SHA-256."""
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return _write_text(path, buffer.getvalue())


def save_checkpoint(tmap: TensorMap, path: str | Path) -> str:
    """Write ``tmap`` to ``path`` in the container format, atomically; return its SHA-256."""
    header: dict[str, object] = {}
    if tmap.metadata:
        header["__metadata__"] = tmap.metadata
    offset = 0
    buffers: list[np.ndarray] = []
    for name, arr in tmap.items():
        tag = _dtype_tag(arr.dtype)
        raw = np.ascontiguousarray(arr, dtype=_DTYPE_TAGS[tag])  # a copy only to byte-swap
        header[name] = {
            "dtype": tag,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + raw.nbytes],
        }
        offset += raw.nbytes
        buffers.append(raw)
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _atomic_write(path, [struct.pack("<Q", len(header_bytes)), header_bytes, *buffers])


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise FormatError(f"the key {key!r} is repeated")
        out[key] = value
    return out


def load_checkpoint(path: str | Path) -> TensorMap:
    """Read a checkpoint file, reading each tensor straight into its array.

    The file's bytes are never held whole, so loading needs about one file
    size of memory; the arrays are aligned and read-only, and
    :class:`TensorMap` stores them as they are.

    The header and the layout of the buffers are checked before any tensor
    is read. Raises :class:`FormatError` for malformed or inconsistent
    headers (including repeated keys and buffers that do not tile the data
    section exactly), :class:`UnsupportedDtype` for dtypes outside
    {float32, float64}, and :class:`TruncationError` when a declared buffer
    extends past the file.
    """
    with open(path, "rb") as fh:
        return _read_container(fh, os.fstat(fh.fileno()).st_size)


def _load_hashed(path: str | Path) -> tuple[TensorMap, str]:
    """:func:`load_checkpoint` of ``path``, plus the SHA-256 hex digest of the
    bytes it read. Those are the whole file, read once: a checked header
    leaves no byte outside the length, the header and the tensor buffers."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        tmap = _read_container(fh, os.fstat(fh.fileno()).st_size, digest.update)
    return tmap, digest.hexdigest()


def _read_container(
    fh: BinaryIO, size: int, seen: Callable[[bytes | memoryview], object] = lambda data: None
) -> TensorMap:
    """The checkpoint in ``fh``, a file of ``size`` bytes, read front to back;
    ``seen`` is given each run of bytes in the order they were read."""
    if size < 8:
        raise FormatError("file shorter than the 8-byte header length")
    prefix = fh.read(8)
    (header_len,) = struct.unpack("<Q", prefix)
    if 8 + header_len > size:
        raise FormatError(
            f"declared header length {header_len} exceeds file size {size}"
        )
    raw_header = fh.read(header_len)
    try:
        header = json.loads(raw_header.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("header JSON must be an object")

    data_len = size - 8 - header_len
    metadata = header.pop("__metadata__", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise FormatError("__metadata__ must map strings to strings")

    layout: list[tuple[int, int, str, list[int], np.dtype]] = []
    for name, spec in header.items():
        if not isinstance(spec, dict):
            raise FormatError(f"entry '{name}' is not an object")
        missing = {"dtype", "shape", "data_offsets"} - spec.keys()
        if missing:
            raise FormatError(f"entry '{name}' is missing {sorted(missing)}")
        tag = spec["dtype"]
        if tag not in _DTYPE_TAGS:
            raise UnsupportedDtype(f"entry '{name}' declares dtype {tag!r}")
        shape = spec["shape"]
        # ``type(...) is int``: a JSON true or false parses to a bool, an int subclass.
        if (
            not isinstance(shape, list)
            or not shape
            or not all(type(d) is int and d >= 1 for d in shape)
        ):
            raise FormatError(f"entry '{name}' has invalid shape {shape!r}")
        offsets = spec["data_offsets"]
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(type(o) is int for o in offsets)
            or offsets[0] < 0
            or offsets[1] < offsets[0]
        ):
            raise FormatError(f"entry '{name}' has invalid offsets {offsets!r}")
        start, end = offsets
        dtype = _DTYPE_TAGS[tag]
        expected = int(np.prod(shape)) * dtype.itemsize
        if end - start != expected:
            raise FormatError(
                f"entry '{name}': offsets span {end - start} bytes but shape "
                f"{shape} at {tag} needs {expected}"
            )
        if end > data_len:
            raise TruncationError(
                f"entry '{name}' declares bytes up to {end} but the data "
                f"section holds only {data_len}"
            )
        layout.append((start, end, name, shape, dtype))
    layout.sort()
    cursor = 0
    for start, end, *_ in layout:
        if start != cursor:
            raise FormatError(
                f"tensor buffers overlap or leave a gap at byte {min(start, cursor)}"
            )
        cursor = end
    if cursor != data_len:
        raise FormatError(f"{data_len - cursor} bytes follow the last tensor buffer")

    # The buffers tile the data section, so they are read in one sweep.
    seen(prefix)
    seen(raw_header)
    entries: dict[str, np.ndarray] = {}
    for start, end, name, shape, dtype in layout:
        arr = np.empty(shape, dtype=dtype)
        view = memoryview(arr).cast("B")
        if fh.readinto(view) != end - start:
            raise TruncationError(f"entry '{name}': the file ended while it was read")
        seen(view)
        arr.flags.writeable = False
        entries[name] = arr
    return TensorMap(entries, metadata)


def validate_aligned(maps: list[TensorMap]) -> None:
    """Check that all checkpoints share one architecture.

    Succeeds iff every map has identical name sets, shapes, and dtypes.
    The first offending tensor (lexicographically) is named in the raised
    :class:`ArchitectureMismatch`. Requires at least two maps.
    """
    if len(maps) < 2:
        raise ValueError("validate_aligned needs at least two checkpoints")
    reference = maps[0]
    for other in maps[1:]:
        for name in sorted(set(reference.names()) | set(other.names())):
            if name not in other:
                raise ArchitectureMismatch(name, "missing from a checkpoint")
            if name not in reference:
                raise ArchitectureMismatch(name, "absent from the first checkpoint")
            a, b = reference[name], other[name]
            if a.shape != b.shape:
                raise ArchitectureMismatch(name, f"shape {a.shape} vs {b.shape}")
            if a.dtype != b.dtype:
                raise ArchitectureMismatch(name, f"dtype {a.dtype} vs {b.dtype}")
