"""Deterministic benchmark inputs and an independent checkpoint reader/writer.

Everything here is the benchmark's own code: it never imports ``rankmerge``,
so a defect in the program cannot leak into the inputs or into the reference
values the output checks compare against.

Checkpoints follow the container format the README documents: an 8-byte
little-endian header length, a JSON header mapping each tensor name to its
dtype, shape and data offsets, then the raw little-endian buffers in
lexicographic name order.

Fine-tuned checkpoints are the pretrained weights plus a planted task delta
per matrix layer: a rank-``R`` signal ``U diag(s) V^T`` whose singular values
decay geometrically, plus small dense noise. Real fine-tuning deltas have
that shape of spectrum (a few strong directions, a long weak tail), and the
geometric decay keeps neighbouring singular values apart, so a rank-k
truncation is well defined and the output checks can recompute it exactly.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

_TAGS = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}

# One transformer block at ViT-B width: four attention projections and the
# two MLP matrices, plus their biases and the two layer norms.
VIT_B_BLOCK = {
    "blocks.0.attn.q.weight": (768, 768),
    "blocks.0.attn.k.weight": (768, 768),
    "blocks.0.attn.v.weight": (768, 768),
    "blocks.0.attn.proj.weight": (768, 768),
    "blocks.0.mlp.fc1.weight": (3072, 768),
    "blocks.0.mlp.fc2.weight": (768, 3072),
    "blocks.0.attn.q.bias": (768,),
    "blocks.0.attn.k.bias": (768,),
    "blocks.0.attn.v.bias": (768,),
    "blocks.0.attn.proj.bias": (768,),
    "blocks.0.mlp.fc1.bias": (3072,),
    "blocks.0.mlp.fc2.bias": (768,),
    "blocks.0.norm1.weight": (768,),
    "blocks.0.norm1.bias": (768,),
    "blocks.0.norm2.weight": (768,),
    "blocks.0.norm2.bias": (768,),
}

# Small layers for the full I(k)/R(k) curves: two square, one non-square.
CURVE_LAYERS = {
    "layer.0.weight": (128, 128),
    "layer.1.weight": (128, 128),
    "head.weight": (192, 64),
    "head.bias": (192,),
}

# Small checkpoints for the rank-minimizing origin solver.
RANKMIN_LAYERS = {
    "enc.weight": (256, 64),
    "dec.weight": (64, 64),
    "enc.bias": (256,),
}


def write_checkpoint(path: Path, tensors: dict[str, np.ndarray]) -> None:
    """Write ``tensors`` in the container format, byte-deterministically."""
    header: dict[str, object] = {}
    buffers = []
    offset = 0
    for name in sorted(tensors):
        arr = tensors[name]
        tag = {"f4": "F32", "f8": "F64"}[arr.dtype.str.lstrip("<>=|")]
        raw = np.ascontiguousarray(arr, dtype=_TAGS[tag]).tobytes()
        header[name] = {"dtype": tag, "shape": list(arr.shape),
                        "data_offsets": [offset, offset + len(raw)]}
        offset += len(raw)
        buffers.append(raw)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(head)))
        fh.write(head)
        for raw in buffers:
            fh.write(raw)


def read_checkpoint(path: Path) -> dict[str, np.ndarray]:
    """Read a container file into name -> array (copies, in file dtype)."""
    blob = Path(path).read_bytes()
    (head_len,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8:8 + head_len].decode("utf-8"))
    header.pop("__metadata__", None)
    data = memoryview(blob)[8 + head_len:]
    out = {}
    for name, spec in header.items():
        start, end = spec["data_offsets"]
        arr = np.frombuffer(data[start:end], dtype=_TAGS[spec["dtype"]])
        out[name] = arr.reshape(spec["shape"]).copy()
    return out


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))[None, :]


def planted_checkpoints(
    seed: int,
    purpose: str,
    layers: dict[str, tuple[int, ...]],
    tasks: int,
    dtype: str,
    rank: int,
    decay: float,
) -> tuple[dict[str, np.ndarray], list[dict[str, np.ndarray]]]:
    """A pretrained checkpoint and ``tasks`` fine-tuned ones with planted deltas.

    Each matrix layer of task t gets ``U_t diag(s) V_t^T`` with
    ``s_i = decay**i`` for ``i < min(rank, m, n)``, plus i.i.d. Gaussian
    noise of scale 1e-4. Vectors get a small dense shift. The
    stream is keyed by ``(seed, purpose)``, so one seed gives the same bytes
    every time and distinct purposes draw independently.
    """
    key = int.from_bytes(hashlib.blake2b(f"{seed}:{purpose}".encode(), digest_size=8).digest(), "little")
    rng = np.random.default_rng(key)
    pretrained = {
        name: 0.02 * rng.standard_normal(shape) for name, shape in sorted(layers.items())
    }
    finetuned = []
    for _ in range(tasks):
        entries = {}
        for name, shape in sorted(layers.items()):
            base = pretrained[name]
            if len(shape) == 2:
                m, n = shape
                r = min(rank, m, n)
                s = decay ** np.arange(r)
                left = _orthonormal(rng, m, r)
                right = _orthonormal(rng, n, r)
                delta = (left * s[None, :]) @ right.T + 1e-4 * rng.standard_normal(shape)
            else:
                delta = 0.01 * rng.standard_normal(shape)
            entries[name] = (base + delta).astype(dtype)
        finetuned.append(entries)
    pretrained = {name: arr.astype(dtype) for name, arr in pretrained.items()}
    return pretrained, finetuned


def write_set(
    directory: Path,
    pretrained: dict[str, np.ndarray],
    finetuned: list[dict[str, np.ndarray]],
) -> tuple[Path, list[Path]]:
    """Write ``pre.ckpt`` and ``task<i>.ckpt``; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    pre = directory / "pre.ckpt"
    write_checkpoint(pre, pretrained)
    paths = []
    for i, entries in enumerate(finetuned):
        path = directory / f"task{i}.ckpt"
        write_checkpoint(path, entries)
        paths.append(path)
    return pre, paths
