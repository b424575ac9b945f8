"""Run one ``rankmerge`` CLI command with every layer's public functions traced.

Usage: ``python3 trace_cli.py <spans.json> <cli arguments...>``

Every function a layer module lists in ``__all__`` is wrapped in a span, and
every reference to it across the ``rankmerge.*`` namespaces (including
``from .x import f`` copies and default arguments) is replaced by the
wrapper, so calls between modules are caught without editing the package.
``numpy.linalg.svd`` is wrapped with counters only: calls, calls that form
singular vectors, seconds, distinct inputs by content hash, and an operation
count computed from the Golub & Van Loan flop model (not measured).

Spans stay in memory and are written, with the counters, to ``spans.json``
when the command ends. The exit status is the command's.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc

import numpy as np

from spans import LAYERS


class Recorder:
    """In-memory spans and counters of one command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.svd_inputs: set[bytes] = set()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, self.stack[-1] if self.stack else -1, 0.0, 0.0, False]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[4] = True
                raise
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()

        return traced


def _svd_flops(m: int, n: int, compute_uv: bool) -> float:
    """Golub & Van Loan operation counts for a thin SVD of an m x n matrix."""
    m, n = max(m, n), min(m, n)
    if compute_uv:
        return 6.0 * m * n * n + 20.0 * n**3
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def counted_svd(rec: Recorder, svd):
    @functools.wraps(svd)
    def counted(a, full_matrices=True, compute_uv=True, hermitian=False):
        arr = np.asarray(a)
        digest = hashlib.blake2b(
            f"{arr.dtype.str}{arr.shape}".encode() + np.ascontiguousarray(arr).tobytes(),
            digest_size=16,
        ).digest()
        start = time.perf_counter()
        result = svd(a, full_matrices=full_matrices, compute_uv=compute_uv, hermitian=hermitian)
        rec.add("kernels.svd_s", time.perf_counter() - start)
        m, n = arr.shape[-2:]
        batch = int(np.prod(arr.shape[:-2], dtype=np.int64))
        rec.add("kernels.svd_calls", 1)
        rec.add("kernels.svd_flops_computed", batch * _svd_flops(m, n, compute_uv))
        if compute_uv:
            rec.add("kernels.svd_uv_calls", 1)
            rec.add("kernels.triples_computed", batch * min(m, n))
        if digest not in rec.svd_inputs:
            rec.svd_inputs.add(digest)
            rec.add("kernels.svd_distinct_inputs", 1)
        return result

    return counted


def _path_arg(args, kwargs) -> str:
    return os.fspath(kwargs["path"] if "path" in kwargs else args[-1])


# What each counted function adds to the counters once it returns.
COUNT_AFTER = {
    "tensor_store.load_checkpoint": lambda rec, args, kwargs, result: rec.add(
        "tensor_store.bytes_read", os.path.getsize(_path_arg(args, kwargs))),
    "tensor_store.save_checkpoint": lambda rec, args, kwargs, result: rec.add(
        "tensor_store.bytes_written", os.path.getsize(_path_arg(args, kwargs))),
    "kernels.truncate": lambda rec, args, kwargs, result: rec.add(
        "kernels.triples_retained", result.k),
    "origin.rankmin_origin": lambda rec, args, kwargs, result: rec.add(
        "origin.rankmin_steps", len(result[1].records) - 1),
}


def with_counters(rec: Recorder, name: str, fn):
    """Outer wrappers that count what a call did, outside its span's timing."""
    if name == "merge.prune_ranks":
        @functools.wraps(fn)
        def peak_memory(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                key = "merge.prune_ranks_peak_bytes"
                rec.counters[key] = max(rec.counters.get(key, 0), peak)
        return peak_memory
    count = COUNT_AFTER.get(name)
    if count is None:
        return fn

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        count(rec, args, kwargs, result)
        return result
    return counted


def install(rec: Recorder) -> None:
    """Wrap every layer's public functions and rebind all references."""
    replacements: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"rankmerge.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                name = f"{layer}.{attr}"
                replacements[id(fn)] = (fn, with_counters(rec, name, rec.span(name, fn)))

    def swap(value):
        hit = replacements.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    functions = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "rankmerge" and not mod_name.startswith("rankmerge."):
            continue
        for attr, value in list(vars(module).items()):
            if swap(value) is not value:
                setattr(module, attr, swap(value))
            if inspect.isfunction(value):
                functions.append(value)
            elif inspect.isclass(value) and value.__module__ == mod_name:
                functions.extend(
                    getattr(m, "__func__", m)
                    for m in vars(value).values()
                    if inspect.isfunction(getattr(m, "__func__", m))
                )
    for fn in functions:
        if fn.__defaults__:
            fn.__defaults__ = tuple(swap(v) for v in fn.__defaults__)
        if fn.__kwdefaults__:
            fn.__kwdefaults__ = {k: swap(v) for k, v in fn.__kwdefaults__.items()}
    np.linalg.svd = counted_svd(rec, np.linalg.svd)


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import rankmerge.cli

    rec = Recorder()
    install(rec)
    try:
        status = rankmerge.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": rec.spans, "counters": rec.counters}, fh, separators=(",", ":"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
