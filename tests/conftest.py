"""Shared fixtures and the acceptance-criteria summary.

``record`` collects one verdict per numbered acceptance criterion;
``pytest_terminal_summary`` prints a PASS/FAIL line for each at the end of
the run so the gate is readable at a glance.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from rankmerge import TensorMap
from rankmerge.rng import stream

CRITERIA = {
    1: "centering identity: mean-origin merge is lambda-invariant (< 1e-9)",
    2: "endpoint collapse: ratio 0/1 = weight average; pretrained-origin ratio 0 = pretrained",
    3: "pruning residual equals tail singular-value energy (< 1e-8 relative, 200 matrices)",
    4: "mean origin is a stationary global minimum of the pairwise-overlap objective",
    5: "nuclear-norm origin solver: >= 10% descent and no |FIP| increase on 20 instances",
    6: "cross-task loss bound holds on 1000 suites; L matches brute force (1e-9 relative)",
    7: "centered deltas have lower interference than pretrained-origin deltas (>= 95% of cells)",
    8: "rank sweep is interior-peaked: best interior ratio beats both endpoints by >= 2pp",
    9: "reconstruction error: nonincreasing in k, zero at full rank, matches spectra",
    10: "entropy adaptation: exact gradients, entropy descent, signal task outranks noise task",
    11: "straight-through mask: hard forward, soft finite-difference-verified backward",
    12: "sample-size planner: (0, 1, 0.05, 1.96) -> 385 and scaling laws",
    13: "sweep and certify are byte-identical across reruns with the same seed",
}

_RESULTS: dict[int, bool] = {}


def record(num: int, ok: bool, detail: str = "") -> None:
    """Register the verdict for one acceptance criterion and assert it."""
    _RESULTS[num] = bool(ok)
    assert ok, f"criterion {num} failed ({CRITERIA[num]}) {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        if num in _RESULTS:
            verdict = "PASS" if _RESULTS[num] else "FAIL"
        else:
            verdict = "NOT RUN"
        terminalreporter.write_line(f"[{num:>2}] {verdict:<7} {CRITERIA[num]}")


@pytest.fixture
def rng() -> np.random.Generator:
    return stream(0, "tests")


def _count_calls(monkeypatch, name: str) -> list:
    calls: list = []
    real = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def svd_calls(monkeypatch) -> list:
    """Count calls to ``numpy.linalg.svd``; the list grows by one per call."""
    return _count_calls(monkeypatch, "svd")


@pytest.fixture
def eigh_calls(monkeypatch) -> list:
    """Count calls to ``numpy.linalg.eigh``, which factors a top-k SVD
    through the Gram matrix; the list grows by one per call."""
    return _count_calls(monkeypatch, "eigh")


@pytest.fixture
def blas_setting(monkeypatch):
    """``blas_setting(cpus, **variables)`` makes ``cpus`` CPUs usable and sets
    the BLAS thread variables given, clearing the others: the worker count of
    the pool that factors deltas follows from the two."""

    def arm(cpus: int, **variables: str) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS",
                    "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in variables.items():
            monkeypatch.setenv(var, value)

    return arm


@pytest.fixture
def blas_reported(monkeypatch):
    """``blas_reported(name)`` makes numpy report its BLAS as ``name``, or,
    given ``TypeError``, makes ``np.show_config(mode=...)`` raise it, as
    numpy 1.24 does."""

    def arm(name) -> None:
        def show_config(mode):
            if name is TypeError:
                raise TypeError("show_config() got an unexpected keyword argument 'mode'")
            return {"Build Dependencies": {"blas": {"name": name}}}

        monkeypatch.setattr(np, "show_config", show_config)

    return arm


class _FailsMidway:
    """A file that takes half of the first write and then fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def fail_writes_to(monkeypatch):
    """``fail_writes_to(name)`` makes every file that the container module
    opens for writing under a path containing ``name`` fail midway through
    its first write."""
    from rankmerge import tensor_store

    real_open = open

    def arm(name: str) -> None:
        def fake(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            return _FailsMidway(fh) if name in str(path) and "r" not in mode else fh

        monkeypatch.setattr(tensor_store, "open", fake, raising=False)

    return arm


def random_tensor_map(g: np.random.Generator, shapes: dict, dtype=np.float64, offset=0.0) -> TensorMap:
    return TensorMap(
        {name: (g.standard_normal(shape) + offset).astype(dtype) for name, shape in shapes.items()}
    )
