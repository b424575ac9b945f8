r"""Merge engine: task vectors, rank pruning, and checkpoint assembly.

The pipeline is ``build_task_vectors`` (deltas against a chosen origin,
factored to a rank budget or in full), ``prune_ranks`` (per-layer rank
truncation of full factors), then ``merge`` (origin plus a
coefficient-weighted sum of deltas). ``cart_merge`` composes them with the
weight-average origin and a global coefficient:

.. math::
    \bar{A}_k(\lambda)
    = \theta_{\text{avg}}^l
    + \lambda \sum_t \mathrm{SVD}_k(\theta_t^l - \theta_{\text{avg}}^l).

The origin is the merged model at coefficient zero: Matrix parameters add
coefficient-weighted deltas to it, and every other tensor is the origin's.
Each Matrix delta is stored as its thin SVD, computed once: in full, so
pruning can slice it at any rank, or only the triples a rank budget keeps.
Merging reconstructs from it. The SVDs are independent, so they run on a
pool of threads, one per core that BLAS leaves free. All internal
arithmetic is float64; each output tensor takes the origin's dtype.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NumericError, PlanError
from .kernels import LowRankFactor, reconstruct, svd, truncate
from .origin import select_origin
from .tensor_store import Classifier, ParamClass, TensorMap, classify, validate_aligned

__all__ = [
    "TaskVectorSet",
    "build_task_vectors",
    "prune_ranks",
    "prune_rank",
    "merge",
    "cart_merge",
    "cart_indexing",
    "storage_cost",
    "weight_average",
]

@dataclass
class TaskVectorSet:
    """An origin, the merged model at coefficient zero, plus per-task,
    per-layer deviations.

    ``deltas[t][name]`` holds task ``t``'s deviation on Matrix layer
    ``name`` as its float64 thin SVD: all ``min(m, n)`` triples after
    :func:`build_task_vectors` without a ``rank_ratio``, and the leading
    ``k = prune_rank(rank_ratio, m, n)`` after it with one, or after
    :func:`prune_ranks`. Non-matrix parameters carry no deltas; they merge
    to their origin value.
    """

    origin: TensorMap
    deltas: list[dict[str, LowRankFactor]]

    @property
    def task_count(self) -> int:
        return len(self.deltas)

    def matrix_names(self) -> list[str]:
        """Matrix layer names, sorted: the column order of coefficient arrays."""
        return sorted(self.deltas[0]) if self.deltas else []


def build_task_vectors(
    origin: TensorMap,
    finetuned: list[TensorMap],
    classifier: Classifier = classify,
    rank_ratio: float | None = None,
) -> TaskVectorSet:
    """Factor each task's float64 deviation from ``origin`` on every Matrix layer.

    Without ``rank_ratio`` each delta keeps its full thin SVD, as
    ``analyze`` and :func:`prune_ranks` need. With it, each m x n delta keeps
    only its leading ``prune_rank(rank_ratio, m, n)`` triples, the same
    factor :func:`prune_ranks` would slice, computed by
    :func:`~rankmerge.kernels.svd` without the triples it would drop. A
    ratio outside [0, 1] raises ``ValueError`` before any work.

    ``origin`` is the merged model at coefficient zero, usually
    :func:`~rankmerge.origin.select_origin`'s. It must name the same tensors
    as the checkpoints, with the same shapes and dtypes, or
    :class:`ArchitectureMismatch` is raised. Non-matrix parameters merge to
    the origin's values, so only the origin's are read; a NaN or infinity in
    one of them, or in a Matrix delta, raises :class:`NumericError` naming
    the tensor (and the task, for a delta).

    The deltas are factored on :func:`_factor_workers` threads. Every factor,
    and any error raised, is the same whatever the number of workers.
    """
    if rank_ratio is not None:
        _check_ratio(rank_ratio)
    if not finetuned:
        raise EmptyInput("build_task_vectors needs at least one checkpoint")
    validate_aligned([origin, *finetuned])

    jobs: list[tuple[str, int]] = []
    for name, arr in origin.items():
        if classifier(name, arr) is ParamClass.MATRIX:
            jobs += [(name, t) for t in range(len(finetuned))]
        elif not np.all(np.isfinite(arr)):
            raise NumericError(f"{name}: the origin holds NaN or infinite values")
    factors = _factor_deltas(origin, finetuned, jobs, rank_ratio)
    deltas: list[dict[str, LowRankFactor]] = [{} for _ in finetuned]
    for name, t in jobs:
        deltas[t][name] = factors[name, t]
    return TaskVectorSet(origin=origin, deltas=deltas)


# Per-call thread variables of each BLAS that numpy may be built on, keyed
# by a part of its build name, each in the order that library reads them.
_BLAS_THREAD_VARS = {
    "openblas": ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
    "mkl": ("MKL_NUM_THREADS", "OMP_NUM_THREADS"),
}


def _blas_name() -> str:
    """Lower-cased name of the BLAS numpy was built on; empty where numpy
    does not report it, as in 1.24, whose ``show_config`` takes no ``mode``."""
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]).lower()
    except (TypeError, KeyError):
        return ""


def _factor_workers() -> int:
    """Threads that factor deltas at once: usable CPUs over BLAS threads per call.

    BLAS threads per call is read from the variables of the BLAS numpy
    reports (:func:`_blas_name`): OpenBLAS's when its name contains
    ``openblas``, MKL's when it contains ``mkl``. For any other name, or none,
    it is the larger of the OpenBLAS and the MKL reading, so a variable that
    only the other library reads cannot start the pool. Each library takes
    the first of its variables that is set; none set, or a value that is not
    a positive integer, counts as every usable CPU: BLAS may then spread
    each call over every core, and a second worker beside it only competes
    for them.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1

    def threads(variables: tuple[str, ...]) -> int:
        setting = next((os.environ[var] for var in variables if var in os.environ), "")
        try:
            value = int(setting)
        except ValueError:
            return cpus
        return value if value >= 1 else cpus

    name = _blas_name()
    libraries = [lib for lib in _BLAS_THREAD_VARS if lib in name] or list(_BLAS_THREAD_VARS)
    return max(1, cpus // max(threads(_BLAS_THREAD_VARS[lib]) for lib in libraries))


def _factor_deltas(
    origin: TensorMap,
    finetuned: list[TensorMap],
    jobs: list[tuple[str, int]],
    rank_ratio: float | None,
) -> dict[tuple[str, int], LowRankFactor]:
    """SVD of ``finetuned[t][name] - origin[name]`` for each ``(name, t)`` job,
    cut to ``prune_rank(rank_ratio, m, n)`` triples when a ratio is given.

    numpy's LAPACK calls release the GIL, so :func:`_factor_workers` threads
    take jobs from one queue and factor side by side. The calling thread is
    one of them: a thread of its own would add an allocator arena, and with
    it peak memory. The largest matrices go first: the jobs that overlap
    last, while every other factor is held, are then the smallest, and peak
    memory stays near that of one job at a time. After a job fails no
    further job starts, and the first failure in queue order is raised;
    every job before it was started and runs to its end, so it is the same
    failure for any number of workers.
    """

    def factor(name: str, t: int) -> LowRankFactor:
        delta = np.subtract(finetuned[t][name], origin[name], dtype=np.float64)
        k = None if rank_ratio is None else prune_rank(rank_ratio, *delta.shape)
        try:
            return svd(delta, k)
        except NumericError as exc:
            raise NumericError(
                f"{name}: task {t}'s deviation from the origin holds NaN or infinite values"
            ) from exc

    queue = enumerate(sorted(jobs, key=lambda job: origin[job[0]].size, reverse=True))
    lock, stop = threading.Lock(), threading.Event()
    factors: dict[tuple[str, int], LowRankFactor] = {}
    failures: dict[int, Exception] = {}

    def work() -> None:
        while not stop.is_set():
            with lock:
                position, job = next(queue, (None, None))
            if job is None:
                return
            try:
                factors[job] = factor(*job)
            except Exception as exc:
                failures[position] = exc
                stop.set()

    helpers = [threading.Thread(target=work) for _ in range(min(_factor_workers(), len(jobs)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        stop.set()  # an interrupt of this thread stops the helpers after their current job
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return factors


def prune_rank(rank_ratio: float, m: int, n: int) -> int:
    """Retained rank ``k = ceil(rank_ratio * min(m, n))``.

    Rank is measured against the ambient full rank min(m, n), which is
    reproducible, rather than a tolerance-dependent numerical rank. The
    product is rounded to 9 decimals before the ceiling so that binary
    float artifacts (e.g. 0.1 * 120 = 12.000000000000002) cannot inflate k.
    """
    _check_ratio(rank_ratio)
    full = min(m, n)
    return min(full, math.ceil(round(rank_ratio * full, 9)))


def _check_ratio(rank_ratio: float) -> None:
    if not 0.0 <= rank_ratio <= 1.0:
        raise ValueError(f"rank_ratio must lie in [0, 1], got {rank_ratio}")


def prune_ranks(tvs: TaskVectorSet, rank_ratio: float) -> TaskVectorSet:
    """Replace every Matrix delta with its best rank-k approximation.

    Slices the stored factors (a pruned set keeps at most what it holds).
    Ratio 1 keeps the full SVD (lossless up to floating error); ratio 0
    zeroes every delta. A ratio outside [0, 1] raises ``ValueError`` even
    when there is no Matrix layer to prune.
    """
    _check_ratio(rank_ratio)
    pruned = [
        {
            name: truncate(f, min(f.k, prune_rank(rank_ratio, *f.shape)))
            for name, f in per_task.items()
        }
        for per_task in tvs.deltas
    ]
    return dataclasses.replace(tvs, deltas=pruned)


def _coefficients(tvs: TaskVectorSet, lam: float | np.ndarray) -> np.ndarray:
    """``lam`` as a ``(task_count, len(matrix_names()))`` array: a float
    fills it, an array must have exactly that shape, and all are finite."""
    shape = (tvs.task_count, len(tvs.matrix_names()))
    values = np.asarray(lam, dtype=np.float64)
    if values.shape not in ((), shape):
        raise PlanError(
            f"coefficients have shape {values.shape}; need a float or shape {shape}, "
            "one row per task and one column per Matrix layer"
        )
    if not np.all(np.isfinite(values)):
        raise PlanError(f"coefficients must be finite, got {lam}")
    return np.broadcast_to(values, shape)


def merge(tvs: TaskVectorSet, lam: float | np.ndarray) -> TensorMap:
    r"""Assemble :math:`\theta_*^l = \text{origin}^l + \sum_t \lambda_t^l \delta_t^l`.

    ``lam`` is one global coefficient or an array of exactly shape
    ``(task_count, len(matrix_names()))``, whose columns follow
    :meth:`TaskVectorSet.matrix_names`. Any other shape, or a NaN or
    infinite coefficient, raises :class:`PlanError` before anything is
    assembled. Matrix layers add each delta, reconstructed from its factor,
    with its coefficient (zero coefficients are skipped); every other tensor
    is the origin's. Each output tensor takes the origin's dtype.
    """
    coefficients = _coefficients(tvs, lam)
    entries = dict(tvs.origin.items())
    for l, name in enumerate(tvs.matrix_names()):
        acc = tvs.origin[name].astype(np.float64)
        for t, per_task in enumerate(tvs.deltas):
            if coefficients[t, l] != 0.0:
                acc += coefficients[t, l] * reconstruct(per_task[name])
        entries[name] = acc.astype(tvs.origin[name].dtype)
    return TensorMap(entries)


def weight_average(finetuned: list[TensorMap]) -> TensorMap:
    """Elementwise mean of the checkpoints, cast back to their dtype.

    :func:`select_origin` of kind ``"mean"`` with the first checkpoint
    standing in for the pretrained one.
    """
    if not finetuned:
        raise EmptyInput("weight_average needs at least one checkpoint")
    return select_origin("mean", finetuned[0], finetuned)


def cart_merge(
    pretrained: TensorMap,
    finetuned: list[TensorMap],
    rank_ratio: float,
    lam: float,
    classifier: Classifier = classify,
) -> TensorMap:
    """Centered arithmetic with rank-reduced task vectors, in one call.

    Composes the mean origin, deltas factored to the retained rank, and a
    global-coefficient merge. ``pretrained`` participates only in alignment
    validation; the centered pipeline never reads it.
    """
    origin = select_origin("mean", pretrained, finetuned)
    return merge(build_task_vectors(origin, finetuned, classifier, rank_ratio=rank_ratio), lam)


def cart_indexing(
    pretrained: TensorMap,
    finetuned: list[TensorMap],
    rank_ratio: float,
    task_index: int,
    classifier: Classifier = classify,
) -> TensorMap:
    """Per-task reconstruction: weight-average origin plus one task's pruned delta.

    At ratio 1 this returns task ``task_index``'s Matrix parameters exactly
    (up to floating error); at ratio 0 it collapses to the weight average.
    Non-matrix parameters are the weight average's either way. Only the
    requested task's deltas are factored.
    """
    if not finetuned:
        raise EmptyInput("cart_indexing needs at least one checkpoint")
    if not 0 <= task_index < len(finetuned):
        raise IndexError(
            f"task_index {task_index} outside [0, {len(finetuned)})"
        )
    origin = select_origin("mean", pretrained, finetuned)
    tvs = build_task_vectors(origin, [finetuned[task_index]], classifier, rank_ratio=rank_ratio)
    return merge(tvs, 1.0)


def storage_cost(
    T: int,
    layer_dims: list[tuple[int, int]],
    rank_ratio: float,
    float_bits: int,
) -> tuple[int, int]:
    """Bits needed to index T per-task models: binary masks vs low-rank factors.

    ``mask_bits`` charges one bit per matrix entry per task. ``lowrank_bits``
    charges ``float_bits`` per stored factor entry: (m + n) * k for the
    singular-vector blocks plus k for the singular values themselves — the
    sigma vector is billed explicitly rather than folded into a 2Mk
    approximation.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if float_bits < 1:
        raise ValueError("float_bits must be >= 1")
    mask_bits = 0
    lowrank_bits = 0
    for m, n in layer_dims:
        if m < 1 or n < 1:
            raise ValueError(f"layer dims must be positive, got ({m}, {n})")
        k = prune_rank(rank_ratio, m, n)
        mask_bits += m * n
        lowrank_bits += (m + n) * k + k
    return T * mask_bits, float_bits * T * lowrank_bits
