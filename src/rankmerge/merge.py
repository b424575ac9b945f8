r"""Merge engine: task vectors, rank pruning, and checkpoint assembly.

The pipeline is ``build_task_vectors`` (deltas against a chosen origin,
factored to a rank budget or in full), ``prune_ranks`` (per-layer rank
truncation of full factors), then ``merge`` (origin plus a
coefficient-weighted sum of deltas). ``cart_merge`` streams them around a
given origin with one global coefficient; around the weight average it is

.. math::
    \bar{A}_k(\lambda)
    = \theta_{\text{avg}}^l
    + \lambda \sum_t \mathrm{SVD}_k(\theta_t^l - \theta_{\text{avg}}^l).

The origin is the merged model at coefficient zero: Matrix parameters add
coefficient-weighted deltas to it, and every other tensor is the origin's.
Each Matrix delta is stored as its thin SVD, computed once: in full, so
pruning can slice it at any rank, or only the triples a rank budget keeps.
A layer's T factors are one stack, ``(T, ...)`` along every axis.
Merging reconstructs from it. The SVDs are independent, so they run on
:mod:`~rankmerge.pool`'s threads, one per core that BLAS leaves free;
``cart_merge`` assembles each layer there too, once its T deltas are factored.
All arithmetic is float64; each output tensor takes the origin's dtype.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NumericError, PlanError
from .kernels import LowRankFactor, reconstruct, svd, truncate
from .origin import select_origin
from .pool import run_jobs
from .tensor_store import Classifier, TensorMap, classify, validate_aligned

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
    """An origin, the merged model at coefficient zero, plus per-layer,
    per-task deviations.

    ``deltas[name]`` holds the ``task_count`` deviations on Matrix layer
    ``name`` as one stacked float64 thin SVD, and ``deltas[name][t]`` is
    task ``t``'s: all ``min(m, n)`` triples after
    :func:`build_task_vectors` without a ``rank_ratio``, and the leading
    ``k = prune_rank(rank_ratio, m, n)`` after it with one, or after
    :func:`prune_ranks`. Non-matrix parameters carry no deltas; they merge
    to their origin value.
    """

    origin: TensorMap
    deltas: dict[str, LowRankFactor]
    task_count: int

    def matrix_names(self) -> list[str]:
        """Matrix layer names, sorted: the column order of coefficient arrays."""
        return sorted(self.deltas)


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

    Each layer's stack is allocated first. The deltas are then factored on
    :func:`~rankmerge.pool.run_jobs`'s threads, one job per (layer, task),
    largest matrices first, each writing its task's slot. Every factor, and
    any error raised, is the same whatever the number of workers.
    """
    tvs, jobs, factor = _factoring(origin, finetuned, classifier, rank_ratio)
    run_jobs(jobs, factor)
    return tvs


def _factoring(origin: TensorMap, finetuned: list[TensorMap], classifier: Classifier,
               rank_ratio: float | None) -> tuple:
    """:func:`build_task_vectors`' checks, then its set with empty stacks, its
    ``(layer, task)`` jobs, largest layers first, and the work of one job."""
    if rank_ratio is not None:
        _check_ratio(rank_ratio)
    if not finetuned:
        raise EmptyInput("build_task_vectors needs at least one checkpoint")
    validate_aligned([origin, *finetuned])

    tasks = len(finetuned)
    deltas: dict[str, LowRankFactor] = {}
    for name, arr in origin.items():
        if classifier(name, arr):
            m, n = arr.shape
            k = min(m, n) if rank_ratio is None else prune_rank(rank_ratio, m, n)
            deltas[name] = LowRankFactor(
                left=np.empty((tasks, m, k)), singulars=np.empty((tasks, k)),
                right=np.empty((tasks, k, n)),
            )
        elif not np.all(np.isfinite(arr)):
            raise NumericError(f"{name}: the origin holds NaN or infinite values")
    tvs = TaskVectorSet(origin=origin, deltas=deltas, task_count=tasks)

    def factor(job: tuple[str, int]) -> None:
        name, t = job
        delta = np.subtract(finetuned[t][name], origin[name], dtype=np.float64)
        out = deltas[name]
        try:
            f = svd(delta, out.k)
        except NumericError as exc:
            raise NumericError(
                f"{name}: task {t}'s deviation from the origin holds NaN or infinite values"
            ) from exc
        out.left[t], out.singulars[t], out.right[t] = f.left, f.singulars, f.right

    jobs = [(name, t) for name in deltas for t in range(tasks)]
    return tvs, sorted(jobs, key=lambda job: origin[job[0]].size, reverse=True), factor


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
    pruned = {
        name: truncate(f, min(f.k, prune_rank(rank_ratio, *f.shape)))
        for name, f in tvs.deltas.items()
    }
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
    is the origin's. Each output tensor takes the origin's dtype; a merged
    layer that is not finite in it raises :class:`NumericError` naming it.
    """
    coefficients = _coefficients(tvs, lam)
    entries = dict(tvs.origin.items())
    for l, name in enumerate(tvs.matrix_names()):
        entries[name] = _assemble(name, tvs.origin[name], tvs.deltas[name], coefficients[:, l])
    return TensorMap(entries)


def _assemble(name: str, origin: np.ndarray, deltas: LowRankFactor,
              coefficients: np.ndarray) -> np.ndarray:
    """Merged layer ``name``: ``origin`` plus each nonzero coefficient times its
    task's delta from the stack ``deltas``, in task order, in ``origin``'s dtype."""
    acc = origin.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below, in the output dtype
        for t, c in enumerate(coefficients):
            if c != 0.0:
                r = reconstruct(deltas[t])
                acc += np.multiply(r, c, out=r)
        out = acc.astype(origin.dtype, copy=False)
    if not np.all(np.isfinite(out)):
        raise NumericError(f"{name}: the merged layer is not finite in {out.dtype}")
    out.flags.writeable = False  # fresh: TensorMap stores it without a copy
    return out


def weight_average(finetuned: list[TensorMap]) -> TensorMap:
    """Elementwise mean of the checkpoints, cast back to their dtype.

    :func:`select_origin` of kind ``"mean"`` with the first checkpoint
    standing in for the pretrained one.
    """
    if not finetuned:
        raise EmptyInput("weight_average needs at least one checkpoint")
    return select_origin("mean", finetuned[0], finetuned)


def cart_merge(
    origin: TensorMap,
    finetuned: list[TensorMap],
    rank_ratio: float,
    lam: float,
    classifier: Classifier = classify,
) -> TensorMap:
    """``merge(build_task_vectors(origin, finetuned, classifier, rank_ratio), lam)``
    bit for bit, with its errors, for any worker count; CART's origin is the
    mean, :func:`weight_average`. The job that stores a layer's last factor
    assembles that layer and drops its stack; a layer that is not finite is
    raised after the last job. ``lam`` is checked before any factoring."""
    tvs, jobs, factor = _factoring(origin, finetuned, classifier, rank_ratio)
    columns = dict(zip(tvs.matrix_names(), _coefficients(tvs, lam).T))
    countdown = {name: list(range(tvs.task_count)) for name in tvs.deltas}
    entries = dict(origin.items())
    failures: dict[str, NumericError] = {}

    def factor_then_assemble(job: tuple[str, int]) -> None:
        factor(job)
        name = job[0]
        if countdown[name].pop() == 0:  # list.pop is atomic: one job, the last, draws 0
            try:
                entries[name] = _assemble(name, origin[name], tvs.deltas.pop(name), columns[name])
            except NumericError as exc:
                failures[name] = exc

    run_jobs(jobs, factor_then_assemble)
    if failures:
        raise failures[min(failures)]  # matrix_names() is sorted
    return TensorMap(entries)


def cart_indexing(
    origin: TensorMap,
    finetuned: list[TensorMap],
    rank_ratio: float,
    task_index: int,
    classifier: Classifier = classify,
) -> TensorMap:
    """Per-task reconstruction: ``origin`` plus one task's pruned delta.

    Around the mean origin, at ratio 1 this returns task ``task_index``'s
    Matrix parameters exactly (up to floating error), and at ratio 0 the
    weight average. Non-matrix parameters are the origin's either way. Only
    the requested task's deltas are factored.
    """
    if not finetuned:
        raise EmptyInput("cart_indexing needs at least one checkpoint")
    if not 0 <= task_index < len(finetuned):
        raise IndexError(f"task_index {task_index} outside [0, {len(finetuned)})")
    return cart_merge(origin, [finetuned[task_index]], rank_ratio, 1.0, classifier)


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
