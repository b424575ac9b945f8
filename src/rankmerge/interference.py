r"""Diagnostics for task-vector overlap and rank sweeps.

Two diagnostics drive the analysis:

* row-space interference
  :math:`I(k) = \sum_i \sum_{j \ne i}
  \|\tilde{\Sigma}_i \tilde{V}_i^\top \tilde{V}_j \tilde{\Sigma}_j\|_F`,
  where :math:`\tilde{V}_t` holds the top-k right singular vectors of task
  t's delta and :math:`\tilde{\Sigma}_t` its top-k singular values divided
  by the l2 norm of the **full** singular-value vector (equivalently the
  Frobenius norm of the delta). The sum runs over ordered pairs, so two
  tasks contribute twice; normalization makes I invariant to rescaling any
  single delta.

* reconstruction error
  :math:`R(k) = \sum_t \|\delta_t - \mathrm{SVD}_k(\delta_t)\|_F^2`,
  which equals the tail singular-value energy
  :math:`\sum_t \sum_{i>k} \sigma_{t,i}^2`.

Both, and the spectra, come only from ``interference_report``, which reads
the factors ``build_task_vectors`` stored: one SVD per (task, layer), so
``analyze`` factors each delta once however many k it reports.

``rank_sweep`` drives a (ratio, lambda) grid through the merge pipeline and
an accuracy evaluator; ``sample_size`` is the Popoviciu/CLT planning
formula for how many evaluation samples an accuracy estimate needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptyInput,
    EvaluationError,
    InsufficientTasks,
    PlanError,
    RangeError,
    RankError,
    ZeroTaskVector,
)
from .merge import TaskVectorSet, _check_ratio, build_task_vectors, merge, prune_ranks
from .tensor_store import TensorMap, _write_csv, _write_json

__all__ = [
    "InterferenceReport",
    "SweepRow",
    "interference_report",
    "rank_sweep",
    "write_sweep_csv",
    "sample_size",
]


# Task pairs whose k x k overlaps are formed at once hold at most this many
# entries together (128 KiB): all pairs of many small layers in one product,
# one pair at a time from 128 wide up.
_PAIR_BLOCK = 1 << 14


def _interference(singulars: np.ndarray, rights: np.ndarray, ks: Sequence[int]) -> np.ndarray:
    """I(k) for each of ``ks`` from one layer's factors, stacked: ``(T, k)``
    singular values and ``(T, k, n)`` right factors, or a stack of such
    layers with leading axes, each read at every ``ks``; returns shape
    ``(..., len(ks))``.

    Each pair's weighted overlap is built once and every k x k block norm
    read from its 2-D prefix sums; (j, i) is the transpose of (i, j), so
    pairs count twice. The pairs (i, j), i < j, are summed in row-major
    order.
    """
    tasks = singulars.shape[-2]
    if not ks:
        return np.zeros((*singulars.shape[:-2], 0))
    if tasks < 2:
        raise InsufficientTasks("interference is defined over task pairs")
    norms = np.sqrt((singulars[..., None, :] @ singulars[..., :, None])[..., 0, 0])
    zero = np.argwhere(norms == 0.0)
    if zero.size:
        raise ZeroTaskVector(f"delta {zero[0, -1]} is identically zero")
    weighted = (singulars / norms[..., None])[..., None] * rights

    k = weighted.shape[-2]
    reads = np.minimum(ks, k)
    first, second = np.triu_indices(tasks, 1)
    layers = singulars[..., 0, 0].size
    per_block = max(1, _PAIR_BLOCK // max(layers * k * k, 1))
    parts = []
    for start in range(0, len(first), per_block):
        i, j = first[start:start + per_block], second[start:start + per_block]
        overlap = weighted[..., i, :, :] @ np.swapaxes(weighted[..., j, :, :], -1, -2)
        energy = np.zeros((*overlap.shape[:-2], k + 1, k + 1))
        energy[..., 1:, 1:] = np.cumsum(np.cumsum(overlap**2, axis=-2), axis=-1)
        parts.append(2.0 * np.sqrt(energy[..., reads, reads]))
    return np.cumsum(np.concatenate(parts, axis=-2), axis=-2)[..., -1, :]


# The two definitional choices that differ across writeups, recorded in
# every serialized report: ordered-pair summation and full-spectrum
# normalization.
_CONVENTIONS = {
    "pair_summation": "ordered pairs i != j (each unordered pair counted twice)",
    "sigma_normalization": "top-k singular values divided by the l2 norm of the full spectrum",
}


@dataclass
class InterferenceReport:
    """Per-layer I(k) and R(k) curves plus per-(task, layer) spectra.

    ``interference[layer]`` and ``reconstruction[layer]`` are (k, value)
    lists; ``spectra[layer][task]`` is that delta's singular values.
    """

    interference: dict[str, list[tuple[int, float]]]
    reconstruction: dict[str, list[tuple[int, float]]]
    spectra: dict[str, list[list[float]]]

    def to_json(self) -> dict:
        return {
            "conventions": _CONVENTIONS,
            "layers": {
                name: {
                    "interference": [[k, v] for k, v in self.interference[name]],
                    "reconstruction": [[k, v] for k, v in self.reconstruction[name]],
                    "spectra": self.spectra[name],
                }
                for name in sorted(self.interference)
            },
        }

    def write_json(self, path: str | Path) -> str:
        """Write :meth:`to_json`, atomically; return its SHA-256."""
        return _write_json(path, self.to_json())

    def write_csv(self, path: str | Path) -> str:
        """Columns: layer, quantity (I or R), k, value. Written atomically; returns its SHA-256."""
        rows: list[list[object]] = [["layer", "quantity", "k", "value"]]
        for name in sorted(self.interference):
            rows += [[name, "I", k, repr(v)] for k, v in self.interference[name]]
            rows += [[name, "R", k, repr(v)] for k, v in self.reconstruction[name]]
        return _write_csv(path, rows)


def _check_ks(shapes: dict[str, tuple[int, int]], task_count: int,
              ks: Sequence[int] | None) -> None:
    """:func:`interference_report`'s checks, from the Matrix layers' shapes alone:
    :class:`RankError` for a k outside a layer's ``[0, min(m, n)]``, and
    :class:`InsufficientTasks` for one task and some k >= 1 (``None`` is every
    k), naming the first bad layer in name order."""
    for name in sorted(shapes):
        full = min(shapes[name])
        for k in [] if ks is None else ks:
            if not 0 <= k <= full:
                raise RankError(f"{name}: k={k} outside [0, {full}]")
        if task_count < 2 and (ks is None or max(ks, default=0) >= 1):
            raise InsufficientTasks(f"{name}: interference is defined over task pairs")


def interference_report(
    tvs: TaskVectorSet, ks: Sequence[int] | None = None
) -> InterferenceReport:
    """Compute I(k), R(k), and spectra for every Matrix layer of ``tvs``.

    ``ks`` defaults to every k from 1 to the layer's full rank for I and
    from 0 for R, and ``k = 0`` reports R only; :func:`_check_ks` checks them
    first. All are read from the stored factors, whose spectra are
    zero-padded to full rank for a pruned set; R uses the tail-energy
    identity, one reverse cumulative sum of squares per factor.
    """
    _check_ks({name: f.shape for name, f in tvs.deltas.items()}, tvs.task_count, ks)
    interference: dict[str, list[tuple[int, float]]] = {}
    recon: dict[str, list[tuple[int, float]]] = {}
    spectra: dict[str, list[list[float]]] = {}
    for name in tvs.matrix_names():
        f = tvs.deltas[name]
        full = min(f.shape)
        r_ks = list(ks) if ks is not None else list(range(0, full + 1))
        i_ks = [k for k in r_ks if k >= 1]
        layer_spectra = np.pad(f.singulars, ((0, 0), (0, full - f.k)))
        spectra[name] = layer_spectra.tolist()
        curve = _interference(f.singulars, f.right, i_ks)
        interference[name] = list(zip(i_ks, curve.tolist()))
        # tails[t, k] = sum of s[t, i]**2 over i >= k, summed from the smallest term up.
        tails = np.zeros((tvs.task_count, full + 1))
        tails[:, :full] = np.cumsum(layer_spectra[:, ::-1] ** 2, axis=1)[:, ::-1]
        totals = np.cumsum(tails, axis=0)[-1]
        recon[name] = [(k, float(totals[k])) for k in r_ks]
    return InterferenceReport(interference=interference, reconstruction=recon, spectra=spectra)


@dataclass(frozen=True)
class SweepRow:
    """One (ratio, lambda) cell: per-task accuracies and their mean."""

    ratio: float
    lam: float
    accuracies: tuple[float, ...]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))


Evaluator = Callable[[TensorMap], Sequence[float]]


def rank_sweep(
    origin: TensorMap,
    finetuned: list[TensorMap],
    evaluator: Evaluator,
    lambdas: Sequence[float],
    ratios: Sequence[float],
) -> list[SweepRow]:
    """Merge and evaluate every (ratio, lambda) grid cell, in grid order.

    The task vectors are centered on ``origin``; around the mean origin the
    ratio-0 and ratio-1 rows reproduce plain weight averaging, independent
    of lambda. The evaluator maps a merged checkpoint to
    per-task accuracies in [0, 1]; anything else (or an evaluator
    exception) raises :class:`EvaluationError`. The whole grid is checked
    before any work: an empty ``lambdas`` or ``ratios`` raises
    :class:`EmptyInput`, a ratio outside [0, 1] ``ValueError``, and a NaN or
    infinite lambda :class:`PlanError`.
    """
    if not lambdas or not ratios:
        raise EmptyInput("rank_sweep needs at least one lambda and one ratio")
    for ratio in ratios:
        _check_ratio(ratio)
    for lam in lambdas:
        if not math.isfinite(lam):
            raise PlanError(f"coefficients must be finite, got {lam}")
    tvs = build_task_vectors(origin, finetuned)
    rows: list[SweepRow] = []
    for ratio in ratios:
        pruned = prune_ranks(tvs, ratio)
        for lam in lambdas:
            merged = merge(pruned, lam)
            try:
                accs = [float(a) for a in evaluator(merged)]
            except Exception as exc:
                raise EvaluationError(f"evaluator failed at ratio={ratio}, lambda={lam}: {exc}") from exc
            if not accs or any(not 0.0 <= a <= 1.0 for a in accs):
                raise EvaluationError(
                    f"evaluator returned accuracies outside [0, 1] at ratio={ratio}, lambda={lam}: {accs}"
                )
            rows.append(SweepRow(ratio=float(ratio), lam=float(lam), accuracies=tuple(accs)))
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> str:
    """Columns: ratio, lambda, task, accuracy — per-task rows plus a mean row.
    Written atomically; returns its SHA-256."""
    lines: list[list[object]] = [["ratio", "lambda", "task", "accuracy"]]
    for row in rows:
        cell = [repr(row.ratio), repr(row.lam)]
        lines += [[*cell, t, repr(float(acc))] for t, acc in enumerate(row.accuracies)]
        lines.append([*cell, "mean", repr(row.mean_accuracy)])
    return _write_csv(path, lines)


def sample_size(a: float, b: float, epsilon: float, z: float) -> int:
    r"""Evaluation-set size for a mean estimate within ``epsilon``.

    For a random variable supported on [a, b], Popoviciu's inequality
    bounds its standard deviation by :math:`\sigma \le (b-a)/2`; a CLT
    interval of half-width ``epsilon`` at ``z`` standard errors then needs
    :math:`m = \lceil (z \sigma / \epsilon)^2 \rceil` samples.
    """
    if not all(math.isfinite(v) for v in (a, b, epsilon, z)):
        raise RangeError(f"need finite arguments, got a={a}, b={b}, epsilon={epsilon}, z={z}")
    if b <= a:
        raise RangeError(f"need b > a, got a={a}, b={b}")
    if epsilon <= 0 or z <= 0:
        raise RangeError("epsilon and z must be positive")
    sigma = (b - a) / 2.0
    try:
        return int(math.ceil((z * sigma / epsilon) ** 2))
    except OverflowError as exc:
        raise RangeError(
            f"the sample size overflows a float for a={a}, b={b}, epsilon={epsilon}, z={z}"
        ) from exc
