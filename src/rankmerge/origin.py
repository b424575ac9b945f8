r"""Task-vector origin selection.

The origin is the merged model at coefficient zero. Its non-matrix tensors
are the fine-tuned mean whatever the strategy; three strategies choose the
Matrix layers that task vectors are measured from:

* pretrained passthrough — the classic task-arithmetic origin,
* mean — elementwise average of the fine-tuned checkpoints, which is the
  closed-form minimizer of the pairwise-similarity objective
  :math:`\sum_t \sum_{t'<t} \langle \theta_t-\theta, \theta_{t'}-\theta \rangle_F`,
* rank minimization — subgradient descent on
  :math:`\sum_t \|\theta_t - \theta\|_*`, pushing every task vector toward
  low rank.

The iterative solver records a per-step trace of both objective families so
their interplay can be inspected after the fact. Its layers are solved side
by side on the factoring pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DivergenceError, EmptyInput, InsufficientTasks, NumericError, ShapeError
from .kernels import _factor_subgradient, svd_stack
from .pool import run_jobs
from .tensor_store import Classifier, ParamClass, TensorMap, _write_csv, classify, validate_aligned

__all__ = [
    "SolverTrace",
    "mean_origin",
    "simmin_objective",
    "rankmin_origin",
    "select_origin",
]

_KINDS = ("pretrained", "mean", "rankmin")


@dataclass
class SolverTrace:
    """Per-step solver log: (step, sum of nuclear norms, sum of |FIP|).

    Step 0 is the warm-start state; indices are strictly increasing.
    """

    records: list[tuple[int, float, float]] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> None:
        """Columns: step, nuclear_sum, fip_abs_sum. Written atomically."""
        _write_csv(path, [
            ["step", "nuclear_sum", "fip_abs_sum"],
            *([step, repr(float(nuc)), repr(float(fip))] for step, nuc, fip in self.records),
        ])


def mean_origin(layers: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of the layers; the task vectors around it sum to zero.

    A NaN or infinity in a layer, or a sum that overflows float64, raises
    :class:`NumericError` naming the position of the first bad layer.
    """
    if not layers:
        raise EmptyInput("mean_origin needs at least one layer")
    first = np.asarray(layers[0], dtype=np.float64)
    out = first.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in layers[1:]:
            arr = np.asarray(layer, dtype=np.float64)
            if arr.shape != first.shape:
                raise ShapeError(f"layer shape {arr.shape} != {first.shape}")
            out += arr
    if not np.all(np.isfinite(out)):
        for i, layer in enumerate(layers):
            if not np.all(np.isfinite(layer)):
                raise NumericError(f"mean_origin: layer {i} holds NaN or infinite values")
        raise NumericError("mean_origin: the sum of the layers overflows float64")
    return out / len(layers)


def simmin_objective(origin: np.ndarray, layers: list[np.ndarray]) -> float:
    r"""Pairwise-similarity objective
    :math:`\sum_t \sum_{t'<t} \langle \theta_t-\theta, \theta_{t'}-\theta \rangle_F`."""
    if len(layers) < 2:
        raise InsufficientTasks("simmin_objective is defined over task pairs")
    deltas = [np.asarray(l, dtype=np.float64) - np.asarray(origin, dtype=np.float64) for l in layers]
    return sum(_pair_fips(deltas))


def _pair_fips(deltas: list[np.ndarray] | np.ndarray) -> list[float]:
    """Frobenius inner product of every task pair (t, t') with t' < t, in
    that order; the products share one buffer."""
    product = np.empty_like(deltas[0])
    return [float(np.sum(np.multiply(deltas[t], deltas[t2], out=product)))
            for t in range(len(deltas)) for t2 in range(t)]


def rankmin_origin(
    layers: list[np.ndarray],
    steps: int = 200,
    step_size: float | None = None,
) -> tuple[np.ndarray, SolverTrace]:
    r"""Minimize :math:`\sum_t \|\theta_t - \theta\|_*` by subgradient descent.

    Starts from the mean (the pairwise-similarity optimum, a strong warm
    start) and iterates
    :math:`\theta \leftarrow \theta + \eta_s \cdot \tfrac{1}{T}\sum_t
    \partial\|\theta_t-\theta\|_*` with the diminishing step
    :math:`\eta_s = \text{step\_size}/\sqrt{s}`. The best iterate is kept, so
    the returned objective never exceeds the initial one. Raises
    :class:`DivergenceError` if the running objective exceeds ten times the
    initial value.

    Each iterate factors its T task vectors in one stacked SVD: the singular
    values give the objective there and the singular vectors the next
    subgradient, formed at once so the factors are not held while the next
    iterate is factored.
    """
    if len(layers) < 2:
        raise InsufficientTasks("rankmin_origin needs at least two layers")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    # Kept in their own dtype: each subtraction below widens to float64 exactly.
    thetas = [np.asarray(l) for l in layers]
    theta = mean_origin(thetas)
    deltas = np.empty((len(thetas), *theta.shape))

    def factor(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
        """At ``theta``: the task vectors' singular values, the subgradient
        summed over tasks, the objective and the summed |FIP|."""
        for t, layer in enumerate(thetas):
            np.subtract(layer, theta, out=deltas[t])
        f = svd_stack(deltas)
        grad = np.zeros_like(theta)
        for t in range(len(thetas)):
            grad += _factor_subgradient(f[t])
        objective = sum(np.sum(f.singulars, axis=1).tolist())
        return f.singulars, grad, objective, sum(map(abs, _pair_fips(deltas)))

    s, grad, initial, fip = factor(theta)
    trace = SolverTrace()
    trace.records.append((0, initial, fip))
    if initial == 0.0:
        return theta, trace

    if step_size is None:
        step_size = 0.1 * float(np.mean(s.reshape(-1)))
    if step_size <= 0:
        raise ValueError("step_size must be > 0")

    best_theta, best_obj = theta.copy(), initial
    for step in range(1, steps + 1):
        theta = theta + (step_size / np.sqrt(step)) * (grad / len(thetas))
        _, grad, obj, fip = factor(theta)
        if obj > 10.0 * initial:
            raise DivergenceError(step, obj, initial)
        trace.records.append((step, obj, fip))
        if obj < best_obj:
            best_theta, best_obj = theta.copy(), obj
    return best_theta, trace


def select_origin(
    kind: str,
    pretrained: TensorMap,
    finetuned: list[TensorMap],
    trace_out: dict[str, SolverTrace] | None = None,
    classifier: Classifier = classify,
    *,
    rankmin_steps: int = 200,
    rankmin_step_size: float | None = None,
) -> TensorMap:
    """Assemble the origin, the merged model at coefficient zero, of ``kind``.

    ``kind`` is ``"pretrained"``, ``"mean"`` or ``"rankmin"``. This is the
    only code that decides non-matrix values and output dtypes:
    :func:`~rankmerge.merge.merge` starts from this map, and
    :func:`~rankmerge.merge.weight_average` and the CART entry points call
    it with ``"mean"``. Every tensor takes the checkpoint dtype. A layer that
    ``classifier`` keeps off the SVD path is the fine-tuned mean in every
    kind. A Matrix layer is the pretrained array for ``"pretrained"``, the
    :func:`rankmin_origin` solution after ``rankmin_steps`` steps of
    ``rankmin_step_size`` (``None`` scales it from the spectra) for
    ``"rankmin"`` with two or more fine-tuned checkpoints, and the mean
    otherwise. Pass ``trace_out`` to collect the rank-minimization trace of
    each solved layer by name, in the checkpoint's order.

    The other layers are computed first, one at a time. The solved layers
    then run as jobs on :func:`~rankmerge.pool.run_jobs`, largest first, so
    each solution and trace is the same whatever the number of workers, and
    where several layers diverge the largest one's
    :class:`DivergenceError` is raised, its message naming the layer.

    An unknown ``kind``, or for ``"rankmin"`` steps below 1 or a step size
    that is not positive, raises :class:`ValueError` before any work. A NaN
    or infinity in any tensor of any input, the pretrained checkpoint
    included, raises :class:`NumericError` naming the tensor, whatever the
    kind.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if kind == "rankmin" and rankmin_steps < 1:
        raise ValueError("rankmin needs steps >= 1")
    if kind == "rankmin" and rankmin_step_size is not None and rankmin_step_size <= 0:
        raise ValueError("rankmin needs step_size > 0")
    if not finetuned:
        raise EmptyInput("select_origin needs at least one fine-tuned checkpoint")
    validate_aligned([pretrained, *finetuned])
    for fmap in (pretrained, *finetuned):
        for name, arr in fmap.items():
            if not np.all(np.isfinite(arr)):
                raise NumericError(f"{name}: a checkpoint holds NaN or infinite values")

    entries: dict[str, np.ndarray] = {}
    solve: list[str] = []
    for name, ref in pretrained.items():
        stacked = [fmap[name] for fmap in finetuned]
        matrix = classifier(name, ref) is ParamClass.MATRIX
        if matrix and kind == "pretrained":
            solved = ref
        elif matrix and kind == "rankmin" and len(stacked) >= 2:
            solved = ref  # replaced by the solution below, keeping this order
            solve.append(name)
        else:
            solved = mean_origin(stacked)
        entries[name] = np.asarray(solved, dtype=ref.dtype)

    def solve_layer(name: str) -> tuple[np.ndarray, SolverTrace]:
        try:
            solution, trace = rankmin_origin([fmap[name] for fmap in finetuned], rankmin_steps,
                                             rankmin_step_size)
        except DivergenceError as exc:
            exc.args = (f"{name}: {exc}",)  # name the layer; step, objective, initial stay
            raise
        return np.asarray(solution, dtype=pretrained[name].dtype), trace

    order = sorted(solve, key=lambda name: pretrained[name].size, reverse=True)
    solutions = dict(zip(order, run_jobs(order, solve_layer)))
    for name in solve:
        entries[name], trace = solutions[name]
        if trace_out is not None:
            trace_out[name] = trace
    return TensorMap(entries)
