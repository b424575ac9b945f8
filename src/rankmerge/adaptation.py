r"""Unsupervised merge-coefficient adaptation on a toy classifier.

The model is a small feed-forward classifier: Matrix backbone layers
applied as ``x <- tanh(W x)`` with the final backbone layer linear,
followed by a fixed per-task linear head and a softmax. The adaptation
signal is the mean Shannon entropy of the predicted posteriors on an
unlabeled test batch — no labels are used.

The adapted parameters are per-(task, layer) merging coefficients
:math:`\lambda_t^l`. The merged backbone is linear in each coefficient,

.. math:: W_l(\lambda) = \theta^l + \textstyle\sum_t \lambda_t^l \Delta_t^l,

so the exact gradient is the Frobenius inner product of the entropy's
weight gradient with the task's delta:
:math:`\partial L / \partial \lambda_t^l =
\langle \partial L / \partial W_l, \Delta_t^l \rangle_F`. With the
delta stored as :math:`U \Sigma V^\top` that is :math:`p \cdot \sigma`
for the projection :math:`p = \mathrm{diag}(U^\top (\partial L /
\partial W_l) V)`, so no delta is rebuilt densely for its gradient. Plain
full-batch gradient descent; each step rebuilds the merged model through
the same merge routine the rest of the package uses.

``ste_masked_singulars`` and ``adarank_adapt`` extend this with learned
binary masks over singular values: the forward pass uses a hard threshold
of sigmoid mask logits, the backward pass uses the sigmoid path
(straight-through), and mask logits and coefficients descend jointly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import EmptyBatch, NumericError, ShapeError
from .kernels import LowRankFactor
from .merge import TaskVectorSet, merge
from .tensor_store import TensorMap, _write_csv

__all__ = [
    "Batch",
    "ToyClassifier",
    "entropy_loss",
    "coefficient_gradient",
    "adapt_coefficients",
    "ste_masked_singulars",
    "adarank_adapt",
    "write_adaptation_csv",
]

INIT_COEFFICIENT = 0.3


@dataclass(frozen=True)
class Batch:
    """Unlabeled test samples: ``task_ids[i]`` picks the head for ``inputs[i]``."""

    task_ids: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        if self.inputs.ndim != 2 or len(self.task_ids) != len(self.inputs):
            raise ShapeError(
                f"batch needs (N,) task ids and (N, d) inputs, got {self.task_ids.shape} and {self.inputs.shape}"
            )
        if not np.issubdtype(self.task_ids.dtype, np.integer):
            raise ShapeError(f"task ids must be integers, got dtype {self.task_ids.dtype}")

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class ToyClassifier:
    """Backbone weights by layer name plus fixed per-task heads."""

    layer_names: tuple[str, ...]
    weights: tuple[np.ndarray, ...]
    heads: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.layer_names) != len(self.weights) or not self.weights:
            raise ShapeError("one weight matrix per layer name required")
        for prev, cur in zip(self.weights, self.weights[1:]):
            if cur.shape[1] != prev.shape[0]:
                raise ShapeError(f"layer chain breaks: {prev.shape} feeds {cur.shape}")
        feat = self.weights[-1].shape[0]
        if not self.heads or any(h.shape[1] != feat for h in self.heads):
            raise ShapeError(f"every head must map {feat} features to class logits")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    def with_backbone(self, params: TensorMap) -> "ToyClassifier":
        """Same architecture and heads, backbone weights taken from ``params``."""
        weights = tuple(np.asarray(params[name], dtype=np.float64) for name in self.layer_names)
        return ToyClassifier(self.layer_names, weights, self.heads)

    def _activations(self, inputs: np.ndarray) -> list[np.ndarray]:
        """Column-major activations, input first, features last; tanh after
        every layer except the final one."""
        acts = [np.asarray(inputs, dtype=np.float64).T]
        last = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            z = w @ acts[-1]
            acts.append(z if i == last else np.tanh(z))
        return acts

    def posteriors(self, task: int, inputs: np.ndarray) -> np.ndarray:
        """Softmax class posteriors, one column per sample."""
        logits = self.heads[task] @ self._activations(inputs)[-1]
        logits = logits - logits.max(axis=0, keepdims=True)
        p = np.exp(logits)
        return p / p.sum(axis=0, keepdims=True)


def _entropy_and_weight_grads(
    model: ToyClassifier, batch: Batch
) -> tuple[float, list[np.ndarray]]:
    """Mean posterior entropy and its gradient with respect to each backbone
    weight matrix, accumulated in a fixed per-sample order."""
    if len(batch) == 0:
        raise EmptyBatch("entropy of an empty batch is undefined")
    tasks = np.unique(batch.task_ids)
    missing = tasks[(tasks < 0) | (tasks >= len(model.heads))]
    if missing.size:
        raise ShapeError(f"task id {missing[0]} outside [0, {len(model.heads)}): no such head")
    acts = model._activations(batch.inputs)
    features = acts[-1]
    n = len(batch)

    per_sample = np.zeros(n)
    d_features = np.zeros_like(features)
    for task in tasks:
        idx = np.flatnonzero(batch.task_ids == task)
        head = model.heads[int(task)]
        logits = head @ features[:, idx]
        logits = logits - logits.max(axis=0, keepdims=True)
        logp = logits - np.log(np.sum(np.exp(logits), axis=0, keepdims=True))
        p = np.exp(logp)
        entropy = -np.sum(p * logp, axis=0)
        per_sample[idx] = entropy
        # dH/dlogit_c = -p_c (log p_c + H); averaged over the batch.
        d_logits = -p * (logp + entropy[None, :]) / n
        d_features[:, idx] = head.T @ d_logits

    grads: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    delta = d_features
    last = len(model.weights) - 1
    for i in range(last, -1, -1):
        dz = delta if i == last else delta * (1.0 - acts[i + 1] ** 2)
        grads[i] = dz @ acts[i].T
        delta = model.weights[i].T @ dz
    return float(np.sum(per_sample) / n), grads


def entropy_loss(model: ToyClassifier, batch: Batch) -> float:
    """Mean Shannon entropy of the predicted posteriors over the batch.

    Bounded by ``[0, log C]`` for C classes; raises :class:`EmptyBatch`
    on an empty batch, and :class:`ShapeError` naming a task id that picks
    no head.
    """
    loss, _ = _entropy_and_weight_grads(model, batch)
    return loss


def _coefficient_grads(
    values: np.ndarray, tvs: TaskVectorSet, model: ToyClassifier, batch: Batch
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Loss, coefficient gradient ``p · σ`` and, per layer, the ``(T, k)``
    projections ``p = diag(Uᵀ g V)`` of the weight gradient onto each task's
    factor."""
    merged = model.with_backbone(merge(tvs, values))
    loss, weight_grads = _entropy_and_weight_grads(merged, batch)
    grid = np.zeros((tvs.task_count, len(tvs.matrix_names())))
    projections: dict[str, np.ndarray] = {}
    for l, name in enumerate(tvs.matrix_names()):
        g = weight_grads[model.layer_names.index(name)]
        f = tvs.deltas[name]
        p = np.sum(f.left * (g @ np.swapaxes(f.right, -1, -2)), axis=-2)
        grid[:, l] = np.sum(p * f.singulars, axis=-1)
        projections[name] = p
    return loss, grid, projections


def coefficient_gradient(
    values: np.ndarray, tvs: TaskVectorSet, model: ToyClassifier, batch: Batch
) -> np.ndarray:
    """Exact entropy gradient with respect to every merging coefficient.

    ``values`` is the ``(task_count, len(matrix_names()))`` coefficient
    array that :func:`~rankmerge.merge.merge` takes; another shape or a
    non-finite entry raises :class:`PlanError`. Merges at ``values``,
    backpropagates the batch entropy to each backbone weight, and contracts
    with the task deltas. Layers with zero delta get exactly zero gradient.
    """
    _, grid, _ = _coefficient_grads(values, tvs, model, batch)
    return grid


def adapt_coefficients(
    tvs: TaskVectorSet,
    model: ToyClassifier,
    batches: Sequence[Batch],
    steps: int = 30,
    lr: float = 1e-2,
) -> tuple[np.ndarray, list[tuple[int, float, float]]]:
    """Gradient-descend the per-(task, layer) coefficients on batch entropy.

    Batches are cycled in order; every coefficient starts at
    ``INIT_COEFFICIENT``. Returns the final ``(task_count,
    len(matrix_names()))`` coefficient array, whose columns follow
    ``tvs.matrix_names()``, and a history of ``(step, entropy, mean
    coefficient)`` rows — one per step evaluated before its update, plus a
    final row for the returned coefficients. A non-finite loss or gradient
    raises :class:`NumericError` naming the step.
    """
    if not batches:
        raise EmptyBatch("need at least one adaptation batch")
    return _descend(tvs, model, batches, steps, lr, {})[1:]


def write_adaptation_csv(history: Sequence[tuple[int, float, float]], path: str | Path) -> str:
    """Columns: iter, entropy, mean_lambda. Written atomically; returns its SHA-256."""
    return _write_csv(path, [
        ["iter", "entropy", "mean_lambda"],
        *([step, repr(float(entropy)), repr(float(mean_lambda))]
          for step, entropy, mean_lambda in history),
    ])


def ste_masked_singulars(
    singulars: np.ndarray, logits: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hard-masked singular values and their straight-through derivative.

    Forward: ``(sigmoid(logits) > 0.5) * singulars`` — a strict threshold,
    so a logit of exactly 0 drops its value. Backward: the derivative of
    the *soft* product ``sigmoid(logits) * singulars`` with respect to each
    logit, ``singulars * sigmoid * (1 - sigmoid)``, which is what a
    straight-through estimator propagates.
    """
    s = np.asarray(singulars, dtype=np.float64)
    a = np.asarray(logits, dtype=np.float64)
    if s.shape != a.shape:
        raise ShapeError(f"singulars {s.shape} and logits {a.shape} must align")
    with np.errstate(over="ignore"):  # exp(-a) -> inf below a ~ -709, and 1 / inf is 0
        soft = 1.0 / (1.0 + np.exp(-a))
    masked = np.where(soft > 0.5, s, 0.0)
    return masked, s * soft * (1.0 - soft)


def _masked(
    tvs: TaskVectorSet, logits: dict[str, np.ndarray]
) -> tuple[TaskVectorSet, dict[str, np.ndarray]]:
    """The deltas with each layer's mask in ``logits`` applied, and each
    mask's straight-through derivative; other layers keep their factors."""
    deltas = dict(tvs.deltas)
    soft_paths: dict[str, np.ndarray] = {}
    for name, a in logits.items():
        f = tvs.deltas[name]
        kept, soft_paths[name] = ste_masked_singulars(f.singulars, a)
        deltas[name] = LowRankFactor(f.left, kept, f.right)
    return dataclasses.replace(tvs, deltas=deltas), soft_paths


def adarank_adapt(
    tvs: TaskVectorSet,
    model: ToyClassifier,
    batches: Sequence[Batch],
    init_k: int,
    steps: int = 30,
    lr: float = 1e-2,
) -> tuple[dict[str, np.ndarray], np.ndarray, list[tuple[int, float, float]]]:
    """Jointly descend entropy over singular-value masks and coefficients.

    Mask logits start at -1 with the leading ``init_k`` entries at +1, so
    the initial forward pass keeps exactly the top ``init_k`` singular
    values per (task, layer); ``init_k`` outside ``[0, k]`` of any delta
    raises :class:`ShapeError`. Gradients flow to the logits through the
    straight-through path and to the coefficients through the masked
    deltas. Returns the logits by layer name, one ``(task_count, k)`` row
    per task (the mask keeps the values :func:`ste_masked_singulars`
    keeps), the coefficient array and the same history rows as
    :func:`adapt_coefficients`.
    """
    if not batches:
        raise EmptyBatch("need at least one adaptation batch")
    logits: dict[str, np.ndarray] = {}
    for name in tvs.matrix_names():
        k = tvs.deltas[name].k
        if not 0 <= init_k <= k:
            raise ShapeError(f"init_k={init_k} outside [0, {k}] at {name}")
        a = -np.ones((tvs.task_count, k))
        a[:, :init_k] = 1.0
        logits[name] = a
    return _descend(tvs, model, batches, steps, lr, logits)


def _descend(tvs: TaskVectorSet, model: ToyClassifier, batches: Sequence[Batch], steps: int,
             lr: float, logits: dict[str, np.ndarray]):
    """Both adaptations' descent, over the coefficients and the mask logits
    of each layer in ``logits``; returns ``(logits, values, history)``."""
    values = np.full((tvs.task_count, len(tvs.matrix_names())), INIT_COEFFICIENT)
    history: list[tuple[int, float, float]] = []
    for step in range(steps):
        batch = batches[step % len(batches)]
        masked, soft_paths = _masked(tvs, logits)
        with np.errstate(over="ignore", invalid="ignore"):  # raised below, naming the step
            loss, grid, projections = _coefficient_grads(values, masked, model, batch)
        if not np.isfinite(loss) or not np.all(np.isfinite(grid)):
            raise NumericError(f"non-finite entropy gradient at step {step}")
        history.append((step, loss, float(np.mean(values))))

        for l, name in enumerate(tvs.matrix_names()):
            if name in logits:
                # d loss / d masked_singular_j = lambda * u_j^T g v_j
                grad = values[:, l, None] * projections[name] * soft_paths[name]
                if not np.all(np.isfinite(grad)):
                    raise NumericError(f"non-finite mask gradient at step {step}")
                logits[name] = logits[name] - lr * grad
        values = values - lr * grid

    masked, _ = _masked(tvs, logits)
    final_loss = entropy_loss(model.with_backbone(merge(masked, values)), batches[0])
    history.append((steps, final_loss, float(np.mean(values))))
    return logits, values, history
