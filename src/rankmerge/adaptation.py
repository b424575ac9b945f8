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

from .errors import EmptyBatch, NumericError, PlanError, ShapeError
from .kernels import LowRankFactor
from .merge import TaskVectorSet, merge
from .tensor_store import TensorMap, _write_csv

__all__ = [
    "Batch",
    "ToyClassifier",
    "CoefficientTable",
    "SteMask",
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
    acts = model._activations(batch.inputs)
    features = acts[-1]
    n = len(batch)

    per_sample = np.zeros(n)
    d_features = np.zeros_like(features)
    for task in np.unique(batch.task_ids):
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
    on an empty batch.
    """
    loss, _ = _entropy_and_weight_grads(model, batch)
    return loss


@dataclass
class CoefficientTable:
    """Per-(task, layer) merging coefficients, ``values[t, l]``."""

    layer_names: tuple[str, ...]
    values: np.ndarray

    @classmethod
    def constant(cls, task_count: int, layer_names: Sequence[str]):
        """Every coefficient at ``INIT_COEFFICIENT``, where adaptation starts."""
        return cls(tuple(layer_names), np.full((task_count, len(layer_names)), INIT_COEFFICIENT))

    def as_mapping(self) -> dict[int, dict[str, float]]:
        return {
            t: {name: float(self.values[t, l]) for l, name in enumerate(self.layer_names)}
            for t in range(self.values.shape[0])
        }

    def mean(self) -> float:
        return float(np.mean(self.values))

    def task_means(self) -> list[float]:
        return [float(x) for x in np.mean(self.values, axis=1)]


def _coefficient_grads(
    table: CoefficientTable, tvs: TaskVectorSet, model: ToyClassifier, batch: Batch
) -> tuple[float, np.ndarray, dict[tuple[int, str], np.ndarray]]:
    """Loss, coefficient gradient ``p · σ`` and, per (task, layer), the
    projection ``p = diag(Uᵀ g V)`` of the weight gradient onto the factor.
    The table's columns must follow ``tvs.matrix_names()``."""
    if table.layer_names != tuple(tvs.matrix_names()):
        raise PlanError(
            f"table layers {list(table.layer_names)} are not the set's {tvs.matrix_names()}"
        )
    merged = model.with_backbone(merge(tvs, table.values))
    loss, weight_grads = _entropy_and_weight_grads(merged, batch)
    grid = np.zeros_like(table.values)
    projections: dict[tuple[int, str], np.ndarray] = {}
    for l, name in enumerate(table.layer_names):
        g = weight_grads[model.layer_names.index(name)]
        for t in range(tvs.task_count):
            f = tvs.deltas[t][name]
            p = np.sum(f.left * (g @ f.right.T), axis=0)
            grid[t, l] = float(np.sum(p * f.singulars))
            projections[(t, name)] = p
    return loss, grid, projections


def coefficient_gradient(
    table: CoefficientTable, tvs: TaskVectorSet, model: ToyClassifier, batch: Batch
) -> np.ndarray:
    """Exact entropy gradient with respect to every merging coefficient.

    Merges at ``table``, backpropagates the batch entropy to each backbone
    weight, and contracts with the task deltas. Layers with zero delta get
    exactly zero gradient. Raises :class:`PlanError` when the table's
    ``layer_names`` are not ``tvs.matrix_names()`` in that order.
    """
    _, grid, _ = _coefficient_grads(table, tvs, model, batch)
    return grid


def adapt_coefficients(
    tvs: TaskVectorSet,
    model: ToyClassifier,
    batches: Sequence[Batch],
    steps: int = 30,
    lr: float = 1e-2,
) -> tuple[CoefficientTable, list[tuple[int, float, float]]]:
    """Gradient-descend the coefficient table on batch entropy.

    Batches are cycled in order; every coefficient starts at
    ``INIT_COEFFICIENT``. Returns the final table and a history of
    ``(step, entropy, mean coefficient)`` rows — one per step evaluated
    before its update, plus a final row for the returned table. A
    non-finite loss or gradient raises :class:`NumericError` naming the
    step.
    """
    if not batches:
        raise EmptyBatch("need at least one adaptation batch")
    table = CoefficientTable.constant(tvs.task_count, tvs.matrix_names())
    history: list[tuple[int, float, float]] = []
    for step in range(steps):
        batch = batches[step % len(batches)]
        loss, grid, _ = _coefficient_grads(table, tvs, model, batch)
        if not np.isfinite(loss) or not np.all(np.isfinite(grid)):
            raise NumericError(f"non-finite entropy gradient at step {step}")
        history.append((step, loss, table.mean()))
        table = CoefficientTable(table.layer_names, table.values - lr * grid)
    final_loss = entropy_loss(model.with_backbone(merge(tvs, table.values)), batches[0])
    history.append((steps, final_loss, table.mean()))
    return table, history


def write_adaptation_csv(history: Sequence[tuple[int, float, float]], path: str | Path) -> None:
    """Columns: iter, entropy, mean_lambda. Written atomically."""
    _write_csv(path, [
        ["iter", "entropy", "mean_lambda"],
        *([step, repr(float(entropy)), repr(float(mean_lambda))]
          for step, entropy, mean_lambda in history),
    ])


@dataclass
class SteMask:
    """Sigmoid-parameterized binary mask over one delta's singular values."""

    logits: np.ndarray

    @property
    def soft(self) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.logits))

    @property
    def hard(self) -> np.ndarray:
        return self.soft > 0.5

    @property
    def retained(self) -> int:
        return int(np.count_nonzero(self.hard))


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
    soft = 1.0 / (1.0 + np.exp(-a))
    masked = np.where(soft > 0.5, s, 0.0)
    return masked, s * soft * (1.0 - soft)


def _masked_tvs(
    tvs: TaskVectorSet, masks: dict[tuple[int, str], SteMask]
) -> TaskVectorSet:
    deltas = [
        {
            name: LowRankFactor(
                f.left, ste_masked_singulars(f.singulars, masks[(t, name)].logits)[0], f.right
            )
            for name, f in per_task.items()
        }
        for t, per_task in enumerate(tvs.deltas)
    ]
    return dataclasses.replace(tvs, deltas=deltas)


def adarank_adapt(
    tvs: TaskVectorSet,
    model: ToyClassifier,
    batches: Sequence[Batch],
    init_k: int,
    steps: int = 30,
    lr: float = 1e-2,
) -> tuple[dict[tuple[int, str], SteMask], CoefficientTable, list[tuple[int, float, float]]]:
    """Jointly descend entropy over singular-value masks and coefficients.

    Mask logits start at -1 with the leading ``init_k`` entries at +1, so
    the initial forward pass keeps exactly the top ``init_k`` singular
    values per (task, layer). Gradients flow to the logits through the
    straight-through path and to the coefficients through the masked
    deltas. Returns the masks, the coefficient table, and the same history
    rows as :func:`adapt_coefficients`.
    """
    if not batches:
        raise EmptyBatch("need at least one adaptation batch")
    masks: dict[tuple[int, str], SteMask] = {}
    for t in range(tvs.task_count):
        for name in tvs.matrix_names():
            f = tvs.deltas[t][name]
            if init_k > f.k:
                raise ShapeError(f"init_k={init_k} exceeds available rank {f.k} at {name}")
            logits = -np.ones(f.k)
            logits[:init_k] = 1.0
            masks[(t, name)] = SteMask(logits)

    table = CoefficientTable.constant(tvs.task_count, tvs.matrix_names())
    history: list[tuple[int, float, float]] = []
    for step in range(steps):
        batch = batches[step % len(batches)]
        masked = _masked_tvs(tvs, masks)
        loss, grid, projections = _coefficient_grads(table, masked, model, batch)
        if not np.isfinite(loss) or not np.all(np.isfinite(grid)):
            raise NumericError(f"non-finite entropy gradient at step {step}")
        history.append((step, loss, table.mean()))

        for key, p in projections.items():
            t, name = key
            # d loss / d masked_singular_j = lambda * u_j^T g v_j
            lam = float(table.values[t, table.layer_names.index(name)])
            _, soft_path = ste_masked_singulars(tvs.deltas[t][name].singulars, masks[key].logits)
            grad = lam * p * soft_path
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite mask gradient at step {step}")
            masks[key] = SteMask(masks[key].logits - lr * grad)
        table = CoefficientTable(table.layer_names, table.values - lr * grid)

    final_loss = entropy_loss(
        model.with_backbone(merge(_masked_tvs(tvs, masks), table.values)), batches[0]
    )
    history.append((steps, final_loss, table.mean()))
    return masks, table, history
