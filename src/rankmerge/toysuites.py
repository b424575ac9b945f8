"""Self-contained synthetic classification suites.

These build the test beds the sweep and adaptation drivers run on when no
real checkpoints are supplied: small feed-forward classifiers whose
"fine-tuned" variants are constructed, not trained.

``classification_sweep_suite`` plants one orthogonal rank-1 signal per task
on top of a shared backbone. Centered task deltas then have a specific
spectrum — the leading singular direction of each task's delta is exactly
its own planted signal — so low-rank truncation isolates per-task signal
while full-rank deltas cancel back to the plain weight average. This makes
accuracy-vs-rank curves interior-peaked by construction.

``signal_noise_suite`` builds a two-checkpoint pair where the first is a
confident classifier on the test distribution and the second is noise, so
entropy descent should raise the first task's merging coefficients and
lower the second's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptation import Batch, ToyClassifier
from .rng import orthonormal, stream
from .tensor_store import TensorMap

__all__ = [
    "ClassificationSuite",
    "AdaptationSuite",
    "classification_sweep_suite",
    "signal_noise_suite",
]

_LAYERS = ("backbone.0.weight", "backbone.1.weight")


@dataclass
class ClassificationSuite:
    """Checkpoints plus a labeled per-task evaluation set."""

    pretrained: TensorMap
    finetuned: list[TensorMap]
    template: ToyClassifier
    eval_inputs: list[np.ndarray]
    eval_labels: list[np.ndarray]

    def evaluator(self, merged: TensorMap) -> list[float]:
        """Per-task accuracy of the merged backbone under each task's head."""
        model = self.template.with_backbone(merged)
        accs = []
        for t, (x, y) in enumerate(zip(self.eval_inputs, self.eval_labels)):
            pred = np.argmax(model.posteriors(t, x), axis=0)
            accs.append(float(np.mean(pred == y)))
        return accs


def classification_sweep_suite(seed: int) -> ClassificationSuite:
    """One planted-signal suite; identical seeds give identical draws.

    Task t's first-layer weight is ``W1 + signal * u_t v_t^T`` with the
    ``u_t`` and ``v_t`` orthonormal across tasks, its evaluation inputs lie
    along ``v_t`` (plus isotropic noise), and its labels come from task t's
    own checkpoint — so a merged backbone scores well on task t exactly
    when it carries that task's planted component. Three tasks share a
    24 -> 24 -> 16 backbone with 4-class heads; 160 evaluation samples each.
    """
    tasks, dim, hidden, features, classes, per_task = 3, 24, 24, 16, 4, 160
    signal, base_scale, w2_jitter, input_noise = 2.0, 1.2, 0.02, 0.25
    rng = stream(seed, "classification-suite")
    w1_base = base_scale * rng.standard_normal((hidden, dim)) / np.sqrt(dim)
    w2_base = rng.standard_normal((features, hidden)) / np.sqrt(hidden)
    u = orthonormal(rng, hidden, tasks)
    v = orthonormal(rng, dim, tasks)
    heads = tuple(rng.standard_normal((classes, features)) for _ in range(tasks))

    template = ToyClassifier(_LAYERS, (w1_base, w2_base), heads)
    pretrained = TensorMap({_LAYERS[0]: w1_base, _LAYERS[1]: w2_base})

    finetuned: list[TensorMap] = []
    eval_inputs: list[np.ndarray] = []
    eval_labels: list[np.ndarray] = []
    for t in range(tasks):
        w1_t = w1_base + signal * np.outer(u[:, t], v[:, t])
        w2_t = w2_base + w2_jitter * rng.standard_normal((features, hidden)) / np.sqrt(hidden)
        finetuned.append(TensorMap({_LAYERS[0]: w1_t, _LAYERS[1]: w2_t}))

        amp = rng.uniform(0.9, 1.5, size=per_task) * (rng.integers(0, 2, size=per_task) * 2 - 1)
        x = amp[:, None] * v[:, t][None, :] + input_noise * rng.standard_normal((per_task, dim)) / np.sqrt(dim)
        task_model = ToyClassifier(_LAYERS, (w1_t, w2_t), heads)
        eval_inputs.append(x)
        eval_labels.append(np.argmax(task_model.posteriors(t, x), axis=0))
    return ClassificationSuite(pretrained, finetuned, template, eval_inputs, eval_labels)


@dataclass
class AdaptationSuite:
    """Two checkpoints (signal, noise), a model template, and an unlabeled batch."""

    finetuned: list[TensorMap]
    template: ToyClassifier
    batch: Batch


def signal_noise_suite(seed: int) -> AdaptationSuite:
    """A two-task adaptation bed with one helpful and one useless checkpoint.

    Checkpoint 0 routes each input cluster to its own class logit at high
    gain (low entropy on the batch); checkpoint 1 is an unstructured
    Gaussian backbone. Both tasks share the same head, so any entropy gap
    between coefficient settings is attributable to the backbone mix. A
    16 -> 16 -> 8 backbone with a 3-class head; 96 unlabeled samples.
    """
    dim, hidden, features, classes, samples = 16, 16, 8, 3, 96
    confidence = 2.5
    rng = stream(seed, "signal-noise-suite")
    mu = orthonormal(rng, dim, classes)
    w = orthonormal(rng, hidden, classes)
    phi = orthonormal(rng, features, classes)
    w1_good = confidence * (w @ mu.T)
    w2_good = confidence * (phi @ w.T)
    head = 3.0 * phi.T
    heads = (head, head)

    # Norm-matched so the useless checkpoint cannot lower entropy by merely
    # rescaling the logits: same Frobenius norm per layer, random direction.
    def noise_like(ref: np.ndarray) -> np.ndarray:
        g = rng.standard_normal(ref.shape)
        return g * (np.linalg.norm(ref) / np.linalg.norm(g))

    w1_noise = noise_like(w1_good)
    w2_noise = noise_like(w2_good)

    finetuned = [
        TensorMap({_LAYERS[0]: w1_good, _LAYERS[1]: w2_good}),
        TensorMap({_LAYERS[0]: w1_noise, _LAYERS[1]: w2_noise}),
    ]
    template = ToyClassifier(_LAYERS, (w1_good, w2_good), heads)

    labels = rng.integers(0, classes, size=samples)
    amp = rng.uniform(1.0, 1.5, size=samples)
    x = amp[:, None] * mu[:, labels].T + 0.15 * rng.standard_normal((samples, dim))
    task_ids = np.arange(samples) % 2
    return AdaptationSuite(finetuned, template, Batch(task_ids=task_ids, inputs=x))
