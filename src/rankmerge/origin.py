r"""Task-vector origin selection.

The origin is the merged model at coefficient zero. Its non-matrix tensors
are the fine-tuned mean whatever the strategy; three strategies choose the
Matrix layers that task vectors are measured from:

* pretrained passthrough — the classic task-arithmetic origin,
* mean — elementwise average of the fine-tuned checkpoints, which is the
  closed-form minimizer of the pairwise-similarity objective
  :math:`\sum_t \sum_{t'<t} \langle \theta_t-\theta, \theta_{t'}-\theta \rangle_F`,
* rank minimization — majorize-minimize descent on
  :math:`\sum_t \|\theta_t - \theta\|_*`, pushing every task vector toward
  low rank.

The iterative solver records a per-step trace of both objective families so
their interplay can be inspected after the fact. :func:`select_origin`
computes its layers side by side on the factoring pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EmptyInput, InsufficientTasks, NumericError, ShapeError
from .kernels import LowRankFactor, _gram_top, svd
from .pool import run_jobs
from .tensor_store import Classifier, TensorMap, _write_csv, classify, validate_aligned

__all__ = [
    "SolverTrace",
    "mean_origin",
    "simmin_objective",
    "rankmin_origin",
    "select_origin",
]

_KINDS = ("pretrained", "mean", "rankmin")

RANK_EPS = 1e-10  # rankmin's smoothing δ, relative to the largest σ at the mean
_GRAM_MIN_EIG = 1e-8  # rankmin's Gram route needs λ_min ≥ this·λ₁: see rankmin_origin


@dataclass
class SolverTrace:
    """Per-step solver log: (step, sum of nuclear norms, sum of |FIP|).

    Step 0 is the warm-start state; indices are strictly increasing.
    """

    records: list[tuple[int, float, float]] = field(default_factory=list)

    def write_csv(self, path: str | Path) -> str:
        """Columns: step, nuclear_sum, fip_abs_sum. Written atomically; returns its SHA-256."""
        return _write_csv(path, [
            ["step", "nuclear_sum", "fip_abs_sum"],
            *([step, repr(float(nuc)), repr(float(fip))] for step, nuc, fip in self.records),
        ])


def mean_origin(layers: list[np.ndarray]) -> np.ndarray:
    """Elementwise mean of the layers; the task vectors around it sum to zero.

    The layers are summed in order into one float64 buffer, which is then
    divided by their count. A NaN or infinity in a layer, or a sum that
    overflows float64, raises :class:`NumericError` naming the position of
    the first bad layer.
    """
    if not layers:
        raise EmptyInput("mean_origin needs at least one layer")
    out = np.array(layers[0], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in layers[1:]:
            layer = np.asarray(layer)
            if layer.shape != out.shape:
                raise ShapeError(f"layer shape {layer.shape} != {out.shape}")
            np.add(out, layer, out=out)
    if not np.all(np.isfinite(out)):
        for i, layer in enumerate(layers):
            if not np.all(np.isfinite(layer)):
                raise NumericError(f"mean_origin: layer {i} holds NaN or infinite values")
        raise NumericError("mean_origin: the sum of the layers overflows float64")
    out /= len(layers)
    return out


def simmin_objective(origin: np.ndarray, layers: list[np.ndarray]) -> float:
    r"""Pairwise-similarity objective
    :math:`\sum_t \sum_{t'<t} \langle \theta_t-\theta, \theta_{t'}-\theta \rangle_F`.

    A layer whose shape is not the origin's raises :class:`ShapeError`. A NaN
    or infinity in a layer raises :class:`NumericError` naming its
    position, and so does an objective that is not finite in float64.
    """
    if len(layers) < 2:
        raise InsufficientTasks("simmin_objective is defined over task pairs")
    origin = np.asarray(origin, dtype=np.float64)
    arrays = [np.asarray(l, dtype=np.float64) for l in layers]
    for i, arr in enumerate(arrays):
        if arr.shape != origin.shape:
            raise ShapeError(f"layer shape {arr.shape} != {origin.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"simmin_objective: layer {i} holds NaN or infinite values")
    with np.errstate(over="ignore", invalid="ignore"):
        value = sum(_pair_fips([arr - origin for arr in arrays]))
    if not np.isfinite(value):
        raise NumericError("simmin_objective: the objective is not finite in float64")
    return value


def _pair_fips(deltas: list[np.ndarray] | np.ndarray) -> list[float]:
    """Frobenius inner product of every task pair (t, t') with t' < t, in
    that order; the products share one buffer. A product that overflows
    float64 gives an infinity or NaN, without a warning."""
    product = np.empty_like(deltas[0])
    with np.errstate(over="ignore", invalid="ignore"):
        return [float(np.sum(np.multiply(deltas[t], deltas[t2], out=product)))
                for t in range(len(deltas)) for t2 in range(t)]


def rankmin_origin(layers: list[np.ndarray], steps: int = 20) -> tuple[np.ndarray, SolverTrace]:
    r"""Minimize :math:`\sum_t \|\theta_t - \theta\|_*` by majorize-minimize.

    Starts from the mean (the pairwise-similarity optimum) and takes
    ``steps`` steps of iteratively reweighted least squares (Fornasier,
    Rauhut and Ward 2011; Mohan and Fazel 2012). With each task vector
    :math:`D_t = \theta_t - \theta = U_t \Sigma_t V_t^\top`, a step is

    .. math::
        \theta \leftarrow \theta
        + \Big(\sum_t U_t \Sigma_t W_t V_t^\top\Big)
          \Big(\sum_t V_t W_t V_t^\top\Big)^{-1},
        \qquad W_t = \operatorname{diag}\big(1/\sqrt{\sigma^2 + \delta^2}\big),

    with :math:`\delta` ``RANK_EPS`` times the largest singular value at the
    mean. Each step minimizes a quadratic that touches the smoothed
    objective :math:`\sum_t \operatorname{tr}(D_t^\top D_t + \delta^2 I)^{1/2}`
    from above, so that objective never rises and there is no step size.
    The weights are scaled by that singular value, which leaves the step as
    it is and keeps them in range at any scale of the input. A wide layer
    is solved as its transpose, which has the same objective and trace,
    and the solution is transposed back.

    Each iterate factors its T task vectors in one stacked call: the
    singular values give the trace's objective and the factors the next
    step, which reads only :math:`\sigma` and :math:`V` as
    :math:`U_t \Sigma_t = D_t V_t`. While every slice's Gram matrix
    :math:`D_t^\top D_t` is finite with :math:`\lambda_{\min} \ge c\,\lambda_1 > 0`,
    the factor comes from its ``eigh``: ``U = DV/σ``. Forming and factoring
    it errs by about :math:`\epsilon\lambda_1`, so :math:`\sigma_i = \sqrt{\lambda_i}`
    errs by about :math:`\epsilon\lambda_1/2\sigma_i \le \epsilon\sigma_1/2\sqrt{c}`:
    :math:`1.1\times10^{-12}\,\sigma_1` at :math:`c = 10^{-8}`, and each weight
    is good to :math:`\epsilon/2c = 1.1\times10^{-8}` relative. ``U`` is
    orthonormal only to :math:`\epsilon/c`, but the step reads only
    :math:`U\Sigma = DV`. An iterate that fails the gate, and every later
    one of the layer, takes the full SVD: a layer that the solver drives
    toward low rank pays for one ``eigh``, not one per step.

    The trace has one row per iterate; a sum of |FIP| that overflows float64
    is recorded as it comes, an infinity or NaN. Layers must be 2-D, or
    :class:`ShapeError` is raised.
    """
    if len(layers) < 2:
        raise InsufficientTasks("rankmin_origin needs at least two layers")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    # Kept in their own dtype: each subtraction below widens to float64 exactly.
    thetas = [np.asarray(l) for l in layers]
    theta = mean_origin(thetas)
    if theta.ndim != 2:
        raise ShapeError(f"rankmin_origin needs 2-D layers, got shape {theta.shape}")
    wide = theta.shape[0] < theta.shape[1]
    if wide:
        thetas, theta = [layer.T for layer in thetas], theta.T
    deltas = np.empty((len(thetas), *theta.shape))
    gram = True  # the route of the next iterate; the full SVD once one fails the gate

    def factor(theta: np.ndarray) -> tuple[LowRankFactor, float, float]:
        """At ``theta``: the task vectors' stacked factor, the objective and
        the summed |FIP|."""
        nonlocal gram
        for t, layer in enumerate(thetas):
            np.subtract(layer, theta, out=deltas[t])
        factors = _gram_top(deltas, theta.shape[1], _GRAM_MIN_EIG) if gram else None
        gram = factors is not None
        f = svd(deltas) if factors is None else LowRankFactor(*factors)
        return f, sum(np.sum(f.singulars, axis=1).tolist()), sum(map(abs, _pair_fips(deltas)))

    f, objective, fip = factor(theta)
    trace = SolverTrace([(0, objective, fip)])
    if objective > 0.0:
        top = float(np.max(f.singulars))
        for step in range(1, steps + 1):
            theta = theta + _majorize_minimize(f, top)
            del f  # not held while the next iterate is factored
            f, objective, fip = factor(theta)
            trace.records.append((step, objective, fip))
    return (theta.T if wide else theta), trace


def _majorize_minimize(f: LowRankFactor, top: float) -> np.ndarray:
    """The step of :func:`rankmin_origin` from the stacked factor ``f`` of an
    ``m >= n`` layer's task vectors, ``top`` the largest singular value at the mean.

    The tasks' triples are laid side by side, so each sum over tasks is one
    matrix product."""
    tasks, m, k = f.left.shape
    n = f.right.shape[-1]
    weights = (1.0 / np.hypot(f.singulars / top, RANK_EPS)).reshape(-1)
    scaled = f.singulars.reshape(-1) * weights
    left = np.swapaxes(f.left, 0, 1).reshape(m, tasks * k)
    right = f.right.reshape(tasks * k, n)
    return np.linalg.solve((right.T * weights) @ right, (right.T * scaled) @ left.T).T


def select_origin(
    kind: str,
    pretrained: TensorMap,
    finetuned: list[TensorMap],
    trace_out: dict[str, SolverTrace] | None = None,
    classifier: Classifier = classify,
    *,
    rankmin_steps: int = 20,
) -> TensorMap:
    """Assemble the origin, the merged model at coefficient zero, of ``kind``.

    ``kind`` is ``"pretrained"``, ``"mean"`` or ``"rankmin"``. This is the
    only entry point that reads a pretrained map, and the only code that
    decides non-matrix values and output dtypes: merges start from this map,
    and :func:`~rankmerge.merge.weight_average` calls it with ``"mean"``.
    Every tensor takes the checkpoint dtype. A layer that ``classifier``
    keeps off the SVD path is the fine-tuned mean in every kind. A Matrix
    layer is the pretrained array for ``"pretrained"``, the
    :func:`rankmin_origin` solution after ``rankmin_steps`` steps for
    ``"rankmin"`` with two or more fine-tuned checkpoints, and the mean
    otherwise. Pass ``trace_out`` to collect the rank-minimization trace of
    each solved layer by name, in the checkpoint's order.

    The layers are checked, and then computed, on
    :func:`~rankmerge.pool.run_jobs`: one job per layer each time, largest
    first, so each result and trace, and any error raised, is the same
    whatever the number of workers. A NaN or infinity in any tensor of any
    input, the pretrained checkpoint included, raises :class:`NumericError`
    naming the tensor before any layer is computed, whatever the kind. A
    mean that overflows float64, and a solved layer whose trace holds a
    value that is not finite in float64, raise it too, naming the layer.
    Where several layers fail, it is the largest one's.

    An unknown ``kind``, or for ``"rankmin"`` steps below 1, raises
    :class:`ValueError` before any work.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    if kind == "rankmin" and rankmin_steps < 1:
        raise ValueError("rankmin needs steps >= 1")
    if not finetuned:
        raise EmptyInput("select_origin needs at least one fine-tuned checkpoint")
    validate_aligned([pretrained, *finetuned])

    def check(name: str) -> None:
        for fmap in (pretrained, *finetuned):
            if not np.all(np.isfinite(fmap[name])):
                raise NumericError(f"{name}: a checkpoint holds NaN or infinite values")

    def compute(name: str) -> tuple[np.ndarray, SolverTrace | None]:
        ref = pretrained[name]
        stacked = [fmap[name] for fmap in finetuned]
        matrix = classifier(name, ref)
        if matrix and kind == "pretrained":
            return ref, None
        try:
            if not (matrix and kind == "rankmin" and len(stacked) >= 2):
                return np.asarray(mean_origin(stacked), dtype=ref.dtype), None
            solution, trace = rankmin_origin(stacked, rankmin_steps)
        except NumericError as exc:
            raise NumericError(f"{name}: {exc}") from exc
        if not np.all(np.isfinite(trace.records)):
            raise NumericError(f"{name}: the rank-minimization trace is not finite in float64")
        return np.asarray(solution, dtype=ref.dtype), trace

    order = sorted(pretrained.names(), key=lambda name: pretrained[name].size, reverse=True)
    run_jobs(order, check)
    layers = dict(zip(order, run_jobs(order, compute)))
    entries: dict[str, np.ndarray] = {}
    for name in pretrained.names():
        entries[name], trace = layers[name]
        entries[name].flags.writeable = False  # fresh, or read-only already: TensorMap keeps it
        if trace is not None and trace_out is not None:
            trace_out[name] = trace
    return TensorMap(entries)
