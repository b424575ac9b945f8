"""Entropy-adaptation tests.

The analytic coefficient gradient is checked against central differences,
the entropy itself against a one-sample-at-a-time scalar reimplementation,
and the straight-through mask against both its hard forward contract and a
finite-difference check of its soft backward path.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib
import warnings

import numpy as np
import pytest

from rankmerge import (
    Batch,
    EmptyBatch,
    LowRankFactor,
    NumericError,
    PlanError,
    ShapeError,
    TensorMap,
    ToyClassifier,
    adapt_coefficients,
    adarank_adapt,
    build_task_vectors,
    classification_sweep_suite,
    coefficient_gradient,
    entropy_loss,
    interference_report,
    merge,
    prune_ranks,
    signal_noise_suite,
    ste_masked_singulars,
    weight_average,
)
from rankmerge.adaptation import INIT_COEFFICIENT, write_adaptation_csv
from rankmerge.origin import _majorize_minimize
from rankmerge.rng import stream

from oracles import (
    fd_gradient,
    reference_adapt_coefficients,
    reference_adarank_adapt,
    reference_entropy,
)

LAYERS = ("net.0.weight", "net.1.weight")


def _bed(seed: int, tasks: int = 3, dim: int = 6, hidden: int = 5, feat: int = 4, classes: int = 3):
    """Random classifier, task vectors around the mean, and one batch."""
    g = stream(seed, "adaptation-tests")
    w1 = g.standard_normal((hidden, dim))
    w2 = g.standard_normal((feat, hidden))
    heads = tuple(g.standard_normal((classes, feat)) for _ in range(tasks))
    model = ToyClassifier(LAYERS, (w1, w2), heads)
    finetuned = [
        TensorMap(
            {
                LAYERS[0]: w1 + 0.5 * g.standard_normal((hidden, dim)),
                LAYERS[1]: w2 + 0.5 * g.standard_normal((feat, hidden)),
            }
        )
        for _ in range(tasks)
    ]
    tvs = build_task_vectors(weight_average(finetuned), finetuned)
    batch = Batch(
        task_ids=g.integers(0, tasks, size=12),
        inputs=g.standard_normal((12, dim)),
    )
    return model, tvs, batch


# ---------------------------------------------------------------------------
# model plumbing


def test_batch_validation():
    with pytest.raises(ShapeError):
        Batch(task_ids=np.zeros(3, dtype=int), inputs=np.zeros(3))
    with pytest.raises(ShapeError):
        Batch(task_ids=np.zeros(2, dtype=int), inputs=np.zeros((3, 4)))
    assert len(Batch(task_ids=np.zeros(3, dtype=int), inputs=np.zeros((3, 4)))) == 3


@pytest.mark.parametrize("ids", [[0.0, 1.0], [0.5, 1.0], [True, False]], ids=["float", "fraction", "bool"])
def test_batch_rejects_task_ids_that_are_not_integers(ids):
    with pytest.raises(ShapeError, match="integers"):
        Batch(task_ids=np.array(ids), inputs=np.zeros((2, 4)))


@pytest.mark.parametrize("ids", [[1, 1, -1, 0], [0, 2, 1, 1], [5, 0, 0, 0]], ids=["negative", "at-count", "above"])
def test_entropy_names_a_task_id_with_no_head(ids):
    suite = signal_noise_suite(1)  # two heads
    model, bad = suite.template, [i for i in ids if not 0 <= i < 2][0]
    batch = Batch(task_ids=np.array(ids), inputs=suite.batch.inputs[:4])
    with pytest.raises(ShapeError, match=rf"task id {bad} outside \[0, 2\)"):
        entropy_loss(model, batch)


def test_classifier_rejects_broken_chains(rng):
    with pytest.raises(ShapeError):
        ToyClassifier(LAYERS, (np.zeros((5, 6)), np.zeros((4, 7))), (np.zeros((3, 4)),))
    with pytest.raises(ShapeError):
        ToyClassifier(LAYERS, (np.zeros((5, 6)), np.zeros((4, 5))), (np.zeros((3, 9)),))


def test_posteriors_are_distributions(rng):
    model, _, batch = _bed(1)
    p = model.posteriors(0, batch.inputs)
    assert p.shape == (3, len(batch))
    np.testing.assert_allclose(p.sum(axis=0), 1.0, rtol=1e-12)
    assert np.all(p > 0.0)


def test_with_backbone_swaps_weights():
    model, tvs, _ = _bed(2)
    swapped = model.with_backbone(tvs.origin)
    for name, w in zip(LAYERS, swapped.weights):
        np.testing.assert_array_equal(w, np.asarray(tvs.origin[name], dtype=np.float64))
    assert swapped.heads is model.heads


# ---------------------------------------------------------------------------
# entropy


@pytest.mark.parametrize("seed", range(4))
def test_entropy_matches_scalar_reimplementation(seed):
    model, _, batch = _bed(seed)
    expected = reference_entropy(model.weights, model.heads, batch.task_ids, batch.inputs)
    assert entropy_loss(model, batch) == pytest.approx(expected, rel=1e-12)


def test_entropy_bounds_and_uniform_case():
    model, _, batch = _bed(3, classes=5)
    h = entropy_loss(model, batch)
    assert 0.0 <= h <= np.log(5)
    flat = ToyClassifier(
        LAYERS, tuple(np.zeros_like(w) for w in model.weights), model.heads
    )
    assert entropy_loss(flat, batch) == pytest.approx(np.log(5), rel=1e-12)


def test_entropy_rejects_empty_batches():
    model, _, _ = _bed(4)
    empty = Batch(task_ids=np.zeros(0, dtype=int), inputs=np.zeros((0, model.input_dim)))
    with pytest.raises(EmptyBatch):
        entropy_loss(model, empty)


# ---------------------------------------------------------------------------
# coefficient gradients


@pytest.mark.parametrize("seed", range(6))
def test_coefficient_gradient_matches_finite_differences(seed):
    model, tvs, batch = _bed(seed)
    values = np.full((tvs.task_count, len(tvs.matrix_names())), INIT_COEFFICIENT)

    def loss_at(values: np.ndarray) -> float:
        return entropy_loss(model.with_backbone(merge(tvs, values)), batch)

    exact = coefficient_gradient(values, tvs, model, batch)
    approx = fd_gradient(loss_at, values)
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(exact - approx)) < 1e-6 * scale


def test_coefficient_gradient_rejects_a_column_short_array():
    model, tvs, batch = _bed(8)
    assert len(tvs.matrix_names()) == 2
    with pytest.raises(PlanError):
        coefficient_gradient(np.full((tvs.task_count, 1), INIT_COEFFICIENT), tvs, model, batch)


def test_zero_delta_gets_zero_gradient():
    model, _, batch = _bed(7)
    finetuned = [
        TensorMap({name: np.asarray(w, dtype=np.float64) for name, w in zip(LAYERS, model.weights)})
    ]
    finetuned.append(
        TensorMap({name: v + 0.5 for name, v in finetuned[0].items()})
    )
    tvs = build_task_vectors(finetuned[0], finetuned)  # task 0's delta is exactly zero
    grid = coefficient_gradient(np.full((2, len(LAYERS)), INIT_COEFFICIENT), tvs, model, batch)
    assert np.all(grid[0] == 0.0)
    assert np.any(grid[1] != 0.0)


@pytest.mark.parametrize("seed", range(4))
def test_flipping_singular_pairs_changes_no_output_bit(seed):
    """Negating a pair (u, v) negates both factors of each product that reads
    it, exactly, so the merge, the interference report, the coefficient
    gradient and the rankmin step are the same bit for bit: no sign rule
    is needed."""
    model, tvs, batch = _bed(seed)
    g = stream(seed, "sign-flips")
    deltas = {}
    for name, f in tvs.deltas.items():
        signs = np.where(g.random(f.singulars.shape) < 0.5, -1.0, 1.0)
        assert np.any(signs < 0)
        deltas[name] = LowRankFactor(f.left * signs[..., None, :], f.singulars,
                                     f.right * signs[..., :, None])
    flipped = dataclasses.replace(tvs, deltas=deltas)
    values = g.uniform(0.1, 1.0, size=(tvs.task_count, len(tvs.matrix_names())))
    for name, layer in merge(tvs, values).items():
        np.testing.assert_array_equal(merge(flipped, values)[name], layer)
    assert interference_report(flipped).to_json() == interference_report(tvs).to_json()
    np.testing.assert_array_equal(coefficient_gradient(values, flipped, model, batch),
                                  coefficient_gradient(values, tvs, model, batch))
    for name, f in tvs.deltas.items():
        top = float(np.max(f.singulars))
        pair = (f, deltas[name])
        if f.shape[0] < f.shape[1]:  # the step takes a wide layer's factor as its transpose's
            pair = tuple(LowRankFactor(np.swapaxes(h.right, -1, -2), h.singulars,
                                       np.swapaxes(h.left, -1, -2)) for h in pair)
        np.testing.assert_array_equal(_majorize_minimize(pair[1], top),
                                      _majorize_minimize(pair[0], top))


# ---------------------------------------------------------------------------
# descent loops


def test_adapt_coefficients_descends_on_the_toy_suite():
    suite = signal_noise_suite(seed=5)
    tvs = build_task_vectors(weight_average(suite.finetuned), suite.finetuned)
    values, history = adapt_coefficients(tvs, suite.template, [suite.batch], steps=40, lr=0.05)
    assert [row[0] for row in history] == list(range(41))
    assert history[0][2] == pytest.approx(INIT_COEFFICIENT)
    assert history[-1][1] < history[0][1]
    means = np.mean(values, axis=1)
    assert means[0] > means[1]  # signal checkpoint outranks the noise one


def test_adapt_coefficients_rebuilds_each_delta_once_per_merge(monkeypatch):
    """One merge per step plus the final evaluation, and only the merges
    rebuild dense deltas, one per (task, layer); the gradient reads the
    factors."""
    adaptation = importlib.import_module("rankmerge.adaptation")
    merge_module = importlib.import_module("rankmerge.merge")
    model, tvs, batch = _bed(9)
    merges, rebuilds = [], []

    def counted_merge(*args):
        merges.append(None)
        return merge(*args)

    def counted_reconstruct(f, real=merge_module.reconstruct):
        rebuilds.append(None)
        return real(f)

    monkeypatch.setattr(adaptation, "merge", counted_merge)
    monkeypatch.setattr(merge_module, "reconstruct", counted_reconstruct)
    steps = 5
    adapt_coefficients(tvs, model, [batch], steps=steps)
    assert len(merges) == steps + 1
    assert len(rebuilds) == tvs.task_count * len(tvs.matrix_names()) * (steps + 1)


def test_adapt_coefficients_requires_batches():
    suite = signal_noise_suite(seed=6)
    tvs = build_task_vectors(weight_average(suite.finetuned), suite.finetuned)
    with pytest.raises(EmptyBatch):
        adapt_coefficients(tvs, suite.template, [])


def test_adapt_coefficients_flags_non_finite_losses():
    model, tvs, batch = _bed(8)
    tvs.deltas[LAYERS[0]][0].singulars[0] = np.nan
    with pytest.raises(NumericError):
        adapt_coefficients(tvs, model, [batch], steps=3)


def test_adaptation_csv_round_trips(tmp_path):
    history = [(0, 1.5, 0.3), (1, 1.25, 0.28)]
    path = tmp_path / "hist.csv"
    write_adaptation_csv(history, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "entropy", "mean_lambda"]
    assert [(int(a), float(b), float(c)) for a, b, c in rows[1:]] == history


# ---------------------------------------------------------------------------
# straight-through masks


def test_ste_forward_is_a_strict_hard_threshold():
    singulars = np.array([3.0, 2.0, 1.0])
    masked, _ = ste_masked_singulars(singulars, np.array([2.0, -3.0, 0.0]))
    # sigmoid(0) = 0.5 exactly, and the threshold is strict, so it drops.
    np.testing.assert_array_equal(masked, [3.0, 0.0, 0.0])


def test_ste_backward_matches_soft_finite_differences(rng):
    singulars = np.abs(rng.standard_normal(6)) + 0.1
    logits = rng.standard_normal(6)
    _, grad = ste_masked_singulars(singulars, logits)

    def soft_sum(a: np.ndarray) -> float:
        return float(np.sum(singulars / (1.0 + np.exp(-a))))

    np.testing.assert_allclose(grad, fd_gradient(soft_sum, logits), atol=1e-8)


def test_ste_saturated_logits_warn_nothing():
    """exp(1000) overflows; the sigmoid's limit 0 (or 1) is exact, not a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        masked, grad = ste_masked_singulars(np.array([2.0, 1.0]), np.array([-1000.0, 1000.0]))
    np.testing.assert_array_equal(masked, [0.0, 1.0])
    np.testing.assert_array_equal(grad, [0.0, 0.0])


def test_ste_shape_mismatch():
    with pytest.raises(ShapeError):
        ste_masked_singulars(np.ones(3), np.ones(4))


def test_adarank_initial_masks_keep_the_top_k():
    model, tvs, batch = _bed(9)
    logits, values, history = adarank_adapt(tvs, model, [batch], init_k=2, steps=0)
    assert sorted(logits) == sorted(LAYERS)
    for name, a in logits.items():
        singulars = tvs.deltas[name].singulars
        assert a.shape == singulars.shape == (3, tvs.deltas[name].k)
        masked, _ = ste_masked_singulars(singulars, a)
        np.testing.assert_array_equal(masked, np.where(np.arange(a.shape[1]) < 2, singulars, 0.0))
    assert len(history) == 1
    assert values.shape == (3, len(LAYERS))
    assert float(np.mean(values)) == pytest.approx(INIT_COEFFICIENT)


def test_adarank_joint_descent_runs():
    suite = signal_noise_suite(seed=10)
    tvs = build_task_vectors(weight_average(suite.finetuned), suite.finetuned)
    logits, values, history = adarank_adapt(tvs, suite.template, [suite.batch], init_k=3, steps=15, lr=0.05)
    assert [row[0] for row in history] == list(range(16))
    assert history[-1][1] < history[0][1]
    assert all(np.all(np.isfinite(a)) for a in logits.values())
    assert np.all(np.isfinite(values))


def test_adarank_rejects_oversized_init_k():
    model, tvs, batch = _bed(11)
    for init_k in (99, -1):
        with pytest.raises(ShapeError):
            adarank_adapt(tvs, model, [batch], init_k=init_k)


def test_adarank_checks_the_batches_before_init_k():
    model, tvs, _ = _bed(11)
    for init_k in (99, -1):
        with pytest.raises(EmptyBatch):
            adarank_adapt(tvs, model, [], init_k=init_k)


@pytest.mark.parametrize("steps", [0, 1, 15])
@pytest.mark.parametrize("ratio", [1.0, 0.3])
@pytest.mark.parametrize("seed", range(4))
def test_both_adaptations_are_the_reference_loops_bit_for_bit(seed, ratio, steps):
    """One shared loop, masking no layer or every layer, descends exactly
    as the two separate loops it replaced, on two batches used in turn."""
    model, tvs, batch = _bed(seed)
    tvs = prune_ranks(tvs, ratio)
    g = stream(seed, "adaptation-tests-second-batch")
    second = Batch(task_ids=g.integers(0, tvs.task_count, size=9),
                   inputs=g.standard_normal((9, model.input_dim)))
    batches, lr = [batch, second], 10.0  # large enough that some masks flip

    values, history = adapt_coefficients(tvs, model, batches, steps=steps, lr=lr)
    expected_values, expected_history = reference_adapt_coefficients(tvs, model, batches, steps, lr)
    np.testing.assert_array_equal(values, expected_values)
    assert history == expected_history

    k = min(f.k for f in tvs.deltas.values())
    for init_k in (0, 2, k):
        logits, values, history = adarank_adapt(tvs, model, batches, init_k, steps=steps, lr=lr)
        expected = reference_adarank_adapt(tvs, model, batches, init_k, steps, lr)
        assert list(logits) == list(expected[0])
        for name in logits:
            np.testing.assert_array_equal(logits[name], expected[0][name])
        np.testing.assert_array_equal(values, expected[1])
        assert history == expected[2]


# ---------------------------------------------------------------------------
# bundled suites


def test_classification_suite_is_deterministic():
    a = classification_sweep_suite(seed=21)
    b = classification_sweep_suite(seed=21)
    for ma, mb in zip(a.finetuned, b.finetuned):
        for name in ma.names():
            np.testing.assert_array_equal(ma[name], mb[name])
    for xa, xb in zip(a.eval_inputs, b.eval_inputs):
        np.testing.assert_array_equal(xa, xb)


def test_classification_suite_self_accuracy_is_perfect():
    suite = classification_sweep_suite(seed=22)
    for t, ckpt in enumerate(suite.finetuned):
        accs = suite.evaluator(ckpt)
        assert accs[t] == 1.0  # labels were produced by this very model
        assert all(0.0 <= a <= 1.0 for a in accs)


def test_classification_suite_labels_are_non_degenerate():
    suite = classification_sweep_suite(seed=23)
    for labels in suite.eval_labels:
        assert len(np.unique(labels)) >= 2


def test_signal_noise_suite_orders_the_checkpoints():
    suite = signal_noise_suite(seed=24)
    signal = entropy_loss(suite.template.with_backbone(suite.finetuned[0]), suite.batch)
    noise = entropy_loss(suite.template.with_backbone(suite.finetuned[1]), suite.batch)
    assert signal < noise
    assert set(np.unique(suite.batch.task_ids)) == {0, 1}
