"""Tests for the overlap diagnostics, the sweep driver, and the sample-size
planner.

``interference_report`` is checked against hand-derived anchor values and
against from-scratch reimplementations built directly on ``np.linalg.svd``
(``tests/oracles.py``): I(k) by a loop over task pairs, and R(k) by an
explicit truncated residual where the report sums spectral tails.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from rankmerge import (
    EmptyInput,
    EvaluationError,
    InsufficientTasks,
    PlanError,
    RangeError,
    RankError,
    SweepRow,
    TensorMap,
    ZeroTaskVector,
    build_task_vectors,
    interference_report,
    prune_ranks,
    rank_sweep,
    reconstruct,
    sample_size,
    select_origin,
    weight_average,
    write_sweep_csv,
)

from conftest import random_tensor_map
from oracles import reference_interference, reference_reconstruction_error, reference_tail_energy


def _report(deltas, ks):
    """The report on one layer ``w`` whose task deltas are ``deltas``: the
    checkpoints are the deltas, measured from a zero ``--pretrained`` origin."""
    finetuned = [TensorMap({"w": np.asarray(d, dtype=np.float64)}) for d in deltas]
    pretrained = TensorMap({"w": np.zeros_like(finetuned[0]["w"])})
    tvs = build_task_vectors(select_origin("pretrained", pretrained, finetuned), finetuned)
    return interference_report(tvs, ks)


def _report_interference(deltas, k: int) -> float:
    [(_, value)] = _report(deltas, [k]).interference["w"]
    return value


# ---------------------------------------------------------------------------
# row-space interference


def test_identical_rank_one_pair_scores_two():
    delta = 3.0 * np.outer([1.0, 2.0, 0.5], [0.0, 1.0, 1.0, -1.0])
    assert _report_interference([delta, delta.copy()], k=1) == pytest.approx(2.0, abs=1e-12)


def test_orthogonal_row_spaces_score_zero():
    a = np.zeros((3, 4))
    b = np.zeros((3, 4))
    a[0, 0] = 2.0
    b[1, 1] = 5.0
    assert _report_interference([a, b], k=1) == pytest.approx(0.0, abs=1e-15)


def test_interference_ignores_per_delta_scale(rng):
    deltas = [rng.standard_normal((6, 5)) for _ in range(3)]
    base = _report_interference(deltas, k=3)
    rescaled = [deltas[0] * 7.25, deltas[1], deltas[2] / 3.0]
    assert _report_interference(rescaled, k=3) == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_interference_matches_naive_reimplementation(rng, k):
    deltas = [rng.standard_normal((7, 5)) for _ in range(3)]
    got = _report_interference(deltas, k)
    assert got == pytest.approx(reference_interference(deltas, k), rel=1e-10)


def test_interference_input_validation(rng):
    good = rng.standard_normal((4, 4))
    with pytest.raises(InsufficientTasks):
        _report([good], [1])
    with pytest.raises(RankError):
        _report([good, good], [-1])
    with pytest.raises(RankError):
        _report([good, good], [5])
    with pytest.raises(ZeroTaskVector):
        _report([good, np.zeros((4, 4))], [1])


# ---------------------------------------------------------------------------
# reconstruction error


def _thetas_report(origin, thetas):
    tvs = build_task_vectors(TensorMap({"w": origin}), [TensorMap({"w": t}) for t in thetas])
    return interference_report(tvs).reconstruction["w"]


def test_reconstruction_error_equals_tail_energy(rng):
    origin = rng.standard_normal((8, 6))
    thetas = [origin + rng.standard_normal((8, 6)) for _ in range(4)]
    curve = _thetas_report(origin, thetas)
    for k, value in curve:
        expected = sum(reference_tail_energy(t - origin, k) for t in thetas)
        assert value == pytest.approx(expected, rel=1e-9, abs=1e-18)
        residual = reference_reconstruction_error(thetas, origin, k)
        assert value == pytest.approx(residual, rel=1e-9, abs=1e-18)


def test_reconstruction_error_endpoints(rng):
    origin = rng.standard_normal((5, 5))
    thetas = [origin + rng.standard_normal((5, 5)) for _ in range(3)]
    full_energy = sum(np.linalg.norm(t - origin) ** 2 for t in thetas)
    curve = dict(_thetas_report(origin, thetas))
    assert curve[0] == pytest.approx(full_energy, rel=1e-12)
    assert curve[5] <= 1e-16 * full_energy


# ---------------------------------------------------------------------------
# report assembly

SHAPES = {"enc.0.weight": (9, 6), "enc.1.weight": (5, 5), "enc.0.bias": (9,)}


def _report_tvs(g: np.random.Generator, tasks: int = 3):
    finetuned = [random_tensor_map(g, SHAPES) for _ in range(tasks)]
    return build_task_vectors(weight_average(finetuned), finetuned), finetuned


def test_report_covers_every_matrix_layer(rng):
    tvs, _ = _report_tvs(rng)
    report = interference_report(tvs)
    assert set(report.interference) == {"enc.0.weight", "enc.1.weight"}
    assert [k for k, _ in report.interference["enc.0.weight"]] == list(range(1, 7))
    assert [k for k, _ in report.reconstruction["enc.0.weight"]] == list(range(0, 7))
    assert len(report.spectra["enc.1.weight"]) == 3
    for spec in report.spectra["enc.1.weight"]:
        assert spec == sorted(spec, reverse=True)


def test_report_curves_match_the_scalar_routes(rng):
    tvs, _ = _report_tvs(rng)
    report = interference_report(tvs)
    name = "enc.0.weight"
    deltas = [reconstruct(tvs.deltas[name][t]) for t in range(tvs.task_count)]
    for k, value in report.interference[name]:
        assert value == pytest.approx(reference_interference(deltas, k), rel=1e-12)
    # The report sums spectral tails; the oracle subtracts an explicit
    # truncated reconstruction. The two must agree anyway.
    origin = np.zeros_like(deltas[0])
    for k, value in report.reconstruction[name]:
        assert value == pytest.approx(
            reference_reconstruction_error(deltas, origin, k), rel=1e-9, abs=1e-18
        )


def test_report_on_a_pruned_set_matches_its_dense_deltas(rng):
    tvs, _ = _report_tvs(rng)
    pruned = prune_ranks(tvs, 0.4)
    report = interference_report(pruned)
    for name in pruned.matrix_names():
        deltas = [reconstruct(pruned.deltas[name][t]) for t in range(pruned.task_count)]
        for spec, delta in zip(report.spectra[name], deltas):
            kept = pruned.deltas[name][0].k
            assert len(spec) == min(delta.shape) and spec[kept:] == [0.0] * (len(spec) - kept)
            np.testing.assert_allclose(spec, np.linalg.svd(delta, compute_uv=False), atol=1e-12)
        for k, value in report.interference[name]:
            assert value == pytest.approx(reference_interference(deltas, k), rel=1e-9)


def test_report_reconstruction_is_the_tail_energy_at_every_k(rng):
    # Decaying spectra over five decades, so that tails near full rank are
    # far smaller than the whole energy.
    g, (m, n), tasks = rng, (40, 24), 3
    deltas = [(g.standard_normal((m, n)) * 10.0 ** -np.linspace(0, 5, n)) @ np.linalg.qr(
        g.standard_normal((n, n)))[0] for _ in range(tasks)]
    origin = g.standard_normal((m, n))
    finetuned = [TensorMap({"w": origin + d}) for d in deltas]
    tvs = build_task_vectors(TensorMap({"w": origin}), finetuned)
    report = interference_report(tvs)
    spectra = [tvs.deltas["w"][t].singulars for t in range(tasks)]
    energy = sum(float(np.sum(s**2)) for s in spectra)
    eps = np.finfo(np.float64).eps
    assert [k for k, _ in report.reconstruction["w"]] == list(range(n + 1))
    for k, value in report.reconstruction["w"]:
        # The same spectra summed tail by tail: n additions of positive
        # terms, so the sums differ by at most 2 n eps of the value.
        direct = sum(float(np.sum(s[k:] ** 2)) for s in spectra)
        assert abs(value - direct) <= 2 * n * eps * direct
        # The independent Gram route: each eigenvalue is off by about
        # eps times the largest, so the tail by n of those.
        oracle = sum(reference_tail_energy(f["w"] - origin, k) for f in finetuned)
        assert abs(value - oracle) <= 8 * n * eps * energy
    assert report.reconstruction["w"][-1] == (n, 0.0)


@pytest.mark.parametrize("ks", [None, [1], [0, 2, 3, 5]])
def test_report_factors_each_delta_once(rng, svd_calls, ks):
    finetuned = [random_tensor_map(rng, SHAPES) for _ in range(3)]
    interference_report(build_task_vectors(weight_average(finetuned), finetuned), ks)
    assert len(svd_calls) == 3 * 2  # tasks x matrix layers


def test_report_honors_explicit_ks(rng):
    tvs, _ = _report_tvs(rng)
    report = interference_report(tvs, ks=[0, 2, 5])
    assert [k for k, _ in report.interference["enc.1.weight"]] == [2, 5]
    assert [k for k, _ in report.reconstruction["enc.1.weight"]] == [0, 2, 5]


@pytest.mark.parametrize("k, layer", [(-1, "enc.0.weight"), (6, "enc.1.weight")])
def test_report_rejects_a_rank_outside_any_layer(rng, k, layer):
    tvs, _ = _report_tvs(rng)  # full ranks: enc.0.weight 6, enc.1.weight 5
    with pytest.raises(RankError, match=layer):
        interference_report(tvs, ks=[1, k])


def test_report_serialization(rng, tmp_path):
    tvs, _ = _report_tvs(rng)
    report = interference_report(tvs, ks=[1, 2])
    payload = report.to_json()
    assert set(payload) == {"conventions", "layers"}
    assert set(payload["conventions"]) == {"pair_summation", "sigma_normalization"}

    jpath = tmp_path / "report.json"
    report.write_json(jpath)
    assert json.loads(jpath.read_text()) == json.loads(json.dumps(payload))

    cpath = tmp_path / "report.csv"
    report.write_csv(cpath)
    with open(cpath, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["layer", "quantity", "k", "value"]
    quantities = {row[1] for row in rows[1:]}
    assert quantities == {"I", "R"}
    for layer, quantity, k, value in rows[1:]:
        float(value)  # repr round-trips
        assert layer in SHAPES


# ---------------------------------------------------------------------------
# rank sweep


def _sigmoid(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-x))


def _toy_evaluator(ckpt):
    w = np.asarray(ckpt["enc.0.weight"], dtype=np.float64)
    return [_sigmoid(float(np.mean(w))), _sigmoid(float(np.std(w)) - 1.0)]


def test_sweep_runs_the_grid_in_order(rng):
    _, finetuned = _report_tvs(rng)
    pretrained = random_tensor_map(rng, SHAPES)
    ratios, lambdas = [0.0, 0.5, 1.0], [0.3, 1.0]
    rows = rank_sweep(pretrained, finetuned, _toy_evaluator, lambdas, ratios)
    assert [(r.ratio, r.lam) for r in rows] == [(r, l) for r in ratios for l in lambdas]
    assert all(len(r.accuracies) == 2 for r in rows)


def test_sweep_endpoints_reduce_to_weight_averaging(rng):
    _, finetuned = _report_tvs(rng)
    pretrained = random_tensor_map(rng, SHAPES)
    rows = rank_sweep(
        pretrained, finetuned, _toy_evaluator, [0.0, 0.7, 2.0], [0.0, 1.0]
    )
    baseline = _toy_evaluator(weight_average(finetuned))
    for row in rows:
        assert row.accuracies == pytest.approx(baseline, abs=1e-9)


@pytest.mark.parametrize("ratios", [[0.5], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]])
def test_sweep_factors_each_delta_once(rng, svd_calls, ratios):
    finetuned = [random_tensor_map(rng, SHAPES) for _ in range(3)]
    pretrained = random_tensor_map(rng, SHAPES)
    rank_sweep(pretrained, finetuned, _toy_evaluator, [0.5, 1.0], ratios)
    assert len(svd_calls) == 3 * 2  # tasks x matrix layers


def test_sweep_wraps_evaluator_failures(rng):
    _, finetuned = _report_tvs(rng)
    pretrained = random_tensor_map(rng, SHAPES)

    def broken(ckpt):
        raise ValueError("no data loaded")

    with pytest.raises(EvaluationError):
        rank_sweep(pretrained, finetuned, broken, [1.0], [0.5])


@pytest.mark.parametrize("lambdas, ratios", [([], [0.5]), ([1.0], [])])
def test_sweep_rejects_an_empty_grid_before_evaluating(rng, lambdas, ratios):
    _, finetuned = _report_tvs(rng)
    calls = []

    def evaluator(ckpt):
        calls.append(None)
        return [0.5]

    with pytest.raises(EmptyInput):
        rank_sweep(random_tensor_map(rng, SHAPES), finetuned, evaluator, lambdas, ratios)
    assert calls == []


@pytest.mark.parametrize(
    "lambdas, ratios, error",
    [([1.0, 0.5], [0.1, 0.2, 2.0], ValueError), ([1.0, float("nan")], [0.1, 0.2], PlanError)],
    ids=["ratio-above-one", "nan-lambda"],
)
def test_sweep_checks_the_whole_grid_before_any_work(rng, svd_calls, lambdas, ratios, error):
    _, finetuned = _report_tvs(rng)
    pretrained = random_tensor_map(rng, SHAPES)
    svd_calls.clear()
    calls = []

    def evaluator(ckpt):
        calls.append(None)
        return [0.5]

    with pytest.raises(error):
        rank_sweep(pretrained, finetuned, evaluator, lambdas, ratios)
    assert calls == [] and svd_calls == []


@pytest.mark.parametrize("payload", [[], [1.5], [0.5, -0.01]])
def test_sweep_rejects_out_of_range_accuracies(rng, payload):
    _, finetuned = _report_tvs(rng)
    pretrained = random_tensor_map(rng, SHAPES)
    with pytest.raises(EvaluationError):
        rank_sweep(pretrained, finetuned, lambda ckpt: payload, [1.0], [0.5])


def test_sweep_csv_layout(tmp_path):
    rows = [
        SweepRow(ratio=0.5, lam=0.3, accuracies=(0.25, 0.75)),
        SweepRow(ratio=1.0, lam=0.3, accuracies=(1.0, 0.5)),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed[0] == ["ratio", "lambda", "task", "accuracy"]
    assert parsed[1] == ["0.5", "0.3", "0", "0.25"]
    assert parsed[3] == ["0.5", "0.3", "mean", "0.5"]
    assert len(parsed) == 1 + 2 * 3


def test_failed_sweep_csv_write_keeps_the_previous_file(tmp_path, fail_writes_to):
    path = tmp_path / "sweep.csv"
    write_sweep_csv([SweepRow(ratio=0.5, lam=0.3, accuracies=(0.25, 0.75))], path)
    before = path.read_bytes()
    fail_writes_to("sweep.csv")
    with pytest.raises(OSError):
        write_sweep_csv([SweepRow(ratio=1.0, lam=1.0, accuracies=(1.0, 0.5))], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_sweep_row_mean():
    row = SweepRow(ratio=0.1, lam=1.0, accuracies=(0.2, 0.4, 0.9))
    assert row.mean_accuracy == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# sample-size planning


def test_sample_size_reference_point():
    assert sample_size(0.0, 1.0, 0.05, 1.96) == 385


def test_sample_size_scaling_laws():
    # Halving the tolerance quadruples the requirement (up to ceiling).
    assert sample_size(0.0, 1.0, 0.025, 1.96) == 1537
    # Doubling the support width doubles sigma, so it quadruples too.
    assert sample_size(0.0, 2.0, 0.05, 1.96) == 1537
    # More confidence can only cost more samples.
    assert sample_size(0.0, 1.0, 0.05, 2.58) > 385


def test_sample_size_rejects_bad_parameters():
    with pytest.raises(RangeError):
        sample_size(1.0, 1.0, 0.05, 1.96)
    with pytest.raises(RangeError):
        sample_size(0.0, 1.0, 0.0, 1.96)
    with pytest.raises(RangeError):
        sample_size(0.0, 1.0, 0.05, -2.0)


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 1.0, 1e-300, 1.96),  # every input finite, the answer is not
        (0.0, 1.0, 0.05, float("inf")),
        (float("nan"), 1.0, 0.05, 1.96),
    ],
)
def test_sample_size_rejects_overflow_and_non_finite_inputs(args):
    with pytest.raises(RangeError):
        sample_size(*args)
