"""Tests of the benchmark itself: inputs, span arithmetic and output checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

import checks
import inputs
import run
import spans

SMALL = {"w": (24, 16), "v": (16, 16), "b": (24,)}


def _small_tasks(seed=0, dtype="float32"):
    _, tasks = inputs.planted_checkpoints(seed, "test", SMALL, 4, dtype, rank=6, decay=0.7)
    return tasks


# --- deterministic inputs ---------------------------------------------------

def test_same_seed_gives_same_bytes_and_other_seeds_differ(tmp_path):
    digests = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        pre, tasks = inputs.planted_checkpoints(seed, "vit-merge", SMALL, 4, "float32", 6, 0.7)
        paths = inputs.write_set(tmp_path / sub, pre, tasks)
        digests.append([inputs.sha256_file(p) for p in [paths[0], *paths[1]]])
    assert digests[0] == digests[1]
    assert all(a != b for a, b in zip(digests[0], digests[2]))


def test_checkpoint_round_trip_and_planted_spectrum(tmp_path):
    tasks = _small_tasks(dtype="float64")
    inputs.write_checkpoint(tmp_path / "t.ckpt", tasks[0])
    back = inputs.read_checkpoint(tmp_path / "t.ckpt")
    assert set(back) == set(SMALL)
    for name in SMALL:
        assert np.array_equal(back[name], tasks[0][name])
    pre, _ = inputs.planted_checkpoints(0, "test", SMALL, 4, "float64", rank=6, decay=0.7)
    s = np.linalg.svd(tasks[0]["w"] - pre["w"], compute_uv=False)
    assert np.allclose(s[:6], 0.7 ** np.arange(6), atol=1e-3)
    assert s[6] < 1e-2 * s[5]


# --- span arithmetic ----------------------------------------------------------

def test_union_length_merges_overlaps_and_gaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert spans.union_length([(3.0, 4.0), (0.0, 10.0)]) == pytest.approx(10.0)


def test_self_time_subtracts_direct_children_once():
    s = [
        ["cli.main", -1, 0.0, 10.0, False],
        ["merge.prune_ranks", 0, 1.0, 4.0, False],
        ["kernels.svd", 1, 1.5, 3.5, False],   # grandchild: inside its parent
        ["tensor_store.save_checkpoint", 0, 6.0, 7.0, False],
        ["merge.merge", 0, 6.5, 8.0, False],   # overlaps its sibling
    ]
    assert spans.self_time(s, 0) == pytest.approx(10.0 - 3.0 - 2.0)
    assert spans.self_time(s, 1) == pytest.approx(1.0)
    assert spans.self_time(s, 2) == pytest.approx(2.0)


def test_outermost_seconds_counts_recursion_once():
    s = [
        ["merge.merge", -1, 0.0, 5.0, False],
        ["merge.merge", 0, 1.0, 2.0, False],
        ["merge.merge", -1, 6.0, 7.0, False],
    ]
    assert spans.outermost_seconds(s) == {"merge.merge": pytest.approx(6.0)}


def test_layer_metrics_from_a_pass():
    command = {
        "spans": [
            ["cli.main", -1, 0.0, 10.0, False],
            ["tensor_store.load_checkpoint", 0, 0.0, 1.0, True],
            ["merge.prune_ranks", 0, 2.0, 6.0, False],
            ["kernels.truncate", 2, 3.0, 4.0, True],
        ],
        "counters": {"kernels.svd_calls": 4, "kernels.svd_distinct_inputs": 2,
                     "kernels.triples_computed": 40, "kernels.triples_retained": 10,
                     "merge.prune_ranks_peak_bytes": 3 * 2**20},
    }
    m = spans.layer_metrics([command, command])
    assert m["cli.self_s"] == pytest.approx(2 * (10.0 - 1.0 - 4.0))
    assert m["merge.prune_ranks_s"] == pytest.approx(8.0)
    assert m["kernels.svd_calls"] == 8
    assert m["kernels.svd_reuse_ratio"] == pytest.approx(0.5)
    assert m["kernels.retained_triple_frac"] == pytest.approx(0.25)
    assert m["merge.prune_ranks_peak_mb"] == pytest.approx(3.0)
    assert m["tensor_store.errors"] == 2 and m["kernels.errors"] == 2
    assert m["cli.errors"] == 0


# --- output checks: a correct output passes, a corrupted one fails ----------

def _expected_file(tmp_path, expected, names, tasks):
    out = {n: expected[n].astype(np.float32) if n in expected else tasks[0][n] for n in names}
    path = tmp_path / "out.ckpt"
    inputs.write_checkpoint(path, out)
    return path, out


@pytest.mark.parametrize("command", ["merge", "index"])
def test_checkpoint_check_catches_corruption(tmp_path, command):
    tasks = _small_tasks()
    if command == "merge":
        expected = checks.merge_expected(tasks, "w", 0.25, 0.3)
    else:
        expected = checks.index_expected(tasks, "w", 0.25, 2)
    names = set(SMALL)
    path, out = _expected_file(tmp_path, expected, names, tasks)
    assert checks.check_checkpoint(path, names, expected) == []
    for name in ("w", "b"):
        bad = dict(out)
        bad[name] = out[name].copy()
        bad[name].flat[3] += 1e-3
        inputs.write_checkpoint(path, bad)
        assert checks.check_checkpoint(path, names, expected)
    del out["v"]
    inputs.write_checkpoint(path, out)
    assert checks.check_checkpoint(path, names, expected)


def test_merge_reference_uses_the_rank_k_truncation():
    tasks = _small_tasks()
    at_k = checks.merge_expected(tasks, "w", 0.25, 0.3)["w"]
    full = checks.merge_expected(tasks, "w", 1.0, 0.3)["w"]
    mean = checks.mean64(tasks, "w")
    assert np.allclose(full, mean, atol=1e-6)  # centered deltas sum to zero
    assert np.abs(at_k - mean).max() > 1e-3


def _report(tasks):
    layers = {}
    for name in sorted(n for n, a in tasks[0].items() if a.ndim == 2):
        origin = checks.mean64(tasks, name).astype(np.float32).astype(np.float64)
        factors = [np.linalg.svd(t[name].astype(np.float64) - origin, full_matrices=False)[1:]
                   for t in tasks]
        full = min(origin.shape)
        layers[name] = {
            "spectra": [list(map(float, s)) for s, _ in factors],
            "reconstruction": [[k, sum(float(np.sum(s[k:] ** 2)) for s, _ in factors)]
                               for k in range(full + 1)],
            "interference": [[k, checks.interference(factors, k)] for k in range(1, full + 1)],
        }
    return {"conventions": {}, "layers": layers}


@pytest.mark.parametrize("corrupt", ["spectra", "reconstruction", "interference", "layer"])
def test_analyze_check_catches_corruption(tmp_path, corrupt):
    tasks = _small_tasks()
    report = _report(tasks)
    path = tmp_path / "interference.json"
    path.write_text(json.dumps(report))
    assert checks.check_analyze(path, tasks) == []
    layer = report["layers"]["w"]
    if corrupt == "spectra":
        layer["spectra"][1][0] *= 1.001
    elif corrupt == "reconstruction":
        layer["reconstruction"][5][1] *= 1.001
    elif corrupt == "interference":
        layer["interference"][0][1] *= 1.001
    else:
        del report["layers"]["v"]
    path.write_text(json.dumps(report))
    assert checks.check_analyze(path, tasks)


def test_certify_check_catches_a_failed_certificate(tmp_path):
    path = tmp_path / "certificates.jsonl"
    good = {"L": 1.0, "bound": 2.0, "holds": True}
    path.write_text("\n".join(json.dumps(good) for _ in range(3)) + "\n")
    assert checks.check_certify(path, 3) == []
    assert checks.check_certify(path, 4)
    path.write_text("\n".join(json.dumps(r) for r in
                              [good, {"L": 3.0, "bound": 2.0, "holds": True}, good]) + "\n")
    assert checks.check_certify(path, 3)


def _write_sweep(path, means):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ratio", "lambda", "task", "accuracy"])
        for (ratio, lam), acc in means.items():
            w.writerow([ratio, lam, 0, acc])
            w.writerow([ratio, lam, "mean", acc])


def test_sweep_check_needs_an_interior_peak_and_equal_endpoints(tmp_path):
    ratios, lambdas = [0.0, 0.5, 0.75, 1.0], [1.0, 2.0]
    means = {(r, l): 0.5 for r in ratios for l in lambdas}
    means[(0.5, 2.0)] = 0.9
    path = tmp_path / "sweep.csv"
    _write_sweep(path, means)
    assert checks.check_sweep(path, ratios, lambdas) == []
    means[(0.5, 2.0)] = 0.5                     # a tie with the endpoints is a peak
    means[(0.75, 1.0)] = 0.4
    _write_sweep(path, means)
    assert checks.check_sweep(path, ratios, lambdas) == []
    for cell, value in (((0.75, 1.0), 0.5), ((1.0, 1.0), 0.95), ((1.0, 2.0), 0.45)):
        bad = dict(means)
        bad[cell] = value
        _write_sweep(path, bad)
        assert checks.check_sweep(path, ratios, lambdas), cell
    del means[(1.0, 1.0)]
    _write_sweep(path, means)
    assert checks.check_sweep(path, ratios, lambdas)


def test_adapt_check_needs_entropy_descent(tmp_path):
    (tmp_path / "coefficients.json").write_text("{}")
    for entropy, ok in (([0.5, 0.4, 0.3], True), ([0.5, 0.6, 0.7], False)):
        with open(tmp_path / "adaptation.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "entropy", "mean_lambda"])
            for i, e in enumerate(entropy):
                w.writerow([i, e, 0.3])
        assert (checks.check_adapt(tmp_path, 2) == []) is ok
    assert checks.check_adapt(tmp_path, 3)


def test_rankmin_check_catches_a_wrong_trace(tmp_path):
    tasks = _small_tasks(dtype="float64")
    expected = {n: checks.mean64(tasks, n) for n in ("b",)}
    inputs.write_checkpoint(tmp_path / "merged.ckpt",
                            {"w": tasks[0]["w"], "v": tasks[0]["v"], "b": expected["b"]})

    def write_traces(first_w, descent=0.9):
        for name in ("w", "v"):
            initial = checks.nuclear_sum(tasks, name)
            values = [first_w if name == "w" else initial, initial * descent, initial * 1.05]
            with open(tmp_path / f"trace_{name}.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["step", "nuclear_sum", "fip_abs_sum"])
                for step, value in enumerate(values):
                    w.writerow([step, repr(value), 0.0])

    write_traces(checks.nuclear_sum(tasks, "w"))
    assert checks.check_rankmin(tmp_path, tasks, 2) == []
    write_traces(checks.nuclear_sum(tasks, "w") * 1.01)
    assert checks.check_rankmin(tmp_path, tasks, 2)
    write_traces(checks.nuclear_sum(tasks, "w"), descent=1.0)
    assert checks.check_rankmin(tmp_path, tasks, 2)


# --- the runner counts a corrupted output as a failed command ---------------

class _FakeWorkload:
    def __init__(self, out_dir):
        self.out_dir = out_dir

    def check(self, command):
        text = (command.out_dir / "result.txt").read_text()
        return [] if text == "ok" else [f"result is {text!r}"]


def test_runner_counts_corrupted_and_changed_outputs_as_failures(tmp_path):
    out = tmp_path / "cmd"
    out.mkdir()
    command = run.Command("cmd", [], out)
    runner = run.Runner(_FakeWorkload(out), deadline=0.0)
    (out / "result.txt").write_text("corrupt")
    assert runner.judge(command, 0)
    (out / "result.txt").write_text("ok")
    assert runner.judge(command, 0) == []
    assert runner.judge(command, 0) == []          # identical repetition
    (out / "result.txt").write_text("ok ")
    assert runner.judge(command, 0) == ["outputs differ from the first run"]
    assert runner.judge(command, 3) == ["exit status 3"]
    assert (runner.attempted, runner.failed) == (5, 3)
