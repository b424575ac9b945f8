"""Merge-engine tests: delta construction, rank pruning, coefficient
checks, checkpoint assembly, and the storage-cost accounting."""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankmerge import (
    ArchitectureMismatch,
    EmptyInput,
    NumericError,
    PlanError,
    TensorMap,
    build_task_vectors,
    cart_indexing,
    cart_merge,
    merge,
    prune_rank,
    prune_ranks,
    select_origin,
    storage_cost,
    weight_average,
)
from rankmerge import pool
from rankmerge.kernels import LowRankFactor, reconstruct, svd
from rankmerge.rng import stream

from conftest import random_tensor_map
from oracles import reference_tail_energy

SHAPES = {"layers.0.weight": (10, 7), "layers.1.weight": (6, 6), "layers.0.bias": (10,)}


def _fleet(g: np.random.Generator, tasks: int = 3, dtype=np.float64):
    origin = random_tensor_map(g, SHAPES, dtype=dtype)
    finetuned = [random_tensor_map(g, SHAPES, dtype=dtype) for _ in range(tasks)]
    return origin, finetuned


# ---------------------------------------------------------------------------
# build_task_vectors


def test_deltas_are_float64_checkpoint_minus_origin(rng):
    origin, finetuned = _fleet(rng, dtype=np.float32)
    tvs = build_task_vectors(origin, finetuned)
    assert tvs.matrix_names() == ["layers.0.weight", "layers.1.weight"]
    for t, fmap in enumerate(finetuned):
        for name in tvs.matrix_names():
            factor = tvs.deltas[name][t]
            expected = svd(fmap[name].astype(np.float64) - origin[name].astype(np.float64))
            for got, want in zip(
                (factor.left, factor.singulars, factor.right),
                (expected.left, expected.singulars, expected.right),
            ):
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got, want)


def test_build_rejects_misaligned_origin(rng):
    origin, finetuned = _fleet(rng)
    renamed = TensorMap({f"other.{k}": v for k, v in origin.items()})
    with pytest.raises(ArchitectureMismatch):
        build_task_vectors(renamed, finetuned)
    squashed = TensorMap(
        {k: (v[:-1] if v.ndim == 2 else v) for k, v in origin.items()}
    )
    with pytest.raises(ArchitectureMismatch):
        build_task_vectors(squashed, finetuned)
    with pytest.raises(EmptyInput):
        build_task_vectors(origin, [])


def test_build_rejects_an_origin_dtype_that_differs_from_checkpoints(rng):
    origin, finetuned = _fleet(rng, dtype=np.float32)
    wide_origin = TensorMap({k: v.astype(np.float64) for k, v in origin.items()})
    with pytest.raises(ArchitectureMismatch, match="dtype"):
        build_task_vectors(wide_origin, finetuned)


def test_build_rejects_a_non_finite_origin_bias(rng):
    origin, finetuned = _fleet(rng)
    bias = origin["layers.0.bias"].copy()
    bias[2] = np.nan
    origin = TensorMap({**dict(origin.items()), "layers.0.bias": bias})
    with pytest.raises(NumericError, match="layers.0.bias"):
        build_task_vectors(origin, finetuned)


# Two more layers, each larger than the first two, named after them.
POOL_SHAPES = {**SHAPES, "layers.2.weight": (40, 90), "layers.3.weight": (120, 30)}


def _with_nan(fmap: TensorMap, name: str) -> TensorMap:
    arr = fmap[name].copy()
    arr[1, 2] = np.nan
    return TensorMap({**dict(fmap.items()), name: arr})


@pytest.mark.parametrize("cpus", [1, 4])
def test_build_names_the_tensor_and_task_of_a_non_finite_delta(rng, blas_setting, cpus):
    blas_setting(cpus, OMP_NUM_THREADS="1")
    origin = random_tensor_map(rng, POOL_SHAPES)
    finetuned = [random_tensor_map(rng, POOL_SHAPES) for _ in range(3)]
    # Ratio 0 factors nothing, and still checks every delta.
    for rank_ratio in (None, 0.0, 0.08):
        bad = list(finetuned)
        bad[1] = _with_nan(bad[1], "layers.0.weight")
        with pytest.raises(NumericError, match=r"^layers\.0\.weight: task 1's deviation"):
            build_task_vectors(origin, bad, rank_ratio=rank_ratio)
        # Of two bad deltas, the one factored first, the larger, is named.
        bad[2] = _with_nan(bad[2], "layers.2.weight")
        with pytest.raises(NumericError, match=r"^layers\.2\.weight: task 2's deviation"):
            build_task_vectors(origin, bad, rank_ratio=rank_ratio)


def test_ratio_zero_factors_nothing(rng, svd_calls, eigh_calls):
    origin = random_tensor_map(rng, POOL_SHAPES)
    finetuned = [random_tensor_map(rng, POOL_SHAPES) for _ in range(3)]
    tvs = build_task_vectors(origin, finetuned, rank_ratio=0.0)
    assert svd_calls == [] and eigh_calls == []
    assert tvs.matrix_names() == sorted(n for n in POOL_SHAPES if n.endswith("weight"))
    assert tvs.task_count == 3
    for name, f in tvs.deltas.items():
        assert f.k == 0 and f.shape == POOL_SHAPES[name] and f.singulars.shape == (3, 0)


@pytest.mark.parametrize("ratio", [-0.25, 1.5])
def test_build_rejects_an_out_of_range_ratio_before_any_work(rng, ratio, svd_calls, eigh_calls):
    origin, finetuned = _fleet(rng)
    with pytest.raises(ValueError, match="rank_ratio"):
        build_task_vectors(origin, finetuned, rank_ratio=ratio)
    with pytest.raises(ValueError, match="rank_ratio"):
        build_task_vectors(TensorMap({"b": np.zeros(3)}), [TensorMap({"b": np.ones(3)})],
                           rank_ratio=ratio)
    assert svd_calls == [] and eigh_calls == []


# ---------------------------------------------------------------------------
# the factoring pool


@pytest.mark.parametrize(
    "cpus, variables, workers",
    [
        pytest.param(4, {}, 1, id="unset"),
        pytest.param(4, {var: "1" for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                              "OMP_NUM_THREADS")}, 4, id="one-thread"),
        pytest.param(4, {"OMP_NUM_THREADS": "2"}, 2, id="two-threads"),
        pytest.param(3, {"OMP_NUM_THREADS": "2"}, 1, id="rounded-down"),
        pytest.param(4, {"OMP_NUM_THREADS": "8"}, 1, id="more-threads-than-cpus"),
        pytest.param(4, {"OPENBLAS_NUM_THREADS": "lots", "MKL_NUM_THREADS": "1"}, 1,
                     id="garbage"),
        pytest.param(4, {"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"}, 1, id="zero"),
        pytest.param(4, {"OMP_NUM_THREADS": "1"}, 4, id="omp"),
        # A variable that one library reads leaves the other one on every CPU.
        pytest.param(4, {"OPENBLAS_NUM_THREADS": "1"}, 1, id="openblas-only"),
        pytest.param(4, {"MKL_NUM_THREADS": "1"}, 1, id="mkl-only"),
        pytest.param(4, {"GOTO_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 4, id="goto"),
        pytest.param(4, {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "2"}, 2,
                     id="larger-reading-wins"),
        pytest.param(4, {"OPENBLAS_NUM_THREADS": "2", "GOTO_NUM_THREADS": "1",
                         "MKL_NUM_THREADS": "1"}, 2, id="openblas-before-goto"),
        pytest.param(4, {"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, id="mkl-before-omp"),
        pytest.param(4, {"OPENBLAS_NUM_THREADS": "lots", "OMP_NUM_THREADS": "1"}, 1,
                     id="first-set-wins"),
    ],
)
def test_factor_workers_divides_usable_cpus_by_blas_threads(blas_setting, blas_reported, cpus,
                                                            variables, workers):
    # A BLAS that is neither OpenBLAS nor MKL: both libraries' variables count.
    blas_reported("accelerate")
    blas_setting(cpus, **variables)
    assert pool.factor_workers() == workers


@pytest.mark.parametrize(
    "reported, variables, workers",
    [
        pytest.param("scipy-openblas", {"OPENBLAS_NUM_THREADS": "1"}, 4, id="openblas"),
        pytest.param("scipy-openblas", {"MKL_NUM_THREADS": "1"}, 1, id="openblas-ignores-mkl"),
        pytest.param("OpenBLAS", {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "2"}, 4,
                     id="openblas-any-case"),
        pytest.param("mkl-sdl", {"MKL_NUM_THREADS": "1"}, 4, id="mkl"),
        pytest.param("mkl-sdl", {"OPENBLAS_NUM_THREADS": "1"}, 1, id="mkl-ignores-openblas"),
        pytest.param("mkl-sdl", {"MKL_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2,
                     id="mkl-before-omp"),
        pytest.param("accelerate", {"OPENBLAS_NUM_THREADS": "1"}, 1, id="unknown"),
        pytest.param("accelerate", {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 4,
                     id="unknown-both-set"),
        pytest.param(TypeError, {"OPENBLAS_NUM_THREADS": "1"}, 1, id="no-mode"),
        pytest.param(TypeError, {"OMP_NUM_THREADS": "1"}, 4, id="no-mode-omp"),
    ],
)
def test_factor_workers_counts_only_the_variables_of_numpys_blas(blas_setting, blas_reported,
                                                                 reported, variables, workers):
    blas_reported(reported)
    blas_setting(4, **variables)
    assert pool.factor_workers() == workers


def test_factor_workers_counts_cpus_where_affinity_is_unknown(blas_setting, monkeypatch):
    blas_setting(4, OMP_NUM_THREADS="1")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool.factor_workers() == 3


def _assert_same_factors(got, want) -> None:
    """Same ``deltas`` dict order and bit-identical factors."""
    assert list(got.deltas) == list(want.deltas) and got.task_count == want.task_count
    for name, f in got.deltas.items():
        for part in ("left", "singulars", "right"):
            np.testing.assert_array_equal(getattr(f, part), getattr(want.deltas[name], part))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_several_workers_factor_bit_for_bit_like_one(rng, blas_setting, dtype):
    origin = random_tensor_map(rng, POOL_SHAPES, dtype=dtype)
    finetuned = [random_tensor_map(rng, POOL_SHAPES, dtype=dtype) for _ in range(4)]
    for rank_ratio in (None, 0.08):  # full factors, and the top-k triples
        blas_setting(4)
        assert pool.factor_workers() == 1
        one = build_task_vectors(origin, finetuned, rank_ratio=rank_ratio)
        blas_setting(4, OMP_NUM_THREADS="1")
        assert pool.factor_workers() == 4
        _assert_same_factors(build_task_vectors(origin, finetuned, rank_ratio=rank_ratio), one)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_the_pool_returns_results_in_job_order_and_the_first_failure(blas_setting, workers):
    blas_setting(workers, OMP_NUM_THREADS="1")
    assert pool.run_jobs(list(range(9)), lambda job: job * job) == [j * j for j in range(9)]
    assert pool.run_jobs([], lambda job: job) == []

    started = []

    def work(job: int) -> int:
        started.append(job)
        if job == 1:
            time.sleep(0.05)  # fails after job 2 has failed, where both run at once
            raise ValueError("job 1")
        if job == 2:
            raise ValueError("job 2")
        return job

    with pytest.raises(ValueError, match="job 1"):
        pool.run_jobs([0, 1, 2, 3, 4, 5, 6, 7], work)
    assert {0, 1} <= set(started) and len(started) <= workers + 2


def test_many_workers_take_every_job_exactly_once(rng, blas_setting, svd_calls, monkeypatch):
    shapes = {f"layers.{i}.weight": (6 + i % 5, 4 + i % 3) for i in range(40)}
    origin = random_tensor_map(rng, shapes)
    finetuned = [random_tensor_map(rng, shapes) for _ in range(3)]
    blas_setting(4)
    one = build_task_vectors(origin, finetuned)
    merged = merge(one, 0.5)
    del svd_calls[:]
    # Each layer is assembled once, by the job that stores its last factor.
    rebuilt = []
    merge_module = importlib.import_module("rankmerge.merge")
    real_reconstruct = merge_module.reconstruct
    monkeypatch.setattr(merge_module, "reconstruct",
                        lambda f: rebuilt.append(f.shape) or real_reconstruct(f))
    blas_setting(16, OMP_NUM_THREADS="1")
    built = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: built.extend([
            build_task_vectors(origin, finetuned), cart_merge(origin, finetuned, 1.0, 0.5)]))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert len(svd_calls) == 2 * 40 * 3 and len(rebuilt) == 40 * 3
    _assert_same_factors(built[0], one)
    assert built[1] == merged


# ---------------------------------------------------------------------------
# rank pruning


@pytest.mark.parametrize(
    "ratio, m, n, expected",
    [
        (0.0, 10, 7, 0),
        (1.0, 10, 7, 7),
        (0.08, 1024, 1024, 82),
        (0.5, 7, 5, 3),
        # 0.1 * 120 = 12.000000000000002 in binary; the 9-decimal round
        # keeps the ceiling at 12 instead of 13.
        (0.1, 120, 200, 12),
        (1e-9, 4, 4, 1),
    ],
)
def test_prune_rank_table(ratio, m, n, expected):
    assert prune_rank(ratio, m, n) == expected


def test_prune_rank_rejects_out_of_range():
    with pytest.raises(ValueError):
        prune_rank(-0.1, 4, 4)
    with pytest.raises(ValueError):
        prune_rank(1.5, 4, 4)


def test_prune_full_ratio_is_lossless(rng):
    origin, finetuned = _fleet(rng)
    tvs = build_task_vectors(origin, finetuned)
    pruned = prune_ranks(tvs, 1.0)
    for t in range(tvs.task_count):
        for name in tvs.matrix_names():
            assert isinstance(pruned.deltas[name][t], LowRankFactor)
            np.testing.assert_allclose(
                reconstruct(pruned.deltas[name][t]), reconstruct(tvs.deltas[name][t]), atol=1e-12
            )


def test_prune_zero_ratio_kills_every_delta(rng):
    origin, finetuned = _fleet(rng)
    pruned = prune_ranks(build_task_vectors(origin, finetuned), 0.0)
    for t in range(pruned.task_count):
        for name in pruned.matrix_names():
            assert np.all(reconstruct(pruned.deltas[name][t]) == 0.0)


def test_pruned_factor_holds_only_its_retained_triples(rng):
    shape = (300, 200)
    origin = TensorMap({"w": rng.standard_normal(shape)})
    tvs = build_task_vectors(origin, [TensorMap({"w": rng.standard_normal(shape)})])
    f = prune_ranks(tvs, 0.08).deltas["w"]
    assert f.k == 16
    for part in (f.left, f.singulars, f.right):
        assert part.base is None
    assert f.left.nbytes == 300 * 16 * 8 and f.right.nbytes == 16 * 200 * 8


def test_prune_residual_is_the_spectral_tail(rng):
    origin, finetuned = _fleet(rng, tasks=1)
    tvs = build_task_vectors(origin, finetuned)
    pruned = prune_ranks(tvs, 0.4)
    name = "layers.0.weight"
    k = prune_rank(0.4, *SHAPES[name])
    residual = reconstruct(tvs.deltas[name][0]) - reconstruct(pruned.deltas[name][0])
    assert np.sum(residual**2) == pytest.approx(
        reference_tail_energy(reconstruct(tvs.deltas[name][0]), k), rel=1e-10
    )


# ---------------------------------------------------------------------------
# merge coefficients


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_plan_rejects_non_finite_coefficients(value, rng):
    origin, finetuned = _fleet(rng)
    tvs = build_task_vectors(origin, finetuned)
    with pytest.raises(PlanError, match="finite"):
        merge(tvs, value)
    table = np.full((3, 2), 0.5)
    table[1, 1] = value
    with pytest.raises(PlanError, match="finite"):
        merge(tvs, table)
    with pytest.raises(PlanError):
        cart_merge(origin, finetuned, 0.08, lam=value)


@pytest.mark.parametrize("shape", [(1, 2), (2, 3), (3, 2, 1), (6,), (2,)])
def test_merge_rejects_every_other_coefficient_shape(rng, shape):
    origin, finetuned = _fleet(rng)
    tvs = build_task_vectors(origin, finetuned)  # 3 tasks x 2 Matrix layers
    with pytest.raises(PlanError, match=r"\(3, 2\)"):
        merge(tvs, np.full(shape, 0.5))


def test_merge_takes_columns_in_matrix_name_order(rng):
    origin, finetuned = _fleet(rng)
    tvs = build_task_vectors(origin, finetuned)
    table = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])  # task 0, first layer only
    out = merge(tvs, table)
    first, second = tvs.matrix_names()
    np.testing.assert_array_equal(
        out[first], origin[first] + reconstruct(tvs.deltas[first][0])
    )
    np.testing.assert_array_equal(out[second], origin[second])


# ---------------------------------------------------------------------------
# assembly


def test_merge_matches_manual_sum(rng):
    origin, finetuned = _fleet(rng)
    tvs = build_task_vectors(origin, finetuned)
    out = merge(tvs, 0.4)
    for name in tvs.matrix_names():
        expected = origin[name].astype(np.float64)
        for t in range(tvs.task_count):
            expected = expected + 0.4 * reconstruct(tvs.deltas[name][t])
        np.testing.assert_allclose(out[name], expected, rtol=1e-14)
    np.testing.assert_array_equal(out["layers.0.bias"], origin["layers.0.bias"])


def test_a_set_without_matrix_layers_keeps_its_task_count():
    origin = TensorMap({"bias": np.zeros(4)})
    finetuned = [TensorMap({"bias": np.full(4, float(t))}) for t in range(3)]
    tvs = build_task_vectors(origin, finetuned)
    assert tvs.task_count == 3 and tvs.deltas == {} and tvs.matrix_names() == []
    assert merge(tvs, np.zeros((3, 0))) == origin
    with pytest.raises(PlanError, match=r"\(3, 0\)"):
        merge(tvs, np.zeros((2, 0)))


@pytest.mark.parametrize("kind", ["pretrained", "mean", "rankmin"])
def test_merge_zero_lambda_returns_origin(rng, kind):
    pretrained, finetuned = _fleet(rng)
    origin = select_origin(kind, pretrained, finetuned, rankmin_steps=5)
    assert merge(build_task_vectors(origin, finetuned), 0.0) == origin


def test_merge_casts_to_checkpoint_dtype(rng):
    origin, finetuned = _fleet(rng, dtype=np.float32)
    tvs = build_task_vectors(origin, finetuned)
    out = merge(tvs, 1.0)
    assert all(out[name].dtype == np.float32 for name in out.names())


@settings(max_examples=40, deadline=None)
@given(dtype=st.sampled_from([np.float32, np.float64]), lam=st.floats(-1e308, 1e308),
       ratio=st.floats(0.0, 1.0))
@example(dtype=np.float32, lam=1e39, ratio=0.5)
@example(dtype=np.float64, lam=1.7e308, ratio=0.5)
@example(dtype=np.float64, lam=-1e308, ratio=1.0)
def test_merge_returns_finite_tensors_or_names_the_layer_that_overflows(dtype, lam, ratio):
    origin, finetuned = _fleet(stream(0, "merge-overflow"), dtype=dtype)
    tvs = build_task_vectors(origin, finetuned, rank_ratio=ratio)
    try:
        out = merge(tvs, lam)
    except NumericError as exc:
        # Deltas of these checkpoints are O(1), so only a huge coefficient overflows.
        assert abs(lam) > 1e30
        name, message = str(exc).split(": ")
        assert name in tvs.matrix_names()
        assert message == f"the merged layer is not finite in {np.dtype(dtype).name}"
        return
    assert all(np.all(np.isfinite(out[name])) for name in out.names())


def test_merge_validates_table_before_assembling(rng, monkeypatch):
    origin, finetuned = _fleet(rng)
    tvs = build_task_vectors(origin, finetuned)
    calls = []
    monkeypatch.setattr(importlib.import_module("rankmerge.merge"), "reconstruct", calls.append)
    table = np.ones((3, 1))  # one column for two Matrix layers: never broadcast
    with pytest.raises(PlanError):
        merge(tvs, table)
    assert calls == []


# ---------------------------------------------------------------------------
# high-level entry points


def test_weight_average_is_the_elementwise_mean(rng):
    _, finetuned = _fleet(rng, dtype=np.float32)
    avg = weight_average(finetuned)
    for name in finetuned[0].names():
        assert avg[name].dtype == np.float32
        np.testing.assert_allclose(
            avg[name],
            np.mean([fmap[name] for fmap in finetuned], axis=0, dtype=np.float64).astype(
                np.float32
            ),
            rtol=1e-6,
        )
    with pytest.raises(EmptyInput):
        weight_average([])


def test_cart_merge_full_rank_collapses_to_average(rng):
    _, finetuned = _fleet(rng)
    avg = weight_average(finetuned)
    for lam in (0.0, 0.3, 1.0, 3.0):
        merged = cart_merge(avg, finetuned, rank_ratio=1.0, lam=lam)
        for name in merged.names():
            np.testing.assert_allclose(merged[name], avg[name], atol=1e-12)


@pytest.mark.parametrize("kind", ["pretrained", "mean", "rankmin"])
def test_cart_merge_is_the_long_form_pipeline_bit_for_bit(rng, kind):
    shapes = {"a.weight": (12, 9), "b.weight": (8, 8), "a.bias": (12,)}
    pretrained = random_tensor_map(rng, shapes, dtype=np.float32)
    finetuned = [random_tensor_map(rng, shapes, dtype=np.float32) for _ in range(3)]
    origin = select_origin(kind, pretrained, finetuned, rankmin_steps=2)
    tvs = build_task_vectors(origin, finetuned, rank_ratio=0.4)
    long_form = merge(tvs, 0.7)
    assert cart_merge(origin, finetuned, 0.4, 0.7) == long_form


def test_cart_merge_requires_alignment(rng):
    pretrained, finetuned = _fleet(rng)
    stranger = TensorMap({f"x.{k}": v for k, v in pretrained.items()})
    with pytest.raises(ArchitectureMismatch):
        cart_merge(stranger, finetuned, 1.0, 1.0)
    with pytest.raises(EmptyInput):
        cart_merge(pretrained, [], 1.0, 1.0)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_cart_merge_names_the_layer_merge_names_of_several_that_overflow(rng, blas_setting,
                                                                         workers):
    # Jobs take the largest layer first, b, but merge() names the first in
    # name order, a.
    shapes = {"a.weight": (5, 4), "b.weight": (30, 20), "c.weight": (12, 12), "a.bias": (5,)}
    pretrained = random_tensor_map(rng, shapes)
    finetuned = [random_tensor_map(rng, shapes) for _ in range(3)]
    origin = select_origin("mean", pretrained, finetuned)
    with pytest.raises(NumericError) as long_form:
        merge(build_task_vectors(origin, finetuned, rank_ratio=0.5), 1.7e308)
    assert str(long_form.value) == "a.weight: the merged layer is not finite in float64"
    blas_setting(workers, OMP_NUM_THREADS="1")
    assert pool.factor_workers() == workers
    for _ in range(5):
        with pytest.raises(NumericError) as streamed:
            cart_merge(origin, finetuned, 0.5, 1.7e308)
        assert str(streamed.value) == str(long_form.value)


def test_cart_merge_sums_in_task_order_whatever_order_the_factors_finish(rng, blas_setting,
                                                                         monkeypatch):
    pretrained, finetuned = _fleet(rng)
    origin = select_origin("mean", pretrained, finetuned)
    long_form = merge(build_task_vectors(origin, finetuned, rank_ratio=1.0), 0.7)
    # Task t's factoring waits (2 - t) * 50 ms, so the three finish last to first.
    first_entries = {float(f["layers.0.weight"][0, 0] - origin["layers.0.weight"][0, 0]): t
                     for t, f in enumerate(finetuned)}
    real_svd = svd

    def reversed_svd(a, k=None):
        time.sleep((2 - first_entries.get(float(a[0, 0]), 2)) * 0.05)
        return real_svd(a, k)

    monkeypatch.setattr(importlib.import_module("rankmerge.merge"), "svd", reversed_svd)
    blas_setting(4, OMP_NUM_THREADS="1")
    assert cart_merge(origin, finetuned, 1.0, 0.7) == long_form


def test_cart_merge_peaks_below_the_long_form(blas_setting):
    g = stream(0, "merge-peak")
    shapes = {f"layers.{i:02d}.weight": (256, 256) for i in range(12)}
    pretrained = random_tensor_map(g, shapes, dtype=np.float32)
    finetuned = [random_tensor_map(g, shapes, dtype=np.float32) for _ in range(4)]
    blas_setting(4)
    assert pool.factor_workers() == 1

    def long_form():
        origin = select_origin("mean", pretrained, finetuned)
        return merge(build_task_vectors(origin, finetuned, rank_ratio=0.08), 0.3)

    def streamed():
        return cart_merge(select_origin("mean", pretrained, finetuned), finetuned, 0.08, 0.3)

    peaks, outputs = {}, {}
    for label, run in (("long", long_form), ("streamed", streamed)):
        tracemalloc.start()
        try:
            outputs[label] = run()
            _, peaks[label] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert outputs["streamed"] == outputs["long"]
    # The long form holds every layer's factors while it assembles; the
    # streamed one drops each layer's factors once the layer is assembled.
    assert peaks["streamed"] < 0.9 * peaks["long"]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_origins_and_merged_layers_reach_the_tensor_map_read_only(rng, monkeypatch, dtype):
    """Arrays the package has just made are frozen, not copied, by TensorMap."""
    built = []

    class Spy(TensorMap):
        __slots__ = ()

        def __init__(self, entries, metadata=None):
            frozen = {name: not arr.flags.writeable for name, arr in entries.items()}
            super().__init__(entries, metadata)
            built.append((frozen, dict(entries), self))

    for module in ("rankmerge.origin", "rankmerge.merge"):
        monkeypatch.setattr(importlib.import_module(module), "TensorMap", Spy)
    pretrained, finetuned = _fleet(rng, dtype=dtype)
    for kind in ("pretrained", "mean", "rankmin"):
        origin = select_origin(kind, pretrained, finetuned, rankmin_steps=2)
        merge(build_task_vectors(origin, finetuned, rank_ratio=0.5), 0.3)
    cart_merge(weight_average(finetuned), finetuned, 0.5, 0.3)
    cart_indexing(weight_average(finetuned), finetuned, 0.5, 1)
    assert len(built) == 10
    for frozen, entries, tmap in built:
        assert all(frozen.values())
        assert all(tmap[name] is arr for name, arr in entries.items())


def test_indexing_full_rank_recovers_each_task(rng):
    _, finetuned = _fleet(rng)
    avg = weight_average(finetuned)
    for t, fmap in enumerate(finetuned):
        rebuilt = cart_indexing(avg, finetuned, 1.0, t)
        for name in ("layers.0.weight", "layers.1.weight"):
            np.testing.assert_allclose(rebuilt[name], fmap[name], atol=1e-10)
        np.testing.assert_allclose(
            rebuilt["layers.0.bias"],
            np.mean([m["layers.0.bias"] for m in finetuned], axis=0),
            rtol=1e-12,
        )


def test_indexing_zero_rank_is_the_average(rng):
    _, finetuned = _fleet(rng)
    avg = weight_average(finetuned)
    rebuilt = cart_indexing(avg, finetuned, 0.0, 1)
    for name in rebuilt.names():
        np.testing.assert_allclose(rebuilt[name], avg[name], atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_indexing_is_the_one_hot_merge_bit_for_bit(rng, dtype):
    pretrained, finetuned = _fleet(rng, dtype=dtype)
    origin = select_origin("mean", pretrained, finetuned)
    for ratio in (0.0, 0.08, 1.0):
        tvs = build_task_vectors(origin, finetuned, rank_ratio=ratio)
        for t in range(len(finetuned)):
            one_hot = np.zeros((len(finetuned), len(tvs.matrix_names())))
            one_hot[t] = 1.0
            long_form = merge(tvs, one_hot)
            assert cart_indexing(origin, finetuned, ratio, t) == long_form


def test_indexing_factors_only_the_requested_task(rng, svd_calls, eigh_calls):
    _, finetuned = _fleet(rng, tasks=4)
    cart_indexing(weight_average(finetuned), finetuned, 0.4, 2)
    assert len(svd_calls) + len(eigh_calls) == 2  # matrix layers of the one task


# The benchmark's tolerance on float32 outputs: ~15 float32 ulps of the
# largest entry, far below what a wrong rank, coefficient or origin moves.
F32_RTOL = 1e-6
BUDGET_SHAPES = {"a.weight": (120, 50), "b.weight": (50, 120), "c.weight": (64, 64),
                 "a.bias": (120,)}


def _relative_mismatch(got: TensorMap, want: TensorMap) -> float:
    assert got.names() == want.names()
    return max(
        float(np.abs(got[n].astype(np.float64) - want[n]).max())
        / max(float(np.abs(want[n].astype(np.float64)).max()), 1e-30)
        for n in want.names()
    )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ratio", [0.0, 0.08, 1.0])
def test_rank_budget_merges_and_indexes_like_the_full_svd(rng, dtype, ratio):
    """``cart_merge``/``cart_indexing`` factor only the kept triples; the
    full-SVD path is every triple, then :func:`prune_ranks`."""
    pretrained = random_tensor_map(rng, BUDGET_SHAPES, dtype=dtype)
    finetuned = [random_tensor_map(rng, BUDGET_SHAPES, dtype=dtype) for _ in range(3)]
    origin = select_origin("mean", pretrained, finetuned)
    full = prune_ranks(build_task_vectors(origin, finetuned), ratio)
    budget = build_task_vectors(origin, finetuned, rank_ratio=ratio)
    assert {n: f.k for n, f in budget.deltas.items()} == {n: f.k for n, f in full.deltas.items()}
    assert _relative_mismatch(cart_merge(origin, finetuned, ratio, 0.3),
                              merge(full, 0.3)) <= F32_RTOL
    for t in range(len(finetuned)):
        one_task = prune_ranks(build_task_vectors(origin, [finetuned[t]]), ratio)
        assert _relative_mismatch(cart_indexing(origin, finetuned, ratio, t),
                                  merge(one_task, 1.0)) <= F32_RTOL


def test_indexing_rejects_a_non_finite_bias_in_any_checkpoint(rng):
    _, finetuned = _fleet(rng)
    bias = finetuned[2]["layers.0.bias"].copy()
    bias[3] = np.nan
    finetuned[2] = TensorMap({**dict(finetuned[2].items()), "layers.0.bias": bias})
    with pytest.raises(NumericError, match="layers.0.bias"):
        cart_indexing(weight_average(finetuned), finetuned, 0.4, 0)


def test_indexing_of_no_checkpoints_is_empty_input(rng):
    _, finetuned = _fleet(rng)
    with pytest.raises(EmptyInput, match="cart_indexing needs at least one checkpoint"):
        cart_indexing(weight_average(finetuned), [], 0.5, 0)


def test_indexing_rejects_bad_task_index(rng):
    pretrained, finetuned = _fleet(rng)
    with pytest.raises(IndexError):
        cart_indexing(pretrained, finetuned, 1.0, 3)
    with pytest.raises(IndexError):
        cart_indexing(pretrained, finetuned, 1.0, -1)


# ---------------------------------------------------------------------------
# storage accounting


def test_storage_cost_worked_example():
    # One 1024x1024 layer at 8% retained rank, 32-bit floats, one task:
    # masks cost one bit per entry; factors cost (m + n) * k + k floats
    # with k = ceil(0.08 * 1024) = 82.
    mask_bits, lowrank_bits = storage_cost(1, [(1024, 1024)], 0.08, 32)
    assert mask_bits == 1024 * 1024
    assert lowrank_bits == 32 * (2048 * 82 + 82)


def test_storage_cost_scales_linearly_in_tasks():
    one = storage_cost(1, [(64, 32), (32, 32)], 0.25, 16)
    five = storage_cost(5, [(64, 32), (32, 32)], 0.25, 16)
    assert five == (5 * one[0], 5 * one[1])


def test_storage_cost_zero_ratio_stores_no_factors():
    _, lowrank_bits = storage_cost(3, [(64, 32)], 0.0, 32)
    assert lowrank_bits == 0


def test_storage_cost_validation():
    with pytest.raises(ValueError):
        storage_cost(0, [(4, 4)], 0.5, 32)
    with pytest.raises(ValueError):
        storage_cost(1, [(4, 4)], 0.5, 0)
    with pytest.raises(ValueError):
        storage_cost(1, [(0, 4)], 0.5, 32)
