"""Origin-selection tests: the closed-form mean, the pairwise-overlap
objective it minimizes, and the nuclear-norm majorize-minimize solver."""

from __future__ import annotations

import csv
from functools import partial

import numpy as np
import pytest

from rankmerge import (
    EmptyInput,
    InsufficientTasks,
    NumericError,
    ShapeError,
    TensorMap,
)
from rankmerge import origin, pool
from rankmerge.origin import (
    SolverTrace,
    mean_origin,
    rankmin_origin,
    select_origin,
    simmin_objective,
)
from rankmerge.rng import orthonormal, stream

from oracles import (
    fd_gradient,
    reference_mean,
    reference_nuclear_norm,
    reference_simmin,
    reference_subgradient_rankmin,
)


def _layers(g: np.random.Generator, count: int = 4, shape=(9, 7)) -> list[np.ndarray]:
    return [g.standard_normal(shape) for _ in range(count)]


# ---------------------------------------------------------------------------
# mean origin


def test_mean_origin_matches_stacked_mean(rng):
    layers = _layers(rng)
    np.testing.assert_allclose(mean_origin(layers), np.mean(layers, axis=0), rtol=1e-15)


def test_mean_origin_centers_the_task_vectors(rng):
    layers = _layers(rng, count=5)
    origin = mean_origin(layers)
    residual = sum(layer - origin for layer in layers)
    assert np.max(np.abs(residual)) < 1e-12


def test_mean_origin_promotes_to_float64(rng):
    layers = [l.astype(np.float32) for l in _layers(rng, count=3)]
    assert mean_origin(layers).dtype == np.float64


def test_mean_origin_rejects_empty_and_misaligned(rng):
    with pytest.raises(EmptyInput):
        mean_origin([])
    with pytest.raises(ShapeError):
        mean_origin([rng.standard_normal((3, 4)), rng.standard_normal((4, 3))])
    poisoned = rng.standard_normal((3, 4))
    poisoned[1, 2] = np.nan
    with pytest.raises(NumericError, match="layer 1"):
        mean_origin([rng.standard_normal((3, 4)), poisoned])
    with pytest.raises(NumericError, match="overflow"):
        mean_origin([np.full((2, 2), 1e308), np.full((2, 2), 1e308)])


@pytest.mark.parametrize("tasks", [1, 2, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mean_origin_is_the_ordered_float64_sum_over_the_count(rng, dtype, tasks):
    layers = [l.astype(dtype) for l in _layers(rng, count=tasks, shape=(33, 17))]
    got = mean_origin(layers)
    assert got.dtype == np.float64
    assert got.tobytes() == reference_mean(layers).tobytes()


# ---------------------------------------------------------------------------
# pairwise-overlap objective


def test_simmin_objective_matches_reference(rng):
    layers = _layers(rng, count=5)
    origin = rng.standard_normal(layers[0].shape)
    got = simmin_objective(origin, layers)
    assert got == pytest.approx(reference_simmin(origin, layers), rel=1e-12)


def test_simmin_needs_two_tasks(rng):
    with pytest.raises(InsufficientTasks):
        simmin_objective(np.zeros((2, 2)), [rng.standard_normal((2, 2))])


def test_simmin_objective_rejects_misaligned_and_non_finite_layers(rng):
    layers = _layers(rng, count=3, shape=(3, 4))
    origin = mean_origin(layers)
    with pytest.raises(ShapeError, match=r"layer shape \(4, 3\) != \(3, 4\)"):
        simmin_objective(origin, [*layers, rng.standard_normal((4, 3))])
    poisoned = layers[1].copy()
    poisoned[1, 2] = np.nan
    with pytest.raises(NumericError, match="layer 1 holds NaN"):
        simmin_objective(origin, [layers[0], poisoned, layers[2]])
    for bad_origin, scale in [(np.full((3, 4), np.inf), 1.0), (origin, 1e160)]:
        with pytest.raises(NumericError, match="objective is not finite"):
            simmin_objective(bad_origin, [scale * layer for layer in layers])


def test_mean_is_stationary_for_simmin(rng):
    layers = _layers(rng, count=4, shape=(6, 5))
    origin = mean_origin(layers)
    grad = fd_gradient(lambda x: simmin_objective(x, layers), origin)
    scale = max(abs(simmin_objective(origin, layers)), 1.0)
    assert np.max(np.abs(grad)) < 1e-6 * scale


@pytest.mark.parametrize("seed", range(5))
def test_mean_is_the_simmin_minimum(seed):
    g = stream(seed, "simmin-minimum")
    layers = _layers(g, count=3, shape=(5, 4))
    origin = mean_origin(layers)
    base = simmin_objective(origin, layers)
    for _ in range(20):
        shifted = origin + 0.3 * g.standard_normal(origin.shape)
        assert simmin_objective(shifted, layers) >= base - 1e-12


# ---------------------------------------------------------------------------
# nuclear-norm descent


def _shared_plus_lowrank(g: np.random.Generator, tasks: int = 4, shape=(12, 9)):
    """Checkpoints sharing a dense component plus per-task rank-1 bumps.

    The mean keeps a slice of every bump inside every task vector, so the
    warm start is deliberately suboptimal and descent has room to work.
    """
    shared = 2.0 * g.standard_normal(shape)
    return [
        shared + 3.0 * np.outer(g.standard_normal(shape[0]), g.standard_normal(shape[1])) / np.sqrt(shape[0] * shape[1])
        for _ in range(tasks)
    ]


def _nuclear_sum(layers: list[np.ndarray], theta: np.ndarray) -> float:
    """The objective at ``theta`` from LAPACK's singular values alone, exact
    where the Gram-route oracle loses the small singular values."""
    return sum(float(np.sum(np.linalg.svd(l - theta, compute_uv=False))) for l in layers)


def test_rankmin_descends_from_the_mean(rng):
    layers = _shared_plus_lowrank(rng)
    theta, trace = rankmin_origin(layers, steps=120)
    initial = trace.records[0][1]
    final = _nuclear_sum(layers, theta)
    assert final < initial
    assert final == pytest.approx(trace.records[-1][1], rel=1e-12)


def test_rankmin_trace_shape(rng):
    layers = _shared_plus_lowrank(rng, tasks=3)
    _, trace = rankmin_origin(layers, steps=25)
    steps = [s for s, _, _ in trace.records]
    assert steps == list(range(26))
    assert trace.records[0][1] == pytest.approx(
        _nuclear_sum(layers, mean_origin(layers)), rel=1e-12
    )


def test_rankmin_factors_each_task_once_per_iterate(rng, svd_calls):
    layers = _shared_plus_lowrank(rng, tasks=3)
    rankmin_origin(layers, steps=7)
    # The task vectors have rank 3 < 9, so the warm start fails the Gram
    # route's gate: one stacked SVD of the three per iterate, warm start included.
    assert svd_calls == [(3, 12, 9)] * (7 + 1)


def test_rankmin_identical_layers_return_immediately(rng):
    layer = rng.standard_normal((5, 5))
    theta, trace = rankmin_origin([layer, layer.copy()], steps=50)
    np.testing.assert_array_equal(theta, layer)
    assert len(trace.records) == 1


def _criterion_instance(seed: int) -> list[np.ndarray]:
    """The layers of one instance of acceptance criterion 5."""
    g = stream(seed, "rankmin-instances")
    shared = 2.0 * g.standard_normal((14, 10))
    return [shared + 3.0 * np.outer(g.standard_normal(14), g.standard_normal(10)) / np.sqrt(140)
            for _ in range(4)]


def _planted_layers(seed: int, shape: tuple[int, int], tasks: int = 4) -> list[np.ndarray]:
    """A shared base plus, per task, a rank-16 delta whose singular values
    decay as 0.8**i and small dense noise: the benchmark's rankmin layers."""
    g = stream(seed, f"planted-rankmin-{shape}")
    base = 0.02 * g.standard_normal(shape)
    s = 0.8 ** np.arange(min(16, *shape))
    return [base + (orthonormal(g, shape[0], len(s)) * s) @ orthonormal(g, shape[1], len(s)).T
            + 1e-4 * g.standard_normal(shape) for _ in range(tasks)]


RANKMIN_CASES = {
    **{f"criterion-{seed}": partial(_criterion_instance, seed) for seed in range(20)},
    "planted-256x64": partial(_planted_layers, 1, (256, 64)),
    "planted-64x64": partial(_planted_layers, 1, (64, 64)),
}


@pytest.mark.parametrize("case", RANKMIN_CASES)
def test_rankmin_beats_the_subgradient_oracle(case):
    layers = RANKMIN_CASES[case]()
    _, best = reference_subgradient_rankmin(layers, steps=200)
    for steps in (20, 100):
        theta, trace = rankmin_origin(layers, steps)
        assert trace.records[-1][1] <= best
        assert _nuclear_sum(layers, theta) <= best


@pytest.mark.parametrize("case", RANKMIN_CASES)
def test_rankmin_objective_never_rises(case):
    objectives = [nuc for _, nuc, _ in rankmin_origin(RANKMIN_CASES[case](), 100)[1].records]
    for before, after in zip(objectives, objectives[1:]):
        assert after <= before * (1.0 + 1e-12)


_ROUTES = {  # the eigh and svd calls of 100 steps
    "planted-256x64": ([(4, 64, 64)] * 101, []),
    # Rank-deficient at the mean: the first iterate fails the gate, and so
    # the layer stays on the full SVD.
    "planted-64x64": ([(4, 64, 64)], [(4, 64, 64)] * 101),
    "criterion-0": ([(4, 10, 10)], [(4, 14, 10)] * 101),
}


@pytest.mark.parametrize("case", _ROUTES)
def test_rankmin_takes_the_gram_route_until_an_iterate_fails_the_gate(case, svd_calls, eigh_calls):
    rankmin_origin(RANKMIN_CASES[case](), 100)
    assert (eigh_calls, svd_calls) == _ROUTES[case]


def test_rankmin_gram_route_matches_the_full_svd_route(monkeypatch):
    layers = RANKMIN_CASES["planted-256x64"]()
    theta, trace = rankmin_origin(layers, 100)
    monkeypatch.setattr(origin, "_GRAM_MIN_EIG", 2.0)  # no spectrum passes the gate
    theta_svd, trace_svd = rankmin_origin(layers, 100)
    np.testing.assert_allclose(theta, theta_svd, rtol=0, atol=1e-10 * np.max(np.abs(theta_svd)))
    # The objectives; |FIP| reads theta alone, and sums terms of both signs.
    np.testing.assert_allclose([r[1] for r in trace.records], [r[1] for r in trace_svd.records],
                               rtol=1e-12)


def test_rankmin_of_the_transposed_layers_is_the_transposed_solution():
    # A wide layer is solved as its transpose, so the two agree bit for bit:
    # on full-rank task vectors, and on criterion 5's wide rank-1 bumps
    # around a shared matrix, whose shared null space makes the weights
    # span 1e10.
    for layers in (_planted_layers(1, (256, 64)), [l.T for l in _criterion_instance(5)]):
        theta, trace = rankmin_origin(layers, steps=10)
        theta_t, trace_t = rankmin_origin([l.T for l in layers], steps=10)
        np.testing.assert_array_equal(theta_t, theta.T)
        assert trace_t.records == trace.records


def test_rankmin_stays_finite_where_the_squared_spectrum_overflows(rng):
    layers = [1e160 * l for l in _shared_plus_lowrank(rng)]
    theta, trace = rankmin_origin(layers, steps=10)
    assert np.all(np.isfinite(theta))
    objectives = [nuc for _, nuc, _ in trace.records]
    assert np.all(np.isfinite(objectives)) and objectives[-1] < 0.9 * objectives[0]
    # The layers' |FIP| sum is ~1e320, past float64.
    assert not np.all(np.isfinite([fip for _, _, fip in trace.records]))


def test_rankmin_input_validation(rng):
    with pytest.raises(InsufficientTasks):
        rankmin_origin([rng.standard_normal((3, 3))])
    with pytest.raises(ValueError):
        rankmin_origin(_layers(rng, count=2), steps=0)
    layers = _layers(rng, count=3)
    layers[2][0, 0] = np.inf
    with pytest.raises(NumericError, match="layer 2"):
        rankmin_origin(layers)


def test_rankmin_origin_rejects_stacks_and_vectors():
    for shape in [(2, 3, 3), (3,)]:
        with pytest.raises(ShapeError, match="2-D layers"):
            rankmin_origin([np.ones(shape), np.zeros(shape)])


def test_solver_trace_csv_round_trips(tmp_path):
    trace = SolverTrace(records=[(0, 3.25, 1.125), (1, 2.5, 0.75)])
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "nuclear_sum", "fip_abs_sum"]
    assert [(int(s), float(n), float(f)) for s, n, f in rows[1:]] == trace.records


# ---------------------------------------------------------------------------
# per-checkpoint assembly


def _checkpoints(g: np.random.Generator, count: int = 3) -> list[TensorMap]:
    maps = []
    for _ in range(count):
        maps.append(
            TensorMap(
                {
                    "blocks.0.weight": g.standard_normal((8, 6)),
                    "blocks.0.bias": g.standard_normal(8),
                }
            )
        )
    return maps


def test_select_origin_pretrained_is_passthrough(rng):
    pre, *rest = _checkpoints(rng, count=4)
    out = select_origin("pretrained", pre, rest)
    assert out["blocks.0.weight"] is pre["blocks.0.weight"]
    mean = select_origin("mean", pre, rest)
    np.testing.assert_array_equal(out["blocks.0.bias"], mean["blocks.0.bias"])


def test_select_origin_mean_averages_and_keeps_dtype(rng):
    pre, *rest = _checkpoints(rng, count=4)
    pre = TensorMap({k: v.astype(np.float32) for k, v in pre.items()})
    rest = [TensorMap({k: v.astype(np.float32) for k, v in m.items()}) for m in rest]
    out = select_origin("mean", pre, rest)
    for name in pre.names():
        assert out[name].dtype == np.float32
        expected = np.mean([m[name] for m in rest], axis=0, dtype=np.float64)
        np.testing.assert_allclose(out[name], expected.astype(np.float32), rtol=1e-6)


def test_select_origin_rankmin_solves_matrices_and_averages_vectors(rng):
    weights = _shared_plus_lowrank(rng, tasks=3, shape=(8, 6))
    rest = [
        TensorMap({"blocks.0.weight": w, "blocks.0.bias": rng.standard_normal(8)})
        for w in weights
    ]
    pre = TensorMap({k: np.zeros_like(v) for k, v in rest[0].items()})
    traces: dict[str, SolverTrace] = {}
    out = select_origin("rankmin", pre, rest, trace_out=traces, rankmin_steps=80)
    assert set(traces) == {"blocks.0.weight"}
    np.testing.assert_allclose(
        out["blocks.0.bias"], np.mean([m["blocks.0.bias"] for m in rest], axis=0), rtol=1e-12
    )
    mean_obj = sum(reference_nuclear_norm(w - mean_origin(weights)) for w in weights)
    solved_obj = sum(reference_nuclear_norm(w - out["blocks.0.weight"]) for w in weights)
    assert solved_obj < mean_obj


def test_select_origin_classifier_keeps_excluded_layers_off_the_solver(rng):
    rest = [
        TensorMap({"a.weight": w, "b.weight": v})
        for w, v in zip(
            _shared_plus_lowrank(rng, tasks=3, shape=(8, 6)),
            _shared_plus_lowrank(rng, tasks=3, shape=(5, 5)),
        )
    ]
    pre = TensorMap({k: np.zeros_like(v) for k, v in rest[0].items()})

    def only_a(name, tensor):
        return name == "a.weight"

    traces: dict[str, SolverTrace] = {}
    out = select_origin(
        "rankmin", pre, rest, trace_out=traces, classifier=only_a, rankmin_steps=5
    )
    assert set(traces) == {"a.weight"}
    np.testing.assert_array_equal(out["b.weight"], mean_origin([m["b.weight"] for m in rest]))
    full = select_origin("rankmin", pre, rest, rankmin_steps=5)
    np.testing.assert_array_equal(out["a.weight"], full["a.weight"])


def test_select_origin_single_task_degenerates_to_it(rng):
    pre, only = _checkpoints(rng, count=2)
    out = select_origin("rankmin", pre, [only])
    for name in only.names():
        np.testing.assert_array_equal(out[name], only[name])


def test_select_origin_rejects_empty(rng):
    pre, *_ = _checkpoints(rng, count=1)
    with pytest.raises(EmptyInput):
        select_origin("mean", pre, [])


@pytest.mark.parametrize("tasks", [0, 1, 3], ids=["no-task", "one-task", "three-tasks"])
@pytest.mark.parametrize(
    "kind, options, message",
    [
        ("centered", {}, "kind must be one of"),
        ("rankmin", {"rankmin_steps": 0}, "steps >= 1"),
    ],
    ids=["bogus-kind", "steps-0"],
)
def test_select_origin_rejects_bad_settings_before_any_work(rng, svd_calls, tasks, kind,
                                                            options, message):
    # With one task the solver never runs, and with none the input is empty:
    # the settings are still checked first.
    pre, *rest = _checkpoints(rng, count=1 + tasks)
    with pytest.raises(ValueError, match=message):
        select_origin(kind, pre, rest, **options)
    assert svd_calls == []


# ---------------------------------------------------------------------------
# origin layers on the factoring pool

# Matrix layers of four sizes, listed smallest first, plus a vector.
POOL_LAYERS = {"a.weight": (5, 4), "b.weight": (6, 9), "c.weight": (12, 7), "d.weight": (16, 10),
               "d.bias": (16,)}


def _pool_checkpoints(g: np.random.Generator, tasks: int = 3) -> tuple[TensorMap, list[TensorMap]]:
    maps = [TensorMap({name: g.standard_normal(shape) for name, shape in POOL_LAYERS.items()})
            for _ in range(tasks + 1)]
    return maps[0], maps[1:]


def test_rankmin_layers_solve_bit_for_bit_on_any_worker_count(rng, blas_setting):
    pre, rest = _pool_checkpoints(rng)
    runs = []
    for workers in (1, 2, 4):
        blas_setting(workers, OMP_NUM_THREADS="1")
        assert pool.factor_workers() == workers
        traces: dict[str, SolverTrace] = {}
        runs.append((select_origin("rankmin", pre, rest, trace_out=traces, rankmin_steps=12),
                     traces))
    for out, traces in runs:
        # Traces are collected in the checkpoint's order, whatever order the layers ran in.
        assert list(traces) == ["a.weight", "b.weight", "c.weight", "d.weight"]
        for name in traces:
            alone, alone_trace = rankmin_origin([m[name] for m in rest], steps=12)
            np.testing.assert_array_equal(out[name], alone)
            assert traces[name].records == alone_trace.records
        np.testing.assert_array_equal(out["d.bias"], mean_origin([m["d.bias"] for m in rest]))


def test_the_largest_overflowing_layer_is_raised_on_any_worker_count(rng, blas_setting):
    pre, rest = _pool_checkpoints(rng)
    # The two middle layers' |FIP| sums overflow float64. The larger of
    # them, c.weight, runs second, after d.weight.
    rest = [TensorMap({name: 1e160 * arr if name in ("b.weight", "c.weight") else arr
                       for name, arr in m.items()}) for m in rest]

    def only_b(name, tensor):
        return name == "b.weight"

    with pytest.raises(NumericError, match="^b.weight: "):
        select_origin("rankmin", pre, rest, classifier=only_b, rankmin_steps=3)
    for workers in (1, 2, 4):
        blas_setting(workers, OMP_NUM_THREADS="1")
        with pytest.raises(NumericError) as raised:
            select_origin("rankmin", pre, rest, rankmin_steps=3)
        assert str(raised.value) == "c.weight: the rank-minimization trace is not finite in float64"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["mean", "pretrained"])
def test_mean_and_pretrained_layers_are_bit_identical_on_any_worker_count(rng, blas_setting,
                                                                          kind, dtype):
    pre, rest = _pool_checkpoints(rng)
    pre = TensorMap({name: arr.astype(dtype) for name, arr in pre.items()})
    rest = [TensorMap({name: arr.astype(dtype) for name, arr in m.items()}) for m in rest]
    for workers in (1, 2, 4):
        blas_setting(workers, OMP_NUM_THREADS="1")
        out = select_origin(kind, pre, rest)
        assert out.names() == pre.names()
        for name, arr in out.items():
            if kind == "pretrained" and arr.ndim == 2:
                expected = pre[name]
            else:
                expected = reference_mean([m[name] for m in rest]).astype(dtype)
            assert arr.dtype == dtype and arr.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind", ["mean", "pretrained", "rankmin"])
def test_the_largest_layer_whose_mean_overflows_is_raised_on_any_worker_count(rng, blas_setting,
                                                                              kind):
    pre, rest = _pool_checkpoints(rng)
    # Every task holds 1.7e308 in a.weight, c.weight and d.bias: finite, but
    # their sums overflow float64. c.weight is the largest of them. The
    # pretrained kind passes its Matrix layers through and averages d.bias.
    rest = [TensorMap({name: np.full_like(arr, 1.7e308) if name in ("a.weight", "c.weight",
                                                                      "d.bias") else arr
                       for name, arr in m.items()}) for m in rest]
    expected = "d.bias" if kind == "pretrained" else "c.weight"
    for workers in (1, 2, 4):
        blas_setting(workers, OMP_NUM_THREADS="1")
        with pytest.raises(NumericError, match=f"^{expected}: .*overflows float64"):
            select_origin(kind, pre, rest, rankmin_steps=2)


def test_every_input_is_checked_before_any_layer_is_solved(rng, svd_calls):
    pre, rest = _pool_checkpoints(rng)
    bias = rest[2]["d.bias"].copy()
    bias[5] = np.inf
    rest[2] = TensorMap({**dict(rest[2].items()), "d.bias": bias})
    with pytest.raises(NumericError, match="^d.bias: a checkpoint holds NaN or infinite values"):
        select_origin("rankmin", pre, rest, rankmin_steps=2)
    assert svd_calls == []
