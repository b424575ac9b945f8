"""End-to-end acceptance gate.

One test per numbered criterion in ``conftest.CRITERIA``; each computes its
quantity at the stated tolerance, checks the stated runtime budget, and
registers a verdict so the terminal summary prints a PASS/FAIL line per
criterion.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from rankmerge import (
    TensorMap,
    build_task_vectors,
    cart_merge,
    certify_suites,
    interference_report,
    merge,
    prune_ranks,
    rank_sweep,
    rankmin_origin,
    sample_size,
    select_origin,
    simmin_objective,
    ste_masked_singulars,
    svd,
    task_interference_L,
    truncate,
    weight_average,
)
from rankmerge import adapt_coefficients, classification_sweep_suite, signal_noise_suite
from rankmerge.adaptation import (
    INIT_COEFFICIENT,
    Batch,
    ToyClassifier,
    coefficient_gradient,
    entropy_loss,
)
from rankmerge.kernels import reconstruct
from rankmerge.origin import mean_origin
from rankmerge.rng import orthonormal, stream
from rankmerge.cli import main

from conftest import record, random_tensor_map
from oracles import (
    fd_gradient,
    reference_cross_task_loss,
    reference_reconstruction_error,
    reference_tail_energy,
)
from oracles import reference_nuclear_norm as nuclear_norm

SHAPES = {"enc.0.weight": (12, 9), "enc.1.weight": (7, 7), "enc.0.bias": (12,)}


def _toy_checkpoints(seed: int, tasks: int = 3) -> list[TensorMap]:
    g = stream(seed, "acceptance-toys")
    return [random_tensor_map(g, SHAPES) for _ in range(tasks)]


# ---------------------------------------------------------------------------
# 1 — full-rank mean-origin merges do not depend on the coefficient


def test_mean_origin_merge_ignores_lambda():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(5):
        finetuned = _toy_checkpoints(seed)
        avg = weight_average(finetuned)
        merges = [
            cart_merge(avg, finetuned, rank_ratio=1.0, lam=lam)
            for lam in (0.0, 0.3, 1.0, 3.0)
        ]
        for other in merges[1:]:
            for name in merges[0].names():
                worst = max(worst, float(np.max(np.abs(merges[0][name] - other[name]))))
    elapsed = time.perf_counter() - start
    record(1, worst < 1e-9 and elapsed < 1.0, f"max deviation {worst:.3g}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2 — rank-ratio endpoints collapse to the baselines


def test_rank_ratio_endpoints_collapse():
    start = time.perf_counter()
    finetuned = _toy_checkpoints(1)
    pretrained = _toy_checkpoints(101, tasks=1)[0]
    avg = weight_average(finetuned)

    worst = 0.0
    for ratio in (0.0, 1.0):
        merged = cart_merge(avg, finetuned, rank_ratio=ratio, lam=0.7)
        for name in avg.names():
            worst = max(worst, float(np.max(np.abs(merged[name] - avg[name]))))

    # Pretrained origin at ratio 0: every delta is zeroed, so Matrix layers
    # come back bit-for-bit; vector parameters are the origin's too.
    tvs = prune_ranks(build_task_vectors(pretrained, finetuned), 0.0)
    back = merge(tvs, 0.3)
    exact = all(
        np.array_equal(back[name], pretrained[name])
        for name in ("enc.0.weight", "enc.1.weight")
    )
    elapsed = time.perf_counter() - start
    record(
        2,
        worst < 1e-6 and exact and elapsed < 1.0,
        f"max endpoint deviation {worst:.3g}, pretrained exact={exact}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3 — truncation residual equals the spectral tail


def test_truncation_residual_tracks_the_tail():
    start = time.perf_counter()
    g = stream(3, "acceptance-eckart")
    worst = 0.0
    for _ in range(200):
        m = int(g.integers(2, 65))
        n = int(g.integers(2, 49))
        a = g.standard_normal((m, n))
        k = int(g.integers(0, min(m, n) + 1))
        approx = reconstruct(truncate(svd(a), k))
        residual = float(np.sum((a - approx) ** 2))
        tail = reference_tail_energy(a, k)
        total = float(np.sum(a**2))
        worst = max(worst, abs(residual - tail) / max(total, 1.0))
    elapsed = time.perf_counter() - start
    record(3, worst < 1e-8 and elapsed < 5.0, f"max relative error {worst:.3g}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4 — the mean is a stationary global minimum of the pairwise overlap


def test_mean_minimizes_pairwise_overlap():
    start = time.perf_counter()
    ok = True
    details = []
    for seed in range(3):
        g = stream(seed, "acceptance-simmin")
        layers = [g.standard_normal((8, 6)) for _ in range(4)]
        origin = mean_origin(layers)
        base = simmin_objective(origin, layers)
        scale = max(1.0, sum(float(np.sum((l - origin) ** 2)) for l in layers))
        grad = fd_gradient(lambda x: simmin_objective(x, layers), origin)
        grad_ok = float(np.max(np.abs(grad))) < 1e-6 * scale
        bumps_ok = all(
            simmin_objective(origin + 0.5 * g.standard_normal(origin.shape), layers)
            >= base - 1e-12
            for _ in range(100)
        )
        ok = ok and grad_ok and bumps_ok
        details.append(f"|grad|={float(np.max(np.abs(grad))):.2g}")
    elapsed = time.perf_counter() - start
    record(4, ok and elapsed < 5.0, f"{'; '.join(details)}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5 — the nuclear-norm solver makes real progress without raising overlap


def _abs_fip(layers, origin) -> float:
    deltas = [l - origin for l in layers]
    total = 0.0
    for i in range(len(deltas)):
        for j in range(i):
            total += abs(float(np.sum(deltas[i] * deltas[j])))
    return total


def test_nuclear_solver_descends_on_shared_structure():
    start = time.perf_counter()
    decreases = 0
    fip_ok = 0
    for i in range(20):
        g = stream(i, "rankmin-instances")
        shared = 2.0 * g.standard_normal((14, 10))
        layers = [
            shared + 3.0 * np.outer(g.standard_normal(14), g.standard_normal(10)) / np.sqrt(140)
            for _ in range(4)
        ]
        theta, trace = rankmin_origin(layers, steps=200)
        initial = trace.records[0][1]
        final = sum(nuclear_norm(l - theta) for l in layers)
        if final <= 0.90 * initial:
            decreases += 1
        if _abs_fip(layers, theta) <= _abs_fip(layers, mean_origin(layers)) + 1e-9:
            fip_ok += 1
    elapsed = time.perf_counter() - start
    record(
        5,
        decreases == 20 and fip_ok == 20 and elapsed < 30.0,
        f"{decreases}/20 descended >=10%, {fip_ok}/20 kept |FIP| down, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 6 — the cross-task loss bound holds, and L matches brute force


def test_interference_bound_holds_at_scale():
    start = time.perf_counter()
    g = stream(6, "acceptance-bound")
    specs = []
    for _ in range(1000):
        d = int(g.integers(4, 9))
        t = int(g.integers(3, 5))
        n = int(g.integers(1, 6))
        r = int(g.integers(1, min(3, d) + 1))
        alpha = float(g.uniform(0.2, 1.0))
        s_max = alpha * float(g.uniform(1.0, 3.0))
        c = float(g.uniform(0.5, 2.0))
        eta = float(g.uniform(0.0, 0.5))
        specs.append((d, t, n, r, alpha, s_max, c, eta, int(g.integers(0, 2**31))))
    violations = 0
    worst_l = 0.0
    for i, (suite, cert) in enumerate(certify_suites(specs)):
        if not cert.holds:
            violations += 1
        if i < 50:
            brute = reference_cross_task_loss(suite.taus, suite.inputs)
            worst_l = max(worst_l, abs(cert.L_value - brute) / max(brute, 1e-300))
    elapsed = time.perf_counter() - start
    record(
        6,
        violations == 0 and worst_l < 1e-9 and elapsed < 60.0,
        f"{violations}/1000 violations, max L mismatch {worst_l:.3g}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 7 — centering lowers interference when tasks share a component


def test_centering_lowers_interference():
    start = time.perf_counter()
    wins = 0
    cells = 0
    for s in range(50):
        g = stream(s, "interference-ordering")
        shared = 5.0 * (
            orthonormal(g, 24, 3) @ np.diag([1.0, 0.8, 0.6]) @ orthonormal(g, 20, 3).T
        )
        pretrained_deltas = []
        for _ in range(3):
            lu = orthonormal(g, 24, 4)
            lv = orthonormal(g, 20, 4)
            pretrained_deltas.append(shared + lu @ (0.7 * np.linspace(1.0, 0.5, 4)[:, None] * lv.T))
        # The deltas are the checkpoints, measured from a zero pretrained
        # origin or centered on their mean.
        finetuned = [TensorMap({"w": d}) for d in pretrained_deltas]
        pretrained = TensorMap({"w": np.zeros_like(pretrained_deltas[0])})
        curves = {
            kind: interference_report(
                build_task_vectors(select_origin(kind, pretrained, finetuned), finetuned),
                ks=range(1, 21),
            ).interference["w"]
            for kind in ("pretrained", "mean")
        }
        for (_, raw), (_, centered) in zip(curves["pretrained"], curves["mean"], strict=True):
            cells += 1
            if centered <= raw:
                wins += 1
    elapsed = time.perf_counter() - start
    record(
        7,
        wins >= 0.95 * cells and elapsed < 30.0,
        f"centered lower in {wins}/{cells} cells ({100 * wins / cells:.1f}%), {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 8 — accuracy over the rank sweep peaks strictly inside the ratio range


def test_rank_sweep_is_interior_peaked():
    start = time.perf_counter()
    suite = classification_sweep_suite(seed=0)
    ratios = [0.0, 0.04, 0.08, 0.16, 0.32, 1.0]
    origin = weight_average(suite.finetuned)
    rows = rank_sweep(origin, suite.finetuned, suite.evaluator, [1.0], ratios)
    by_ratio = {row.ratio: row.mean_accuracy for row in rows}
    interior_best = max(v for r, v in by_ratio.items() if r not in (0.0, 1.0))
    margin = interior_best - max(by_ratio[0.0], by_ratio[1.0])
    elapsed = time.perf_counter() - start
    record(
        8,
        margin >= 0.02 and elapsed < 60.0,
        f"interior best {interior_best:.3f} vs endpoints {by_ratio[0.0]:.3f}/{by_ratio[1.0]:.3f}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 9 — the reconstruction curve behaves like a tail energy


def test_reconstruction_curve_is_a_tail_energy():
    start = time.perf_counter()
    finetuned = _toy_checkpoints(9, tasks=4)
    tvs = build_task_vectors(weight_average(finetuned), finetuned)
    report = interference_report(tvs)
    ok = True
    worst = 0.0
    for name, curve in report.reconstruction.items():
        values = [v for _, v in curve]
        ok = ok and all(a >= b - 1e-15 for a, b in zip(values, values[1:]))
        ok = ok and values[-1] <= 1e-8 * max(values[0], 1e-300)
        deltas = [reconstruct(tvs.deltas[name][t]) for t in range(tvs.task_count)]
        origin = np.zeros_like(deltas[0])
        for k, v in curve:
            residual_route = reference_reconstruction_error(deltas, origin, k)
            oracle = sum(reference_tail_energy(d, k) for d in deltas)
            scale = max(values[0], 1.0)
            worst = max(worst, abs(v - residual_route) / scale, abs(v - oracle) / scale)
    elapsed = time.perf_counter() - start
    record(
        9,
        ok and worst < 1e-8 and elapsed < 5.0,
        f"max route mismatch {worst:.3g}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 10 — entropy adaptation: exact gradients and sensible coefficients

LAYERS = ("net.0.weight", "net.1.weight")


def _adaptation_bed(seed: int):
    g = stream(seed, "acceptance-adaptation")
    w1 = g.standard_normal((5, 6))
    w2 = g.standard_normal((4, 5))
    heads = tuple(g.standard_normal((3, 4)) for _ in range(3))
    model = ToyClassifier(LAYERS, (w1, w2), heads)
    finetuned = [
        TensorMap(
            {
                LAYERS[0]: w1 + 0.5 * g.standard_normal((5, 6)),
                LAYERS[1]: w2 + 0.5 * g.standard_normal((4, 5)),
            }
        )
        for _ in range(3)
    ]
    tvs = build_task_vectors(weight_average(finetuned), finetuned)
    batch = Batch(task_ids=g.integers(0, 3, size=12), inputs=g.standard_normal((12, 6)))
    return model, tvs, batch


def test_entropy_adaptation_end_to_end():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        model, tvs, batch = _adaptation_bed(seed)
        values = np.full((tvs.task_count, len(tvs.matrix_names())), INIT_COEFFICIENT)
        exact = coefficient_gradient(values, tvs, model, batch)

        def loss_at(values: np.ndarray) -> float:
            return entropy_loss(model.with_backbone(merge(tvs, values)), batch)

        approx = fd_gradient(loss_at, values)
        worst = max(worst, float(np.max(np.abs(exact - approx))) / max(1.0, float(np.max(np.abs(exact)))))

    suite = signal_noise_suite(seed=0)
    tvs = build_task_vectors(weight_average(suite.finetuned), suite.finetuned)
    values, history = adapt_coefficients(tvs, suite.template, [suite.batch], steps=60, lr=0.05)
    descended = history[-1][1] <= history[0][1]
    means = np.mean(values, axis=1)
    ordered = means[0] > means[1]
    elapsed = time.perf_counter() - start
    record(
        10,
        worst < 1e-4 and descended and ordered and elapsed < 60.0,
        f"max gradient error {worst:.3g}, entropy {history[0][1]:.3f}->{history[-1][1]:.3f}, "
        f"task means {means[0]:.3f}>{means[1]:.3f}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 11 — straight-through masks: hard forward, soft backward


def test_straight_through_mask_contract():
    start = time.perf_counter()
    g = stream(11, "acceptance-ste")
    ok = True
    worst = 0.0
    for _ in range(50):
        singulars = np.abs(g.standard_normal(8)) + 0.05
        logits = 3.0 * g.standard_normal(8)
        masked, grad = ste_masked_singulars(singulars, logits)
        hard = (1.0 / (1.0 + np.exp(-logits))) > 0.5
        ok = ok and np.array_equal(masked, np.where(hard, singulars, 0.0))

        def soft_sum(a: np.ndarray) -> float:
            return float(np.sum(singulars / (1.0 + np.exp(-a))))

        fd = fd_gradient(soft_sum, logits)
        worst = max(worst, float(np.max(np.abs(grad - fd))) / max(1.0, float(np.max(np.abs(grad)))))
    elapsed = time.perf_counter() - start
    record(
        11,
        ok and worst < 1e-4 and elapsed < 5.0,
        f"hard forward exact={ok}, max backward error {worst:.3g}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 12 — evaluation-set planning


def test_sample_size_plan():
    start = time.perf_counter()
    anchor = sample_size(0.0, 1.0, 0.05, 1.96)
    halved = sample_size(0.0, 1.0, 0.025, 1.96)
    wider = sample_size(0.0, 2.0, 0.05, 1.96)
    stricter = sample_size(0.0, 1.0, 0.05, 2.58)
    ok = (
        anchor == 385
        and 4 * anchor - 4 <= halved <= 4 * anchor  # quadruples, modulo ceiling
        and 4 * anchor - 4 <= wider <= 4 * anchor
        and stricter > anchor
        and sample_size(0.0, 1.0, 0.2, 1.96) < anchor
    )
    elapsed = time.perf_counter() - start
    record(12, ok and elapsed < 1.0, f"m(0,1,0.05,1.96)={anchor}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 13 — the random-study commands are byte-reproducible


def _run_and_collect(argv: list[str], out) -> dict[str, bytes]:
    assert main(argv + ["--out-dir", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_study_commands_are_byte_reproducible(tmp_path, capsys):
    start = time.perf_counter()
    sweep_args = ["sweep", "--seed", "7", "--ratios", "0.0,0.08,0.32,1.0", "--lambdas", "0.5,1.0"]
    certify_args = ["certify", "--seed", "7", "--suites", "25"]

    ok = True
    for label, argv in (("sweep", sweep_args), ("certify", certify_args)):
        first = _run_and_collect(argv, tmp_path / f"{label}-a")
        rerun = _run_and_collect(argv, tmp_path / f"{label}-a")  # same dir, fresh run
        other_dir = _run_and_collect(argv, tmp_path / f"{label}-b")
        ok = ok and first == rerun
        # Data artifacts must not depend on where they are written; the
        # manifest legitimately differs because it records out_dir.
        data = set(first) - {"manifest.json"}
        ok = ok and {n: first[n] for n in data} == {n: other_dir[n] for n in data}
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    record(13, ok and elapsed < 60.0, f"byte-identical reruns={ok}, {elapsed:.2f}s")
