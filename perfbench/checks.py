"""Independent output checks.

Each check recomputes what a command should have produced from the
benchmark's own numpy code and the inputs, never from ``rankmerge``, and
returns a list of problems (empty when the output is correct). They run
outside the timed region.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from inputs import read_checkpoint, sha256_file

# Outputs are float32; 1e-6 of the largest magnitude is ~15 float32 ulps,
# while a wrong rank, coefficient or origin moves entries by far more.
F32_RTOL = 1e-6
# Diagnostics are float64 end to end.
F64_RTOL = 1e-9


def rank_k(ratio: float, m: int, n: int) -> int:
    """Retained rank ``ceil(ratio * min(m, n))``, rounded to 9 decimals first."""
    full = min(m, n)
    return min(full, math.ceil(round(ratio * full, 9)))


def truncated(delta: np.ndarray, k: int) -> np.ndarray:
    """Best rank-k approximation (Eckart-Young) of ``delta``."""
    u, s, vt = np.linalg.svd(delta, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vt[:k]


def _stack(tasks: list[dict[str, np.ndarray]], name: str) -> list[np.ndarray]:
    return [t[name].astype(np.float64) for t in tasks]


def mean64(tasks: list[dict[str, np.ndarray]], name: str) -> np.ndarray:
    return sum(_stack(tasks, name)) / len(tasks)


def _mismatch(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = max(float(np.abs(expected).max()), 1e-30)
    return float(np.abs(actual.astype(np.float64) - expected).max()) / scale


def check_checkpoint(path: Path, names: set[str], expected: dict[str, np.ndarray]) -> list[str]:
    """The file holds exactly ``names``, all finite, and matches ``expected``."""
    try:
        got = read_checkpoint(path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    problems = []
    if set(got) != names:
        problems.append(f"{path.name}: tensors {sorted(set(got) ^ names)} differ from the inputs")
    for name, arr in got.items():
        if not np.all(np.isfinite(arr)):
            problems.append(f"{path.name}: {name} has non-finite entries")
    for name, want in expected.items():
        if name not in got or got[name].shape != want.shape:
            problems.append(f"{path.name}: {name} missing or misshapen")
            continue
        err = _mismatch(got[name], want)
        if err > F32_RTOL:
            problems.append(f"{path.name}: {name} off by {err:.3e} relative")
    return problems


def merge_expected(
    tasks: list[dict[str, np.ndarray]], layer: str, ratio: float, lam: float
) -> dict[str, np.ndarray]:
    """``merge --origin mean``: the sampled matrix is
    ``mean + lam * sum_t SVD_k(theta_t - mean)`` and every vector is the mean.

    The mean origin is stored in the checkpoints' dtype before the deltas are
    taken, as ``select_origin`` documents.
    """
    origin = mean64(tasks, layer).astype(tasks[0][layer].dtype).astype(np.float64)
    k = rank_k(ratio, *origin.shape)
    merged = origin + lam * sum(truncated(t - origin, k) for t in _stack(tasks, layer))
    expected = {layer: merged}
    expected.update({n: mean64(tasks, n) for n, a in tasks[0].items() if a.ndim != 2})
    return expected


def index_expected(
    tasks: list[dict[str, np.ndarray]], layer: str, ratio: float, task_index: int
) -> dict[str, np.ndarray]:
    """``index``: the sampled matrix is ``mean + SVD_k(theta_i - mean)`` and
    every vector is the mean."""
    origin = mean64(tasks, layer)
    k = rank_k(ratio, *origin.shape)
    theta = tasks[task_index][layer].astype(np.float64)
    expected = {layer: origin + truncated(theta - origin, k)}
    expected.update({n: mean64(tasks, n) for n, a in tasks[0].items() if a.ndim != 2})
    return expected


def interference(factors: list[tuple[np.ndarray, np.ndarray]], k: int) -> float:
    r"""Row-space interference from the definition:
    :math:`\sum_{i \ne j} \|\tilde\Sigma_i \tilde V_i^\top \tilde V_j \tilde\Sigma_j\|_F`
    with top-k singular values divided by the norm of the full spectrum."""
    total = 0.0
    for i, (s_i, vt_i) in enumerate(factors):
        for j, (s_j, vt_j) in enumerate(factors):
            if i != j:
                w_i = s_i[:k] / np.linalg.norm(s_i)
                w_j = s_j[:k] / np.linalg.norm(s_j)
                total += float(np.linalg.norm(w_i[:, None] * (vt_i[:k] @ vt_j[:k].T) * w_j[None, :]))
    return total


def check_analyze(path: Path, tasks: list[dict[str, np.ndarray]]) -> list[str]:
    """Spectra, every R(k), and I(k) at a few k against the deltas around the
    mean origin (stored in the checkpoints' dtype)."""
    try:
        layers = json.loads(path.read_text())["layers"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    matrices = sorted(n for n, a in tasks[0].items() if a.ndim == 2)
    if sorted(layers) != matrices:
        return [f"{path.name}: layers {sorted(layers)} != {matrices}"]
    problems = []
    for name in matrices:
        origin = mean64(tasks, name).astype(tasks[0][name].dtype).astype(np.float64)
        factors = [np.linalg.svd(t - origin, full_matrices=False)[1:] for t in _stack(tasks, name)]
        full = min(origin.shape)
        entry = layers[name]
        spectra = np.array(entry["spectra"], dtype=np.float64)
        want = np.array([s for s, _ in factors])
        if spectra.shape != want.shape or _mismatch(spectra, want) > F64_RTOL:
            problems.append(f"{name}: spectra differ")
        tails = [sum(float(np.sum(s[k:] ** 2)) for s, _ in factors) for k in range(full + 1)]
        recon = entry["reconstruction"]
        if [k for k, _ in recon] != list(range(full + 1)):
            problems.append(f"{name}: R(k) not reported for k = 0..{full}")
        elif _mismatch(np.array([v for _, v in recon]), np.array(tails)) > F64_RTOL:
            problems.append(f"{name}: R(k) differs from the tail energy")
        curve = {k: v for k, v in entry["interference"]}
        if sorted(curve) != list(range(1, full + 1)):
            problems.append(f"{name}: I(k) not reported for k = 1..{full}")
            continue
        for k in (1, max(1, full // 16), full):
            want_i = interference(factors, k)
            if abs(curve[k] - want_i) > F64_RTOL * max(abs(want_i), 1.0):
                problems.append(f"{name}: I({k}) = {curve[k]!r}, expected {want_i!r}")
    return problems


def check_certify(path: Path, suites: int) -> list[str]:
    """One record per suite, each with finite L <= bound and ``holds`` true."""
    try:
        records = [json.loads(line) for line in path.read_text().splitlines()]
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if len(records) != suites:
        return [f"{path.name}: {len(records)} certificates for {suites} suites"]
    bad = [
        i for i, r in enumerate(records)
        if not (r.get("holds") is True and math.isfinite(r["L"]) and math.isfinite(r["bound"])
                and r["L"] <= r["bound"])
    ]
    return [f"{path.name}: certificates {bad[:5]} do not hold"] if bad else []


def check_sweep(path: Path, ratios: list[float], lambdas: list[float]) -> list[str]:
    """The full grid is reported; every endpoint cell (ratio 0 or 1) has the
    same per-task accuracies, since both collapse to the weight average for
    any lambda; and the best mean accuracy is reached at an interior ratio,
    with the interior not flat at the endpoint value.

    Ties between the interior peak and the endpoints are allowed: the toy
    suite yields them on a few seeds (17 and 92 of 1..100 with this grid).
    """
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cells: dict[tuple[float, float], dict[str, float]] = {}
        for r in rows:
            cells.setdefault((float(r["ratio"]), float(r["lambda"])), {})[r["task"]] = float(r["accuracy"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if sorted(cells) != sorted((r, l) for r in ratios for l in lambdas):
        return [f"{path.name}: grid cells differ from the requested grid"]
    if any("mean" not in c or not all(0.0 <= v <= 1.0 for v in c.values()) for c in cells.values()):
        return [f"{path.name}: a cell lacks its mean or has accuracy outside [0, 1]"]
    endpoints = [c for (r, _), c in cells.items() if r in (0.0, 1.0)]
    if any(c != endpoints[0] for c in endpoints):
        return [f"{path.name}: ratio-0 and ratio-1 cells differ across lambdas"]
    interior = [c["mean"] for (r, _), c in cells.items() if 0.0 < r < 1.0]
    endpoint = endpoints[0]["mean"]
    if max(interior) < endpoint or all(v == endpoint for v in interior):
        return [f"{path.name}: interior best {max(interior):.4f} vs endpoint {endpoint:.4f}"]
    return []


def check_adapt(directory: Path, iters: int) -> list[str]:
    """One history row per step plus the final one, and entropy went down."""
    try:
        with open(directory / "adaptation.csv", newline="") as fh:
            entropy = [float(r["entropy"]) for r in csv.DictReader(fh)]
        json.loads((directory / "coefficients.json").read_text())
    except (OSError, ValueError, KeyError) as exc:
        return [f"adapt outputs unreadable ({exc})"]
    if len(entropy) != iters + 1:
        return [f"adaptation.csv: {len(entropy)} rows for {iters} steps"]
    if not all(map(math.isfinite, entropy)) or not entropy[-1] < entropy[0]:
        return [f"adaptation.csv: entropy {entropy[0]!r} -> {entropy[-1]!r} did not decrease"]
    return []


def nuclear_sum(tasks: list[dict[str, np.ndarray]], name: str) -> float:
    origin = mean64(tasks, name)
    return sum(float(np.linalg.svd(t - origin, compute_uv=False).sum()) for t in _stack(tasks, name))


def check_rankmin(directory: Path, tasks: list[dict[str, np.ndarray]], steps: int) -> list[str]:
    """Per matrix layer: a trace row per step, a step-0 objective equal to
    the nuclear norms around the mean, and a best objective strictly below
    it (the solver descended); the merged checkpoint is finite and its
    vectors are the mean."""
    problems = []
    for name in sorted(n for n, a in tasks[0].items() if a.ndim == 2):
        path = directory / f"trace_{name.replace('/', '__')}.csv"
        try:
            with open(path, newline="") as fh:
                values = [float(r["nuclear_sum"]) for r in csv.DictReader(fh)]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path.name}: unreadable ({exc})")
            continue
        if len(values) != steps + 1:
            problems.append(f"{path.name}: {len(values)} rows for {steps} steps")
            continue
        initial = nuclear_sum(tasks, name)
        if abs(values[0] - initial) > F64_RTOL * initial:
            problems.append(f"{path.name}: initial objective {values[0]!r}, expected {initial!r}")
        if not min(values) < values[0]:
            problems.append(f"{path.name}: best objective {min(values)!r} is not below the initial one")
    vectors = {n: mean64(tasks, n) for n, a in tasks[0].items() if a.ndim != 2}
    problems += check_checkpoint(directory / "merged.ckpt", set(tasks[0]), vectors)
    return problems


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file a command wrote."""
    return {p.name: sha256_file(p) for p in sorted(directory.iterdir()) if p.is_file()}
