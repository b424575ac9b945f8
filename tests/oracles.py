"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written along a different computational
route than the package: spectra come from the Gram matrix's
eigendecomposition instead of LAPACK's SVD driver, residuals from dense
subtraction instead of tail sums, interference and losses from Python
loops instead of vectorized matmuls, and gradients from central finite
differences. Slow and simple on purpose.
"""

from __future__ import annotations

import math

import numpy as np


def reference_singulars(a: np.ndarray) -> np.ndarray:
    """Singular values (descending) via eigh of the Gram matrix A^T A.

    Only the top min(m, n) eigenvalues are meaningful — the rest are exact
    zeros polluted by floating-point noise, so they are dropped."""
    a = np.asarray(a, dtype=np.float64)
    evals = np.linalg.eigvalsh(a.T @ a)
    return np.sqrt(np.clip(evals, 0.0, None))[::-1][: min(a.shape)]


def reference_nuclear_norm(a: np.ndarray) -> float:
    return float(np.sum(reference_singulars(a)))


def reference_subgradient_rankmin(layers, steps: int = 200) -> tuple[np.ndarray, float]:
    r"""``(theta, objective)`` of the best iterate of the subgradient solver
    that the majorize-minimize step replaced, each task factored on its own.

    From the mean, :math:`\theta \leftarrow \theta + \eta_s \tfrac{1}{T}
    \sum_t U_t V_t^\top` over the singular values above ``1e-10`` of the
    largest, with :math:`\eta_s = 0.1\,\bar\sigma / \sqrt{s}` and
    :math:`\bar\sigma` the mean singular value at the mean."""
    thetas = [np.asarray(l, dtype=np.float64) for l in layers]
    theta = sum(thetas) / len(thetas)

    def factor(theta):
        objective, grad, spectra = 0.0, np.zeros_like(theta), []
        for layer in thetas:
            u, s, vt = np.linalg.svd(layer - theta, full_matrices=False)
            r = int(np.sum(s > 1e-10 * s[0])) if s[0] > 0.0 else 0
            grad += u[:, :r] @ vt[:r]
            objective += float(np.sum(s))
            spectra.append(s)
        return objective, grad, np.concatenate(spectra)

    best, grad, spectra = factor(theta)
    best_theta, step_size = theta, 0.1 * float(np.mean(spectra))
    for step in range(1, steps + 1):
        theta = theta + (step_size / np.sqrt(step)) * (grad / len(thetas))
        objective, grad, _ = factor(theta)
        if objective < best:
            best_theta, best = theta, objective
    return best_theta, best


def reference_tail_energy(a: np.ndarray, k: int) -> float:
    """Squared Frobenius distance from A to its best rank-k approximation."""
    s = reference_singulars(a)
    return float(np.sum(s[k:] ** 2))


def reference_reconstruction_error(thetas, origin: np.ndarray, k: int) -> float:
    r"""R(k) from its definition, :math:`\sum_t \|\delta_t -
    \mathrm{SVD}_k(\delta_t)\|_F^2` with :math:`\delta_t = \theta_t -
    \text{origin}`: each delta truncated through ``np.linalg.svd`` and
    subtracted densely. ``k`` must lie in ``[0, min(m, n)]``."""
    origin = np.asarray(origin, dtype=np.float64)
    total = 0.0
    for theta in thetas:
        delta = np.asarray(theta, dtype=np.float64) - origin
        u, s, vt = np.linalg.svd(delta, full_matrices=False)
        residual = delta - (u[:, :k] * s[:k]) @ vt[:k]
        total += float(np.linalg.norm(residual)) ** 2
    return total


def reference_interference(deltas, k: int) -> float:
    """I(k) by a loop over ordered task pairs and k x k entries, straight
    from the definition: top-k singular values over the full spectrum's
    norm, and top-k right singular vectors, from ``np.linalg.svd``."""
    scaled, rows = [], []
    for d in deltas:
        _, s, vt = np.linalg.svd(d)
        scaled.append(s[:k] / np.linalg.norm(s))
        rows.append(vt[:k])
    total = 0.0
    for i in range(len(deltas)):
        for j in range(len(deltas)):
            if i != j:
                cell = 0.0
                for a in range(k):
                    for b in range(k):
                        cell += (scaled[i][a] * float(rows[i][a] @ rows[j][b]) * scaled[j][b]) ** 2
                total += cell**0.5
    return total


def reference_row_projector(a: np.ndarray, k: int) -> np.ndarray:
    """Orthogonal projector onto the top-k right-singular subspace of A."""
    a = np.asarray(a, dtype=np.float64)
    evals, evecs = np.linalg.eigh(a.T @ a)
    top = evecs[:, np.argsort(evals)[::-1][:k]]
    return top @ top.T


def reference_cross_task_loss(taus, inputs) -> float:
    """Plain triple loop over tasks, samples, and the other tasks' updates."""
    total = 0.0
    for t in range(len(taus)):
        for x in inputs[t]:
            v = np.zeros(taus[0].shape[0])
            for s in range(len(taus)):
                if s != t:
                    v = v + taus[s] @ x
            total += float(v @ v)
    return total


def reference_entropy(weights, heads, task_ids, inputs) -> float:
    """Mean posterior entropy, one sample at a time, scalar math throughout.

    ``weights`` are applied as x <- tanh(W x) with the final layer linear,
    then the sample's task head and a softmax.
    """
    total = 0.0
    for task, x in zip(task_ids, inputs):
        h = np.asarray(x, dtype=np.float64)
        for i, w in enumerate(weights):
            h = w @ h
            if i < len(weights) - 1:
                h = np.tanh(h)
        logits = heads[int(task)] @ h
        shifted = logits - max(logits)
        z = sum(math.exp(v) for v in shifted)
        entropy = 0.0
        for v in shifted:
            p = math.exp(v) / z
            if p > 0.0:
                entropy -= p * math.log(p)
        total += entropy
    return total / len(inputs)


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + h
        up = f(bumped)
        bumped[idx] = x[idx] - h
        down = f(bumped)
        grad[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return grad


def reference_simmin(origin: np.ndarray, layers) -> float:
    """Sum of pairwise inner products of deviations, scalar accumulation."""
    total = 0.0
    for i in range(len(layers)):
        for j in range(i):
            a = np.asarray(layers[i], dtype=np.float64) - origin
            b = np.asarray(layers[j], dtype=np.float64) - origin
            total += float(np.sum(a * b))
    return total


# ---------------------------------------------------------------------------
# The bound certificate, one suite and one matrix at a time: the per-suite
# route that the batched ``certify`` replaced, kept to check that every
# certificate line stays bit for bit the same.


def _reference_orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))[None, :]


def _reference_ball(rng: np.random.Generator, dim: int, radius: float, count: int) -> np.ndarray:
    directions = rng.standard_normal((count, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / dim)
    return directions / norms * radii


def reference_suite(d, T, n, r, alpha, s_max, c, eta, seed):
    """``(theta0, taus, inputs, row_bases)`` of one suite, drawn task by task."""
    from rankmerge.rng import stream

    rng = stream(seed, "synthetic-suite")
    theta0 = rng.standard_normal((d, d))
    taus, row_bases, inputs = [], [], []
    for _ in range(T):
        left = _reference_orthonormal(rng, d, r)
        right = _reference_orthonormal(rng, d, r)
        singulars = np.sort(rng.uniform(alpha, s_max, size=r))[::-1]
        taus.append(left @ (singulars[:, None] * right.T))
        row_bases.append(right)
        coeffs = _reference_ball(rng, r, c * s_max, n)
        noise = _reference_ball(rng, d, 1.0, n) * eta
        inputs.append(coeffs @ right.T + noise)
    return theta0, taus, inputs, row_bases


def reference_certificate_line(d, T, n, r, alpha, s_max, c, eta, seed) -> str:
    """The JSONL certificate of one suite: each update factored on its own,
    I from a loop over task pairs, L from a loop over tasks."""
    import json

    _, taus, inputs, _ = reference_suite(d, T, n, r, alpha, s_max, c, eta, seed)
    factors = [np.linalg.svd(tau, full_matrices=False) for tau in taus]
    r_max = 0
    for _, s, _ in factors:
        r_max = max(r_max, int(np.sum(s > 1e-10 * s[0])) if s[0] > 0.0 else 0)
    weighted = [(s / float(np.linalg.norm(s)))[:, None] * vt for _, s, vt in factors]
    interference = np.zeros(1)
    for i in range(T):
        for j in range(i + 1, T):
            overlap = weighted[i] @ weighted[j].T
            energy = np.zeros((overlap.shape[0] + 1, overlap.shape[1] + 1))
            energy[1:, 1:] = np.cumsum(np.cumsum(overlap**2, axis=0), axis=1)
            interference += 2.0 * np.sqrt(energy[[r_max], [r_max]])
    interference = float(interference[0])
    k3 = s_max**2 * c * (r_max * s_max**2 / alpha**2)
    bound = n * (k3 * interference + T * (T - 1) * s_max * eta) ** 2
    loss = 0.0
    for t in range(T):
        others = sum(taus[s] for s in range(T) if s != t)
        loss += float(np.sum((inputs[t] @ others.T) ** 2))
    return json.dumps({
        "seed": seed, "d": d, "T": T, "n": n, "r": r, "alpha": alpha, "s_max": s_max, "c": c,
        "eta": eta, "L": loss, "I": interference, "bound": bound, "holds": bool(loss <= bound),
    })


# ---------------------------------------------------------------------------
# The two coefficient-descent loops that one shared loop replaced: plain
# coefficients, and coefficients with a mask on every layer. Kept to check
# that both adaptations stay bit for bit the same.


def _reference_masked(tvs, logits):
    """The set holding only the masked layers, and each mask's soft path."""
    import dataclasses

    from rankmerge.adaptation import ste_masked_singulars
    from rankmerge.kernels import LowRankFactor

    deltas, soft_paths = {}, {}
    for name, a in logits.items():
        f = tvs.deltas[name]
        kept, soft_paths[name] = ste_masked_singulars(f.singulars, a)
        deltas[name] = LowRankFactor(f.left, kept, f.right)
    return dataclasses.replace(tvs, deltas=deltas), soft_paths


def reference_adapt_coefficients(tvs, model, batches, steps, lr):
    """``(values, history)`` of plain coefficient descent."""
    from rankmerge.adaptation import INIT_COEFFICIENT, _coefficient_grads, entropy_loss
    from rankmerge.merge import merge

    values = np.full((tvs.task_count, len(tvs.matrix_names())), INIT_COEFFICIENT)
    history = []
    for step in range(steps):
        batch = batches[step % len(batches)]
        loss, grid, _ = _coefficient_grads(values, tvs, model, batch)
        history.append((step, loss, float(np.mean(values))))
        values = values - lr * grid
    final_loss = entropy_loss(model.with_backbone(merge(tvs, values)), batches[0])
    history.append((steps, final_loss, float(np.mean(values))))
    return values, history


def reference_adarank_adapt(tvs, model, batches, init_k, steps, lr):
    """``(logits, values, history)`` of joint mask and coefficient descent."""
    from rankmerge.adaptation import INIT_COEFFICIENT, _coefficient_grads, entropy_loss
    from rankmerge.merge import merge

    logits = {}
    for name in tvs.matrix_names():
        a = -np.ones((tvs.task_count, tvs.deltas[name].k))
        a[:, :init_k] = 1.0
        logits[name] = a
    values = np.full((tvs.task_count, len(tvs.matrix_names())), INIT_COEFFICIENT)
    history = []
    for step in range(steps):
        batch = batches[step % len(batches)]
        masked, soft_paths = _reference_masked(tvs, logits)
        loss, grid, projections = _coefficient_grads(values, masked, model, batch)
        history.append((step, loss, float(np.mean(values))))
        for l, name in enumerate(tvs.matrix_names()):
            grad = values[:, l, None] * projections[name] * soft_paths[name]
            logits[name] = logits[name] - lr * grad
        values = values - lr * grid
    masked, _ = _reference_masked(tvs, logits)
    final_loss = entropy_loss(model.with_backbone(merge(masked, values)), batches[0])
    history.append((steps, final_loss, float(np.mean(values))))
    return logits, values, history


def reference_mean(layers) -> np.ndarray:
    """The float64 sum of the layers in list order, divided by their count."""
    total = np.asarray(layers[0], dtype=np.float64)
    for layer in layers[1:]:
        total = total + np.asarray(layer, dtype=np.float64)
    return total / len(layers)
