r"""Synthetic multi-task instances and numerical certification of the
cross-task interference bound.

Each instance draws T task updates :math:`\tau_t = U_t \,\mathrm{diag}(s)\,
V_t^\top` (orthonormal factors, singular values uniform on
:math:`[\alpha, s_{max}]`) and per-task inputs
:math:`x_{t,i} = V_t a_{t,i} + \epsilon_{t,i}` with the coefficient vector
drawn uniformly from the radius-:math:`c\,s_{max}` ball in task t's row
space and the noise uniformly from the radius-:math:`\eta` ambient ball.

The certified inequality bounds the summed cross-application loss

.. math::

    L = \sum_t \sum_i \Big\| \sum_{s \ne t} \tau_s x_{t,i} \Big\|_2^2
      \;\le\; n \,\big(k_3\, I + T(T-1)\, k_4\, \eta\big)^2,

with :math:`k_3 = s_{max}^2\, c \,(r\, s_{max}^2 / \alpha^2)`,
:math:`k_4 = s_{max}`, r the largest task-update rank, and I the row-space
interference evaluated at a k covering every task's row space.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvariantError, ParamError
from .interference import _interference
from .kernels import _singular_ranks, svd
from .rng import stream

__all__ = [
    "SyntheticTaskSuite",
    "BoundCertificate",
    "generate_suites",
    "task_interference_L",
    "certify_bounds",
    "certify_suites",
    "certificate_json_line",
]

# Suites generated and certified at once by :func:`certify_suites`: enough
# that each stacked QR and SVD amortizes its call over many small matrices,
# few enough that a chunk's draws take well under a megabyte.
_CHUNK = 128


@dataclass
class SyntheticTaskSuite:
    """One synthetic instance: generation parameters plus realized draws.

    ``row_bases[t]`` is the d-by-r matrix whose columns span task t's row
    space (the right factor of ``taus[t]``), kept so invariants stay
    checkable after generation.
    """

    d: int
    T: int
    n: int
    r: int
    alpha: float
    s_max: float
    c: float
    eta: float
    seed: int
    theta0: np.ndarray = field(repr=False)
    taus: list[np.ndarray] = field(repr=False)
    inputs: list[np.ndarray] = field(repr=False)
    row_bases: list[np.ndarray] = field(repr=False)


def _ball(directions: np.ndarray, uniforms: np.ndarray, radius: float) -> np.ndarray:
    """Points uniform in the radius-``radius`` ball of the last axis's
    dimension, from standard normal ``directions`` and ``uniforms`` on
    [0, 1) with a trailing axis of one: the directions normalized, scaled
    by ``radius * u**(1/dim)``. The draws do not depend on the radius, so
    regenerating with another radius rescales the same points."""
    dim = directions.shape[-1]
    norms = np.sqrt(np.add.reduce(directions * directions, axis=-1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return directions / norms * (radius * uniforms ** (1.0 / dim))


def _check_params(d: int, T: int, n: int, r: int, alpha: float, s_max: float, c: float,
                  eta: float) -> None:
    if T <= 2:
        raise ParamError(f"need T > 2 tasks, got {T}")
    if not 1 <= r <= d:
        raise ParamError(f"need 1 <= r <= d, got r={r}, d={d}")
    if n < 1:
        raise ParamError(f"need n >= 1 inputs per task, got {n}")
    if not 0 < alpha <= s_max:
        raise ParamError(f"need 0 < alpha <= s_max, got alpha={alpha}, s_max={s_max}")
    if c <= 0:
        raise ParamError(f"need c > 0, got {c}")
    if eta < 0:
        raise ParamError(f"need eta >= 0, got {eta}")


def generate_suites(specs: Sequence[tuple]) -> list[SyntheticTaskSuite]:
    """One suite per spec, its argument tuple
    ``(d, T, n, r, alpha, s_max, c, eta, seed)``: the same spec gives the
    same suite bit for bit, alone or among any others.

    Each suite draws from its own stream (:func:`_draw`). The raw factors of
    all suites of one ``(d, r)`` shape are then orthonormalized by one
    stacked QR, sign-fixed to a positive R diagonal, and turned into task
    updates by one stacked product. Every spec is checked, and
    :class:`ParamError` raised for the first bad one, before any draw.
    """
    for spec in specs:
        _check_params(*spec[:8])
    drawn = [_draw(*spec) for spec in specs]
    updates: list = [None] * len(specs)
    for (d, r), members in _group(specs, lambda spec: (spec[0], spec[3])).items():
        q, upper = np.linalg.qr(np.concatenate([drawn[i][1] for i in members]))
        q *= np.sign(np.diagonal(upper, axis1=-2, axis2=-1))[..., None, :]
        left, right = q[:, 0], q[:, 1]
        singulars = np.sort(np.concatenate([drawn[i][2] for i in members]), axis=1)[:, ::-1]
        taus = left @ (singulars[:, :, None] * np.swapaxes(right, 1, 2))
        start = 0
        for i in members:
            stop = start + specs[i][1]
            updates[i] = taus[start:stop], right[start:stop]
            start = stop

    suites = []
    for spec, draws, (taus, right) in zip(specs, drawn, updates):
        d, T, n, r, alpha, s_max, c, eta, seed = spec
        theta0, _, _, coeff_dirs, coeff_u, noise_dirs, noise_u = draws
        coeffs = _ball(coeff_dirs, coeff_u, c * s_max)
        inputs = coeffs @ np.swapaxes(right, 1, 2) + _ball(noise_dirs, noise_u, 1.0) * eta
        suites.append(SyntheticTaskSuite(
            d=d, T=T, n=n, r=r, alpha=alpha, s_max=s_max, c=c, eta=eta, seed=seed,
            theta0=theta0, taus=list(taus), inputs=list(inputs), row_bases=list(right),
        ))
    return suites


def _draw(d: int, T: int, n: int, r: int, alpha: float, s_max: float, c: float, eta: float,
          seed: int) -> tuple[np.ndarray, ...]:
    """One suite's draws from its stream, in a fixed order: the base point,
    then per task the raw Gaussians of its left and right factors, its
    singular values unsorted, and the directions and radii of its
    coefficient and noise balls."""
    rng = stream(seed, "synthetic-suite")
    theta0 = rng.standard_normal((d, d))
    raw, singulars = np.empty((T, 2, d, r)), np.empty((T, r))
    coeff_dirs, coeff_u = np.empty((T, n, r)), np.empty((T, n, 1))
    noise_dirs, noise_u = np.empty((T, n, d)), np.empty((T, n, 1))
    for t in range(T):
        rng.standard_normal(out=raw[t])
        singulars[t] = rng.uniform(alpha, s_max, size=r)
        rng.standard_normal(out=coeff_dirs[t])
        rng.random(out=coeff_u[t])
        rng.standard_normal(out=noise_dirs[t])
        rng.random(out=noise_u[t])
    return theta0, raw, singulars, coeff_dirs, coeff_u, noise_dirs, noise_u


def _group(items: Sequence, key) -> dict:
    """Positions of ``items`` by ``key(item)``, in order within each key."""
    groups: dict = defaultdict(list)
    for i, item in enumerate(items):
        groups[key(item)].append(i)
    return groups


def task_interference_L(suite: SyntheticTaskSuite) -> float:
    r"""Exact :math:`\sum_t \sum_i \|\sum_{s \ne t} \tau_s x_{t,i}\|_2^2`.

    This is the excess multi-task loss when every input is labeled by its
    own task's update: applying the summed update to task t's inputs, all
    other tasks' updates contribute exactly this energy.
    """
    return _cross_task_loss(np.array(suite.inputs), _others(np.array(suite.taus)))


def _others(taus: np.ndarray) -> np.ndarray:
    """For ``(..., T, d, d)`` updates, each task's sum of the other tasks'
    updates, added in task order."""
    tasks = taus.shape[-3]
    others = np.zeros_like(taus)
    for s in range(tasks):
        others[..., np.arange(tasks) != s, :, :] += taus[..., s:s + 1, :, :]
    return others


def _cross_task_loss(inputs: np.ndarray, others: np.ndarray) -> float:
    """:func:`task_interference_L` of ``(T, n, d)`` inputs and the
    :func:`_others` of the updates: the tasks' energies, summed in order."""
    total = 0.0
    for energy in np.sum((inputs @ np.swapaxes(others, 1, 2)) ** 2, axis=(1, 2)).tolist():
        total += energy
    return total


_SLACK = 1e-9


def _contract_errors(
    suites: Sequence[SyntheticTaskSuite], singulars: np.ndarray, worst: np.ndarray
) -> list[str | None]:
    """For each of ``suites``, all of one ``(d, T)``, how its first task that
    breaks the generation contract breaks it, or None. ``singulars`` holds
    each update's singular values, ``(S, T, d)``, and ``worst`` each task's
    largest input distance from its row space, ``(S, T)``."""
    alpha, s_max, r, eta = np.array([(s.alpha, s.s_max, s.r, s.eta) for s in suites]).T[..., None]
    top = np.maximum(singulars[..., 0], 1.0)
    counts = np.sum(singulars > _SLACK * top[..., None], axis=-1)
    # Spectra are nonincreasing: the last count above the slack is the smallest.
    lo = np.take_along_axis(singulars, np.maximum(counts - 1, 0)[..., None], axis=-1)[..., 0]
    hi = singulars[..., 0]
    out_of_range = (lo < alpha * (1 - 1e-9)) | (hi > s_max * (1 + 1e-9))
    leaving = worst > eta * (1 + 1e-9) + _SLACK
    broken = (counts == 0) | (counts > r) | out_of_range | leaving
    errors: list[str | None] = [None] * len(suites)
    for m in np.flatnonzero(broken.any(axis=1)):
        t, suite = int(np.argmax(broken[m])), suites[m]
        if counts[m, t] == 0:
            errors[m] = f"tau {t} is zero (no singular value above {_SLACK})"
        elif counts[m, t] > suite.r:
            errors[m] = f"tau {t} has rank {counts[m, t]} > r={suite.r}"
        elif out_of_range[m, t]:
            errors[m] = (f"tau {t} singular values [{float(lo[m, t])}, {float(hi[m, t])}] "
                         f"escape [{suite.alpha}, {suite.s_max}]")
        else:
            errors[m] = (f"task {t} inputs leave the row space by {float(worst[m, t])} "
                         f"> eta={suite.eta}")
    return errors


def _row_space_distance(inputs: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Each task's largest input distance from its row space: ``(T, n, d)``
    inputs against ``(T, d, r)`` orthonormal bases; zero without inputs."""
    if not inputs.shape[1]:
        return np.zeros(len(inputs))
    residual = inputs - (inputs @ bases) @ np.swapaxes(bases, 1, 2)
    return np.sqrt(np.add.reduce(residual * residual, axis=-1)).max(axis=-1)


@dataclass(frozen=True)
class BoundCertificate:
    """Evaluated inequality for one suite: L, I, the constants, and the verdict."""

    L_value: float
    I_value: float
    bound_value: float
    k3: float
    k4: float
    holds: bool


def certify_bounds(suites: Sequence[SyntheticTaskSuite]) -> list[BoundCertificate]:
    """Evaluate the interference bound on each suite; a suite's certificate
    is the same bit for bit, alone or among any others.

    Each task update is factored once; the contract checks, the largest
    numerical rank ``r_max`` and ``I`` all read that one SVD. ``I`` is
    evaluated at ``k = r_max``: the bound's derivation needs the top-k row
    spaces to cover each update entirely, and every larger k gives the same
    value. A suite whose realized draws violate the generation contract,
    including an all-zero task update, raises :class:`InvariantError`.

    The suites are taken in groups of one ``(d, T)``: each group's updates
    are factored by one stacked SVD, and its contract checks, ranks and
    interference curves are computed on the whole group at once. An update
    that is not ``d x d`` raises :class:`InvariantError`, and a NaN or
    infinity :class:`NumericError`, before any check; a contract violation
    is then raised for the first suite, in order, that has one.
    """
    for suite in suites:
        for t, tau in enumerate(suite.taus):
            if np.shape(tau) != (suite.d, suite.d):
                raise InvariantError(
                    f"tau {t} has shape {np.shape(tau)}, expected ({suite.d}, {suite.d})"
                )
    groups = []
    errors: list[str | None] = [None] * len(suites)
    for (d, T), members in _group(suites, lambda suite: (suite.d, suite.T)).items():
        group = [suites[i] for i in members]
        taus = np.array([suite.taus for suite in group])
        f = svd(taus.reshape(-1, d, d))
        singulars, rights = f.singulars.reshape(len(group), T, d), f.right.reshape(taus.shape)
        inputs = [np.array(suite.inputs) for suite in group]
        worst = np.array([_row_space_distance(x, np.array(suite.row_bases))
                          for x, suite in zip(inputs, group)])
        for i, error in zip(members, _contract_errors(group, singulars, worst)):
            errors[i] = error
        groups.append((members, group, taus, singulars, rights, inputs))
    first = next((error for error in errors if error is not None), None)
    if first is not None:
        raise InvariantError(first)

    certificates: list = [None] * len(suites)
    for members, group, taus, singulars, rights, inputs in groups:
        d = taus.shape[-1]
        ranks = _singular_ranks(singulars).max(axis=1)
        curves = _interference(singulars, rights, range(1, d + 1))
        for i, suite, r_max, curve, others, x in zip(
            members, group, ranks.tolist(), curves, _others(taus), inputs
        ):
            certificates[i] = _certificate(suite, r_max, float(curve[r_max - 1]),
                                           _cross_task_loss(x, others))
    return certificates


def _certificate(suite: SyntheticTaskSuite, r_max: int, interference: float,
                 L: float) -> BoundCertificate:
    """The bound on ``suite`` with the largest update rank ``r_max``, ``I``
    at ``k = r_max``, and the exact loss ``L``."""
    k3 = suite.s_max**2 * suite.c * (r_max * suite.s_max**2 / suite.alpha**2)
    k4 = suite.s_max
    bound = suite.n * (k3 * interference + suite.T * (suite.T - 1) * k4 * suite.eta) ** 2
    return BoundCertificate(
        L_value=L, I_value=interference, bound_value=bound, k3=k3, k4=k4,
        holds=bool(L <= bound),
    )


def certify_suites(
    specs: Iterable[tuple],
) -> Iterator[tuple[SyntheticTaskSuite, BoundCertificate]]:
    """``(suite, certificate)`` for each :func:`generate_suites` spec, in
    order, generated and certified ``_CHUNK`` suites at a time so that only
    one chunk of suites is held at once."""
    specs = list(specs)
    for start in range(0, len(specs), _CHUNK):
        suites = generate_suites(specs[start:start + _CHUNK])
        yield from zip(suites, certify_bounds(suites))


def certificate_json_line(suite: SyntheticTaskSuite, cert: BoundCertificate) -> str:
    """One JSONL record tying the suite parameters to the evaluated bound."""
    record = {
        "seed": suite.seed,
        "d": suite.d,
        "T": suite.T,
        "n": suite.n,
        "r": suite.r,
        "alpha": suite.alpha,
        "s_max": suite.s_max,
        "c": suite.c,
        "eta": suite.eta,
        "L": cert.L_value,
        "I": cert.I_value,
        "bound": cert.bound_value,
        "holds": cert.holds,
    }
    return json.dumps(record)
