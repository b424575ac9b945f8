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
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvariantError, ParamError
from .interference import _interference
from .kernels import LowRankFactor, _singular_rank, svd
from .rng import orthonormal, stream
from .tensor_store import _write_text

__all__ = [
    "SyntheticTaskSuite",
    "BoundCertificate",
    "generate_suite",
    "task_interference_L",
    "certify_bound",
    "certificate_json_line",
    "write_certificates",
]


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


def _ball(rng: np.random.Generator, dim: int, radius: float, count: int) -> np.ndarray:
    """``count`` points drawn uniformly from the radius-``radius`` ball.

    Draw order is fixed (directions, then radii) and independent of the
    radius value, so regenerating with a different radius rescales the
    same underlying draws.
    """
    directions = rng.standard_normal((count, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / dim)
    return directions / norms * radii


def generate_suite(
    d: int,
    T: int,
    n: int,
    r: int,
    alpha: float,
    s_max: float,
    c: float,
    eta: float,
    seed: int,
) -> SyntheticTaskSuite:
    """Draw one instance; identical arguments give bit-identical output."""
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

    rng = stream(seed, "synthetic-suite")
    theta0 = rng.standard_normal((d, d))
    taus: list[np.ndarray] = []
    row_bases: list[np.ndarray] = []
    inputs: list[np.ndarray] = []
    for _ in range(T):
        left = orthonormal(rng, d, r)
        right = orthonormal(rng, d, r)
        singulars = np.sort(rng.uniform(alpha, s_max, size=r))[::-1]
        taus.append(left @ (singulars[:, None] * right.T))
        row_bases.append(right)
        coeffs = _ball(rng, r, c * s_max, n)
        noise = _ball(rng, d, 1.0, n) * eta
        inputs.append(coeffs @ right.T + noise)
    return SyntheticTaskSuite(
        d=d, T=T, n=n, r=r, alpha=alpha, s_max=s_max, c=c, eta=eta, seed=seed,
        theta0=theta0, taus=taus, inputs=inputs, row_bases=row_bases,
    )


def task_interference_L(suite: SyntheticTaskSuite) -> float:
    r"""Exact :math:`\sum_t \sum_i \|\sum_{s \ne t} \tau_s x_{t,i}\|_2^2`.

    This is the excess multi-task loss when every input is labeled by its
    own task's update: applying the summed update to task t's inputs, all
    other tasks' updates contribute exactly this energy.
    """
    total = 0.0
    for t in range(suite.T):
        others = sum(suite.taus[s] for s in range(suite.T) if s != t)
        projected = suite.inputs[t] @ others.T
        total += float(np.sum(projected**2))
    return total


_SLACK = 1e-9


def _validate_suite(suite: SyntheticTaskSuite, factors: list[LowRankFactor]) -> None:
    """Check the realized draws, factored as ``factors``, against the
    generation contract."""
    for t, (tau, f) in enumerate(zip(suite.taus, factors)):
        if tau.shape != (suite.d, suite.d):
            raise InvariantError(f"tau {t} has shape {tau.shape}, expected ({suite.d}, {suite.d})")
        sv = f.singulars
        nonzero = sv[sv > _SLACK * max(sv[0], 1.0)]
        if len(nonzero) == 0:
            raise InvariantError(f"tau {t} is zero (no singular value above {_SLACK})")
        if len(nonzero) > suite.r:
            raise InvariantError(f"tau {t} has rank {len(nonzero)} > r={suite.r}")
        lo, hi = float(nonzero.min()), float(nonzero.max())
        if lo < suite.alpha * (1 - 1e-9) or hi > suite.s_max * (1 + 1e-9):
            raise InvariantError(
                f"tau {t} singular values [{lo}, {hi}] escape [{suite.alpha}, {suite.s_max}]"
            )
        basis = suite.row_bases[t]
        x = suite.inputs[t]
        residual = x - (x @ basis) @ basis.T
        worst = float(np.linalg.norm(residual, axis=1).max()) if len(x) else 0.0
        if worst > suite.eta * (1 + 1e-9) + _SLACK:
            raise InvariantError(
                f"task {t} inputs leave the row space by {worst} > eta={suite.eta}"
            )


@dataclass(frozen=True)
class BoundCertificate:
    """Evaluated inequality for one suite: L, I, the constants, and the verdict."""

    L_value: float
    I_value: float
    bound_value: float
    k3: float
    k4: float
    holds: bool


def certify_bound(suite: SyntheticTaskSuite) -> BoundCertificate:
    """Evaluate the interference bound on one suite.

    Each task update is factored once; the contract checks, the largest
    numerical rank ``r_max`` and ``I`` all read that one SVD. ``I`` is
    evaluated at ``k = r_max``: the bound's derivation needs the top-k row
    spaces to cover each update entirely, and every larger k gives the same
    value. A suite whose realized draws violate the generation contract,
    including an all-zero task update, raises :class:`InvariantError`.
    """
    factors = [svd(tau) for tau in suite.taus]
    _validate_suite(suite, factors)
    r_max = max(_singular_rank(f.singulars) for f in factors)
    interference = _interference(factors, [r_max])[0]
    k3 = suite.s_max**2 * suite.c * (r_max * suite.s_max**2 / suite.alpha**2)
    k4 = suite.s_max
    bound = suite.n * (k3 * interference + suite.T * (suite.T - 1) * k4 * suite.eta) ** 2
    L = task_interference_L(suite)
    return BoundCertificate(
        L_value=L, I_value=interference, bound_value=bound, k3=k3, k4=k4,
        holds=bool(L <= bound),
    )


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


def write_certificates(
    pairs: Sequence[tuple[SyntheticTaskSuite, BoundCertificate]], path: str | Path
) -> None:
    """One :func:`certificate_json_line` per pair, written atomically."""
    _write_text(path, "".join(certificate_json_line(suite, cert) + "\n" for suite, cert in pairs))
