r"""Dense linear-algebra primitives used throughout the merge pipeline.

Everything here is pure and deterministic: the SVD applies a fixed sign
convention (largest-magnitude entry of each left singular vector made
nonnegative) so factors reproduce bit-for-bit across runs, and singular
values below ``RANK_EPS * sigma_max`` are treated as numerical zeros when
counting rank or forming subgradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RankError, ShapeError

__all__ = [
    "RANK_EPS",
    "LowRankFactor",
    "svd",
    "truncate",
    "reconstruct",
    "frobenius_inner",
    "frobenius_norm",
    "nuclear_norm",
    "nuclear_subgradient",
    "numerical_rank",
]

# Relative threshold below which a singular value counts as zero.
RANK_EPS = 1e-10


@dataclass(frozen=True)
class LowRankFactor:
    """Truncated SVD triple ``left @ diag(singulars) @ right``.

    ``left`` is m x k with orthonormal columns, ``right`` is k x n with
    orthonormal rows, and ``singulars`` is nonincreasing and nonnegative.
    ``k == 0`` is valid and reconstructs to the zero matrix.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray

    @property
    def k(self) -> int:
        return int(self.singulars.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.left.shape[0]), int(self.right.shape[1]))


def _require_finite(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NumericError("input contains NaN or infinite entries")
    return a


def svd(a: np.ndarray) -> LowRankFactor:
    """Full thin SVD of a 2-D matrix as a :class:`LowRankFactor`.

    Returns k = min(m, n) triples with singular values sorted
    nonincreasing. The sign convention makes the largest-magnitude entry of
    each left singular vector nonnegative; ties among equal singular values
    keep the backend's column order.
    """
    a = _require_finite(a)
    if a.ndim != 2:
        raise ShapeError(f"svd needs a 2-D matrix, got shape {a.shape}")
    left, s, right = np.linalg.svd(a, full_matrices=False)
    # Fix signs so factors are reproducible across platforms.
    if left.size:
        flip = left[np.argmax(np.abs(left), axis=0), np.arange(left.shape[1])] < 0
        left[:, flip] = -left[:, flip]
        right[flip, :] = -right[flip, :]
    return LowRankFactor(left=left, singulars=s, right=right)


def truncate(f: LowRankFactor, k: int) -> LowRankFactor:
    """Keep the ``k`` largest singular triples of ``f``.

    The result is the best rank-k Frobenius approximation of the matrix the
    factor represents (Eckart-Young). ``k`` must satisfy 0 <= k <= f.k. The
    kept triples are copied, so the result does not hold ``f`` in memory.
    """
    if not 0 <= k <= f.k:
        raise RankError(f"rank {k} outside [0, {f.k}]")
    return LowRankFactor(
        left=f.left[:, :k].copy(), singulars=f.singulars[:k].copy(), right=f.right[:k, :].copy()
    )


def reconstruct(f: LowRankFactor) -> np.ndarray:
    """Materialize ``left @ diag(singulars) @ right`` as a dense matrix."""
    if f.k == 0:
        return np.zeros(f.shape, dtype=np.float64)
    return f.left @ (f.singulars[:, None] * f.right)


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    r"""Frobenius inner product :math:`\sum_{ij} a_{ij} b_{ij}`."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))


def frobenius_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))


def nuclear_norm(a: np.ndarray) -> float:
    r"""Sum of singular values :math:`\|a\|_* = \sum_i \sigma_i(a)`.

    Always >= the Frobenius norm, with equality iff rank(a) <= 1.
    """
    a = _require_finite(a)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def nuclear_subgradient(a: np.ndarray) -> np.ndarray:
    """A subgradient of the nuclear norm at ``a``.

    Returns ``U_r @ V_rᵀ`` from the thin SVD restricted to singular values
    above ``RANK_EPS * sigma_max``. At the zero matrix this is the zero
    matrix, which lies in the subdifferential there.
    """
    return _factor_subgradient(svd(a))


def _factor_subgradient(f: LowRankFactor) -> np.ndarray:
    """:func:`nuclear_subgradient` at the matrix ``f`` factors."""
    if f.k == 0 or f.singulars[0] <= 0.0:
        return np.zeros(f.shape, dtype=np.float64)
    keep = f.singulars > RANK_EPS * f.singulars[0]
    return f.left[:, keep] @ f.right[keep, :]


def numerical_rank(a: np.ndarray) -> int:
    """Count singular values above ``RANK_EPS * sigma_max``."""
    return _singular_rank(np.linalg.svd(_require_finite(a), compute_uv=False))


def _singular_rank(s: np.ndarray) -> int:
    """:func:`numerical_rank` of a matrix with nonincreasing singular values ``s``."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > RANK_EPS * s[0]))
