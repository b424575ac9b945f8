r"""Dense linear-algebra primitives used throughout the merge pipeline.

Everything here is pure and deterministic under one BLAS setting. Each
singular pair keeps the sign LAPACK gives it: nothing read off a factor
(rank-k approximations, spectra, row spaces) depends on it. The SVD
factors a matrix, or a stack of them in one LAPACK call. Asked for fewer
triples than the full rank, it takes them from the eigenvectors of the
smaller Gram matrix when float64 can hold and resolve them that way, and
from the full SVD otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RankError, ShapeError

__all__ = [
    "GRAM_MIN_GAP",
    "LowRankFactor",
    "svd",
    "truncate",
    "reconstruct",
]

# The top-k triples come from the Gram matrix only when its eigen-gap
# lambda_k - lambda_{k+1} is at least this fraction of lambda_1. The rank-k
# reconstruction then errs by about eps * lambda_1 / gap <= 2.2e-10 relative
# to the norm of the input; a smaller gap falls back to the full SVD.
GRAM_MIN_GAP = 1e-6


@dataclass(frozen=True)
class LowRankFactor:
    """Truncated SVD triple ``left @ diag(singulars) @ right``, of one matrix
    or of a stack of them.

    ``left`` is m x k with orthonormal columns, ``right`` is k x n with
    orthonormal rows, and ``singulars`` is nonincreasing and nonnegative.
    ``k == 0`` is valid and reconstructs to the zero matrix. A stack of N
    factors of one shape has ``left`` ``(N, m, k)``, ``singulars`` ``(N, k)``
    and ``right`` ``(N, k, n)``; ``k`` and ``shape`` read the last axes, and
    ``f[i]`` is slice ``i``'s factor.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray

    @property
    def k(self) -> int:
        return int(self.singulars.shape[-1])

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.left.shape[-2]), int(self.right.shape[-1]))

    def __getitem__(self, i: int) -> LowRankFactor:
        return LowRankFactor(left=self.left[i], singulars=self.singulars[i], right=self.right[i])


def svd(a: np.ndarray, k: int | None = None) -> LowRankFactor:
    """Thin SVD of a matrix, or of each matrix of an ``(..., m, n)`` stack, as
    a :class:`LowRankFactor`, or its top ``k`` triples.

    Returns ``k`` triples, ``min(m, n)`` when ``k`` is None, with singular
    values sorted nonincreasing: the factor :func:`truncate` would keep of
    the full SVD. ``k`` must satisfy 0 <= k <= min(m, n), or
    :class:`RankError` is raised. The input is checked for NaN and infinity
    at every ``k``; ``k == 0`` factors nothing. For ``0 < k < min(m, n)``
    the triples come from ``np.linalg.eigh`` of the smaller Gram matrix, and
    from the full SVD when that matrix overflows float64 or its eigen-gap
    at ``k`` is below ``GRAM_MIN_GAP`` of its largest eigenvalue (or that
    is zero); in a stack, one such slice sends every slice to the full SVD.
    A stack is one LAPACK call, and slice ``i`` of the result is bit for bit
    the factor of ``a[i]`` by the same route. The signs of the singular
    pairs, and the order of tied ones, are the backend's.
    """
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NumericError("input contains NaN or infinite entries")
    if a.ndim < 2:
        raise ShapeError(f"svd needs a matrix or a stack of them, got shape {a.shape}")
    *lead, m, n = a.shape
    full = min(m, n)
    k = full if k is None else k
    if not 0 <= k <= full:
        raise RankError(f"rank {k} outside [0, {full}]")
    if k == 0:
        return LowRankFactor(left=np.zeros((*lead, m, 0)), singulars=np.zeros((*lead, 0)),
                             right=np.zeros((*lead, 0, n)))
    wide = m < n
    factors = _gram_top(np.swapaxes(a, -1, -2) if wide else a, k) if k < full else None
    if wide and factors is not None:  # the transpose's factors, swapped back
        v, s, ut = factors
        factors = (np.swapaxes(ut, -1, -2), s, np.swapaxes(v, -1, -2))
    f = LowRankFactor(*(np.linalg.svd(a, full_matrices=False) if factors is None else factors))
    return truncate(f, k) if f.k > k else f


def _gram_top(a: np.ndarray, k: int,
              min_gap: float = GRAM_MIN_GAP) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Top-``k`` ``(left, singulars, right)`` of each ``m >= n`` matrix of ``a``
    from the eigenvectors of ``aᵀa``, with ``U = aV/σ``; None when a Gram
    matrix overflows float64 or any matrix's eigen-gap at ``k`` is below
    ``min_gap`` of its largest eigenvalue (at ``k = n`` the gap is the smallest eigenvalue)."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.swapaxes(a, -1, -2) @ a
    if not np.all(np.isfinite(gram)):
        return None
    values, vectors = np.linalg.eigh(gram)
    values, vectors = values[..., ::-1], vectors[..., ::-1]
    top = values[..., 0]
    below = values[..., k] if k < values.shape[-1] else 0.0
    if not np.all(top > 0.0) or np.any(values[..., k - 1] - below < min_gap * top):
        return None
    s = np.sqrt(values[..., :k])
    right = np.ascontiguousarray(np.swapaxes(vectors[..., :k], -1, -2))
    left = a @ np.swapaxes(right, -1, -2)
    left /= s[..., None, :]
    return left, s, right


def truncate(f: LowRankFactor, k: int) -> LowRankFactor:
    """Keep the ``k`` largest singular triples of ``f``, or of each factor of
    a stack.

    The result is the best rank-k Frobenius approximation of the matrix the
    factor represents (Eckart-Young). ``k`` must satisfy 0 <= k <= f.k. The
    kept triples are copied, so the result does not hold ``f`` in memory.
    """
    if not 0 <= k <= f.k:
        raise RankError(f"rank {k} outside [0, {f.k}]")
    return LowRankFactor(
        left=f.left[..., :k].copy(),
        singulars=f.singulars[..., :k].copy(),
        right=f.right[..., :k, :].copy(),
    )


def reconstruct(f: LowRankFactor) -> np.ndarray:
    """Materialize ``left @ diag(singulars) @ right`` as a dense matrix, or
    as a stack of them from a stacked factor; zeros when ``k == 0``."""
    return f.left @ (f.singulars[..., None] * f.right)

