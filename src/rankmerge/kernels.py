r"""Dense linear-algebra primitives used throughout the merge pipeline.

Everything here is pure and deterministic: the SVD applies a fixed sign
convention (largest-magnitude entry of each left singular vector made
nonnegative) so factors reproduce bit-for-bit across runs, and singular
values below ``RANK_EPS * sigma_max`` are treated as numerical zeros when
counting rank or forming subgradients. The SVD factors a matrix, or a stack
of them in one LAPACK call. Asked for fewer triples than the full rank, it
takes them from the eigenvectors of the smaller Gram matrix when float64 can
resolve them that way, and from the full SVD otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, RankError, ShapeError

__all__ = [
    "RANK_EPS",
    "GRAM_MIN_GAP",
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


def _require_finite(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise NumericError("input contains NaN or infinite entries")
    return a


def _require_matrix(a: np.ndarray) -> np.ndarray:
    a = _require_finite(a)
    if a.ndim != 2:
        raise ShapeError(f"need a 2-D matrix, got shape {a.shape}")
    return a


def svd(a: np.ndarray, k: int | None = None) -> LowRankFactor:
    """Thin SVD of a matrix, or of each matrix of an ``(..., m, n)`` stack, as
    a :class:`LowRankFactor`, or its top ``k`` triples.

    Returns ``k`` triples, ``min(m, n)`` when ``k`` is None, with singular
    values sorted nonincreasing: the factor :func:`truncate` would keep of
    the full SVD. ``k`` must satisfy 0 <= k <= min(m, n), or
    :class:`RankError` is raised. The input is checked for NaN and infinity
    at every ``k``; ``k == 0`` factors nothing. For ``0 < k < min(m, n)``
    the triples come from ``np.linalg.eigh`` of the smaller Gram matrix, and
    from the full SVD when its eigen-gap at ``k`` is below
    ``GRAM_MIN_GAP`` of its largest eigenvalue (or that is zero); in a
    stack, one such slice sends every slice to the full SVD. A stack is one
    LAPACK call, and slice ``i`` of the result is bit for bit the factor of
    ``a[i]`` by the same route. The sign convention makes the
    largest-magnitude entry of each left singular vector nonnegative; ties
    among equal singular values keep the backend's column order.
    """
    a = _require_finite(a)
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
    factors = _gram_top(a, k) if k < full else None
    left, s, right = np.linalg.svd(a, full_matrices=False) if factors is None else factors
    _fix_signs(left, right)
    f = LowRankFactor(left=left, singulars=s, right=right)
    return truncate(f, k) if f.k > k else f


def _fix_signs(left: np.ndarray, right: np.ndarray) -> None:
    """Make the largest-magnitude entry of each left singular vector
    nonnegative, negating the matching right vector; in place, on 2-D
    factors or on stacks of them, so factors are reproducible across
    platforms.

    The entry is the first of largest magnitude. It is found from each
    column's largest and smallest entries, and only where their magnitudes
    tie from where they first occur, because ``np.argmax`` across rows
    would copy the whole stack.
    """
    if not left.size:
        return
    largest = np.max(left, axis=-2, keepdims=True)
    smallest = np.min(left, axis=-2, keepdims=True)
    flip = -smallest > largest
    tie = -smallest == largest
    if tie.any():
        first_largest = np.argmax(left == largest, axis=-2)[..., None, :]
        first_smallest = np.argmax(left == smallest, axis=-2)[..., None, :]
        flip |= tie & (first_smallest < first_largest)
    signs = np.where(flip, -1.0, 1.0)  # a product with -1.0 is an exact negation
    left *= signs
    right *= np.swapaxes(signs, -1, -2)


def _gram_top(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Top-``k`` ``(left, singulars, right)`` of each matrix of ``a`` from the
    eigenvectors of ``aᵀa`` (``aaᵀ`` when the matrices are wide), before the
    sign convention; None when the eigen-gap at ``k`` of any matrix is too
    small for float64 to resolve."""
    wide = a.shape[-2] < a.shape[-1]
    b = np.swapaxes(a, -1, -2) if wide else a
    values, vectors = np.linalg.eigh(np.swapaxes(b, -1, -2) @ b)
    values, vectors = values[..., ::-1], vectors[..., ::-1]
    top = values[..., 0]
    if not np.all(top > 0.0) or np.any(values[..., k - 1] - values[..., k] < GRAM_MIN_GAP * top):
        return None
    s = np.sqrt(values[..., :k])
    right = np.ascontiguousarray(np.swapaxes(vectors[..., :k], -1, -2))
    left = (b @ np.swapaxes(right, -1, -2)) / s[..., None, :]
    if wide:
        return np.swapaxes(right, -1, -2).copy(), s, np.swapaxes(left, -1, -2).copy()
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
    as a stack of them from a stacked factor."""
    if f.k == 0:
        return np.zeros((*f.singulars.shape[:-1], *f.shape), dtype=np.float64)
    return f.left @ (f.singulars[..., None] * f.right)


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
    a = _require_matrix(a)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def nuclear_subgradient(a: np.ndarray) -> np.ndarray:
    """A subgradient of the nuclear norm at ``a``.

    Returns ``U_r @ V_rᵀ`` from the thin SVD restricted to singular values
    above ``RANK_EPS * sigma_max``. At the zero matrix this is the zero
    matrix, which lies in the subdifferential there.
    """
    return _factor_subgradient(svd(_require_matrix(a)))


def _factor_subgradient(f: LowRankFactor) -> np.ndarray:
    """:func:`nuclear_subgradient` at the matrix ``f`` represents: the
    product of the leading factors whose singular values count."""
    r = int(_singular_ranks(f.singulars))
    return f.left[:, :r] @ f.right[:r, :]


def numerical_rank(a: np.ndarray) -> int:
    """Count singular values above ``RANK_EPS * sigma_max``."""
    return int(_singular_ranks(np.linalg.svd(_require_matrix(a), compute_uv=False)))


def _singular_ranks(s: np.ndarray) -> np.ndarray:
    """:func:`numerical_rank` of each matrix of a stack, from its nonincreasing
    singular values ``s`` of shape ``(..., k)``."""
    top = s[..., :1]
    return np.sum((s > RANK_EPS * top) & (top > 0.0), axis=-1)
