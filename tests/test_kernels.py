"""SVD kernel contracts, checked against Gram-matrix spectra and identities."""

import warnings

import numpy as np
import pytest

from rankmerge import (
    LowRankFactor,
    NumericError,
    RankError,
    ShapeError,
    reconstruct,
    svd,
    truncate,
)
from rankmerge.rng import orthonormal, stream

from oracles import reference_singulars, reference_tail_energy

TOLS = {"atol": 1e-10, "rtol": 1e-10}


@pytest.fixture(params=[(6, 6), (9, 5), (4, 11)], ids=["square", "tall", "wide"])
def matrix(request):
    g = stream(11, f"kernel-tests-{request.param}")
    return g.standard_normal(request.param)


def test_svd_reconstructs_input(matrix):
    f = svd(matrix)
    assert np.allclose(reconstruct(f), matrix, atol=1e-12)


def test_svd_matches_gram_spectrum(matrix):
    f = svd(matrix)
    assert np.allclose(f.singulars, reference_singulars(matrix), atol=1e-9)


def test_svd_factors_are_orthonormal(matrix):
    f = svd(matrix)
    k = f.k
    assert np.allclose(f.left.T @ f.left, np.eye(k), **TOLS)
    assert np.allclose(f.right @ f.right.T, np.eye(k), **TOLS)


def test_svd_singulars_sorted_nonincreasing(matrix):
    s = svd(matrix).singulars
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)


def test_svd_is_reproducible(matrix):
    f = svd(matrix)
    again = svd(matrix.copy())
    assert np.array_equal(f.left, again.left)
    assert np.array_equal(f.right, again.right)


def test_svd_rejects_non_finite():
    for k in (None, 0, 1):  # also where nothing is factored
        bad = np.ones((3, 3))
        bad[1, 1] = np.nan
        with pytest.raises(NumericError):
            svd(bad, k)
        bad[1, 1] = np.inf
        with pytest.raises(NumericError):
            svd(bad, k)


def test_svd_rejects_non_matrix_shapes():
    for shape in [(), (4,)]:
        with pytest.raises(ShapeError):
            svd(np.zeros(shape))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_svd_of_an_empty_matrix_has_no_triples(shape):
    f = svd(np.zeros(shape))
    assert f.k == 0 and f.shape == shape
    assert reconstruct(f).shape == shape


# ---------------------------------------------------------------------------
# stacked SVD


HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


@pytest.mark.parametrize("shape", [(5, 8, 8), (4, 12, 5), (4, 5, 12), (3, 1, 4), (3, 4, 4)])
def test_stacked_svd_is_the_per_matrix_svd_bit_for_bit(shape):
    a = stream(19, f"stack-{shape}").standard_normal(shape)
    a[0] = 0.0  # no direction at all
    a[1, :, -1] = a[1, :, 0]  # rank deficient
    if shape[1:] == (4, 4):
        a[2] = HADAMARD  # every singular value ties
    stacked = svd(a)
    assert (stacked.left.shape, stacked.singulars.shape, stacked.right.shape) == (
        (shape[0], shape[1], min(shape[1:])), (shape[0], min(shape[1:])),
        (shape[0], min(shape[1:]), shape[2]),
    )
    assert (stacked.k, stacked.shape) == (min(shape[1:]), shape[1:])
    for i in range(shape[0]):
        f, g = svd(a[i]), stacked[i]
        want_factors = np.linalg.svd(a[i], full_matrices=False)
        for got, want, two_d in zip((g.left, g.singulars, g.right), want_factors,
                                    (f.left, f.singulars, f.right)):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(two_d, want)


def test_stacked_svd_of_empty_stacks():
    for shape in [(0, 3, 2), (2, 0, 3), (2, 3, 0)]:
        f = svd(np.zeros(shape))
        k = min(shape[1:])
        assert (f.left.shape, f.singulars.shape, f.right.shape) == (
            (shape[0], shape[1], k), (shape[0], k), (shape[0], k, shape[2]))


def _planted_stack(shape: tuple[int, ...]) -> np.ndarray:
    """A stack of matrices with well-separated spectra, each its own."""
    g = stream(29, f"planted-stack-{shape}")
    *lead, m, n = shape
    full = min(m, n)
    out = np.empty(shape)
    for idx in np.ndindex(*lead):
        singulars = float(g.uniform(1.0, 4.0)) * 0.7 ** np.arange(full)
        out[idx] = (orthonormal(g, m, full) * singulars) @ orthonormal(g, n, full).T
    return out


def _assert_same_factor(got: LowRankFactor, want: LowRankFactor) -> None:
    for part in ("left", "singulars", "right"):
        np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.parametrize("k", [None, 3], ids=["full", "gram"])
@pytest.mark.parametrize("shape", [(4, 12, 7), (2, 3, 6, 11)], ids=["3-D", "4-D"])
def test_svd_of_a_stack_is_the_svd_of_each_slice_bit_for_bit(shape, k, svd_calls, eigh_calls):
    a = _planted_stack(shape)
    stacked = svd(a, k)
    # One LAPACK call for the whole stack, on the route k asks for.
    full = min(shape[-2:])
    assert (svd_calls, eigh_calls) == (([shape], []) if k is None else ([], [(*shape[:-2], full, full)]))
    want_k = full if k is None else k
    assert (stacked.k, stacked.shape, stacked.left.shape) == (
        want_k, shape[-2:], (*shape[:-2], shape[-2], want_k))
    for idx in np.ndindex(*shape[:-2]):
        _assert_same_factor(stacked[idx], svd(a[idx], k))


def test_a_tied_slice_sends_the_whole_stack_to_the_full_svd(svd_calls, eigh_calls):
    a = _planted_stack((3, 4, 4))
    a[1] = HADAMARD  # all four singular values tie, so the Gram gap at k closes
    stacked = svd(a, 2)
    assert (svd_calls, eigh_calls) == ([(3, 4, 4)], [(3, 4, 4)])
    for i in range(3):
        _assert_same_factor(stacked[i], truncate(svd(a[i]), 2))


def test_stacked_svd_rejects_non_finite_and_non_stacks():
    bad = np.ones((3, 2, 2))
    bad[2, 1, 0] = np.inf
    for k in (None, 0, 1):
        with pytest.raises(NumericError):
            svd(bad, k)
    for shape in [(), (4,)]:
        with pytest.raises(ShapeError):
            svd(np.ones(shape))


# ---------------------------------------------------------------------------
# top-k triples


def _planted(shape: tuple[int, int], singulars: np.ndarray) -> np.ndarray:
    """``U diag(singulars) Vᵀ`` with random orthonormal ``U`` and ``V``."""
    g = stream(13, f"planted-{shape}-{len(singulars)}")
    u = orthonormal(g, shape[0], len(singulars))
    v = orthonormal(g, shape[1], len(singulars))
    return (u * singulars) @ v.T


@pytest.mark.parametrize("shape", [(40, 40), (60, 24), (24, 60)], ids=["square", "tall", "wide"])
def test_top_k_is_the_truncated_full_svd(shape, svd_calls, eigh_calls):
    k = 6
    singulars = 3.0 * 0.8 ** np.arange(min(shape))
    a = _planted(shape, singulars)
    f = svd(a, k)
    assert (len(svd_calls), len(eigh_calls)) == (0, 1)  # the Gram route ran
    want = truncate(svd(a), k)
    # Perturbation theory bounds the Gram route's error on triple j by about
    # eps * lambda_1 / (its eigen-gap), lambda = sigma^2; 100 covers the
    # rounding constants of matrices this small.
    lam = singulars**2
    rtol = 100 * np.finfo(np.float64).eps * lam[0] / np.min(lam[:k] - lam[1 : k + 1])
    assert f.k == k and f.shape == shape
    np.testing.assert_allclose(f.singulars, want.singulars, rtol=0, atol=rtol * singulars[0])
    # Each pair's sign is its route's: match it to the full SVD's first.
    signs = np.sign(np.sum(f.left * want.left, axis=0))
    np.testing.assert_allclose(f.left * signs, want.left, rtol=0, atol=rtol)
    np.testing.assert_allclose(f.right * signs[:, None], want.right, rtol=0, atol=rtol)
    np.testing.assert_allclose(reconstruct(f), reconstruct(want), rtol=0,
                               atol=rtol * singulars[0])
    assert np.allclose(f.left.T @ f.left, np.eye(k), **TOLS)
    assert np.allclose(f.right @ f.right.T, np.eye(k), **TOLS)


def _exact_rank_two() -> np.ndarray:
    return _planted((30, 20), np.array([2.0, 1.0]))


def _tie_at_k() -> np.ndarray:
    return _planted((30, 20), np.array([4.0, 3.0, 2.0, 1.0, 1.0, 0.5, 0.25]))


@pytest.mark.parametrize("make", [_exact_rank_two, _tie_at_k, lambda: np.zeros((30, 20))],
                         ids=["rank-below-k", "tie-at-k", "zero"])
def test_top_k_falls_back_to_the_full_svd_where_the_gram_gap_closes(make, svd_calls):
    a = make()
    f = svd(a, 4)
    assert len(svd_calls) == 1
    want = truncate(svd(a), 4)
    for part in ("left", "singulars", "right"):
        np.testing.assert_array_equal(getattr(f, part), getattr(want, part))


@pytest.mark.parametrize("shape", [(6, 4), (4, 6), (3, 6, 4)], ids=["tall", "wide", "stack"])
def test_top_k_falls_back_to_the_full_svd_where_the_gram_overflows(shape, svd_calls, eigh_calls):
    a = stream(14, f"gram-overflow-{shape}").standard_normal(shape)
    a[(0,) * (a.ndim - 2)] *= 1e160  # the matrix, or the first slice of the stack
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = svd(a, 2)
    assert (len(svd_calls), eigh_calls) == (1, [])
    want = truncate(svd(a), 2)
    for part in ("left", "singulars", "right"):
        np.testing.assert_array_equal(getattr(f, part), getattr(want, part))


def test_rank_zero_factors_nothing(matrix, svd_calls, eigh_calls):
    f = svd(matrix, 0)
    assert f.k == 0 and f.shape == matrix.shape
    assert svd_calls == [] and eigh_calls == []


def test_full_rank_is_the_full_svd(matrix):
    f, want = svd(matrix, min(matrix.shape)), svd(matrix)
    for part in ("left", "singulars", "right"):
        np.testing.assert_array_equal(getattr(f, part), getattr(want, part))


def test_svd_rank_bounds(matrix):
    with pytest.raises(RankError):
        svd(matrix, min(matrix.shape) + 1)
    with pytest.raises(RankError):
        svd(matrix, -1)


def test_truncate_keeps_leading_triples(matrix):
    f = svd(matrix)
    cut = truncate(f, 2)
    assert cut.k == 2
    assert np.array_equal(cut.singulars, f.singulars[:2])
    assert np.array_equal(cut.left, f.left[:, :2])
    assert np.array_equal(cut.right, f.right[:2, :])


@pytest.mark.parametrize("k", [0, 2, 5])
def test_truncating_a_stack_truncates_each_slice_bit_for_bit(k):
    stacked = svd(stream(23, "truncate-stack").standard_normal((4, 7, 5)))
    cut = truncate(stacked, k)
    assert (cut.k, cut.shape, cut.left.shape) == (k, (7, 5), (4, 7, k))
    for i in range(4):
        want = truncate(stacked[i], k)
        for part in ("left", "singulars", "right"):
            np.testing.assert_array_equal(getattr(cut[i], part), getattr(want, part))


@pytest.mark.parametrize("shape", [(3, 5, 4), (3, 4, 6)], ids=["tall", "wide"])
def test_reconstructing_a_stack_reconstructs_each_slice_bit_for_bit(shape):
    f = svd(stream(31, f"reconstruct-stack-{shape}").standard_normal(shape))
    for k in (min(shape[1:]), 2, 0):
        cut = truncate(f, k)
        dense = reconstruct(cut)
        assert dense.shape == shape
        for i in range(shape[0]):
            np.testing.assert_array_equal(dense[i], reconstruct(cut[i]))


def test_truncate_is_idempotent(matrix):
    f = svd(matrix)
    once = truncate(f, 3)
    twice = truncate(once, 3)
    assert np.array_equal(reconstruct(once), reconstruct(twice))


def test_truncate_bounds(matrix):
    f = svd(matrix)
    with pytest.raises(RankError):
        truncate(f, f.k + 1)
    with pytest.raises(RankError):
        truncate(f, -1)


def test_rank_zero_reconstructs_to_zero(matrix):
    z = reconstruct(truncate(svd(matrix), 0))
    assert z.shape == matrix.shape
    assert np.all(z == 0.0)


def test_eckart_young_residual_equals_tail_energy():
    """The rank-k truncation is the best approximation: its squared residual
    equals the sum of squared trailing singular values."""
    g = stream(12, "kernel-tests")
    for trial in range(25):
        m, n = int(g.integers(2, 30)), int(g.integers(2, 30))
        a = g.standard_normal((m, n)) * float(g.uniform(0.1, 10.0))
        f = svd(a)
        for k in range(0, f.k + 1, max(1, f.k // 3)):
            residual = float(np.linalg.norm(a - reconstruct(truncate(f, k)))) ** 2
            expected = reference_tail_energy(a, k)
            assert residual == pytest.approx(expected, rel=1e-8, abs=1e-12)


def test_low_rank_factor_shape_and_k(matrix):
    f = svd(matrix)
    assert f.shape == matrix.shape
    assert f.k == min(matrix.shape)
    cut = truncate(f, 1)
    assert isinstance(cut, LowRankFactor)
    assert cut.shape == matrix.shape
