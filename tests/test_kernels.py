"""SVD kernel contracts, checked against Gram-matrix spectra and identities."""

import numpy as np
import pytest

from rankmerge import (
    LowRankFactor,
    NumericError,
    RankError,
    ShapeError,
    frobenius_inner,
    frobenius_norm,
    nuclear_norm,
    nuclear_subgradient,
    numerical_rank,
    reconstruct,
    svd,
    truncate,
)
from rankmerge.rng import orthonormal, stream

from oracles import reference_nuclear_norm, reference_singulars, reference_tail_energy

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


def test_svd_sign_convention_is_reproducible(matrix):
    """Each left singular vector's largest-magnitude entry is nonnegative,
    which pins the (U, V) pair among the 2^k valid sign choices."""
    f = svd(matrix)
    for j in range(f.k):
        col = f.left[:, j]
        assert col[np.argmax(np.abs(col))] >= 0
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


def _per_matrix_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One matrix's thin SVD with the sign rule applied column by column."""
    left, s, right = np.linalg.svd(a, full_matrices=False)
    for j in range(len(s)):
        if left[np.argmax(np.abs(left[:, j])), j] < 0:
            left[:, j], right[j] = -left[:, j], -right[j]
    return left, s, right


HADAMARD = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


@pytest.mark.parametrize("shape", [(5, 8, 8), (4, 12, 5), (4, 5, 12), (3, 1, 4), (3, 4, 4)])
def test_stacked_svd_is_the_per_matrix_svd_bit_for_bit(shape):
    a = stream(19, f"stack-{shape}").standard_normal(shape)
    a[0] = 0.0  # no direction at all
    a[1, :, -1] = a[1, :, 0]  # rank deficient
    if shape[1:] == (4, 4):
        a[2] = HADAMARD  # every |entry| ties, and so do the singular values
    stacked = svd(a)
    assert (stacked.left.shape, stacked.singulars.shape, stacked.right.shape) == (
        (shape[0], shape[1], min(shape[1:])), (shape[0], min(shape[1:])),
        (shape[0], min(shape[1:]), shape[2]),
    )
    assert (stacked.k, stacked.shape) == (min(shape[1:]), shape[1:])
    for i in range(shape[0]):
        f, g = svd(a[i]), stacked[i]
        for got, want, two_d in zip((g.left, g.singulars, g.right), _per_matrix_svd(a[i]),
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
    np.testing.assert_allclose(f.left, want.left, rtol=0, atol=rtol)
    np.testing.assert_allclose(f.right, want.right, rtol=0, atol=rtol)
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


def test_frobenius_inner_is_bilinear():
    g = stream(13, "kernel-tests")
    a, b, c = (g.standard_normal((5, 7)) for _ in range(3))
    x, y = float(g.uniform(-2, 2)), float(g.uniform(-2, 2))
    lhs = frobenius_inner(x * a + y * b, c)
    rhs = x * frobenius_inner(a, c) + y * frobenius_inner(b, c)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    assert frobenius_inner(a, b) == pytest.approx(frobenius_inner(b, a), rel=1e-12)
    assert frobenius_inner(a, a) == pytest.approx(frobenius_norm(a) ** 2, rel=1e-12)


def test_frobenius_inner_shape_mismatch():
    with pytest.raises(ShapeError):
        frobenius_inner(np.zeros((2, 3)), np.zeros((3, 2)))


def test_nuclear_norm_matches_gram_route(matrix):
    assert nuclear_norm(matrix) == pytest.approx(reference_nuclear_norm(matrix), rel=1e-9)


def test_nuclear_norm_triangle_inequality():
    g = stream(14, "kernel-tests")
    for _ in range(20):
        a, b = g.standard_normal((6, 4)), g.standard_normal((6, 4))
        assert nuclear_norm(a + b) <= nuclear_norm(a) + nuclear_norm(b) + 1e-10


def test_nuclear_subgradient_of_full_rank_is_uv():
    g = stream(15, "kernel-tests")
    a = g.standard_normal((7, 5))
    f = svd(a)
    expected = f.left @ f.right
    assert np.allclose(nuclear_subgradient(a), expected, atol=1e-10)


def test_nuclear_subgradient_direction_increases_norm():
    """<G, A> equals the nuclear norm itself for the subgradient at A, the
    defining property used by the origin solver's descent step."""
    g = stream(16, "kernel-tests")
    for _ in range(10):
        a = g.standard_normal((6, 6))
        sub = nuclear_subgradient(a)
        assert frobenius_inner(sub, a) == pytest.approx(nuclear_norm(a), rel=1e-9)
        # operator norm of the subgradient is at most 1
        assert np.linalg.svd(sub, compute_uv=False)[0] <= 1.0 + 1e-10


def test_nuclear_subgradient_of_zero_matrix_is_zero():
    assert np.all(nuclear_subgradient(np.zeros((4, 3))) == 0.0)


def test_nuclear_subgradient_skips_tiny_singulars():
    """Directions whose singular value is numerically zero are excluded so
    the subgradient never amplifies floating-point dust."""
    u = np.eye(4)[:, :2]
    v = np.eye(3)[:2, :]
    a = u @ np.diag([5.0, 1e-14]) @ v
    sub = nuclear_subgradient(a)
    assert np.allclose(sub, np.outer(u[:, 0], v[0]), atol=1e-10)


@pytest.mark.parametrize("fn", [nuclear_norm, nuclear_subgradient, numerical_rank])
def test_matrix_functions_reject_stacks_and_vectors(fn):
    for shape in [(2, 3, 3), (3,)]:
        with pytest.raises(ShapeError):
            fn(np.ones(shape))


def test_numerical_rank_counts_significant_spectrum():
    g = stream(17, "kernel-tests")
    left = np.linalg.qr(g.standard_normal((8, 8)))[0]
    right = np.linalg.qr(g.standard_normal((6, 6)))[0]
    s = np.array([4.0, 2.0, 1e-3, 0.0, 0.0, 0.0])
    a = left[:, :6] @ np.diag(s) @ right
    assert numerical_rank(a) == 3
    assert numerical_rank(np.zeros((5, 5))) == 0


def test_low_rank_factor_shape_and_k(matrix):
    f = svd(matrix)
    assert f.shape == matrix.shape
    assert f.k == min(matrix.shape)
    cut = truncate(f, 1)
    assert isinstance(cut, LowRankFactor)
    assert cut.shape == matrix.shape
