import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded

from etlab.linalg import (
    BandedCholesky,
    BandedLU,
    BandedSymmetricMatrix,
    NotSPDError,
    SingularMatrixError,
)


def _dense(m):
    """Dense oracle of a BandedSymmetricMatrix."""
    a = np.diag(m.bands[0])
    for k in range(1, m.bandwidth + 1):
        a += np.diag(m.bands[k, : m.n - k], -k) + np.diag(m.bands[k, : m.n - k], k)
    return a


def _random_spd_banded(n, bw, rng):
    bands = rng.normal(size=(bw + 1, n))
    for k in range(1, bw + 1):
        bands[k, n - k :] = 0.0
    # Gershgorin shift makes the matrix strictly diagonally dominant.
    bands[0] = np.abs(bands[0]) + 2.0 * (bw + 1) * np.max(np.abs(bands)) + 1.0
    return BandedSymmetricMatrix(n=n, bandwidth=bw, bands=bands)


def test_identity_returns_rhs():
    n = 9
    m = BandedSymmetricMatrix(n=n, bandwidth=1, bands=np.vstack([np.ones(n), np.zeros(n)]))
    rhs = np.arange(n, dtype=float)
    assert np.allclose(BandedCholesky(m).solve(rhs), rhs, rtol=1e-14)


def test_neumann_laplacian_plus_identity_keeps_constants():
    # (A + I) 1 = 1 because the Neumann Laplacian annihilates constants.
    n, h = 12, 0.1
    bands = np.zeros((2, n))
    bands[0] = 1.0 + 2.0 / h**2
    bands[0, 0] = bands[0, -1] = 1.0 + 1.0 / h**2
    bands[1, : n - 1] = -1.0 / h**2
    m = BandedSymmetricMatrix(n=n, bandwidth=1, bands=bands)
    x = BandedCholesky(m).solve(np.ones(n))
    assert np.allclose(x, 1.0, atol=1e-12)


@pytest.mark.parametrize("bw", [1, 2, 4])
def test_matches_dense_factorization_oracle(bw):
    rng = np.random.default_rng(bw)
    for _ in range(10):
        n = rng.integers(5, 40)
        m = _random_spd_banded(int(n), bw, rng)
        rhs = rng.normal(size=int(n))
        x = BandedCholesky(m).solve(rhs)
        x_dense = np.linalg.solve(_dense(m), rhs)
        assert np.max(np.abs(x - x_dense)) < 1e-12 * (1.0 + np.max(np.abs(x_dense)))


def test_residual_contract():
    rng = np.random.default_rng(42)
    m = _random_spd_banded(60, 2, rng)
    rhs = rng.normal(size=60) * 1e3
    x = BandedCholesky(m).solve(rhs)
    res = np.max(np.abs(_dense(m) @ x - rhs))
    assert res <= 1e-12 * (1.0 + np.max(np.abs(rhs)))


def test_not_spd_raises():
    bands = np.zeros((2, 4))
    bands[0] = [1.0, -1.0, 1.0, 1.0]
    m = BandedSymmetricMatrix(n=4, bandwidth=1, bands=bands)
    with pytest.raises(ValueError, match="not SPD"):
        BandedCholesky(m)


def test_non_finite_entries_raise_not_spd():
    bands = np.ones((2, 4))
    bands[0] = [4.0, np.nan, 4.0, 4.0]
    m = BandedSymmetricMatrix(n=4, bandwidth=1, bands=bands)
    with pytest.raises(NotSPDError, match="non-finite"):
        BandedCholesky(m)


@pytest.mark.parametrize("bw", [1, 2, 4])
def test_bit_identical_to_scipy_banded_wrappers(bw):
    # scipy's cholesky_banded/cho_solve_banded call the same LAPACK
    # pbtrf/pbtrs; they stay here as the reference.
    rng = np.random.default_rng(10 + bw)
    for n in (bw + 1, 17, 128):
        m = _random_spd_banded(n, bw, rng)
        rhs = rng.normal(size=n)
        chol = BandedCholesky(m)
        factor = cholesky_banded(m.bands, lower=True)
        assert np.array_equal(chol._factor, factor)
        assert np.array_equal(chol.solve(rhs), cho_solve_banded((factor, True), rhs))


@pytest.mark.parametrize("bw", [1, 2, 4])
def test_not_spd_raises_like_scipy(bw):
    rng = np.random.default_rng(20 + bw)
    m = _random_spd_banded(12, bw, rng)
    m.bands[0, 5] = -1.0
    with pytest.raises(LinAlgError):
        cholesky_banded(m.bands, lower=True)
    with pytest.raises(NotSPDError, match="6-th leading minor"):
        BandedCholesky(m)


def _random_general_banded(n, kl, ku, rng):
    """A diagonally dominant banded matrix, dense and in BandedLU's storage."""
    dense = rng.normal(size=(n, n))
    rows, cols = np.indices((n, n))
    dense[(cols - rows > ku) | (rows - cols > kl)] = 0.0
    dense[np.diag_indices(n)] = 2.0 * (kl + ku + 1) * np.max(np.abs(dense)) + 1.0
    dense[0, 0] = 1e-3  # a small first pivot, which partial pivoting swaps out
    ab = np.zeros((2 * kl + ku + 1, n))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            ab[kl + ku + i - j, j] = dense[i, j]
    return dense, ab


@pytest.mark.parametrize("kl, ku", [(1, 1), (2, 3), (4, 4)])
def test_banded_lu_matches_dense_solve(kl, ku):
    rng = np.random.default_rng(30 + kl + ku)
    for n in (kl + ku + 1, 17, 128):
        dense, ab = _random_general_banded(n, kl, ku, rng)
        rhs = rng.normal(size=n)
        x = BandedLU(ab.copy(), kl, ku).solve(rhs)
        x_dense = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(x - x_dense)) < 1e-12 * (1.0 + np.max(np.abs(x_dense)))


def test_banded_lu_factors_a_fortran_array_in_place():
    rng = np.random.default_rng(40)
    _, ab = _random_general_banded(20, 2, 2, rng)
    ab = np.asfortranarray(ab)
    lu = BandedLU(ab, 2, 2)
    assert np.shares_memory(lu._factor, ab)


def test_banded_lu_singular_raises():
    ab = np.zeros((4, 4))  # kl = ku = 1: workspace, upper, diagonal, lower
    ab[2] = [1.0, 1.0, 0.0, 1.0]
    with pytest.raises(SingularMatrixError, match="pivot 3 is zero"):
        BandedLU(ab, 1, 1)


def test_banded_lu_non_finite_entries_raise():
    ab = np.ones((4, 4))
    ab[2, 1] = np.inf
    with pytest.raises(SingularMatrixError, match="non-finite"):
        BandedLU(ab, 1, 1)
