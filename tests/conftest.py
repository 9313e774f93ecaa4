import numpy as np
import pytest

from spectralbranch import HermitianFamily
from spectralbranch.linalg import dense_eig


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_diag_family(*entries):
    """Constant diagonal family, handy for contour oracles."""
    d = np.array(entries, dtype=complex)

    def matrix(t):
        return np.diag(d)

    return HermitianFamily(name="diag", dim=len(entries), matrix=matrix,
                           deriv=lambda t: np.zeros((len(entries), len(entries)), dtype=complex))


def make_offdiag_t_family():
    """A(t) = [[0, t], [t, 0]]: eigenvalues are exactly +-t, crossing at 0."""

    def matrix(t):
        return np.array([[0.0, t], [t, 0.0]], dtype=complex)

    def deriv(t):
        return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

    return HermitianFamily(name="offdiag-t", dim=2, matrix=matrix, deriv=deriv)


def random_hermitian(rng: np.random.Generator, m: int, scale: float = 1.0) -> np.ndarray:
    """Dense Hermitian test matrix with Gaussian entries."""
    M = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * 0.5 * (M + M.conj().T)


def numerical_rank(A, tol_abs: float) -> int:
    """Number of singular values strictly above the absolute threshold."""
    A = np.asarray(A, dtype=np.complex128)
    if A.size == 0:
        return 0
    return int(np.count_nonzero(np.linalg.svd(A, compute_uv=False) > tol_abs))


def hermitian_with_spectrum(rng: np.random.Generator, eigenvalues) -> np.ndarray:
    """Hermitian matrix with prescribed spectrum and Haar-ish eigenbasis."""
    w = np.asarray(eigenvalues, dtype=float)
    m = w.size
    Z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return (Q * w) @ Q.conj().T


def assert_dense_bits(A, w, V):
    """(w, V) from tridiagonal_eig equal dense_eig(A) bit for bit, V once
    cast to complex, for the dense form A of the same tridiagonal matrix.

    Every reflector of zhetrd's reduction of that A is the identity, so
    dense_eig solves the same (d, e) with the same dstevd, and V = Q Z
    differs from Z only where the complex product sums -0.0 to +0.0;
    adding 0.0 maps both to +0.0 and leaves every other value as it is.
    """
    dense_w, dense_V = dense_eig(A)
    assert w.tobytes() == dense_w.tobytes()
    assert (V.astype(np.complex128) + 0.0).tobytes() == (dense_V + 0.0).tobytes()
