import numpy as np
import pytest

from spectralbranch import HermitianFamily


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


def assert_dense_bits(dense, w, V):
    """(w, V) from tridiagonal_eig give hermitian_eig's decomposition bit for bit.

    Below 26 rows zheevd runs QR on complex vectors, whose rotations leave
    -0.0 where the real rotations of dstevd leave +0.0; adding 0.0 maps both
    to +0.0 and leaves every other value as it is.
    """
    from spectralbranch.linalg import canonical_eig

    dec = canonical_eig(w, V)
    assert dec.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
    if w.size > 25:
        assert dec.eigenvectors.tobytes() == dense.eigenvectors.tobytes()
    assert (dec.eigenvectors + 0.0).tobytes() == (dense.eigenvectors + 0.0).tobytes()
