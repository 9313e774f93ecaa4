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
