import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scipy.linalg.lapack import zhetrf

from spectralbranch import (
    NotHermitianError,
    SpectrumTouchError,
    ensure_hermitian,
    hermitian_defect,
    hermitian_eig,
    hermitian_with_spectrum,
    numerical_rank,
    operator_norm,
    random_hermitian,
    solve_shifted,
)
import spectralbranch.linalg
from spectralbranch import EigenConvergenceError
from spectralbranch.linalg import (as_matrix, canonical_eig, dense_eig, eigenvalue_count,
                                  tridiagonal_eig)

from conftest import assert_dense_bits


def test_eig_2x2_oracle():
    # [[2,1],[1,2]] has eigenvalues 1 and 3
    A = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    dec = hermitian_eig(A)
    assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)
    V = dec.eigenvectors
    assert np.linalg.norm((V * dec.eigenvalues) @ V.conj().T - A) < 1e-12


def test_eig_sorted_ascending(rng):
    A = random_hermitian(rng, 8)
    w = hermitian_eig(A).eigenvalues
    assert np.all(np.diff(w) >= 0)


def test_eig_eigenvector_residuals(rng):
    A = random_hermitian(rng, 10)
    dec = hermitian_eig(A)
    for k in range(10):
        v = dec.eigenvectors[:, k]
        assert np.linalg.norm(A @ v - dec.eigenvalues[k] * v) < 1e-10 * max(1, operator_norm(A))


def test_eig_rejects_non_hermitian():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        hermitian_eig(A)


def test_hermitian_defect_zero_for_hermitian(rng):
    A = random_hermitian(rng, 6)
    assert hermitian_defect(A) < 1e-14
    assert ensure_hermitian(A) is A


def test_solve_shifted_diag_oracle():
    # (diag(1,2,5) - 1.5 I)^{-1} applied to I has diagonal (-2, 2, 2/7)
    A = np.diag([1.0, 2.0, 5.0]).astype(complex)
    R = solve_shifted(A, 1.5 + 0.0j, np.eye(3, dtype=complex))
    expect = np.diag([-2.0, 2.0, 0.2857142857142857])
    assert np.linalg.norm(R - expect) < 1e-12


def test_solve_shifted_complex_shift(rng):
    A = random_hermitian(rng, 7)
    z = 0.3 + 0.9j
    B = rng.normal(size=(7, 3)) + 1j * rng.normal(size=(7, 3))
    X = solve_shifted(A, z, B)
    assert np.linalg.norm((A - z * np.eye(7)) @ X - B) < 1e-10


def test_numerical_rank_projector():
    P = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert numerical_rank(P, 0.5) == 2
    assert numerical_rank(np.zeros((3, 3), dtype=complex), 0.5) == 0


def test_operator_norm_diag():
    assert abs(operator_norm(np.diag([1.0, -7.0, 3.0]).astype(complex)) - 7.0) < 1e-12


def test_hermitian_with_spectrum(rng):
    target = np.array([-2.0, 0.5, 0.5, 3.0])
    A = hermitian_with_spectrum(rng, target)
    w = hermitian_eig(A).eigenvalues
    assert np.allclose(w, np.sort(target), atol=1e-10)


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 9))
def test_reconstruction_property(seed, m):
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, m)
    dec = hermitian_eig(A)
    V = dec.eigenvectors
    resid = np.linalg.norm((V * dec.eigenvalues) @ V.conj().T - A)
    assert resid < 1e-10 * max(1.0, operator_norm(A))
    # eigenvector matrix is unitary
    assert np.linalg.norm(V.conj().T @ V - np.eye(m)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_unitary_invariance_of_spectrum(seed):
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, 6)
    Q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    w1 = hermitian_eig(A).eigenvalues
    w2 = hermitian_eig(Q @ A @ Q.conj().T).eigenvalues
    assert np.allclose(w1, w2, atol=1e-9)


# ------------------------------------------------------------ inertia counts


def test_eigenvalue_count_2x2_pivot_oracle():
    # [[0,1],[1,0]] has eigenvalues -1, +1; the shift 0 leaves a zero diagonal,
    # so Bunch-Kaufman must take a 2x2 pivot
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    assert np.all(zhetrf(A, lower=1)[1] < 0)
    assert eigenvalue_count(A, 0.0, 2.0) == 1
    assert eigenvalue_count(A, -2.0, 0.0) == 1
    assert eigenvalue_count(A, -2.0, 2.0) == 2
    assert eigenvalue_count(A, -0.5, 0.5) == 0


def _zero_diagonal_hermitian(rng, m):
    A = random_hermitian(rng, m)
    np.fill_diagonal(A, 0.0)
    return A


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), m=st.integers(1, 60), zero_diag=st.booleans())
def test_eigenvalue_count_matches_eigvalsh(seed, m, zero_diag):
    rng = np.random.default_rng(seed)
    if zero_diag:
        # the shift 0 keeps the zero diagonal, forcing 2x2 pivots for m >= 2
        A = _zero_diagonal_hermitian(rng, m)
        ends = [0.0, float(rng.normal(scale=3.0))]
    else:
        A = random_hermitian(rng, m)
        ends = list(rng.normal(scale=3.0, size=2))
    lo, hi = min(ends), max(ends)
    w = np.linalg.eigvalsh(A)
    # an endpoint on the spectrum raises by design (tested below)
    assume(lo < hi and np.min(np.abs(np.subtract.outer(w, [lo, hi]))) > 1e-8)
    want = int(np.count_nonzero((w > lo) & (w < hi)))
    assert eigenvalue_count(A, lo, hi) == want


def test_eigenvalue_count_zero_diagonal_uses_2x2_pivots():
    rng = np.random.default_rng(7)
    for m in (2, 5, 12, 40):
        A = _zero_diagonal_hermitian(rng, m)
        assert np.any(zhetrf(A, lower=1)[1] < 0)
        w = np.linalg.eigvalsh(A)
        assert eigenvalue_count(A, 0.0, 50.0) == np.count_nonzero(w > 0.0)
        assert eigenvalue_count(A, -50.0, 0.0) == np.count_nonzero(w < 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_eigenvalue_count_shift_on_eigenvalue_raises(seed):
    rng = np.random.default_rng(seed)
    spectrum = np.array([-1.5, -0.25, 0.5, 0.5, 2.0])
    A = hermitian_with_spectrum(rng, spectrum)
    for lo, hi in ((0.5, 3.0), (-3.0, 0.5), (-1.5, 0.0), (0.0, 2.0)):
        with pytest.raises(SpectrumTouchError):
            eigenvalue_count(A, lo, hi)
    D = np.diag(spectrum).astype(complex)
    with pytest.raises(SpectrumTouchError):
        eigenvalue_count(D, -0.25, 1.0)


def test_eigenvalue_count_rejects_empty_interval():
    with pytest.raises(ValueError):
        eigenvalue_count(np.eye(2, dtype=complex), 1.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(bad):
    A = np.array([[1.0, bad], [bad, 2.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        ensure_hermitian(A)
    with pytest.raises(NotHermitianError):
        hermitian_eig(A)
    with pytest.raises(NotHermitianError):
        eigenvalue_count(A, 0.0, 3.0)


@pytest.mark.parametrize("scale", [1e154, 1e300])
def test_large_finite_matrices_accepted(scale):
    # the plain Frobenius norm overflows from entries near 1.3e154
    A = scale * np.eye(2, dtype=complex)
    assert ensure_hermitian(A) is not None
    dec = hermitian_eig(A)
    assert np.allclose(dec.eigenvalues, scale, rtol=1e-15, atol=0.0)
    w, V = tridiagonal_eig(np.full(2, scale), np.zeros(1))
    assert np.allclose(w, scale, rtol=1e-15, atol=0.0)
    assert np.allclose(np.abs(V), np.eye(2), rtol=0.0, atol=1e-15)
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        ensure_hermitian(np.array([[scale, scale], [0.0, scale]], dtype=complex))


def test_residual_check_holds_at_large_scale(monkeypatch):
    # with an overflowing scale every residual would pass
    real = np.linalg.eigh

    def wrong_values(A):
        w, V = real(A)
        return 1.5 * w, V

    A = 1e300 * np.diag([1.0, 2.0]).astype(complex)
    monkeypatch.setattr(np.linalg, "eigh", wrong_values)
    with pytest.raises(EigenConvergenceError, match="residuals too large"):
        hermitian_eig(A)


def test_empty_matrix():
    E = np.zeros((0, 0), dtype=complex)
    assert ensure_hermitian(E).shape == (0, 0)
    assert hermitian_eig(E).eigenvalues.size == 0
    assert eigenvalue_count(E, 0.0, 1.0) == 0


# ------------------------------------------------------------ canonical form


def reference_canonical(w, V):
    """canonical_eig written column by column and tie run by tie run: the
    oracle the vectorized form must match byte for byte."""
    V = np.asarray(V, dtype=np.complex128, order="C")
    mags = np.abs(V)
    first = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    lead = V[first, np.arange(V.shape[1])]
    V = V * np.conj(lead / np.abs(lead))
    w = np.asarray(w, dtype=float)
    i = 0
    m = w.size
    while i < m:
        j = i + 1
        while j < m and w[j] == w[i]:
            j += 1
        if j - i > 1:
            block = V[:, i:j]
            keys = []
            for c in range(block.shape[1]):
                mags = np.abs(block[:, c])
                keys.append(int(np.argmax(mags > 1e-12 * mags.max())))
            order = np.argsort(np.asarray(keys), kind="stable")
            V[:, i:j] = block[:, order]
        i = j
    return w, V


def canonical_corpus():
    """360 Hermitian matrices, m = 1..40: random, real, a repeated diagonal,
    permuted copies of kron(I, H) and of the repeated diagonal with unit
    off-diagonals, kron(I, H), kron(H, I), zero and identity."""
    rng = np.random.default_rng(2024)
    for m in range(1, 41):
        b = max(k for k in range(1, m) if m % k == 0) if m > 1 else 1
        H = random_hermitian(rng, b)
        perm = np.eye(m)[rng.permutation(m)]
        repeated = np.diag(rng.integers(-2, 3, m).astype(float)).astype(complex)
        yield random_hermitian(rng, m)
        yield random_hermitian(rng, m).real.astype(complex)
        yield repeated
        yield perm @ np.kron(np.eye(m // b), H) @ perm.T
        yield perm @ (repeated + np.diag(np.ones(m - 1), 1) + np.diag(np.ones(m - 1), -1)) @ perm.T
        yield np.kron(np.eye(m // b), H)
        yield np.kron(H, np.eye(m // b))
        yield np.zeros((m, m), dtype=complex)
        yield np.eye(m, dtype=complex)


def test_canonical_eig_matches_reference_on_dense_solves():
    ties = 0
    for A in canonical_corpus():
        w, V = np.linalg.eigh(A)
        ties += int(np.any(w[1:] == w[:-1]))
        ref_w, ref_V = reference_canonical(w, V)
        for dec in (canonical_eig(w, V), hermitian_eig(A)):
            assert dec.eigenvalues.tobytes() == ref_w.tobytes()
            assert dec.eigenvectors.tobytes() == ref_V.tobytes()
            assert dec.eigenvectors.flags.c_contiguous
    assert ties > 100


@pytest.mark.parametrize("m", [1, 2, 3, 7, 25, 26, 99])
def test_canonical_eig_matches_reference_on_tridiagonal_solves(rng, m):
    for split in (False, True):
        if split and m >= 4:
            d, e = split_tridiagonal(rng, m)
        else:
            d, e = rng.standard_normal(m), rng.standard_normal(m - 1)
        w, V = tridiagonal_eig(d, e)
        dec = canonical_eig(w, V)
        ref_w, ref_V = reference_canonical(w, V)
        assert dec.eigenvalues.tobytes() == ref_w.tobytes()
        assert dec.eigenvectors.tobytes() == ref_V.tobytes()


def test_dense_eig_returns_lapack_pair(rng):
    # the checked pair is eigh's own output, with no phase or order applied
    for A in (random_hermitian(rng, 9), np.diag([2.0, 1.0, 2.0]).astype(complex)):
        w, V = dense_eig(A)
        ref_w, ref_V = np.linalg.eigh(A)
        assert w.tobytes() == ref_w.tobytes() and V.tobytes() == ref_V.tobytes()
    with pytest.raises(NotHermitianError):
        dense_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


# -------------------------------------------------------------- tridiagonal


def tridiagonal_dense(d, e):
    return (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)).astype(complex)


def split_tridiagonal(rng, m):
    """Two equal blocks split by a zero off-diagonal: every eigenvalue is an
    exact tie, and a second zero splits each block again."""
    h = m // 2
    d = rng.standard_normal(m)
    e = rng.standard_normal(m - 1)
    d[h:2 * h], e[h:2 * h - 1] = d[:h], e[:h - 1]
    e[h - 1] = 0.0
    e[h // 2] = e[h + h // 2] = 0.0
    return d, e


@pytest.mark.parametrize("m", [3, 7, 25, 26, 99, 200])
def test_tridiagonal_eig_split_and_ties_bit_equal_to_dense(rng, m):
    for scale in (1.0, 1e-100, 1e300):
        d, e = split_tridiagonal(rng, m)
        d, e = scale * d, scale * e
        w, V = tridiagonal_eig(d, e)
        if m >= 4:
            assert np.any(w[1:] == w[:-1])
        assert_dense_bits(hermitian_eig(tridiagonal_dense(d, e)), w, V)


def test_tridiagonal_eig_checks_its_input():
    with pytest.raises(ValueError):
        tridiagonal_eig(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        tridiagonal_eig(np.zeros(0), np.zeros(0))
    for bad in (np.nan, np.inf):
        with pytest.raises(NotHermitianError, match="non-finite"):
            tridiagonal_eig(np.array([1.0, bad, 2.0]), np.ones(2))
        with pytest.raises(NotHermitianError, match="non-finite"):
            tridiagonal_eig(np.ones(3), np.array([1.0, bad]))
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        tridiagonal_eig(np.array([1.0, 2.0 + 1e-6j, 3.0]), np.ones(2))
    # a negligible imaginary part is dropped, as zheevd drops it
    d = np.array([1.0, 2.0 + 1e-15j, 3.0])
    w, V = tridiagonal_eig(d, np.ones(2))
    assert_dense_bits(hermitian_eig(tridiagonal_dense(d, np.ones(2))), w, V)
    w, V = tridiagonal_eig(np.array([-2.5]), np.zeros(0))
    assert np.array_equal(w, [-2.5]) and np.array_equal(V, [[1.0]])


def test_tridiagonal_eig_rejects_failed_solves(monkeypatch):
    real = spectralbranch.linalg.dstevd
    d, e = np.arange(6.0), np.ones(5)

    def not_converged(*args, **kwargs):
        w, V, _ = real(*args, **kwargs)
        return w, V, 2

    def wrong_vector(*args, **kwargs):
        w, V, info = real(*args, **kwargs)
        V = V.copy()
        V[:, 0] = V[:, 1]
        return w, V, info

    def wrong_value(*args, **kwargs):
        w, V, info = real(*args, **kwargs)
        return w + 1e-6, V, info

    monkeypatch.setattr(spectralbranch.linalg, "dstevd", not_converged)
    with pytest.raises(EigenConvergenceError, match="info=2"):
        tridiagonal_eig(d, e)
    for corrupt in (wrong_vector, wrong_value):
        monkeypatch.setattr(spectralbranch.linalg, "dstevd", corrupt)
        with pytest.raises(EigenConvergenceError, match="residuals too large"):
            tridiagonal_eig(d, e)
