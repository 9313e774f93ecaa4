import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectralbranch import (
    NotHermitianError,
    SpectrumTouchError,
    ensure_hermitian,
    operator_norm,
    solve_shifted,
)
import spectralbranch.linalg
from spectralbranch import EigenConvergenceError
from spectralbranch.linalg import (DEFAULT_TOL, _PIVOT_FLOOR, _band, _hermitian_defect,
                                  _lower_hermitian, _one_blas_thread, _psd_certified,
                                  _sturm_counts, _tridiagonal_form, as_matrix, dense_eig,
                                  eigenvalue_count, tridiagonal_eig)

from conftest import assert_dense_bits, hermitian_with_spectrum, numerical_rank, random_hermitian


def test_eig_2x2_oracle():
    # [[2,1],[1,2]] has eigenvalues 1 and 3
    A = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    w, V = dense_eig(A)
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)
    assert np.linalg.norm((V * w) @ V.conj().T - A) < 1e-12


def test_eig_sorted_ascending(rng):
    A = random_hermitian(rng, 8)
    w = dense_eig(A)[0]
    assert np.all(np.diff(w) >= 0)


def test_eig_eigenvector_residuals(rng):
    A = random_hermitian(rng, 10)
    w, V = dense_eig(A)
    for k in range(10):
        v = V[:, k]
        assert np.linalg.norm(A @ v - w[k] * v) < 1e-10 * max(1, operator_norm(A))


def test_eig_rejects_non_hermitian():
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        dense_eig(A)


def test_hermitian_defect_zero_for_hermitian(rng):
    A = random_hermitian(rng, 6)
    assert _hermitian_defect(A) < 1e-14
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
    w = dense_eig(A)[0]
    assert np.allclose(w, np.sort(target), atol=1e-10)


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), m=st.integers(1, 9))
def test_reconstruction_property(seed, m):
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, m)
    w, V = dense_eig(A)
    resid = np.linalg.norm((V * w) @ V.conj().T - A)
    assert resid < 1e-10 * max(1.0, operator_norm(A))
    # eigenvector matrix is unitary
    assert np.linalg.norm(V.conj().T @ V - np.eye(m)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_unitary_invariance_of_spectrum(seed):
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, 6)
    Q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    w1 = dense_eig(A)[0]
    w2 = dense_eig(Q @ A @ Q.conj().T)[0]
    assert np.allclose(w1, w2, atol=1e-9)


# ------------------------------------------------------------ inertia counts


def test_eigenvalue_count_2x2_oracle():
    # [[0,1],[1,0]] has eigenvalues -1, +1; the shift 0 leaves a zero diagonal
    A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
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
        # the shift 0 keeps the zero diagonal
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


def test_eigenvalue_count_zero_diagonal():
    rng = np.random.default_rng(7)
    for m in (2, 5, 12, 40):
        A = _zero_diagonal_hermitian(rng, m)
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


# ------------------------------------------------------------- Sturm counts


def _dense_tridiagonal(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _touch_delta(d, e):
    """The half-width of the touch rule that _sturm_counts states."""
    return _PIVOT_FLOOR * max(1.0, np.max(np.abs(d)) + 2.0 * np.max(np.abs(e), initial=0.0))


def _tridiagonal_case(rng, m, kind):
    """(d, e) of one kind, and shifts worth counting at: random ones and 0."""
    d, e = rng.normal(size=m), rng.normal(size=m - 1)
    if kind == "zero-diagonal":
        d[:] = 0.0
    elif kind == "split":
        e[rng.random(m - 1) < 0.4] = 0.0
    elif kind == "degenerate":
        # copies of one block, split apart: every eigenvalue repeats
        k = int(rng.integers(1, 4))
        block_d, block_e = rng.normal(size=k), rng.normal(size=k - 1)
        d = np.resize(block_d, m)
        e = np.resize(np.concatenate([block_e, [0.0]]), m - 1)
    elif kind == "rank-one":
        # v v^T for a v with two nonzeros next to each other, or one alone
        d[:], e[:] = 0.0, 0.0
        i = int(rng.integers(0, m))
        a, b = rng.normal(size=2)
        d[i] = a * a
        if i + 1 < m:
            d[i + 1], e[i] = b * b, a * b
    shifts = np.concatenate([rng.normal(scale=2.0, size=6), [0.0]])
    return d, e, shifts


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 100_000), m=st.integers(1, 60),
       kind=st.sampled_from(["random", "zero-diagonal", "split", "degenerate", "rank-one"]),
       scale=st.sampled_from([1.0, 1e154, 1e300]))
def test_sturm_counts_match_eigvalsh(seed, m, kind, scale):
    rng = np.random.default_rng(seed)
    d, e, shifts = _tridiagonal_case(rng, m, kind)
    d, e, shifts = scale * d, scale * e, scale * shifts
    w = np.linalg.eigvalsh(_dense_tridiagonal(d, e))
    # a shift on the spectrum raises by design (tested below); eigvalsh
    # itself is only good to a few ulps of the norm
    gap = np.min(np.abs(np.subtract.outer(w, shifts)), axis=0)
    shifts = shifts[gap > 1e-8 * max(scale, float(np.max(np.abs(w))))]
    assume(shifts.size)
    assert _sturm_counts(d, e, shifts) == [int(np.count_nonzero(w < s)) for s in shifts]


@pytest.mark.parametrize("scale", [1.0, 1e154, 1e300])
def test_sturm_counts_at_and_near_exact_eigenvalues(scale):
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1, and the split diagonal its
    # own entries, exactly also once scaled by a power of ten
    for d, e, w in (([0.0, 0.0], [1.0], [-1.0, 1.0]),
                    ([-1.5, 0.5, 0.5, 2.0], [0.0, 0.0, 0.0], [-1.5, 0.5, 0.5, 2.0])):
        d, e, w = scale * np.array(d), scale * np.array(e), scale * np.array(w)
        delta = _touch_delta(d, e)
        for lam in w:
            with pytest.raises(SpectrumTouchError, match="touches the spectrum"):
                _sturm_counts(d, e, [lam])
            below = int(np.count_nonzero(w < lam))
            assert _sturm_counts(d, e, [lam - 10.0 * delta, lam + 10.0 * delta]) == \
                [below, below + int(np.count_nonzero(w == lam))]


@pytest.mark.parametrize("d1, e0", [(0.0, 0.3), (1.0, 1e3)])
def test_sturm_counts_replace_a_zero_pivot(d1, e0):
    # the count at s is taken at s - delta, where the first pivot
    # d_0 - (s - delta) is exactly 0: it counts as -pivmin, with no division
    # by zero, and the next pivot is large, or +inf where e_0 / pivmin
    # overflows (e_0 = 1e3)
    s = 0.25
    delta = _PIVOT_FLOOR * max(1.0, d1 + 2.0 * e0)
    d, e = np.array([s - delta, d1]), np.array([e0])
    assert _touch_delta(d, e) == delta
    w = np.linalg.eigvalsh(_dense_tridiagonal(d, e))
    assert _sturm_counts(d, e, [s]) == [int(np.count_nonzero(w < s))] == [1]


def test_sturm_counts_one_row_and_non_finite_entries():
    assert _sturm_counts(np.array([2.0]), np.zeros(0), [1.0, 3.0, -5.0]) == [0, 1, 0]
    assert _sturm_counts(np.array([2.0 + 1e-12j]), np.zeros(0), [3.0]) == [1]
    for d, e in (([np.nan, 1.0], [0.5]), ([0.0, 1.0], [np.inf])):
        with pytest.raises(NotHermitianError, match="non-finite"):
            _sturm_counts(np.array(d), np.array(e), [0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_rejected(bad):
    A = np.array([[1.0, bad], [bad, 2.0]], dtype=complex)
    with pytest.raises(NotHermitianError):
        ensure_hermitian(A)
    with pytest.raises(NotHermitianError):
        dense_eig(A)
    with pytest.raises(NotHermitianError):
        eigenvalue_count(A, 0.0, 3.0)


@pytest.mark.parametrize("scale", [1e154, 1e300])
def test_large_finite_matrices_accepted(scale):
    # the plain Frobenius norm overflows from entries near 1.3e154
    A = scale * np.eye(2, dtype=complex)
    assert ensure_hermitian(A) is not None
    w, _ = dense_eig(A)
    assert np.allclose(w, scale, rtol=1e-15, atol=0.0)
    w, V = tridiagonal_eig(np.full(2, scale), np.zeros(1))
    assert np.allclose(w, scale, rtol=1e-15, atol=0.0)
    assert np.allclose(np.abs(V), np.eye(2), rtol=0.0, atol=1e-15)
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        ensure_hermitian(np.array([[scale, scale], [0.0, scale]], dtype=complex))


def test_residual_check_holds_at_large_scale(monkeypatch):
    # with an overflowing scale every residual would pass
    real = spectralbranch.linalg.dstevd

    def wrong_values(*args, **kwargs):
        w, Z, info = real(*args, **kwargs)
        return 1.5 * w, Z, info

    A = 1e300 * np.diag([1.0, 2.0]).astype(complex)
    monkeypatch.setattr(spectralbranch.linalg, "dstevd", wrong_values)
    with pytest.raises(EigenConvergenceError, match="residuals too large"):
        dense_eig(A)


def test_empty_matrix():
    E = np.zeros((0, 0), dtype=complex)
    assert ensure_hermitian(E).shape == (0, 0)
    assert dense_eig(E)[0].size == 0
    assert eigenvalue_count(E, 0.0, 1.0) == 0


# ---------------------------------------------------------------- dense_eig


def assert_kernel_pair(A, tol=DEFAULT_TOL):
    """dense_eig's w is the values path's bit for bit and agrees with the
    eigvalsh oracle; V passes the residual and orthogonality bounds."""
    w, V = dense_eig(A, tol)
    assert w.tobytes() == tridiagonal_eig(*_tridiagonal_form(A, tol), tol)[0].tobytes()
    m, scale = A.shape[0], max(1.0, np.linalg.norm(A))
    assert np.abs(w - np.linalg.eigvalsh(A)).max() <= 1e-14 * scale
    assert np.linalg.norm(_lower_hermitian(A) @ V - V * w) <= 1e-14 * scale
    assert np.linalg.norm(V.conj().T @ V - np.eye(m)) <= 1e-14 * m
    return w, V


def test_dense_eig_returns_lapack_pair(rng):
    # one reduction, one tridiagonal solve and Q from the reflectors: the
    # values path's w with V, no phase or order applied
    for A in (random_hermitian(rng, 9), np.diag([2.0, 1.0, 2.0]).astype(complex)):
        assert_kernel_pair(A)
    with pytest.raises(NotHermitianError):
        dense_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("defect", [
    np.array([[0.0, 0.0], [1e-7, 0.0]]),
    np.array([[0.0, 1e-7], [0.0, 0.0]]),
    np.array([[1e-7j, 0.0], [0.0, -2e-7j]]),
], ids=["lower", "upper", "imaginary-diagonal"])
def test_dense_eig_residual_is_of_the_matrix_eigh_solves(defect):
    # zhetrd reads the lower triangle and the real diagonal, so a defect that
    # hermitian_tol lets through needs no looser eig_tol
    A = np.array([[1.0, 0.5], [0.5, -2.0]], dtype=complex) + defect
    loose = DEFAULT_TOL.replace(hermitian_tol=1e-4)
    w, V = assert_kernel_pair(A, loose)
    assert np.linalg.norm(A @ V - V * w) > loose.eig_tol
    with pytest.raises(NotHermitianError, match="not Hermitian"):
        dense_eig(A)


def tie_corpus():
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


def test_dense_eig_returns_lapack_pair_on_tie_corpus():
    # exact ties included: no phase is fixed and no tied column reordered
    ties = 0
    for A in tie_corpus():
        w, _ = assert_kernel_pair(A)
        ties += int(np.any(w[1:] == w[:-1]))
    assert ties > 100


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
        assert_dense_bits(tridiagonal_dense(d, e), w, V)


@pytest.mark.parametrize("m", [1, 2, 3, 7, 25, 26, 99])
def test_tridiagonal_eig_matches_dense_on_tridiagonal_solves(rng, m):
    for split in (False, True):
        if split and m >= 4:
            d, e = split_tridiagonal(rng, m)
        else:
            d, e = rng.standard_normal(m), rng.standard_normal(m - 1)
        w, V = tridiagonal_eig(d, e)
        assert_dense_bits(tridiagonal_dense(d, e), w, V)


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
    # a negligible imaginary part is dropped, as zhetrd drops it
    d = np.array([1.0, 2.0 + 1e-15j, 3.0])
    w, V = tridiagonal_eig(d, np.ones(2))
    assert_dense_bits(tridiagonal_dense(d, np.ones(2)), w, V)
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


def test_tridiagonal_eig_checks_orthogonality_on_its_own(monkeypatch):
    # a duplicated eigenpair keeps T V - V W at rounding level: only the
    # orthogonality term can reject it
    real = spectralbranch.linalg.dstevd
    d, e = np.arange(6.0), np.ones(5)

    def duplicated_pair(*args, **kwargs):
        w, V, info = real(*args, **kwargs)
        w, V = w.copy(), V.copy(order="F")
        V[:, 0], w[0] = V[:, 1], w[1]
        return w, V, info

    w, V, _ = duplicated_pair(d, e, compute_v=1)
    T = tridiagonal_dense(d, e).real
    assert np.linalg.norm(T @ V - V * w) <= 1e-13
    monkeypatch.setattr(spectralbranch.linalg, "dstevd", duplicated_pair)
    with pytest.raises(EigenConvergenceError, match=r"\|V\*V-I\|=1\.4"):
        tridiagonal_eig(d, e)


# --------------------------------------------------------- tridiagonal form


def values_corpus():
    """Seven kinds of Hermitian matrix at m = 1..64, 96, 128 and 160: complex,
    real, diagonal, a triply degenerate eigenvalue, rank one, and complex
    scaled by 1e-100 and by 1e+100."""
    rng = np.random.default_rng(30)
    for m in [*range(1, 65), 96, 128, 160]:
        A = random_hermitian(rng, m)
        spectrum = rng.standard_normal(m)
        spectrum[:3] = 0.75
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        yield A
        yield random_hermitian(rng, m).real.astype(complex)
        yield np.diag(rng.standard_normal(m)).astype(complex)
        yield hermitian_with_spectrum(rng, spectrum)
        yield np.outer(v, v.conj())
        yield 1e-100 * A
        yield 1e+100 * A


@pytest.mark.parametrize("one_thread", [True, False], ids=["one-blas-thread", "default-threads"])
def test_tridiagonal_form_values_bit_equal_to_dense(one_thread):
    # dense_eig's own reduction, solved by the tridiagonal solver: its w
    # without forming V, on one BLAS thread (as the tracker runs) and not
    n = 0
    with _one_blas_thread if one_thread else contextlib.nullcontext():
        for A in values_corpus():
            w = tridiagonal_eig(*_tridiagonal_form(A))[0]
            assert w.tobytes() == dense_eig(A)[0].tobytes(), A.shape
            n += 1
    assert n == 469


@pytest.mark.parametrize("defect", [
    np.array([[0.0, 0.0], [1e-7, 0.0]]),
    np.array([[0.0, 1e-7], [0.0, 0.0]]),
], ids=["lower", "upper"])
def test_tridiagonal_form_is_of_the_matrix_zhetrd_reads(defect):
    # ||T||_F misses ||A||_F by more than eig_tol here, but equals the norm of
    # the lower triangle with a real diagonal, which dense_eig solves too
    A = np.array([[1.0, 0.5], [0.5, -2.0]], dtype=complex) + defect
    loose = DEFAULT_TOL.replace(hermitian_tol=1e-4)
    d, e = _tridiagonal_form(A, loose)
    assert abs(np.linalg.norm(np.concatenate([d, e, e])) - np.linalg.norm(A)) > 1e-10
    assert tridiagonal_eig(d, e, loose)[0].tobytes() == dense_eig(A, loose)[0].tobytes()


def test_tridiagonal_form_rejects_a_reduction_that_lost_the_matrix(monkeypatch, rng):
    real = spectralbranch.linalg.zhetrd
    A = random_hermitian(rng, 40)

    def failed(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        return (*out, 3)

    def perturbed(*args, **kwargs):
        c, d, e, tau, info = real(*args, **kwargs)
        return c, d, e + 1e-6, tau, info

    monkeypatch.setattr(spectralbranch.linalg, "zhetrd", failed)
    with pytest.raises(EigenConvergenceError, match="info=3"):
        _tridiagonal_form(A)
    monkeypatch.setattr(spectralbranch.linalg, "zhetrd", perturbed)
    with pytest.raises(EigenConvergenceError, match="lost the matrix"):
        _tridiagonal_form(A)
    # the tridiagonal solve alone would accept the wrong T: only the tie to
    # A's norm rejects it
    _, d, e, _, _ = perturbed(A, lower=1)
    tridiagonal_eig(d, e)


def test_band_storage_holds_the_lower_diagonals(rng):
    X = random_hermitian(rng, 5)
    ab = _band(X, 2)
    for l in range(3):
        assert np.array_equal(ab[l, :5 - l], np.diagonal(X, -l)) and not ab[l, 5 - l:].any()


def test_psd_certificate_refuses_a_negative_eigenvalue_at_rounding_level():
    # tridiag(1/2, a, 1/2) at m = 50 has least eigenvalue a - cos(pi / 51):
    # the kernel's rounding bound, delta, is about 1e-14 here
    m = 50
    cos = np.cos(np.pi / (m + 1))

    def band(shift):
        return np.array([np.full(m, cos + shift), np.r_[np.full(m - 1, 0.5), 0.0]])

    def least(shift):
        ab = band(shift)
        T = np.diag(ab[0]) + np.diag(ab[1, :-1], 1) + np.diag(ab[1, :-1], -1)
        return np.linalg.eigvalsh(T)[0]

    def exact(x):
        return np.zeros_like(x)

    for shift in (-2e-14, -1e-15):
        assert least(shift) < 0.0
        assert not _psd_certified(band(shift), exact)
    assert least(1e-12) > 0.0
    assert _psd_certified(band(1e-12), exact)
    assert _psd_certified(band(1e-12).astype(complex), exact)
    # an error bound of 1e-11 I, wider than the margin, admits an indefinite matrix
    assert not _psd_certified(band(1e-12), lambda x: 1e-11 * x)
    # the power-of-two scaling makes the test blind to the size of the diagonal
    D = np.ldexp(1.0, np.arange(m) * 20 - 500)
    rows = np.minimum(np.arange(2)[:, None] + np.arange(m), m - 1)
    assert _psd_certified(band(1e-12) * D[rows] * D, exact)
    assert not _psd_certified(band(-2e-14) * D[rows] * D, exact)
