import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralbranch import (
    ExprMatrixSpec,
    HermitianFamily,
    NotHermitianError,
    graph_norm_equivalence_ratio,
)
from spectralbranch.families import _graph_norm
from spectralbranch.gallery import CurveLemmaFamily, ResolventExampleFamily, SchrodingerFamily
from spectralbranch.tracker import _read_unit
from spectralbranch.util import central_first, one_sided_first

from conftest import make_diag_family, make_offdiag_t_family, random_hermitian


def smooth_family():
    def matrix(t):
        return np.array([[np.sin(t), t**3], [t**3, np.cos(2 * t)]], dtype=complex)

    def deriv(t):
        return np.array([[np.cos(t), 3 * t**2], [3 * t**2, -2 * np.sin(2 * t)]], dtype=complex)

    return HermitianFamily(name="smooth", dim=2, matrix=matrix, deriv=deriv)


def test_eval_is_prefactor_times_unit():
    fam = HermitianFamily(name="scaled", dim=1,
                          matrix=lambda t: np.array([[t]], dtype=complex),
                          scale_prefactor=2.0**-20)
    assert fam.eval(3.0)[0, 0] == 3.0 * 2.0**-20
    assert fam.unit(3.0)[0, 0] == 3.0


def test_eval_rejects_non_hermitian():
    fam = HermitianFamily(name="bad", dim=2,
                          matrix=lambda t: np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(NotHermitianError):
        fam.eval(0.0)


def test_eval_rejects_wrong_shape():
    fam = HermitianFamily(name="bad", dim=3,
                          matrix=lambda t: np.eye(2, dtype=complex))
    with pytest.raises(ValueError):
        fam.eval(0.0)


def test_hermiticity_on_gallery_families(rng):
    families = [
        CurveLemmaFamily(n_max=6).global_family(),
        ResolventExampleFamily(m=25).family(),
        SchrodingerFamily(m=15, potential="t*x").family(),
    ]
    lo_hi = [(3.0, 8.0), (0.05, 1.0), (0.0, 1.0)]
    for fam, (lo, hi) in zip(families, lo_hi):
        for t in rng.uniform(lo, hi, size=100):
            A = fam.eval(t)
            assert np.linalg.norm(A - A.conj().T) <= 1e-10 * max(1, np.linalg.norm(A))


def test_analytic_derivative_oracle():
    fam = make_offdiag_t_family()
    D = fam.derivative(0.37)
    assert np.allclose(D, [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_constant_family_zero_derivative():
    fam = make_diag_family(1.0, 2.0, 5.0)
    assert np.linalg.norm(fam.derivative(0.9)) == 0.0


def test_richardson_ratio_second_order():
    # plain symmetric difference vs the analytic derivative: halving h
    # divides the residual by ~4 on a smooth family
    fam = smooth_family()
    t, h = 0.7, 1e-3

    def residual(step):
        fd = (fam.eval(t + step) - fam.eval(t - step)) / (2 * step)
        return np.linalg.norm(fd - fam.derivative(t))

    ratio = residual(h) / residual(h / 2)
    assert 3.5 <= ratio <= 4.5


def test_fd_fallback_matches_analytic():
    fam = smooth_family()
    bare = HermitianFamily(name="smooth-fd", dim=2, matrix=fam.matrix)
    for t in (-1.1, 0.0, 0.7):
        assert np.linalg.norm(bare.derivative(t) - fam.derivative(t)) < 1e-9
        assert np.linalg.norm(bare.derivative(t) - bare.derivative(t).conj().T) == 0.0


def dense_cubic_family(rng, m, prefactor):
    H0, H1, H2 = (random_hermitian(rng, m) for _ in range(3))
    return HermitianFamily(name="dense-cubic", dim=m, scale_prefactor=prefactor,
                           matrix=lambda t: H0 + np.sin(2.0 * t) * H1 + t**3 * H2)


@pytest.mark.parametrize("prefactor", [1.0, 3.0, 2.0**-144])
def test_fd_derivative_bits(rng, prefactor):
    # the stencils written out: central, f (0.5 (D + D^H)), and one-sided
    # toward side, f 0.5 (D + D^H), each of five unit samples h_fd max(1, |t|) apart
    fam = dense_cubic_family(rng, 7, prefactor)
    for t in (-1.7, 0.0, 0.37, 2.5):
        h = fam.tol.h_fd * max(1.0, abs(t))
        D = central_first(np.stack([fam.unit(t + k * h) for k in (-2, -1, 0, 1, 2)]), h)
        assert fam.derivative(t).tobytes() == (prefactor * (0.5 * (D + D.conj().T))).tobytes()
        assert fam.derivative(t, None).tobytes() == fam.derivative(t).tobytes()
        for side in ("left", "right"):
            sgn = 1.0 if side == "right" else -1.0
            D = one_sided_first(np.stack([fam.unit(t + sgn * j * h) for j in range(5)]), h, side)
            want = prefactor * 0.5 * (D + D.conj().T)
            assert fam.derivative(t, side).tobytes() == want.tobytes(), (t, side)


def test_analytic_derivative_ignores_side():
    fam = smooth_family()
    for t in (-1.1, 0.0, 0.7):
        D = fam.derivative(t)
        assert all(fam.derivative(t, side).tobytes() == D.tobytes() for side in ("left", "right"))


def test_fd_derivative_rejects_unknown_side(rng):
    fam = dense_cubic_family(rng, 3, 1.0)
    with pytest.raises(ValueError, match="side"):
        fam.derivative(0.0, "up")


def banded_family(bands, m=4, **kwargs):
    """A tridiagonal family whose A' is tridiagonal_deriv's bands."""
    return HermitianFamily(name="banded", dim=m, matrix=lambda t: np.eye(m, dtype=complex),
                           tridiagonal=lambda t: (np.ones(m), np.zeros(m - 1)),
                           tridiagonal_deriv=bands, **kwargs)


@pytest.mark.parametrize("prefactor", [1.0, 3.0, 2.0**-144])
def test_band_derivative_places_its_entries(prefactor):
    # the dense A' holds the bands' values, entry for entry, with conj(de)
    # below the diagonal and zeros elsewhere, whatever side is asked for
    dd, de = np.array([1.5, -2.0, 0.0, 3.25]), np.array([0.5j, -1.0, 2.0 - 0.25j])
    fam = banded_family(lambda t: (t * dd, t * de), scale_prefactor=prefactor)
    for t in (-0.3, 0.0, 2.0):
        want = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            want[i, i] = prefactor * (t * dd[i])
        for i in range(3):
            want[i, i + 1] = prefactor * (t * de[i])
            want[i + 1, i] = np.conj(prefactor * (t * de[i]))
        for side in (None, "left", "right"):
            assert fam.derivative(t, side).tobytes() == want.tobytes(), (t, side)


def test_schrodinger_band_derivative_is_the_dense_diagonal():
    # the same bytes as the dense derivative it replaced: the central
    # difference of the potential on the diagonal, as complex
    sch = SchrodingerFamily(m=15, potential="t*x + sin(3*t*x)")
    fam, xs = sch.family(), sch.grid_points()
    for t in (-2.5, 0.0, 0.4):
        ht = 1e-6 * max(1.0, abs(t))
        vp = ((t + ht) * xs + np.sin(3 * (t + ht) * xs)
              - ((t - ht) * xs + np.sin(3 * (t - ht) * xs))) / (2.0 * ht)
        assert np.array_equal(fam.derivative_bands(t)[0], vp)
        assert fam.derivative(t).tobytes() == np.diag(vp).astype(np.complex128).tobytes()


@pytest.mark.parametrize("bands, error", [
    # de one short, dd one long: the tridiagonal check's ValueError
    (lambda t: (np.ones(4), np.zeros(2)), ValueError),
    (lambda t: (np.ones(5), np.zeros(4)), ValueError),
    # non-finite entries and an imaginary diagonal beyond hermitian_tol:
    # its NotHermitianError
    (lambda t: (np.array([1.0, np.nan, 0.0, 0.0]), np.zeros(3)), NotHermitianError),
    (lambda t: (np.ones(4), np.array([0.0, np.inf * 1j, 0.0])), NotHermitianError),
    (lambda t: (np.array([1.0, 1e-3j, 0.0, 0.0]), np.zeros(3)), NotHermitianError),
], ids=["de-short", "dd-long", "nan-diagonal", "inf-off-diagonal", "imaginary-diagonal"])
def test_band_derivative_is_checked_as_the_tridiagonal_is(bands, error):
    fam = banded_family(bands)
    with pytest.raises(error):
        fam.derivative_bands(0.0)
    with pytest.raises(error):
        fam.derivative(0.0)
    # the same bands as a tridiagonal A(t) raise the same error where they
    # are read, as _read_unit checks them: e must be real there
    if not np.iscomplexobj(bands(0.0)[1]):
        fam = HermitianFamily(name="bands", dim=4, matrix=lambda t: np.eye(4, dtype=complex),
                              tridiagonal=bands)
        with pytest.raises(error):
            _read_unit(fam, 0.0)


def test_band_derivative_within_hermitian_tol_keeps_the_real_diagonal():
    fam = banded_family(lambda t: (np.array([1.0, 1e-12j, 0.0, 0.0]), np.full(3, 2j)))
    dd, de = fam.derivative_bands(0.0)
    assert dd.dtype == np.float64 and np.array_equal(dd, [1.0, 0.0, 0.0, 0.0])
    assert de.dtype == np.complex128 and np.array_equal(de, np.full(3, 2j))


def test_band_derivative_needs_a_tridiagonal_family_and_no_deriv():
    bands = lambda t: (np.ones(4), np.zeros(3))  # noqa: E731
    with pytest.raises(ValueError, match="without tridiagonal"):
        HermitianFamily(name="no-tridiagonal", dim=4, matrix=lambda t: np.eye(4),
                        tridiagonal_deriv=bands)
    with pytest.raises(ValueError, match="both deriv and tridiagonal_deriv"):
        banded_family(bands, deriv=lambda t: np.zeros((4, 4)))


def test_graph_norm_oracles():
    # ||u||_t = sqrt(||u||^2 + ||A(t) u||^2), the norm graph_norm_equivalence_ratio compares
    zero = make_diag_family(0.0, 0.0)
    u = np.array([3.0, 4.0])
    assert _graph_norm(zero.eval(0.0), u) == pytest.approx(5.0)

    three = make_diag_family(3.0)
    assert _graph_norm(three.eval(0.0), np.array([1.0])) == pytest.approx(np.sqrt(10.0))
    assert _graph_norm(three.eval(0.0), np.array([0.0])) == 0.0


def test_graph_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        _graph_norm(make_diag_family(1.0, 2.0).eval(0.0), np.array([1.0, 2.0, 3.0]))


def test_graph_norm_dominates_euclidean(rng):
    fam = smooth_family()
    for _ in range(20):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert _graph_norm(fam.eval(0.3), u) >= np.linalg.norm(u) - 1e-14


def test_equivalence_ratio_same_t():
    fam = smooth_family()
    assert graph_norm_equivalence_ratio(fam, 0.4, 0.4) == pytest.approx(1.0, abs=1e-12)


def test_equivalence_ratio_diag_t():
    # A(t)=diag(t): ||e_1||_0 = 1 while ||e_1||_1 = sqrt(2)
    fam = HermitianFamily(name="diag-t", dim=1,
                          matrix=lambda t: np.array([[t]], dtype=complex))
    assert graph_norm_equivalence_ratio(fam, 0.0, 1.0) >= np.sqrt(2.0) - 1e-12


def test_equivalence_ratio_constant_family():
    fam = make_diag_family(1.0, 2.0)
    assert graph_norm_equivalence_ratio(fam, 0.1, 0.9) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(s=st.floats(-2, 2, allow_nan=False), t=st.floats(-2, 2, allow_nan=False),
       seed=st.integers(0, 1000))
def test_equivalence_ratio_product_at_least_one(s, t, seed):
    fam = smooth_family()
    rng = np.random.default_rng(seed)
    fwd = graph_norm_equivalence_ratio(fam, s, t, samples=8, rng=rng)
    back = graph_norm_equivalence_ratio(fam, t, s, samples=8, rng=rng)
    assert fwd * back >= 1.0 - 1e-12


def test_expr_matrix_spec_assembly():
    spec = ExprMatrixSpec(dim=2, entries=(("1", "t/2"), ("t/2", "2")))
    fam = spec.to_family()
    A = fam.eval(0.5)
    assert np.allclose(A, [[1.0, 0.25], [0.25, 2.0]])


def test_expr_matrix_power_scale():
    spec = ExprMatrixSpec(dim=1, entries=(("2^(-(3*3))",),))
    assert spec.to_family().eval(0.0)[0, 0] == pytest.approx(1.0 / 512.0)


def test_expr_matrix_upper_triangle_wins():
    # lower triangle must parse but the assembled matrix mirrors the upper
    spec = ExprMatrixSpec(dim=2, entries=(("0", "t"), ("999*t", "0")))
    A = spec.to_family().eval(2.0)
    assert A[1, 0] == A[0, 1] == 2.0


def test_expr_matrix_t_range_tracking():
    spec = ExprMatrixSpec(dim=2, entries=(("t^2", "1"), ("1", "-t^2")))
    fam = spec.to_family()
    w = np.linalg.eigvalsh(fam.eval(1.5))
    assert np.allclose(w, [-np.sqrt(1.5**4 + 1), np.sqrt(1.5**4 + 1)])


def test_equivalence_ratio_builds_each_matrix_once():
    # reference: two graph norms ||v||_t = sqrt(||v||^2 + ||A(t) v||^2) per
    # sample vector, each from a freshly built A(t), as the ratio is defined
    fam = smooth_family()

    def graph_norm(t, v):
        Av = fam.eval(t) @ v
        return float(np.sqrt(np.vdot(v, v).real + np.vdot(Av, Av).real))

    calls = []
    counted = HermitianFamily(name="counted", dim=2, matrix=lambda t: calls.append(t) or fam.matrix(t))
    vectors = list(np.eye(2, dtype=complex))
    draws = np.random.default_rng(5)
    for _ in range(6):
        vectors.append(draws.standard_normal(2) + 1j * draws.standard_normal(2))
    want = max(graph_norm(0.9, v) / graph_norm(-0.4, v) for v in vectors)
    got = graph_norm_equivalence_ratio(counted, -0.4, 0.9, samples=6,
                                       rng=np.random.default_rng(5))
    assert got == want
    assert calls == [-0.4, 0.9]


def _dense_curve(m, seed=3):
    """A dense m x m Hermitian family A0 + t A1, with A0 and A1 built once."""
    draws = np.random.default_rng(seed)
    A0, A1 = (B + B.conj().T for B in (draws.standard_normal((m, m))
                                       + 1j * draws.standard_normal((m, m)) for _ in range(2)))
    return HermitianFamily(name="dense-curve", dim=m, matrix=lambda t: A0 + t * A1)


def test_equivalence_ratio_holds_one_basis_matrix():
    # the m basis vectors are rows of one identity: the traced peak stays a
    # few m x m complex matrices (two family matrices, their Hermitian check
    # and the basis), not O(m^3)
    m = 200
    fam = _dense_curve(m)
    tracemalloc.start()
    try:
        graph_norm_equivalence_ratio(fam, -0.3, 0.6, samples=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * m * m * 16
