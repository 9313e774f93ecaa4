import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar as scipy_minimize_scalar

import spectralbranch.contour
import spectralbranch.linalg
import spectralbranch.tracker
from spectralbranch import (
    Contour,
    CountingError,
    GapCollapseError,
    HermitianFamily,
    NotHermitianError,
    RankDriftError,
    SpectrumTouchError,
    estimate_derivative_bound,
    extend_parameterization,
    gronwall_screen,
    match_crossing,
    one_sided_derivatives,
    sorted_eigenvalues,
    track_branches,
)
import dataclasses

from spectralbranch.config import DEFAULT_TOL
from spectralbranch.gallery import CurveLemmaFamily, SchrodingerFamily
from spectralbranch.linalg import dense_eig, operator_norm
from spectralbranch.tracker import minimize_scalar, one_sided_slot_derivatives
from spectralbranch.util import multiset_distance, one_sided_first, one_sided_second

from conftest import make_diag_family, make_offdiag_t_family, random_hermitian


def diag_curve_family(curves, dcurves=None):
    """Diagonal family from a list of scalar functions of t."""
    m = len(curves)

    def matrix(t):
        return np.diag([c(t) for c in curves]).astype(complex)

    deriv = None
    if dcurves is not None:
        def deriv(t):
            return np.diag([d(t) for d in dcurves]).astype(complex)

    return HermitianFamily(name="diag-curves", dim=m, matrix=matrix, deriv=deriv)


# ---------------------------------------------------------------- derivatives


def test_sorted_eigenvalues_ascending():
    fam = make_offdiag_t_family()
    w = sorted_eigenvalues(fam, 0.75)
    assert np.allclose(w, [-0.75, 0.75])


def test_one_sided_derivatives_crossing_oracle():
    # [[0,t],[t,0]] at 0: P = I, A' = [[0,1],[1,0]], spectrum {-1, +1}
    fam = make_offdiag_t_family()
    g = Contour(center=0.0, radius=0.5)
    for side in ("left", "right"):
        d = one_sided_derivatives(fam, 0.0, g, side=side)
        assert np.allclose(np.sort(d), [-1.0, 1.0], atol=1e-10)


def test_one_sided_derivatives_constant_family():
    fam = make_diag_family(0.3, 0.35)
    d = one_sided_derivatives(fam, 0.0, Contour(center=0.325, radius=0.3))
    assert np.allclose(d, [0.0, 0.0], atol=1e-10)


def test_one_sided_derivatives_window_center_is_flat():
    # each branch of the collision-window model has zero slope at the center
    lemma = CurveLemmaFamily(n_max=6)
    fam = lemma.global_family()
    n = 3
    d = 2.0 ** (-n * n)
    t_n = lemma.t_center(n)
    for center in (d, -d):
        got = one_sided_derivatives(fam, t_n, Contour(center=center, radius=0.5 * d))
        assert got.shape == (1,)
        assert abs(got[0]) < 1e-10


def test_one_sided_derivatives_rank_drift():
    # third eigenvalue dives into the contour within the probe window
    def matrix(t):
        return np.diag([t, -t, 0.2 - 15000.0 * t]).astype(complex)

    fam = HermitianFamily(name="diver", dim=3, matrix=matrix)
    with pytest.raises(RankDriftError):
        one_sided_derivatives(fam, 0.0, Contour(center=0.0, radius=0.1), side="right")


def rayleigh_derivative(family, t, v):
    """<v, A'(t) v> for a unit eigenvector v of A(t): the slope of v's
    eigenvalue when it is simple (Hellmann-Feynman)."""
    A = family.eval(t)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(A @ v - np.vdot(v, A @ v).real * v) < 1e-12
    return float(np.vdot(v, family.derivative(t) @ v).real)


def test_rayleigh_derivative_oracle():
    # the package's one-sided slopes of the branch through w agree with it
    fam = make_offdiag_t_family()
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    slope = rayleigh_derivative(fam, 1.0, w)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert one_sided_derivatives(fam, 1.0, Contour(center=1.0, radius=0.1)) == \
        pytest.approx([slope], abs=1e-12)
    for side in ("left", "right"):
        first, _ = one_sided_slot_derivatives(fam, 1.0, [1], side)
        assert first == pytest.approx([slope], abs=1e-8)


def test_rayleigh_derivative_zero_prime():
    fam = make_diag_family(1.0, 5.0)
    assert rayleigh_derivative(fam, 0.0, np.array([1.0, 0.0])) == 0.0
    assert one_sided_derivatives(fam, 0.0, Contour(center=1.0, radius=0.1)).tolist() == [0.0]


def test_rayleigh_derivative_window_center():
    lemma = CurveLemmaFamily(n_max=6)
    fam = lemma.global_family()
    t_n = lemma.t_center(3)
    assert rayleigh_derivative(fam, t_n, np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    # e_1 carries the upper eigenvalue 2^-9, slot 1
    for side in ("left", "right"):
        first, _ = one_sided_slot_derivatives(fam, t_n, [1], side)
        assert first == pytest.approx([0.0], abs=1e-10)


# ------------------------------------------------------------------- matching


def test_match_crossing_symmetric_pair():
    rep = match_crossing(np.array([-1.0, 1.0]), np.array([-1.0, 1.0]))
    assert rep.residual == 0.0
    assert sorted(rep.pairing) == [(0, 0), (1, 1)]


def test_match_crossing_swap():
    # slot derivatives of sorted curves through a transversal crossing
    rep = match_crossing(np.array([1.0, -1.0]), np.array([-1.0, 1.0]))
    assert rep.residual == 0.0
    assert sorted(rep.pairing) == [(0, 1), (1, 0)]


def test_match_crossing_singletons():
    rep = match_crossing(np.array([2.0]), np.array([3.0]))
    assert rep.pairing == ((0, 0),)
    assert rep.residual == pytest.approx(1.0)


def test_match_crossing_order2_curvature():
    rep = match_crossing(
        np.array([0.0, 0.0]), np.array([0.0, 0.0]), order=2,
        second_left=np.array([-2.0, 2.0]), second_right=np.array([-2.0, 2.0]))
    assert rep.order == 2
    assert sorted(rep.pairing) == [(0, 0), (1, 1)]
    rep = match_crossing(
        np.array([0.0, 0.0]), np.array([0.0, 0.0]), order=2,
        second_left=np.array([2.0, -2.0]), second_right=np.array([-2.0, 2.0]))
    assert sorted(rep.pairing) == [(0, 1), (1, 0)]


def test_match_crossing_size_mismatch():
    with pytest.raises(ValueError):
        match_crossing(np.array([1.0]), np.array([1.0, 2.0]))


def test_match_crossing_order2_needs_seconds():
    with pytest.raises(ValueError):
        match_crossing(np.array([0.0]), np.array([0.0]), order=2)


# ------------------------------------------------------------------- tracking


def test_track_offdiag_t_glues_linear_branches():
    fam = make_offdiag_t_family()
    bs = track_branches(fam, (-1.0, 1.0), 101)
    assert bs.n_branches == 2
    assert len(bs.crossings) == 1
    ev = bs.crossings[0]
    assert abs(ev.t_star) < 1e-9
    assert tuple(ev.sigma) == (1, 0)
    assert ev.report.residual < 1e-10
    assert np.allclose(bs.branch(0), bs.grid, atol=1e-12)
    assert np.allclose(bs.branch(1), -bs.grid, atol=1e-12)


def test_track_sorted_negative_control():
    # without gluing, the sorted slot curves kink: one-sided slopes differ by 2
    fam = make_offdiag_t_family()
    left, _ = one_sided_slot_derivatives(fam, 0.0, [0, 1], side="left")
    right, _ = one_sided_slot_derivatives(fam, 0.0, [0, 1], side="right")
    assert np.allclose(np.abs(left - right), [2.0, 2.0], atol=1e-6)


def test_track_sin_cos_crossing():
    def matrix(t):
        return np.diag([np.sin(t), np.cos(t)]).astype(complex)

    fam = HermitianFamily(name="sincos", dim=2, matrix=matrix)
    bs = track_branches(fam, (0.0, np.pi / 2), 101)
    assert len(bs.crossings) == 1
    ev = bs.crossings[0]
    assert ev.t_star == pytest.approx(np.pi / 4, abs=1e-6)
    assert ev.report.residual < 1e-6
    assert np.allclose(bs.branch(0), np.sin(bs.grid), atol=1e-9)
    assert np.allclose(bs.branch(1), np.cos(bs.grid), atol=1e-9)


def test_track_order2_tangential_touch():
    # diag(t^2, -t^2): first derivatives tie at 0, curvature decides
    def matrix(t):
        return np.diag([t * t, -t * t]).astype(complex)

    fam = HermitianFamily(name="parabolas", dim=2, matrix=matrix)
    bs = track_branches(fam, (-1.0, 1.0), 101, order=2)
    assert len(bs.crossings) == 1
    assert bs.crossings[0].report.order == 2
    assert np.allclose(bs.branch(0), -bs.grid**2, atol=1e-10)
    assert np.allclose(bs.branch(1), bs.grid**2, atol=1e-10)


def test_track_avoided_crossing_smooth_without_events():
    eps = 1e-3

    def matrix(t):
        return np.array([[t, eps], [eps, -t]], dtype=complex)

    fam = HermitianFamily(name="avoided", dim=2, matrix=matrix)
    bs = track_branches(fam, (-1.0, 1.0), 101)
    assert not bs.crossings
    gap = np.sqrt(bs.grid**2 + eps**2)
    assert np.allclose(bs.branch(0), -gap, atol=1e-12)
    assert np.allclose(bs.branch(1), gap, atol=1e-12)


def test_track_multiset_invariant(rng):
    # branch values at every grid point carry the full spectrum
    U = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]

    def matrix(t):
        lam = np.array([t, -t, 0.5 + 0.1 * t, -0.7 + t * t])
        return U @ np.diag(lam) @ U.conj().T

    fam = HermitianFamily(name="spun", dim=4, matrix=matrix)
    bs = track_branches(fam, (-1.0, 1.0), 101)
    for k, t in enumerate(bs.grid):
        w = sorted_eigenvalues(fam, t)
        assert multiset_distance(bs.values[k], w) <= 1e-8


def test_track_three_way_crossing():
    fam = diag_curve_family(
        [lambda t: t, lambda t: -t, lambda t: 2.0 * t],
        [lambda t: 1.0, lambda t: -1.0, lambda t: 2.0])
    bs = track_branches(fam, (-1.0, 1.0), 101)
    assert len(bs.crossings) == 1
    ev = bs.crossings[0]
    assert len(ev.slots) == 3
    # slopes -1, 1, 2 must continue straight through the origin
    recovered = sorted((bs.branch(j)[-1] - bs.branch(j)[0]) / 2.0 for j in range(3))
    assert np.allclose(recovered, [-1.0, 1.0, 2.0], atol=1e-9)
    for j in range(3):
        line = bs.branch(j)[-1] / bs.grid[-1] * bs.grid
        assert np.allclose(bs.branch(j), line, atol=1e-9)


def test_track_crossing_between_grid_points():
    # crossing just off the 101-point grid; the shallow slopes keep the
    # nearest row within the detection threshold so refinement must find it
    t_star = 0.004 + 2.0**-13

    def matrix(t):
        return np.diag([1e-4 * (t - t_star), -1e-4 * (t - t_star)]).astype(complex)

    fam = HermitianFamily(name="offgrid", dim=2, matrix=matrix)
    bs = track_branches(fam, (-1.0, 1.0), 101)
    assert len(bs.crossings) == 1
    assert bs.crossings[0].t_star == pytest.approx(t_star, abs=1e-8)


def test_track_gap_collapse():
    # three branches meeting at one off-grid point, detected as a pair:
    # membership is ambiguous and the tracker must say so
    t_star = 4e-5

    def matrix(t):
        u = t - t_star
        return np.diag([0.01 * u, -0.01 * u, 0.08 * u]).astype(complex)

    fam = HermitianFamily(name="triple", dim=3, matrix=matrix)
    with pytest.raises(GapCollapseError):
        track_branches(fam, (-0.5, 0.5), 3)


def test_track_rejects_bad_args():
    fam = make_offdiag_t_family()
    with pytest.raises(ValueError):
        track_branches(fam, (1.0, -1.0), 11)
    with pytest.raises(ValueError):
        track_branches(fam, (-1.0, 1.0), 1)
    with pytest.raises(ValueError):
        track_branches(fam, (-1.0, 1.0), 11, order=3)


@pytest.mark.parametrize("t_range", [(0.0, np.inf), (-np.inf, 1.0), (-1e308, 1e308)],
                         ids=["inf-end", "minus-inf-start", "span-overflows"])
def test_track_rejects_non_finite_t_range(t_range):
    # named as a bad t_range before any grid is built, not blamed on the matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t_range"):
            track_branches(make_offdiag_t_family(), t_range, 5)


def test_track_derivative_consistency_at_crossing():
    # glued branch slopes at the event match the Rayleigh formula
    fam = make_offdiag_t_family()
    bs = track_branches(fam, (-1.0, 1.0), 101)
    w_plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    w_minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    t = 0.02  # just right of the crossing
    slope0 = (bs.branch(0)[52] - bs.branch(0)[50]) / (bs.grid[52] - bs.grid[50])
    assert slope0 == pytest.approx(rayleigh_derivative(fam, t, w_plus), abs=1e-8)
    slope1 = (bs.branch(1)[52] - bs.branch(1)[50]) / (bs.grid[52] - bs.grid[50])
    assert slope1 == pytest.approx(rayleigh_derivative(fam, t, w_minus), abs=1e-8)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000), m=st.integers(2, 5))
def test_track_star_crossing_property(seed, m):
    # m lines with distinct slopes through a common on-grid point: gluing
    # must recover every line exactly
    rng = np.random.default_rng(seed)
    slopes = np.sort(rng.uniform(-2, 2, size=m))
    if np.min(np.diff(slopes)) < 0.1:
        return
    shift = float(rng.uniform(-0.3, 0.3))
    U = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]

    def matrix(t):
        return U @ np.diag(slopes * t + shift) @ U.conj().T

    fam = HermitianFamily(name="star", dim=m, matrix=matrix)
    bs = track_branches(fam, (-1.0, 1.0), 101)
    assert len(bs.crossings) == 1
    got = np.sort([(bs.branch(j)[-1] - bs.branch(j)[0]) / 2.0 for j in range(m)])
    assert np.allclose(got, slopes, atol=1e-7)
    for j in range(m):
        b = bs.branch(j)
        s = (b[-1] - b[0]) / 2.0
        assert np.allclose(b, s * bs.grid + shift, atol=1e-7)


def _planted_pairs_family():
    """Three pairs of lines, each pair crossing once, in a dense basis."""
    centers = np.array([-3.0, 0.0, 3.0])
    t_cross = np.array([-0.55, 0.05, 0.6])
    slopes = np.array([0.8, 0.5, 1.1])
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]

    def matrix(t):
        d = slopes * (t - t_cross)
        return U @ np.diag(np.concatenate([centers + d, centers - d])) @ U.conj().T

    return HermitianFamily(name="three-pairs", dim=6, matrix=matrix)


def test_track_verifies_crossings_without_shifted_solves(monkeypatch):
    # every crossing is still counted at its probe times, by inertia: the
    # contour quadrature's shifted solves are never reached
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_shifted called during tracking")

    monkeypatch.setattr(spectralbranch.contour, "solve_shifted", forbidden)
    monkeypatch.setattr(spectralbranch.linalg, "solve_shifted", forbidden)
    for fam, t_range, n_events in ((make_offdiag_t_family(), (-1.0, 1.0), 1),
                                   (_planted_pairs_family(), (-1.0, 1.0), 3)):
        bs = track_branches(fam, t_range, 81)
        assert len(bs.crossings) == n_events


def test_track_rank_drift_names_probe(monkeypatch):
    # a count mismatch at a probe time raises with t and both counts
    real = spectralbranch.contour.eigenvalue_count
    calls = []

    def off_by_one(A, lo, hi, tol):
        calls.append((lo, hi))
        return real(A, lo, hi, tol) + (1 if len(calls) == 3 else 0)

    monkeypatch.setattr(spectralbranch.contour, "eigenvalue_count", off_by_one)
    with pytest.raises(RankDriftError, match=r"encloses 3 eigenvalues at t=.*expected 2"):
        track_branches(make_offdiag_t_family(), (-1.0, 1.0), 81)


def test_one_sided_derivatives_runs_no_quadrature(monkeypatch):
    # range P comes from one eigensolve at t*: no shifted solve, no rank by SVD
    def forbidden(*args, **kwargs):
        raise AssertionError("quadrature reached by one_sided_derivatives")

    for name in ("solve_shifted", "numerical_rank"):
        monkeypatch.setattr(spectralbranch.contour, name, forbidden)
        monkeypatch.setattr(spectralbranch.linalg, name, forbidden)
    d = one_sided_derivatives(make_offdiag_t_family(), 0.0, Contour(center=0.0, radius=0.5))
    assert np.allclose(d, [-1.0, 1.0], atol=1e-10)


def _planted_collision_family(rng, m, analytic):
    """m x m family whose eigenvalue curves v_i + c_i t + q_i t^2 sit in a
    random unitary frame; v_0 = v_1 = 0 collide at t = 0, the other m - 2
    values lie in +-[1, 3].  Returns the family and the colliding slopes."""
    v = np.concatenate(([0.0, 0.0], rng.choice([-1.0, 1.0], m - 2) * rng.uniform(1.0, 3.0, m - 2)))
    c = rng.uniform(-1.0, 1.0, m)
    c[1] = c[0] + rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 0.5)
    q = rng.uniform(-0.5, 0.5, m)
    U = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]

    def matrix(t):
        return (U * (v + c * t + q * t * t)) @ U.conj().T

    def deriv(t):
        return (U * (c + 2.0 * q * t)) @ U.conj().T

    fam = HermitianFamily(name="planted-collision", dim=m, matrix=matrix,
                          deriv=deriv if analytic else None)
    return fam, np.sort(c[:2])


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "finite-difference"])
@pytest.mark.parametrize("m", [4, 16, 64])
def test_one_sided_derivatives_planted_collision(m, analytic):
    rng = np.random.default_rng(2600 + m)
    for _ in range(3):
        fam, slopes = _planted_collision_family(rng, m, analytic)
        for side in ("left", "right"):
            d = one_sided_derivatives(fam, 0.0, Contour(center=0.0, radius=0.5), side=side)
            np.testing.assert_allclose(d, slopes, rtol=0.0, atol=1e-9)


def test_one_sided_derivatives_tridiagonal_simple_eigenvalue():
    # a Schrodinger family solves (d, e) by dstevd: at a simple eigenvalue the
    # result is the Rayleigh quotient <v, A'(t) v> of its unit eigenvector
    fam = SchrodingerFamily(m=16, potential="40*sin(3*t + x)*x").family()
    t = 0.3
    w, V = np.linalg.eigh(fam.eval(t))
    for k in (0, 7, 15):
        gap = min(abs(w[k] - w[j]) for j in (k - 1, k + 1) if 0 <= j < w.size)
        v = V[:, k]
        want = float(np.vdot(v, fam.derivative(t) @ v).real)
        for side in ("left", "right"):
            got = one_sided_derivatives(fam, t, Contour(center=w[k], radius=0.5 * gap), side)
            assert got.shape == (1,)
            assert abs(got[0] - want) <= 1e-10


def test_one_sided_derivatives_circle_through_eigenvalue():
    # the circle about 0 of radius 0.5 passes through the eigenvalue 0.5
    with pytest.raises(SpectrumTouchError):
        one_sided_derivatives(make_diag_family(0.0, 0.5), 0.0, Contour(center=0.0, radius=0.5))


def test_one_sided_derivatives_off_axis_center():
    # the disk about 0.3i of radius 0.5 meets the real axis in (-0.4, 0.4):
    # it holds 0 but not 0.45, so the count probes must agree with rank P = 1
    fam = make_diag_family(0.0, 0.45)
    d = one_sided_derivatives(fam, 0.0, Contour(center=0.3j, radius=0.5))
    assert d.shape == (1,)
    assert abs(d[0]) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_track_rejects_non_finite_family(bad):
    def matrix(t):
        return np.array([[t, bad], [bad, -t]], dtype=complex)

    fam = HermitianFamily(name="non-finite", dim=2, matrix=matrix)
    with pytest.raises(NotHermitianError):
        track_branches(fam, (-1.0, 1.0), 11)


def test_track_schrodinger_solves_without_dense_matrices(monkeypatch):
    # every grid eigensolve runs on (d, e); the values equal the dense path's
    fam = SchrodingerFamily(m=60, potential="12.5*t*x + 3.25*sin(4.5*x + 2*t)").family()
    dense = track_branches(dataclasses.replace(fam, tridiagonal=None), (0.0, 1.0), 41)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense matrix built or solved on the tridiagonal path")

    monkeypatch.setattr(spectralbranch.tracker, "dense_eig", forbidden)
    monkeypatch.setattr(HermitianFamily, "unit", forbidden)
    bs = track_branches(fam, (0.0, 1.0), 41)
    assert not bs.crossings
    assert bs.values.tobytes() == dense.values.tobytes()


@pytest.mark.parametrize("potential, message", [
    (lambda t, x: t * x + 1e-3j, "not Hermitian"),
    (lambda t, x: np.inf if x > 0.5 else t, "non-finite"),
    (lambda t, x: np.nan * t, "non-finite"),
])
def test_track_schrodinger_rejects_bad_callable_potentials(potential, message):
    fam = SchrodingerFamily(m=30, potential=potential).family()
    with pytest.raises(NotHermitianError, match=message):
        sorted_eigenvalues(fam, 0.5)
    with pytest.raises(NotHermitianError, match=message):
        track_branches(fam, (0.0, 1.0), 5)
    with pytest.raises(NotHermitianError, match=message):
        estimate_derivative_bound(fam, [0.5])


def _families_with_hermitian_defect(defect):
    """A dense 2x2 family and a tridiagonal one whose matrices both miss
    Hermitian symmetry by ``defect`` (max |A - A^H|)."""
    def dense(t):
        return np.array([[t, 1.0], [1.0 + defect, -t]], dtype=complex)

    off = np.full(5, 0.75)

    def diagonal(t):
        # the dense defect of an imaginary diagonal is twice its largest part
        return np.linspace(-3.0, 5.0, 6) + t * np.cos(np.arange(6)) + 0.5j * defect

    def tridiagonal(t):
        return (np.diag(diagonal(t)) + np.diag(off, 1) + np.diag(off, -1)).astype(complex)

    return (HermitianFamily(name="dense-defect", dim=2, matrix=dense),
            HermitianFamily(name="tridiagonal-defect", dim=6, matrix=tridiagonal,
                            tridiagonal=lambda t: (diagonal(t), off)))


_FAMILY_CALLS = (
    lambda fam: sorted_eigenvalues(fam, 0.5),
    lambda fam: track_branches(fam, (-1.0, 1.0), 11),
    lambda fam: one_sided_slot_derivatives(fam, 0.5, [0], "right"),
    lambda fam: estimate_derivative_bound(fam, np.linspace(-1.0, 1.0, 5)),
)


@pytest.mark.parametrize("call", _FAMILY_CALLS)
def test_family_tolerances_govern_every_check(call):
    # the dense path checks in family.unit and the tridiagonal one in
    # tridiagonal_eig: both read the family's one Tolerances.  Both solvers
    # take their residual from the Hermitian matrix they solve, so a defect
    # that hermitian_tol lets through needs no looser eig_tol on either path
    loose = DEFAULT_TOL.replace(hermitian_tol=1e-4)
    for fam in _families_with_hermitian_defect(1e-7):
        with pytest.raises(NotHermitianError, match="not Hermitian"):
            call(fam)
        call(dataclasses.replace(fam, tol=loose))


# ------------------------------------------------------------------- gronwall


def test_gronwall_threshold_for_identity_curve():
    # lambda(t) = t on {0,1}: the pair (1 -> 0) pins the screen at a = ln 2
    grid = np.array([0.0, 1.0])
    values = np.array([[0.0], [1.0]])
    assert gronwall_screen(grid, values, np.log(2.0) + 1e-9).passed
    assert not gronwall_screen(grid, values, np.log(2.0) - 1e-9).passed


def test_gronwall_reports_violations():
    grid = np.array([0.0, 1.0])
    values = np.array([[0.0], [10.0]])
    rep = gronwall_screen(grid, values, 0.1)
    assert not rep.passed
    assert rep.violations
    branch, k1, k2, lhs, rhs = rep.violations[0]
    assert branch == 0 and lhs > rhs


def test_gronwall_requires_positive_rate():
    with pytest.raises(ValueError):
        gronwall_screen(np.array([0.0, 1.0]), np.array([[0.0], [1.0]]), 0.0)


@pytest.mark.parametrize("values, a", [
    (np.array([[0.0], [np.nan]]), 0.1),
    (np.array([[0.0], [np.inf]]), 0.1),
    (np.array([[0.0], [1.0]]), np.inf),
    (np.array([[0.0], [1.0]]), np.nan),
])
def test_gronwall_rejects_non_finite_input(values, a):
    with pytest.raises(ValueError):
        gronwall_screen(np.array([0.0, 1.0]), values, a)


def test_gronwall_rejects_non_finite_grid():
    with pytest.raises(ValueError, match="finite"):
        gronwall_screen(np.array([0.0, np.nan]), np.array([[0.0], [1.0]]), 0.1)


def test_gronwall_rejects_row_mismatch():
    with pytest.raises(ValueError, match="one row of values per grid point"):
        gronwall_screen(np.array([0.0, 0.5, 1.0]), np.array([[0.0], [1.0]]), 0.1)


def test_gronwall_single_point_has_no_pairs():
    rep = gronwall_screen(np.array([0.0]), np.array([[2.0]]), 0.1)
    assert rep.passed and rep.pairs_checked == 0 and rep.worst_margin == np.inf


def test_gronwall_growth_overflow_passes_without_warning():
    # a |dt| reaches 1000: e^{a |dt|} - 1 is +inf, so is the bound, and
    # every pair passes with no overflow warning.  At a |dt| = 709.5 the
    # growth is finite and the bound (1 + |v|) x growth overflows instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = gronwall_screen(np.linspace(0.0, 1.0, 11), np.zeros((11, 2)), 1000.0)
        assert rep.passed and rep.pairs_checked == 220
        rep = gronwall_screen(np.array([0.0, 1.0]), np.full((2, 1), 1e10), 709.5)
        assert rep.passed and rep.worst_margin == np.inf


def test_gronwall_passes_on_tracked_family():
    fam = make_offdiag_t_family()
    bs = track_branches(fam, (-1.0, 1.0), 101)
    a = 1.01 * estimate_derivative_bound(fam, bs.grid)
    assert gronwall_screen(bs.grid, bs.values, a).passed


def test_estimate_derivative_bound_identity_curve():
    # A(t) = [t]: sup over the grid of |1| / sqrt(1 + t^2) = 1 at t = 0
    fam = HermitianFamily(name="t", dim=1,
                          matrix=lambda t: np.array([[t]], dtype=complex),
                          deriv=lambda t: np.array([[1.0]], dtype=complex))
    a = estimate_derivative_bound(fam, np.linspace(0.0, 1.0, 11))
    assert a == pytest.approx(1.0, abs=1e-12)


def test_finite_difference_bound_stays_inside_its_grid():
    # A(t) = H0 + sin(2t) H1 + t^3 H2 peaks at the left end of the grid,
    # where the estimate's differences are one-sided: with and without the
    # analytic A' the bounds agree, and no difference leaves the grid
    rng = np.random.default_rng(3)
    H0, H1, H2 = (random_hermitian(rng, 4) for _ in range(3))
    seen = []

    def matrix(t):
        seen.append(t)
        return H0 + np.sin(2.0 * t) * H1 + t**3 * H2

    fd = HermitianFamily(name="sin-cubic", dim=4, matrix=matrix)
    exact = dataclasses.replace(fd, deriv=lambda t: 2.0 * np.cos(2.0 * t) * H1 + 3.0 * t * t * H2)
    grid = np.linspace(-1.0, 1.5, 26)
    norms = [np.linalg.norm(spectralbranch.tracker._damped_derivative(exact, t, None), 2)
             for t in grid]
    assert int(np.argmax(norms)) == 0
    a = estimate_derivative_bound(fd, grid)
    assert min(seen) >= grid[0] and max(seen) <= grid[-1]
    assert a == pytest.approx(estimate_derivative_bound(exact, grid), rel=1e-8)
    for t, side in ((grid[0], "right"), (grid[-1], "left")):
        Ad = fd.derivative(t, side)
        assert np.allclose(Ad, exact.derivative(t), rtol=0.0, atol=1e-8 * np.linalg.norm(Ad))


@spectralbranch.linalg._one_blas_thread
def brute_force_bound(family, grid):
    """The unscreened estimate: an SVD norm at every grid point.

    V F V^H is formed from dense_eig's (w, V) as LAPACK returns them, as the
    exact pass forms it, so the two maxima round alike; for a tridiagonal
    family that also checks its dstevd pair against the dense one.  It runs
    on one BLAS thread, as estimate_derivative_bound does, so both take the
    same kernels: a finite-difference A' at m = 54 (np.tensordot over five
    samples) differs in the last bits between one thread and two.  Such an
    A' is one-sided, pointing into the grid, within 2 h_fd max(1, |t|) of
    either end, and central elsewhere, as the estimate takes it.
    """
    best = 0.0
    for t, side in screen_points(family, grid):
        w, V = dense_eig(family.unit(t), family.tol)
        w = w * family.scale_prefactor
        damp = (V * (1.0 / np.sqrt(1.0 + w**2))) @ V.conj().T
        Ad = family.derivative(t, side)
        best = max(best, float(np.linalg.norm(Ad @ damp, 2)))
    return best


def screen_points(family, grid):
    """(t, side) at each grid point, side as the estimate takes A' there."""
    lo, hi = min(grid), max(grid)
    for t in map(float, grid):
        reach = 2.0 * family.tol.h_fd * max(1.0, abs(t))
        yield t, "right" if t - reach < lo else "left" if t + reach > hi else None


@spectralbranch.linalg._one_blas_thread
def assert_screen_bounds_hold(family, grid):
    """Every point's screen bound is at least the SVD norm taken there."""
    for t, side in screen_points(family, grid):
        bound = spectralbranch.tracker._screen_bound(family, t, side)
        norm = operator_norm(spectralbranch.tracker._damped_derivative(family, t, side))
        assert bound >= norm, (family.name, t, bound, norm)


def quadratic_family(seed, m, scale=1.0, deriv_scale=1.0, analytic=True):
    """A(t) = scale (H0 + t H1 + t^2 H2), with A' supplied or by differences."""
    rng = np.random.default_rng(seed)
    H0, H1, H2 = (random_hermitian(rng, m) for _ in range(3))
    return HermitianFamily(
        name=f"quadratic-{seed}", dim=m,
        matrix=lambda t: scale * (H0 + t * H1 + t * t * H2),
        deriv=(lambda t: deriv_scale * scale * (H1 + 2.0 * t * H2)) if analytic else None,
    )


@pytest.fixture
def norm_calls(monkeypatch):
    calls = []
    original = spectralbranch.tracker.operator_norm

    def counting(A):
        calls.append(A.shape)
        return original(A)

    monkeypatch.setattr(spectralbranch.tracker, "operator_norm", counting)
    return calls


def screen_quadratic_families():
    """44 quadratic families, m from 2 to 60, a third of them differenced."""
    for seed in range(44):
        m = 2 + (seed * 13) % 59
        yield seed, quadratic_family(seed, m, scale=(0.05, 1.0, 20.0)[seed % 3],
                                     analytic=seed % 4 != 0)


def seeded_schrodinger_family(m, seed):
    c = np.random.default_rng(1000 * m + seed).uniform(-40.0, 40.0, size=5).tolist()
    potential = (f"{c[0]!r}*t*x + {c[1]!r}*sin({c[2]!r}*x + {c[3]!r}*t) "
                 f"+ {c[4]!r}*t*t*x*x")
    return SchrodingerFamily(m=m, potential=potential).family()


def test_screened_bound_equals_brute_force(norm_calls):
    grid = np.linspace(-1.0, 1.5, 26)
    for seed, fam in screen_quadratic_families():
        before = len(norm_calls)
        assert estimate_derivative_bound(fam, grid) == brute_force_bound(fam, grid), seed
        assert len(norm_calls) - before < grid.size, seed


def test_screened_bound_constant_family(norm_calls):
    fam = make_diag_family(1.0, 2.0, -3.0)
    assert estimate_derivative_bound(fam, np.linspace(0.0, 1.0, 201)) == 0.0
    assert len(norm_calls) == 1


@pytest.mark.parametrize("deriv_scale", [1e-170, 1e150])
def test_screened_bound_extreme_entries(deriv_scale, norm_calls):
    # X = A'(t) damp(t) has entries near deriv_scale; at 1e-170, X^H X would
    # underflow to zero without the power-of-two scaling
    fam = quadratic_family(7, 9, deriv_scale=deriv_scale)
    grid = np.linspace(-1.0, 1.0, 41)
    a = estimate_derivative_bound(fam, grid)
    assert a == brute_force_bound(fam, grid)
    assert 0.0 < a < np.inf
    assert len(norm_calls) <= 3


def test_screened_bound_near_ties(norm_calls):
    # A(t) = 0 and A'(t) = Q(t) diag(s) Q(t)^H with a different unitary Q(t)
    # at every point: every norm is max(s) up to rounding, so the estimates
    # cannot order the points and the screen must take every exact norm
    s = np.array([3.0, -1.5, 0.25, 2.0, -2.75])

    def deriv(t):
        Z = np.random.default_rng(int(round(t * 1e6))).standard_normal((5, 10)).view(complex)
        Q, _ = np.linalg.qr(Z)
        return (Q * s) @ Q.conj().T

    fam = HermitianFamily(name="near-ties", dim=5, matrix=lambda t: np.zeros((5, 5)),
                          deriv=deriv)
    grid = np.linspace(0.0, 1.0, 30)
    assert estimate_derivative_bound(fam, grid) == brute_force_bound(fam, grid)
    assert len(norm_calls) == grid.size


@pytest.mark.parametrize("m", [5, 25, 26, 99])
def test_schrodinger_bound_equals_dense_brute_force(m):
    # the damping built from dstevd's vectors equals the dense one bit for bit
    fam = SchrodingerFamily(m=m, potential="-41.25*t*x + 17.5*sin(8.5*x + 1.5*t)").family()
    grid = np.linspace(-1.0, 1.0, 9)
    assert estimate_derivative_bound(fam, grid) == brute_force_bound(fam, grid)


def test_screened_bound_shipped_schrodinger_family(norm_calls):
    # configs/schrodinger.cfg: m = 99, V = t*x, estimate grid of 201 points
    fam = SchrodingerFamily(m=99, potential="t*x").family()
    assert estimate_derivative_bound(fam, np.linspace(0.0, 1.0, 201)) > 0.0
    assert len(norm_calls) == 1


def test_screen_grams_keep_the_head_of_the_shipped_schrodinger_family(monkeypatch, norm_calls):
    # f_k = (1 + w_k^2)^{-1/2} falls like 1/(pi^2 k^2), so most columns of
    # A' V F go to the tail term: every Gram is smaller than m x m, and each
    # screen point still makes one eigensolve
    fam = SchrodingerFamily(m=99, potential="t*x").family()
    grid = np.linspace(0.0, 1.0, 201)
    widths, eig_calls = [], []
    original_estimate = spectralbranch.tracker._norm_estimate
    original_eig = spectralbranch.tracker._unit_eig

    def recording(Y):
        widths.append(Y.shape[1])
        return original_estimate(Y)

    def counting(family, t, A=None):
        eig_calls.append(t)
        return original_eig(family, t, A)

    monkeypatch.setattr(spectralbranch.tracker, "_norm_estimate", recording)
    monkeypatch.setattr(spectralbranch.tracker, "_unit_eig", counting)
    assert estimate_derivative_bound(fam, grid) == brute_force_bound(fam, grid)
    assert len(widths) == grid.size
    assert max(widths) < fam.dim
    assert len(eig_calls) == grid.size + len(norm_calls)


@pytest.fixture
def damped_calls(monkeypatch):
    calls = []
    original = spectralbranch.tracker._damped_derivative

    def counting(family, t, side):
        calls.append(t)
        return original(family, t, side)

    monkeypatch.setattr(spectralbranch.tracker, "_damped_derivative", counting)
    return calls


@pytest.fixture
def estimate_dtypes(monkeypatch):
    dtypes = []
    original = spectralbranch.tracker._norm_estimate

    def recording(Y):
        dtypes.append(Y.dtype)
        return original(Y)

    monkeypatch.setattr(spectralbranch.tracker, "_norm_estimate", recording)
    return dtypes


def test_screened_bound_covers_rounding_of_damped_large_derivative(norm_calls):
    # In a fixed frame Q0, A(t) turns its null vector v0(t) within span(q0, q1)
    # and has eigenvalues 1e12 to 3e12 elsewhere; A' is constant, equal to 1
    # on that plane, coupled to q2 and q3, and 1e10 to 3e10 off it.  So
    # ||A' F|| is sqrt(2) up to 1e-5 at every point while the products round
    # at u ||A'|| ||F||, about 1e-6 of it: the estimates and the SVD norms
    # order the points differently, and only the per-point rounding term
    # keeps the screen from skipping the maximum
    m = 6
    Z = np.random.default_rng(11).standard_normal((m, 2 * m)).view(complex)
    Q0 = np.linalg.qr(Z)[0]
    M = np.diag([1.0, 1.0, 1e10, 1e10, -2e10, 3e10]).astype(complex)
    M[0, 2] = M[2, 0] = M[1, 3] = M[3, 1] = 1.0
    Ad = Q0 @ M @ Q0.conj().T
    Ad = 0.5 * (Ad + Ad.conj().T)
    lam = np.array([0.0, 1e12, 2e12, 2e12, 2.5e12, 3e12])

    def matrix(t):
        c, s = np.cos(np.pi * t), np.sin(np.pi * t)
        R = np.eye(m)
        R[:2, :2] = [[c, -s], [s, c]]
        Q = Q0 @ R
        A = (Q * lam) @ Q.conj().T
        return 0.5 * (A + A.conj().T)

    fam = HermitianFamily(name="damped-large-derivative", dim=m, matrix=matrix,
                          deriv=lambda t: Ad)
    damped = spectralbranch.tracker._damped_derivative(fam, 0.0, None)
    assert np.linalg.norm(Ad, 2) / np.linalg.norm(damped, 2) >= 1e10
    grid = np.linspace(0.0, 1.0, 40)
    assert estimate_derivative_bound(fam, grid) == brute_force_bound(fam, grid)
    assert len(norm_calls) == grid.size


def test_screened_bound_tridiagonal_family_with_complex_derivative(estimate_dtypes):
    # real tridiagonal A(t), solved by dstevd, with a Hermitian A'(t) that
    # has imaginary off-diagonal entries: the estimate runs in complex
    m = 40
    d0 = np.linspace(-3.0, 5.0, m)
    off = np.full(m - 1, 0.75)
    slope = np.cos(np.arange(m))

    def diagonal(t):
        return d0 + t * slope + t * t

    def matrix(t):
        return (np.diag(diagonal(t)) + np.diag(off, 1) + np.diag(off, -1)).astype(complex)

    def deriv(t):
        D = np.diag(slope + 2.0 * t).astype(complex)
        D += np.diag(np.full(m - 1, 0.5j * (2.0 + t)), 1)
        return D + np.diag(np.full(m - 1, -0.5j * (2.0 + t)), -1)

    fam = HermitianFamily(name="tridiagonal-complex-derivative", dim=m, matrix=matrix,
                          deriv=deriv, tridiagonal=lambda t: (diagonal(t), off))
    grid = np.linspace(-1.0, 1.0, 25)
    assert estimate_derivative_bound(fam, grid) == brute_force_bound(fam, grid)
    assert len(estimate_dtypes) == grid.size
    assert all(dt == np.complex128 for dt in estimate_dtypes)


@pytest.mark.parametrize("m", [3, 25, 26, 64, 120])
def test_screened_bound_seeded_schrodinger_potentials(m, estimate_dtypes):
    # the tridiagonal family's estimates run in real arithmetic
    for seed in range(3):
        fam = seeded_schrodinger_family(m, seed)
        grid = np.linspace(-1.0, 1.0, 17)
        assert estimate_derivative_bound(fam, grid) == brute_force_bound(fam, grid), seed
    assert len(estimate_dtypes) == 3 * grid.size
    assert all(dt == np.float64 for dt in estimate_dtypes)


def test_screen_bound_holds_pointwise_on_quadratic_families():
    for _, fam in screen_quadratic_families():
        assert_screen_bounds_hold(fam, np.linspace(-1.0, 1.5, 26))


@pytest.mark.parametrize("m", [3, 25, 26, 64, 120])
def test_screen_bound_holds_pointwise_on_seeded_schrodinger_potentials(m):
    for seed in range(3):
        assert_screen_bounds_hold(seeded_schrodinger_family(m, seed), np.linspace(-1.0, 1.0, 17))


def tail_dominated_family(m=6):
    """A(t) = Q0 (L0 + t M) Q0^H with one null vector and the rest far out.

    M is 1e-3 on the null vector and a Hermitian block of norm 1e4 on the
    others, uncoupled, so A' = Q0 M Q0^H.  For t in [0, 0.1] the other
    eigenvalues stay in [1.2e3, 4.2e3], where f < 2^-10: the null vector is
    the whole head and its column of A' V F is about 1e-3, while the norm
    of A' V F is about 4 to 5.
    """
    rng = np.random.default_rng(23)
    Q0 = np.linalg.qr(rng.standard_normal((m, 2 * m)).view(complex))[0]
    block = random_hermitian(rng, m - 1)
    M = np.zeros((m, m), dtype=complex)
    M[0, 0] = 1e-3
    M[1:, 1:] = 1e4 * block / np.linalg.norm(block, 2)
    L0 = np.diag(np.r_[0.0, np.linspace(2.2e3, 3.2e3, m - 1)])

    def frame(B):
        A = Q0 @ B @ Q0.conj().T
        return 0.5 * (A + A.conj().T)

    return HermitianFamily(name="tail-dominated", dim=m, matrix=lambda t: frame(L0 + t * M),
                           deriv=lambda t: frame(M))


def test_screen_tail_term_decides_on_tail_dominated_family(monkeypatch):
    fam = tail_dominated_family()
    grid = np.linspace(0.0, 0.1, 21)
    heads = []
    original = spectralbranch.tracker._norm_estimate

    def recording(Y):
        estimate = original(Y)
        heads.append((Y.shape[1], estimate))
        return estimate

    monkeypatch.setattr(spectralbranch.tracker, "_norm_estimate", recording)
    a = estimate_derivative_bound(fam, grid)
    assert a == brute_force_bound(fam, grid)
    # the head alone is a thousandth of the norm: only the tail term keeps
    # each bound above its point's SVD norm
    assert all(width == 1 for width, _ in heads)
    assert max(e for _, e in heads) < 1e-3 * a
    assert_screen_bounds_hold(fam, grid)


def test_screen_estimates_form_no_damped_product(norm_calls, damped_calls):
    # the estimate pass builds A' V F, never X = A' V F V^H: every X formed
    # is one the exact pass takes the SVD of
    grid = np.linspace(-1.0, 1.0, 31)
    for fam in (quadratic_family(3, 17), quadratic_family(4, 6, analytic=False),
                SchrodingerFamily(m=40, potential="t*x").family(),
                make_diag_family(1.0, 2.0, -3.0)):
        estimate_derivative_bound(fam, grid)
        assert len(damped_calls) == len(norm_calls) > 0, fam.name


def test_eigenvector_phases_reach_only_the_last_bits_of_the_bound(monkeypatch):
    # eigenvectors need not be continuous in t, so no output may depend on
    # their phases: tracking reads eigenvalues only, and the bound changes
    # by rounding when every column of V is given another phase or sign
    fams = (_planted_crossings_family(12, 3, 5), quadratic_family(3, 17),
            SchrodingerFamily(m=40, potential="t*x").family())
    grid = np.linspace(-1.0, 1.0, 31)
    plain = [(track_branches(fam, (-1.0, 1.0), 201), estimate_derivative_bound(fam, grid))
             for fam in fams]
    real_unit_eig = spectralbranch.tracker._unit_eig
    draws = np.random.default_rng(11)

    def rephased(family, t, A=None):
        w, V = real_unit_eig(family, t, A)
        if np.iscomplexobj(V):
            return w, V * np.exp(2j * np.pi * draws.random(V.shape[1]))
        return w, V * draws.choice([-1.0, 1.0], V.shape[1])

    monkeypatch.setattr(spectralbranch.tracker, "_unit_eig", rephased)
    for fam, (bs, a) in zip(fams, plain):
        again = track_branches(fam, (-1.0, 1.0), 201)
        assert again.values.tobytes() == bs.values.tobytes(), fam.name
        assert pickle.dumps(again.crossings) == pickle.dumps(bs.crossings), fam.name
        assert estimate_derivative_bound(fam, grid) == pytest.approx(a, rel=1e-14), fam.name


@pytest.mark.parametrize("grid", [[], np.zeros((3, 2)), [0.0, np.inf], [0.0, np.nan, 1.0],
                                  5.0])
def test_estimate_derivative_bound_rejects_bad_grids(grid):
    with pytest.raises(ValueError, match="grid"):
        estimate_derivative_bound(make_offdiag_t_family(), grid)


# ------------------------------------------------------------------ extension


def test_extend_completes_diagonal_family():
    fam = diag_curve_family(
        [lambda t: t, lambda t: -t, lambda t: 2.0 + np.sin(t)],
        [lambda t: 1.0, lambda t: -1.0, lambda t: np.cos(t)])
    bs = track_branches(fam, (-1.0, 1.0), 101)
    mu = bs.values[:, :1]
    completed = extend_parameterization(bs, mu)
    assert completed.shape == (101, 2)
    union = np.column_stack([mu, completed])
    for k, t in enumerate(bs.grid):
        w = sorted_eigenvalues(fam, t)
        assert multiset_distance(union[k], w) <= 1e-8


def test_extend_zero_given_returns_everything():
    fam = make_offdiag_t_family()
    bs = track_branches(fam, (-1.0, 1.0), 51)
    completed = extend_parameterization(bs, np.zeros((51, 0)))
    for k in range(51):
        assert multiset_distance(completed[k], bs.values[k]) <= 1e-10


def test_extend_counting_violation():
    fam = make_offdiag_t_family()
    bs = track_branches(fam, (-1.0, 1.0), 51)
    mu = bs.values[:, :1] + 0.5  # not eigenvalues anywhere
    with pytest.raises(CountingError, match="counting"):
        extend_parameterization(bs, mu)


def test_extend_too_many_given():
    fam = make_offdiag_t_family()
    bs = track_branches(fam, (-1.0, 1.0), 51)
    with pytest.raises(CountingError):
        extend_parameterization(bs, np.zeros((51, 3)))


def test_extend_glues_completion_through_crossing():
    # give the smooth branch t, ask for the complement: must return -t, not |t|
    fam = make_offdiag_t_family()
    bs = track_branches(fam, (-1.0, 1.0), 101)
    mu = bs.grid.reshape(-1, 1)
    completed = extend_parameterization(bs, mu)
    assert np.allclose(completed[:, 0], -bs.grid, atol=1e-9)


# -- one BLAS thread per pool inside the entry points ------------------------


class _FakePool:
    """A thread-count API that only records."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture
def fake_pools(monkeypatch):
    pools = [_FakePool(4), _FakePool(3)]
    monkeypatch.setattr(spectralbranch.linalg, "_blas_pools",
                        lambda: tuple((p.get, p.set) for p in pools))
    return pools


def _recording_family(pools, seen):
    def matrix(t):
        seen.append([p.count for p in pools])
        return np.array([[t, 0.5], [0.5, -t]], dtype=complex)

    return HermitianFamily(name="recording", dim=2, matrix=matrix)


def test_entry_points_run_on_one_blas_thread(fake_pools):
    for call in (lambda fam: track_branches(fam, (-1.0, 1.0), 11),
                 lambda fam: estimate_derivative_bound(fam, np.linspace(0.0, 1.0, 5))):
        seen = []
        call(_recording_family(fake_pools, seen))
        assert seen and all(counts == [1, 1] for counts in seen)
        assert [p.count for p in fake_pools] == [4, 3]
    assert [p.sets for p in fake_pools] == [[1, 4, 1, 4], [1, 3, 1, 3]]


def test_one_blas_thread_restored_after_error(fake_pools):
    def matrix(t):
        return np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

    with pytest.raises(NotHermitianError):
        track_branches(HermitianFamily(name="upper", dim=2, matrix=matrix), (-1.0, 1.0), 11)
    assert [p.count for p in fake_pools] == [4, 3]
    assert [p.sets for p in fake_pools] == [[1, 4], [1, 3]]


def test_one_blas_thread_nested_run(fake_pools, monkeypatch, tmp_path):
    # run -> track_branches -> estimate_derivative_bound: only the outer
    # entry sets and restores
    from spectralbranch import parse_config, run

    real = spectralbranch.tracker._unit_eig
    seen = []

    def recording(*args, **kwargs):
        seen.append([p.count for p in fake_pools])
        return real(*args, **kwargs)

    monkeypatch.setattr(spectralbranch.tracker, "_unit_eig", recording)
    config = parse_config("[run]\ncommand = track\nt_range = -1.0, 1.0\ngrid_size = 21\n\n"
                          "[family]\nname = expr\ndim = 2\nrow0 = 0, t\nrow1 = t, 0\n")
    assert run(config, out_dir=tmp_path) == 0
    assert seen and all(counts == [1, 1] for counts in seen)
    assert [p.sets for p in fake_pools] == [[1, 4], [1, 3]]


def test_one_blas_thread_overlapping_threads(fake_pools):
    # entries that overlap in two Python threads restore the count saved
    # before both, whichever leaves first
    import threading

    ctx = spectralbranch.linalg._one_blas_thread
    inside, leave = threading.Event(), threading.Event()

    def worker():
        with ctx:
            inside.set()
            leave.wait(10.0)

    thread = threading.Thread(target=worker)
    with ctx:
        thread.start()
        assert inside.wait(10.0)
    assert [p.count for p in fake_pools] == [1, 1]
    leave.set()
    thread.join(10.0)
    assert not thread.is_alive()
    assert [p.count for p in fake_pools] == [4, 3]


def test_spectral_cluster_keeps_blas_threads(fake_pools):
    from spectralbranch import spectral_cluster

    cl = spectral_cluster(make_diag_family(1.0, 2.0, 5.0), 0.0, Contour(center=1.5, radius=1.0))
    assert np.allclose(np.sort(cl.eigenvalues.real), [1.0, 2.0], atol=1e-9)
    assert [p.sets for p in fake_pools] == [[], []]


def test_one_blas_thread_without_pools(monkeypatch):
    monkeypatch.setattr(spectralbranch.linalg, "_blas_pools", lambda: ())
    bs = track_branches(make_offdiag_t_family(), (-1.0, 1.0), 21)
    assert len(bs.crossings) == 1


def test_one_blas_thread_real_pools():
    pools = spectralbranch.linalg._blas_pools()
    if not pools:
        pytest.skip("no OpenBLAS thread API in this process")
    before = [get() for get, _ in pools]
    seen = []

    def matrix(t):
        seen.append([get() for get, _ in pools])
        if t > 0.5:
            raise NotHermitianError("stop")
        return np.array([[t, 0.5], [0.5, -t]], dtype=complex)

    fam = HermitianFamily(name="probe", dim=2, matrix=matrix)
    track_branches(fam, (-1.0, 0.0), 11)
    assert [get() for get, _ in pools] == before
    with pytest.raises(NotHermitianError):
        track_branches(fam, (-1.0, 1.0), 11)
    assert [get() for get, _ in pools] == before
    assert seen and all(counts == [1] * len(pools) for counts in seen)


def _planted_crossings_family(m, pairs, seed):
    """``pairs`` line pairs c +- s (t - tau) crossing on points of
    linspace(-1, 1, 201) and m - 2 pairs slowly drifting spectators, each
    pair and spectator in its own band, in a dense random unitary frame."""
    rng = np.random.default_rng(seed)
    taus = np.linspace(-1.0, 1.0, 201)[rng.choice(np.arange(20, 181), pairs, replace=False)]
    slopes = rng.uniform(0.5, 1.0, pairs)
    centers = 5.0 * (np.arange(m - pairs) - 0.5 * (m - pairs))
    drift = rng.uniform(-0.05, 0.05, m - 2 * pairs)
    U = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]

    def matrix(t):
        d = slopes * (t - taus)
        levels = np.concatenate([centers[:pairs] + d, centers[:pairs] - d,
                                 centers[pairs:] + drift * t])
        A = (U * levels) @ U.conj().T
        return 0.5 * (A + A.conj().T)

    return HermitianFamily(name="planted", dim=m, matrix=matrix)


def test_one_blas_thread_keeps_tracker_bits(monkeypatch):
    # on a multi-core machine this compares the tracker on one BLAS thread
    # with the tracker on the default threads, byte for byte, at a size
    # (m = 40) where the default runs some OpenBLAS calls threaded
    import pickle

    fam = _planted_crossings_family(40, 4, 11)
    single = track_branches(fam, (-1.0, 1.0), 201)
    monkeypatch.setattr(spectralbranch.linalg, "_blas_pools", lambda: ())
    default = track_branches(fam, (-1.0, 1.0), 201)
    assert len(single.crossings) == 4
    assert single.values.tobytes() == default.values.tobytes()
    assert pickle.dumps(single.crossings) == pickle.dumps(default.crossings)


# ------------------------------------------------------ event bookkeeping
# Loop forms of the tracker's private bookkeeping, kept as oracles for the
# array forms that replaced them.

tracker = spectralbranch.tracker


def loop_tight_runs(row, threshold):
    runs = []
    lo = None
    for i, g in enumerate(np.diff(row)):
        if g < threshold:
            if lo is None:
                lo = i
        elif lo is not None:
            runs.append((lo, i))
            lo = None
    if lo is not None:
        runs.append((lo, row.shape[0] - 1))
    return runs


def loop_detect(values, threshold):
    detections = []
    for k in range(values.shape[0]):
        for lo, hi in loop_tight_runs(values[k], threshold):
            if not any(d.absorbs(k, lo, hi) for d in detections):
                detections.append(tracker._Detection(k, lo, hi))
    return detections


def loop_tie_groups(sorted_left, sorted_right, tol):
    n = sorted_left.shape[0]
    groups = []
    start = 0
    for i in range(1, n):
        jump_l = sorted_left[i] - sorted_left[i - 1] > tol.deriv_tie_tol * (1.0 + abs(sorted_left[i]))
        jump_r = sorted_right[i] - sorted_right[i - 1] > tol.deriv_tie_tol * (1.0 + abs(sorted_right[i]))
        if jump_l or jump_r:
            groups.append((start, i))
            start = i
    groups.append((start, n))
    return groups


def loop_grid_slot_derivatives(comp, k_star, slots, side, dt, second):
    first = np.zeros(len(slots))
    sec = np.zeros(len(slots)) if second else None
    for i, s in enumerate(slots):
        if side == "left":
            idx = [k_star - j for j in range(min(5, k_star + 1))]
        else:
            idx = [k_star + j for j in range(min(5, comp.shape[0] - k_star))]
        samples = comp[idx, s]
        if samples.shape[0] >= 2:
            first[i] = float(one_sided_first(samples, dt, side))
        if second and samples.shape[0] >= 3:
            sec[i] = float(one_sided_second(samples, dt))
    return first, sec


def loop_assemble(grid, values_true, pending):
    pending = sorted(pending, key=lambda e: e.report.t_star)
    rows, m = values_true.shape
    slot_of = np.arange(m)
    out = np.empty_like(values_true)
    finished = []
    k = 0
    for ev in pending:
        while k < rows and grid[k] <= ev.report.t_star:
            out[k] = values_true[k, slot_of]
            k += 1
        label_at = np.empty(m, dtype=int)
        label_at[slot_of] = np.arange(m)
        labels = tuple(int(label_at[s]) for s in ev.slots)
        to_right = dict(ev.report.pairing)
        sigma = tuple(ev.slots[to_right[i]] for i in range(len(ev.slots)))
        slot_map = dict(zip(ev.slots, sigma))
        for j in range(m):
            slot_of[j] = slot_map.get(slot_of[j], slot_of[j])
        finished.append((ev.report.t_star, ev.grid_span, ev.slots, labels, sigma))
    out[k:] = values_true[k:, slot_of]
    return out, finished


def all_ints(*fields):
    return all(type(x) is int for field in fields for x in field)


_ROW_VALUES = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 1.0 + 1e-12, np.nan]),
                        st.floats(-2.0, 2.0))
_THRESHOLDS = st.sampled_from([1e-8, 0.1, 1.0])


@settings(max_examples=200, deadline=None)
@given(row=st.lists(_ROW_VALUES, min_size=1, max_size=10), threshold=_THRESHOLDS)
def test_tight_runs_match_loop(row, threshold):
    # rows with NaN, exact ties, and lengths 1 and 2
    row = np.array(row)
    runs = tracker._tight_runs(np.diff(row) < threshold)
    assert runs == loop_tight_runs(row, threshold)
    assert all_ints(*runs)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 7), m=st.integers(1, 5), threshold=_THRESHOLDS, data=st.data())
def test_detect_matches_loop(rows, m, threshold, data):
    values = np.array(data.draw(st.lists(_ROW_VALUES, min_size=rows * m, max_size=rows * m)))
    values = values.reshape(rows, m)
    got = [(d.k_start, d.k_end, d.lo, d.hi) for d in tracker._detect(values, threshold)]
    assert got == [(d.k_start, d.k_end, d.lo, d.hi) for d in loop_detect(values, threshold)]
    assert all_ints(*got)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 8), data=st.data())
def test_tie_groups_match_loop(n, data):
    tol = DEFAULT_TOL.replace(deriv_tie_tol=1e-6)
    draw = st.lists(st.sampled_from([0.0, 1e-9, 1.0, 2.0, -1.0, np.nan]), min_size=n, max_size=n)
    left = np.sort(np.array(data.draw(draw), dtype=float))
    right = np.sort(np.array(data.draw(draw), dtype=float))
    groups = tracker._tie_groups(left, right, tol)
    assert groups == loop_tie_groups(left, right, tol)
    assert all_ints(*groups)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 9), m=st.integers(1, 5), second=st.booleans(),
       side=st.sampled_from(["left", "right"]), data=st.data())
def test_grid_slot_derivatives_match_loop(rows, m, second, side, data):
    # k_star anywhere, so either side may have fewer than 5 rows
    comp = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=rows * m,
                                       max_size=rows * m))).reshape(rows, m)
    k_star = data.draw(st.integers(0, rows - 1))
    lo = data.draw(st.integers(0, m - 1))
    slots = tuple(range(lo, data.draw(st.integers(lo, m - 1)) + 1))
    dt = 0.01
    got = tracker._grid_slot_derivatives(comp, k_star, slots, side, dt, second)
    want = loop_grid_slot_derivatives(comp, k_star, slots, side, dt, second)
    assert (got[1] is None) == (want[1] is None) == (not second)
    # the block stencil sums in BLAS order, the loop one column at a time:
    # they agree to rounding of the stencil's terms, sum |c_j| |f_j| / dt^p
    bound = 4.0 * 2.0**-52 * 12.0 * max(1.0, float(np.max(np.abs(comp))))
    for p, (g, w) in enumerate(zip(got, want), start=1):
        if w is not None:
            assert g.shape == w.shape == (len(slots),)
            np.testing.assert_allclose(g, w, rtol=0.0, atol=bound / dt**p)


def _pending_events(data, grid, m):
    events = []
    for _ in range(data.draw(st.integers(0, 4))):
        # t* on a grid point (so events tie), between two, or past either end
        t_star = data.draw(st.one_of(st.sampled_from(grid.tolist()),
                                     st.floats(grid[0] - 1.0, grid[-1] + 1.0)))
        lo = data.draw(st.integers(0, m - 2))
        slots = tuple(range(lo, data.draw(st.integers(lo + 1, m - 1)) + 1))
        n = len(slots)
        l_order = data.draw(st.permutations(range(n)))
        r_order = data.draw(st.permutations(range(n)))
        report = tracker.MatchReport(t_star=float(t_star), left=np.zeros(n), right=np.zeros(n),
                                     pairing=tuple(zip(l_order, r_order)), residual=0.0,
                                     order=1)
        k = data.draw(st.integers(0, grid.size - 1))
        events.append(tracker._PendingEvent((k, k), slots, report))
    return events


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 8), m=st.integers(2, 6), data=st.data())
def test_assemble_matches_loop(rows, m, data):
    grid = np.linspace(-1.0, 1.0, rows)
    values = np.arange(rows * m, dtype=float).reshape(rows, m)
    pending = _pending_events(data, grid, m)
    out, events = tracker._assemble(grid, values, pending)
    want_out, want_events = loop_assemble(grid, values, pending)
    assert out.tobytes() == want_out.tobytes()
    assert [(e.t_star, e.grid_span, e.slots, e.labels, e.sigma) for e in events] == want_events
    # equal t* keep the order the producer gave them
    by_t = sorted(pending, key=lambda e: e.report.t_star)
    assert [e.report for e in events] == [e.report for e in by_t]
    for e in events:
        assert all_ints(e.grid_span, e.slots, e.labels, e.sigma)


def test_crossing_event_indices_are_python_ints():
    # the report prints list(ev.slots): a numpy integer would print as np.int64(3)
    for order in (1, 2):
        bs = track_branches(_planted_pairs_family(), (-1.0, 1.0), 81, order=order)
        assert len(bs.crossings) == 3
        for ev in bs.crossings:
            assert all_ints(ev.grid_span, ev.slots, ev.labels, ev.sigma)
            assert repr(list(ev.slots)) == "[" + ", ".join(map(str, ev.slots)) + "]"


@pytest.mark.parametrize("slots", [[-1], [3], [0, 3], [1.0], ["0"]])
def test_one_sided_slot_derivatives_rejects_bad_slots(slots):
    fam = make_diag_family(1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match=r"slots must be integers in \[0, 3\)"):
        one_sided_slot_derivatives(fam, 0.0, slots, "right")


def test_one_sided_slot_derivatives_accepts_numpy_slots():
    fam = make_diag_family(1.0, 2.0, 3.0)
    first, _ = one_sided_slot_derivatives(fam, 0.0, np.arange(3), "left")
    assert np.allclose(first, 0.0, atol=1e-8)


# ------------------------------------------------- t* refinement: bounded Brent


def _evaluations(fn, minimizer, *args, **kwargs):
    """Run ``minimizer`` on fn; return (bits of the points f saw, bits of x)."""
    seen = []

    def f(t):
        seen.append(float(t).hex())
        return fn(float(t))

    x = minimizer(f, *args, **kwargs)
    return seen, float(getattr(x, "x", x)).hex()


def _against_scipy(fn, a, b, xatol):
    ours = _evaluations(fn, minimize_scalar, a, b, xatol)
    theirs = _evaluations(fn, scipy_minimize_scalar, bounds=(a, b), method="bounded",
                          options={"xatol": xatol})
    assert ours == theirs
    return ours


@st.composite
def _brent_cases(draw):
    """(f, a, b): a kink, a parabola, a constant, a cusp or a wiggle, with its
    minimum inside [a, b], on a bound or beyond one, |a| and |b| up to 1e6."""
    a, b = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2)))
    t0 = draw(st.one_of(st.sampled_from((a, b)),
                        st.floats(-0.5, 1.5).map(lambda u: a + u * (b - a))))
    s = draw(st.floats(0.1, 10.0))
    c = draw(st.floats(-10.0, 10.0))
    width = b - a or 1.0
    kinds = {
        "v": lambda t: abs(s * (t - t0)) + c,
        "parabola": lambda t: s * (t - t0) ** 2 + c,
        "constant": lambda t: c,
        # concave on each side of t0: the parabola's vertex is a maximum
        "cusp": lambda t: s * math.sqrt(abs(t - t0)) + c,
        "wiggle": lambda t: s * ((t - t0) / width) ** 2 + 0.1 * math.sin(37.0 * (t - t0) / width),
    }
    return kinds[draw(st.sampled_from(sorted(kinds)))], a, b


@settings(max_examples=300, deadline=None)
@given(case=_brent_cases())
def test_minimize_scalar_repeats_scipy_bounded(case):
    # the same points in the same order and the same x, bit for bit, at the
    # tolerance the tracker uses
    fn, a, b = case
    seen, x = _against_scipy(fn, a, b, 1e-10 * max(1.0, abs(a), abs(b)))
    assert x in seen


def test_minimize_scalar_stops_at_500_evaluations():
    # with xatol = 0 a kink at 0 never meets the stopping test
    seen, x = _against_scipy(abs, -1.0, 1.0, 0.0)
    assert len(seen) == 500
    assert float.fromhex(x) == pytest.approx(0.0, abs=1e-12)


def test_minimize_scalar_degenerate_bracket():
    seen, x = _against_scipy(abs, 0.5, 0.5, 1e-10)
    assert seen == [x] == [(0.5).hex()]


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, np.inf), (np.nan, 1.0)])
def test_minimize_scalar_rejects_bad_bounds(a, b):
    with pytest.raises(ValueError, match="bounds must be finite"):
        minimize_scalar(abs, a, b, 1e-10)


@pytest.mark.parametrize("order", [1, 2])
def test_track_reuses_refinement_eigensolve_at_t_star(order, monkeypatch):
    # dense solves: one per grid point and per minimizer evaluation, and at
    # each crossing four probe times and five stencil points per side and
    # order; the eigenvalues at t* are the minimizer's own
    real_eig = spectralbranch.tracker.dense_eig
    real_min = spectralbranch.tracker.minimize_scalar
    eigs = evals = 0

    def counting_eig(*args, **kwargs):
        nonlocal eigs
        eigs += 1
        return real_eig(*args, **kwargs)

    def counting_min(f, *args, **kwargs):
        def g(t):
            nonlocal evals
            evals += 1
            return f(t)

        return real_min(g, *args, **kwargs)

    monkeypatch.setattr(spectralbranch.tracker, "dense_eig", counting_eig)
    monkeypatch.setattr(spectralbranch.tracker, "minimize_scalar", counting_min)
    bs = track_branches(_planted_pairs_family(), (-1.0, 1.0), 81, order=order)
    assert len(bs.crossings) == 3
    assert eigs == 81 + evals + len(bs.crossings) * (4 + 10 * order)
