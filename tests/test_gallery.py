import numpy as np
import pytest

import spectralbranch.gallery as gallery
from spectralbranch import (
    ConfigError,
    FamilySpec,
    UnderflowGuardError,
    bump,
    eigenvector_jump,
    holder_quotient,
    make_family,
    parse_expression,
    resolvent_weak_vs_norm,
    track_branches,
)
from spectralbranch.gallery import (
    CurveLemmaFamily,
    ResolventExampleFamily,
    SchrodingerFamily,
    bump_prime,
    smooth_step,
)
from spectralbranch.linalg import tridiagonal_eig

from conftest import assert_dense_bits


# ------------------------------------------------------------ curve lemma


def test_window_centers_and_scales():
    lemma = CurveLemmaFamily(n_max=12)
    assert lemma.t_center(2) == pytest.approx(5.0)
    assert lemma.s_n(3) == 2.0**-6
    assert lemma.window_halfwidth(3) == pytest.approx(1.0 / 9.0)


def test_windows_disjoint():
    lemma = CurveLemmaFamily(n_max=12)
    for n in range(2, 12):
        right_edge = lemma.t_center(n) + lemma.window_halfwidth(n)
        left_edge = lemma.t_center(n + 1) - lemma.window_halfwidth(n + 1)
        assert right_edge < left_edge


def test_scale_below_halfwidth():
    lemma = CurveLemmaFamily(n_max=12)
    for n in range(2, 13):
        assert lemma.s_n(n) <= lemma.window_halfwidth(n)


def test_global_family_equals_model_inside_windows():
    lemma = CurveLemmaFamily(n_max=6)
    fam = lemma.global_family()
    for n in (2, 3, 5):
        t_n = lemma.t_center(n)
        hw = lemma.window_halfwidth(n)
        d = 2.0 ** (-n * n)
        for s in np.linspace(-hw, hw, 9):
            t = t_n + s
            A = fam.eval(t)
            off = (t - t_n) * 2.0**-n  # offset as realized in double precision
            model = np.array([[d, off], [off, -d]])
            assert np.linalg.norm(A - model) == 0.0


def test_global_family_vanishes_between_windows():
    lemma = CurveLemmaFamily(n_max=6)
    fam = lemma.global_family()
    # the blend regions stop at plateau_outer on each side; between them A = 0
    t_mid = 0.5 * ((lemma.t_center(2) + lemma.plateau_outer(2))
                   + (lemma.t_center(3) - lemma.plateau_outer(3)))
    assert np.linalg.norm(fam.eval(t_mid)) == 0.0


def test_window_branch_formula():
    # tracked in-window branches are +-2^{-n^2} sqrt(1+sigma^2)
    lemma = CurveLemmaFamily(n_max=8)
    for n in (2, 4, 8):
        fam = lemma.window_family(n)
        bs = track_branches(fam, (-1.0, 1.0), 81)
        d = 2.0 ** float(-n * n)
        expect = d * np.sqrt(1.0 + bs.grid**2)
        assert np.max(np.abs(bs.branch(1) - expect) / expect) < 1e-10
        assert np.max(np.abs(bs.branch(0) + expect) / expect) < 1e-10


def test_window_branch_second_differences_bounded():
    # consistent with twice differentiable: unit-scale second quotients stay
    # near d^2/dsigma^2 sqrt(1+sigma^2) <= 1
    lemma = CurveLemmaFamily(n_max=6)
    fam = lemma.window_family(4)
    bs = track_branches(fam, (-1.0, 1.0), 81)
    h = bs.grid[1] - bs.grid[0]
    unit = bs.branch(1) / 2.0**-16
    second = (unit[2:] - 2 * unit[1:-1] + unit[:-2]) / h**2
    assert np.max(np.abs(second)) < 1.1


def test_holder_quotient_paper_values():
    cases = {(5, 0.25): 2.0**0 / np.sqrt(2.0),
             (6, 0.25): 2.0,
             (3, 1.0): 2.0**3 / np.sqrt(2.0)}
    for (n, alpha), expect in cases.items():
        q = holder_quotient(n, alpha)
        assert q.closed_form == pytest.approx(expect, rel=1e-12)
        assert q.rel_diff <= 1e-6


def test_holder_quotient_closed_form_exponent():
    q = holder_quotient(9, 0.25)
    assert q.closed_form == pytest.approx(2.0**9 / np.sqrt(2.0), rel=1e-12)
    assert q.numerical == pytest.approx(362.038672, abs=5e-6)


def test_holder_quotient_agreement_up_to_12():
    for n in range(2, 13):
        assert holder_quotient(n, 0.5).rel_diff <= 1e-6


def test_holder_quotient_divergence():
    vals = [holder_quotient(n, 0.5).numerical for n in range(3, 13)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1e3


def test_holder_quotient_rejects_bad_n():
    with pytest.raises(ValueError):
        holder_quotient(1, 0.5)
    with pytest.raises(ValueError):
        holder_quotient(3, -0.5)


def test_holder_quotient_underflow_guard():
    with pytest.raises(UnderflowGuardError):
        holder_quotient(16, 0.5, use_prefactor=False)


@pytest.mark.parametrize("n, alpha", [(30, 0.25), (24, 1.0), (33, 0.25), (40, 0.5)])
def test_holder_quotient_refuses_out_of_range_windows(n, alpha, monkeypatch):
    # 2^((1+alpha)(n^2-n)) overflows (from n = 33 the prefactor 2^(-n^2) is 0):
    # refused by name before any eigensolve
    def no_track(*args, **kwargs):
        raise AssertionError("tracked a window that is out of range")

    monkeypatch.setattr(gallery, "track_branches", no_track)
    with pytest.raises(UnderflowGuardError, match=f"n={n} at alpha={alpha}"):
        holder_quotient(n, alpha)


def test_holder_quotient_largest_windows_in_range():
    # the last windows whose rescaling fits in double precision still agree
    assert holder_quotient(29, 0.25).rel_diff <= 1e-6
    assert holder_quotient(23, 1.0).rel_diff <= 1e-6


def test_holder_quotient_without_prefactor_small_n():
    # below the guard the unscaled route must agree with the scaled one
    a = holder_quotient(4, 0.5, use_prefactor=True)
    b = holder_quotient(4, 0.5, use_prefactor=False)
    assert a.numerical == pytest.approx(b.numerical, rel=1e-9)


def test_eigenvector_jump_constant_pi_over_8():
    for n in range(2, 11):
        assert eigenvector_jump(n) == pytest.approx(np.pi / 8.0, abs=1e-10)


def test_smooth_step_properties():
    assert smooth_step(-0.5) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(2.0) == 1.0
    xs = np.linspace(0.01, 0.99, 50)
    ys = np.array([smooth_step(x) for x in xs])
    assert np.all(np.diff(ys) > 0)
    assert smooth_step(0.5) == pytest.approx(0.5)


# -------------------------------------------------------------- resolvent


def test_bump_anchors():
    assert bump(0.0) == 0.0
    assert bump(1.0) == 1.0
    assert bump(2.0) == 0.0
    assert bump(-3.0) == 0.0
    assert bump_prime(1.0) == pytest.approx(0.0, abs=1e-12)
    # flat to all orders at 0: the derivative vanishes as x -> 0+
    assert abs(bump_prime(1e-3)) < 1e-100


def test_resolvent_family_diagonal():
    ex = ResolventExampleFamily(m=10)
    fam = ex.family()
    A = fam.eval(0.5)
    assert np.allclose(np.diag(A).real[:2], [1.0 + bump(0.5), 2.0 + 2 * bump(1.0) / 2])
    assert np.count_nonzero(A - np.diag(np.diag(A))) == 0


def test_resolvent_norm_quotient_floor():
    for n in (2, 7, 23, 50):
        _, nq = resolvent_weak_vs_norm(200, 1.0 / n)
        assert nq >= 0.9


def test_resolvent_pointwise_decay():
    vals = [resolvent_weak_vs_norm(200, 2.0**-j, 5)[0] for j in range(1, 13)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3


def test_resolvent_zero_outside_support():
    pw, nq = resolvent_weak_vs_norm(50, -0.5)
    assert pw == 0.0 and nq == 0.0


def test_resolvent_rejects_t_zero():
    ex = ResolventExampleFamily(m=10)
    with pytest.raises(ValueError):
        ex.quotients(0.0)


# ------------------------------------------------------------- schrodinger


def test_schrodinger_free_spectrum():
    fam = SchrodingerFamily(m=99)
    w = np.linalg.eigvalsh(fam.family().eval(0.0))
    h = 1.0 / 100.0
    expect = (2.0 / h**2) * (1.0 - np.cos(np.arange(1, 100) * np.pi * h))
    assert np.allclose(w, np.sort(expect), rtol=1e-12)
    assert fam.free_eigenvalues()[0] == pytest.approx(np.pi**2, rel=1e-3)


def test_schrodinger_scalar_shift_slopes():
    # V(t,x)=t commutes with everything: every branch is lambda_k(0) + t
    bs = track_branches(SchrodingerFamily(m=11, potential="t").family(), (0.0, 1.0), 21)
    base = bs.values[0]
    for k, t in enumerate(bs.grid):
        assert np.allclose(bs.values[k], base + t, atol=1e-9)


def test_schrodinger_potential_types():
    by_str = SchrodingerFamily(m=7, potential="t*x").family().eval(0.5)
    by_call = SchrodingerFamily(m=7, potential=lambda t, x: t * x).family().eval(0.5)
    assert np.allclose(by_str, by_call, atol=1e-14)
    with pytest.raises(TypeError):
        SchrodingerFamily(m=7, potential=3).family()
    with pytest.raises(ValueError):
        SchrodingerFamily(m=2)


def per_point_schrodinger(src, m, t):
    """A(t) and A'(t) with the potential evaluated one grid point at a time."""
    expr = parse_expression(src, variables=("t", "x"))
    fam = SchrodingerFamily(m=m)
    xs = fam.grid_points()
    h = 1.0 / (m + 1)
    lap = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h**2
    A = lap + np.diag([expr.evaluate(t=t, x=x) for x in xs])
    ht = 1e-6 * max(1.0, abs(t))
    vp = [(expr.evaluate(t=t + ht, x=x) - expr.evaluate(t=t - ht, x=x)) / (2.0 * ht) for x in xs]
    return A.astype(np.complex128), np.diag(vp).astype(np.complex128)


@pytest.mark.parametrize("m", [7, 99, 200])
@pytest.mark.parametrize("src", [
    "t*x", "t^2", "-3.5", "sin(3*x + t)*exp(-t)", "(x - 0.5)^3*t", "sqrt(x + t^2)/(1 + t)",
    "abs(x - t) - 40*t*x^2", "12.5*t*x + 3.25*sin(4.5*x + 2*t) - 7.75*t^2*x^2",
])
def test_schrodinger_grid_potential_bit_equal_to_per_point(src, m):
    fam = SchrodingerFamily(m=m, potential=src).family()
    for t in (0.0, 0.37, -1.25, 1.0):
        A, dA = per_point_schrodinger(src, m, t)
        assert fam.unit(t).tobytes() == A.tobytes(), t
        assert fam.derivative(t).tobytes() == dA.tobytes(), t


def test_schrodinger_callable_potential_called_per_point():
    seen = []

    def V(t, x):
        seen.append(x)
        return t * x

    SchrodingerFamily(m=7, potential=V).family().unit(0.5)
    assert len(seen) == 7 and all(np.ndim(x) == 0 for x in seen)


SWEEP_STYLE = [None, "12.5*t*x + 3.25*sin(4.5*x + 2*t) - 7.75*t^2*x^2",
               "-41.25*t*x + 17.5*sin(8.5*x + 1.5*t) + 33.0*t^2*x^2", "(x - 0.5)^3*t"]


@pytest.mark.parametrize("m", [3, 7, 25, 26, 99, 200])
@pytest.mark.parametrize("src", SWEEP_STYLE)
def test_schrodinger_tridiagonal_is_the_unit_matrix(src, m):
    # (d, e) written out dense is unit(t) bit for bit, and its dstevd
    # solution is dense_eig's on unit(t) bit for bit
    fam = SchrodingerFamily(m=m, potential=src).family()
    for t in (0.0, 0.37, -1.0, 2.0):
        d, e = fam.tridiagonal(t)
        A = fam.unit(t)
        dense = (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)).astype(complex)
        assert dense.tobytes() == A.tobytes(), t
        assert_dense_bits(A, *tridiagonal_eig(d, e))


def test_schrodinger_tridiagonal_callable_potential():
    fam = SchrodingerFamily(m=9, potential=lambda t, x: t * x - 1e-14j * x).family()
    d, e = fam.tridiagonal(0.5)
    assert_dense_bits(fam.unit(0.5), *tridiagonal_eig(d, e))


def test_schrodinger_grid_points():
    fam = SchrodingerFamily(m=9)
    x = fam.grid_points()
    assert x[0] == pytest.approx(0.1)
    assert x[-1] == pytest.approx(0.9)


# ------------------------------------------------------------- make_family


def test_make_family_registry():
    assert make_family(FamilySpec(name="curve-lemma")).name == "curve-lemma"
    assert make_family(FamilySpec(name="resolvent-example", m=10)).dim == 10
    fam = make_family(FamilySpec(name="schrodinger", m=9, potential="t*x"))
    assert fam.dim == 9
    expr = make_family(FamilySpec(name="expr", dim=1, rows=(("t",),)))
    assert expr.eval(0.25)[0, 0] == 0.25


def test_make_family_errors():
    with pytest.raises(ConfigError, match="unknown family"):
        make_family(FamilySpec(name="zoo"))
    with pytest.raises(ConfigError, match="dim"):
        make_family(FamilySpec(name="expr"))
