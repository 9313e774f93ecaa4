import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectralbranch.contour
from spectralbranch import (
    DEFAULT_TOL,
    Contour,
    HermitianFamily,
    QuadratureError,
    RootRealityError,
    SeparationError,
    cluster_eigenvalues,
    hermitian_eig,
    newton_sums,
    newton_to_sigma,
    random_hermitian,
    riesz_projector,
    spectral_cluster,
)
from spectralbranch.util import multiset_distance

from conftest import make_diag_family


def test_projector_diag_oracle():
    fam = make_diag_family(1.0, 2.0, 5.0)
    P = riesz_projector(fam, 0.0, Contour(center=1.5, radius=1.0))
    assert np.linalg.norm(P - np.diag([1.0, 1.0, 0.0])) < 1e-10


def test_projector_empty_contour():
    fam = make_diag_family(1.0, 2.0, 5.0)
    P = riesz_projector(fam, 0.0, Contour(center=10.0, radius=1.0))
    assert np.linalg.norm(P) < 1e-10


def test_projector_simple_eigenvalue_is_rank_one(rng):
    A = random_hermitian(rng, 6)
    dec = hermitian_eig(A)
    # widen around the best-separated eigenvalue
    gaps = np.diff(dec.eigenvalues)
    k = int(np.argmax(np.minimum(np.append(gaps, np.inf), np.append(np.inf, gaps))[:6]))
    lam, v = dec.eigenvalues[k], dec.eigenvectors[:, k]
    r = 0.4 * min(abs(dec.eigenvalues[j] - lam) for j in range(6) if j != k)
    fam = HermitianFamily(name="const", dim=6, matrix=lambda t: A)
    P = riesz_projector(fam, 0.0, Contour(center=lam, radius=r))
    assert np.linalg.norm(P - np.outer(v, v.conj())) < 1e-9


def test_newton_sums_diag_oracle():
    fam = make_diag_family(1.0, 2.0, 5.0)
    s = newton_sums(fam, 0.0, Contour(center=1.5, radius=1.0), p_max=2)
    assert s[0] == pytest.approx(2.0, abs=1e-10)  # s_0 = rank
    assert s[1] == pytest.approx(3.0, abs=1e-10)
    assert s[2] == pytest.approx(5.0, abs=1e-10)


def test_newton_to_sigma_oracle():
    sigma = newton_to_sigma(np.array([2.0, 3.0, 5.0]), 2)
    assert np.allclose(sigma, [3.0, 2.0])
    assert np.allclose(cluster_eigenvalues(sigma, 2), [1.0, 2.0])


def test_newton_to_sigma_trivial():
    assert np.allclose(newton_to_sigma(np.array([2.0, 0.0, 0.0]), 2), [0.0, 0.0])
    assert newton_to_sigma(np.array([1.0, 7.0]), 1)[0] == 7.0


def test_newton_to_sigma_input_validation():
    with pytest.raises(ValueError):
        newton_to_sigma(np.array([2.0, 3.0]), 2)  # needs s_0..s_2


def test_cluster_eigenvalues_oracles():
    assert np.allclose(cluster_eigenvalues(np.array([0.0, -1.0]), 2), [-1.0, 1.0])
    assert np.allclose(cluster_eigenvalues(np.array([0.0, 0.0]), 2), [0.0, 0.0])
    assert np.allclose(cluster_eigenvalues(np.array([2.0, 1.0]), 2), [1.0, 1.0])


def test_cluster_eigenvalues_rejects_complex_roots():
    # x^2 + 1 has roots +-i
    with pytest.raises(RootRealityError):
        cluster_eigenvalues(np.array([0.0, 1.0]), 2)


def test_contour_geometry():
    g = Contour(center=1.5, radius=1.0)
    spectrum = np.array([1.0, 2.0, 5.0])
    assert g.inertia_count(np.diag(spectrum).astype(complex)) == 2
    assert g.circle_distance(spectrum) == pytest.approx(0.5)
    g.validate_against(spectrum)  # margin 0.5 >= 0.1 * 1.0


def test_contour_separation_error():
    g = Contour(center=1.5, radius=0.5)
    with pytest.raises(SeparationError):
        g.validate_against(np.array([1.0, 2.0]))  # both on the circle


def test_contour_rejects_bad_radius():
    with pytest.raises(ValueError):
        Contour(center=0.0, radius=-1.0)
    with pytest.raises(ValueError):
        Contour(center=0.0, radius=1.0, nodes=4)


def test_contour_scaled():
    g = Contour(center=2.0, radius=1.0, nodes=128).scaled(0.5)
    assert g.center == 4.0 and g.radius == 2.0 and g.nodes == 128


def test_quadrature_nonconvergence_raises():
    # an eigenvalue hugging the contour forces the doubling loop to give up
    fam = make_diag_family(1.0, 2.0 - 1e-9, 5.0)
    g = Contour(center=1.0, radius=1.0, nodes=8)
    with pytest.raises(QuadratureError):
        riesz_projector(fam, 0.0, g, tol=fam.tol.replace(max_nodes=64))


def _isolating_contour(A, indices, nodes=64):
    w = np.linalg.eigvalsh(A)
    inside = sorted(indices)
    lo, hi = w[inside[0]], w[inside[-1]]
    below = w[inside[0] - 1] if inside[0] > 0 else lo - 1e3
    above = w[inside[-1] + 1] if inside[-1] + 1 < len(w) else hi + 1e3
    center = 0.5 * (lo + hi)
    radius = 0.5 * (hi - lo) + 0.25 * min(lo - below, above - hi)
    return Contour(center=center, radius=radius, nodes=nodes)


def test_spectral_cluster_end_to_end(rng):
    for _ in range(10):
        m = int(rng.integers(3, 11))
        A = random_hermitian(rng, m)
        w = np.linalg.eigvalsh(A)
        i = int(rng.integers(0, m - 1))
        j = int(rng.integers(i, min(i + 3, m - 1)))
        if (w[j + 1] - w[j]) < 1e-3 or (i > 0 and (w[i] - w[i - 1]) < 1e-3):
            continue
        fam = HermitianFamily(name="c", dim=m, matrix=lambda t, A=A: A)
        cl = spectral_cluster(fam, 0.0, _isolating_contour(A, set(range(i, j + 1))))
        assert cl.rank == j - i + 1
        assert multiset_distance(cl.eigenvalues, w[i:j + 1]) <= 1e-7


def test_spectral_cluster_prefactor_invariance():
    # same matrix expressed as prefactor * unit must give identical clusters
    base = np.diag([1.0, 2.0, 5.0]).astype(complex)
    f = 2.0**-30
    fam_plain = HermitianFamily(name="plain", dim=3, matrix=lambda t: f * base)
    fam_scaled = HermitianFamily(name="scaled", dim=3, matrix=lambda t: base,
                                 scale_prefactor=f)
    g = Contour(center=1.5 * f, radius=1.0 * f)
    for fam in (fam_plain, fam_scaled):
        cl = spectral_cluster(fam, 0.0, g)
        assert cl.rank == 2
        assert multiset_distance(cl.eigenvalues, f * np.array([1.0, 2.0])) <= 1e-7 * f
    s_scaled = newton_sums(fam_scaled, 0.0, g, p_max=2)
    assert s_scaled[1] == pytest.approx(3.0 * f, rel=1e-10)
    assert s_scaled[2] == pytest.approx(5.0 * f**2, rel=1e-10)


def test_spectral_cluster_runs_one_quadrature(monkeypatch):
    # the inertia count fixes N first, so one quadrature yields P and s_0..s_2N
    real = spectralbranch.contour._unit_quadrature
    calls = []

    def counting(family, t, gamma, p_max, tol):
        calls.append(p_max)
        return real(family, t, gamma, p_max, tol)

    monkeypatch.setattr(spectralbranch.contour, "_unit_quadrature", counting)
    cl = spectral_cluster(make_diag_family(1.0, 2.0, 5.0), 0.0, Contour(center=1.5, radius=1.0))
    assert calls == [4]
    assert cl.rank == 2
    assert np.allclose(cl.newton_sums, [2.0, 3.0, 5.0, 9.0, 17.0], atol=1e-10)
    assert np.allclose(cl.eigenvalues, [1.0, 2.0], atol=1e-10)


def test_spectral_cluster_builds_its_matrix_once():
    # the inertia count and the quadrature share one family.unit(t)
    calls = []
    A = np.diag([1.0, 2.0, 5.0]).astype(complex)

    def matrix(t):
        calls.append(t)
        return A

    fam = HermitianFamily(name="counted", dim=3, matrix=matrix)
    cl = spectral_cluster(fam, 0.25, Contour(center=1.5, radius=1.0))
    assert calls == [0.25]
    assert np.allclose(cl.eigenvalues, [1.0, 2.0], atol=1e-10)


def test_spectral_cluster_inertia_count_mismatch_raises(monkeypatch):
    real = spectralbranch.contour.eigenvalue_count
    monkeypatch.setattr(spectralbranch.contour, "eigenvalue_count",
                        lambda A, lo, hi, tol: real(A, lo, hi, tol) + 1)
    with pytest.raises(QuadratureError, match=r"s_0 = [\d.]+ disagrees with the inertia count 3"):
        spectral_cluster(make_diag_family(1.0, 2.0, 5.0), 0.0, Contour(center=1.5, radius=1.0))


def test_spectral_cluster_projector_rank_mismatch_raises(monkeypatch):
    real = spectralbranch.contour.numerical_rank
    monkeypatch.setattr(spectralbranch.contour, "numerical_rank",
                        lambda A, tol_abs: real(A, tol_abs) + 1)
    with pytest.raises(QuadratureError, match="projector rank 3 disagrees with the inertia count 2"):
        spectral_cluster(make_diag_family(1.0, 2.0, 5.0), 0.0, Contour(center=1.5, radius=1.0))


@pytest.mark.parametrize("center", [10.0, 1.5 + 3.0j])
def test_spectral_cluster_empty_circle(center):
    # the second circle never meets the real axis, so it encloses nothing
    cl = spectral_cluster(make_diag_family(1.0, 2.0, 5.0), 0.0, Contour(center=center, radius=1.0))
    assert cl.rank == 0
    assert cl.eigenvalues.size == 0 and cl.sigma.size == 0
    assert np.array_equal(cl.newton_sums, [0.0])
    assert np.linalg.norm(cl.projector) < 1e-10


def test_newton_matches_projected_power_traces(rng):
    # s_p from the contour equals trace(P A^p P), an independent identity
    A = random_hermitian(rng, 7)
    fam = HermitianFamily(name="c", dim=7, matrix=lambda t: A)
    g = _isolating_contour(A, {2, 3})
    N = 2
    s = newton_sums(fam, 0.0, g, p_max=2 * N)
    P = riesz_projector(fam, 0.0, g)
    for p in range(2 * N + 1):
        direct = np.trace(P @ np.linalg.matrix_power(A, p) @ P).real if p else np.trace(P).real
        assert abs(s[p] - direct) <= 1e-8 * max(1.0, abs(direct))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 100_000))
@example(seed=194)  # converges only at the 1024-node cap
@example(seed=216)  # the filter needs about 1,236 nodes: QuadratureError
@example(seed=287)  # the filter needs about 1,024.3 nodes: QuadratureError
def test_projector_exactness_property(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 9))
    A = random_hermitian(rng, m)
    w, V = np.linalg.eigh(A)
    # need an isolated leading block
    k = int(rng.integers(1, m))
    if w[k] - w[k - 1] < 1e-2:
        return
    fam = HermitianFamily(name="c", dim=m, matrix=lambda t: A)
    lo, hi = w[0], w[k - 1]
    radius = 0.5 * (hi - lo) + 0.4 * (w[k] - hi)
    g = Contour(center=0.5 * (lo + hi), radius=radius)
    # The M-node trapezoid rule is the rational filter 1/(1 - z^M) in
    # z = (lambda - c)/r, so its error is about max(|z_in|^M, |z_out|^-M):
    # proj_tol needs log(proj_tol) / log(rho) nodes, rho the larger base.
    z = np.abs((w - g.center) / g.radius)
    rho = max(z[:k].max(), 1.0 / z[k:].min())
    needed = np.log(DEFAULT_TOL.proj_tol) / np.log(rho)
    if needed > DEFAULT_TOL.max_nodes:
        with pytest.raises(QuadratureError):
            riesz_projector(fam, 0.0, g)
        return
    try:
        P = riesz_projector(fam, 0.0, g)
    except QuadratureError:
        # between half the cap and the cap the last doubling step may not
        # certify the projector; below half the cap it always does
        assert needed > DEFAULT_TOL.max_nodes / 2
        return
    indicator = np.zeros(m)
    indicator[:k] = 1.0
    exact = V @ np.diag(indicator) @ V.conj().T
    assert np.linalg.norm(P - exact) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_quadrature_doubling_stability(seed):
    # once converged at M nodes, doubling must not move the projector
    rng = np.random.default_rng(seed)
    A = random_hermitian(rng, 6)
    w = np.linalg.eigvalsh(A)
    if w[2] - w[1] < 1e-2 or w[1] - w[0] < 1e-3:
        return
    fam = HermitianFamily(name="c", dim=6, matrix=lambda t: A)
    c = 0.5 * (w[0] + w[1])
    r = 0.5 * (w[1] - w[0]) + 0.4 * (w[2] - w[1])
    P1 = riesz_projector(fam, 0.0, Contour(center=c, radius=r, nodes=64))
    P2 = riesz_projector(fam, 0.0, Contour(center=c, radius=r, nodes=128))
    assert np.linalg.norm(P1 - P2) <= 1e-10
