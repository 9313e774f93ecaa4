"""Release gate: the twelve behaviors this package promises, end to end.

Each criterion is one test; run with -s to see a one-line summary per
criterion.  Frozen numbers are closed forms where they exist, otherwise
values pinned after independent verification.  Tolerances are the contract,
not aspirations: loosening them here is a regression.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import (hermitian_with_spectrum, make_offdiag_t_family, numerical_rank,
                      random_hermitian)

from spectralbranch import (
    Contour,
    CurveLemmaFamily,
    HermitianFamily,
    ResolventExampleFamily,
    SchrodingerFamily,
    eigenvector_jump,
    estimate_derivative_bound,
    extend_parameterization,
    gronwall_screen,
    holder_quotient,
    one_sided_slot_derivatives,
    operator_norm,
    parse_config,
    resolvent_weak_vs_norm,
    riesz_projector,
    run,
    sorted_eigenvalues,
    spectral_cluster,
    track_branches,
)
from spectralbranch.linalg import DEFAULT_TOL, dense_eig

SQRT2 = float(np.sqrt(2.0))


def _closed(n: int, alpha: float) -> float:
    return 2.0 ** (n * (alpha * (n - 1) - 1)) / SQRT2


def _ok(k: int, msg: str) -> None:
    print(f"criterion {k:02d} PASS: {msg}")


def test_criterion_01_holder_quotient_values():
    cases = {
        (5, 0.25): 0.7071067812,
        (6, 0.25): 2.0,
        (3, 1.0): 5.6568542495,
        (9, 1.0): None,
    }
    t0 = time.perf_counter()
    results = {pair: holder_quotient(*pair) for pair in cases}
    elapsed = time.perf_counter() - t0
    for (n, alpha), q in results.items():
        assert q.closed_form == pytest.approx(_closed(n, alpha), rel=1e-12)
        assert q.rel_diff <= 1e-6
        expected = cases[(n, alpha)]
        if expected is not None:
            assert q.numerical == pytest.approx(expected, rel=1e-8)
    # The quoted table value 362.038672 is 2^9/sqrt(2), which is the
    # (9, 1/4) quotient; the (9, 1) closed form is 2^63/sqrt(2).  Pin both
    # readings so neither can regress silently.
    assert results[(9, 1.0)].closed_form == pytest.approx(2.0**63 / SQRT2, rel=1e-12)
    assert holder_quotient(9, 0.25).numerical == pytest.approx(362.038672, rel=1e-8)
    assert elapsed < 5.0
    _ok(1, f"four quotient pairs within 1e-6 relative in {elapsed:.2f} s")


def test_criterion_02_divergence_at_alpha_half():
    qs = [holder_quotient(n, 0.5) for n in range(3, 13)]
    nums = [q.numerical for q in qs]
    assert all(b > a for a, b in zip(nums, nums[1:]))
    assert nums[-1] > 1e3
    for q in qs:
        assert q.rel_diff <= 1e-6
    assert qs[-1].closed_form == pytest.approx(2.0**54 / SQRT2, rel=1e-12)
    assert nums[-1] == pytest.approx(1.2738103368752708e16, rel=1e-9)
    _ok(2, f"alpha=1/2 quotients climb from {nums[0]:.3g} to {nums[-1]:.6g} over n=3..12")


def test_criterion_03_eigenvector_jump_constant():
    jumps = np.array([eigenvector_jump(n) for n in range(2, 11)])
    assert float(np.max(np.abs(jumps - np.pi / 8))) <= 1e-10
    _ok(3, f"eigenvector jump pi/8 for n=2..10, spread {float(np.ptp(jumps)):.2e}")


def test_criterion_04_crossing_c1_with_negative_control():
    fam = make_offdiag_t_family()
    bs = track_branches(fam, (-1.0, 1.0), 101)
    assert len(bs.crossings) == 1
    assert bs.crossings[0].report.residual <= 1e-6

    def sincos(t):
        return np.diag([np.sin(t), np.cos(t)]).astype(complex)

    fam2 = HermitianFamily(name="sincos", dim=2, matrix=sincos)
    bs2 = track_branches(fam2, (0.0, np.pi / 2), 101)
    assert len(bs2.crossings) == 1
    assert bs2.crossings[0].report.residual <= 1e-6
    assert np.allclose(bs2.branch(0), np.sin(bs2.grid), atol=1e-9)
    assert np.allclose(bs2.branch(1), np.cos(bs2.grid), atol=1e-9)

    # Negative control: the sorted arrangement kinks at t=0, slopes -1|+1
    # against +1|-1, a mismatch of exactly 2 in each slot.
    left, _ = one_sided_slot_derivatives(fam, 0.0, [0, 1], "left")
    right, _ = one_sided_slot_derivatives(fam, 0.0, [0, 1], "right")
    assert np.allclose(np.abs(left - right), [2.0, 2.0], atol=1e-6)
    _ok(4, "matched residuals <= 1e-6 at both crossings; sorted slots mismatch by 2")


def _conjugated_quadratic(rng):
    """Random 4x4 analytic family whose middle two branches collide at t=0.

    Eigenvalue curves are v_i + c_i t + q_i t^2 in a random unitary frame;
    v has a repeated middle entry and the colliding pair gets slopes at
    least 0.25 apart, so the crossing is transversal and on the grid.
    """
    v = np.array([-1.6 + rng.uniform(-0.05, 0.05), 0.0, 0.0,
                  1.6 + rng.uniform(-0.05, 0.05)])
    c = rng.uniform(-1.0, 1.0, 4)
    c[1] = rng.uniform(-0.7, 0.7)
    c[2] = c[1] + rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 0.3)
    q = rng.uniform(-0.5, 0.5, 4)
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    U = np.linalg.qr(Z)[0]

    def matrix(t, U=U, v=v, c=c, q=q):
        return (U * (v + c * t + q * t * t)) @ U.conj().T

    def deriv(t, U=U, c=c, q=q):
        return (U * (c + 2.0 * q * t)) @ U.conj().T

    fam = HermitianFamily(name="quadratic-pencil", dim=4, matrix=matrix, deriv=deriv)
    return fam, c


def test_criterion_05_one_sided_multisets_at_random_crossings():
    rng = np.random.default_rng(515151)
    worst = 0.0
    for _ in range(20):
        fam, slopes = _conjugated_quadratic(rng)
        bs = track_branches(fam, (-0.4, 0.4), 41)
        assert len(bs.crossings) == 1
        ev = bs.crossings[0]
        assert abs(ev.t_star) <= 1e-8
        assert ev.slots == (1, 2)
        assert ev.report.residual <= 1e-5
        gap = float(np.max(np.abs(np.sort(ev.report.left) - np.sort(ev.report.right))))
        assert gap <= 1e-5
        assert np.allclose(np.sort(ev.report.right), np.sort(slopes[1:3]), atol=1e-5)
        worst = max(worst, gap, ev.report.residual)
    _ok(5, f"20 engineered crossings: slope multisets agree to {worst:.2e}")


def _affine_family(A, B):
    def matrix(t):
        return A + t * B

    def deriv(t):
        return B

    return HermitianFamily(name="affine-probe", dim=A.shape[0],
                           matrix=matrix, deriv=deriv)


@pytest.fixture(scope="module")
def cluster_corpus():
    """100 random Hermitian matrices with a contoured cluster each.

    Spectra live in [-1.2, 1.2] with adjacent gaps in [0.2, 0.24] so the
    power sums up to 2N stay O(10) and absolute tolerances are meaningful.
    g is the guard gap between the cluster block and the rest.
    """
    rng = np.random.default_rng(606060)
    corpus = []
    for _ in range(100):
        m = int(rng.integers(3, 11))
        spectrum = np.cumsum(rng.uniform(0.2, 0.24, m))
        spectrum -= float(spectrum.mean())
        A = hermitian_with_spectrum(rng, spectrum)
        B = random_hermitian(rng, m)
        B = B / operator_norm(B)
        size = int(rng.integers(1, min(5, m) + 1))
        lo = int(rng.integers(0, m - size + 1))
        hi = lo + size - 1
        gap_lo = spectrum[lo] - spectrum[lo - 1] if lo > 0 else np.inf
        gap_hi = spectrum[hi + 1] - spectrum[hi] if hi < m - 1 else np.inf
        g = min(gap_lo, gap_hi)
        if not np.isfinite(g):
            g = 0.22
        gamma = Contour(center=0.5 * (spectrum[lo] + spectrum[hi]),
                        radius=0.5 * (spectrum[hi] - spectrum[lo]) + 0.5 * g)
        fam = _affine_family(A, B)
        corpus.append((fam, gamma, spectral_cluster(fam, 0.0, gamma), g))
    return corpus


def test_criterion_06_contour_oracle_corpus(cluster_corpus):
    worst_multiset = 0.0
    worst_defect = 0.0
    for fam, gamma, cluster, g in cluster_corpus:
        w = sorted_eigenvalues(fam, 0.0)
        inside = w[np.abs(w - gamma.center) < gamma.radius]
        assert cluster.rank == inside.size
        worst_multiset = max(worst_multiset,
                             float(np.max(np.abs(cluster.eigenvalues - inside))))
        P = cluster.projector
        worst_defect = max(worst_defect, operator_norm(P @ P - P),
                           operator_norm(P - P.conj().T))
        delta = 0.2 * g
        for t in np.linspace(-delta, delta, 11):
            assert numerical_rank(riesz_projector(fam, float(t), gamma), 0.5) == cluster.rank
    assert worst_multiset <= 1e-7
    assert worst_defect <= 1e-10
    _ok(6, f"100 clusters: multiset error {worst_multiset:.2e}, projector defects "
           f"{worst_defect:.2e}, rank constant over 11-point boxes")


def test_criterion_07_newton_sums_match_compressed_traces(cluster_corpus):
    worst = 0.0
    for fam, _, cluster, _ in cluster_corpus:
        A = fam.eval(0.0)
        P = cluster.projector
        power = np.eye(A.shape[0], dtype=np.complex128)
        for p in range(2 * cluster.rank + 1):
            direct = complex(np.trace(P @ power @ P)).real
            worst = max(worst, abs(float(cluster.newton_sums[p]) - direct))
            power = power @ A
    assert worst <= 1e-8
    _ok(7, f"|s_p - tr(P A^p P)| <= {worst:.2e} for all p <= 2N across the corpus")


def test_criterion_08_gronwall_screen_on_gallery():
    lemma = CurveLemmaFamily(n_max=12)
    fam = lemma.global_family()
    lo, hi = lemma.full_range()
    bs = track_branches(fam, (lo, hi), 1001)
    a = 1.01 * estimate_derivative_bound(fam, np.linspace(lo, hi, 4001))
    rep = gronwall_screen(bs.grid, bs.values, a)
    assert rep.passed and rep.worst_margin > 0.0

    rex = ResolventExampleFamily(m=200)
    rfam = rex.family()
    rlo, rhi = rex.full_range()
    rbs = track_branches(rfam, (rlo, rhi), 101)
    ra = 1.01 * estimate_derivative_bound(rfam, np.linspace(rlo, rhi, 101))
    assert gronwall_screen(rbs.grid, rbs.values, ra).passed

    sfam = SchrodingerFamily(m=99, potential="t*x").family()
    sbs = track_branches(sfam, (0.0, 1.0), 41)
    sa = 1.01 * estimate_derivative_bound(sfam, np.linspace(0.0, 1.0, 41))
    assert gronwall_screen(sbs.grid, sbs.values, sa).passed

    # lambda(t) = t on {0, 1}: the pair (1, 0) forces e^a - 1 >= 1, so the
    # screen turns exactly at a = ln 2.
    ln2 = float(np.log(2.0))
    grid = np.array([0.0, 1.0])
    line = np.array([[0.0], [1.0]])
    assert gronwall_screen(grid, line, ln2 + 1e-9).passed
    tight = gronwall_screen(grid, line, ln2 - 1e-9)
    assert not tight.passed and len(tight.violations) >= 1
    _ok(8, f"screens pass at 1.01x estimated bound (lemma a={a:.3f}, resolvent "
           f"a={ra:.3f}, schrodinger a={sa:.4f}); lambda=t pins ln 2 to 1e-9")


def test_criterion_09_resolvent_floor_and_pointwise_decay():
    floors = np.array([resolvent_weak_vs_norm(200, 1.0 / n)[1] for n in range(2, 51)])
    assert np.all(floors >= 0.9)
    assert float(floors.min()) == pytest.approx(1.3479868923516645, rel=1e-9)
    small = [1e-3, 2.0**-11, 2.0**-12, 1e-4]
    points = [resolvent_weak_vs_norm(200, t)[0] for t in small]
    assert all(p < 1e-3 for p in points)
    assert points[2] < 1e-100
    _ok(9, f"norm quotient >= {float(floors.min()):.4f} at t=1/n, n=2..50; "
           f"pointwise max at t=2^-12 is {points[2]:.2e}")


def test_criterion_10_schrodinger_spectrum_and_slopes():
    free = SchrodingerFamily(m=99)
    lam0 = float(sorted_eigenvalues(free.family(), 0.0)[0])
    assert lam0 == pytest.approx(9.868792685368, rel=1e-9)
    assert abs(lam0 - np.pi**2) / np.pi**2 < 1e-3

    sch = SchrodingerFamily(m=99, potential="t*x")
    fam = sch.family()
    x = sch.grid_points()
    _, V = dense_eig(fam.eval(0.0))
    rayleigh = np.array([float(np.sum(x * np.abs(V[:, k]) ** 2))
                         for k in range(sch.m)])
    # Step matched to the operator scale: eigensolve noise is eps*||A|| here
    # (||A|| ~ 4e4), so h = 1e-3 keeps stencil roundoff near 1e-7 while
    # truncation stays negligible on these nearly linear branches.
    wide = replace(DEFAULT_TOL, h_fd=1e-3)
    slopes, _ = one_sided_slot_derivatives(replace(fam, tol=wide), 0.0,
                                           list(range(sch.m)), "right")
    slope_err = float(np.max(np.abs(slopes - rayleigh)))
    assert slope_err <= 1e-6

    t0 = time.perf_counter()
    bs = track_branches(fam, (0.0, 1.0), 201)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    for k in (0, 50, 100, 150, 200):
        w = sorted_eigenvalues(fam, float(bs.grid[k]))
        assert np.allclose(np.sort(bs.values[k]), w, rtol=1e-12, atol=1e-8)
    _ok(10, f"lowest free eigenvalue {lam0:.9f} within 0.1% of pi^2; slope match "
            f"{slope_err:.2e}; 201-point track in {elapsed:.2f} s")


def _line_pencil(rng, crossing: bool):
    """Unitarily conjugated diagonal lines, optionally all meeting at t=0."""
    m = int(rng.integers(2, 6))
    slopes = rng.permutation(np.linspace(-1.0, 1.0, m) + rng.uniform(-0.05, 0.05, m))
    if crossing:
        offsets = np.zeros(m)
    else:
        # gaps >= 2.3 while relative drift over |t| <= 1 stays <= 2.1
        offsets = np.arange(m) * 2.5 + rng.uniform(-0.1, 0.1, m)
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    U = np.linalg.qr(Z)[0]

    def matrix(t, U=U, offsets=offsets, slopes=slopes):
        return (U * (offsets + slopes * t)) @ U.conj().T

    def deriv(t, U=U, slopes=slopes):
        return (U * slopes) @ U.conj().T

    return HermitianFamily(name="line-pencil", dim=m, matrix=matrix, deriv=deriv), m


def test_criterion_11_extension_counting():
    rng = np.random.default_rng(111111)
    worst = 0.0
    for trial in range(20):
        fam, m = _line_pencil(rng, crossing=trial % 2 == 0)
        bs = track_branches(fam, (-1.0, 1.0), 101)
        k = int(rng.integers(1, m + 1))
        cols = rng.choice(m, size=k, replace=False)
        mu = bs.values[:, cols]
        completed = extend_parameterization(bs, mu)
        assert completed.shape == (bs.grid.size, m - k)
        union = np.sort(np.concatenate([mu, completed], axis=1), axis=1)
        direct = np.sort(bs.values, axis=1)
        worst = max(worst, float(np.max(np.abs(union - direct))))
    assert worst <= 1e-8
    _ok(11, f"20 instances: given + completed branches exhaust the spectrum, "
            f"worst counting defect {worst:.2e}")


def test_criterion_12_byte_identical_reruns(tmp_path):
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    config_paths = sorted(config_dir.glob("*.cfg"))
    assert len(config_paths) >= 6
    for cfg_path in config_paths:
        cfg = parse_config(cfg_path.read_text())
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / cfg_path.stem / tag
            assert run(cfg, out_dir=str(out)) == 0
            csv_name = cfg.output_name()
            report_name = csv_name.rsplit(".", 1)[0] + ".report.txt"
            blobs.append((out / csv_name).read_bytes() + (out / report_name).read_bytes())
        assert blobs[0] == blobs[1]
    _ok(12, f"{len(config_paths)} configs rerun byte-identical (CSV and report)")
