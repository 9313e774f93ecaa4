"""Contour calculus around eigenvalue clusters.

Riesz projectors and Newton power sums are trapezoidal quadratures on a
circle; the integrands are analytic in a neighborhood of the contour, so the
node error decays geometrically.  Nodes start at the contour's ``nodes``
count and double (reusing all previously computed nodes) until both the
projector and the requested power sums stabilize below proj_tol, capped at
max_nodes.

The enclosed eigenvalue count needs no quadrature: it is exact by inertia
(``_enclosed_count``, Sturm counts on dense_eig's tridiagonal form of A),
so ``spectral_cluster`` knows N first and one quadrature yields the
projector and s_0..s_{2N} together.

All linear solves run at the family's unit scale: a contour given in true
coordinates maps to unit coordinates via z -> z/f with f = scale_prefactor,
the projector is invariant under that substitution, and s_p rescales exactly
by f**p (f is a power of two for the built-in families).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, RootRealityError, SeparationError
from .families import HermitianFamily
from .linalg import Tolerances, _sturm_counts, _tridiagonal_form, solve_shifted

# Geometric node error e_M ~ rho**M: the step from M/2 to M nodes is about
# e_{M/2}, so e_M is about step**2 up to a constant this factor covers.
_CAP_SAFETY = 100.0
# Clearance from the spectrum, times the radius, that a contour must keep.
_SEPARATION_MARGIN = 0.1
# Imaginary part, over 1 + |value|, past which a Hermitian power sum or root leaks.
_IMAG_TOL = 1e-8
# How closely, over 1 + |s_p|, recovered eigenvalues must reproduce s_1 and s_2.
_RECOVER_TOL = 1e-7


@dataclass(frozen=True)
class Contour:
    """A circle in the complex plane, traversed counterclockwise."""

    center: complex
    radius: float
    nodes: int = 64

    def __post_init__(self):
        if not np.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if not (self.radius > 0.0 and np.isfinite(self.radius)):
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.nodes < 8:
            raise ValueError(f"need at least 8 quadrature nodes, got {self.nodes}")

    def circle_distance(self, values) -> float:
        """min over values of distance to the circle itself."""
        values = np.atleast_1d(np.asarray(values, dtype=np.complex128))
        if values.size == 0:
            return np.inf
        return float(np.min(np.abs(np.abs(values - self.center) - self.radius)))

    def validate_against(self, spectrum) -> None:
        """Require _SEPARATION_MARGIN * radius clearance from the given spectrum."""
        d = self.circle_distance(spectrum)
        need = _SEPARATION_MARGIN * self.radius
        if d < need:
            raise SeparationError(
                f"contour (center {self.center}, radius {self.radius:g}) passes within "
                f"{d:.3e} of the spectrum; margin requires {need:.3e}"
            )

    def _real_interval(self) -> tuple[float, float] | None:
        """The open interval where the disk meets the real axis, or None."""
        c = complex(self.center)
        half = float(np.sqrt(max(self.radius**2 - c.imag**2, 0.0)))
        return (c.real - half, c.real + half) if half > 0.0 else None

    def scaled(self, f: float) -> "Contour":
        """Image of the contour under z -> z/f (map to unit coordinates)."""
        return Contour(center=self.center / f, radius=self.radius / f, nodes=self.nodes)


def _enclosed_count(g: Contour, d: np.ndarray, e: np.ndarray) -> int:
    """Exact count of the eigenvalues inside the circle g of the Hermitian
    matrix reduced to (d, e), by inertia: being real, those in the disk's
    _real_interval, the Sturm count below its right end less that below its
    left."""
    interval = g._real_interval()
    below = _sturm_counts(d, e, interval) if interval else [0, 0]
    return below[1] - below[0]


def _node_sums(A: np.ndarray, c: complex, r: float, thetas: np.ndarray,
               p_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled sums over the given angles: sum e^{i theta} R and per-power traces."""
    m = A.shape[0]
    eye = np.eye(m, dtype=np.complex128)
    P_sum = np.zeros((m, m), dtype=np.complex128)
    s_sum = np.zeros(p_max + 1, dtype=np.complex128)
    for theta in thetas:
        e = np.exp(1j * theta)
        z = c + r * e
        R = solve_shifted(A, z, eye)
        P_sum += e * R
        tr = np.trace(R)
        zp = 1.0 + 0.0j
        for p in range(p_max + 1):
            s_sum[p] += e * zp * tr
            zp *= z
    return P_sum, s_sum


def _check_projector(P: np.ndarray, tol: Tolerances) -> None:
    idem = float(np.linalg.norm(P @ P - P))
    herm = float(np.linalg.norm(P - P.conj().T))
    if idem > tol.proj_tol or herm > tol.proj_tol:
        raise QuadratureError(
            f"projector defects exceed tolerance: ||P^2-P||={idem:.3e}, "
            f"||P-P*||={herm:.3e} (limit {tol.proj_tol:.1e})"
        )


def _quadrature(A: np.ndarray, g: Contour, p_max: int,
                tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Converged projector and power sums s_0..s_{p_max} of A on the unit-scale g.

    Returns (P, s).  Doubles the node count from g.nodes, averaging in the
    odd-angle nodes, until both quantities move less than proj_tol.  At
    max_nodes the geometric estimate _CAP_SAFETY * step**2 must meet proj_tol
    instead; raises if it does not, or if P is not Hermitian and idempotent
    to proj_tol.
    """
    c, r = g.center, g.radius
    M = int(g.nodes)
    thetas = 2.0 * np.pi * np.arange(M) / M
    P_sum, s_sum = _node_sums(A, c, r, thetas, p_max)
    P = -(r / M) * P_sum
    s = -(r / M) * s_sum
    while True:
        odd = 2.0 * np.pi * (2 * np.arange(M) + 1) / (2 * M)
        P_sum, s_sum = _node_sums(A, c, r, odd, p_max)
        P_new = 0.5 * (P + -(r / M) * P_sum)
        s_new = 0.5 * (s + -(r / M) * s_sum)
        err_p = float(np.linalg.norm(P - P_new))
        err_s = float(np.max(np.abs(s - s_new) / (1.0 + np.abs(s_new))))
        M *= 2
        P, s = P_new, s_new
        if err_p <= tol.proj_tol and err_s <= tol.proj_tol:
            break
        if M >= tol.max_nodes:
            if _CAP_SAFETY * max(err_p, err_s) ** 2 <= tol.proj_tol:
                break
            raise QuadratureError(
                f"quadrature not converged at {M} nodes: projector moved {err_p:.3e}, "
                f"power sums moved {err_s:.3e} (limit {tol.proj_tol:.1e})"
            )
    _check_projector(P, tol)
    return P, s


def riesz_projector(family: HermitianFamily, t: float, gamma: Contour) -> np.ndarray:
    """Spectral projector onto the eigenspaces enclosed by gamma at time t."""
    return _quadrature(family.unit(t), gamma.scaled(family.scale_prefactor), 0, family.tol)[0]


def _realize(s: np.ndarray) -> np.ndarray:
    bad = np.abs(s.imag) - _IMAG_TOL * (1.0 + np.abs(s))
    if np.any(bad > 0.0):
        p = int(np.argmax(bad))
        raise QuadratureError(
            f"power sum s_{p} has imaginary residue {s[p].imag:.3e} beyond tolerance"
        )
    return s.real.copy()


def newton_to_sigma(s, N: int) -> np.ndarray:
    """Elementary symmetric polynomials sigma_1..sigma_N from power sums.

    Uses the triangular recurrence p*sigma_p = sum_{k=1..p} (-1)^(k-1)
    sigma_{p-k} s_k, which is exact arithmetic apart from rounding.
    """
    s = np.asarray(s, dtype=np.float64)
    if N < 0:
        raise ValueError("N must be nonnegative")
    if s.shape[0] < N + 1:
        raise ValueError(f"need power sums s_0..s_{N}, got {s.shape[0]} values")
    sigma = np.zeros(N + 1)
    sigma[0] = 1.0
    for p in range(1, N + 1):
        acc = 0.0
        for k in range(1, p + 1):
            acc += (-1.0) ** (k - 1) * sigma[p - k] * s[k]
        sigma[p] = acc / p
    return sigma[1:]


def cluster_eigenvalues(sigma, N: int) -> np.ndarray:
    """Roots (with multiplicity, ascending) of the monic polynomial built from sigma.

    Companion-matrix root finding; Hermitian provenance means the roots must
    come out real, so a large imaginary part signals contour leakage.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N == 0:
        return np.zeros(0)
    if sigma.shape[0] < N:
        raise ValueError(f"need sigma_1..sigma_{N}, got {sigma.shape[0]} values")
    coeffs = np.empty(N + 1)
    coeffs[0] = 1.0
    for p in range(1, N + 1):
        coeffs[p] = (-1.0) ** p * sigma[p - 1]
    roots = np.roots(coeffs)
    rel_imag = np.abs(roots.imag) / (1.0 + np.abs(roots))
    if roots.size and float(np.max(rel_imag)) > _IMAG_TOL:
        worst = roots[int(np.argmax(rel_imag))]
        raise RootRealityError(
            f"roots not real to tolerance: {worst} (relative imaginary part "
            f"{float(np.max(rel_imag)):.3e})"
        )
    return np.sort(roots.real)


@dataclass(frozen=True)
class SpectralCluster:
    """Everything the contour recovers about the eigenvalues inside it at one t."""

    t: float
    projector: np.ndarray
    rank: int
    newton_sums: np.ndarray  # s_0..s_{2N}, true scale
    sigma: np.ndarray        # sigma_1..sigma_N, true scale
    eigenvalues: np.ndarray  # N reals, ascending, true scale


def spectral_cluster(family: HermitianFamily, t: float, gamma: Contour) -> SpectralCluster:
    """Full contour pipeline at one parameter value.

    The enclosed count N comes first, exact by inertia; one quadrature then
    yields the projector and s_0..s_{2N}.  N must agree with s_0, and P must
    be Hermitian and idempotent to proj_tol, which fixes its rank at N.
    Symmetric-function recovery runs at unit scale (exact rescaling at the
    end) so tiny prefactors cannot underflow the polynomial coefficients.
    """
    tol = family.tol
    f = family.scale_prefactor
    A = family.unit(t)
    g = gamma.scaled(f)
    N = _enclosed_count(g, *_tridiagonal_form(A, tol))
    P, s_complex = _quadrature(A, g, 2 * N, tol)
    s_unit = _realize(s_complex)
    s0 = float(s_unit[0])
    if abs(s0 - N) > 1e-8:
        raise QuadratureError(f"s_0 = {s0!r} disagrees with the inertia count {N}")
    if N == 0:
        return SpectralCluster(
            t=float(t), projector=P, rank=0,
            newton_sums=np.array([0.0]), sigma=np.zeros(0), eigenvalues=np.zeros(0),
        )
    sigma_unit = newton_to_sigma(s_unit, N)
    eig_unit = cluster_eigenvalues(sigma_unit, N)
    for p in (1, 2):
        direct = float(np.sum(eig_unit**p))
        if abs(direct - s_unit[p]) > _RECOVER_TOL * (1.0 + abs(s_unit[p])):
            raise QuadratureError(
                f"recovered eigenvalues fail to reproduce s_{p}: "
                f"{direct!r} vs {s_unit[p]!r}"
            )
    powers = f ** np.arange(2 * N + 1)
    return SpectralCluster(
        t=float(t),
        projector=P,
        rank=N,
        newton_sums=s_unit * powers,
        sigma=sigma_unit * powers[1 : N + 1],
        eigenvalues=eig_unit * f,
    )
