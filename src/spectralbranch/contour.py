"""Contour calculus around eigenvalue clusters.

Riesz projectors and Newton power sums are trapezoidal quadratures on a
circle; the integrands are analytic in a neighborhood of the contour, so the
node error decays geometrically.  Nodes start at the contour's ``nodes``
count and double (reusing all previously computed nodes) until both the
projector and the requested power sums stabilize below proj_tol, capped at
max_nodes.

The enclosed eigenvalue count needs no quadrature: it is exact by inertia
(``Contour.inertia_count``), so ``spectral_cluster`` knows N first and one
quadrature yields the projector and s_0..s_{2N} together.

All linear solves run at the family's unit scale: a contour given in true
coordinates maps to unit coordinates via z -> z/f with f = scale_prefactor,
the projector is invariant under that substitution, and s_p rescales exactly
by f**p (f is a power of two for the built-in families).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import QuadratureError, RootRealityError, SeparationError
from .families import HermitianFamily
from .linalg import eigenvalue_count, numerical_rank, solve_shifted

# Geometric node error e_M ~ rho**M: the step from M/2 to M nodes is about
# e_{M/2}, so e_M is about step**2 up to a constant this factor covers.
_CAP_SAFETY = 100.0


@dataclass(frozen=True)
class Contour:
    """A circle in the complex plane, traversed counterclockwise."""

    center: complex
    radius: float
    nodes: int = 64

    def __post_init__(self):
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

    def validate_against(self, spectrum, tol: Tolerances = DEFAULT_TOL) -> None:
        """Require separation_margin * radius clearance from the given spectrum."""
        d = self.circle_distance(spectrum)
        need = tol.separation_margin * self.radius
        if d < need:
            raise SeparationError(
                f"contour (center {self.center}, radius {self.radius:g}) passes within "
                f"{d:.3e} of the spectrum; margin requires {need:.3e}"
            )

    def inertia_count(self, A: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> int:
        """Exact count of the eigenvalues of Hermitian A inside the circle, by inertia.

        The eigenvalues are real, so the disk holds exactly those in the open
        interval where the circle meets the real axis.
        """
        c = complex(self.center)
        half_sq = self.radius**2 - c.imag**2
        if half_sq <= 0.0:
            return 0
        half = float(np.sqrt(half_sq))
        return eigenvalue_count(A, c.real - half, c.real + half, tol)

    def scaled(self, f: float) -> "Contour":
        """Image of the contour under z -> z/f (map to unit coordinates)."""
        return Contour(center=self.center / f, radius=self.radius / f, nodes=self.nodes)


def _node_sums(A: np.ndarray, c: complex, r: float, thetas: np.ndarray,
               p_max: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled sums over the given angles: sum e^{i theta} R and per-power traces."""
    m = A.shape[0]
    eye = np.eye(m, dtype=np.complex128)
    P_sum = np.zeros((m, m), dtype=np.complex128)
    s_sum = np.zeros(p_max + 1, dtype=np.complex128)
    for theta in thetas:
        e = np.exp(1j * theta)
        z = c + r * e
        R = solve_shifted(A, z, eye, tol)
        P_sum += e * R
        tr = np.trace(R)
        zp = 1.0 + 0.0j
        for p in range(p_max + 1):
            s_sum[p] += e * zp * tr
            zp *= z
    return P_sum, s_sum


def _quadrature(A: np.ndarray, c: complex, r: float, start_nodes: int,
                p_max: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, int]:
    """Converged projector and power sums s_0..s_{p_max} in the coordinates of A.

    Returns (P, s, M).  Doubles the node count, averaging in the odd-angle
    nodes, until both quantities move less than proj_tol.  At max_nodes the
    geometric estimate _CAP_SAFETY * step**2 must meet proj_tol instead;
    raises if it does not.
    """
    M = int(start_nodes)
    thetas = 2.0 * np.pi * np.arange(M) / M
    P_sum, s_sum = _node_sums(A, c, r, thetas, p_max, tol)
    P = -(r / M) * P_sum
    s = -(r / M) * s_sum
    while True:
        odd = 2.0 * np.pi * (2 * np.arange(M) + 1) / (2 * M)
        P_sum, s_sum = _node_sums(A, c, r, odd, p_max, tol)
        P_new = 0.5 * (P + -(r / M) * P_sum)
        s_new = 0.5 * (s + -(r / M) * s_sum)
        err_p = float(np.linalg.norm(P - P_new))
        err_s = float(np.max(np.abs(s - s_new) / (1.0 + np.abs(s_new))))
        M *= 2
        P, s = P_new, s_new
        if err_p <= tol.proj_tol and err_s <= tol.proj_tol:
            return P, s, M
        if M >= tol.max_nodes:
            if _CAP_SAFETY * max(err_p, err_s) ** 2 <= tol.proj_tol:
                return P, s, M
            raise QuadratureError(
                f"quadrature not converged at {M} nodes: projector moved {err_p:.3e}, "
                f"power sums moved {err_s:.3e} (limit {tol.proj_tol:.1e})"
            )


def _unit_quadrature(family: HermitianFamily, A: np.ndarray, gamma: Contour,
                     p_max: int, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, int]:
    """_quadrature of A = family.unit(t) on gamma mapped to unit coordinates."""
    g = gamma.scaled(family.scale_prefactor)
    return _quadrature(A, g.center, g.radius, g.nodes, p_max, tol)


def _check_projector(P: np.ndarray, tol: Tolerances) -> None:
    idem = float(np.linalg.norm(P @ P - P))
    herm = float(np.linalg.norm(P - P.conj().T))
    if idem > tol.proj_tol or herm > tol.proj_tol:
        raise QuadratureError(
            f"projector defects exceed tolerance: ||P^2-P||={idem:.3e}, "
            f"||P-P*||={herm:.3e} (limit {tol.proj_tol:.1e})"
        )


def riesz_projector(family: HermitianFamily, t: float, gamma: Contour,
                    tol: Tolerances | None = None) -> np.ndarray:
    """Spectral projector onto the eigenspaces enclosed by gamma at time t."""
    tol = tol if tol is not None else family.tol
    P, _, _ = _unit_quadrature(family, family.unit(t), gamma, 0, tol)
    _check_projector(P, tol)
    return P


def _realize(s: np.ndarray, tol: Tolerances) -> np.ndarray:
    bad = np.abs(s.imag) - tol.imag_tol * (1.0 + np.abs(s))
    if np.any(bad > 0.0):
        p = int(np.argmax(bad))
        raise QuadratureError(
            f"power sum s_{p} has imaginary residue {s[p].imag:.3e} beyond tolerance"
        )
    return s.real.copy()


def newton_sums(family: HermitianFamily, t: float, gamma: Contour, p_max: int,
                tol: Tolerances | None = None) -> np.ndarray:
    """True-scale power sums s_0..s_{p_max} of the eigenvalues enclosed by gamma."""
    if p_max < 0:
        raise ValueError("p_max must be nonnegative")
    tol = tol if tol is not None else family.tol
    _, s_unit, _ = _unit_quadrature(family, family.unit(t), gamma, p_max, tol)
    s_real = _realize(s_unit, tol)
    return s_real * family.scale_prefactor ** np.arange(p_max + 1)


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


def cluster_eigenvalues(sigma, N: int, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Roots (with multiplicity, ascending) of the monic polynomial built from sigma.

    Companion-matrix root finding; Hermitian provenance means the roots must
    come out real, so a large imaginary part signals contour leakage.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
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
    if roots.size and float(np.max(rel_imag)) > tol.imag_tol:
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


def spectral_cluster(family: HermitianFamily, t: float, gamma: Contour,
                     tol: Tolerances | None = None) -> SpectralCluster:
    """Full contour pipeline at one parameter value.

    The enclosed count N comes first, exact by inertia; one quadrature then
    yields the projector and s_0..s_{2N}, and N must agree with s_0 and with
    the projector's rank.  Symmetric-function recovery runs at unit scale
    (exact rescaling at the end) so tiny prefactors cannot underflow the
    polynomial coefficients.
    """
    tol = tol if tol is not None else family.tol
    f = family.scale_prefactor
    A = family.unit(t)
    N = gamma.scaled(f).inertia_count(A, tol)
    P, s_complex, _ = _unit_quadrature(family, A, gamma, 2 * N, tol)
    _check_projector(P, tol)
    s_unit = _realize(s_complex, tol)
    s0 = float(s_unit[0])
    if abs(s0 - N) > 1e-8:
        raise QuadratureError(f"s_0 = {s0!r} disagrees with the inertia count {N}")
    rank = numerical_rank(P, 0.5)
    if rank != N:
        raise QuadratureError(f"projector rank {rank} disagrees with the inertia count {N}")
    if N == 0:
        return SpectralCluster(
            t=float(t), projector=P, rank=0,
            newton_sums=np.array([0.0]), sigma=np.zeros(0), eigenvalues=np.zeros(0),
        )
    sigma_unit = newton_to_sigma(s_unit, N)
    eig_unit = cluster_eigenvalues(sigma_unit, N, tol)
    for p in (1, 2):
        direct = float(np.sum(eig_unit**p))
        if abs(direct - s_unit[p]) > tol.recover_tol * (1.0 + abs(s_unit[p])):
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
