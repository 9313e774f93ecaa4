"""Parameterized Hermitian families t -> A(t).

A family evaluates at unit scale (entries O(1)) and carries a separate
positive ``scale_prefactor`` so that extreme overall scales like 2**(-n*n)
never touch the eigensolver; downstream code rescales exactly.  Derivatives
are analytic when supplied, otherwise 5-point differences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DEFAULT_TOL, Tolerances, _checked_tridiagonal, as_matrix, ensure_hermitian
from .util import central_first, one_sided_first

MatrixFn = Callable[[float], np.ndarray]
BandsFn = Callable[[float], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class HermitianFamily:
    """A curve of Hermitian matrices with optional analytic derivatives.

    ``matrix`` and ``deriv`` both produce unit-scale values; the true
    operator is ``scale_prefactor * matrix(t)``.  Families must be pure
    functions defined on all of R: the Gronwall estimate stays inside a
    grid at least 6 h_fd max(1, |t|) wide at each of its points t, but a
    narrower grid and tracking stencils near a crossing may step outside it.
    ``tol`` is the only source of tolerances for code that takes the family.
    A real symmetric tridiagonal family may also give
    ``tridiagonal(t) -> (d, e)``, the diagonal and off-diagonal of the same
    ``matrix(t)``; the tracker's eigensolves then never form the dense matrix.
    Such a family may give its unit-scale A'(t) the same way, in place of
    ``deriv``: ``tridiagonal_deriv(t) -> (dd, de)``, a real diagonal and the
    off-diagonal A'[i, i + 1], which may be complex; the Gronwall estimate's
    certificate then runs on the bands in O(m), and ``derivative`` places
    them in the dense matrix.
    """

    name: str
    dim: int
    matrix: MatrixFn
    deriv: MatrixFn | None = None
    scale_prefactor: float = 1.0
    tol: Tolerances = DEFAULT_TOL
    tridiagonal: BandsFn | None = None
    tridiagonal_deriv: BandsFn | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not (self.scale_prefactor > 0.0 and np.isfinite(self.scale_prefactor)):
            raise ValueError(f"scale_prefactor must be positive, got {self.scale_prefactor}")
        if self.tridiagonal_deriv is not None and self.tridiagonal is None:
            raise ValueError(f"family {self.name!r} gives tridiagonal_deriv without tridiagonal")
        if self.tridiagonal_deriv is not None and self.deriv is not None:
            raise ValueError(f"family {self.name!r} gives both deriv and tridiagonal_deriv")

    def _checked(self, raw) -> np.ndarray:
        A = as_matrix(raw)
        if A.shape != (self.dim, self.dim):
            raise ValueError(
                f"family {self.name!r} produced shape {A.shape}, expected {(self.dim, self.dim)}"
            )
        return ensure_hermitian(A, self.tol)

    def unit(self, t: float) -> np.ndarray:
        """Unit-scale matrix at t, validated Hermitian."""
        return self._checked(self.matrix(float(t)))

    def eval(self, t: float) -> np.ndarray:
        """True-scale matrix scale_prefactor * unit(t)."""
        return self.scale_prefactor * self.unit(t)

    def derivative_bands(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """True-scale (dd, de) of tridiagonal_deriv(t), checked as the
        tridiagonal eigensolver checks (d, e), with de real or complex."""
        dd, de = self.tridiagonal_deriv(float(t))
        de = np.asarray(de)
        dd, de, _ = _checked_tridiagonal(dd, de, self.tol, np.result_type(de, np.float64))
        if dd.size != self.dim:
            raise ValueError(f"family {self.name!r} produced a diagonal of length {dd.size}, "
                             f"expected {self.dim}")
        return self.scale_prefactor * dd, self.scale_prefactor * de

    def derivative(self, t: float, side: str | None = None) -> np.ndarray:
        """True-scale A'(t): the analytic A' when the family has one (side is
        then ignored), placed from derivative_bands(t) or checked from
        deriv(t), else five-point differences of unit(t) with step
        h_fd max(1, |t|), central when side is None and one-sided toward
        side ("left" or "right") otherwise, symmetrised as (D + D^H) / 2."""
        t = float(t)
        if self.tridiagonal_deriv is not None:
            dd, de = self.derivative_bands(t)
            D = np.zeros((self.dim, self.dim), dtype=np.complex128)
            D.flat[::self.dim + 1] = dd
            D.flat[1::self.dim + 1] = de
            D.flat[self.dim::self.dim + 1] = de.conj()
            return D
        if self.deriv is not None:
            return self.scale_prefactor * self._checked(self.deriv(t))
        h = self.tol.h_fd * max(1.0, abs(t))
        if side is None:
            D = central_first(np.stack([self.unit(t + k * h) for k in (-2, -1, 0, 1, 2)]), h)
        elif side in ("left", "right"):
            sgn = 1.0 if side == "right" else -1.0
            D = one_sided_first(np.stack([self.unit(t + sgn * j * h) for j in range(5)]), h, side)
        else:
            raise ValueError(f"side must be None, 'left' or 'right', got {side!r}")
        return self.scale_prefactor * (0.5 * (D + D.conj().T))


def _graph_norm(A: np.ndarray, u: np.ndarray) -> float:
    """The graph norm of A at u: sqrt(||u||^2 + ||A u||^2)."""
    Au = A @ u
    return float(np.sqrt(np.vdot(u, u).real + np.vdot(Au, Au).real))


def graph_norm_equivalence_ratio(
    family: HermitianFamily,
    s: float,
    t: float,
    samples: int = 32,
    rng: np.random.Generator | None = None,
) -> float:
    """Empirical equivalence constant: max ||u||_t over sampled unit-||.||_s vectors.

    The sample set always contains the standard basis, which floors the ratio
    at the coordinate-wise value and makes ratio(s,t) * ratio(t,s) >= 1
    unconditionally.  Remaining samples are complex Gaussian draws; a fixed
    seed is used when no generator is given so repeated calls agree.

    Each vector takes its own matrix-vector product, which fixes every
    ratio's bits; a batched A @ U may round differently.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    m = family.dim
    vectors = list(np.eye(m, dtype=np.complex128))
    for _ in range(samples):
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        vectors.append(v)
    A_s, A_t = family.eval(s), family.eval(t)
    best = 0.0
    for v in vectors:
        # ||.||_s >= ||.|| > 0 for v != 0, so no division guard needed
        best = max(best, _graph_norm(A_t, v) / _graph_norm(A_s, v))
    return best
