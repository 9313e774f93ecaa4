"""Built-in operator families with known spectral behavior.

Three constructions: a 2x2 curve whose eigenvalue branches are twice
differentiable yet fail every Holder class C^{1,alpha} at a sequence of
collision windows; a diagonal family whose difference quotients converge
coordinatewise but not in norm; and a discretized 1-D Dirichlet Schrodinger
operator with a parameterized potential.

The collision-window curve equals, on the window around t_n, the model
matrix A_n(s) with diagonal +-2^(-n*n) and off-diagonal s*2^(-n); outside
the windows it is glued to zero with a C-infinity plateau.  Window-local
work uses the coordinate sigma = s/s_n (s_n = 2^(n-n*n)), where the model
matrix is [[1, sigma], [sigma, -1]] times the exact prefactor 2^(-n*n); all
rescalings are powers of two and therefore exact in double precision.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, FamilySpec, Tolerances
from .errors import ConfigError, UnderflowGuardError
from .expressions import parse_expression
from .families import ExprMatrixSpec, HermitianFamily
from .linalg import hermitian_eig
from .tracker import track_branches
from .util import central_first

# ---------------------------------------------------------------------------
# smooth plateau machinery


def _phi(x: float) -> float:
    return math.exp(-1.0 / x) if x > 0.0 else 0.0


def _phi_prime(x: float) -> float:
    return math.exp(-1.0 / x) / (x * x) if x > 0.0 else 0.0


def smooth_step(x: float) -> float:
    """C-infinity monotone step: 0 for x <= 0, 1 for x >= 1."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    u = _phi(x)
    v = _phi(1.0 - x)
    return u / (u + v)


def smooth_step_prime(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    u = _phi(x)
    v = _phi(1.0 - x)
    du = _phi_prime(x)
    dv = _phi_prime(1.0 - x)
    return (du * v + u * dv) / (u + v) ** 2


# ---------------------------------------------------------------------------
# collision-window curve


@dataclass(frozen=True)
class CurveLemmaFamily:
    """2x2 curve equal to the model matrices A_n on disjoint windows.

    Windows exist for n >= 2 only: the n = 1 window would have half-width 1
    and s_1 = 1, which violates both the disjointness and the s_n <= 1/n^2
    requirements, so it is excluded.
    """

    n_max: int = 12
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if self.n_max < 2:
            raise ValueError(f"n_max must be at least 2, got {self.n_max}")

    def t_center(self, n: int) -> float:
        self._check_n(n)
        return 4.0 * sum(1.0 / k**2 for k in range(1, n + 1))

    @staticmethod
    def s_n(n: int) -> float:
        return 2.0 ** (n - n * n)

    @staticmethod
    def window_halfwidth(n: int) -> float:
        return 1.0 / n**2

    def _check_n(self, n: int) -> None:
        if not 2 <= n <= self.n_max:
            raise ValueError(f"window index must be in [2, {self.n_max}], got {n}")

    def plateau_outer(self, n: int) -> float:
        """Support half-width of window n's plateau; keeps supports disjoint."""
        inner = self.window_halfwidth(n)
        gaps = [3.0 / (n + 1) ** 2 - 1.0 / n**2]  # to window n+1
        if n >= 3:
            gaps.append(3.0 / n**2 - 1.0 / (n - 1) ** 2)  # to window n-1
        return inner + 0.5 * min(gaps)

    # model matrix in true coordinates: diag +-2^(-n*n), off-diagonal s*2^(-n)
    def _model(self, n: int, s: float) -> np.ndarray:
        d = 2.0 ** (-n * n)
        off = s * 2.0**-n
        return np.array([[d, off], [off, -d]])

    def _model_prime(self, n: int) -> np.ndarray:
        off = 2.0**-n
        return np.array([[0.0, off], [off, 0.0]])

    def window_family(self, n: int) -> HermitianFamily:
        """The window in local coordinates: parameter sigma = s / s_n.

        Unit matrix [[1, sigma], [sigma, -1]] under the exact prefactor
        2^(-n*n); the true eigenvalues are +-2^(-n*n) sqrt(1 + sigma^2).
        """
        self._check_n(n)

        def matrix(sigma: float) -> np.ndarray:
            return np.array([[1.0, sigma], [sigma, -1.0]])

        def deriv(sigma: float) -> np.ndarray:
            return np.array([[0.0, 1.0], [1.0, 0.0]])

        return HermitianFamily(
            name=f"collision-window-{n}", dim=2, matrix=matrix, deriv=deriv,
            scale_prefactor=2.0 ** (-n * n), tol=self.tol,
        )

    def global_family(self) -> HermitianFamily:
        """The full curve t -> A(t): model matrices on windows, zero between.

        Plateau blending is exactly 1 on |t - t_n| <= 1/n^2, so in-window
        values and derivatives are those of the models.  True scale: entries
        reach 2^(-n*n), far below what grid-level collision detection can
        separate for large n; window-local routines exist for that reason.
        """
        centers = [self.t_center(n) for n in range(2, self.n_max + 1)]

        def locate(t: float) -> tuple[int, float] | None:
            for i, c in enumerate(centers):
                n = i + 2
                s = t - c
                if abs(s) <= self.plateau_outer(n):
                    return n, s
            return None

        def matrix(t: float) -> np.ndarray:
            hit = locate(t)
            if hit is None:
                return np.zeros((2, 2))
            n, s = hit
            inner = self.window_halfwidth(n)
            outer = self.plateau_outer(n)
            psi = smooth_step((outer - abs(s)) / (outer - inner))
            return psi * self._model(n, s)

        def deriv(t: float) -> np.ndarray:
            hit = locate(t)
            if hit is None:
                return np.zeros((2, 2))
            n, s = hit
            inner = self.window_halfwidth(n)
            outer = self.plateau_outer(n)
            width = outer - inner
            x = (outer - abs(s)) / width
            psi = smooth_step(x)
            dpsi = -smooth_step_prime(x) * math.copysign(1.0, s) / width if s != 0.0 else 0.0
            return dpsi * self._model(n, s) + psi * self._model_prime(n)

        return HermitianFamily(
            name="curve-lemma", dim=2, matrix=matrix, deriv=deriv,
            scale_prefactor=1.0, tol=self.tol,
        )

    def full_range(self) -> tuple[float, float]:
        return 3.0, self.t_center(self.n_max) + 1.0


@dataclass(frozen=True)
class HolderQuotient:
    n: int
    alpha: float
    closed_form: float
    numerical: float
    rel_diff: float


# sigma grid [-1.25, 1.25] for holder_quotient: 161 points give step 1/64
# exactly, with sigma = 0 and sigma = 1 on grid
_HOLDER_GRID = 161


def holder_quotient(n: int, alpha: float, use_prefactor: bool = True,
                    tol: Tolerances = DEFAULT_TOL) -> HolderQuotient:
    """First-derivative Holder quotient of the upper branch across window n.

    The quotient (lambda'(t_n + s_n) - lambda'(t_n)) / s_n^alpha is computed
    two ways: the closed form 2^(n(alpha(n-1)-1))/sqrt(2), and numerically
    from branches tracked through the window in local sigma coordinates
    (the upper branch is 2^(-n*n) sqrt(1 + sigma^2), d/ds = (1/s_n) d/dsigma).
    The sigma grid is binary-exact and contains sigma = 0 and sigma = 1, so
    the only numerical content is the tracked values and the stencil.

    With use_prefactor=False the window matrix carries its true 2^(-n*n)
    entries into the eigensolver; that route underflows the quotient
    arithmetic beyond n = 15 and is guarded.
    """
    if n < 2:
        raise ValueError(f"window index must be >= 2, got {n}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    try:
        # ds = s_n dsigma and the Holder denominator s_n^alpha combine to this
        # exact power of two; past double range the window is out of reach
        rescale = 2.0 ** ((1.0 + alpha) * (n * n - n))
    except OverflowError:
        raise UnderflowGuardError(
            f"window n={n} at alpha={alpha}: the rescaling 2^((1+alpha)(n^2-n)) "
            f"overflows double precision"
        ) from None
    if not use_prefactor and n > 15:
        raise UnderflowGuardError(
            f"window n={n} without prefactor rescaling underflows double precision; "
            f"enable use_prefactor"
        )
    fam = CurveLemmaFamily(n_max=n, tol=tol).window_family(n)
    if not use_prefactor:
        f = fam.scale_prefactor
        inner = fam.matrix
        fam = HermitianFamily(
            name=fam.name + "-flat", dim=2,
            matrix=lambda sigma: f * inner(sigma),
            scale_prefactor=1.0, tol=tol,
        )
    branches = track_branches(fam, (-1.25, 1.25), _HOLDER_GRID, order=1, tol=tol)
    grid = branches.grid
    upper = branches.values[:, 1]
    h = float(grid[1] - grid[0])
    i0 = int(np.argmin(np.abs(grid)))
    i1 = int(np.argmin(np.abs(grid - 1.0)))
    d0 = float(central_first(upper[i0 - 2:i0 + 3], h))
    d1 = float(central_first(upper[i1 - 2:i1 + 3], h))
    # d/dsigma values carry the true prefactor
    numerical = (d1 - d0) * rescale
    closed = 2.0 ** (n * (alpha * (n - 1) - 1)) / math.sqrt(2.0)
    return HolderQuotient(
        n=n, alpha=alpha, closed_form=closed, numerical=numerical,
        rel_diff=abs(numerical - closed) / abs(closed),
    )


def eigenvector_jump(n: int, tol: Tolerances = DEFAULT_TOL) -> float:
    """Angle between the positive-branch eigenvectors at t_n and t_n + s_n.

    The matrices are 2^(-n*n) diag(1,-1) and 2^(-n*n) [[1,1],[1,-1]]; the
    angle is pi/8 for every n.  Computed from true-scale eigensolves so the
    claimed scale invariance is exercised, not assumed.
    """
    gallery = CurveLemmaFamily(n_max=max(n, 2), tol=tol)
    fam = gallery.window_family(n)
    vectors = []
    for sigma in (0.0, 1.0):
        dec = hermitian_eig(fam.eval(sigma), tol)
        vectors.append(dec.eigenvectors[:, int(np.argmax(dec.eigenvalues))])
    inner = abs(complex(np.vdot(vectors[0], vectors[1])))
    return float(math.acos(min(1.0, inner)))


# ---------------------------------------------------------------------------
# coordinatewise-but-not-norm difference quotients


def bump(x: float) -> float:
    """Smooth bump on (0, 2): exp(1 - 1/(1-(x-1)^2)), peak value 1 at x = 1.

    Flat to all orders at 0 and 2; bump(0) = bump'(0) = 0.
    """
    u = x - 1.0
    if abs(u) >= 1.0:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - u * u))


def bump_prime(x: float) -> float:
    u = x - 1.0
    if abs(u) >= 1.0:
        return 0.0
    den = 1.0 - u * u
    return bump(x) * (-2.0 * u / (den * den))


@dataclass(frozen=True)
class ResolventExampleFamily:
    """Diagonal family diag(k + bump(k t)), k = 1..m.

    The k-th difference quotient (lambda_k(t) - lambda_k(0))/t - lambda_k'(0)
    equals bump(k t)/(k t): it vanishes as t -> 0 for each fixed k, yet at
    t = 1/k the k-th coordinate equals bump(1) = 1, so the supremum over k
    never drops below 1 along t = 1/k.  The diagonal entry growth in k models
    an operator whose graph norms genuinely depend on the truncation.
    """

    m: int = 200
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")

    def family(self) -> HermitianFamily:
        ks = np.arange(1, self.m + 1, dtype=np.float64)

        def matrix(t: float) -> np.ndarray:
            return np.diag(ks + np.array([bump(k * t) for k in ks]))

        def deriv(t: float) -> np.ndarray:
            return np.diag(ks * np.array([bump_prime(k * t) for k in ks]))

        return HermitianFamily(
            name="resolvent-example", dim=self.m, matrix=matrix, deriv=deriv,
            scale_prefactor=1.0, tol=self.tol,
        )

    def quotients(self, t: float) -> np.ndarray:
        """mu_k(t) = bump(k t)/(k t) for k = 1..m."""
        if t == 0.0:
            raise ValueError("difference quotient needs t != 0")
        ks = np.arange(1, self.m + 1, dtype=np.float64)
        return np.array([bump(k * t) / (k * t) for k in ks])

    def full_range(self) -> tuple[float, float]:
        return 0.05, 1.0


def resolvent_weak_vs_norm(m: int, t: float, k_fixed: int = 5) -> tuple[float, float]:
    """(max over k <= k_fixed, max over k <= m) of |difference quotient mu_k(t)|.

    The first coordinate tends to 0 with t (fixed finitely many coordinates),
    the second stays at 1 whenever t = 1/k for some k <= m: convergence holds
    coordinatewise but not in operator norm.
    """
    if k_fixed < 1 or k_fixed > m:
        raise ValueError(f"k_fixed must be in [1, m], got {k_fixed}")
    q = np.abs(ResolventExampleFamily(m=m).quotients(t))
    return float(np.max(q[:k_fixed])), float(np.max(q))


# ---------------------------------------------------------------------------
# Dirichlet Schrodinger operator on (0, 1)


@dataclass(frozen=True)
class SchrodingerFamily:
    """-(d/dx)^2 + V(t, x) on (0,1), Dirichlet ends, m interior grid points.

    Second-order finite differences: tridiagonal (2I - shift - shift^T)/h^2
    plus diag(V(t, x_i)), h = 1/(m+1), x_i = i h.  The potential is an
    expression in (t, x), evaluated over all x_i at once, or any callable
    V(t, x), called once per grid point.
    """

    m: int = 99
    potential: object = None  # str expression, callable, or None for V = 0
    tol: Tolerances = DEFAULT_TOL

    def __post_init__(self):
        if self.m < 3:
            raise ValueError(f"need at least 3 grid points, got m={self.m}")

    def _potential_fn(self):
        """V(t, xs) over the whole grid xs at once."""
        V = self.potential
        if V is None:
            return lambda t, xs: np.zeros(xs.shape)
        if isinstance(V, str):
            expr = parse_expression(V, variables=("t", "x"))
            return lambda t, xs: np.broadcast_to(expr.evaluate(t=t, x=xs), xs.shape)
        if callable(V):
            return lambda t, xs: np.array([V(t, x) for x in xs])
        raise TypeError(f"potential must be None, an expression string, or callable, got {type(V)}")

    def family(self) -> HermitianFamily:
        m = self.m
        h = 1.0 / (m + 1)
        xs = h * np.arange(1, m + 1)
        lap = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h**2
        vf = self._potential_fn()

        def matrix(t: float) -> np.ndarray:
            return lap + np.diag(vf(t, xs))

        diag, off = lap.diagonal().copy(), lap.diagonal(1).copy()

        def tridiagonal(t: float) -> tuple[np.ndarray, np.ndarray]:
            # the same sums as the diagonal of matrix(t), so the same bits
            return diag + vf(t, xs), off

        def deriv(t: float) -> np.ndarray:
            # The Laplacian part is t-independent, so difference only the
            # potential: the O(1/h^2) diagonal drops exactly instead of
            # through roundoff.
            ht = 1e-6 * max(1.0, abs(t))
            vp = (vf(t + ht, xs) - vf(t - ht, xs)) / (2.0 * ht)
            return np.diag(vp).astype(np.complex128)

        name = "schrodinger" if self.potential is None else f"schrodinger[{self.potential}]"
        return HermitianFamily(
            name=name, dim=m, matrix=matrix, deriv=deriv, scale_prefactor=1.0, tol=self.tol,
            tridiagonal=tridiagonal,
        )

    def free_eigenvalues(self) -> np.ndarray:
        """Exact spectrum for V = 0: (2/h^2)(1 - cos(k pi h)), k = 1..m."""
        h = 1.0 / (self.m + 1)
        k = np.arange(1, self.m + 1)
        return (2.0 / h**2) * (1.0 - np.cos(k * np.pi * h))

    def grid_points(self) -> np.ndarray:
        h = 1.0 / (self.m + 1)
        return h * np.arange(1, self.m + 1)


# ---------------------------------------------------------------------------
# CLI registry


def make_family(spec: FamilySpec, tol: Tolerances = DEFAULT_TOL) -> HermitianFamily:
    """Build the family a config file names.

    A value the family's constructor refuses is a ConfigError: the config
    named it.
    """
    try:
        if spec.name == "curve-lemma":
            n_max = spec.n_max if spec.n_max is not None else 12
            return CurveLemmaFamily(n_max=n_max, tol=tol).global_family()
        if spec.name == "resolvent-example":
            m = spec.m if spec.m is not None else 200
            return ResolventExampleFamily(m=m, tol=tol).family()
        if spec.name == "schrodinger":
            m = spec.m if spec.m is not None else 99
            return SchrodingerFamily(m=m, potential=spec.potential, tol=tol).family()
    except ValueError as exc:
        raise ConfigError(f"family {spec.name!r}: {exc}") from exc
    if spec.name == "expr":
        if spec.dim is None or spec.rows is None:
            raise ConfigError("expr family needs dim and row entries")
        return ExprMatrixSpec(dim=spec.dim, entries=spec.rows).to_family(tol=tol)
    raise ConfigError(f"unknown family {spec.name!r}")
