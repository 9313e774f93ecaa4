"""Differentiable eigenvalue-branch tracking through crossings.

The sorted eigenvalue curves of a Hermitian family are continuous but kink
where branches cross.  This module detects the collisions on a grid, refines
the collision parameter, estimates one-sided derivatives of the colliding
slots from both sides, pairs them by sorted order (curvature-refined at
order 2), and applies the resulting permutation so each output column is a
differentiable branch.  Each collision is verified by exact inertia counts
at a circle's real endpoints over a probe window: the circle must enclose
the same number of eigenvalues at every probe time.

Collision detection and stencil arithmetic run at the family's unit scale so
tiny overall prefactors do not collapse every gap below the detection
threshold; reported values and derivatives are exact rescalings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .contour import Contour
from .errors import CountingError, GapCollapseError, RankDriftError
from .families import HermitianFamily
from .linalg import _frobenius, _one_blas_thread, dense_eig, operator_norm, tridiagonal_eig
from .util import one_sided_first, one_sided_second, remove_nearest

_SIDES = ("left", "right")
# Order-2 stencil step over max(1, |t*|): wider than h_fd, as rounding grows as 1/h^2.
_H_FD2 = 1e-4


def _unit_eig(family: HermitianFamily, t: float,
              A: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Unit-scale (w, V) at t as the solver returns them: tridiagonal_eig on
    (d, e) for a tridiagonal family, else dense_eig on family.unit(t), or on A
    if it is already built."""
    if family.tridiagonal is not None:
        return tridiagonal_eig(*family.tridiagonal(float(t)), family.tol)
    return dense_eig(family.unit(t) if A is None else A, family.tol)


def sorted_eigenvalues(family: HermitianFamily, t: float) -> np.ndarray:
    """Ascending true-scale eigenvalues of A(t)."""
    return _unit_eig(family, t)[0] * family.scale_prefactor


@dataclass(frozen=True)
class MatchReport:
    """One-sided derivative data and the pairing chosen at one crossing.

    ``left`` and ``right`` are in slot order (the i-th entry belongs to the
    i-th colliding slot on that side); ``pairing`` holds local index pairs
    (left slot position, right slot position).  ``residual`` is the largest
    |rho_plus - rho_minus| over the chosen pairs.
    """

    t_star: float
    left: np.ndarray
    right: np.ndarray
    pairing: tuple[tuple[int, int], ...]
    residual: float
    order: int
    second_left: np.ndarray | None = None
    second_right: np.ndarray | None = None


@dataclass(frozen=True)
class CrossingEvent:
    t_star: float
    grid_span: tuple[int, int]     # inclusive rows where the collision was seen
    slots: tuple[int, ...]         # colliding slots, ascending
    labels: tuple[int, ...]        # branch label occupying each slot on the left
    sigma: tuple[int, ...]         # sigma[i] = slot continuing slots[i] on the right
    report: MatchReport


@dataclass(frozen=True)
class BranchSet:
    """Matched branches on a grid: column j of ``values`` is branch j."""

    grid: np.ndarray
    values: np.ndarray
    crossings: tuple[CrossingEvent, ...]
    order: int
    family_name: str = ""

    @property
    def n_branches(self) -> int:
        return self.values.shape[1]

    def branch(self, j: int) -> np.ndarray:
        return self.values[:, j]


def one_sided_slot_derivatives(family: HermitianFamily, t_star: float, slots,
                               side: str, second: bool = False):
    """One-sided d/dt of the sorted-eigenvalue slot curves at t_star.

    Fresh eigensolves at five stencil points on the requested side; returns
    (first, second) true-scale arrays over ``slots`` (second is None unless
    requested).  Probes may leave any grid of interest; families are total.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    slots = list(slots)
    if not all(isinstance(s, (int, np.integer)) and 0 <= s < family.dim for s in slots):
        raise ValueError(f"slots must be integers in [0, {family.dim}), got {slots}")
    sgn = 1.0 if side == "right" else -1.0
    f = family.scale_prefactor
    h1 = family.tol.h_fd * max(1.0, abs(t_star))
    samples = np.stack([_unit_eig(family, t_star + sgn * j * h1)[0][slots] for j in range(5)])
    first = one_sided_first(samples, h1, side) * f
    if not second:
        return first, None
    h2 = _H_FD2 * max(1.0, abs(t_star))
    samples2 = np.stack([_unit_eig(family, t_star + sgn * j * h2)[0][slots] for j in range(5)])
    return first, one_sided_second(samples2, h2) * f


def one_sided_derivatives(family: HermitianFamily, t_star: float, gamma: Contour,
                          side: str = "right") -> np.ndarray:
    """Eigenvalues of the compressed operator P A'(t*) P on range P, ascending.

    These are the one-sided derivatives (from either side) of the branches
    colliding inside gamma at t_star; one eigensolve's eigenvectors there span
    range P.  Their count must equal inertia's at t_star and at two probes on
    the requested side; a change means the box is too large.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    sgn = 1.0 if side == "right" else -1.0
    g = gamma.scaled(family.scale_prefactor)
    A = family.unit(t_star)
    w, V = _unit_eig(family, t_star, A)
    F = V[:, np.abs(w - g.center) < g.radius]
    N = F.shape[1]
    h = family.tol.h_fd * max(1.0, abs(t_star))
    for j in (0, 1, 2):
        t = t_star + sgn * j * h
        count = g.inertia_count(A if j == 0 else family.unit(t), family.tol)
        if count != N:
            raise RankDriftError(
                f"box too large: contour encloses {N} eigenvalues at t={t_star!r} "
                f"but {count} at t={t!r}"
            )
    if N == 0:
        return np.zeros(0)
    C = F.conj().T @ family.derivative(t_star, side) @ F
    C = 0.5 * (C + C.conj().T)
    return np.sort(np.linalg.eigvalsh(C))


def _tie_groups(sorted_left: np.ndarray, sorted_right: np.ndarray,
                tol: Tolerances) -> list[tuple[int, int]]:
    """Index ranges [start, stop) where both sorted sequences stay within tie tol."""
    def jumps(s):
        return np.diff(s) > tol.deriv_tie_tol * (1.0 + np.abs(s[1:]))

    cuts = (np.flatnonzero(jumps(sorted_left) | jumps(sorted_right)) + 1).tolist()
    return list(zip([0] + cuts, cuts + [sorted_left.shape[0]]))


def match_crossing(left, right, order: int = 1, second_left=None, second_right=None,
                   tol: Tolerances = DEFAULT_TOL, t_star: float = float("nan")) -> MatchReport:
    """Pair left and right one-sided derivative multisets at a crossing.

    Sorting both sides ascending and pairing in order is the optimal
    assignment for scalars.  At order 2, runs of first derivatives that tie
    within deriv_tie_tol are sub-ordered by their one-sided second difference
    quotients before pairing.
    """
    left = np.asarray(left, dtype=np.float64).ravel()
    right = np.asarray(right, dtype=np.float64).ravel()
    if left.shape != right.shape:
        raise ValueError(f"derivative multisets differ in size: {left.shape[0]} vs {right.shape[0]}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    l_order = np.argsort(left, kind="stable")
    r_order = np.argsort(right, kind="stable")
    sec_l = sec_r = None
    if order == 2:
        if second_left is None or second_right is None:
            raise ValueError("order=2 matching needs second difference quotients for both sides")
        sec_l = np.asarray(second_left, dtype=np.float64).ravel()
        sec_r = np.asarray(second_right, dtype=np.float64).ravel()
        if sec_l.shape != left.shape or sec_r.shape != right.shape:
            raise ValueError("second-quotient arrays must match the first-derivative arrays")
        for start, stop in _tie_groups(left[l_order], right[r_order], tol):
            if stop - start < 2:
                continue
            seg = l_order[start:stop]
            l_order[start:stop] = seg[np.argsort(sec_l[seg], kind="stable")]
            seg = r_order[start:stop]
            r_order[start:stop] = seg[np.argsort(sec_r[seg], kind="stable")]
    pairing = tuple(zip(l_order.tolist(), r_order.tolist()))
    residual = 0.0
    if left.size:
        residual = float(np.max(np.abs(left[l_order] - right[r_order])))
    return MatchReport(
        t_star=float(t_star), left=left, right=right, pairing=pairing,
        residual=residual, order=order, second_left=sec_l, second_right=sec_r,
    )


def _tight_runs(tight: np.ndarray) -> list[tuple[int, int]]:
    """Maximal slot intervals [lo, hi] whose gaps are all tight (``np.diff(row) < threshold``)."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], tight, [0]))))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


class _Detection:
    """Mutable accumulator for collision rows before refinement."""

    __slots__ = ("k_start", "k_end", "lo", "hi")

    def __init__(self, k: int, lo: int, hi: int):
        self.k_start = k
        self.k_end = k
        self.lo = lo
        self.hi = hi

    def absorbs(self, k: int, lo: int, hi: int) -> bool:
        if k > self.k_end + 1 or lo > self.hi or hi < self.lo:
            return False
        self.k_end = k
        self.lo = min(self.lo, lo)
        self.hi = max(self.hi, hi)
        return True


def _detect(values_unit: np.ndarray, threshold: float) -> list[_Detection]:
    tight = np.diff(values_unit, axis=1) < threshold
    detections: list[_Detection] = []
    for k in np.flatnonzero(tight.any(axis=1)).tolist():
        for lo, hi in _tight_runs(tight[k]):
            if not any(d.absorbs(k, lo, hi) for d in detections):
                detections.append(_Detection(k, lo, hi))
    return detections


# Bounded Brent minimization: golden-section steps, replaced by a parabolic
# step wherever the parabola through the three best points lands well inside
# the bracket (Brent, Algorithms for Minimization without Derivatives, 1973,
# ch. 5; the fminbound of Forsythe, Malcolm & Moler, 1977).  The loop is
# scipy.optimize's method="bounded" in plain floats: the same points in the
# same order, the same x.  x is the best point, w the second best, v the
# previous w; d is the step just taken and e the one before it.
_MAX_EVALS = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def minimize_scalar(f, a: float, b: float, xatol: float) -> float:
    """A local minimizer of f on [a, b] to within xatol, from at most 500
    evaluations of f.  The result is always a point where f was evaluated.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValueError(f"bounds must be finite with a <= b, got ({a}, {b})")
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    evals = 1
    while True:
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - xm) <= tol2 - 0.5 * (b - a) or evals >= _MAX_EVALS:
            return x
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = (p + 0.0) / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = -tol1 if xm < x else tol1
        if golden:
            e = (a if x >= xm else b) - x
            d = _GOLDEN * e
        step = max(abs(d), tol1)
        u = x - step if d < 0 else x + step
        fu = f(u)
        evals += 1
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _refine_t_star(family: HermitianFamily, grid: np.ndarray,
                   det: _Detection) -> tuple[float, np.ndarray]:
    """Parameter of minimal cluster spread inside the detection box, and the
    unit-scale eigenvalues there, kept from the minimizer's own solve."""
    a = float(grid[max(det.k_start - 1, 0)])
    b = float(grid[min(det.k_end + 1, grid.shape[0] - 1)])
    if a == b:
        return a, _unit_eig(family, a)[0]
    solved: dict[float, np.ndarray] = {}

    def spread(t: float) -> float:
        w = solved[t] = _unit_eig(family, t)[0]
        return float(w[det.hi] - w[det.lo])

    t_star = minimize_scalar(spread, a, b, 1e-10 * max(1.0, abs(a), abs(b)))
    return t_star, solved[t_star]


_PROBE_OFFSETS = (0.0, -3.0, -1.5, 1.5, 3.0)  # units of the grid step


def _verify_window(family: HermitianFamily, t_star: float, w_star_unit: np.ndarray,
                   glo: int, ghi: int, dt: float) -> None:
    """Check a circle about the value group [glo, ghi]; nothing is kept.

    The radius must cover the cluster's drift across the probe box (3 grid
    steps each side) while keeping the rest of the spectrum outside, so it is
    sized from eigensolves at the probe times, not from t_star alone.  The
    circle must clear the spectrum at t_star, and its count at each probe
    time, exact by inertia on the same probe matrices, is the group's size.
    """
    f = family.scale_prefactor
    center = float(np.mean(w_star_unit[glo:ghi + 1])) * f
    times = [t_star + off * dt for off in _PROBE_OFFSETS]
    mats = [family.unit(t) for t in times]
    values = [_unit_eig(family, t, A)[0] * f if off != 0.0 else w_star_unit * f
              for off, t, A in zip(_PROBE_OFFSETS, times, mats)]
    spread = max(np.max(np.abs(w[glo:ghi + 1] - center)) for w in values)
    rest = [np.concatenate([w[:glo], w[ghi + 1:]]) for w in values]
    d_out = min((float(np.min(np.abs(r - center))) for r in rest if r.size),
                default=np.inf)
    radius = max(1.3 * spread, 0.5 * d_out if np.isfinite(d_out) else 0.5 * max(1.0, abs(center)))
    if radius > 0.75 * d_out:
        raise RankDriftError(
            f"box too large: cluster around {center!r} spreads {spread!r} over the "
            f"probe window but the rest of the spectrum comes within {d_out!r}"
        )
    gamma = Contour(center=center, radius=radius)
    gamma.validate_against(w_star_unit * f)
    expected = ghi - glo + 1
    g = gamma.scaled(f)
    for t_probe, A in zip(times, mats):
        count = g.inertia_count(A, family.tol)
        if count != expected:
            raise RankDriftError(
                f"rank drift: contour around {center!r} encloses {count} eigenvalues "
                f"at t={t_probe!r}, expected {expected}"
            )


@dataclass(frozen=True)
class _PendingEvent:
    grid_span: tuple[int, int]
    slots: tuple[int, ...]
    report: MatchReport            # holds t* and the pairing


def _match_group(family: HermitianFamily, t_star: float, slots: tuple[int, ...],
                 order: int) -> MatchReport:
    want_second = order == 2
    dl, sl = one_sided_slot_derivatives(family, t_star, slots, "left", second=want_second)
    dr, sr = one_sided_slot_derivatives(family, t_star, slots, "right", second=want_second)
    return match_crossing(dl, dr, order=order, second_left=sl, second_right=sr,
                          tol=family.tol, t_star=t_star)


def _grid_events(family: HermitianFamily, grid: np.ndarray, values_unit: np.ndarray,
                 order: int) -> list[_PendingEvent]:
    scale = max(1.0, float(np.max(np.abs(values_unit))))
    threshold = family.tol.cluster_tol * scale
    dt = float(grid[1] - grid[0]) if grid.shape[0] > 1 else 1.0
    events: list[_PendingEvent] = []
    for det in _detect(values_unit, threshold):
        t_star, w_star = _refine_t_star(family, grid, det)
        tight = np.diff(w_star) < threshold
        # membership must be decidable: the detected cluster cannot be merging
        # into its neighbors at the refined collision point
        if any(tight[i] for i in (det.lo - 1, det.hi) if 0 <= i < tight.size):
            raise GapCollapseError(
                f"gap collapse unresolved near t={t_star!r}: cluster membership is "
                f"ambiguous at this grid resolution, refine the grid"
            )
        for glo, ghi in _tight_runs(tight[det.lo:det.hi]):
            slots = tuple(range(det.lo + glo, det.lo + ghi + 1))
            _verify_window(family, t_star, w_star, slots[0], slots[-1], dt)
            events.append(_PendingEvent(
                grid_span=(det.k_start, det.k_end), slots=slots,
                report=_match_group(family, t_star, slots, order),
            ))
    return events


def _assemble(grid: np.ndarray, values_true: np.ndarray,
              pending: list[_PendingEvent]) -> tuple[np.ndarray, tuple[CrossingEvent, ...]]:
    """Apply the events in order of t*; slot_of[j] is the slot branch j occupies."""
    slot_of = np.arange(values_true.shape[1])
    out = np.empty_like(values_true)
    finished: list[CrossingEvent] = []
    k = 0
    for ev in sorted(pending, key=lambda e: e.report.t_star):
        # rows up to t_star keep the permutation before this event; events
        # at or beyond the last grid point are still reported
        stop = int(np.searchsorted(grid, ev.report.t_star, side="right"))
        out[k:stop] = values_true[k:stop, slot_of]
        k = stop
        slots = np.array(ev.slots)
        move = np.arange(slot_of.shape[0])
        left, right = np.array(ev.report.pairing).T
        move[slots[left]] = slots[right]
        finished.append(CrossingEvent(
            t_star=ev.report.t_star, grid_span=ev.grid_span, slots=ev.slots,
            labels=tuple(np.argsort(slot_of)[slots].tolist()),
            sigma=tuple(move[slots].tolist()), report=ev.report,
        ))
        slot_of = move[slot_of]
    out[k:] = values_true[k:, slot_of]
    return out, tuple(finished)


@_one_blas_thread
def track_branches(family: HermitianFamily, t_range, grid_size: int,
                   order: int = 1) -> BranchSet:
    """Track all eigenvalue branches of the family over t_range.

    Eigensolves run per grid point; collisions are matched so each output
    column has one-sided derivatives that agree across every crossing within
    the matching residual.
    """
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not (t0 < t1 and math.isfinite(t1 - t0)):
        raise ValueError(f"t_range must satisfy t0 < t1 with a finite span, got ({t0}, {t1})")
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    grid = np.linspace(t0, t1, grid_size)
    values_unit = np.array([_unit_eig(family, t)[0] for t in grid])
    pending = _grid_events(family, grid, values_unit, order)
    values_true = values_unit * family.scale_prefactor
    matched, events = _assemble(grid, values_true, pending)
    return BranchSet(grid=grid, values=matched, crossings=events, order=order,
                     family_name=family.name)


@dataclass(frozen=True)
class GronwallReport:
    """Outcome of the pairwise growth screen |dL| <= (1+|L2|)(e^{a dt}-1)."""

    a: float
    passed: bool
    pairs_checked: int
    worst_margin: float
    violations: tuple[tuple[int, int, int, float, float], ...]  # (branch, k1, k2, lhs, rhs)


def gronwall_screen(grid, values, a: float) -> GronwallReport:
    """Check every ordered grid pair on every branch against the growth bound.

    Strict comparison, no slack: a pair fails exactly when
    |v(t1) - v(t2)| > (1 + |v(t2)|) * (e^{a |t1-t2|} - 1).

    All pairs are compared at once, so each branch allocates about five
    rows x rows float64 arrays (growth, |dv|, the bound, the margin and its
    off-diagonal entries) plus boolean masks, freed before the next branch.
    """
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    # written so that a = NaN fails the test
    if not 0.0 < a < np.inf:
        raise ValueError(f"growth constant a must be positive and finite, got {a}")
    if grid.ndim != 1 or values.ndim != 2 or values.shape[0] != grid.shape[0]:
        raise ValueError(f"need a 1-D grid and one row of values per grid point, "
                         f"got grid {grid.shape} and values {values.shape}")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise ValueError("grid and values must be finite")
    rows, m = values.shape
    # past a |dt| of about 709.78 the growth is +inf, and so is the bound
    # (sooner, where 1 + |v| is large): such a pair passes, as it should, so
    # the overflow is no error
    with np.errstate(over="ignore"):
        growth = np.expm1(a * np.abs(grid[:, None] - grid[None, :]))
    off_diag = ~np.eye(rows, dtype=bool)
    violations: list[tuple[int, int, int, float, float]] = []
    worst = np.inf
    total = 0
    for j in range(m):
        v = values[:, j]
        lhs = np.abs(v[:, None] - v[None, :])
        with np.errstate(over="ignore"):
            rhs = (1.0 + np.abs(v)[None, :]) * growth
        margin = rhs - lhs
        worst = min(worst, float(np.min(margin[off_diag], initial=np.inf)))
        total += int(np.count_nonzero(off_diag))
        bad = np.argwhere((lhs > rhs) & off_diag)
        for k1, k2 in bad[:20]:
            violations.append((j, int(k1), int(k2), float(lhs[k1, k2]), float(rhs[k1, k2])))
    return GronwallReport(
        a=float(a), passed=not violations, pairs_checked=total,
        worst_margin=float(worst), violations=tuple(violations[:20]),
    )


# The screen in estimate_derivative_bound skips a point only when an upper
# bound on its SVD norm s is at most a norm already taken.  The SVD is of
# X = fl(A' fl(V F V^H)), F = diag(f), f = (1 + w^2)^{-1/2}.  The bound
# splits V's columns into a head H, where f_k >= _SCREEN_HEAD max f, and a
# tail T, the rest.  Its estimate e = sqrt(lambda_max(Y^H Y)) is of
# Y = fl(A' fl(V_H F_H)), the head of the same product without V^H, and the
# tail gets b = alpha max_T f, where alpha = sqrt(||A'||_1 ||A'||_inf) is
# computed from |A'| in O(m^2).  With u = 2^-53 and g = ||V^H V - I||_F <=
# eig_tol m, which the eigensolver checks:
#
#   s <= sigma_max(X) (1 + O(m u))            backward-stable SVD
#   sigma_max(X) <= ||A' V F V^H|| + ||dX||
#   ||A' V F V^H|| <= ||A' V F|| ||V|| <= ||A' V F|| sqrt(1 + g)
#   ||A' V F||^2 <= ||A' V_H F_H||^2 + ||A' V_T F_T||^2
#   ||A' V_H F_H|| <= sigma_max(Y) + ||dY||
#   sigma_max(Y) <= e (1 + O(m^2 u))
#   ||A' V_T F_T|| <= ||A'||_2 ||V|| max_T f <= b (1 + O(m u)) sqrt(1 + g)
#
# The split holds because [P Q][P Q]^H = P P^H + Q Q^H, and ||A'||_2 <=
# sqrt(||A'||_1 ||A'||_inf) (Golub & Van Loan, Matrix Computations, 4th ed.,
# 2013, sec. 2.3).  alpha's rounding is O(m u) relative: each |a_ij| is
# within an ulp, and a column or row sum of m nonnegative terms within
# gamma_m.  Since hypot(p + r, q) <= hypot(p, q) + r, the rounding ||dY||
# stays an additive term, and the two factors sqrt(1 + g), of the tail and
# of V^H, multiply to 1 + g <= 1 + eig_tol m.  With T empty the tail is 0
# and the bound is that of the whole of Y.
#
# The line on sigma_max(Y) holds because forming Y^H Y errs by at most
# gamma_m ||Y||_F^2 <= m gamma_m ||Y||_2^2 (Higham, Accuracy and Stability
# of Numerical Algorithms, 2nd ed., 2002, sec. 3.5) and eigvalsh is backward
# stable, so by Weyl's inequality lambda_max moves by O(m^2 u) relative.
# The relative terms stay below _SCREEN_SLACK up to m of about 9000, and
# max(_SCREEN_SLACK, m^2 u) past it; g is covered by eig_tol m.  The
# rounding of the products is relative to ||A'|| ||F||, not to ||X||.  A
# complex product errs entrywise by at most sqrt(2) gamma_{m+2} |A| |B|
# (sec. 3.6), and ||V||_F^2 <= m (1 + g), ||F||_F <= sqrt(m) max f,
# ||A'||_2 <= ||A'||_F, so
#
#   ||dY|| <= sqrt(2) gamma_{m+3} sqrt(m) (1 + g) ||A'||_F max f
#   ||dX|| <= sqrt(2) gamma_{m+3} (m + sqrt(m)) (1 + g) ||A'||_F max f
#
# whose sum is below 4 (m + 2)^2 u ||A'||_F max f.  That term dominates when
# A' is large only where F is small: a derivative of 1e10 along an
# eigenvector with eigenvalue 1e12 adds 1e-2 to X but 1e10 to ||A'||.  So a
# point's bound is hypot(e, b) (1 + slack + eig_tol m)
# + 4 (m + 2)^2 u ||A'||_F max f.
#
# For a Schrodinger family f_k / f_1 falls like 1 / k^2, so the head at
# 2^-10 keeps k up to about 2^5: at m = 99, Y is m x K with K of 33 or 34,
# and its Gram K x K.
_SCREEN_SLACK = 1e-8
_SCREEN_HEAD = 2.0**-10


def _damped_derivative(family: HermitianFamily, t: float, side: str | None) -> np.ndarray:
    """X = A'(t) (I + A(t)^2)^{-1/2} at true scale, A' by family.derivative(t, side).

    V F V^H is formed from (w, V) as _unit_eig returns them.  Its value does
    not depend on V's column phases; its last bits do, and so may the last
    bits of the SVD norm taken of X.
    """
    w, V = _unit_eig(family, t)
    w = w * family.scale_prefactor
    damp = (V * (1.0 / np.sqrt(1.0 + w**2))) @ V.conj().T
    return family.derivative(t, side) @ damp


def _norm_estimate(Y: np.ndarray) -> float:
    """sqrt(lambda_max(Y^H Y)), the largest singular value up to O(m^2 u).

    Z = Y 2^-k has its largest entry in [1/2, 1): the power of two is exact,
    and Z^H Z then neither underflows nor overflows (gallery entries reach
    2^-144).  k stays above -1022 so that 2^-k is finite.
    """
    k = max(math.frexp(float(np.max(np.abs(Y))))[1], -1021)
    Z = Y * math.ldexp(1.0, -k)
    lam = float(np.linalg.eigvalsh(Z.conj().T @ Z)[-1])
    return math.ldexp(math.sqrt(max(lam, 0.0)), k)


def _screen_bound(family: HermitianFamily, t: float, side: str | None) -> float:
    """Upper bound on the SVD norm of _damped_derivative(family, t, side).

    It bounds Y = A'(t) V F, not X = Y V^H: with V unitary both have the
    same singular values whatever V's column phases.  V is _unit_eig's, the
    same as _damped_derivative's.  The head columns, where f is at least
    _SCREEN_HEAD max f, get the Gram estimate of A'(t) V_H F_H; the tail
    columns get sqrt(||A'||_1 ||A'||_inf) max_T f, which needs no product,
    and the two combine as hypot(head, tail).  Y is real when V and A'(t)
    are.  The terms of the bound are derived above _SCREEN_SLACK.
    """
    w, V = _unit_eig(family, t)
    w = w * family.scale_prefactor
    f = 1.0 / np.sqrt(1.0 + w**2)
    Ad = family.derivative(t, side)
    if not np.iscomplexobj(V) and not np.any(Ad.imag):
        Ad = np.ascontiguousarray(Ad.real)
    m = family.dim
    slack = max(_SCREEN_SLACK, m * m * 2.0**-53) + family.tol.eig_tol * m
    rounding = 4.0 * (m + 2) ** 2 * 2.0**-53 * _frobenius(Ad) * float(np.max(f))
    head = f >= _SCREEN_HEAD * float(np.max(f))
    estimate = _norm_estimate(Ad @ (V[:, head] * f[head]))
    if not head.all():
        absd = np.abs(Ad)
        norm_1, norm_inf = float(np.max(absd.sum(axis=0))), float(np.max(absd.sum(axis=1)))
        tail = math.sqrt(norm_1) * math.sqrt(norm_inf) * float(np.max(f[~head]))
        estimate = math.hypot(estimate, tail)
    return estimate * (1.0 + slack) + rounding


@_one_blas_thread
def estimate_derivative_bound(family: HermitianFamily, grid) -> float:
    """max over the grid of ||A'(t) (I + A(t)^2)^{-1/2}||, the growth constant.

    Pointwise this bounds |lambda'| <= C (1 + |lambda|): the slope is a
    Rayleigh quotient of A'(t) at a unit eigenvector, and (I + A^2)^{1/2}
    stretches that eigenvector by sqrt(1 + lambda^2) <= 1 + |lambda|.

    A cheap upper bound on each point's norm orders the points; exact SVD
    norms are then taken, largest bound first, until no remaining bound can
    exceed the running maximum.  The maximum does not depend on the order,
    so the result equals the maximum of every point's SVD norm.

    A finite-difference A' is one-sided, pointing into the grid, within
    2 h_fd max(1, |t|) of either end: the family is evaluated only between
    the grid's least and greatest points.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError(f"grid must be a non-empty 1-D array of finite values, "
                         f"got shape {grid.shape}")
    ts = [float(t) for t in grid]
    reach = 2.0 * family.tol.h_fd * np.maximum(1.0, np.abs(grid))
    lo, hi = grid.min(), grid.max()
    sides = ["right" if t - r < lo else "left" if t + r > hi else None
             for t, r in zip(ts, reach)]
    bounds = np.array([_screen_bound(family, t, side) for t, side in zip(ts, sides)])
    best = 0.0
    for n, i in enumerate(np.argsort(-bounds, kind="stable")):
        if n and bounds[i] <= best:
            break
        # recomputed rather than kept: 201 products at m = 99 hold 31 MB
        best = max(best, operator_norm(_damped_derivative(family, ts[i], sides[i])))
    return best


def _grid_slot_derivatives(comp: np.ndarray, k_star: int, slots, side: str, dt: float,
                           second: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Stencils over up to five rows from k_star outward; zeros where too few rows."""
    rows = (np.arange(k_star, -1, -1) if side == "left" else np.arange(k_star, comp.shape[0]))[:5]
    samples = comp[rows][:, list(slots)]
    n = samples.shape[0]
    first = one_sided_first(samples, dt, side) if n >= 2 else np.zeros(len(slots))
    if not second:
        return first, None
    return first, one_sided_second(samples, dt) if n >= 3 else np.zeros(len(slots))


def extend_parameterization(branches: BranchSet, mu_partial, order: int = 1,
                            tol: Tolerances | None = None) -> np.ndarray:
    """Complete k given branches to the full eigenvalue multiset per grid point.

    At every grid point each given value must sit within cluster_tol of a
    still-unclaimed eigenvalue (the counting condition); the complement
    values are then glued across their own crossings with the same matching
    rule as track_branches, using grid-spacing difference stencils (the
    complement is only known on the grid).  Returns the (rows, N-k) matrix of
    completing branches.
    """
    tol = tol if tol is not None else DEFAULT_TOL
    grid = branches.grid
    values = branches.values
    rows, m = values.shape
    mu = np.asarray(mu_partial, dtype=np.float64)
    if mu.ndim == 1:
        mu = mu[:, None] if mu.size == rows else mu.reshape(rows, -1)
    if mu.shape[0] != rows:
        raise ValueError(f"given branches have {mu.shape[0]} rows, grid has {rows}")
    k = mu.shape[1]
    if k > m:
        raise CountingError(f"more given branches ({k}) than eigenvalues ({m})")
    scale = max(1.0, float(np.max(np.abs(values))))
    comp = np.empty((rows, m - k))
    for r in range(rows):
        remaining = np.sort(values[r])
        for j in range(k):
            z = float(mu[r, j])
            remaining, dist = remove_nearest(remaining, z)
            if dist > tol.cluster_tol * scale:
                raise CountingError(
                    f"counting condition violated at t={float(grid[r])!r}, z={z!r}: "
                    f"nearest unclaimed eigenvalue is {dist:.3e} away"
                )
        comp[r] = remaining
    if comp.shape[1] == 0 or rows < 2:
        return comp
    dt = float(grid[1] - grid[0])
    threshold = tol.cluster_tol * scale
    want_second = order == 2
    pending: list[_PendingEvent] = []
    for det in _detect(comp, threshold):
        spreads = comp[det.k_start:det.k_end + 1, det.hi] - comp[det.k_start:det.k_end + 1, det.lo]
        k_star = det.k_start + int(np.argmin(spreads))
        for glo, ghi in _tight_runs(np.diff(comp[k_star, det.lo:det.hi + 1]) < threshold):
            slots = tuple(range(det.lo + glo, det.lo + ghi + 1))
            dl, sl = _grid_slot_derivatives(comp, k_star, slots, "left", dt, want_second)
            dr, sr = _grid_slot_derivatives(comp, k_star, slots, "right", dt, want_second)
            report = match_crossing(dl, dr, order=order, second_left=sl, second_right=sr,
                                    tol=tol, t_star=float(grid[k_star]))
            pending.append(_PendingEvent((det.k_start, det.k_end), slots, report))
    glued, _ = _assemble(grid, comp, pending)
    return glued
