"""Differentiable eigenvalue-branch tracking through crossings.

The sorted eigenvalue curves of a Hermitian family are continuous but kink
where branches cross.  This module detects the collisions on a grid, refines
the collision parameter, estimates one-sided derivatives of the colliding
slots from both sides, pairs them by sorted order (curvature-refined at
order 2), and applies the resulting permutation so each output column is a
differentiable branch.  Each collision is verified by exact Sturm counts at
a circle's real endpoints, on the (d, e) of the values solves over a probe
window: the circle must enclose the same number of eigenvalues at each time.

Collision detection and stencil arithmetic run at the family's unit scale so
tiny overall prefactors do not collapse every gap below the detection
threshold; reported values and derivatives are exact rescalings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .contour import Contour, _enclosed_count
from .errors import CountingError, GapCollapseError, RankDriftError
from .families import HermitianFamily
from .linalg import (DEFAULT_TOL, Tolerances, _band, _checked_tridiagonal, _frobenius,
                     _one_blas_thread, _psd_certified, _tridiagonal_form, dense_eig,
                     operator_norm, tridiagonal_eig)
from .util import one_sided_first, one_sided_second, remove_nearest

_SIDES = ("left", "right")
# Order-2 stencil step over max(1, |t*|): wider than h_fd, as rounding grows as 1/h^2.
_H_FD2 = 1e-4


def _read_unit(family: HermitianFamily, t: float) -> tuple:
    """A(t) at unit scale, the only read of the family in this module, checked
    here once (the eigensolvers do not check again): its own (d, e), by
    _checked_tridiagonal and held to family.dim, else (family.unit(t), None)."""
    if family.tridiagonal is not None:
        d, e = _checked_tridiagonal(*family.tridiagonal(float(t)), family.tol)
        if d.size != family.dim:
            raise ValueError(f"family {family.name!r} produced a tridiagonal of lengths "
                             f"{d.size} and {e.size}, expected {family.dim} and {family.dim - 1}")
        return d, e
    return family.unit(t), None


def _read_derivative(family: HermitianFamily, t: float, side: str | None) -> tuple:
    """A'(t) at true scale as _clears takes it: the family's own checked
    bands (dd, de), else (family.derivative(t, side), None)."""
    if family.tridiagonal_deriv is not None:
        return family.derivative_bands(t)
    return family.derivative(t, side), None


def _unit_form(family: HermitianFamily, unit: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of unit = _read_unit(family, t): its own, or dense_eig's of the matrix."""
    return unit if unit[1] is not None else _tridiagonal_form(unit[0], family.tol)


def _eigenpairs(family: HermitianFamily, unit: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) of unit = _read_unit(family, t): tridiagonal_eig on (d, e), else dense_eig."""
    x, e = unit
    return dense_eig(x, family.tol) if e is None else tridiagonal_eig(x, e, family.tol)


@dataclass(frozen=True)
class _Solve:
    """A values solve at t: unit-scale (d, e) and w, _eigenpairs' w without V."""

    t: float
    d: np.ndarray
    e: np.ndarray
    w: np.ndarray


def _solve(family: HermitianFamily, t: float) -> _Solve:
    """The tracker's only values solve: one read of A(t), one reduction."""
    d, e = _unit_form(family, _read_unit(family, t))
    return _Solve(t, d, e, tridiagonal_eig(d, e, family.tol)[0])


def sorted_eigenvalues(family: HermitianFamily, t: float) -> np.ndarray:
    """Ascending true-scale eigenvalues of A(t)."""
    return _solve(family, t).w * family.scale_prefactor


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

    Fresh eigensolves at t_star and four stencil points per step on the
    requested side; returns (first, second) true-scale arrays over ``slots``
    (second is None unless requested).  Probes may leave any grid of
    interest; families are total.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    slots = list(slots)
    if not all(isinstance(s, (int, np.integer)) and 0 <= s < family.dim for s in slots):
        raise ValueError(f"slots must be integers in [0, {family.dim}), got {slots}")
    return _slot_derivatives(family, _solve(family, t_star), slots, side, second)


def _slot_derivatives(family: HermitianFamily, star: _Solve, slots: list[int], side: str,
                      second: bool):
    """one_sided_slot_derivatives at star.t with star.w, the solve there, as
    every stencil's j = 0 sample; ``slots`` is a list."""
    sgn = 1.0 if side == "right" else -1.0

    def samples(h: float) -> np.ndarray:
        return np.stack([star.w[slots]] + [_solve(family, star.t + sgn * j * h).w[slots]
                                           for j in range(1, 5)])

    f = family.scale_prefactor
    h1 = family.tol.h_fd * max(1.0, abs(star.t))
    first = one_sided_first(samples(h1), h1, side) * f
    if not second:
        return first, None
    h2 = _H_FD2 * max(1.0, abs(star.t))
    return first, one_sided_second(samples(h2), h2) * f


def one_sided_derivatives(family: HermitianFamily, t_star: float, gamma: Contour,
                          side: str = "right") -> np.ndarray:
    """Eigenvalues of the compressed operator P A'(t*) P on range P, ascending.

    These are the one-sided derivatives (from either side) of the branches
    colliding inside gamma at t_star; one eigensolve's eigenvectors there span
    range P.  Their count must equal the Sturm count in gamma at t_star and
    at two probes on the requested side; a change means the box is too large.
    """
    if side not in _SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    sgn = 1.0 if side == "right" else -1.0
    g = gamma.scaled(family.scale_prefactor)
    unit = _read_unit(family, t_star)
    w, V = _eigenpairs(family, unit)
    F = V[:, np.abs(w - g.center) < g.radius]
    N = F.shape[1]
    h = family.tol.h_fd * max(1.0, abs(t_star))
    for j in (0, 1, 2):
        t = t_star + sgn * j * h
        count = _enclosed_count(g, *_unit_form(family, _read_unit(family, t) if j else unit))
        if count != N:
            raise RankDriftError(
                f"box too large: contour encloses {N} eigenvalues at t={t_star!r} "
                f"but {count} at t={t!r}"
            )
    if N == 0:
        return np.zeros(0)
    C = F.conj().T @ family.derivative(t_star, side) @ F
    C = 0.5 * (C + C.conj().T)
    return dense_eig(C, family.tol)[0]


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


def _refine_t_star(family: HermitianFamily, grid: np.ndarray, det: _Detection) -> _Solve:
    """The minimizer's own solve at t*, the parameter of minimal cluster
    spread inside the detection box."""
    a = float(grid[max(det.k_start - 1, 0)])
    b = float(grid[min(det.k_end + 1, grid.shape[0] - 1)])
    solved: dict[float, _Solve] = {}

    def spread(t: float) -> float:
        s = solved[t] = _solve(family, t)
        return float(s.w[det.hi] - s.w[det.lo])

    return solved[minimize_scalar(spread, a, b, 1e-10 * max(1.0, abs(a), abs(b)))]


_PROBE_OFFSETS = (-3.0, -1.5, 1.5, 3.0)  # units of the grid step


def _verify_window(family: HermitianFamily, star: _Solve, glo: int, ghi: int, dt: float) -> None:
    """Check a circle about the value group [glo, ghi]; nothing is kept.

    The radius must cover the cluster's drift across the probe box (3 grid
    steps each side of t*) while keeping the rest of the spectrum outside, so
    it is sized from solves at the probe times; the probe at t* is star, so
    A(t*) is not read or reduced again.  That rule keeps the circle clear of
    the spectrum at t* (the group lies at least 0.23 r inside it, the rest at
    least 0.33 r outside), and its Sturm count on each probe's (d, e) is the
    group's size.
    """
    f = family.scale_prefactor
    center = float(np.mean(star.w[glo:ghi + 1])) * f
    probes = [star] + [_solve(family, star.t + off * dt) for off in _PROBE_OFFSETS]
    values = [p.w * f for p in probes]
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
    expected = ghi - glo + 1
    g = Contour(center=center, radius=radius).scaled(f)
    for p in probes:
        count = _enclosed_count(g, p.d, p.e)
        if count != expected:
            raise RankDriftError(
                f"rank drift: contour around {center!r} encloses {count} eigenvalues "
                f"at t={p.t!r}, expected {expected}"
            )


@dataclass(frozen=True)
class _PendingEvent:
    grid_span: tuple[int, int]
    slots: tuple[int, ...]
    report: MatchReport            # holds t* and the pairing


def _grid_events(family: HermitianFamily, grid: np.ndarray, values_unit: np.ndarray,
                 order: int) -> list[_PendingEvent]:
    scale = max(1.0, float(np.max(np.abs(values_unit))))
    threshold = family.tol.cluster_tol * scale
    dt = float(grid[1] - grid[0])
    events: list[_PendingEvent] = []
    for det in _detect(values_unit, threshold):
        star = _refine_t_star(family, grid, det)
        tight = np.diff(star.w) < threshold
        # membership must be decidable: the detected cluster cannot be merging
        # into its neighbors at the refined collision point
        if any(tight[i] for i in (det.lo - 1, det.hi) if 0 <= i < tight.size):
            raise GapCollapseError(
                f"gap collapse unresolved near t={star.t!r}: cluster membership is "
                f"ambiguous at this grid resolution, refine the grid"
            )
        for glo, ghi in _tight_runs(tight[det.lo:det.hi]):
            slots = list(range(det.lo + glo, det.lo + ghi + 1))
            _verify_window(family, star, slots[0], slots[-1], dt)
            dl, sl = _slot_derivatives(family, star, slots, "left", order == 2)
            dr, sr = _slot_derivatives(family, star, slots, "right", order == 2)
            events.append(_PendingEvent(
                grid_span=(det.k_start, det.k_end), slots=tuple(slots),
                report=match_crossing(dl, dr, order=order, second_left=sl, second_right=sr,
                                      tol=family.tol, t_star=star.t),
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
    values_unit = np.array([_solve(family, t).w for t in grid])
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
# tail T, the rest.  Its estimate e is the largest singular value, by the
# same SVD, of Y = fl(A' fl(V_H F_H)), the head of the same product without
# V^H, and the tail gets b = alpha max_T f, where alpha =
# sqrt(||A'||_1 ||A'||_inf) is computed from |A'| in O(m^2).  With
# u = 2^-53 and g = ||V^H V - I||_F <= eig_tol m, which the eigensolver
# checks:
#
#   s <= sigma_max(X) (1 + O(m u))            backward-stable SVD
#   sigma_max(X) <= ||A' V F V^H|| + ||dX||
#   ||A' V F V^H|| <= ||A' V F|| ||V|| <= ||A' V F|| sqrt(1 + g)
#   ||A' V F||^2 <= ||A' V_H F_H||^2 + ||A' V_T F_T||^2
#   ||A' V_H F_H|| <= sigma_max(Y) + ||dY||
#   sigma_max(Y) <= e (1 + O(m u))            the same SVD, of Y
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
# The SVD is LAPACK's gesdd (numpy's svd), which puts every singular value
# within O(m u) of the largest (LAPACK Users' Guide, 3rd ed., 1999, sec.
# 4.9) and scales a matrix whose entries would underflow or overflow.  The
# relative terms are thus O(m u), inside max(_SCREEN_SLACK, m^2 u); g is
# covered by eig_tol m.  The rounding of the products is relative to
# ||A'|| ||F||, not to ||X||.  A complex product errs entrywise by at most
# sqrt(2) gamma_{m+2} |A| |B| (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., 2002, sec. 3.6), and ||V||_F^2 <= m (1 + g),
# ||F||_F <= sqrt(m) max f, ||A'||_2 <= ||A'||_F, so
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
# 2^-10 keeps k up to about 2^5: at m = 99, Y is m x K with K of 33 or 34.
#
# Read downward, with sigma_min(V) >= sqrt(1 - g) and Y_H a block of A' V F,
# the chain gives the lower bound max(0, e (1 - slack) - rounding).
#
# The certificate (_clears) needs no eigensolve.  Take any (w, V) that the
# eigensolver accepts for the H = p H_u it solves (p the prefactor; H_u is
# T(d, e) with d real, or A as the check hands it on), R = H V - V W with
# ||R|| <= r = p (eig_tol + (m + 2)^2 u) max(1, ||H_u||_F), the check and
# its rounding, and G = V^H V - I:
#
#   F (V^H V + (HV)^H HV) F = F (I + W^2) F + F (G + W G W) F
#                             + F (W V^H R + R^H V W) F + F R^H R F,
#
# of norm at most (sqrt(1 + g) + r max f)^2 ([F; W F] has orthonormal
# columns up to f's rounding).  So A'^H A' <= c^2 (I + H^2) gives ||A' V F||
# <= c (sqrt(1 + g) + r max f), and with max f <= 1 the chain gives s <= c
# (1 + slack) (1 + r) + 4 (m + 2)^2 u ||A'||_F, the threshold less 2^-40.
# _psd_certified decides M = c^2 I + (c H)^2 - A'^H A' >= 0, A' and c
# scaled by the power of two that puts A''s largest entry in [1/2, 1), c
# capped at 2^480 (a lower c proves a lower threshold).  M's entries are
# sums of at most n real products: n = m for dense products, and n = 9 in
# O(m) for a tridiagonal H and an A' given as bands (dd, de), where M is
# pentadiagonal and a diagonal entry sums (c H)_ii^2, two (c H)_i,i+-1^2,
# dd_i^2, two |de|^2 of two products each, and c^2.  So they err by at
# most 2 (n + 8) u (c^2 I + |cH| |cH| + |A'|^T |A'|); underflow adds
# 2^-1074 an entry, inside that once c^2 > 2^-960.  A cleared point runs no
# eigensolver, so it raises no EigenConvergenceError.
_SCREEN_SLACK = 1e-8
_SCREEN_HEAD = 2.0**-10


def _damped_derivative(family: HermitianFamily, t: float, side: str | None) -> np.ndarray:
    """X = A'(t) (I + A(t)^2)^{-1/2} at true scale, A' by family.derivative(t, side).

    V F V^H is formed from (w, V) as _eigenpairs returns them.  Its value
    does not depend on V's column phases; its last bits do, and so may the
    last bits of the SVD norm taken of X.
    """
    w, V = _eigenpairs(family, _read_unit(family, t))
    w = w * family.scale_prefactor
    damp = (V * (1.0 / np.sqrt(1.0 + w**2))) @ V.conj().T
    return family.derivative(t, side) @ damp


def _norm_estimate(Y: np.ndarray) -> float:
    """The largest singular value of Y by LAPACK gesdd, up to O(m u)."""
    return float(np.linalg.svd(Y, compute_uv=False)[0])


def _screen_terms(family: HermitianFamily, norm_fro: float,
                  fmax: float) -> tuple[float, float]:
    """The chain's slack and rounding 4 (m + 2)^2 u ||A'||_F max f (above
    _SCREEN_SLACK), norm_fro = ||A'||_F."""
    m = family.dim
    return (max(_SCREEN_SLACK, m * m * 2.0**-53) + family.tol.eig_tol * m,
            4.0 * (m + 2) ** 2 * 2.0**-53 * norm_fro * fmax)


def _screen_bound(family: HermitianFamily, unit: tuple, Ad: np.ndarray) -> tuple[float, float]:
    """Lower and upper bounds on ||_damped_derivative(family, t, side)||, unit =
    _read_unit(family, t) and Ad its A'.

    It bounds Y = A'(t) V F, not X = Y V^H: with V unitary both have the
    same singular values whatever V's column phases.  V is _eigenpairs', the
    same as _damped_derivative's.  The head columns, where f is at least
    _SCREEN_HEAD max f, get the largest singular value of A'(t) V_H F_H by
    SVD; the tail columns get sqrt(||A'||_1 ||A'||_inf) max_T f, which needs
    no product, and the two combine as hypot(head, tail); the lower bound is
    the head's.  Y is real when V and A'(t) are.  The bounds are derived
    above _SCREEN_SLACK.
    """
    w, V = _eigenpairs(family, unit)
    w = w * family.scale_prefactor
    f = 1.0 / np.sqrt(1.0 + w**2)
    if not np.iscomplexobj(V) and not np.any(Ad.imag):
        Ad = np.ascontiguousarray(Ad.real)
    slack, rounding = _screen_terms(family, _frobenius(Ad), float(np.max(f)))
    head = f >= _SCREEN_HEAD * float(np.max(f))
    estimate = _norm_estimate(Ad @ (V[:, head] * f[head]))
    lower = max(0.0, estimate * (1.0 - slack) - rounding)
    if not head.all():
        absd = np.abs(Ad)
        norm_1, norm_inf = float(np.max(absd.sum(axis=0))), float(np.max(absd.sum(axis=1)))
        tail = math.sqrt(norm_1) * math.sqrt(norm_inf) * float(np.max(f[~head]))
        estimate = math.hypot(estimate, tail)
    return lower, estimate * (1.0 + slack) + rounding


def _tridiagonal_product(bands: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """T x for the symmetric tridiagonal T with bands = (diagonal, off-diagonal)."""
    d, e = bands
    y = d * x
    y[1:] += e * x[:-1]
    y[:-1] += e * x[1:]
    return y


def _clears(family: HermitianFamily, unit: tuple, deriv: tuple, threshold: float) -> bool:
    """True only if ||_damped_derivative(family, t, side)|| <= threshold is
    proved with no eigensolve (derived above _SCREEN_SLACK), unit =
    _read_unit(family, t) and deriv = _read_derivative(family, t, side)."""
    tol, m, p = family.tol, family.dim, family.scale_prefactor
    d, e = unit
    # as in unit, dd is the dense A' where de is None
    dd, de = deriv
    amax = float(np.abs(dd).max() if de is None else
                 max(np.abs(dd).max(), np.abs(de).max(initial=0.0)))
    if amax == 0.0:
        return threshold >= 0.0
    slack, rounding = _screen_terms(
        family, _frobenius(dd if de is None else np.concatenate([dd, de, de])), 1.0)
    # max(1, ||H_u||_F), the scale the eigensolver checks H_u against
    scale = max(1.0, _frobenius(d if e is None else np.concatenate([d, e, e])))
    r = p * scale * (tol.eig_tol + (m + 2) ** 2 * 2.0**-53)
    c = (threshold - rounding) / ((1.0 + slack) * (1.0 + r)) * (1.0 - 2.0**-40)
    k = max(math.frexp(amax)[1], -1021)
    c = math.ldexp(c, min(-k, 480 - math.frexp(c)[1]))
    if not c > 2.0**-480:
        return False
    s = math.ldexp(1.0, -k)
    if de is not None:
        # M = c^2 I + (c H)^2 - A'^2, pentadiagonal, from the bands of cH and A'
        hd, he, bd, be, n = c * p * d, c * p * e, dd * s, de * s, 9
        b2 = (be.conj() * be).real
        M = np.zeros((3, m), dtype=be.dtype)
        M[0] = hd * hd
        M[0, 1:] += he * he
        M[0, :-1] += he * he
        B0 = bd * bd
        B0[1:] += b2
        B0[:-1] += b2
        M[0] -= B0
        M[1, :-1] = he * (hd[:-1] + hd[1:]) - be.conj() * (bd[:-1] + bd[1:])
        M[2, :-2] = he[:-1] * he[1:] - (be[:-1] * be[1:]).conj()
        abs_h, abs_d = (np.abs(hd), np.abs(he)), (np.abs(bd), np.abs(be))

        def gram_err(x):
            return (_tridiagonal_product(abs_h, _tridiagonal_product(abs_h, x))
                    + _tridiagonal_product(abs_d, _tridiagonal_product(abs_d, x)))
    else:
        if e is None:
            H = c * p * d
            if not H.imag.any():
                H = H.real
        else:
            H = c * p * (np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        Ad = dd * s
        if not Ad.imag.any():
            Ad = Ad.real
        M = _band(H.conj().T @ H - Ad.conj().T @ Ad, m - 1)
        abs_h, abs_d, n = np.abs(H), np.abs(Ad), m

        def gram_err(x):
            return abs_h.T @ (abs_h @ x) + abs_d.T @ (abs_d @ x)
    M[0] += c * c
    return _psd_certified(M, lambda x: (n + 8) * 2.0**-52 * (c * c * x + gram_err(x)))


@_one_blas_thread
def estimate_derivative_bound(family: HermitianFamily, grid) -> float:
    """max over the grid of ||A'(t) (I + A(t)^2)^{-1/2}||, the growth constant.

    Pointwise this bounds |lambda'| <= C (1 + |lambda|): the slope is a
    Rayleigh quotient of A'(t) at a unit eigenvector, and (I + A^2)^{1/2}
    stretches that eigenvector by sqrt(1 + lambda^2) <= 1 + |lambda|.

    Coarse to fine, a point is cleared when one Cholesky of the graph-norm
    pencil c^2 (I + A^2) - A'^H A' proves its norm at most c, the largest
    lower bound so far; one eigensolve bounds each other point.  Exact SVD
    norms follow, largest upper bound first, until no remaining bound can
    exceed the running maximum, so the result is every point's maximum.

    A finite-difference A' is one-sided, pointing into the grid, within
    2 h_fd max(1, |t|) of either end.  Its stencil reaches 4 h_fd max(1, |t|)
    from t, so where the grid is at least 6 h_fd max(1, |t|) wide at each of
    its points t, the family is evaluated only between the grid's least and
    greatest points; a narrower grid is differenced outside itself.
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
    last = len(ts) - 1
    bounds, threshold = np.full(len(ts), -np.inf), -math.inf
    # coarse to fine: both ends, then each index by the largest power of two dividing it
    for i in [0, last][:len(ts)] + sorted(range(1, last), key=lambda i: -(i & -i)):
        # A(t) is read, and checked, before A'(t) is formed
        unit, deriv = _read_unit(family, ts[i]), _read_derivative(family, ts[i], sides[i])
        if not (threshold >= 0.0 and _clears(family, unit, deriv, threshold)):
            # the screen takes the dense A'; bands are placed in it only here
            Ad = deriv[0] if deriv[1] is None else family.derivative(ts[i], sides[i])
            lower, bounds[i] = _screen_bound(family, unit, Ad)
            threshold = max(threshold, lower)
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
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
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
