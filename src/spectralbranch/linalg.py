"""Dense complex Hermitian linear algebra used by every other module.

Matrices are plain numpy complex128 arrays; the helpers here add the contract
checks (Hermiticity, finiteness, residual bounds, pivot guards) that the rest
of the package relies on.  The Hermitian check runs once, where A(t) is
read: ``ensure_hermitian`` for a matrix, ``_checked_tridiagonal`` for bands.
It is the one place that decides what a matrix Hermitian only to
hermitian_tol stands for: the Hermitian matrix zhetrd reads, A's lower
triangle, its mirror and the real part of its diagonal (``_lower_hermitian``),
which is A itself, not copied, when A is exactly Hermitian; for bands, the
real part of d.  Every consumer works from what the check hands on, and the
eigensolvers do not check it again: their post-conditions (LAPACK's info,
the Frobenius tie, the residual bounds) refuse whatever the check refuses.
Every eigensolve is one kernel: zhetrd reduces A to a real tridiagonal
T = Q^H A Q (``_reduction``) and dstevd solves T.
``dense_eig`` forms Q from the reflectors and returns V = Q Z; a solve that
needs only w stops at (d, e) (``_tridiagonal_form``) and ``tridiagonal_eig``
solves it, with the same w, and ``_sturm_counts`` counts eigenvalues on the
same (d, e).  ``tridiagonal_eig`` also takes a tridiagonal family's own
(d, e), never formed dense.  Both return checked (w, V) as LAPACK gives
them: ascending eigenvalues, orthonormal eigenvectors with whatever phases
LAPACK left.  That is the only form: nothing the package reports depends on
a choice of eigenvector phase, and nothing rewrites V.
``_psd_certified`` proves a banded Hermitian matrix positive semidefinite,
rounding included, with one Cholesky.  The tracker's entry points run every
OpenBLAS pool on one thread (``_one_blas_thread``), because at their sizes
the pools' threads cost more CPU than the work they share.
``Tolerances`` lives here, in the lowest module that reads one.
"""
from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import math
import threading
import warnings
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.blas import dnrm2, dznrm2
from scipy.linalg.lapack import dpbtrf, dstevd, zhetrd, zhetrd_lwork, zpbtrf, zungqr

from .errors import EigenConvergenceError, NotHermitianError, SpectrumTouchError


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Numerical tolerances used across the package.

    All values are positive.  Relative scalings (what a tolerance is measured
    against) are documented where each tolerance is consumed.
    """

    hermitian_tol: float = 1e-10
    eig_tol: float = 1e-10
    proj_tol: float = 1e-10
    cluster_tol: float = 1e-6
    deriv_tie_tol: float = 1e-5
    h_fd: float = 1e-5
    max_nodes: int = 1024

    def replace(self, **overrides) -> "Tolerances":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOL = Tolerances()

# Relative distance at which a shift touches the spectrum (solve_shifted, _sturm_counts).
_PIVOT_FLOOR = 1e-13


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix."""
    A = np.asarray(a, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def _hermitian_defect(A: np.ndarray) -> float:
    """max_ij |a_ij - conj(a_ji)|, zero for exactly Hermitian input."""
    if A.size == 0:
        return 0.0
    return float(np.abs(A - A.conj().T).max())


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm by BLAS nrm2, inf or nan only for non-finite entries.

    nrm2 scales as it sums, where a plain sum of squares (np.linalg.norm)
    overflows once entries reach about 1.3e154.
    """
    if x.size == 0:
        return 0.0
    x = x.ravel(order="K")
    return float((dznrm2 if np.iscomplexobj(x) else dnrm2)(x))


def _hermitian_scale(norm: float, defect: Callable[[], float], tol: Tolerances) -> float:
    """The defect, once A is checked finite and its defect() within
    hermitian_tol x max(1, norm), norm = ||A||_F, else NotHermitianError;
    defect() is asked for only when the norm is finite."""
    if not math.isfinite(norm):
        raise NotHermitianError(f"matrix has non-finite entries: frobenius norm is {norm}")
    scale = max(1.0, norm)
    defect = defect()
    if defect > tol.hermitian_tol * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{tol.hermitian_tol:.1e} x max(1, frobenius) = {tol.hermitian_tol * scale:.3e}"
        )
    return defect


def _lower_hermitian(A: np.ndarray) -> np.ndarray:
    """The Hermitian matrix that zhetrd reduces for A: A's strictly lower
    triangle, its mirror above and the real part of A's diagonal."""
    m = A.shape[0]
    H = np.where(np.tri(m, k=-1, dtype=bool), A, A.conj().T)
    H.flat[::m + 1] = A.diagonal().real
    return H


def ensure_hermitian(A: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """The matrix that A stands for, checked finite and Hermitian to
    hermitian_tol x max(1, ||A||_F), else NotHermitianError.

    A stands for the Hermitian matrix zhetrd reads: A itself, not copied,
    where its defect is exactly 0, else _lower_hermitian(A).  Every consumer
    works from that matrix, so the eigensolves, the contour quadrature and
    the graph norms agree on it.
    """
    A = as_matrix(A)
    defect = _hermitian_scale(_frobenius(A), lambda: _hermitian_defect(A), tol)
    return A if defect == 0.0 else _lower_hermitian(A)


def _check_eigenpairs(resid: float, V: np.ndarray, scale: float, tol: Tolerances,
                      product: str) -> None:
    """Both eigensolvers' check: the reconstruction residual resid, the
    norm of product - VW ("AV" or "TV"), within eig_tol x scale, scale
    finite, and ||V^H V - I||_F within eig_tol x m, else
    EigenConvergenceError."""
    G = V.conj().T @ V
    G.flat[::G.shape[0] + 1] -= 1.0
    ortho = _frobenius(G)
    # written so that a NaN residual, or an infinite scale, fails the test
    if not (resid <= tol.eig_tol * scale < math.inf and ortho <= tol.eig_tol * V.shape[0]):
        raise EigenConvergenceError(
            f"eigendecomposition residuals too large: |{product}-VW|={resid:.3e}, "
            f"|V*V-I|={ortho:.3e}"
        )


def dense_eig(A, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and orthonormal eigenvectors V of Hermitian A.

    One reduction A = Q T Q^H (_reduction, zhetrd on the lower triangle),
    then (w, Z) of the real tridiagonal T by dstevd, as tridiagonal_eig
    solves it, and V = Q Z, with Q formed from the reflectors by zungqr on
    their trailing (m - 1) x (m - 1) block, which is LAPACK's zungtr for a
    lower reduction (Golub & Van Loan, Matrix Computations, 4th ed., 2013,
    sec. 8.3.1).  The values path, tridiagonal_eig(*_tridiagonal_form(A)),
    runs the same reduction and the same dstevd, so its w is this w.

    Precondition: A as the Hermitian check hands it on (ensure_hermitian,
    so family.unit and family.eval), or a product Hermitian by
    construction; it is not checked again.  What the check refuses is
    still refused, as EigenConvergenceError: a non-finite entry or a defect
    below the diagonal fails the reduction's Frobenius tie, and a defect
    above it or in its imaginary part fails the residual ||A V - V W||_F <=
    eig_tol x max(1, ||A||_F), of A as given, with the tie's norm.
    """
    m = A.shape[0]
    if m == 0:
        # scipy's zhetrd wrapper refuses an empty matrix
        return np.zeros(0), np.zeros((0, 0), dtype=np.complex128)
    c, d, e, tau, scale = _reduction(A, tol)
    w, Z = _dstevd(d, e)
    Q = np.eye(m, dtype=np.complex128)
    if m > 1:
        Q[1:, 1:] = zungqr(c[1:, :-1], tau, lwork=32 * (m - 1))[0]
    V = Q @ Z
    _check_eigenpairs(_frobenius(A @ V - V * w), V, scale, tol, "AV")
    return w, V


def _dstevd(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK dstevd's (w, Z) of the real tridiagonal (d, e), unchecked but
    for its info: divide and conquer (dstedc), QR below 26 rows."""
    # the wrapper wants at least one off-diagonal entry even at m = 1
    w, Z, info = dstevd(d, e if d.size > 1 else np.zeros(1), compute_v=1)
    if info != 0:
        raise EigenConvergenceError(f"eigensolver failed: dstevd returned info={info}")
    return w, Z


def _check_lengths(d: np.ndarray, e: np.ndarray) -> None:
    """ValueError unless d has length m >= 1 and e length m - 1."""
    if d.ndim != 1 or d.size == 0 or e.shape != (d.size - 1,):
        raise ValueError(f"need d of length m >= 1 and e of length m - 1, "
                         f"got {d.shape} and {e.shape}")


def tridiagonal_eig(d, e, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and real orthonormal eigenvectors V of the
    symmetric tridiagonal T with diagonal d and off-diagonal e, by dstevd.

    Precondition: real d and e as a read hands them on (tracker._read_unit,
    checked by _checked_tridiagonal) or as _tridiagonal_form gives them;
    only their lengths are checked again (_check_lengths).  What the check
    refuses is still refused, as EigenConvergenceError: a NaN fails
    dstevd's info, an infinite entry gives a NaN residual or an infinite
    scale, and an imaginary part of d, which dstevd drops, stays in the
    residual ||T V - V W||_F <= eig_tol x max(1, ||T||_F).  The checks
    are dense_eig's, one _check_eigenpairs, with a banded product for T V.
    """
    _check_lengths(d, e)
    w, V = _dstevd(d, e)
    R = (d[:, None] - w) * V
    R[:-1] += e[:, None] * V[1:]
    R[1:] += e[:, None] * V[:-1]
    scale = max(1.0, _frobenius(np.concatenate([d, e, e])))
    _check_eigenpairs(_frobenius(R), V, scale, tol, "TV")
    return w, V


def _checked_tridiagonal(d, e, tol: Tolerances,
                         e_dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """The contract check of a tridiagonal T read as bands, its diagonal d
    and off-diagonal e (T's entries below e are conj(e)): their lengths
    (_check_lengths), and T finite and Hermitian to hermitian_tol x
    max(1, ||T||_F) as ensure_hermitian checks the dense matrix, else
    NotHermitianError.  Returns the real d and the e of e_dtype that
    tridiagonal_eig solves."""
    d = np.asarray(d)
    e = np.asarray(e, dtype=e_dtype)
    _check_lengths(d, e)
    # the dense matrix's defect max |t_ij - conj(t_ji)| is 2 max |Im d_i|
    _hermitian_scale(_frobenius(np.concatenate([d, e, e])),
                     lambda: 2.0 * float(np.max(np.abs(d.imag))), tol)
    return np.ascontiguousarray(d.real, dtype=np.float64), e


@functools.cache
def _zhetrd_lwork(m: int) -> int:
    """The blocked workspace zhetrd asks for at m rows."""
    work, _ = zhetrd_lwork(m, lower=1)
    return int(work.real)


def _reduction(A: np.ndarray, tol: Tolerances) -> tuple:
    """zhetrd's reduction of A, with at least one row, as dense_eig takes
    it, to the real symmetric tridiagonal T = Q^H A Q: its reflectors c and
    tau, T's diagonal d and off-diagonal e, and max(1, ||A||_F).

    zhetrd reads A's lower triangle, blocked above 32 rows with the
    workspace zhetrd_lwork gives; a checked A is exactly the Hermitian
    matrix it reads.  T is tied to A by the Frobenius norm, which a unitary
    similarity keeps: | ||T||_F - ||A||_F | must be within
    eig_tol x max(1, ||A||_F), else EigenConvergenceError.
    """
    c, d, e, tau, info = zhetrd(A, lower=1, lwork=_zhetrd_lwork(A.shape[0]))
    if info != 0:
        raise EigenConvergenceError(f"tridiagonal reduction failed: zhetrd returned info={info}")
    norm, norm_t = _frobenius(A), _frobenius(np.concatenate([d, e, e]))
    scale = max(1.0, norm)
    # written so that a NaN or an infinite norm fails the test
    if not abs(norm_t - norm) <= tol.eig_tol * scale < math.inf:
        raise EigenConvergenceError(
            f"tridiagonal reduction lost the matrix: ||T||_F={norm_t:.17g} but "
            f"||A||_F={norm:.17g}"
        )
    return c, d, e, tau, scale


def _tridiagonal_form(A: np.ndarray,
                      tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d and off-diagonal e of dense_eig's reduction of A (_reduction),
    a matrix as dense_eig takes it, for the solves and counts that need no
    eigenvectors."""
    _, d, e, _, _ = _reduction(A, tol)
    return d, e


def solve_shifted(A, z: complex, B) -> np.ndarray:
    """Solve (A - z I) X = B with partial pivoting.

    A pivot that is singular to working precision signals that the shift sits
    on (or numerically touches) the spectrum and raises SpectrumTouchError.
    """
    A = as_matrix(A)
    B = np.asarray(B, dtype=np.complex128)
    if B.shape[0] != A.shape[0]:
        raise ValueError(f"right-hand side has {B.shape[0]} rows, expected {A.shape[0]}")
    M = A - z * np.eye(A.shape[0], dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        try:
            lu, piv = lu_factor(M)
        except np.linalg.LinAlgError as exc:
            raise SpectrumTouchError(f"contour touches spectrum at z={z!r}: {exc}") from exc
    pivots = np.abs(np.diag(lu))
    floor = _PIVOT_FLOOR * max(1.0, float(pivots.max(initial=0.0)))
    if pivots.size and float(pivots.min()) <= floor:
        raise SpectrumTouchError(
            f"contour touches spectrum: pivot {pivots.min():.3e} at z={z!r} "
            f"is below the working-precision floor {floor:.3e}"
        )
    return lu_solve((lu, piv), B)


def _sturm_counts(d, e, shifts) -> list[int]:
    """Eigenvalues of the real tridiagonal T (diagonal d, off-diagonal e) below
    each shift s: by Sylvester's law, the negative pivots q_i = (d_i - s) -
    e_{i-1} (e_{i-1} / q_{i-1}) of T - sI = L D L^T, an O(m) count that is
    backward stable (Kahan 1966; Demmel, Applied Numerical Linear Algebra,
    1997, sec. 5.3.4).  A pivot below pivmin puts s near an eigenvalue of a
    leading block, not of T, and counts as -pivmin, as in LAPACK's dlaneg.
    e (e / q) never forms e^2, which overflows from 1.3e154; where e / q
    overflows (in Python floats, with no warning) the infinite q adds 0 to
    the next pivot, as in the limit.  Each s is counted at s -+ delta, delta
    = _PIVOT_FLOOR x max(1, max |d| + 2 max |e|); where the counts differ an
    eigenvalue lies within delta of s: SpectrumTouchError.  d counts by its
    real part; a non-finite entry raises NotHermitianError.
    """
    d, e = np.real(d), np.asarray(e, dtype=np.float64)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise NotHermitianError("tridiagonal matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(d), initial=0.0))
                + 2.0 * float(np.max(np.abs(e), initial=0.0)))
    delta, pivmin = _PIVOT_FLOOR * scale, float(np.finfo(np.float64).tiny) * scale
    rows = list(zip(d.tolist(), [0.0] + e.tolist()))

    def below(x: float) -> int:
        q, n = 1.0, 0
        for di, ei in rows:
            q = (di - x) - ei * (ei / q)
            if abs(q) < pivmin:
                q = -pivmin
            n += q < 0.0
        return n

    counts = []
    for s in map(float, shifts):
        lo, hi = below(s - delta), below(s + delta)
        if lo != hi:
            raise SpectrumTouchError(f"shift {s!r} touches the spectrum, to within {delta:.3e}")
        counts.append(lo)
    return counts


def operator_norm(A) -> float:
    """Largest singular value (the operator 2-norm)."""
    A = np.asarray(A, dtype=np.complex128)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


@functools.lru_cache(maxsize=16)
def _band_rows(kd: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row j + l of the slot ab[l, j] of lower band storage, clipped to
    m - 1, and where it is inside the matrix; read-only, shared by calls."""
    rows = np.arange(kd + 1)[:, None] + np.arange(m)
    clipped, inside = np.minimum(rows, m - 1), rows < m
    clipped.flags.writeable = inside.flags.writeable = False
    return clipped, inside


def _band(X: np.ndarray, kd: int) -> np.ndarray:
    """LAPACK lower band storage of X: ab[l, j] = X[j + l, j], 0 past row m."""
    rows, inside = _band_rows(kd, X.shape[0])
    return np.where(inside, X[rows, rows[0]], 0)


def _psd_certified(ab: np.ndarray, err: Callable[[np.ndarray], np.ndarray]) -> bool:
    """True only if every S + E is positive semidefinite, S the Hermitian
    matrix in lower band storage ab and |E| x <= err(x) for all x >= 0.

    One Cholesky (pbtrf) of D^-1 S D^-1 - delta I decides, D the powers of
    two that put its diagonal in [1/4, 1).  If it completes, D^-1 S D^-1 =
    L L^H + delta I - dS, |dS| <= g |L| |L^H|, g = 4 (kd + 2) u (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, Thm
    10.3; the 4 covers complex arithmetic).  Row i of L has squared norm
    (L L^H)_ii < 1 / (1 - g), so by Cauchy-Schwarz a row of |L| |L^H| sums
    to less than (2 kd + 1) / (1 - g).  delta covers that inf-norm of dS,
    the inf-norm of D^-1 |E| D^-1 and u for the shift's rounding and for
    underflow, so S + E >= 0 (Demmel, LAPACK Working Note 14, 1989; Rump,
    "Verification of positive definiteness", BIT 2006).
    """
    kd, m = ab.shape[0] - 1, ab.shape[1]
    if not ((ab[0].real > 0.0).all() and np.isfinite(ab).all()):
        return False
    inv = np.ldexp(1.0, -np.frexp(np.sqrt(ab[0].real))[1])
    g = 4.0 * (kd + 2) * 2.0**-53
    delta = 2.0 * (float((inv * err(inv)).max()) + g * (2 * kd + 2))
    S = ab * inv[_band_rows(kd, m)[0]] * inv
    S[0] -= delta
    # written so that a NaN delta fails the test
    return (zpbtrf if np.iscomplexobj(S) else dpbtrf)(S, lower=1)[1] == 0 and delta < np.inf


# Thread-count API of the OpenBLAS that numpy's wheel bundles (64-bit
# integers) and of the one scipy's wheel bundles.
_THREAD_API = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
               ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"))


@functools.cache
def _blas_pools() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """(get, set) thread-count functions of every OpenBLAS in the process.

    numpy and scipy each load their own OpenBLAS, each with its own thread
    pool.  The libraries are found once, by name in /proc/self/maps; where
    that file or a library's thread API is missing, that pool is left out.
    """
    try:
        with open("/proc/self/maps") as fh:
            # address, perms, offset, device, inode, path
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5].lower()})
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_API:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pools.append((get, set_))
                break
    return tuple(pools)


class _OneBlasThread(contextlib.ContextDecorator):
    """Run every OpenBLAS pool on one thread inside the block or decorated call.

    The tracker's work is many small eigensolves, tridiagonal reductions and
    products, and it switches between numpy's and scipy's OpenBLAS; on each
    switch the other pool's threads wake and spin.  One thread per pool
    does the same work at a fraction of the CPU.

    The thread counts are process-global.  The first entry saves each pool's
    count and sets it to 1; the last exit restores it, on return and on an
    exception.  The entries are counted under a lock, so nested calls and
    calls overlapping in several Python threads restore the count saved
    before any of them, never an inner 1.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._saved: list[tuple[Callable[[int], None], int]] = []

    def __enter__(self):
        with self._lock:
            if self._active == 0:
                self._saved = [(set_, get()) for get, set_ in _blas_pools()]
                for set_, _ in self._saved:
                    set_(1)
            self._active += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._active -= 1
            if self._active == 0:
                for set_, count in self._saved:
                    set_(count)


_one_blas_thread = _OneBlasThread()
