"""Dense complex Hermitian linear algebra used by every other module.

Matrices are plain numpy complex128 arrays; the helpers here add the contract
checks (Hermiticity, finiteness, residual bounds, pivot guards) that the rest
of the package relies on.  The two eigensolvers, ``dense_eig`` (zheevd) and
``tridiagonal_eig`` (dstevd on a real symmetric tridiagonal matrix, never
formed dense), return checked (w, V) as LAPACK gives them: ascending
eigenvalues, orthonormal eigenvectors with whatever phases LAPACK left.
``canonical_eig`` makes the vectors deterministic (canonical phases, a stable
order of exactly tied eigenvalues).  ``hermitian_eig`` is ``dense_eig`` in
that form; the tracker applies the form only in the exact pass of the
Gronwall rate, the one place where V's phases reach its output.  The
tracker's entry points run every OpenBLAS pool on one thread
(``_one_blas_thread``), because at their sizes the pools' threads cost more
CPU than the work they share.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.blas import dnrm2, dsyrk, dznrm2
from scipy.linalg.lapack import dstevd, zhetrf, zhetrf_lwork

from .config import DEFAULT_TOL, Tolerances
from .errors import EigenConvergenceError, NotHermitianError, SpectrumTouchError


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex128 matrix."""
    A = np.asarray(a, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def hermitian_defect(A: np.ndarray) -> float:
    """max_ij |a_ij - conj(a_ji)|, zero for exactly Hermitian input."""
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(A - A.conj().T)))


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
    """max(1, ||A||_F) from norm = ||A||_F, once A is checked finite and
    Hermitian; defect() is asked for only when the norm is finite."""
    if not math.isfinite(norm):
        raise NotHermitianError(f"matrix has non-finite entries: frobenius norm is {norm}")
    scale = max(1.0, norm)
    defect = defect()
    if defect > tol.hermitian_tol * scale:
        raise NotHermitianError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds "
            f"{tol.hermitian_tol:.1e} x max(1, frobenius) = {tol.hermitian_tol * scale:.3e}"
        )
    return scale


def ensure_hermitian(A: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    A = as_matrix(A)
    _hermitian_scale(_frobenius(A), lambda: hermitian_defect(A), tol)
    return A


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending real eigenvalues and a matching unitary column basis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def canonical_eig(w: np.ndarray, V) -> EigenDecomposition:
    """The form hermitian_eig returns, from ascending w and orthonormal V.

    V is taken to C-ordered complex128 and each column is rotated so that
    its first significant component is real positive.  Exactly tied
    eigenvalues get a stable column order, by the index of that component.
    """
    w = np.asarray(w, dtype=float)
    V = np.asarray(V, dtype=np.complex128, order="C")
    mags = np.abs(V)
    first = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    lead = V[first, np.arange(V.shape[1])]
    V = V * np.conj(lead / np.abs(lead))
    return EigenDecomposition(w, V.take(np.lexsort((first, w)), axis=1))


def dense_eig(A, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and orthonormal eigenvectors V of Hermitian A.

    LAPACK zheevd through numpy's eigh, with V as it returns it.  A must be
    finite and Hermitian to hermitian_tol, and the reconstruction and
    orthonormality residuals must meet eig_tol.
    """
    A = as_matrix(A)
    scale = _hermitian_scale(_frobenius(A), lambda: hermitian_defect(A), tol)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver failed: {exc}") from exc
    resid = _frobenius(A @ V - V * w)
    ortho = float(np.linalg.norm(V.conj().T @ V - np.eye(V.shape[0])))
    # written so that a NaN residual fails the test
    if not (resid <= tol.eig_tol * scale and ortho <= tol.eig_tol * V.shape[0]):
        raise EigenConvergenceError(
            f"eigendecomposition residuals too large: |AV-VW|={resid:.3e}, "
            f"|V*V-I|={ortho:.3e}"
        )
    return w, V


def hermitian_eig(A, tol: Tolerances = DEFAULT_TOL) -> EigenDecomposition:
    """dense_eig in canonical form: ascending eigenvalues and unitary
    eigenvectors with canonical phases and a stable order of exact ties."""
    A = as_matrix(A)
    if A.shape[0] == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0), dtype=np.complex128))
    return canonical_eig(*dense_eig(A, tol))


def tridiagonal_eig(d, e, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and real orthonormal eigenvectors V of the
    symmetric tridiagonal T with diagonal d and off-diagonal e.

    LAPACK dstevd: divide and conquer (dstedc), QR below 26 rows.  On T
    written as a dense Hermitian matrix, every Householder reflector of
    zheevd's reduction is the identity, so zheevd hands the same (d, e) to
    the same dstedc: w equals hermitian_eig's eigenvalues bit for bit, and
    canonical_eig(w, V) equals its eigenvectors (below 26 rows up to the
    sign of zero parts, which zheevd's complex QR rotations set).  dstevd
    and zheevd rescale differently below entries of about 1e-140, so this
    is a solver for tridiagonal families, not a fast path to detect in
    dense_eig.

    e is real.  d may carry an imaginary part: beyond hermitian_tol x
    max(1, ||T||_F) it is rejected as ensure_hermitian rejects the dense
    matrix, and otherwise the real part is solved, as zheevd reads a
    Hermitian diagonal.  The residual contract is dense_eig's, with a
    banded product for T V.
    """
    d = np.asarray(d)
    e = np.asarray(e, dtype=np.float64)
    if d.ndim != 1 or d.size == 0 or e.shape != (d.size - 1,):
        raise ValueError(f"need d of length m >= 1 and e of length m - 1, "
                         f"got {d.shape} and {e.shape}")
    m = d.size
    # the dense matrix's defect max |t_ij - conj(t_ji)| is 2 max |Im d_i|
    scale = _hermitian_scale(_frobenius(np.concatenate([d, e, e])),
                             lambda: 2.0 * float(np.max(np.abs(d.imag))), tol)
    d = np.ascontiguousarray(d.real, dtype=np.float64)
    # the wrapper wants at least one off-diagonal entry even at m = 1
    w, V, info = dstevd(d, e if m > 1 else np.zeros(1), compute_v=1)
    if info != 0:
        raise EigenConvergenceError(f"eigensolver failed: dstevd returned info={info}")
    R = d[:, None] * V - V * w
    R[:-1] += e[:, None] * V[1:]
    R[1:] += e[:, None] * V[:-1]
    # V^T V by dsyrk, which computes only the upper triangle (half the flops
    # of V.T @ V) and leaves the lower one zero.
    G = dsyrk(1.0, V, trans=1)
    G += np.triu(G, 1).T
    G.flat[::m + 1] -= 1.0
    resid, ortho = _frobenius(R), _frobenius(G)
    # written so that a NaN residual fails the test
    if not (resid <= tol.eig_tol * scale and ortho <= tol.eig_tol * m):
        raise EigenConvergenceError(
            f"eigendecomposition residuals too large: |TV-VW|={resid:.3e}, "
            f"|V*V-I|={ortho:.3e}"
        )
    return w, V


def solve_shifted(A, z: complex, B, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
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
    floor = tol.pivot_floor * max(1.0, float(pivots.max(initial=0.0)))
    if pivots.size and float(pivots.min()) <= floor:
        raise SpectrumTouchError(
            f"contour touches spectrum: pivot {pivots.min():.3e} at z={z!r} "
            f"is below the working-precision floor {floor:.3e}"
        )
    return lu_solve((lu, piv), B)


def _negative_count(A: np.ndarray, s: float, tol: Tolerances) -> int:
    """Negative eigenvalues of A - sI: the inertia of D in A - sI = L D L^H.

    D from Bunch-Kaufman (zhetrf, lower storage) is block diagonal with 1x1
    and 2x2 Hermitian blocks; a 2x2 block is marked by a pair of negative
    ipiv entries.  A pivot (an eigenvalue of a block) at or below
    pivot_floor x max(1, largest pivot) raises SpectrumTouchError.
    """
    m = A.shape[0]
    lwork, _ = zhetrf_lwork(m, lower=1)
    ldu, ipiv, _ = zhetrf(A - s * np.eye(m), lower=1, lwork=int(lwork.real), overwrite_a=1)
    d = ldu.diagonal().real
    paired = ipiv < 0
    k = np.flatnonzero(paired & (np.cumsum(paired) % 2 == 1))  # first row of each 2x2
    one = d[~paired]
    a, c = d[k], d[k + 1]
    b2 = np.abs(ldu[k + 1, k]) ** 2
    det, tr = a * c - b2, a + c
    big = 0.5 * np.abs(tr) + np.sqrt(0.25 * (a - c) ** 2 + b2)
    pivots = np.concatenate([np.abs(one), big, np.abs(det) / big])
    floor = tol.pivot_floor * max(1.0, float(pivots.max()))
    if not float(pivots.min()) > floor:
        raise SpectrumTouchError(
            f"shift {s!r} touches the spectrum: D pivot {pivots.min():.3e} is at or "
            f"below the working-precision floor {floor:.3e}"
        )
    # Bunch-Kaufman takes a 2x2 pivot only when its off-diagonal dominates,
    # so det < 0 there in practice; the trace term keeps the rule exact for
    # any Hermitian 2x2 block.
    return int(np.count_nonzero(one < 0.0) + np.count_nonzero(det < 0.0)
               + 2 * np.count_nonzero((det > 0.0) & (tr < 0.0)))


def eigenvalue_count(A, lo: float, hi: float, tol: Tolerances = DEFAULT_TOL) -> int:
    """Exact number of eigenvalues of Hermitian A in the open interval (lo, hi).

    Sylvester's law of inertia: A - sI has as many negative eigenvalues as A
    has below s, so the count is nu(A - hi I) - nu(A - lo I), read off two
    LDL^H factorizations (spectrum slicing).  An endpoint on the spectrum to
    working precision raises SpectrumTouchError instead of returning a count.
    """
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo!r}, {hi!r})")
    A = ensure_hermitian(A, tol)
    if A.shape[0] == 0:
        return 0
    return _negative_count(A, hi, tol) - _negative_count(A, lo, tol)


def numerical_rank(A, tol_abs: float) -> int:
    """Number of singular values strictly above the absolute threshold."""
    A = np.asarray(A, dtype=np.complex128)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.count_nonzero(s > tol_abs))


def operator_norm(A) -> float:
    """Largest singular value (the operator 2-norm)."""
    A = np.asarray(A, dtype=np.complex128)
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


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

    The tracker's work is many small eigensolves, LDL^H factorizations and
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


def random_hermitian(rng: np.random.Generator, m: int, scale: float = 1.0) -> np.ndarray:
    """Dense Hermitian test matrix with Gaussian entries."""
    M = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return scale * 0.5 * (M + M.conj().T)


def hermitian_with_spectrum(rng: np.random.Generator, eigenvalues) -> np.ndarray:
    """Hermitian matrix with prescribed spectrum and Haar-ish eigenbasis."""
    w = np.asarray(eigenvalues, dtype=float)
    m = w.size
    Z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return (Q * w) @ Q.conj().T
