"""Small shared numeric helpers: difference stencils, multiset matching."""
from __future__ import annotations

import numpy as np

# One-sided first derivative, nodes f(x0 + j*h) for j = 0..4, error O(h^4).
_FWD1 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
# One-sided second derivative, same nodes, error O(h^3).
_FWD2 = np.array([35.0, -104.0, 114.0, -56.0, 11.0]) / 12.0
# Central first derivative, nodes f(x0 + j*h) for j = -2..2, error O(h^4).
_CEN1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0

# Shorter one-sided first-derivative stencils for boundary fallbacks.
_FWD1_SHORT = {
    2: np.array([-1.0, 1.0]),
    3: np.array([-3.0, 4.0, -1.0]) / 2.0,
    4: np.array([-11.0, 18.0, -9.0, 2.0]) / 6.0,
    5: _FWD1,
}
_FWD2_SHORT = {
    3: np.array([1.0, -2.0, 1.0]),
    4: np.array([2.0, -5.0, 4.0, -1.0]),
    5: _FWD2,
}


def one_sided_first(samples, h: float, side: str) -> np.ndarray:
    """First derivative at the anchor from samples f(t*), f(t* +- h), ...

    ``samples`` has the anchor first and moves away from it; shape (5, ...) or
    shorter down to (2, ...).  ``side`` is "left" or "right" and fixes the sign
    of the step.
    """
    samples = np.asarray(samples)
    coef = _FWD1_SHORT[samples.shape[0]]
    value = np.tensordot(coef, samples, axes=(0, 0)) / h
    return value if side == "right" else -value


def one_sided_second(samples, h: float) -> np.ndarray:
    """Second derivative at the anchor; sign-free in the step direction."""
    samples = np.asarray(samples)
    coef = _FWD2_SHORT[samples.shape[0]]
    return np.tensordot(coef, samples, axes=(0, 0)) / h**2


def central_first(samples, h: float) -> np.ndarray:
    """First derivative from nodes f(t-2h), f(t-h), f(t), f(t+h), f(t+2h)."""
    samples = np.asarray(samples)
    if samples.shape[0] != 5:
        raise ValueError("central_first expects exactly 5 samples")
    return np.tensordot(_CEN1, samples, axes=(0, 0)) / h


def multiset_distance(a, b) -> float:
    """Max absolute difference after sorting both value multisets."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"multiset sizes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def remove_nearest(values: np.ndarray, target: float) -> tuple[np.ndarray, float]:
    """Remove the entry of ``values`` nearest to ``target``.

    Returns (remaining values, distance to the removed entry).
    """
    if values.size == 0:
        raise ValueError("cannot remove from an empty multiset")
    idx = int(np.argmin(np.abs(values - target)))
    dist = float(abs(values[idx] - target))
    return np.delete(values, idx), dist

