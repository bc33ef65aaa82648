"""KDE references of the MD normal profile.

* :func:`bisect_quantiles` is the bracketed-bisection threshold rule that
  :func:`~repro.ml.kde.mixture_quantiles` (safeguarded Newton) replaced;
  the property tests bound the Newton engine to within its ``tol``;
* :func:`updated` is the batch update of
  :class:`~tests.oracles.movement.NormalProfile`: the KDE window minus
  its ``drop_oldest`` oldest values, plus the batch, with a fresh Scott
  bandwidth.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
from scipy.special import erf

from repro.ml.kde import _SQRT2, GaussianKDE

__all__ = ["bisect_quantiles", "updated"]


def _rows_cdf(data: np.ndarray, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise mixture CDF: ``out[i] = CDF_i(x[i])`` for profile rows."""
    z = (x[:, None] - data) / h[:, None]
    z /= _SQRT2
    return np.add.reduce(0.5 * (1.0 + erf(z)), axis=1) / data.shape[1]


def bisect_quantiles(
    data: np.ndarray,
    bandwidths: np.ndarray,
    q: float,
    *,
    tol: float = 1e-6,
    max_iter: int = 200,
) -> np.ndarray:
    """Retained reference: the pre-Newton bracketed-bisection threshold rule.

    Row-wise replication of the original ``GaussianKDE.percentile``
    (bracket expansion by ``10 h`` steps, midpoint bisection until the
    bracket is narrower than ``tol``).  Kept as the documented reference
    the Newton engine is pinned against: ``tests/test_properties.py``
    asserts ``|mixture_quantiles - bisect_quantiles| <= tol`` across random
    profiles, which is the re-pin bound of the threshold-rule change.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    data = np.ascontiguousarray(np.asarray(data, dtype=float))
    h = np.asarray(bandwidths, dtype=float)
    target = q / 100.0
    rows = data.shape[0]
    lo = data.min(axis=1) - 10.0 * h
    hi = data.max(axis=1) + 10.0 * h
    active = np.ones(rows, dtype=bool)
    for _ in range(64):
        active &= ~(_rows_cdf(data, h, lo) <= target)
        if not active.any():
            break
        lo[active] -= 10.0 * h[active]
    if active.any():
        raise ValueError("bisection bracket expansion exhausted (low side)")
    active = np.ones(rows, dtype=bool)
    for _ in range(64):
        active &= ~(_rows_cdf(data, h, hi) >= target)
        if not active.any():
            break
        hi[active] += 10.0 * h[active]
    if active.any():
        raise ValueError("bisection bracket expansion exhausted (high side)")
    active = np.ones(rows, dtype=bool)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        below = _rows_cdf(data, h, mid) < target
        move_lo = active & below
        move_hi = active & ~below
        lo[move_lo] = mid[move_lo]
        hi[move_hi] = mid[move_hi]
        active &= ~((hi - lo) < tol)
        if not active.any():
            break
    return 0.5 * (lo + hi)


def updated(
    kde: GaussianKDE, new_data: Iterable[float], drop_oldest: int = 0
) -> "GaussianKDE":
    """Return a new KDE with ``new_data`` appended.

    The MD module's profile update (Section IV-C3) appends a batch of
    recent measurements while removing the ``drop_oldest`` oldest ones so
    the profile tracks the slowly varying radio environment.
    """
    new_data = np.asarray(list(new_data), dtype=float).ravel()
    kept = kde._data[drop_oldest:] if drop_oldest > 0 else kde._data
    combined = np.concatenate([kept, new_data])
    if combined.size == 0:
        raise ValueError("profile update would leave no data")
    return GaussianKDE(combined, bandwidth="scott")
