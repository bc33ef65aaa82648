"""Gaussian kernel density estimation for the MD normal profile.

The Movement Detection module builds a "normal profile" of the sum of
per-stream standard deviations and thresholds new observations against the
(100 - alpha)-th percentile of the estimated distribution (paper Section
IV-C2).  The paper estimates the density with a Gaussian kernel; this module
provides that estimator, with Scott's and Silverman's bandwidth rules, plus
the CDF / percentile queries Algorithm 1 needs.

Quantile engine
---------------

The percentile is the root of ``CDF(x) - q/100`` on the Gaussian-mixture
CDF.  :func:`mixture_quantiles` solves it for a whole ``(n_profiles,
n_data)`` matrix of independent profiles at once with a safeguarded Newton
iteration: the mixture PDF is the exact analytic derivative of the CDF, so
Newton steps converge superlinearly, a maintained bracket catches steps
that leave it (falling back to bisection), and callers tracking a slowly
moving threshold (the profile chains of Algorithm 1) warm-start from the
previous threshold via ``x0``.  Every per-row operation is independent of
the other rows, so solving a profile alone or inside a batch is
**bit-identical** — the property the scalar/lockstep equivalence suite
relies on (:meth:`GaussianKDE.percentile` and the profile engine in
:mod:`repro.detectors.kde_md` both delegate here).

:func:`bisect_quantiles` retains the pre-Newton bracketed bisection as the
reference threshold rule; the regression suite pins the Newton engine to
within the old ``tol`` of it.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

import numpy as np
from scipy.special import erf

__all__ = [
    "GaussianKDE",
    "scott_bandwidth",
    "scott_bandwidths",
    "silverman_bandwidth",
    "mixture_quantiles",
    "bisect_quantiles",
]

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)


def scott_bandwidths(data: np.ndarray) -> np.ndarray:
    """Scott's rule ``sigma * n^(-1/5)`` for each row of an ``(rows, n)``
    matrix; 1.0 for a constant row or when ``n < 2``."""
    n = data.shape[1]
    if n < 2:
        return np.ones(data.shape[0])
    sigma = np.std(data, axis=1, ddof=1)
    return np.where(sigma <= 0, 1.0, sigma * n ** (-1.0 / 5.0))


def scott_bandwidth(data: np.ndarray) -> float:
    """Scott's rule of thumb bandwidth ``sigma * n^(-1/5)``."""
    return float(scott_bandwidths(np.asarray(data, dtype=float).reshape(1, -1))[0])


def silverman_bandwidth(data: np.ndarray) -> float:
    """Silverman's rule of thumb, robust to heavy tails via the IQR."""
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    if n < 2:
        return 1.0
    sigma = float(np.std(data, ddof=1))
    iqr = float(np.subtract(*np.percentile(data, [75, 25])))
    spread = min(sigma, iqr / 1.349) if iqr > 0 else sigma
    if spread <= 0:
        return 1.0
    return 0.9 * spread * n ** (-1.0 / 5.0)


# ---------------------------------------------------------------------- #
# Row-wise mixture CDF / PDF / quantile engine
# ---------------------------------------------------------------------- #
def _rows_cdf(data: np.ndarray, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise mixture CDF: ``out[i] = CDF_i(x[i])`` for profile rows."""
    z = (x[:, None] - data) / h[:, None]
    z /= _SQRT2
    return np.add.reduce(0.5 * (1.0 + erf(z)), axis=1) / data.shape[1]


def _rows_cdf_pdf(
    scaled_data: np.ndarray,
    scaled_x: np.ndarray,
    pdf_scale: np.ndarray,
    cdf_scale: float,
    wbuf: np.ndarray,
    ebuf: np.ndarray,
) -> tuple:
    """Row-wise mixture ``(CDF, PDF)`` from pre-scaled residual inputs.

    Operates on ``w = (x - data) / (h * sqrt(2))``: the mixture CDF is
    ``cdf_scale * sum(1 + erf(w))`` and — since ``z^2 / 2 == w^2`` — the
    PDF is ``pdf_scale * sum(exp(-w^2))``, so one residual array feeds both
    transcendental passes of a Newton iteration.  ``scaled_data`` /
    ``scaled_x`` are ``data`` and ``x`` pre-multiplied by ``1 / (h *
    sqrt(2))`` (hoisted out of the iteration loop by the caller), and
    ``wbuf`` / ``ebuf`` are preallocated scratch buffers of
    ``scaled_data``'s shape.
    """
    w = np.subtract(scaled_x[:, None], scaled_data, out=wbuf)
    e = np.multiply(w, w, out=ebuf)
    np.negative(e, out=e)
    np.exp(e, out=e)
    pdf = np.add.reduce(e, axis=1) * pdf_scale
    erf(w, out=w)
    w += 1.0
    cdf = np.add.reduce(w, axis=1) * cdf_scale
    return cdf, pdf


def _initial_brackets(data: np.ndarray, h: np.ndarray, q: float) -> tuple:
    """``[lo, hi] = [min - 10h, max + 10h]`` brackets, validated per row.

    The nearest kernel centre sits ten bandwidths inside either bound, so
    the mixture CDF is *exactly* 0 at ``lo`` and 1 at ``hi`` in double
    precision (``erfc(10 / sqrt(2)) ~ 2.8e-23`` rounds away against 1):
    every target in ``[0, 1]`` is bracketed by construction.  The only way
    a bracket can be invalid is non-finite profile data or bandwidth, which
    raises a clear error here instead of letting the solver silently
    iterate on ``[NaN, NaN]`` (the failure mode the old expansion loops
    hid by exhausting their 64 steps without ever bracketing).
    """
    lo = data.min(axis=1) - 10.0 * h
    hi = data.max(axis=1) + 10.0 * h
    invalid = ~(np.isfinite(lo) & np.isfinite(hi))
    if invalid.any():
        raise ValueError(
            f"cannot bracket the {q}-th percentile for "
            f"{int(np.count_nonzero(invalid))} profile(s): non-finite "
            "profile data or bandwidth (NaN/inf in the KDE window)"
        )
    return lo, hi


def mixture_quantiles(
    data: np.ndarray,
    bandwidths: np.ndarray,
    q: float,
    *,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-6,
    max_iter: int = 100,
) -> np.ndarray:
    """The ``q``-th percentile of many independent Gaussian-mixture KDEs.

    Parameters
    ----------
    data:
        ``(n_profiles, n_data)`` matrix; each row is one profile's data
        window.
    bandwidths:
        Per-row kernel bandwidth ``h``.
    q:
        Percentile in ``[0, 100]``.  Algorithm 1 queries the
        ``(100 - alpha)``-th percentile as its anomaly threshold.
    x0:
        Optional per-row initial guesses — the previous thresholds of the
        profile chains.  A warm start typically halves the number of CDF
        evaluations; rows whose guess is not finite or falls outside the
        bracket start from the empirical data quantile instead.
    tol:
        Accuracy of the returned quantile.  Iteration stops once a row's
        accepted Newton step falls below ``tol / 10`` (superlinear
        contraction near the root leaves the residual far smaller still)
        or its bracket is narrower than ``tol / 2``, keeping the result
        well within ``tol`` of the true quantile.
    max_iter:
        Safety cap on iterations; the bisection safeguard guarantees the
        bracket at least halves whenever a Newton step is rejected, so the
        cap is never reached in practice.

    Notes
    -----
    Row arithmetic is strictly independent: solving one profile alone is
    bit-identical to solving it inside any batch.  The scalar
    :meth:`GaussianKDE.percentile` and the lockstep profile engine of
    :mod:`repro.detectors.kde_md` both call this function, which is what
    keeps their thresholds bit-for-bit equal.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    data = np.ascontiguousarray(np.asarray(data, dtype=float))
    if data.ndim != 2:
        raise ValueError("data must be a (n_profiles, n_data) matrix")
    h = np.asarray(bandwidths, dtype=float)
    if h.shape != (data.shape[0],):
        raise ValueError("bandwidths must hold one value per profile row")
    target = q / 100.0
    lo, hi = _initial_brackets(data, h, q)

    # Initial iterate: the warm-start threshold where one is usable, the
    # empirical data quantile otherwise (within O(h) of the KDE quantile,
    # so the first Newton step already lands near the root).  The sort
    # behind np.quantile is skipped entirely when every row warm-starts —
    # the common case along a profile chain.
    usable = None
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        usable = np.isfinite(x0) & (x0 > lo) & (x0 < hi)
    if usable is not None and usable.all():
        x = x0.astype(float, copy=True)
    else:
        x = np.quantile(data, target, axis=1)
        np.clip(x, lo, hi, out=x)
        if usable is not None:
            x = np.where(usable, x0, x)

    # Stopping rules, both well inside the documented `tol` bound: a
    # solver step below tol/10 (the superlinear contraction of both the
    # Newton step and the Illinois fallback leaves the residual error far
    # smaller still) or a bracket narrower than tol/2 (the enclosed
    # crossing is then within tol/2 of x).
    step_tol = tol * 0.1
    bracket_tol = tol * 0.5
    rows = data.shape[0]
    # Hoist the residual scaling out of the iteration loop: one pass over
    # the data matrix here replaces two per iteration (see _rows_cdf_pdf).
    inv_scale = 1.0 / (h * _SQRT2)
    scaled_data = data * inv_scale[:, None]
    pdf_scale = 1.0 / (data.shape[1] * h * _SQRT2PI)
    cdf_scale = 0.5 / data.shape[1]

    # The loop iterates all still-live rows in lockstep behind an `active`
    # mask (converged rows are frozen by np.where, costing a discarded
    # lane instead of per-iteration fancy indexing).  Once at least a
    # quarter of the live rows have converged (active <= 75%), the state
    # is compacted to the active rows, so long straggler tails
    # (near-plateau profiles grinding through bisection) iterate on tiny
    # matrices — amortised, CDF work tracks the rows that still need it.
    # Per-row arithmetic is identical in either regime, which keeps
    # single-row and batched solves bit-identical.
    out = x
    idx_map = np.arange(rows)
    active = np.ones(rows, dtype=bool)
    wbuf = np.empty_like(scaled_data)
    ebuf = np.empty_like(scaled_data)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(max_iter):
            n_active = int(np.count_nonzero(active))
            if n_active == 0:
                break
            if n_active * 4 <= active.shape[0] * 3:
                out[idx_map] = x
                keep = np.flatnonzero(active)
                idx_map = idx_map[keep]
                scaled_data = np.ascontiguousarray(scaled_data[keep])
                x = x[keep]
                lo, hi = lo[keep], hi[keep]
                inv_scale = inv_scale[keep]
                pdf_scale = pdf_scale[keep]
                active = np.ones(keep.shape[0], dtype=bool)
                wbuf = wbuf[: keep.shape[0]]
                ebuf = ebuf[: keep.shape[0]]
            f, dens = _rows_cdf_pdf(
                scaled_data, x * inv_scale, pdf_scale, cdf_scale, wbuf, ebuf
            )
            f -= target
            # Maintain the bracket invariant CDF(lo) <= target <= CDF(hi).
            # Frozen rows mutate their (no longer read) bracket state too —
            # cheaper than masking every update.
            below = f < 0.0
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            width = hi - lo
            newton = x - f / dens
            # Reject the Newton step when it leaves the bracket or when it
            # does not outpace bisection (|2 f| > |width * pdf|, the
            # classic rtsafe guard) — a near-plateau CDF otherwise sends
            # Newton ricocheting between the plateau edges.  A vanishing
            # or invalid pdf fails both checks on its own (the step is
            # infinite or NaN), so no separate guard is needed.  Rejected
            # rows take the bracket midpoint, so progress is never worse
            # than bisection.
            ok = (
                (newton > lo)
                & (newton < hi)
                & (2.0 * np.abs(f) <= width * dens)
            )
            x_new = np.where(active, np.where(ok, newton, 0.5 * (lo + hi)), x)
            # A tiny *accepted Newton* step pins the root (near a simple
            # root the step size bounds the residual); otherwise wait for
            # the bracket to collapse.
            converged = (ok & (np.abs(x_new - x) < step_tol)) | (
                width < bracket_tol
            )
            x = x_new
            active &= ~converged
    out[idx_map] = x
    return out


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


class GaussianKDE:
    """One-dimensional Gaussian kernel density estimator.

    Parameters
    ----------
    data:
        Sample of the quantity being profiled (e.g. the sums of per-stream
        standard deviations observed while the office is quiet).
    bandwidth:
        Kernel bandwidth ``h``.  If a string, one of ``"scott"`` or
        ``"silverman"``; if a float, used directly.

    Notes
    -----
    The estimated density is

    .. math:: \\hat f(x) = \\frac{1}{n h} \\sum_i K\\left(\\frac{x - x_i}{h}\\right)

    with ``K`` the standard normal pdf, exactly the form in the paper's
    Section IV-C1.
    """

    def __init__(
        self,
        data: Iterable[float],
        bandwidth: Union[str, float] = "scott",
    ) -> None:
        data = np.asarray(list(data) if not isinstance(data, np.ndarray) else data,
                          dtype=float).ravel()
        if data.size == 0:
            raise ValueError("GaussianKDE requires at least one data point")
        self._data = data
        if isinstance(bandwidth, str):
            if bandwidth == "scott":
                self._h = scott_bandwidth(data)
            elif bandwidth == "silverman":
                self._h = silverman_bandwidth(data)
            else:
                raise ValueError(f"unknown bandwidth rule: {bandwidth!r}")
        else:
            h = float(bandwidth)
            if h <= 0:
                raise ValueError("bandwidth must be positive")
            self._h = h

    # ------------------------------------------------------------------ #
    @property
    def data(self) -> np.ndarray:
        """The training sample (read-only view)."""
        return self._data

    @property
    def bandwidth(self) -> float:
        """The kernel bandwidth in use."""
        return self._h

    @property
    def n(self) -> int:
        """Number of training points."""
        return int(self._data.shape[0])

    # ------------------------------------------------------------------ #
    def pdf(self, x: Union[float, np.ndarray]) -> np.ndarray:
        """Evaluate the estimated density at ``x`` (scalar or array)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = (x[:, None] - self._data[None, :]) / self._h
        dens = np.exp(-0.5 * z ** 2).sum(axis=1)
        dens /= self.n * self._h * np.sqrt(2.0 * np.pi)
        return dens

    def cdf(self, x: Union[float, np.ndarray]) -> np.ndarray:
        """Evaluate the estimated cumulative distribution at ``x``."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = (x[:, None] - self._data[None, :]) / self._h
        return 0.5 * (1.0 + erf(z / np.sqrt(2.0))).mean(axis=1)

    def percentile(
        self,
        q: float,
        *,
        x0: Optional[float] = None,
        tol: float = 1e-6,
        max_iter: int = 100,
    ) -> float:
        """Return the value below which ``q`` percent of the mass lies.

        Parameters
        ----------
        q:
            Percentile in ``[0, 100]``.  Algorithm 1 queries the
            ``(100 - alpha)``-th percentile as its anomaly threshold.
        x0:
            Optional warm-start guess (e.g. the previous threshold of a
            profile chain); see :func:`mixture_quantiles`.

        Delegates to the shared safeguarded-Newton engine
        (:func:`mixture_quantiles`) with this KDE as a single profile row,
        so the result is bit-identical to solving the same profile inside
        any lockstep batch.
        """
        x0_rows = None if x0 is None else np.asarray([x0], dtype=float)
        return float(
            mixture_quantiles(
                self._data[None, :],
                np.asarray([self._h]),
                q,
                x0=x0_rows,
                tol=tol,
                max_iter=max_iter,
            )[0]
        )

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` samples from the estimated density.

        ``rng`` is required: library code never falls back to a silently
        seeded global generator, so every draw is attributable to an
        explicit seed stream.
        """
        if rng is None:
            raise TypeError(
                "GaussianKDE.sample requires an explicit numpy Generator; "
                "pass np.random.default_rng(seed) from the call site"
            )
        centers = rng.choice(self._data, size=size, replace=True)
        return centers + rng.normal(0.0, self._h, size=size)

    def updated(self, new_data: Iterable[float], drop_oldest: int = 0) -> "GaussianKDE":
        """Return a new KDE with ``new_data`` appended.

        The MD module's profile update (Section IV-C3) appends a batch of
        recent measurements while removing the ``drop_oldest`` oldest ones so
        the profile tracks the slowly varying radio environment.
        """
        new_data = np.asarray(list(new_data), dtype=float).ravel()
        kept = self._data[drop_oldest:] if drop_oldest > 0 else self._data
        combined = np.concatenate([kept, new_data])
        if combined.size == 0:
            raise ValueError("profile update would leave no data")
        return GaussianKDE(combined, bandwidth="scott")
