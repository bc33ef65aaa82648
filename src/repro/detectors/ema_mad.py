"""EMA + median/MAD hysteresis detector (SNIPPETS.md Snippet 3 lineage).

The std-sum series is first smoothed with an exponential moving average;
movement evidence is then two-fold: the short-window standard deviation
of the smoothed series (energy), and the robust deviation of the current
smoothed value from a long-window median in MAD units (level shift).
Either one firing trips the detector, and hysteresis holds it active
until the short-window energy drops below ``down_ratio`` of the
threshold — the exact activate/deactivate shape of the exemplar
``MotionDetector``.

Unlike the exemplar's absolute ``threshold=8.0``, the energy threshold
here is *calibrated*: std-sum magnitudes vary with sensor count and
channel config, so the effective threshold is ``threshold_scale`` times
the median short-window std observed over the initialisation window
(``init_samples``, the same quiet-office assumption the KDE profile
makes).  Decisions are ``-1`` during initialisation and the threshold
trace first materialises at ``init_samples - 1``, mirroring the KDE
grid's convention.

The detector has one engine, :class:`EmaMadEngine`: bounded state over a
:class:`~repro.sliding.Carry` of the last ``long_window - 1`` smoothed
values, the short-window std through :func:`repro.sliding.sliding` and
the long-window median/MAD through :meth:`EmaMadDetector._median_mad`, so
its output does not depend on how the series is split into batches.
:meth:`EmaMadDetector.offline_grid` runs it once over each whole column.
``tests/test_detector_oracles.py`` checks it bitwise against naive
per-instant loops (``np.median`` windows and the hysteresis walk).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..sliding import Carry, sliding
from .base import (
    DetectionGrid,
    calibrated_threshold,
    calibration_rules,
    check_fields,
    column_grid,
    register_detector,
)

__all__ = ["EmaMadDetector"]

# Full-window median/MAD dispatch: below this window size the dense
# ``np.median``-over-``sliding_window_view`` reference is faster (numpy's
# C introselect beats per-step python bookkeeping); from here up the
# indexable sorted window wins — O(log w) per step against the dense
# path's O(w) — crossing ~1x at 160 and reaching ~2x at 400, ~4x at 600
# (measured; the detector bench gate locks the large-window ratio in).
_SORTED_MEDIAN_MIN_W = 160

# Floor for calibrated thresholds: a perfectly quiet init window (all-zero
# stds) must not produce a zero threshold that the hysteresis exit
# (``std < eff * down_ratio``) could never satisfy.
_EFF_FLOOR = 1e-9

# Robust-sigma conversion and degeneracy guards, verbatim from the
# exemplar: MAD below 1e-9 means the long window is flat and the robust
# deviation is undefined — treat as no level-shift evidence.
_MAD_SIGMA = 1.4826
_MAD_TINY = 1e-9


def _ema_series(
    values: np.ndarray, alpha: float, e: Optional[float] = None
) -> Tuple[np.ndarray, Optional[float]]:
    """Per-step python-float EMA recursion from state ``e``: ``(series, e)``."""
    out = np.empty(values.size)
    for i, v in enumerate(values.tolist()):
        e = v if e is None else alpha * v + (1.0 - alpha) * e
        out[i] = e
    return out, e


def _sorted_mid(rows: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Medians of pre-sorted rows whose first ``lengths`` entries are data.

    ``(lo + hi) / 2`` over the two middle order statistics — for odd
    lengths both indices coincide and the halving is exact, so the result
    is bitwise what ``np.median`` computes from the same multiset.
    """
    r = np.arange(lengths.size)
    lo = rows[r, (lengths - 1) // 2]
    hi = rows[r, lengths // 2]
    return (lo + hi) / 2.0


def _prefix_median_mad(
    arr: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(median, MAD)`` of every prefix ``arr[:end + 1]``, vectorised.

    Equivalent to ``np.median(arr[:e + 1])`` / ``np.median(np.abs(arr[:e
    + 1] - med))`` per end index — same order statistics, same midpoint
    arithmetic, hence bitwise-identical for the finite series the engine
    feeds it — but with two padded sorts instead of O(window)
    separate numpy reductions (the growing-prefix head of the long
    window made ``offline_grid`` median-dispatch-bound).  Padding is
    ``+inf``, which sorts after every finite value.
    """
    if ends.size == 0:
        return np.empty(0), np.empty(0)
    lengths = ends + 1
    width = int(lengths[-1])
    pad = np.arange(width)[None, :] >= lengths[:, None]
    values = np.where(pad, np.inf, arr[None, :width])
    med = _sorted_mid(np.sort(values, axis=1), lengths)
    deviations = np.abs(arr[None, :width] - med[:, None])
    deviations[pad] = np.inf
    mad = _sorted_mid(np.sort(deviations, axis=1), lengths)
    return med, mad


def _dense_window_median_mad(
    arr: np.ndarray, w: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(median, MAD)`` of every full window — the dense reference.

    The historical ``np.median`` over ``sliding_window_view`` rows; kept
    both as the small-window fast path and as the bitwise reference the
    sorted-window path is tested against.
    """
    rows = sliding_window_view(arr, w)
    med = np.median(rows, axis=1)
    mad = np.median(np.abs(rows - med[:, None]), axis=1)
    return med, mad


def _kth_dev(win: list, mid: float, lo_i: int, w: int, k: int) -> float:
    """``k``-th smallest absolute deviation ``|x - mid|`` over a sorted window.

    The deviations of an ascending window around its median form two
    virtual ascending arrays — ``L[i] = mid - win[lo_i - i]`` for the
    lower half (non-negative because ``mid >= win[lo_i]``) and ``R[j] =
    win[lo_i + 1 + j] - mid`` for the upper — so the k-th smallest
    deviation comes from the classic two-sorted-arrays selection in
    O(log k) probes, no materialised deviation array.  IEEE gives
    ``mid - x == abs(x - mid)`` exactly for ``x <= mid`` (negation of a
    correctly-rounded difference is exact), so each probed value is
    bit-for-bit the one the dense path sorts.
    """
    nl = lo_i + 1
    nr = w - 1 - lo_i
    i = j = 0
    while True:
        if i == nl:
            return win[lo_i + 1 + j + k] - mid
        if j == nr:
            return mid - win[lo_i - (i + k)]
        if k == 0:
            a = mid - win[lo_i - i]
            b = win[lo_i + 1 + j] - mid
            return a if a <= b else b
        half = (k + 1) // 2
        ia = min(i + half, nl) - 1
        ib = min(j + half, nr) - 1
        a = mid - win[lo_i - ia]
        b = win[lo_i + 1 + ib] - mid
        if a <= b:
            k -= ia - i + 1
            i = ia + 1
        else:
            k -= ib - j + 1
            j = ib + 1


def _sorted_window_median_mad(
    arr: np.ndarray, w: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(median, MAD)`` of every full window via an indexable sorted list.

    Maintains the current window as an ascending python list updated by
    ``bisect``/``insort`` (O(w) C-level memmove per step, no re-sort) and
    reads medians as direct order statistics: ``win[(w - 1) // 2]`` for
    odd ``w`` — exactly the element ``np.median`` selects — and the
    correctly-rounded midpoint ``(lo + hi) / 2.0`` of the two middle
    elements for even ``w``, which is bitwise ``np.mean`` of that pair.
    MADs come from :func:`_kth_dev` without materialising deviations.
    Output is bit-for-bit :func:`_dense_window_median_mad` for finite
    input (the per-instant ``np.median`` oracle in
    ``tests/test_detector_oracles.py`` enforces it on tied values, odd and
    even ``w``); callers gate non-finite input to the dense path.
    """
    vals = arr.tolist()
    n = len(vals)
    m = n - w + 1
    med = np.empty(m)
    mad = np.empty(m)
    win = sorted(vals[:w])
    lo_i = (w - 1) // 2
    hi_i = w // 2
    odd = lo_i == hi_i
    for i in range(m):
        if i:
            del win[bisect_left(win, vals[i - 1])]
            insort(win, vals[i + w - 1])
        lo = win[lo_i]
        mid = lo if odd else (lo + win[hi_i]) / 2.0
        med[i] = mid
        if odd:
            mad[i] = _kth_dev(win, mid, lo_i, w, lo_i)
        else:
            d0 = _kth_dev(win, mid, lo_i, w, lo_i)
            d1 = _kth_dev(win, mid, lo_i, w, hi_i)
            mad[i] = (d0 + d1) / 2.0
    return med, mad


def _window_median_mad(
    arr: np.ndarray, w: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Full-window rolling ``(median, MAD)``, dispatched by window size.

    Both paths are bitwise-identical on finite data; non-finite values
    (which would break sorted-list ordering) always take the dense path.
    """
    if arr.size - w + 1 <= 0:
        return np.empty(0), np.empty(0)
    if w >= _SORTED_MEDIAN_MIN_W and np.isfinite(arr).all():
        return _sorted_window_median_mad(arr, w)
    return _dense_window_median_mad(arr, w)


@register_detector
@dataclass(frozen=True)
class EmaMadDetector:
    """EMA smoothing + short-window energy + long-window MAD deviation."""

    name: ClassVar[str] = "ema_mad"

    ema_alpha: float = 0.3
    short_window: int = 30
    long_window: int = 120
    min_long: int = 10
    threshold_scale: float = 3.0
    dev_factor: float = 3.0
    down_ratio: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 < self.ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must be in (0, 1], got {self.ema_alpha}")
        if self.short_window < 2:
            raise ValueError(f"short_window must be >= 2, got {self.short_window}")
        if self.long_window < self.short_window:
            raise ValueError(
                "long_window must be >= short_window, got "
                f"{self.long_window} < {self.short_window}"
            )
        if not 2 <= self.min_long <= self.long_window:
            raise ValueError(
                f"min_long must be in [2, long_window], got {self.min_long}"
            )
        if self.threshold_scale <= 0.0:
            raise ValueError(
                f"threshold_scale must be > 0, got {self.threshold_scale}"
            )
        if self.dev_factor <= 0.0:
            raise ValueError(f"dev_factor must be > 0, got {self.dev_factor}")
        if not 0.0 < self.down_ratio <= 1.0:
            raise ValueError(f"down_ratio must be in (0, 1], got {self.down_ratio}")

    def offline_grid(self, std_sums, config, init_samples: int) -> DetectionGrid:
        return column_grid(self, std_sums, config, init_samples)

    def _median_mad(
        self, ema: np.ndarray, new: int, seen: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Long-window ``(median, MAD)`` at the last ``new`` entries of ``ema``.

        Laid out like :func:`repro.sliding.sliding` with ``first =
        min_long - 1``: NaN until ``min_long`` values exist, then prefix
        statistics in one vectorised pass, then full windows.
        """
        long_w = self.long_window
        tail = ema.size - new
        med = np.full(new, np.nan)
        mad = np.full(new, np.nan)
        lo = max(self.min_long - 1 - seen, 0)
        full = max(long_w - 1 - seen, 0)
        hi = min(full, new)
        if lo < hi:
            med[lo:hi], mad[lo:hi] = _prefix_median_mad(
                ema, tail + np.arange(lo, hi)
            )
        if full < new:
            med[full:], mad[full:] = _window_median_mad(
                ema[tail + full - long_w + 1 :], long_w
            )
        return med, mad

    def _hysteresis(self, j, stds, ema, med, mad, eff, down, active):
        """``(decisions, active)`` of the walk over instants ``j`` onwards.

        Vectorised trigger/exit evidence, then the inherently sequential
        two-state hysteresis over plain python bools, starting from
        ``active``; the engine runs it on its post-init instants.
        """
        stds, ema, med, mad = stds[j:], ema[j:], med[j:], mad[j:]
        rs = np.where(mad > _MAD_TINY, mad * _MAD_SIGMA, 0.0)
        dev = np.zeros(stds.size)
        robust = rs > _MAD_TINY
        dev[robust] = np.abs(ema - med)[robust] / rs[robust]
        trig = np.where(
            np.isnan(med), stds > eff, (dev > self.dev_factor) | (stds > eff)
        )
        decisions = np.empty(stds.size, dtype=np.int8)
        exits = (stds < down).tolist()
        for i, (trigger, exit_) in enumerate(zip(trig.tolist(), exits)):
            active = not exit_ if active else trigger
            decisions[i] = active
        return decisions, active

    def streaming_engine(self, config, init_samples: int) -> "EmaMadEngine":
        return EmaMadEngine(self, init_samples)


class EmaMadEngine:
    """Incremental :class:`EmaMadDetector` over one scalar series.

    Bounded state: the EMA accumulator, a :class:`~repro.sliding.Carry` of
    the last ``long_window - 1`` *smoothed* values (one carry serves both
    windows since ``long_window >= short_window``), the init-window
    calibration buffer and the hysteresis flag.  Each ``extend`` reduces
    the carried values plus the batch, so the concatenated output is the
    same whatever the batch splits.
    """

    def __init__(self, detector: EmaMadDetector, init_samples: int) -> None:
        if init_samples < 2:
            raise ValueError(f"init_samples must be >= 2, got {init_samples}")
        self._det = detector
        self._init = int(init_samples)
        self._ema_last: Optional[float] = None
        self._carry = Carry(detector.long_window - 1, ["ema"])
        self._calib: List[float] = []
        self._eff: Optional[float] = None
        self._down = np.nan
        self._active = False

    def snapshot(self) -> dict:
        """JSON-ready bounded state (``down`` may be NaN pre-calibration)."""
        carry = self._carry.snapshot()
        return {
            "count": carry["count"],
            "ema_last": self._ema_last,
            "carry": carry["tails"][0],
            "calib": list(self._calib),
            "eff": self._eff,
            "down": self._down,
            "active": self._active,
        }

    def restore(self, state: dict) -> None:
        """Overwrite the mutable state from a :meth:`snapshot` dict."""
        eff, down = state["eff"], float(state["down"])
        check_fields(
            calibration_rules(state, self._init)
            + [
                (
                    "ema_last",
                    (state["ema_last"] is None) == (state["count"] == 0),
                    "must be null exactly when count is 0",
                ),
                (
                    "down",
                    np.isnan(down)
                    if eff is None
                    else down == eff * self._det.down_ratio,
                    "must be NaN before calibration, eff * down_ratio after",
                ),
                (
                    "active",
                    eff is not None or not state["active"],
                    "must be false before calibration",
                ),
            ]
        )
        self._carry.restore({"count": state["count"], "tails": [state["carry"]]})
        ema_last = state["ema_last"]
        self._ema_last = None if ema_last is None else float(ema_last)
        self._calib = [float(v) for v in state["calib"]]
        self._eff = None if eff is None else float(eff)
        self._down = down
        self._active = bool(state["active"])

    def extend(self, values) -> Tuple[np.ndarray, np.ndarray]:
        """Consume one batch; return its (decisions, thresholds)."""
        det = self._det
        batch = np.asarray(values, dtype=float).ravel()
        m = batch.size
        decisions = np.full(m, -1, dtype=np.int8)
        thresholds = np.full(m, np.nan)
        ema_b, self._ema_last = _ema_series(batch, det.ema_alpha, self._ema_last)
        (ext,), c0 = self._carry.push(ema_b[:, None])
        stds_b = sliding(ext, det.short_window, np.std, new=m, seen=c0, first=1)
        med_b, mad_b = det._median_mad(ext, m, c0)

        if self._eff is None:
            # Calibrate once the init window's stds (positions 1 ..
            # init_samples - 1) have all been seen.
            lo, hi = max(1 - c0, 0), max(self._init - c0, 0)
            self._calib.extend(stds_b[lo:hi].tolist())
            if c0 + m >= self._init:
                self._eff = calibrated_threshold(
                    self._calib, det.threshold_scale, _EFF_FLOOR
                )
                self._down = self._eff * det.down_ratio
                self._calib = []
        if self._eff is not None:
            thresholds[max(self._init - 1 - c0, 0) :] = self._eff
            j = max(self._init - c0, 0)
            decisions[j:], self._active = det._hysteresis(
                j, stds_b, ema_b, med_b, mad_b, self._eff, self._down, self._active
            )
        return decisions, thresholds
