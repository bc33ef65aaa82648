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
values, and both windows reduced by :func:`repro.sliding.sliding` — the
short one by ``np.std``, the long one by sorting each window for the
median and its absolute deviations for the MAD — so its output does not
depend on how the series is split into batches.
:meth:`EmaMadDetector.offline_grid` runs it once over each whole column.
``tests/test_detector_oracles.py`` checks it bitwise against naive
per-instant loops (``np.median`` windows and the hysteresis walk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

import numpy as np

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


def _sorted_median(ordered: np.ndarray) -> np.ndarray:
    """``np.median`` of rows already sorted along the last axis, bit for bit.

    numpy takes ``np.mean`` of the middle one or two order statistics — a
    sum from ``+0.0``, so a ``-0.0`` median comes out ``+0.0`` — and
    returns a row's NaN wherever one sorts last.
    """
    n = ordered.shape[-1]
    hi = ordered[..., n // 2]
    if n % 2:
        med = hi + 0.0
    else:
        med = (ordered[..., n // 2 - 1] + hi + 0.0) / 2.0
    last = ordered[..., -1]
    return np.where(np.isnan(last), last, med)


def _median(rows: np.ndarray, axis: int = -1) -> np.ndarray:
    """``np.median`` of each row; ``axis`` is the ``-1`` that
    :func:`repro.sliding.sliding` passes."""
    return _sorted_median(np.sort(rows, axis=-1))


def _mad(rows: np.ndarray, axis: int = -1) -> np.ndarray:
    """``np.median(|row - np.median(row)|)`` of each row, bit for bit.

    The sorted row's deviations are the same multiset, so they are
    computed and sorted in place in its buffer: a fresh window-sized
    temporary per call would cost more than the sort itself.
    """
    dev = np.sort(rows, axis=-1)
    dev -= _sorted_median(dev)[..., None]
    np.abs(dev, out=dev)
    dev.sort(axis=-1)
    return _sorted_median(dev)


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

        :func:`repro.sliding.sliding`'s layout with ``first = min_long -
        1``: NaN until ``min_long`` values exist, then the statistics of
        the prefix, then of full windows.
        """
        w, first = self.long_window, self.min_long - 1
        return (
            sliding(ema, w, _median, new=new, seen=seen, first=first),
            sliding(ema, w, _mad, new=new, seen=seen, first=first),
        )

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
