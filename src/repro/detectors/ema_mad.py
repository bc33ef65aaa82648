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
depend on how the series is split into batches.  An ``(m, chains)``
block advances every column as its own chain (the sweep's MD grid): the
windows of all chains are rows of one :func:`~repro.sliding.sliding`
call, while the EMA recursion and the hysteresis walk loop per chain.
``tests/test_detector_oracles.py`` checks it bitwise against naive
per-instant loops (``np.median`` windows and the hysteresis walk).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

import numpy as np

from ..sliding import Carry, sliding
from .base import (
    calibrated_threshold,
    calibration_rules,
    chain_block,
    check_fields,
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
    values: list, alpha: float, e: Optional[float], out: np.ndarray
) -> Optional[float]:
    """Python-float EMA recursion from state ``e`` into ``out``; the last state."""
    for i, v in enumerate(values):
        e = v if e is None else alpha * v + (1.0 - alpha) * e
        out[i] = e
    return e


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

    def _hysteresis(self, stds, ema, med, mad, eff, down, active):
        """``(decisions, active)`` of each chain's walk over its row of the
        ``(chains, n)`` statistics: vectorised trigger/exit evidence, then
        the sequential two-state hysteresis over python bools from its flag.
        """
        rs = np.where(mad > _MAD_TINY, mad * _MAD_SIGMA, 0.0)
        dev = np.divide(
            np.abs(ema - med), rs, out=np.zeros(stds.shape), where=rs > _MAD_TINY
        )
        trig = np.where(
            np.isnan(med), stds > eff, (dev > self.dev_factor) | (stds > eff)
        )
        decisions, flags = [], []
        exits = (stds < down).tolist()
        for triggers, chain_exits, state in zip(trig.tolist(), exits, active):
            walk = []
            for trigger, exit_ in zip(triggers, chain_exits):
                state = not exit_ if state else trigger
                walk.append(state)
            decisions.append(walk)
            flags.append(state)
        return decisions, flags

    def streaming_engine(self, config, init_samples: int) -> "EmaMadEngine":
        return EmaMadEngine(self, init_samples)


class EmaMadEngine:
    """Incremental :class:`EmaMadDetector` over lockstep chains.

    Bounded state per chain: the EMA accumulator, a row of a
    :class:`~repro.sliding.Carry` of the last ``long_window - 1``
    *smoothed* values (one carry serves both windows since ``long_window
    >= short_window``), the init-window calibration buffer and the
    hysteresis flag.  Each ``extend`` reduces the carried values plus the
    batch, so the concatenated output is the same whatever the batch
    splits.  The snapshots hold a single chain.
    """

    def __init__(self, detector: EmaMadDetector, init_samples: int) -> None:
        if init_samples < 2:
            raise ValueError(f"init_samples must be >= 2, got {init_samples}")
        self._det = detector
        self._init = int(init_samples)
        self._start(1)

    def _start(self, chains: int) -> None:
        """Fresh state for ``chains`` chains."""
        self._chains = chains
        self._ema_last: list = [None] * chains
        self._carry = Carry(self._det.long_window - 1, ["ema"] * chains)
        self._calib = np.empty((0, chains))  # init-window stds
        self._eff: Optional[np.ndarray] = None  # (chains, 1) thresholds
        self._active = [False] * chains

    def snapshot(self) -> dict:
        """JSON-ready bounded state (``down`` may be NaN pre-calibration)."""
        if self._chains != 1:
            raise ValueError("only a single-chain engine has a snapshot")
        carry = self._carry.snapshot()
        eff = None if self._eff is None else float(self._eff[0, 0])
        return {
            "count": carry["count"],
            "ema_last": self._ema_last[0],
            "carry": carry["tails"][0],
            "calib": self._calib[:, 0].tolist(),
            "eff": eff,
            "down": np.nan if eff is None else eff * self._det.down_ratio,
            "active": self._active[0],
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
        self._start(1)
        self._carry.restore({"count": state["count"], "tails": [state["carry"]]})
        ema_last = state["ema_last"]
        self._ema_last = [None if ema_last is None else float(ema_last)]
        self._calib = np.array(state["calib"], dtype=float).reshape(-1, 1)
        self._eff = None if eff is None else np.array([[float(eff)]])
        self._active = [bool(state["active"])]

    def extend(self, values) -> Tuple[np.ndarray, np.ndarray]:
        """Consume one batch or block; return its (decisions, thresholds)."""
        det = self._det
        consumed = self._carry.count > 0
        block = chain_block(values, self._chains, consumed)
        m, chains = block.shape
        if not consumed and chains != self._chains:
            self._start(chains)
        ema = np.empty((chains, m))  # chain-major, like the carry's rows
        for c, column in enumerate(block.T.tolist()):
            self._ema_last[c] = _ema_series(
                column, det.ema_alpha, self._ema_last[c], ema[c]
            )
        ext, c0 = self._carry.push(ema.T)
        # A single chain reduces its row as a 1-D stream (same bits): numpy
        # sorts and reduces 2-D window views faster than 3-D ones.
        rows = ext[0] if chains == 1 else ext
        stds = sliding(rows, det.short_window, np.std, new=m, seen=c0, first=1)
        med, mad = det._median_mad(rows, m, c0)
        if chains == 1:
            stds, med, mad = stds[None], med[None], mad[None]
        decisions = np.full((chains, m), -1, dtype=np.int8)
        thresholds = np.full((chains, m), np.nan)

        if self._eff is None:
            # Calibrate once the init window's stds (positions 1 ..
            # init_samples - 1) have all been seen.
            lo, hi = max(1 - c0, 0), max(self._init - c0, 0)
            self._calib = np.concatenate((self._calib, stds[:, lo:hi].T))
            if c0 + m >= self._init:
                self._eff = calibrated_threshold(
                    self._calib, det.threshold_scale, _EFF_FLOOR
                )[:, None]
                self._calib = self._calib[:0]
        if self._eff is not None:
            thresholds[:, max(self._init - 1 - c0, 0) :] = self._eff
            j = max(self._init - c0, 0)
            decisions[:, j:], self._active = det._hysteresis(
                stds[:, j:], ema[:, j:], med[:, j:], mad[:, j:],
                self._eff, self._eff * det.down_ratio, self._active,
            )
        if np.ndim(values) == 1:
            return decisions[0], thresholds[0]
        return decisions.T, thresholds.T
