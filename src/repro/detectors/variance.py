"""Rolling-variance threshold detector (SNIPPETS.md Snippets 1–2 lineage).

The senseye ``_rssi_variance`` path reduced presence detection to "the
population variance of the last ``window`` samples exceeds a threshold"
(with fewer than two samples the variance is defined as ``0.0``).  This
detector is that idea applied to the std-sum series: no smoothing, no
hysteresis — the cheapest member of the zoo and the natural baseline the
sweep reports compare the others against.

As with :class:`~repro.detectors.ema_mad.EmaMadDetector`, the absolute
threshold of the exemplar becomes a *calibrated* one: the effective
threshold is ``threshold_scale`` times the median rolling variance seen
over the initialisation window.  Decisions are ``-1`` during
initialisation; the threshold trace first materialises at
``init_samples - 1`` (the KDE grid's convention).

The detector has one engine, :class:`VarianceEngine`, which takes rolling
variances through :mod:`repro.sliding`, so its output does not depend on
how the series is split into batches; an ``(m, chains)`` block advances
every column as its own chain in the same call (the sweep's MD grid).
``tests/test_detector_oracles.py`` checks it bitwise against a naive
per-instant loop.
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

__all__ = ["VarianceThresholdDetector"]

# Same role as the ema_mad floor: an all-quiet init window must not
# calibrate a zero threshold (every comparison would fire on noise ==).
_EFF_FLOOR = 1e-12


@register_detector
@dataclass(frozen=True)
class VarianceThresholdDetector:
    """Population variance of the last ``window`` std sums vs threshold."""

    name: ClassVar[str] = "variance"

    window: int = 10
    threshold_scale: float = 4.0

    def __post_init__(self) -> None:
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.threshold_scale <= 0.0:
            raise ValueError(
                f"threshold_scale must be > 0, got {self.threshold_scale}"
            )

    def streaming_engine(self, config, init_samples: int) -> "VarianceEngine":
        return VarianceEngine(self, init_samples)


class VarianceEngine:
    """Incremental :class:`VarianceThresholdDetector` over lockstep chains.

    State is a :class:`~repro.sliding.Carry` of each chain's last ``window
    - 1`` values, the calibration buffer and — once calibrated — the
    effective thresholds.  Stateless past calibration: each decision reads
    only the current rolling variance, so the post-init batch path is
    fully vectorised.  The snapshots hold a single chain.
    """

    def __init__(self, detector: VarianceThresholdDetector, init_samples: int) -> None:
        if init_samples < 2:
            raise ValueError(f"init_samples must be >= 2, got {init_samples}")
        self._det = detector
        self._init = int(init_samples)
        self._start(1)

    def _start(self, chains: int) -> None:
        """Fresh state for ``chains`` chains."""
        self._chains = chains
        self._carry = Carry(self._det.window - 1, ["s_t"] * chains)
        self._calib = np.empty((0, chains))  # init-window variances
        self._eff: Optional[np.ndarray] = None  # (chains,) thresholds

    def snapshot(self) -> dict:
        """JSON-ready bounded state of the rolling-variance engine."""
        if self._chains != 1:
            raise ValueError("only a single-chain engine has a snapshot")
        carry = self._carry.snapshot()
        return {
            "count": carry["count"],
            "carry": carry["tails"][0],
            "calib": self._calib[:, 0].tolist(),
            "eff": None if self._eff is None else float(self._eff[0]),
        }

    def restore(self, state: dict) -> None:
        """Overwrite the mutable state from a :meth:`snapshot` dict."""
        check_fields(calibration_rules(state, self._init))
        self._start(1)
        self._carry.restore({"count": state["count"], "tails": [state["carry"]]})
        self._calib = np.array(state["calib"], dtype=float).reshape(-1, 1)
        eff = state["eff"]
        self._eff = None if eff is None else np.array([float(eff)])

    def extend(self, values) -> Tuple[np.ndarray, np.ndarray]:
        """Consume one batch or block; return its (decisions, thresholds)."""
        consumed = self._carry.count > 0
        block = chain_block(values, self._chains, consumed)
        m, chains = block.shape
        if not consumed and chains != self._chains:
            self._start(chains)
        decisions = np.full((m, chains), -1, dtype=np.int8)
        thresholds = np.full((m, chains), np.nan)
        ext, c0 = self._carry.push(block)
        var = sliding(
            ext, self._det.window, np.var, new=m, seen=c0, first=1, fill=0.0
        ).T

        # Calibrate once init_samples values have been seen, then compare.
        if self._eff is None:
            lo, hi = max(1 - c0, 0), max(self._init - c0, 0)
            self._calib = np.concatenate((self._calib, var[lo:hi]))
            if c0 + m >= self._init:
                self._eff = calibrated_threshold(
                    self._calib, self._det.threshold_scale, _EFF_FLOOR
                )
                self._calib = self._calib[:0]
        if self._eff is not None:
            thresholds[max(self._init - 1 - c0, 0) :] = self._eff
            j = max(self._init - c0, 0)
            decisions[j:] = var[j:] > self._eff
        if np.ndim(values) == 1:
            return decisions[:, 0], thresholds[:, 0]
        return decisions, thresholds
