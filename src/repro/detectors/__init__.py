"""Pluggable detector zoo: one engine per detector, from sweep to router.

Every detector is a frozen config dataclass with a registry ``name`` and
one entry point, :meth:`streaming_engine`: its engine takes one series or
an ``(m, chains)`` block of lockstep chains in any batch split, so the
sweep's MD grid and the live detector agree bitwise (see
:mod:`repro.detectors.base` for the full contract).  The zoo ships the
paper's KDE-MD detector (a pure port — golden numbers unchanged), the
EMA+MAD hysteresis detector and the rolling-variance threshold baseline;
*detector* is a first-class ``ScenarioGrid`` axis, so sweeps compare
members head-to-head on identical recordings.
"""

from .base import (
    DETECTORS,
    detector_names,
    get_detector,
    register_detector,
)
from .ema_mad import EmaMadDetector
from .kde_md import KdeMdDetector
from .variance import VarianceThresholdDetector

__all__ = [
    "DETECTORS",
    "EmaMadDetector",
    "KdeMdDetector",
    "VarianceThresholdDetector",
    "detector_names",
    "get_detector",
    "register_detector",
]
