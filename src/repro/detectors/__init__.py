"""Pluggable detector zoo: one interface across scalar, columnar and
streaming paths.

Every detector is a frozen config dataclass with a registry ``name`` and
one engine: :meth:`streaming_engine` builds it, and :meth:`offline_grid`
runs it over whole columns, so offline and streaming agree bitwise under
arbitrary batch splits (see :mod:`repro.detectors.base` for the full
contract).  The zoo ships the paper's KDE-MD detector (a pure port
— golden numbers unchanged), the EMA+MAD hysteresis detector and the
rolling-variance threshold baseline; *detector* is a first-class
``ScenarioGrid`` axis, so sweeps compare members head-to-head on
identical recordings.
"""

from .base import (
    DETECTORS,
    DetectionGrid,
    detector_names,
    get_detector,
    register_detector,
)
from .ema_mad import EmaMadDetector
from .kde_md import KdeMdDetector
from .variance import VarianceThresholdDetector

__all__ = [
    "DETECTORS",
    "DetectionGrid",
    "EmaMadDetector",
    "KdeMdDetector",
    "VarianceThresholdDetector",
    "detector_names",
    "get_detector",
    "register_detector",
]
