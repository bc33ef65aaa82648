"""The columnar feature pipeline behind detection and RE.

Sweep evaluations and the live detector consume the same per-stream
rolling standard deviations, and RE the same per-window statistics, all
derived from a campaign's RSSI traces:

- :mod:`repro.features.rolling` provides :class:`RollingStdExtractor`,
  the per-stream rolling std behind ``CampaignStdFeatures``: the live
  detector's ``s_t`` convention (partial windows from the second sample),
  so sweep evaluations see the numbers a deployed router sees.
- :mod:`repro.features.store` provides :class:`FeatureStore`, the
  per-recording cache of those ``(times, matrix, columns)`` blocks
  (:data:`FeatureBlock`), one per std window and day, keyed by the
  extractor's :func:`repro.identity.digest` — *what* was extracted, not
  identity.  It validates day membership, so a ``DayRecording`` from a
  different campaign can never alias another recording's cache.
- :mod:`repro.features.window` provides :func:`window_statistics`, RE's
  per-stream variance, histogram entropy and autocorrelation of every
  ``[t1, t1 + t_delta]`` window, one reduction over a block of windows.
"""

from .rolling import RollingStdExtractor
from .store import FeatureBlock, FeatureStore
from .window import window_statistics

__all__ = [
    "FeatureBlock",
    "FeatureStore",
    "RollingStdExtractor",
    "window_statistics",
]
