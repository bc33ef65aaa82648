"""Reusable columnar feature pipeline.

The evaluation engines, the detector zoo and the zone-occupancy workload
all consume the same shape of input: per-day ``(times, matrix,
column_of_stream)`` blocks derived from a campaign's RSSI traces.  This
package turns the derivation into a first-class seam:

- :mod:`repro.features.base` defines the extractor contract (any frozen
  config dataclass with a ``name`` and a ``day_block`` method) and the
  ``EXTRACTORS`` registry; caches and sweep stores key on an extractor's
  :func:`repro.identity.digest` — *what* was extracted, not identity.
- :mod:`repro.features.store` provides :class:`FeatureStore`, the
  per-recording cache of extractor blocks keyed by (extractor digest,
  day).  It validates day membership, so a ``DayRecording``
  from a different campaign can never alias another recording's cache.
- :mod:`repro.features.rolling` provides :class:`RollingStdExtractor`,
  the per-stream rolling std behind ``CampaignStdFeatures``: the live
  detector's ``s_t`` convention (partial windows from the second sample),
  so sweep evaluations see the numbers a deployed router sees.
- :mod:`repro.features.window` provides :func:`window_statistics`, RE's
  per-stream variance, histogram entropy and autocorrelation of every
  ``[t1, t1 + t_delta]`` window, one reduction over a block of windows.
"""

from .base import (
    EXTRACTORS,
    FeatureBlock,
    extractor_names,
    get_extractor,
    register_extractor,
)
from .rolling import RollingStdExtractor
from .store import FeatureStore
from .window import window_statistics

__all__ = [
    "EXTRACTORS",
    "FeatureBlock",
    "FeatureStore",
    "RollingStdExtractor",
    "extractor_names",
    "get_extractor",
    "register_extractor",
    "window_statistics",
]
