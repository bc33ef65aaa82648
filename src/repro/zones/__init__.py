"""Zone-occupancy inference — the paper's localisation "future work".

A :class:`ZoneMap` derived from the office layout knows which links cross
which zone, :class:`AttenuationExtractor` holds each link's log-distance
baseline, and :class:`ZoneEngine` (built by
:meth:`ZoneOccupancyEstimator.streaming_engine`) turns crossing-link
attenuation — baseline minus observed RSSI — into a per-instant
occupied-zone estimate, whether it runs live inside a detector or over a
recorded day (:meth:`ZoneOccupancyEstimator.day_grid`).
:func:`score_walks` scores that estimate against ground-truth walker
trajectories.
"""

from .attenuation import AttenuationExtractor
from .estimator import (
    ZoneAccuracy,
    ZoneEngine,
    ZoneGrid,
    ZoneOccupancyEstimator,
    score_walks,
)
from .map import Zone, ZoneMap, stream_segments

__all__ = [
    "AttenuationExtractor",
    "Zone",
    "ZoneAccuracy",
    "ZoneEngine",
    "ZoneGrid",
    "ZoneMap",
    "ZoneOccupancyEstimator",
    "score_walks",
    "stream_segments",
]
