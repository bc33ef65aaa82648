"""Per-link attenuation baseline: the expected quiescent RSSI of each link.

The senseye exemplars estimate free-space RSSI from link geometry and
read body shadowing as the gap between that baseline and the observation.
:class:`AttenuationExtractor` does the same against the repository's
log-distance model: for every directed stream the expected quiescent RSSI
is ``mean_rssi_dbm(link_length)`` under a configured
:class:`~repro.radio.pathloss.LogDistancePathLoss`, and
:class:`~repro.zones.estimator.ZoneEngine` reads ``expected - observed``
in dB as the link's attenuation — positive when a body (or noise) eats
signal, near zero on an idle link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..radio.office import OfficeLayout
from ..radio.pathloss import LogDistancePathLoss
from .map import stream_segments

__all__ = ["AttenuationExtractor"]


@dataclass(frozen=True)
class AttenuationExtractor:
    """The log-distance baseline that per-link attenuation is measured from.

    The path-loss parameters default to the simulator's channel defaults
    (exponent 3.0, 40 dB at 1 m, 4 dBm transmit power), so on a clean
    channel the attenuation of an idle link is exactly the injected noise.
    """

    tx_power_dbm: float = 4.0
    exponent: float = 3.0
    reference_distance: float = 1.0
    reference_loss_db: float = 40.0

    def __post_init__(self) -> None:
        if not self.reference_distance > 0:
            raise ValueError("reference_distance must be positive")

    def baseline(self, layout: OfficeLayout, stream_ids: Sequence[str]) -> np.ndarray:
        """Expected quiescent RSSI (dBm) per stream, in the given order."""
        pathloss = LogDistancePathLoss(
            exponent=self.exponent,
            reference_distance=self.reference_distance,
            reference_loss_db=self.reference_loss_db,
        )
        segments = stream_segments(layout)
        expected = np.empty(len(stream_ids))
        for j, sid in enumerate(stream_ids):
            if sid not in segments:
                raise KeyError(f"stream {sid!r} has no link in this layout")
            a, b = segments[sid]
            expected[j] = pathloss.mean_rssi_dbm(
                a.distance_to(b), tx_power_dbm=self.tx_power_dbm
            )
        return expected
