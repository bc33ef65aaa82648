"""Link and stream enumeration for a sensor deployment.

With ``m`` sensors, FADEWICH observes ``m * (m - 1)`` directed streams: for
every ordered pair ``(d_i, d_j)`` the receiver ``d_j`` reports the RSSI of
packets transmitted by ``d_i`` (paper Section III, item 2).  Although the
propagation path of ``d_i -> d_j`` and ``d_j -> d_i`` is geometrically the
same, real hardware measures them independently (different radios,
different interference), so the two directed streams share a mean but have
independent noise.

This module provides the stream naming convention (``"d1-d2"`` = transmitter
d1, receiver d2), the enumeration order (fixed, so feature vectors align),
and a container binding each stream to its geometry and per-link fade level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .fading import LinkFadeLevel
from .geometry import Point
from .office import OfficeLayout

__all__ = ["Stream", "LinkSet", "stream_id", "enumerate_stream_ids"]


def stream_id(tx: str, rx: str) -> str:
    """Canonical stream identifier, matching the paper's ``di-dj`` notation."""
    if tx == rx:
        raise ValueError("a stream requires distinct transmitter and receiver")
    return f"{tx}-{rx}"


def enumerate_stream_ids(sensor_ids: List[str]) -> List[str]:
    """All ``m * (m - 1)`` directed stream ids in a stable order."""
    ids: List[str] = []
    for tx in sensor_ids:
        for rx in sensor_ids:
            if tx != rx:
                ids.append(stream_id(tx, rx))
    return ids


@dataclass(frozen=True)
class Stream:
    """One directed RSSI stream between two sensors.

    Attributes
    ----------
    tx_id, rx_id:
        Transmitter and receiver sensor ids.
    tx_position, rx_position:
        Their positions in the office plane.
    fade:
        The static per-link fade level governing this stream's sensitivity
        to motion and its quiescent noise.
    """

    tx_id: str
    rx_id: str
    tx_position: Point
    rx_position: Point
    fade: LinkFadeLevel

    @property
    def id(self) -> str:
        return stream_id(self.tx_id, self.rx_id)

    @property
    def length(self) -> float:
        """Link length in metres."""
        return self.tx_position.distance_to(self.rx_position)


class LinkSet:
    """The full set of directed streams of a sensor deployment.

    Fade levels for the two directions of the same sensor pair are drawn to
    be equal (the physical channel is reciprocal) while measurement noise is
    applied independently downstream.

    Parameters
    ----------
    layout:
        The office layout whose sensors define the streams.
    rng:
        Random generator used to draw per-link fade levels.
    min_sensitivity, max_sensitivity:
        Range of the fade-level sensitivities.
    """

    def __init__(
        self,
        layout: OfficeLayout,
        rng: np.random.Generator,
        *,
        min_sensitivity: float = 0.6,
        max_sensitivity: float = 1.6,
    ) -> None:
        if len(layout.sensors) < 2:
            raise ValueError("a LinkSet needs at least two sensors")
        self._layout = layout
        positions = layout.sensor_positions()
        pair_fades: Dict[Tuple[str, str], LinkFadeLevel] = {}
        streams: List[Stream] = []
        for tx in layout.sensor_ids:
            for rx in layout.sensor_ids:
                if tx == rx:
                    continue
                key = (min(tx, rx), max(tx, rx))
                if key not in pair_fades:
                    pair_fades[key] = LinkFadeLevel.draw(
                        rng,
                        min_sensitivity=min_sensitivity,
                        max_sensitivity=max_sensitivity,
                    )
                streams.append(
                    Stream(
                        tx_id=tx,
                        rx_id=rx,
                        tx_position=positions[tx],
                        rx_position=positions[rx],
                        fade=pair_fades[key],
                    )
                )
        self._streams = tuple(streams)
        self._by_id = {s.id: s for s in self._streams}

    # ------------------------------------------------------------------ #
    @property
    def layout(self) -> OfficeLayout:
        return self._layout

    @property
    def streams(self) -> Tuple[Stream, ...]:
        """All streams in enumeration order."""
        return self._streams

    @property
    def stream_ids(self) -> List[str]:
        """Stream ids in enumeration order (feature-vector order)."""
        return [s.id for s in self._streams]

    def __len__(self) -> int:
        return len(self._streams)

    def __iter__(self):
        return iter(self._streams)

    def get(self, sid: str) -> Stream:
        """Look up a stream by its ``"di-dj"`` id."""
        if sid not in self._by_id:
            raise KeyError(f"no stream {sid!r}")
        return self._by_id[sid]

    def subset(self, sensor_ids: List[str], rng: np.random.Generator) -> "LinkSet":
        """A new LinkSet over a subset of sensors (fresh fade levels)."""
        return LinkSet(self._layout.with_sensors(sensor_ids), rng)
