"""Zone geometry: which radio links cross which part of the office.

The paper's localisation idea (and the senseye exemplars' zone beliefs)
rests on one geometric fact: a person standing in a zone attenuates
exactly the links whose line-of-sight segment crosses that zone.  A
:class:`ZoneMap` binds a rectangular partition of the office floor plan
(:meth:`repro.radio.office.OfficeLayout.grid_zones`) to the directed
streams crossing each cell, computed by Liang-Barsky segment clipping
over the full ``m * (m - 1)`` stream enumeration.

Zones are frozen dataclasses of JSON primitives, so a map round-trips
through the sweep-store component codec and through plain-JSON streaming
snapshots (:meth:`ZoneMap.to_jsonable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..radio.geometry import Point
from ..radio.links import stream_id
from ..radio.office import OfficeLayout

__all__ = ["Zone", "ZoneMap", "stream_segments"]


def stream_segments(
    layout: OfficeLayout, sensor_ids: Optional[Sequence[str]] = None
) -> Dict[str, Tuple[Point, Point]]:
    """Endpoint pair of every directed stream between the given sensors.

    Enumeration order matches :func:`repro.radio.links.enumerate_stream_ids`
    (all ordered transmitter/receiver pairs), which is also the column
    order of recorded traces.
    """
    ids = list(sensor_ids) if sensor_ids is not None else layout.sensor_ids
    positions = layout.sensor_positions()
    segments: Dict[str, Tuple[Point, Point]] = {}
    for tx in ids:
        for rx in ids:
            if tx != rx:
                segments[stream_id(tx, rx)] = (positions[tx], positions[rx])
    return segments


def _segment_crosses_rect(
    a: Point,
    b: Point,
    x_min: float,
    y_min: float,
    x_max: float,
    y_max: float,
) -> bool:
    """Liang-Barsky test: does segment ``a->b`` intersect the closed rect?"""
    t0, t1 = 0.0, 1.0
    dx = b.x - a.x
    dy = b.y - a.y
    for p, q in (
        (-dx, a.x - x_min),
        (dx, x_max - a.x),
        (-dy, a.y - y_min),
        (dy, y_max - a.y),
    ):
        if p == 0.0:
            if q < 0.0:
                return False
        else:
            r = q / p
            if p < 0.0:
                if r > t1:
                    return False
                if r > t0:
                    t0 = r
            else:
                if r < t1:
                    t1 = r
                if r < t0:
                    return False
    return t0 <= t1


@dataclass(frozen=True)
class Zone:
    """One rectangular zone and the directed streams crossing it."""

    name: str
    x_min: float
    y_min: float
    x_max: float
    y_max: float
    stream_ids: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError(f"zone {self.name!r} has an empty rectangle")

    def contains(self, p: Point) -> bool:
        """Whether a point lies in the closed zone rectangle."""
        return (
            self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max
        )


@dataclass(frozen=True)
class ZoneMap:
    """An ordered set of zones partitioning (part of) the office floor."""

    zones: Tuple[Zone, ...]

    def __post_init__(self) -> None:
        if not self.zones:
            raise ValueError("a zone map needs at least one zone")
        names = [z.name for z in self.zones]
        if len(set(names)) != len(names):
            raise ValueError("zone names must be unique")

    @classmethod
    def from_layout(
        cls,
        layout: OfficeLayout,
        nx: int = 3,
        ny: int = 1,
        sensor_ids: Optional[Sequence[str]] = None,
    ) -> "ZoneMap":
        """Grid partition of the office with per-zone crossing links.

        A stream belongs to every zone its sensor-to-sensor segment
        intersects (closed intersection, so wall-hugging links count for
        the cells they run along).
        """
        segments = stream_segments(layout, sensor_ids)
        zones = []
        for name, x0, y0, x1, y1 in layout.grid_zones(nx, ny):
            crossing = tuple(
                sid
                for sid, (a, b) in segments.items()
                if _segment_crosses_rect(a, b, x0, y0, x1, y1)
            )
            zones.append(
                Zone(
                    name=name,
                    x_min=x0,
                    y_min=y0,
                    x_max=x1,
                    y_max=y1,
                    stream_ids=crossing,
                )
            )
        return cls(zones=tuple(zones))

    @property
    def n_zones(self) -> int:
        return len(self.zones)

    def zone_of(self, p: Point) -> int:
        """Index of the first zone containing ``p``; ``-1`` if none.

        On shared cell edges the lowest zone index wins — the same
        tie-break :func:`numpy.argmax` applies to equal zone scores, so
        ground truth and estimate agree on boundaries by construction.
        """
        for i, z in enumerate(self.zones):
            if z.contains(p):
                return i
        return -1

    # ------------------------------------------------------------------ #
    # Plain-JSON round-trip for streaming snapshots (codec-independent).
    def to_jsonable(self) -> List[Dict[str, object]]:
        return [
            {
                "name": z.name,
                "bounds": [z.x_min, z.y_min, z.x_max, z.y_max],
                "stream_ids": list(z.stream_ids),
            }
            for z in self.zones
        ]

    @classmethod
    def from_jsonable(cls, data: Sequence[Mapping[str, object]]) -> "ZoneMap":
        zones = tuple(
            Zone(
                name=str(entry["name"]),
                x_min=float(entry["bounds"][0]),
                y_min=float(entry["bounds"][1]),
                x_max=float(entry["bounds"][2]),
                y_max=float(entry["bounds"][3]),
                stream_ids=tuple(entry["stream_ids"]),
            )
            for entry in data
        )
        return cls(zones=zones)
