"""Planar geometry primitives for the office radio simulator.

The simulated office is a 2-D floor plan: sensors, workstations, the door
and walking users all live in the plane (the paper mounts all sensors at the
same height — one metre, desk level — so a 2-D model captures the relevant
line-of-sight geometry).

Provides points, segments, distance computations and the excess-path-length
test used by the body-shadowing model: a human body affects a link when it
lies inside the thin ellipse whose foci are the link's endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

__all__ = [
    "Point",
    "Segment",
    "distance",
    "point_segment_distance",
    "excess_path_length",
    "path_length",
    "interpolate",
]


@dataclass(frozen=True)
class Point:
    """A point in the office plane, coordinates in metres."""

    x: float
    y: float

    def __iter__(self):
        yield self.x
        yield self.y

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to another point."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """A new point offset by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)


@dataclass(frozen=True)
class Segment:
    """A line segment between two points (e.g. a sensor-to-sensor link)."""

    a: Point
    b: Point

    @property
    def length(self) -> float:
        """Length of the segment in metres."""
        return self.a.distance_to(self.b)

    def midpoint(self) -> Point:
        return Point((self.a.x + self.b.x) / 2.0, (self.a.y + self.b.y) / 2.0)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two points."""
    return a.distance_to(b)


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    """Distance from point ``p`` to segment ``ab``.

    Degenerate segments (``a == b``) reduce to point-to-point distance.
    """
    ax, ay = a.x, a.y
    bx, by = b.x, b.y
    px, py = p.x, p.y
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq <= 1e-18:
        return p.distance_to(a)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
    t = min(1.0, max(0.0, t))
    closest = Point(ax + t * dx, ay + t * dy)
    return p.distance_to(closest)


def excess_path_length(p: Point, a: Point, b: Point) -> float:
    """Excess path length of point ``p`` relative to link ``ab``.

    Defined as ``|pa| + |pb| - |ab|``: how much longer the bent path through
    ``p`` is than the direct path.  Device-free localisation models (Patwari
    & Wilson) treat a link as obstructed when a body's excess path length is
    below a small threshold ``lambda`` — i.e. the body lies inside the thin
    ellipse with foci ``a`` and ``b``.
    """
    return p.distance_to(a) + p.distance_to(b) - a.distance_to(b)


def path_length(points: Iterable[Point]) -> float:
    """Total polyline length through the given waypoints."""
    pts: List[Point] = list(points)
    if len(pts) < 2:
        return 0.0
    return sum(pts[i].distance_to(pts[i + 1]) for i in range(len(pts) - 1))


def interpolate(a: Point, b: Point, fraction: float) -> Point:
    """Point a fraction of the way from ``a`` to ``b`` (fraction in [0, 1])."""
    fraction = min(1.0, max(0.0, fraction))
    return Point(a.x + (b.x - a.x) * fraction, a.y + (b.y - a.y) * fraction)
