"""Planar geometry primitives for the office radio simulator.

The simulated office is a 2-D floor plan: sensors, workstations, the door
and walking users all live in the plane (the paper mounts all sensors at the
same height — one metre, desk level — so a 2-D model captures the relevant
line-of-sight geometry).

Provides points and linear interpolation between them.  The body-shadowing
geometry (excess path length, body-to-link distance) is computed on arrays
by :meth:`repro.radio.channel.RadioChannel._shadowing_block`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Point", "interpolate"]


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


def interpolate(a: Point, b: Point, fraction: float) -> Point:
    """Point a fraction of the way from ``a`` to ``b`` (fraction in [0, 1])."""
    fraction = min(1.0, max(0.0, fraction))
    return Point(a.x + (b.x - a.x) * fraction, a.y + (b.y - a.y) * fraction)
