"""Walking trajectories through the office.

A trajectory is a time-parameterised path through waypoints.  The paper's
analysis assumes a walking speed of roughly 1.4 m/s plus a second or two to
stand up and open the door (Section VII-A, motivating the ~5 s peak of the
F-measure over t_delta).

Trajectories are pure data plus interpolation; the behaviour layer decides
*which* trajectories occur and when.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..radio.geometry import Point, interpolate

__all__ = ["Trajectory", "walk_through", "departure_trajectory", "entry_trajectory"]


@dataclass(frozen=True)
class Trajectory:
    """A piecewise-linear, constant-speed walk through waypoints.

    Attributes
    ----------
    start_time:
        When the walk begins (seconds).
    waypoints:
        Points visited in order.  Consecutive duplicate points are allowed
        and represent a pause only if ``segment_durations`` says so.
    segment_durations:
        Duration of each leg (len(waypoints) - 1 entries, seconds).
    """

    start_time: float
    waypoints: Tuple[Point, ...]
    segment_durations: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a trajectory needs at least two waypoints")
        if len(self.segment_durations) != len(self.waypoints) - 1:
            raise ValueError("need exactly one duration per segment")
        if any(d < 0 for d in self.segment_durations):
            raise ValueError("segment durations must be non-negative")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")

    @property
    def duration(self) -> float:
        """Total duration of the walk (seconds)."""
        return float(sum(self.segment_durations))

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def _interp_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(cums, durs, wx, wy)`` arrays, built once and cached.

        The cumulative boundaries come from a sequential running sum so the
        scalar and vectorised interpolation paths resolve a time to
        *exactly* the same segment and fraction.  Cached on the (frozen)
        instance because both engines call into these on hot paths.
        """
        cached = self.__dict__.get("_interp_cache")
        if cached is None:
            acc = 0.0
            cums: List[float] = []
            for d in self.segment_durations:
                acc = acc + d
                cums.append(acc)
            cached = (
                np.asarray(cums),
                np.asarray(self.segment_durations),
                np.asarray([p.x for p in self.waypoints]),
                np.asarray([p.y for p in self.waypoints]),
            )
            object.__setattr__(self, "_interp_cache", cached)
        return cached

    def position_at(self, t: float) -> Point:
        """Walker position at time ``t``.

        Before the start the walker is at the first waypoint, after the end
        at the last waypoint.  Equivalent to ``positions_at([t])[0]`` — both
        paths share the cumulative-boundary arithmetic.
        """
        if t <= self.start_time:
            return self.waypoints[0]
        if t >= self.end_time:
            return self.waypoints[-1]
        elapsed = t - self.start_time
        cums, _, _, _ = self._interp_arrays()
        idx = int(np.searchsorted(cums, elapsed, side="left"))
        idx = min(idx, cums.shape[0] - 1)
        seg_start = float(cums[idx - 1]) if idx > 0 else 0.0
        seg_dur = self.segment_durations[idx]
        frac = 1.0 if seg_dur <= 0 else min((elapsed - seg_start) / seg_dur, 1.0)
        return interpolate(self.waypoints[idx], self.waypoints[idx + 1], frac)

    def positions_at(self, times) -> np.ndarray:
        """Walker positions for a whole array of times at once.

        Parameters
        ----------
        times:
            Array-like of timestamps (seconds).

        Returns
        -------
        ndarray of shape ``(len(times), 2)``
            The ``(x, y)`` position at every timestamp.  Matches
            :meth:`position_at` pointwise exactly: both use the same
            cumulative segment boundaries and interpolation expression.
        """
        t = np.asarray(times, dtype=float)
        if t.ndim != 1:
            raise ValueError("times must be one-dimensional")
        elapsed = t - self.start_time
        cums, durs, wx, wy = self._interp_arrays()
        n_segs = durs.shape[0]
        idx = np.searchsorted(cums, elapsed, side="left")
        idx = np.minimum(idx, n_segs - 1)
        seg_start = np.where(idx > 0, cums[np.maximum(idx - 1, 0)], 0.0)
        seg_dur = durs[idx]
        safe_dur = np.where(seg_dur > 0, seg_dur, 1.0)
        with np.errstate(over="ignore"):
            # A near-zero segment duration can overflow the division; the
            # resulting inf clamps to 1.0 exactly as the scalar path does.
            frac = np.where(
                seg_dur > 0, np.minimum((elapsed - seg_start) / safe_dur, 1.0), 1.0
            )
        frac = np.minimum(1.0, np.maximum(0.0, frac))

        x = wx[idx] + (wx[idx + 1] - wx[idx]) * frac
        y = wy[idx] + (wy[idx + 1] - wy[idx]) * frac

        before = t <= self.start_time
        after = t >= self.end_time
        x = np.where(before, wx[0], np.where(after, wx[-1], x))
        y = np.where(before, wy[0], np.where(after, wy[-1], y))
        return np.column_stack([x, y])


def walk_through(
    waypoints: Sequence[Point],
    start_time: float,
    speed_mps: float = 1.4,
    pauses: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Build a constant-speed trajectory through the given waypoints.

    Parameters
    ----------
    waypoints:
        Points to visit in order.
    start_time:
        Walk start time in seconds.
    speed_mps:
        Walking speed; the paper assumes 1.4 m/s.
    pauses:
        Optional extra dwell added to each leg (e.g. the time to stand up on
        the first leg, or to open the door on the last).  Must have
        ``len(waypoints) - 1`` entries when given.
    """
    if speed_mps <= 0:
        raise ValueError("walking speed must be positive")
    pts = list(waypoints)
    if len(pts) < 2:
        raise ValueError("need at least two waypoints")
    n_legs = len(pts) - 1
    if pauses is None:
        pauses = [0.0] * n_legs
    if len(pauses) != n_legs:
        raise ValueError("pauses must have one entry per leg")
    durations: List[float] = []
    for i in range(n_legs):
        dist = pts[i].distance_to(pts[i + 1])
        durations.append(dist / speed_mps + float(pauses[i]))
    return Trajectory(
        start_time=start_time,
        waypoints=tuple(pts),
        segment_durations=tuple(durations),
    )


def departure_trajectory(
    seat: Point,
    door: Point,
    start_time: float,
    *,
    speed_mps: float = 1.4,
    stand_up_s: float = 1.0,
    door_open_s: float = 1.0,
    via: Optional[Sequence[Point]] = None,
) -> Trajectory:
    """Trajectory of a user leaving their seat and exiting through the door.

    The first leg includes the stand-up time and the final leg the time to
    open the door, matching the paper's reasoning that a 4-metre walk takes
    about five seconds in total.
    """
    waypoints: List[Point] = [seat]
    if via:
        waypoints.extend(via)
    waypoints.append(door)
    n_legs = len(waypoints) - 1
    pauses = [0.0] * n_legs
    pauses[0] += stand_up_s
    pauses[-1] += door_open_s
    return walk_through(waypoints, start_time, speed_mps=speed_mps, pauses=pauses)


def entry_trajectory(
    door: Point,
    seat: Point,
    start_time: float,
    *,
    speed_mps: float = 1.4,
    door_open_s: float = 1.0,
    sit_down_s: float = 1.0,
    via: Optional[Sequence[Point]] = None,
) -> Trajectory:
    """Trajectory of a user entering through the door and sitting down."""
    waypoints: List[Point] = [door]
    if via:
        waypoints.extend(via)
    waypoints.append(seat)
    n_legs = len(waypoints) - 1
    pauses = [0.0] * n_legs
    pauses[0] += door_open_s
    pauses[-1] += sit_down_s
    return walk_through(waypoints, start_time, speed_mps=speed_mps, pauses=pauses)
