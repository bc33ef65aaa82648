"""People in the office.

A :class:`Person` has an identity, an optional assigned workstation, and a
time-varying presence: either seated at their workstation (with small
fidgeting around the seat), walking along a trajectory, or absent from the
room.  The radio channel only needs body positions, so a person's state is
fully described by "where is the body at time t, if inside the office".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from ..radio.geometry import Point
from .trajectory import Trajectory

__all__ = ["PresenceState", "Person"]


class PresenceState(enum.Enum):
    """Where a person currently is."""

    SEATED = "seated"
    WALKING = "walking"
    ABSENT = "absent"


@dataclass
class Person:
    """One office user (or visitor).

    Parameters
    ----------
    user_id:
        Identifier such as ``"u1"``.
    workstation_id:
        Assigned workstation id, or ``None`` for visitors.
    seat:
        The seat position the person occupies when seated.
    fidget_sigma_m:
        Standard deviation (metres) of the small random offsets around the
        seat while seated — people shift in their chairs, lean and reach,
        which perturbs nearby links slightly without being a departure.
    initial_state:
        The person's presence state at campaign start.
    """

    user_id: str
    workstation_id: Optional[str]
    seat: Point
    fidget_sigma_m: float = 0.05
    fidget_interval_s: float = 10.0
    initial_state: PresenceState = PresenceState.SEATED

    _state: PresenceState = field(init=False)
    _trajectory: Optional[Trajectory] = field(init=False, default=None)
    _after_walk_state: PresenceState = field(init=False, default=PresenceState.ABSENT)
    _fidget_offset: tuple = field(init=False, default=(0.0, 0.0))
    _next_fidget_t: Optional[float] = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.fidget_sigma_m < 0:
            raise ValueError("fidget_sigma_m must be non-negative")
        if self.fidget_interval_s <= 0:
            raise ValueError("fidget_interval_s must be positive")
        self._state = self.initial_state

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> PresenceState:
        return self._state

    @property
    def trajectory(self) -> Optional[Trajectory]:
        return self._trajectory

    def start_walk(
        self, trajectory: Trajectory, ends_as: PresenceState
    ) -> None:
        """Begin walking along ``trajectory``; end in state ``ends_as``.

        ``ends_as`` is ``ABSENT`` for departures (the walk ends at the door
        and the person leaves) and ``SEATED`` for entries / internal moves
        (the walk ends at a seat).
        """
        if ends_as is PresenceState.WALKING:
            raise ValueError("a walk cannot end in the WALKING state")
        self._trajectory = trajectory
        self._after_walk_state = ends_as
        self._state = PresenceState.WALKING

    def update(self, t: float) -> None:
        """Advance the person's state machine to time ``t``."""
        if self._state is PresenceState.WALKING and self._trajectory is not None:
            if t >= self._trajectory.end_time:
                if self._after_walk_state is PresenceState.SEATED:
                    # The walk's final waypoint becomes the new seat (supports
                    # internal moves to another desk).
                    self.seat = self._trajectory.waypoints[-1]
                self._state = self._after_walk_state
                self._trajectory = None

    def position_at(
        self, t: float, rng: Optional[np.random.Generator] = None
    ) -> Optional[Point]:
        """Body position at time ``t``, or ``None`` if outside the office.

        Seated people are quasi-static: they hold a small offset around the
        seat that is resampled only every ``fidget_interval_s`` seconds on
        average (shifting in the chair, leaning towards the screen).  High
        frequency jitter would be unphysical and would mask the fluctuation
        signature of real walks.
        """
        if self._state is PresenceState.ABSENT:
            return None
        if self._state is PresenceState.WALKING and self._trajectory is not None:
            return self._trajectory.position_at(t)
        # Seated: seat position plus the current (slowly varying) offset.
        if rng is not None and self.fidget_sigma_m > 0:
            if self._next_fidget_t is None or t >= self._next_fidget_t:
                dx, dy = rng.normal(0.0, self.fidget_sigma_m, 2)
                self._fidget_offset = (float(dx), float(dy))
                self._next_fidget_t = t + rng.exponential(self.fidget_interval_s)
            return self.seat.translated(*self._fidget_offset)
        return self.seat

    def positions_over(
        self,
        times: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        walks: Sequence[Tuple[int, Trajectory, "PresenceState"]] = (),
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Replay this person's presence over a whole timestamp grid at once.

        The batch counterpart of the per-step ``update`` / ``position_at``
        protocol: given the walk assignments of a day, it reproduces — draw
        for draw and step for step — the positions the scalar state machine
        would produce, but vectorised over movement-delimited segments
        (walk legs evaluate through :meth:`Trajectory.positions_at`, seated
        spans are piecewise-constant between fidget resamples, absences are
        masked out).

        Parameters
        ----------
        times:
            The day's timestamp grid (strictly increasing).
        rng:
            The person's dedicated fidget stream.  The scalar path must pass
            the *same* stream to :meth:`position_at` for the outputs to be
            identical.
        walks:
            ``(fire_index, trajectory, ends_as)`` triples in firing order:
            at grid step ``fire_index`` the person starts walking along
            ``trajectory`` and, once the walk completes, transitions to
            ``ends_as`` (mirroring :meth:`start_walk`).

        Returns
        -------
        (xy, present, walking):
            ``xy`` is an ``(n_steps, 2)`` position array (rows where the
            person is absent hold the current seat as a finite placeholder),
            ``present`` and ``walking`` are boolean masks per step.

        The person itself is not mutated; replay starts from the current
        state.
        """
        times = np.asarray(times, dtype=float)
        n = times.shape[0]
        xy = np.empty((n, 2))
        present = np.zeros(n, dtype=bool)
        walking = np.zeros(n, dtype=bool)

        state = self._state
        seat_x, seat_y = self.seat.x, self.seat.y
        traj = self._trajectory
        after_state = self._after_walk_state
        offset = self._fidget_offset
        next_fidget_t = self._next_fidget_t
        fidget = rng is not None and self.fidget_sigma_m > 0

        walk_list = list(walks)
        wi = 0  # next walk assignment to fire
        k = 0
        while k < n:
            next_fire = walk_list[wi][0] if wi < len(walk_list) else n
            if next_fire <= k:
                # Movements are processed before the state update at a step,
                # so a firing walk replaces any walk still in flight.
                _, traj, after_state = walk_list[wi]
                state = PresenceState.WALKING
                wi += 1
                continue
            if state is PresenceState.WALKING and traj is not None:
                k_end = int(np.searchsorted(times, traj.end_time, side="left"))
                if k_end <= k:
                    # The walk completes at this step (update() semantics).
                    if after_state is PresenceState.SEATED:
                        last = traj.waypoints[-1]
                        seat_x, seat_y = last.x, last.y
                    state = after_state
                    traj = None
                    continue
                stop = min(next_fire, k_end, n)
                xy[k:stop] = traj.positions_at(times[k:stop])
                present[k:stop] = True
                walking[k:stop] = True
                k = stop
                continue
            stop = min(next_fire, n)
            if state is PresenceState.ABSENT:
                xy[k:stop, 0] = seat_x
                xy[k:stop, 1] = seat_y
                k = stop
                continue
            # Seated: piecewise-constant around the seat, resampling the
            # fidget offset exactly when the scalar path would.
            present[k:stop] = True
            if not fidget:
                xy[k:stop, 0] = seat_x
                xy[k:stop, 1] = seat_y
                k = stop
                continue
            kk = k
            floor_idx = kk
            while kk < stop:
                if next_fidget_t is None:
                    draw_idx = floor_idx
                else:
                    draw_idx = max(
                        floor_idx,
                        int(np.searchsorted(times, next_fidget_t, side="left")),
                    )
                if draw_idx >= stop:
                    xy[kk:stop, 0] = seat_x + offset[0]
                    xy[kk:stop, 1] = seat_y + offset[1]
                    kk = stop
                    break
                xy[kk:draw_idx, 0] = seat_x + offset[0]
                xy[kk:draw_idx, 1] = seat_y + offset[1]
                dx, dy = rng.normal(0.0, self.fidget_sigma_m, 2)
                offset = (float(dx), float(dy))
                next_fidget_t = float(times[draw_idx]) + float(
                    rng.exponential(self.fidget_interval_s)
                )
                kk = draw_idx
                floor_idx = draw_idx + 1
            k = stop
        return xy, present, walking
