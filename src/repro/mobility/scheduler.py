"""Day / campaign movement schedules.

The scheduler draws, ahead of time, every movement that will happen during a
simulated working day: user departures (followed by a later return), the
resulting office entries, and internal (non-departure) moves.  Planned
movements never overlap — the paper registered no overlapping movements in
its 40-hour campaign, and keeping the generator overlap-free makes the
labelled data directly comparable (overlap handling is still exercised by
dedicated tests and examples through manually built schedules).

The output is a :class:`CampaignSchedule`: a chronological list of
:class:`PlannedMovement` records the campaign simulator executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..radio.office import OfficeLayout
from .behavior import AbsenceSampler, BehaviorProfile
from .events import EventKind

__all__ = ["PlannedMovement", "DaySchedule", "CampaignSchedule", "ScheduleGenerator"]


@dataclass(frozen=True)
class PlannedMovement:
    """One planned movement of one user.

    Attributes
    ----------
    kind:
        Departure, entry, or internal move.
    user_id:
        The moving user.
    workstation_id:
        The user's assigned workstation (if any).
    start_time:
        When the movement starts, in seconds from campaign start.
    absence_s:
        For departures: how long the user stays out of the office.
    """

    kind: EventKind
    user_id: str
    workstation_id: Optional[str]
    start_time: float
    absence_s: float = 0.0

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if self.absence_s < 0:
            raise ValueError("absence_s must be non-negative")


@dataclass
class DaySchedule:
    """All planned movements of one working day, in chronological order."""

    day_index: int
    duration_s: float
    movements: List[PlannedMovement] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.movements.sort(key=lambda m: m.start_time)

    def departures(self) -> List[PlannedMovement]:
        return [m for m in self.movements if m.kind is EventKind.DEPARTURE]

    def entries(self) -> List[PlannedMovement]:
        return [m for m in self.movements if m.kind is EventKind.ENTRY]


@dataclass
class CampaignSchedule:
    """A multi-day campaign: one :class:`DaySchedule` per working day."""

    days: List[DaySchedule]

    @property
    def n_days(self) -> int:
        return len(self.days)

    def label_counts(self) -> Dict[str, int]:
        """Expected Table-II-style label histogram of the planned campaign."""
        counts: Dict[str, int] = {}
        for day in self.days:
            for m in day.movements:
                if m.kind is EventKind.ENTRY:
                    counts["w0"] = counts.get("w0", 0) + 1
                elif m.kind is EventKind.DEPARTURE and m.workstation_id:
                    counts[m.workstation_id] = counts.get(m.workstation_id, 0) + 1
        return counts


class ScheduleGenerator:
    """Draws overlap-free campaign schedules for an office and its users.

    Parameters
    ----------
    layout:
        The office; its workstations define the resident users (one user per
        workstation, as in the paper).
    profiles:
        Optional per-workstation behaviour profiles; a shared default is
        used when omitted.
    min_gap_s:
        Minimum temporal separation enforced between any two movements
        (measured between movement start times), so the generated campaign
        contains no overlaps.
    first_movement_s:
        Earliest allowed movement start; the quiet lead-in lets the MD
        module initialise its normal profile, mirroring the paper's
        adversary-free installation phase.
    rng:
        Random generator.
    """

    def __init__(
        self,
        layout: OfficeLayout,
        profiles: Optional[Dict[str, BehaviorProfile]] = None,
        *,
        min_gap_s: float = 45.0,
        first_movement_s: float = 120.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if min_gap_s < 0:
            raise ValueError("min_gap_s must be non-negative")
        if first_movement_s < 0:
            raise ValueError("first_movement_s must be non-negative")
        self._layout = layout
        self._rng = rng if rng is not None else np.random.default_rng()
        self._min_gap = min_gap_s
        self._first_movement_s = first_movement_s
        self._profiles: Dict[str, BehaviorProfile] = {}
        for w in layout.workstations:
            if profiles and w.workstation_id in profiles:
                self._profiles[w.workstation_id] = profiles[w.workstation_id]
            else:
                self._profiles[w.workstation_id] = BehaviorProfile()

    # ------------------------------------------------------------------ #
    @staticmethod
    def user_for(workstation_id: str) -> str:
        """Deterministic user id for a workstation (``w1`` -> ``u1``)."""
        return "u" + workstation_id.lstrip("w")

    def _conflicts(self, t: float, busy: Sequence[float]) -> bool:
        return any(abs(t - b) < self._min_gap for b in busy)

    def generate_day(self, day_index: int, duration_s: float = 8 * 3600.0) -> DaySchedule:
        """Draw one day's worth of movements.

        Departures are drawn as a Poisson process per user and processed in
        chronological order so each user's timeline is consistent: a user
        who is out of the office cannot depart again before their return,
        and every accepted departure is paired with the matching office
        entry.  Internal moves are only scheduled while the user is at their
        desk.  Movements that would violate the overlap gap are shifted or
        dropped.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        movements: List[PlannedMovement] = []
        busy_times: List[float] = []
        latest_start = duration_s - 120.0
        if latest_start <= self._first_movement_s:
            raise ValueError(
                "day too short for the configured first_movement_s lead-in"
            )

        for workstation_id, profile in self._profiles.items():
            user_id = self.user_for(workstation_id)
            sampler = AbsenceSampler(profile, self._rng)
            hours = duration_s / 3600.0

            # Per-user absence bookkeeping keeps the timeline consistent and
            # lets internal moves avoid periods when the user is away.
            absences: List[Tuple[float, float]] = []
            available_from = self._first_movement_s

            n_departures = self._rng.poisson(profile.departures_per_hour * hours)
            departure_times = sorted(
                float(self._rng.uniform(self._first_movement_s, latest_start))
                for _ in range(int(n_departures))
            )
            for t in departure_times:
                if t < available_from:
                    continue
                if self._conflicts(t, busy_times):
                    continue
                absence = sampler.sample()
                movements.append(
                    PlannedMovement(
                        kind=EventKind.DEPARTURE,
                        user_id=user_id,
                        workstation_id=workstation_id,
                        start_time=t,
                        absence_s=absence,
                    )
                )
                busy_times.append(t)

                # The matching return generates an entry event; shift it
                # later (in min_gap steps) if it would overlap another
                # movement.
                t_return = t + absence
                returned = False
                for shift in range(10):
                    candidate = t_return + shift * max(self._min_gap, 1.0)
                    if candidate >= duration_s - 60.0:
                        break
                    if not self._conflicts(candidate, busy_times):
                        movements.append(
                            PlannedMovement(
                                kind=EventKind.ENTRY,
                                user_id=user_id,
                                workstation_id=workstation_id,
                                start_time=candidate,
                            )
                        )
                        busy_times.append(candidate)
                        absences.append((t, candidate + 30.0))
                        available_from = candidate + 30.0
                        returned = True
                        break
                if not returned:
                    # The user stays out for the rest of the day.
                    absences.append((t, duration_s))
                    available_from = duration_s

            n_internal = self._rng.poisson(profile.internal_moves_per_hour * hours)
            for _ in range(int(n_internal)):
                for _attempt in range(20):
                    t = float(
                        self._rng.uniform(self._first_movement_s, latest_start)
                    )
                    away = any(start <= t <= end for start, end in absences)
                    if not away and not self._conflicts(t, busy_times):
                        break
                else:
                    continue
                movements.append(
                    PlannedMovement(
                        kind=EventKind.INTERNAL_MOVE,
                        user_id=user_id,
                        workstation_id=workstation_id,
                        start_time=t,
                    )
                )
                busy_times.append(t)

        return DaySchedule(
            day_index=day_index, duration_s=duration_s, movements=movements
        )

    def generate_campaign(
        self, n_days: int = 5, day_duration_s: float = 8 * 3600.0
    ) -> CampaignSchedule:
        """Draw a multi-day campaign (the paper collects 5 working days)."""
        if n_days <= 0:
            raise ValueError("n_days must be positive")
        days = [self.generate_day(i, day_duration_s) for i in range(n_days)]
        return CampaignSchedule(days=days)
