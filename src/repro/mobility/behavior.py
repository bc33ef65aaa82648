"""Office behaviour models.

Describes *why* and *how often* people move: the rates and durations that a
day-long schedule is drawn from.  The defaults are tuned so that a 5-day,
3-user campaign yields an event mix comparable to the paper's Table II
(about 20 departures per workstation and ~67 office entries over the week).

The behaviour layer is deliberately separate from the trajectory layer:
behaviours decide *when* a user departs and for how long they stay away;
trajectories decide the geometric path of the resulting walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["BehaviorProfile", "AbsenceSampler"]


@dataclass(frozen=True)
class BehaviorProfile:
    """Per-user behavioural parameters.

    Attributes
    ----------
    departures_per_hour:
        Mean rate at which the user leaves their workstation (short breaks,
        coffee, restroom, meetings).  The paper observed roughly 4
        departures per user per 8-hour day, i.e. ~0.5 per hour.
    mean_absence_s:
        Mean time spent outside the office per departure.
    min_absence_s:
        Minimum absence duration (a quick question next door).
    internal_moves_per_hour:
        Rate of movements inside the office that are *not* departures
        (walking to a colleague's desk, the printer, the window).  These
        cause radio fluctuations the system must not misread as departures.
    walking_speed_mps:
        The user's walking speed.
    stand_up_s:
        Time spent standing up before walking.
    arrival_jitter_s:
        Spread of the user's morning arrival around the campaign start.
    """

    departures_per_hour: float = 0.5
    mean_absence_s: float = 600.0
    min_absence_s: float = 60.0
    internal_moves_per_hour: float = 0.3
    walking_speed_mps: float = 1.4
    stand_up_s: float = 1.0
    arrival_jitter_s: float = 600.0

    def __post_init__(self) -> None:
        if self.departures_per_hour < 0 or self.internal_moves_per_hour < 0:
            raise ValueError("rates must be non-negative")
        if self.mean_absence_s <= 0 or self.min_absence_s < 0:
            raise ValueError("absence durations must be positive")
        if self.walking_speed_mps <= 0:
            raise ValueError("walking speed must be positive")


class AbsenceSampler:
    """Draws absence durations for a behaviour profile.

    Uses a log-normal distribution truncated below at ``min_absence_s``:
    most breaks are short (a few minutes) but long lunches occur.
    """

    def __init__(self, profile: BehaviorProfile, rng: Optional[np.random.Generator] = None):
        self._profile = profile
        self._rng = rng if rng is not None else np.random.default_rng()
        # Parameterise the log-normal so its mean equals mean_absence_s with
        # a coefficient of variation of ~0.8.
        cv = 0.8
        sigma2 = np.log(1.0 + cv ** 2)
        self._sigma = float(np.sqrt(sigma2))
        self._mu = float(np.log(profile.mean_absence_s) - sigma2 / 2.0)

    def sample(self) -> float:
        """One absence duration in seconds (>= the profile's minimum)."""
        value = float(self._rng.lognormal(self._mu, self._sigma))
        return max(value, self._profile.min_absence_s)
