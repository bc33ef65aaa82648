"""Keyboard / mouse input simulation.

The paper does not use its subjects' real typing habits: it simulates
workstation input following Mikkelsen et al., who found office workers use
the keyboard or mouse in 78 % of 5-second intervals (Section VII-D).  This
module implements that generator: time is discretised into 5-second bins and
each bin independently contains input with probability ``activity_prob`` —
but only while the assigned user is actually present at the workstation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["InputActivityModel", "ActivityTrace"]

MIKKELSEN_ACTIVITY_PROBABILITY = 0.78
"""Fraction of 5-second intervals containing keyboard/mouse input
(Mikkelsen et al., as adopted by the paper)."""

MIKKELSEN_BIN_SECONDS = 5.0
"""Discretisation interval of the Mikkelsen input model."""


@dataclass(frozen=True)
class ActivityTrace:
    """Input activity of one workstation over a period.

    Attributes
    ----------
    bin_seconds:
        Width of each activity bin.
    active_bins:
        Boolean array: ``True`` where the bin contains at least one keyboard
        or mouse input.
    start_time:
        Timestamp of the beginning of the first bin.
    """

    bin_seconds: float
    active_bins: np.ndarray
    start_time: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "active_bins", np.asarray(self.active_bins, dtype=bool)
        )
        if self.bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")

    @property
    def duration(self) -> float:
        return self.bin_seconds * self.active_bins.shape[0]

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def last_input_before(self, t: float) -> Optional[float]:
        """Timestamp of the last input at or before time ``t``.

        Inputs are placed at the *end* of their bin (worst case for the
        system: the user may type right up to the moment they stand up).
        Returns ``None`` if no input occurred by ``t``.
        """
        if t < self.start_time:
            return None
        last_bin = int(np.floor((t - self.start_time) / self.bin_seconds))
        last_bin = min(last_bin, self.active_bins.shape[0] - 1)
        for b in range(last_bin, -1, -1):
            if self.active_bins[b]:
                input_time = self.start_time + (b + 1) * self.bin_seconds
                return min(input_time, t)
        return None

    def idle_time_at(self, t: float) -> float:
        """Seconds since the last input as of time ``t``.

        If no input has ever occurred, the idle time counts from the start
        of the trace.
        """
        last = self.last_input_before(t)
        if last is None:
            return max(t - self.start_time, 0.0)
        return max(t - last, 0.0)

    def has_input_in(self, t_start: float, t_end: float) -> bool:
        """Whether any input bin overlaps ``[t_start, t_end]``."""
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        first = max(int(np.floor((t_start - self.start_time) / self.bin_seconds)), 0)
        last = int(np.floor((t_end - self.start_time) / self.bin_seconds))
        last = min(last, self.active_bins.shape[0] - 1)
        if first > last:
            return False
        return bool(self.active_bins[first : last + 1].any())

    # ------------------------------------------------------------------ #
    # Columnar queries (used by the array replay fast path).  Each is the
    # vectorised form of its scalar counterpart above and must return the
    # same answers element for element.
    # ------------------------------------------------------------------ #
    def idle_times_at(self, times: np.ndarray) -> np.ndarray:
        """:meth:`idle_time_at` evaluated at many instants at once."""
        t = np.asarray(times, dtype=float)
        n_bins = self.active_bins.shape[0]
        rel = t - self.start_time
        active_idx = np.flatnonzero(self.active_bins)
        if active_idx.size == 0:
            # No input ever: idle since the start of the trace.
            return np.maximum(rel, 0.0)
        last_bin = np.minimum(
            np.floor(rel / self.bin_seconds).astype(np.int64), n_bins - 1
        )
        # Most recent active bin at or before each queried bin.
        pos = np.searchsorted(active_idx, last_bin, side="right") - 1
        has_input = (pos >= 0) & (rel >= 0)
        found = active_idx[np.clip(pos, 0, None)]
        input_time = self.start_time + (found + 1) * self.bin_seconds
        last = np.minimum(input_time, t)
        return np.where(
            has_input,
            np.maximum(t - last, 0.0),
            np.maximum(t - self.start_time, 0.0),
        )

    def has_input_in_many(
        self, t_starts: np.ndarray, t_ends: np.ndarray
    ) -> np.ndarray:
        """:meth:`has_input_in` evaluated over many intervals at once."""
        t_starts = np.asarray(t_starts, dtype=float)
        t_ends = np.asarray(t_ends, dtype=float)
        if np.any(t_ends < t_starts):
            raise ValueError("t_end must be >= t_start")
        n_bins = self.active_bins.shape[0]
        first = np.maximum(
            np.floor((t_starts - self.start_time) / self.bin_seconds).astype(np.int64),
            0,
        )
        last = np.minimum(
            np.floor((t_ends - self.start_time) / self.bin_seconds).astype(np.int64),
            n_bins - 1,
        )
        counts = np.concatenate([[0], np.cumsum(self.active_bins)])
        valid = first <= last
        first_c = np.clip(first, 0, n_bins)
        last_c = np.clip(last, -1, n_bins - 1)
        return valid & (counts[last_c + 1] - counts[first_c] > 0)


class InputActivityModel:
    """Generates Mikkelsen-style activity traces gated by user presence.

    Parameters
    ----------
    activity_prob:
        Probability that a 5-second bin contains input while the user is at
        the workstation.
    bin_seconds:
        Bin width (5 s in the paper).
    rng:
        Random generator.
    """

    def __init__(
        self,
        activity_prob: float = MIKKELSEN_ACTIVITY_PROBABILITY,
        bin_seconds: float = MIKKELSEN_BIN_SECONDS,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= activity_prob <= 1.0:
            raise ValueError("activity_prob must be in [0, 1]")
        if bin_seconds <= 0:
            raise ValueError("bin_seconds must be positive")
        self._p = activity_prob
        self._bin = bin_seconds
        self._rng = rng if rng is not None else np.random.default_rng()

    @property
    def activity_prob(self) -> float:
        return self._p

    @property
    def bin_seconds(self) -> float:
        return self._bin

    def generate(
        self,
        duration_s: float,
        presence_intervals: Sequence[Tuple[float, float]],
        start_time: float = 0.0,
    ) -> ActivityTrace:
        """Generate an activity trace for one workstation.

        Parameters
        ----------
        duration_s:
            Length of the trace.
        presence_intervals:
            List of ``(t_start, t_end)`` intervals (relative to
            ``start_time``) during which the assigned user is seated at the
            workstation.  Bins outside every interval never contain input.
        start_time:
            Timestamp of the first bin.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        n_bins = int(np.ceil(duration_s / self._bin))
        active = self._rng.random(n_bins) < self._p

        presence_mask = np.zeros(n_bins, dtype=bool)
        for t_start, t_end in presence_intervals:
            if t_end < t_start:
                raise ValueError("presence interval end precedes start")
            first = max(int(np.floor(t_start / self._bin)), 0)
            last = min(int(np.ceil(t_end / self._bin)), n_bins)
            presence_mask[first:last] = True

        return ActivityTrace(
            bin_seconds=self._bin,
            active_bins=active & presence_mask,
            start_time=start_time,
        )
