"""Discrete simulation clock.

All simulated subsystems (radio sampling, person state machines, the
FADEWICH controller) advance in lock-step at a fixed sampling rate.  The
clock produces the timestamp grid and provides the conversions between
seconds and sample indices used throughout the simulation harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimulationClock"]


@dataclass(frozen=True)
class SimulationClock:
    """A fixed-rate simulation clock.

    Parameters
    ----------
    sample_rate_hz:
        Samples per second.  The paper's sensors report RSSI a few times per
        second; the default of 4 Hz gives 18 samples per 4.5-second feature
        window.
    start_time:
        Timestamp of the first sample, in seconds.
    """

    sample_rate_hz: float = 4.0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def dt(self) -> float:
        """Interval between consecutive samples, in seconds."""
        return 1.0 / self.sample_rate_hz

    def n_samples(self, duration_s: float) -> int:
        """Number of samples covering ``duration_s`` seconds."""
        if duration_s < 0:
            raise ValueError("duration must be non-negative")
        return int(round(duration_s * self.sample_rate_hz))

    def timestamps(self, duration_s: float) -> np.ndarray:
        """The timestamp grid covering ``duration_s`` seconds."""
        n = self.n_samples(duration_s)
        return self.start_time + np.arange(n) / self.sample_rate_hz
