"""RSSI trace container.

The MD and RE modules consume *streams of RSSI measurements*.
:class:`RssiTrace` holds a complete timestamped recording, with the
time-window cuts Rule 1 classifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

__all__ = ["RssiTrace"]


@dataclass
class RssiTrace:
    """A complete, timestamped multi-stream RSSI recording.

    Attributes
    ----------
    times:
        Sample timestamps in seconds, finite and strictly increasing.
    streams:
        Mapping stream id -> array of RSSI samples, one per timestamp.
    """

    times: np.ndarray
    streams: Dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        n = self.times.shape[0]
        for sid, arr in list(self.streams.items()):
            arr = np.asarray(arr, dtype=float)
            if arr.shape[0] != n:
                raise ValueError(
                    f"stream {sid!r} has {arr.shape[0]} samples, expected {n}"
                )
            self.streams[sid] = arr
        if not np.all(np.isfinite(self.times)):
            raise ValueError("timestamps must be finite")
        if n > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("timestamps must be strictly increasing")

    # ------------------------------------------------------------------ #
    @property
    def stream_ids(self) -> List[str]:
        return list(self.streams.keys())

    @property
    def n_samples(self) -> int:
        return int(self.times.shape[0])

    @property
    def duration(self) -> float:
        """Trace duration in seconds (0 for traces with fewer than 2 samples)."""
        if self.n_samples < 2:
            return 0.0
        return float(self.times[-1] - self.times[0])

    @property
    def sample_interval(self) -> float:
        """Median interval between consecutive samples."""
        if self.n_samples < 2:
            raise ValueError("need at least two samples to infer the interval")
        return float(np.median(np.diff(self.times)))

    def slice_time(self, t_start: float, t_end: float) -> "RssiTrace":
        """Sub-trace with timestamps in ``[t_start, t_end]`` (inclusive).

        Cut by two binary searches on the strictly increasing, finite
        timestamps, so a short window of a long day costs O(log n + window).
        The sub-trace owns copies of its samples.
        """
        if not t_start <= t_end:
            raise ValueError("t_end must be >= t_start (and neither NaN)")
        lo = np.searchsorted(self.times, t_start, side="left")
        hi = np.searchsorted(self.times, t_end, side="right")
        return RssiTrace(
            times=self.times[lo:hi].copy(),
            streams={sid: arr[lo:hi].copy() for sid, arr in self.streams.items()},
        )

    def restricted_to(self, stream_ids: Iterable[str]) -> "RssiTrace":
        """A trace containing only the named streams (independent copies)."""
        wanted = list(stream_ids)
        missing = [sid for sid in wanted if sid not in self.streams]
        if missing:
            raise KeyError(f"missing streams: {missing}")
        return RssiTrace(
            times=self.times.copy(),
            streams={sid: self.streams[sid].copy() for sid in wanted},
        )

    def restricted_view(self, stream_ids: Iterable[str]) -> "RssiTrace":
        """Zero-copy variant of :meth:`restricted_to` for read-only use.

        The returned trace *shares* the timestamp and stream arrays with
        this one and skips re-validation (this trace was already checked on
        construction).  The evaluation pipeline restricts each recorded day
        once per sensor subset, so the copies and the strictly-increasing
        re-check of :meth:`restricted_to` are pure overhead there; use the
        copying variant whenever the result may be mutated.
        """
        wanted = list(stream_ids)
        missing = [sid for sid in wanted if sid not in self.streams]
        if missing:
            raise KeyError(f"missing streams: {missing}")
        trace = RssiTrace.__new__(RssiTrace)
        trace.times = self.times
        trace.streams = {sid: self.streams[sid] for sid in wanted}
        return trace
