"""RSSI trace containers.

The MD and RE modules consume *streams of RSSI measurements*.  These classes
store them efficiently (one ring-buffer-backed array per stream), provide
the sliding-window views both modules need, and support building full
offline traces for the campaign-level evaluation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

__all__ = ["StreamBuffer", "RssiTrace"]


class StreamBuffer:
    """Bounded per-stream buffer of the most recent RSSI measurements.

    Used by the online system (MD keeps a sliding window of ``d`` seconds of
    data per stream).  Appending beyond ``maxlen`` discards the oldest
    samples.
    """

    def __init__(self, stream_ids: Sequence[str], maxlen: int) -> None:
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        if len(stream_ids) == 0:
            raise ValueError("at least one stream id is required")
        self._maxlen = int(maxlen)
        self._buffers: Dict[str, deque] = {
            sid: deque(maxlen=self._maxlen) for sid in stream_ids
        }

    @property
    def stream_ids(self) -> List[str]:
        return list(self._buffers.keys())

    @property
    def maxlen(self) -> int:
        return self._maxlen

    def append(self, sample: Mapping[str, float]) -> None:
        """Append one multi-stream sample (stream id -> RSSI)."""
        for sid, buf in self._buffers.items():
            if sid not in sample:
                raise KeyError(f"sample is missing stream {sid!r}")
            buf.append(float(sample[sid]))

    def window(self, sid: str, size: Optional[int] = None) -> np.ndarray:
        """The most recent ``size`` samples of one stream (all if ``None``)."""
        buf = self._buffers[sid]
        data = np.asarray(buf, dtype=float)
        if size is None or size >= data.shape[0]:
            return data
        return data[-size:]

    def windows(self, size: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Per-stream windows of the most recent ``size`` samples."""
        return {sid: self.window(sid, size) for sid in self._buffers}

    def fill_level(self) -> int:
        """Number of samples currently stored per stream."""
        first = next(iter(self._buffers.values()))
        return len(first)

    def clear(self) -> None:
        for buf in self._buffers.values():
            buf.clear()


@dataclass
class RssiTrace:
    """A complete, timestamped multi-stream RSSI recording.

    Attributes
    ----------
    times:
        Sample timestamps in seconds, strictly increasing.
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
        """Sub-trace with timestamps in ``[t_start, t_end]`` (inclusive)."""
        if t_end < t_start:
            raise ValueError("t_end must be >= t_start")
        mask = (self.times >= t_start) & (self.times <= t_end)
        return RssiTrace(
            times=self.times[mask],
            streams={sid: arr[mask] for sid, arr in self.streams.items()},
        )

    def window_at(
        self, t_start: float, t_end: float
    ) -> Dict[str, np.ndarray]:
        """Per-stream measurement windows for ``[t_start, t_end]``."""
        sliced = self.slice_time(t_start, t_end)
        return dict(sliced.streams)

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

    @staticmethod
    def from_samples(
        times: Sequence[float], samples: Sequence[Mapping[str, float]]
    ) -> "RssiTrace":
        """Build a trace from a list of per-instant sample dictionaries."""
        times = np.asarray(times, dtype=float)
        if len(samples) != times.shape[0]:
            raise ValueError("times and samples must have equal length")
        if len(samples) == 0:
            raise ValueError("cannot build an empty trace")
        stream_ids = list(samples[0].keys())
        streams = {
            sid: np.asarray([s[sid] for s in samples], dtype=float)
            for sid in stream_ids
        }
        return RssiTrace(times=times, streams=streams)
