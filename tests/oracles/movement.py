"""Per-sample references of Algorithm 1 (paper Section IV-C).

* :class:`StreamBuffer` and :class:`StdSumTracker` compute ``s_t`` one
  sample at a time, with one ``np.std`` per stream over a bounded deque;
* :class:`NormalProfile` is the KDE normal profile fed one observation at
  a time;
* :class:`MovementDetector` is per-sample MD: sample dicts in, variation
  windows out;
* :func:`detect_offline_scalar` runs Algorithm 1 over a recorded trace,
  one observation at a time.

Nothing in ``src/repro`` runs them.  The equivalence suites pin
:class:`~repro.streaming.detector.OnlineDetector`, its
:class:`~repro.detectors.kde_md.OnlineProfile` and the sweep against them
bit for bit, and the throughput gates in ``benchmarks/`` time them as
their slow sides, so each body keeps the operations, in the order, it had
in ``repro.core.movement`` and ``repro.radio.trace``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.config import MDConfig
from repro.core.movement import (
    OfflineMDResult,
    _profile_init_samples,
    rolling_std_matrix,
)
from repro.core.windows import VariationWindow
from repro.ml.kde import GaussianKDE
from repro.radio.trace import RssiTrace
from repro.sliding import sample_count, sum_rows

from .kde import updated

__all__ = [
    "StreamBuffer",
    "StdSumTracker",
    "NormalProfile",
    "MovementDetector",
    "detect_offline_scalar",
]


class StreamBuffer:
    """Bounded per-stream buffer of the most recent RSSI measurements.

    Holds the last ``maxlen`` samples of every stream, the sliding window
    of :class:`StdSumTracker`.  Appending beyond
    ``maxlen`` discards the oldest samples.
    """

    def __init__(self, stream_ids: Sequence[str], maxlen: int) -> None:
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        if len(stream_ids) == 0:
            raise ValueError("at least one stream id is required")
        self._buffers: Dict[str, deque] = {
            sid: deque(maxlen=int(maxlen)) for sid in stream_ids
        }

    @property
    def stream_ids(self) -> List[str]:
        return list(self._buffers.keys())

    def append(self, sample: Mapping[str, float]) -> None:
        """Append one multi-stream sample (stream id -> RSSI)."""
        for sid, buf in self._buffers.items():
            if sid not in sample:
                raise KeyError(f"sample is missing stream {sid!r}")
            buf.append(float(sample[sid]))

    def window(self, sid: str) -> np.ndarray:
        """The buffered samples of one stream, oldest first."""
        return np.asarray(self._buffers[sid], dtype=float)

    def fill_level(self) -> int:
        """Number of samples currently stored per stream."""
        first = next(iter(self._buffers.values()))
        return len(first)


class StdSumTracker:
    """Maintains the per-stream sliding windows and their std-dev sum.

    Parameters
    ----------
    stream_ids:
        The monitored streams.
    window_samples:
        Number of samples of the sliding window (``d`` seconds times the
        sampling rate).
    """

    def __init__(self, stream_ids: Sequence[str], window_samples: int) -> None:
        if window_samples < 2:
            raise ValueError("window_samples must be >= 2")
        self._buffer = StreamBuffer(stream_ids, maxlen=window_samples)
        self._window_samples = window_samples

    @property
    def window_samples(self) -> int:
        return self._window_samples

    def update(self, sample: Mapping[str, float]) -> Optional[float]:
        """Add one multi-stream sample; return the current ``s_t``.

        Returns ``None`` until at least two samples per stream are buffered
        (a standard deviation needs two points).
        """
        self._buffer.append(sample)
        if self._buffer.fill_level() < 2:
            return None
        total = 0.0
        for sid in self._buffer.stream_ids:
            total += float(np.std(self._buffer.window(sid)))
        return total


class NormalProfile:
    """The KDE-based normal profile of ``s_t`` with batch updates.

    Implements the profile part of Algorithm 1: initialisation from a quiet
    period, the ``(100 - alpha)``-th percentile threshold, and the batch
    update that discards batches containing too many anomalous values.
    """

    def __init__(self, config: MDConfig, init_samples: int) -> None:
        if init_samples < 2:
            raise ValueError("init_samples must be >= 2")
        self._config = config
        self._init_samples = init_samples
        self._init_buffer: List[float] = []
        self._kde: Optional[GaussianKDE] = None
        self._threshold: Optional[float] = None
        self._batch: List[float] = []

    # ------------------------------------------------------------------ #
    @property
    def is_ready(self) -> bool:
        """Whether the initial profile has been built."""
        return self._kde is not None

    @property
    def threshold(self) -> Optional[float]:
        """Current anomaly threshold (``None`` until ready)."""
        return self._threshold

    @property
    def kde(self) -> Optional[GaussianKDE]:
        return self._kde

    def _rebuild_threshold(self) -> None:
        # Warm-start from the chain's previous threshold: profile updates
        # only nudge the KDE window, so the old threshold is an excellent
        # initial guess for the Newton solver.
        assert self._kde is not None
        self._threshold = self._kde.percentile(
            100.0 - self._config.alpha, x0=self._threshold
        )

    def observe(self, s_t: float) -> Optional[bool]:
        """Feed one ``s_t`` value; return whether it is anomalous.

        Returns ``None`` while the profile is still initialising (the system
        makes no decisions during the installation phase).
        """
        if not self.is_ready:
            self._init_buffer.append(float(s_t))
            if len(self._init_buffer) >= self._init_samples:
                self._kde = GaussianKDE(self._init_buffer)
                self._rebuild_threshold()
            return None

        assert self._threshold is not None
        anomalous = bool(s_t >= self._threshold)

        # Batch-update bookkeeping (Algorithm 1 lines 6, 10-15).
        self._batch.append(float(s_t))
        if len(self._batch) >= self._config.batch_size:
            anomalous_in_batch = sum(
                1 for v in self._batch if v >= self._threshold
            )
            if anomalous_in_batch / len(self._batch) < self._config.tau:
                assert self._kde is not None
                self._kde = updated(
                    self._kde, self._batch, drop_oldest=len(self._batch)
                )
                self._rebuild_threshold()
            self._batch = []
        return anomalous


class MovementDetector:
    """Scalar per-sample MD: multi-stream RSSI samples in, variation windows out.

    The semantics reference that ``OnlineDetector`` is pinned against
    (``tests/test_streaming_equivalence.py``); nothing live runs it.

    Parameters
    ----------
    stream_ids:
        Monitored stream ids.
    config:
        MD parameters.
    sample_rate_hz:
        Sampling rate of the incoming RSSI samples.
    """

    def __init__(
        self,
        stream_ids: Sequence[str],
        config: Optional[MDConfig] = None,
        sample_rate_hz: float = 4.0,
    ) -> None:
        if sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        self._config = config if config is not None else MDConfig()
        self._rate = sample_rate_hz
        self._tracker = StdSumTracker(
            stream_ids, sample_count(self._config.std_window_s, sample_rate_hz)
        )
        self._profile = NormalProfile(
            self._config, sample_count(self._config.profile_init_s, sample_rate_hz)
        )
        self._window_start: Optional[float] = None
        self._last_anomalous_t: Optional[float] = None
        self._completed: List[VariationWindow] = []
        self._last_t: Optional[float] = None

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> MDConfig:
        return self._config

    @property
    def profile(self) -> NormalProfile:
        return self._profile

    @property
    def completed_windows(self) -> List[VariationWindow]:
        """Variation windows that have already closed."""
        return list(self._completed)

    def current_window(self, t: float) -> Optional[VariationWindow]:
        """The variation window currently open at time ``t`` (if any)."""
        if self._window_start is None:
            return None
        return VariationWindow(self._window_start, t)

    def current_window_duration(self, t: float) -> float:
        """``dW_t``: duration of the most recent variation window at ``t``.

        Zero when no window is open — the quantity driving the controller's
        state transitions (paper Section IV-G).
        """
        if self._window_start is None:
            return 0.0
        return max(t - self._window_start, 0.0)

    # ------------------------------------------------------------------ #
    def process(self, t: float, sample: Mapping[str, float]) -> Optional[bool]:
        """Consume one sample; return the anomaly decision (or ``None``).

        ``None`` means MD is still initialising (either the std window or
        the normal profile is not yet full).
        """
        if self._last_t is not None and t <= self._last_t:
            raise ValueError("samples must arrive in strictly increasing time order")
        self._last_t = t

        s_t = self._tracker.update(sample)
        if s_t is None:
            return None
        anomalous = self._profile.observe(s_t)
        if anomalous is None:
            return None

        gap = self._config.merge_gap_s
        if anomalous:
            if self._window_start is None:
                self._window_start = t
            self._last_anomalous_t = t
        else:
            if (
                self._window_start is not None
                and self._last_anomalous_t is not None
                and (t - self._last_anomalous_t) > gap
            ):
                self._completed.append(
                    VariationWindow(self._window_start, self._last_anomalous_t)
                )
                self._window_start = None
                self._last_anomalous_t = None
        return anomalous

    def finalize(self, t: float) -> None:
        """Close any open variation window at the end of a run."""
        if self._window_start is not None and self._last_anomalous_t is not None:
            self._completed.append(
                VariationWindow(self._window_start, self._last_anomalous_t)
            )
            self._window_start = None
            self._last_anomalous_t = None


def detect_offline_scalar(
    trace: RssiTrace,
    config: Optional[MDConfig] = None,
) -> OfflineMDResult:
    """Algorithm 1 over a recorded trace, one observation at a time.

    Drives :class:`NormalProfile` one ``s_t`` value at a time and closes
    variation windows inline, the per-observation reference that the
    columnar sweep and :class:`~repro.streaming.detector.OnlineDetector`
    are pinned against (``tests/test_analysis_equivalence.py``).
    """
    cfg = config if config is not None else MDConfig()
    rate = 1.0 / trace.sample_interval
    times, matrix = rolling_std_matrix(trace, sample_count(cfg.std_window_s, rate))
    std_sums = sum_rows(matrix.T)
    profile = NormalProfile(cfg, _profile_init_samples(times, cfg))

    thresholds = np.full(times.shape[0], np.nan)
    windows: List[VariationWindow] = []
    window_start: Optional[float] = None
    last_anomalous: Optional[float] = None

    for i, (t, s_t) in enumerate(zip(times, std_sums)):
        anomalous = profile.observe(float(s_t))
        thresholds[i] = profile.threshold if profile.threshold is not None else np.nan
        if anomalous is None:
            continue
        if anomalous:
            if window_start is None:
                window_start = float(t)
            last_anomalous = float(t)
        else:
            if (
                window_start is not None
                and last_anomalous is not None
                and (t - last_anomalous) > cfg.merge_gap_s
            ):
                windows.append(VariationWindow(window_start, last_anomalous))
                window_start = None
                last_anomalous = None
    if window_start is not None and last_anomalous is not None:
        windows.append(VariationWindow(window_start, last_anomalous))

    return OfflineMDResult(
        times=times,
        std_sums=std_sums,
        windows=tuple(windows),
        threshold_trace=thresholds,
    )
