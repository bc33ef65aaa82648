"""Movement Detection (MD) module — Algorithm 1 of the paper.

MD watches the per-stream RSSI fluctuation level.  At every time step it
computes the *sum over streams of the standard deviation of the last ``d``
seconds of measurements* (``s_t``).  A Gaussian-KDE profile of ``s_t`` built
during a quiet initialisation phase defines "normal"; observations above the
``(100 - alpha)``-th percentile of the profile CDF are anomalous.  The
profile is refreshed in batches of ``b`` values whenever a batch contains
few enough anomalous values (fraction below ``tau``), so it tracks slow
changes of the radio environment.

Contiguous anomalous reports form *variation windows*; windows lasting at
least ``t_delta`` trigger system decisions (handled by the controller).

Every path computes ``s_t`` the way a deployed router sees it: from the
second sample on, each stream's std over its last ``d`` seconds (the whole
prefix while fewer exist), streams added left to right — so the sweep that
produces the paper tables agrees bit for bit with the live detector.

Entry points:

* :func:`rolling_std_matrix` — a recorded
  :class:`~repro.radio.trace.RssiTrace`'s per-stream rolling std, the
  evaluation pipeline's shared feature matrix;
* :class:`MovementDetector` — the per-sample scalar reference of the
  streaming kernel :class:`~repro.streaming.detector.OnlineDetector`, which
  the live system, the replay, the sweep and the router run;
  :meth:`~repro.core.system.FadewichSystem.replay_day_scalar` drives it;
* :func:`detect_offline_scalar` — the per-observation reference over a
  whole recorded trace, which
  :func:`~repro.core.evaluation.evaluate_md_scalar` drives to pin the
  sweep.

The columnar runs over a recorded trace are ``OnlineDetector`` itself,
fed the trace in any batch split, and the sweep
(:func:`~repro.core.evaluation.evaluate_md_grid`), which runs the
detector's ``offline_grid`` over many independent ``s_t`` columns (sensor
subsets, days) at once.  Both close variation windows with
:class:`~repro.streaming.detector.WindowTracker`.

The per-observation reference
-----------------------------

:class:`NormalProfile` (driven one observation at a time) is the semantics
reference for Algorithm 1's profile.  Everywhere else the profile runs
on one engine, :class:`~repro.detectors.kde_md.OnlineProfile`:
``KdeMdDetector.offline_grid`` and the streaming service both drive it.
Both build identical KDE data windows with identical Scott bandwidths and
solve thresholds with the same warm-started safeguarded-Newton engine
(:func:`~repro.ml.kde.mixture_quantiles`), whose per-row arithmetic is
independent of batching.  Decisions and thresholds are therefore
**bit-for-bit identical** to feeding :meth:`NormalProfile.observe` the
same values (see ``tests/test_analysis_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ml.kde import GaussianKDE
from ..radio.trace import RssiTrace, StreamBuffer
from ..sliding import sample_count, sliding, sum_rows
from .config import MDConfig
from .windows import VariationWindow

__all__ = [
    "StdSumTracker",
    "NormalProfile",
    "MovementDetector",
    "OfflineMDResult",
    "rolling_std_matrix",
    "detect_offline_scalar",
]


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
                self._kde = self._kde.updated(
                    self._batch, drop_oldest=len(self._batch)
                )
                self._rebuild_threshold()
            self._batch = []
        return anomalous


@dataclass(frozen=True)
class OfflineMDResult:
    """Everything an offline MD run produces.

    Attributes
    ----------
    times:
        Timestamps at which ``s_t`` is defined: every sample but the first
        (a standard deviation needs two points).
    std_sums:
        The ``s_t`` series (same length as ``times``).
    windows:
        All variation windows, regardless of duration (the ``t_delta``
        filter is applied later by the matching / controller logic).
    threshold_trace:
        The anomaly threshold in force at each time step (it moves as the
        profile updates).
    """

    times: np.ndarray
    std_sums: np.ndarray
    windows: Tuple[VariationWindow, ...]
    threshold_trace: np.ndarray

    def windows_at_least(self, min_duration_s: float) -> List[VariationWindow]:
        """Variation windows lasting at least ``min_duration_s``."""
        return [w for w in self.windows if w.duration >= min_duration_s]


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


# ---------------------------------------------------------------------- #
# Offline (columnar) path
# ---------------------------------------------------------------------- #
def rolling_std_matrix(
    trace: RssiTrace, window_samples: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-stream rolling standard deviations of a recorded trace.

    Returns ``(trace.times[1:], std_matrix)`` where ``std_matrix[i, j]`` is
    the std of the last ``window_samples`` samples (all, while fewer exist)
    of stream ``trace.stream_ids[j]`` ending at ``times[i]``, as
    :class:`~repro.streaming.detector.OnlineStdSum` computes it.  Computed
    once per recording, it is the evaluation pipeline's shared feature
    matrix: a sensor subset's ``s_t`` is :func:`~repro.sliding.sum_rows` of
    its columns, which ``std_matrix.T`` holds as contiguous rows.
    """
    if window_samples < 2:
        raise ValueError("window_samples must be >= 2")
    if not trace.streams:
        raise ValueError("trace has no streams")
    block = np.array([trace.streams[sid] for sid in trace.stream_ids], dtype=float)
    return trace.times[1:], sliding(block, window_samples, np.std, first=1)[:, 1:].T


def _profile_init_samples(times: np.ndarray, cfg: MDConfig) -> int:
    """Profile installation length of an ``s_t`` series (two values at least)."""
    if times.shape[0] < 2:
        raise ValueError("not enough samples for offline MD")
    rate = 1.0 / float(np.median(np.diff(times)))
    return sample_count(cfg.profile_init_s, rate)


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
