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

Entry points:

* :class:`MovementDetector` — the online, sample-by-sample detector used by
  the live system,
* :func:`detect_offline` — a columnar offline run over a recorded
  :class:`~repro.radio.trace.RssiTrace`, used by the evaluation harness,
* :func:`detect_offline_scalar` — the retained per-observation reference
  implementation of exactly the same contract,
* :func:`run_profile_grid` — many independent ``s_t`` columns (sensor
  subsets, days) at once.

The per-observation reference
-----------------------------

:class:`NormalProfile` (driven one observation at a time) is the semantics
reference for Algorithm 1's profile.  Everywhere else the profile runs
on one engine, :class:`~repro.detectors.kde_md.OnlineProfile`:
:func:`detect_offline`, :func:`run_profile_grid` and the streaming
service all drive it.  Both build identical KDE data windows with identical
Scott bandwidths and solve thresholds with the same warm-started
safeguarded-Newton engine (:func:`~repro.ml.kde.mixture_quantiles`), whose
per-row arithmetic is independent of batching.  Decisions and thresholds
are therefore **bit-for-bit identical** to feeding
:meth:`NormalProfile.observe` the same values (see
``tests/test_analysis_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..detectors import DetectionGrid, KdeMdDetector
from ..ml.kde import GaussianKDE
from ..radio.trace import RssiTrace, StreamBuffer
from ..sliding import sample_count, sliding
from .config import MDConfig
from .windows import VariationWindow

__all__ = [
    "StdSumTracker",
    "NormalProfile",
    "MovementDetector",
    "OfflineMDResult",
    "ProfileGridResult",
    "rolling_std_sum",
    "rolling_std_matrix",
    "online_std_sum_series",
    "run_profile_grid",
    "variation_windows_from_flags",
    "window_duration_series",
    "detect_offline",
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

    def reset(self) -> None:
        self._buffer.clear()


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
        Timestamps at which ``s_t`` was defined (the first window's worth of
        samples has no value).
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
    """Online MD: consumes multi-stream RSSI samples, emits variation windows.

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

    Returns ``(times, std_matrix)`` where ``std_matrix[i, j]`` is the
    standard deviation of the last ``window_samples`` samples of stream
    ``trace.stream_ids[j]`` ending at ``times[i]``.  This is the shared
    feature matrix of the evaluation pipeline: computed once per recording,
    any sensor subset's ``s_t`` series is a column-subset sum of it
    (bit-identical to recomputing on the restricted trace, because each
    column's rolling statistics are independent of the others).
    """
    if window_samples < 2:
        raise ValueError("window_samples must be >= 2")
    n = trace.n_samples
    if n < window_samples:
        raise ValueError("trace shorter than the std window")
    matrix = np.column_stack([trace.streams[sid] for sid in trace.stream_ids])
    # Rolling mean/variance via cumulative sums.  All combining steps run
    # in place on the fresh temporaries (bit-identical values, roughly
    # half the large allocations of the naive expression chain).
    csum = np.cumsum(matrix, axis=0)
    np.multiply(matrix, matrix, out=matrix)
    csum2 = np.cumsum(matrix, axis=0)
    w = window_samples
    sum_w = csum[w - 1 :].copy()
    sum_w[1:] -= csum[: n - w]
    sum2_w = csum2[w - 1 :].copy()
    sum2_w[1:] -= csum2[: n - w]
    sum_w /= w          # rolling mean
    sum2_w /= w
    np.multiply(sum_w, sum_w, out=sum_w)
    np.subtract(sum2_w, sum_w, out=sum2_w)
    np.maximum(sum2_w, 0.0, out=sum2_w)
    np.sqrt(sum2_w, out=sum2_w)
    return trace.times[w - 1 :], sum2_w


def rolling_std_sum(trace: RssiTrace, window_samples: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised ``s_t`` series of a recorded trace.

    Returns ``(times, std_sums)`` where the series starts at the first index
    with a full window.
    """
    times, std_matrix = rolling_std_matrix(trace, window_samples)
    return times, std_matrix.sum(axis=1)


def online_std_sum_series(
    matrix: np.ndarray, window_samples: int
) -> np.ndarray:
    """The ``s_t`` series an online :class:`StdSumTracker` would emit.

    ``matrix`` is the ``(n_steps, n_streams)`` sample matrix in stream
    order.  Unlike :func:`rolling_std_sum` (which starts at the first full
    window), the online tracker emits values as soon as two samples are
    buffered, computing the std over the *partial* window; this helper
    replicates that exactly.  Returns an array of length ``n_steps`` whose
    first element is NaN (no std of a single sample).
    """
    if window_samples < 2:
        raise ValueError("window_samples must be >= 2")
    # The same per-stream sliding std and left-to-right stream sum as the
    # online tracker and OnlineStdSum.
    total = np.full(matrix.shape[0], np.nan)
    for j in range(matrix.shape[1]):
        stds = sliding(matrix[:, j], window_samples, np.std, first=1)
        total = stds if j == 0 else total + stds
    return total


#: :func:`run_profile_grid`'s result: the zoo's :class:`DetectionGrid`.
ProfileGridResult = DetectionGrid


def run_profile_grid(
    std_sums: np.ndarray, config: Optional[MDConfig] = None, init_samples: int = 2
) -> ProfileGridResult:
    """Advance Algorithm 1's normal profile over many ``s_t`` columns at once.

    ``std_sums`` is an ``(n_obs, n_columns)`` matrix whose columns are
    independent profile chains (sensor subsets, days...), or one plain
    series; ``init_samples`` is the installation phase of
    ``NormalProfile(config, init_samples)``.  This is
    :meth:`KdeMdDetector.offline_grid <repro.detectors.KdeMdDetector>`:
    per column, bit for bit the decisions and thresholds of feeding the
    values one by one to :meth:`NormalProfile.observe`.
    """
    std_sums = np.asarray(std_sums, dtype=float)
    if std_sums.ndim == 1:
        # A plain s_t series is one profile chain, not n one-observation
        # columns.
        std_sums = std_sums[:, np.newaxis]
    cfg = config if config is not None else MDConfig()
    return KdeMdDetector().offline_grid(std_sums, cfg, init_samples)


def variation_windows_from_flags(
    times: np.ndarray, anomalous: np.ndarray, merge_gap_s: float
) -> Tuple[VariationWindow, ...]:
    """Variation windows from a boolean anomaly series.

    Replicates the scalar window bookkeeping: a window spans from the first
    anomalous instant of a run to its last, and two runs merge unless some
    non-anomalous observation between them arrived more than ``merge_gap_s``
    after the earlier run's last anomalous instant.
    """
    idx = np.flatnonzero(anomalous)
    if idx.size == 0:
        return ()
    # The scalar loop closes a window at the first non-anomalous t with
    # t - last_anomalous > gap; between consecutive anomalous indices the
    # largest such t is the one right before the next anomalous index.
    gap_exceeded = times[idx[1:] - 1] - times[idx[:-1]] > merge_gap_s
    split = (idx[1:] > idx[:-1] + 1) & gap_exceeded
    bounds = np.flatnonzero(split) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds - 1, [idx.size - 1]])
    return tuple(
        VariationWindow(float(times[idx[s]]), float(times[idx[e]]))
        for s, e in zip(starts, ends)
    )


def window_duration_series(
    times: np.ndarray, anomalous: np.ndarray, merge_gap_s: float
) -> np.ndarray:
    """Per-step ``dW_t`` as the online :class:`MovementDetector` reports it.

    For every timestep: the duration of the currently open variation window
    (time since the open window's first anomalous instant), or 0 when no
    window is open.  A window stays open after its last anomalous instant
    until an observation arrives more than ``merge_gap_s`` later.
    """
    n = times.shape[0]
    out = np.zeros(n)
    idx = np.flatnonzero(anomalous)
    if idx.size == 0:
        return out
    gap_exceeded = times[idx[1:] - 1] - times[idx[:-1]] > merge_gap_s
    split = (idx[1:] > idx[:-1] + 1) & gap_exceeded
    group = np.concatenate([[0], np.cumsum(split)])
    first_of_group = idx[np.concatenate([[0], np.flatnonzero(split) + 1])]
    group_start_t = times[first_of_group]
    # Most recent anomalous index at or before each step.
    prev = np.searchsorted(idx, np.arange(n), side="right") - 1
    has_prev = prev >= 0
    prev_clipped = np.clip(prev, 0, None)
    last_anom_t = times[idx[prev_clipped]]
    is_open = has_prev & (times - last_anom_t <= merge_gap_s)
    out[is_open] = times[is_open] - group_start_t[group[prev_clipped[is_open]]]
    return out


def detect_offline(
    trace: RssiTrace,
    config: Optional[MDConfig] = None,
    *,
    precomputed: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    detector: object = KdeMdDetector(),
) -> OfflineMDResult:
    """Run Algorithm 1 over a recorded trace (columnar fast path).

    Produces output bit-identical to :func:`detect_offline_scalar`, which
    remains the readable per-observation reference.

    Parameters
    ----------
    trace:
        The recorded multi-stream RSSI trace.
    config:
        MD parameters.
    precomputed:
        Optionally, a ``(times, std_sums)`` pair already computed with
        :func:`rolling_std_sum` — the per-sensor-count sweeps reuse it to
        avoid recomputing the rolling statistics.
    detector:
        The detector-zoo member (``repro.detectors``) whose
        ``offline_grid`` decides; the paper's KDE detector by default,
        bit-identical to the scalar reference.
    """
    cfg = config if config is not None else MDConfig()
    times, std_sums, init_samples = _offline_series(trace, cfg, precomputed)
    grid = detector.offline_grid(std_sums[:, np.newaxis], cfg, init_samples)
    return OfflineMDResult(
        times=times,
        std_sums=std_sums,
        windows=variation_windows_from_flags(
            times, grid.decisions[:, 0] == 1, cfg.merge_gap_s
        ),
        threshold_trace=grid.thresholds[:, 0],
    )


def _offline_series(
    trace: RssiTrace,
    cfg: MDConfig,
    precomputed: Optional[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Shared preamble of the offline detectors: ``s_t`` series + init size."""
    if precomputed is not None:
        times, std_sums = precomputed
    else:
        rate = 1.0 / trace.sample_interval
        times, std_sums = rolling_std_sum(trace, sample_count(cfg.std_window_s, rate))
    if times.shape[0] < 2:
        raise ValueError("not enough samples for offline MD")
    rate = 1.0 / float(np.median(np.diff(times)))
    return times, std_sums, sample_count(cfg.profile_init_s, rate)


def detect_offline_scalar(
    trace: RssiTrace,
    config: Optional[MDConfig] = None,
    *,
    precomputed: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> OfflineMDResult:
    """Per-observation reference implementation of :func:`detect_offline`.

    Drives :class:`NormalProfile` one value at a time, exactly like the
    online detector; the equivalence tests pin :func:`detect_offline`
    against it.
    """
    cfg = config if config is not None else MDConfig()
    times, std_sums, init_samples = _offline_series(trace, cfg, precomputed)
    profile = NormalProfile(cfg, init_samples)

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
