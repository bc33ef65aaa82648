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
* :class:`OfflineMDResult` — what an MD run over a recorded day reports.

MD itself runs on one engine per detector.  The streaming kernel
:class:`~repro.streaming.detector.OnlineDetector` is what the live
system, the replay and the router run, fed a trace in any batch split;
the sweep (:func:`~repro.core.evaluation.evaluate_md_grid`) feeds the
same engine many independent ``s_t`` columns (sensor subsets, days) at
once, as lockstep chains.  Both close variation windows with
:class:`~repro.streaming.detector.WindowTracker`, and for Algorithm 1 both
advance the KDE profile with
:class:`~repro.detectors.kde_md.OnlineProfile`, whose warm-started
safeguarded-Newton thresholds
(:func:`~repro.ml.kde.mixture_quantiles`) are independent of batching.

The per-sample and per-observation references of ``s_t``, the normal
profile and the detector live in ``tests/oracles/movement.py``.
Decisions, thresholds and windows are **bit-for-bit identical** to
feeding them the same samples (``tests/test_analysis_equivalence.py``,
``tests/test_streaming_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..radio.trace import RssiTrace
from ..sliding import sample_count, sliding
from .config import MDConfig
from .windows import VariationWindow

__all__ = ["OfflineMDResult", "rolling_std_matrix"]


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
