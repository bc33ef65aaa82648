"""The incremental detection kernel: Algorithm 1 over an unbounded stream.

:class:`OnlineDetector` composes bounded-state pieces:

* :class:`OnlineStdSum` — the rolling ``s_t`` series.  Keeps only the last
  ``window_samples - 1`` samples per stream (one carry row each), so
  per-sample work is constant in the stream length, while reproducing the
  per-sample reference tracker (``tests/oracles/movement.py``) **bit for
  bit** — including the partial-window head at stream start, whatever the
  arrival batching.  It is also the sweep's ``s_t``: the evaluation pipeline's
  :func:`~repro.core.movement.rolling_std_matrix` runs the same kernel, so
  the paper tables threshold the series a router sees;
* the detector's decision engine — by default
  :class:`~repro.detectors.kde_md.OnlineProfile`, the KDE normal profile
  (re-exported here), the same engine the offline grids run;
* :class:`WindowTracker` — the variation-window bookkeeping (open window,
  merge gap, per-step ``dW_t``), the automaton of the scalar per-sample
  reference detector evaluated a whole batch at a time in closed form;
  the sweep closes its windows with it too.

Bit-exactness of ``s_t`` under any batch split comes from
:mod:`repro.sliding`, which every offline series (replay, sweep, Figure 2)
shares.  A batch costs one ``np.std`` call over every stream's windows and
one closed-form window update, not one per stream or per sample: at the
router's 4-sample cadence the dispatch, not the arithmetic, is the cost.
Per-sample cost is O(``window_samples`` × ``n_streams``) and independent of how many samples the stream has already
delivered; state is O(``window_samples`` × ``n_streams`` + profile window).

Checkpoint/restore
------------------

Every piece exposes ``snapshot() -> dict`` / ``restore(state)``, and
:class:`OnlineDetector` additionally a :meth:`OnlineDetector.from_snapshot`
constructor.  Snapshots are plain JSON-serialisable dicts of the bounded
state — and because python's ``json`` round-trips every float64 exactly
(shortest-repr encode, exact decode, NaN/Infinity tokens included), a
detector restored from a JSON-serialised snapshot continues the stream
**bitwise identically** to one that was never interrupted, at any cut
point (partial-window head included).  That is the property the
reliability layer's kill/resume tests assert for every registered zoo
engine, and what makes router shard restarts provably lossless.  A
snapshot whose carry tails do not hold ``min(count, window - 1)`` values,
or whose decision-engine fields disagree with each other, is rejected at
restore with a ``ValueError`` naming the field.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.config import MDConfig
from ..core.windows import VariationWindow
from ..detectors import DETECTORS, KdeMdDetector
from ..detectors.kde_md import OnlineProfile
from ..sliding import Carry, sample_count, sliding, sum_rows

__all__ = [
    "OnlineStdSum",
    "OnlineProfile",
    "WindowTracker",
    "DetectionBlock",
    "OnlineDetector",
]


def _check_times(times: np.ndarray, after: Optional[float], order_error: str) -> None:
    """Raise ``ValueError`` unless the non-empty ``times`` are finite,
    strictly increasing and later than ``after``.  NaN fails every
    comparison, so positive steps between finite ends are finite throughout."""
    if not (
        math.isfinite(times[0])
        and math.isfinite(times[-1])
        and (after is None or times[0] > after)
        and (times.shape[0] == 1 or bool(np.all(np.diff(times) > 0)))
    ):
        finite = bool(np.isfinite(times).all())
        raise ValueError(order_error if finite else "timestamps must be finite")


class OnlineStdSum:
    """Streaming ``s_t``: the std-sum series with bounded carry state.

    Parameters
    ----------
    n_streams:
        Number of monitored RSSI streams (the column count of every batch).
    window_samples:
        Sliding-window length ``d`` seconds times the sampling rate.

    :meth:`extend` consumes a ``(m, n_streams)`` sample batch and returns
    the ``m`` new ``s_t`` values, NaN where the series is undefined (the
    very first sample of the stream — a standard deviation needs two
    points).  Concatenating the outputs over any batching of a stream is
    bit-identical to one :meth:`extend` over the full sample matrix: each
    call runs :func:`repro.sliding.sliding` over the rows of a
    :class:`repro.sliding.Carry` of the last ``window_samples - 1``
    samples per stream.
    """

    def __init__(self, n_streams: int, window_samples: int) -> None:
        if n_streams < 1:
            raise ValueError("n_streams must be >= 1")
        if window_samples < 2:
            raise ValueError("window_samples must be >= 2")
        self._k = int(n_streams)
        self._w = int(window_samples)
        self._carry = Carry(self._w - 1, range(self._k))

    @property
    def window_samples(self) -> int:
        return self._w

    @property
    def n_streams(self) -> int:
        return self._k

    @property
    def samples_seen(self) -> int:
        """Total samples consumed, a restored snapshot's included."""
        return self._carry.count

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready bounded state: sample count + per-stream carry tails."""
        return self._carry.snapshot()

    def restore(self, state: Mapping[str, Any]) -> None:
        """Overwrite the mutable state from a :meth:`snapshot` dict."""
        self._carry.restore(state)

    def extend(self, matrix: np.ndarray) -> np.ndarray:
        """Consume one ``(m, n_streams)`` batch; return its ``s_t`` values."""
        matrix = np.asarray(matrix, dtype=float)
        ext, seen = self._carry.push(matrix)
        return sum_rows(
            sliding(ext, self._w, np.std, new=matrix.shape[0], seen=seen, first=1)
        )


class WindowTracker:
    """Variation-window automaton: open/merge/close plus per-step ``dW_t``.

    The bookkeeping of the scalar per-sample reference detector
    (``tests/oracles/movement.py``), and the only one the
    live system, the router and the sweep run: a window opens at the first
    anomalous instant, stays open through non-anomalous observations
    arriving within ``merge_gap_s`` of the last anomalous one, and closes
    (recording the completed :class:`~repro.core.windows.VariationWindow`)
    at the first observation arriving strictly later than the gap.
    :meth:`extend` advances it by a whole batch in closed form, seeded
    with the carried open window, so any batch split gives the same bits.
    """

    def __init__(self, merge_gap_s: float) -> None:
        self._gap = float(merge_gap_s)
        if not self._gap >= 0:
            raise ValueError("merge_gap_s must be non-negative")
        self._window_start: Optional[float] = None
        self._last_anomalous_t: Optional[float] = None
        self._completed: List[VariationWindow] = []

    # ------------------------------------------------------------------ #
    @property
    def completed_windows(self) -> List[VariationWindow]:
        return list(self._completed)

    def current_window(self, t: float) -> Optional[VariationWindow]:
        if self._window_start is None:
            return None
        return VariationWindow(self._window_start, t)

    def current_window_duration(self, t: float) -> float:
        if self._window_start is None:
            return 0.0
        return max(t - self._window_start, 0.0)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready automaton state: open window + completed windows."""
        return {
            "window_start": self._window_start,
            "last_anomalous_t": self._last_anomalous_t,
            "completed": [[w.t_start, w.t_end] for w in self._completed],
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Overwrite the mutable state from a :meth:`snapshot` dict."""
        start = state["window_start"]
        last = state["last_anomalous_t"]
        self._window_start = None if start is None else float(start)
        self._last_anomalous_t = None if last is None else float(last)
        self._completed = [
            VariationWindow(float(s), float(e)) for s, e in state["completed"]
        ]

    # ------------------------------------------------------------------ #
    def extend(self, times: np.ndarray, anomalous: np.ndarray) -> np.ndarray:
        """Advance by one batch of observations; return ``dW_t`` at each.

        ``times`` is the batch's strictly increasing ``(m,)`` timestamps,
        all later than the observations already consumed; ``anomalous``
        its ``(m,)`` boolean flags.  ``dW_t`` is ``t`` minus the open
        window's start, or 0 where no window is open after observation
        ``t``.  Windows the batch closes join :attr:`completed_windows`.
        """
        times = np.asarray(times, dtype=float)
        anomalous = np.asarray(anomalous, dtype=bool)
        is_open = self._window_start is not None
        if not times.size or not (is_open or np.count_nonzero(anomalous)):
            return np.zeros(times.shape[0])
        # Seeds of the forward fills below: the carried window's start and
        # last anomalous instant, which precede the batch's first one.
        start, last = (
            (self._window_start, self._last_anomalous_t)
            if is_open
            else (-np.inf, -np.inf)
        )
        # An observation lies inside a window while it is within the gap of
        # the latest anomalous instant at or before it (times increase, so
        # a running maximum forward-fills).
        last = np.maximum.accumulate(np.where(anomalous, times, last))
        inside = ~(times - last > self._gap)
        # A window opens at an anomalous observation that follows one
        # outside every window; the latest such opening is the start of
        # the window an observation lies in.
        was_inside = np.concatenate(([is_open], inside[:-1]))
        first = np.maximum.accumulate(
            np.where(anomalous & ~was_inside, times, start)
        )
        durations = np.where(inside, times - first, 0.0)
        # A window closes at the first observation outside it.
        closes = was_inside & ~inside
        self._completed.extend(
            map(VariationWindow, first[closes].tolist(), last[closes].tolist())
        )
        if inside[-1]:
            self._window_start = float(first[-1])
            self._last_anomalous_t = float(last[-1])
        else:
            self._window_start = self._last_anomalous_t = None
        return durations

    def finalize(self) -> None:
        """Close any open window at the end of a stream."""
        if self._window_start is not None and self._last_anomalous_t is not None:
            self._completed.append(
                VariationWindow(self._window_start, self._last_anomalous_t)
            )
            self._window_start = None
            self._last_anomalous_t = None


@dataclass(frozen=True)
class DetectionBlock:
    """Everything the kernel derived from one consumed sample batch.

    Attributes
    ----------
    times:
        The batch timestamps.
    std_sums:
        ``s_t`` per instant (NaN where undefined).
    decisions:
        int8 per instant: ``-1`` initialising, ``0`` normal, ``1``
        anomalous.
    thresholds:
        Anomaly threshold in force after each instant (NaN while
        initialising).
    durations:
        ``dW_t`` per instant — the quantity driving the controller.
    zone_scores / zone_occupancy:
        Per-instant zone-occupancy inference (``repro.zones``) when the
        detector hosts a :class:`~repro.zones.estimator.ZoneEngine`;
        ``None`` otherwise.  ``zone_scores`` is ``(m, n_zones)`` (NaN in
        the calibration window), ``zone_occupancy`` int64 (``-1`` = no
        zone declared occupied).
    """

    times: np.ndarray
    std_sums: np.ndarray
    decisions: np.ndarray
    thresholds: np.ndarray
    durations: np.ndarray
    zone_scores: Optional[np.ndarray] = None
    zone_occupancy: Optional[np.ndarray] = None

    @property
    def n_samples(self) -> int:
        return int(self.times.shape[0])

    @property
    def anomalous(self) -> np.ndarray:
        """Boolean anomaly flags (initialising counts as not anomalous)."""
        return self.decisions == 1


class OnlineDetector:
    """The streaming MD kernel: Algorithm 1 with bounded state.

    Consumes timestamped multi-stream sample batches (of any size,
    including single samples) and produces per-instant ``s_t``, anomaly
    decisions, thresholds and window durations — bit-identical to the
    columnar offline kernel over the concatenated stream and to the scalar
    per-sample reference detector (``tests/oracles/movement.py``),
    whatever the arrival batching.  It is the live system's MD engine
    (:meth:`~repro.core.system.FadewichSystem.process_sample`).

    Parameters
    ----------
    stream_ids:
        Monitored stream ids, fixing the column order of sample batches.
    config:
        MD parameters.
    sample_rate_hz:
        Sampling rate of the stream (window sizes derive from it exactly
        like the scalar detector's).
    detector:
        The detector-zoo member (``repro.detectors``) whose
        ``streaming_engine`` decides behind the shared std-sum kernel and
        window tracker; the paper's KDE detector by default.
    zones:
        Optional :class:`~repro.zones.estimator.ZoneEngine` (from
        :meth:`~repro.zones.estimator.ZoneOccupancyEstimator.
        streaming_engine`): the detector feeds it every consumed batch
        and attaches its per-instant zone scores/occupancy to each
        :class:`DetectionBlock`.  The engine must have been built for the
        same stream ids in the same order.
    """

    def __init__(
        self,
        stream_ids: Sequence[str],
        config: Optional[MDConfig] = None,
        sample_rate_hz: float = 4.0,
        *,
        detector: object = KdeMdDetector(),
        zones: Optional[object] = None,
    ) -> None:
        if sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        self._stream_ids = list(stream_ids)
        if not self._stream_ids:
            raise ValueError("at least one stream id is required")
        self._config = config if config is not None else MDConfig()
        self._rate = float(sample_rate_hz)
        self._detector = detector
        self._std = OnlineStdSum(
            len(self._stream_ids),
            sample_count(self._config.std_window_s, self._rate),
        )
        self._profile = detector.streaming_engine(
            self._config, sample_count(self._config.profile_init_s, self._rate)
        )
        if zones is not None and list(zones.stream_ids) != self._stream_ids:
            raise ValueError(
                "zone engine stream ids do not match the detector's"
            )
        self._zones = zones
        self._windows = WindowTracker(self._config.merge_gap_s)
        self._last_t: Optional[float] = None

    # ------------------------------------------------------------------ #
    @property
    def stream_ids(self) -> List[str]:
        return list(self._stream_ids)

    @property
    def config(self) -> MDConfig:
        return self._config

    @property
    def profile(self):
        """The decision engine (``OnlineProfile`` for the KDE detector)."""
        return self._profile

    @property
    def detector(self) -> object:
        """The zoo member driving decisions."""
        return self._detector

    @property
    def zones(self) -> Optional[object]:
        """The hosted zone-occupancy engine (``None`` = detection only)."""
        return self._zones

    @property
    def samples_seen(self) -> int:
        return self._std.samples_seen

    @property
    def completed_windows(self) -> List[VariationWindow]:
        return self._windows.completed_windows

    def current_window(self, t: float) -> Optional[VariationWindow]:
        return self._windows.current_window(t)

    def current_window_duration(self, t: float) -> float:
        """``dW_t``: duration of the open variation window at ``t`` (0 if none)."""
        return self._windows.current_window_duration(t)

    def finalize(self) -> None:
        """Close any open variation window at the end of the stream."""
        self._windows.finalize()

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready checkpoint of the whole kernel.

        Self-describing: carries the construction parameters (stream ids,
        config, rate, detector spec) alongside the mutable state of every
        sub-engine, so :meth:`from_snapshot` rebuilds an equivalent
        detector from the dict alone.  Round-tripping the dict through
        ``json`` preserves every float bit-for-bit, so the restored
        detector's future output is bitwise identical to this one's.
        """
        engine = self._profile
        if not callable(getattr(engine, "snapshot", None)):
            raise TypeError(
                f"decision engine {type(engine).__name__} does not implement "
                "snapshot(); checkpointing requires snapshot()/restore()"
            )
        return {
            "format": 1,
            "stream_ids": list(self._stream_ids),
            "sample_rate_hz": self._rate,
            "config": dataclasses.asdict(self._config),
            "detector": {
                "name": self._detector.name,
                "config": dataclasses.asdict(self._detector),
            },
            "std": self._std.snapshot(),
            "engine": engine.snapshot(),
            "windows": self._windows.snapshot(),
            "last_t": self._last_t,
            "zones": (
                None if self._zones is None else self._zones.snapshot()
            ),
        }

    @classmethod
    def from_snapshot(cls, state: Mapping[str, Any]) -> "OnlineDetector":
        """Rebuild a detector mid-stream from a :meth:`snapshot` dict."""
        if not isinstance(state, Mapping):
            raise ValueError(
                f"snapshot must be a mapping, got {type(state).__name__}"
            )
        fmt = state.get("format")
        if fmt != 1:
            raise ValueError(f"unsupported detector snapshot format: {fmt!r}")
        # Snapshots written while the KDE detector was the implicit
        # default carry ``null`` here.
        det_spec = state["detector"] or {"name": KdeMdDetector.name, "config": {}}
        detector = DETECTORS.lookup(det_spec["name"])(**det_spec["config"])
        zones: Optional[object] = None
        zones_state = state.get("zones")
        if zones_state is not None:
            from ..zones.estimator import ZoneEngine  # local: optional layer

            zones = ZoneEngine.from_snapshot(zones_state)
        inst = cls(
            state["stream_ids"],
            MDConfig(**state["config"]),
            float(state["sample_rate_hz"]),
            detector=detector,
            zones=zones,
        )
        engine = inst._profile
        if not callable(getattr(engine, "restore", None)):
            raise TypeError(
                f"decision engine {type(engine).__name__} does not implement "
                "restore(); checkpointing requires snapshot()/restore()"
            )
        inst._std.restore(state["std"])
        engine.restore(state["engine"])
        inst._windows.restore(state["windows"])
        last_t = state["last_t"]
        inst._last_t = None if last_t is None else float(last_t)
        return inst

    # ------------------------------------------------------------------ #
    def process_block(
        self, times: np.ndarray, matrix: np.ndarray
    ) -> DetectionBlock:
        """Consume one timestamped sample batch.

        ``times`` is a finite, strictly increasing ``(m,)`` array
        continuing the stream (every timestamp must be later than
        everything already consumed); ``matrix`` is the ``(m, n_streams)``
        sample block in ``stream_ids`` order.  A batch that breaks either
        rule raises ``ValueError`` and changes no state.
        """
        times = np.asarray(times, dtype=float)
        matrix = np.asarray(matrix, dtype=float)
        if times.ndim != 1 or matrix.ndim != 2:
            raise ValueError("times must be (m,) and matrix (m, n_streams)")
        if times.shape[0] != matrix.shape[0]:
            raise ValueError("times and matrix must have equal length")
        m = times.shape[0]
        if m:
            order = "samples must arrive in strictly increasing time order"
            _check_times(times, self._last_t, order)

        std_sums = self._std.extend(matrix)
        decisions = np.full(m, -1, dtype=np.int8)
        thresholds = np.full(m, np.nan)
        defined = ~np.isnan(std_sums)
        if defined.any():
            d, th = self._profile.extend(std_sums[defined])
            decisions[defined] = d
            thresholds[defined] = th
        durations = self._windows.extend(times, decisions == 1)
        if m:
            self._last_t = float(times[-1])
        zone_scores = zone_occupancy = None
        if self._zones is not None:
            zone_grid = self._zones.extend(matrix)
            zone_scores = zone_grid.scores
            zone_occupancy = zone_grid.occupied
        return DetectionBlock(
            times=times,
            std_sums=std_sums,
            decisions=decisions,
            thresholds=thresholds,
            durations=durations,
            zone_scores=zone_scores,
            zone_occupancy=zone_occupancy,
        )

    def process(self, t: float, sample: Mapping[str, float]) -> Optional[bool]:
        """Consume one sample dict; return the anomaly decision (or ``None``).

        The per-sample entry point the live system drives, with the
        signature and semantics of the scalar reference detector's
        ``process`` — ``None`` while the std window or the
        normal profile is still initialising.
        """
        row = np.array(
            [[float(sample[sid]) for sid in self._stream_ids]], dtype=float
        )
        block = self.process_block(np.asarray([t], dtype=float), row)
        decision = int(block.decisions[0])
        if decision < 0:
            return None
        return bool(decision)
