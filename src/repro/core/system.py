"""The complete online FADEWICH system.

Wires together the three modules (KMA, MD, RE), the controller and the
workstation sessions into a single object that consumes the live RSSI
sample stream, exactly like the deployed system of the paper (Figure 1).

Two ways to drive it:

* **online** — call :meth:`process_sample` for every incoming multi-stream
  RSSI sample (after training RE via :meth:`train` and connecting KMA via
  :meth:`attach_idle_provider`).  MD is the streaming kernel
  :class:`~repro.streaming.detector.OnlineDetector` (:attr:`detector`),
  fed one sample at a time;
* **replay** — call :meth:`replay_day` on a recorded
  :class:`~repro.simulation.collector.DayRecording` to re-live a captured
  day end to end.  The whole day goes to an ``OnlineDetector`` as one
  batch (no per-step sample dicts, no per-step ``np.std``), and only the
  controller/session state machines advance step by step, fed from the
  kernel's arrays.

Both produce reports bit-identical to the per-sample reference replay in
``tests/oracles/system.py``, which drives the scalar MD engine one sample
dict at a time (``tests/test_analysis_equivalence.py``), and the kernel
itself is pinned bit-identical to the per-sample detector whatever the
arrival batching (``tests/test_streaming_equivalence.py``).

Both classify one RE window.  When Rule 1 fires at ``t`` on the
variation window whose first anomalous sample is ``t1``, RE reads the
samples of ``[t1, t1 + t_delta]`` through
:meth:`~repro.core.radio_env.RadioEnvironment.classify_window` — the
window RE is trained on and Table IV scores.  :meth:`process_sample`
reads ``t1`` from the detector's open window and keeps that window's
samples up to ``t1 + t_delta``; the replay reads the recorded day.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..mobility.events import ENTRY_LABEL
from ..radio.trace import RssiTrace
from ..simulation.collector import DayRecording
from ..simulation.dataset import SampleDataset
from ..streaming.detector import OnlineDetector
from ..workstation.activity import ActivityTrace
from ..workstation.session import SessionState, WorkstationSession
from .config import FadewichConfig
from .controller import ControllerAction, ControllerState, FadewichController
from .kma import KeyboardMouseActivity
from .radio_env import RadioEnvironment
from .windows import VariationWindow

__all__ = ["ReplayReport", "FadewichSystem"]


class _GridIdleProvider:
    """Idle-time provider backed by per-step precomputed arrays.

    Serves the KMA queries of the array replay: every controller step
    queries idle times at a grid timestamp, answered by one array lookup
    instead of a backwards scan through the activity bins.  Off-grid
    queries fall back to the exact trace computation.
    """

    def __init__(
        self, traces: Mapping[str, ActivityTrace], times: np.ndarray
    ) -> None:
        self._traces = dict(traces)
        self._times = times
        self._idle = {
            wid: trace.idle_times_at(times) for wid, trace in self._traces.items()
        }
        self._cursor = 0

    @property
    def workstation_ids(self) -> List[str]:
        return list(self._traces.keys())

    def idle_time(self, workstation_id: str, t: float) -> float:
        times = self._times
        n = times.shape[0]
        i = self._cursor
        if i >= n or times[i] != t:
            # The replay visits timestamps in order: the next step is the
            # overwhelmingly common miss, so try it before binary search.
            if i + 1 < n and times[i + 1] == t:
                i += 1
            else:
                i = int(np.searchsorted(times, t))
                if i >= n or times[i] != t:
                    return self._traces[workstation_id].idle_time_at(t)
            self._cursor = i
        return float(self._idle[workstation_id][i])


@dataclass
class ReplayReport:
    """Summary of a replayed day or a live run (:meth:`FadewichSystem.report`).

    Attributes
    ----------
    actions:
        Every controller action (deauthentications and alerts) in order.
    final_states:
        The session state of every workstation at the end of the day.
    deauthentications:
        Number of Rule-1 deauthentications.
    alerts:
        Number of Rule-2 alert activations.
    screensavers:
        Number of screen-saver activations across all sessions.
    """

    actions: List[ControllerAction] = field(default_factory=list)
    final_states: Dict[str, SessionState] = field(default_factory=dict)
    deauthentications: int = 0
    alerts: int = 0
    screensavers: int = 0


class FadewichSystem:
    """The assembled FADEWICH deployment.

    Parameters
    ----------
    stream_ids:
        The monitored RSSI streams (fixing the RE feature layout).
    workstation_ids:
        The protected workstations.
    config:
        System configuration.
    sample_rate_hz:
        Sampling rate of the incoming RSSI stream.
    random_state:
        Seed forwarded to the stochastic components.
    """

    def __init__(
        self,
        stream_ids: Sequence[str],
        workstation_ids: Sequence[str],
        config: Optional[FadewichConfig] = None,
        *,
        sample_rate_hz: float = 4.0,
        random_state: Optional[int] = None,
    ) -> None:
        if not workstation_ids:
            raise ValueError("at least one workstation is required")
        self._config = config if config is not None else FadewichConfig()
        self._rate = sample_rate_hz
        self._stream_ids = list(stream_ids)
        self._workstation_ids = list(workstation_ids)
        self._re = RadioEnvironment(
            stream_ids=self._stream_ids,
            config=self._config.re,
            random_state=random_state,
        )
        self._detector = OnlineDetector(
            self._stream_ids, self._config.md, sample_rate_hz
        )
        # (t, row) pairs of the open variation window up to t1 + t_delta:
        # the samples RE classifies when Rule 1 fires.
        self._window_samples: List[Tuple[float, List[float]]] = []
        self._kma: Optional[KeyboardMouseActivity] = None
        self._controller: Optional[FadewichController] = None
        self._sessions: Dict[str, WorkstationSession] = {}

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> FadewichConfig:
        return self._config

    @property
    def detector(self) -> OnlineDetector:
        return self._detector

    @property
    def sessions(self) -> Dict[str, WorkstationSession]:
        return dict(self._sessions)

    # ------------------------------------------------------------------ #
    def train(self, dataset: SampleDataset) -> "FadewichSystem":
        """Train the RE classifier from a labelled sample dataset."""
        self._re.fit(dataset)
        return self

    def attach_idle_provider(self, provider) -> "FadewichSystem":
        """Connect the KMA idle-time source and start a fresh live day.

        Builds the control plane (controller and sessions) and a new MD
        :attr:`detector` with an empty open-window buffer, so
        :meth:`process_sample` may start again from any time.
        """
        self._kma = KeyboardMouseActivity(provider)
        self._detector = OnlineDetector(
            self._stream_ids, self._config.md, self._rate
        )
        self._window_samples = []
        self._sessions = {
            wid: WorkstationSession(wid, t_id_s=self._config.t_id_s)
            for wid in self._workstation_ids
        }
        self._controller = FadewichController(
            config=self._config,
            kma=self._kma,
            sessions=self._sessions,
            entry_label=ENTRY_LABEL,
        )
        return self

    # ------------------------------------------------------------------ #
    def _classify(self, trace: RssiTrace, t1: float, t: float) -> str:
        """RE's label, at ``t``, for the variation window opened at ``t1``.

        The Rule-1 query of every path: the samples of ``trace`` in
        ``[t1, t1 + t_delta]``, classified as Table IV classifies them.
        """
        t_delta = self._config.t_delta_s
        window = trace.slice_time(t1, t1 + t_delta)
        if not self._re.is_trained or window.n_samples < 2:
            # Neither an untrained RE nor fewer than two samples can name a
            # workstation; an office entry is the safe, do-nothing prediction.
            return ENTRY_LABEL
        return self._re.classify_window(window, VariationWindow(t1, t), t_delta)

    def process_sample(self, t: float, sample: Mapping[str, float]) -> ControllerState:
        """Feed one multi-stream RSSI sample into the live system."""
        if self._controller is None or self._kma is None:
            raise RuntimeError(
                "call attach_idle_provider() before processing samples"
            )
        self._detector.process(t, sample)
        window = self._detector.current_window(t)
        buffered = self._window_samples
        if window is None:
            buffered.clear()
        elif t <= window.t_start + self._config.t_delta_s:
            buffered.append((t, [float(sample[sid]) for sid in self._stream_ids]))

        def classify() -> str:
            times, rows = zip(*buffered)
            trace = RssiTrace(
                np.array(times), dict(zip(self._stream_ids, np.array(rows).T))
            )
            return self._classify(trace, window.t_start, t)

        return self._controller.step(
            t, self._detector.current_window_duration(t), classify
        )

    # ------------------------------------------------------------------ #
    def _validate_replay_day(self, day: DayRecording) -> None:
        if not day.trace.streams:
            raise ValueError(
                "cannot replay a day whose trace has no RSSI streams"
            )
        if day.trace.n_samples == 0:
            raise ValueError(
                "cannot replay a day whose trace has no samples"
            )

    def report(self) -> ReplayReport:
        """What the controller and sessions did since the last
        :meth:`attach_idle_provider` (or replay)."""
        if self._controller is None:
            raise RuntimeError("call attach_idle_provider() first")
        return ReplayReport(
            actions=self._controller.actions,
            final_states={wid: s.state for wid, s in self._sessions.items()},
            deauthentications=self._controller.deauthentication_count(),
            alerts=self._controller.alert_count(),
            screensavers=sum(
                s.screensaver_activations() for s in self._sessions.values()
            ),
        )

    def replay_day(self, day: DayRecording) -> ReplayReport:
        """Replay a recorded day through the full system (array fast path).

        The day's activity traces provide both the KMA idle times and the
        session input events (cancelling alerts / screen savers).

        The whole day is handed to the streaming detection kernel
        (:class:`~repro.streaming.detector.OnlineDetector`) as one batch:
        the std-sum series, anomaly decisions and per-step window
        durations come back as arrays (bit-identical to feeding
        :meth:`process_sample` each sample), and the controller consumes
        them in a lean loop with precomputed idle times and input flags.
        RE is only invoked at the instants Rule 1 fires, on the day's
        samples of ``[t1, t1 + t_delta]``.  The system's online
        :attr:`detector` is not advanced on this path; like every
        :meth:`attach_idle_provider`, the replay leaves a fresh one.

        Raises
        ------
        ValueError
            If the day's trace has no streams or no samples — there is
            nothing to replay, and silently returning an empty report would
            mask a broken recording.
        """
        self._validate_replay_day(day)
        trace = day.trace.restricted_to(self._stream_ids)
        times = trace.times
        n = times.shape[0]
        self.attach_idle_provider(_GridIdleProvider(day.activity, times))
        assert self._controller is not None
        cfg = self._config

        matrix = np.column_stack([trace.streams[sid] for sid in self._stream_ids])

        # MD through the streaming kernel: one recorded day is simply the
        # whole stream delivered as a single batch.  The kernel returns the
        # online tracker's s_t series (partial windows included), the
        # profile decisions and the per-step dW_t.
        kernel = OnlineDetector(
            self._stream_ids, cfg.md, sample_rate_hz=self._rate
        )
        block = kernel.process_block(times, matrix)
        durations = block.durations
        # A window's first anomalous sample is the only anomalous step
        # with dW_t = 0: the t1 of every window the day opens.
        starts = times[block.anomalous & (durations == 0.0)]

        # Per-step keyboard/mouse input flags for every workstation.
        interval_starts = np.empty(n)
        interval_starts[0] = float(times[0]) - 1.0 / self._rate
        interval_starts[1:] = times[:-1]
        inputs = {
            wid: day.activity[wid].has_input_in_many(interval_starts, times)
            for wid in self._sessions
        }

        sessions = list(self._sessions.items())
        controller = self._controller
        for i in range(n):
            t = float(times[i])
            controller.step(
                t,
                float(durations[i]),
                lambda: self._classify(
                    trace,
                    float(starts[np.searchsorted(starts, t, side="right") - 1]),
                    t,
                ),
            )
            # Forward keyboard/mouse input to the sessions so alerts cancel
            # and deauthenticated users eventually log back in.
            for wid, session in sessions:
                if inputs[wid][i]:
                    if session.state is SessionState.DEAUTHENTICATED:
                        session.reauthenticate(t)
                    else:
                        session.register_input(t)
        return self.report()
