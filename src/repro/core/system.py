"""The complete online FADEWICH system.

Wires together the three modules (KMA, MD, RE), the controller and the
workstation sessions into a single object that consumes the live RSSI
sample stream, exactly like the deployed system of the paper (Figure 1).

Two ways to use it:

* **online** — call :meth:`process_sample` for every incoming multi-stream
  RSSI sample (after training RE via :meth:`train`),
* **replay** — call :meth:`replay_day` on a recorded
  :class:`~repro.simulation.collector.DayRecording` to re-live a captured
  day end to end (used by the integration tests and the examples).

:meth:`replay_day` is a *thin client of the streaming kernel*: the whole
day is delivered to an :class:`~repro.streaming.detector.OnlineDetector`
as a single batch (no per-step sample dicts, no per-step ``np.std``), and
only the controller/session state machines advance step by step, fed from
the kernel's precomputed arrays.  :meth:`replay_day_scalar` is the
retained per-sample reference driving :meth:`process_sample` exactly like
the live system; both produce bit-identical reports
(``tests/test_analysis_equivalence.py``), and the kernel itself is pinned
bit-identical to the per-sample detector whatever the arrival batching
(``tests/test_streaming_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..mobility.events import ENTRY_LABEL
from ..radio.trace import StreamBuffer
from ..simulation.collector import DayRecording
from ..simulation.dataset import SampleDataset
from ..workstation.activity import ActivityTrace
from ..workstation.idle import TraceIdleProvider
from ..workstation.session import SessionState, WorkstationSession
from .config import FadewichConfig
from .controller import ControllerAction, ControllerState, FadewichController
from .kma import KeyboardMouseActivity
from .movement import MovementDetector
from .radio_env import RadioEnvironment

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
    """Summary of a replayed day.

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
        self._detector = MovementDetector(
            self._stream_ids, self._config.md, sample_rate_hz
        )
        # Buffer holding the most recent samples, long enough to cover the
        # [t1, t1 + t_delta] feature window when Rule 1 fires.
        window_samples = max(
            int(round(self._config.t_delta_s * sample_rate_hz)) + 2, 4
        )
        self._recent = StreamBuffer(self._stream_ids, maxlen=window_samples)
        self._kma: Optional[KeyboardMouseActivity] = None
        self._controller: Optional[FadewichController] = None
        self._sessions: Dict[str, WorkstationSession] = {}

    # ------------------------------------------------------------------ #
    @property
    def config(self) -> FadewichConfig:
        return self._config

    @property
    def detector(self) -> MovementDetector:
        return self._detector

    @property
    def sessions(self) -> Dict[str, WorkstationSession]:
        return dict(self._sessions)

    @property
    def controller_state(self) -> Optional[ControllerState]:
        return self._controller.state if self._controller else None

    # ------------------------------------------------------------------ #
    def train(self, dataset: SampleDataset) -> "FadewichSystem":
        """Train the RE classifier from a labelled sample dataset."""
        self._re.fit(dataset)
        return self

    def attach_idle_provider(self, provider) -> "FadewichSystem":
        """Connect the KMA idle-time source and build the control plane."""
        self._kma = KeyboardMouseActivity(provider)
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
    def _classify_recent_window(self) -> str:
        """Classify the feature window ending at the current instant."""
        if not self._re.is_trained:
            # An untrained RE cannot name a workstation; reporting an office
            # entry is the safe, do-nothing prediction.
            return ENTRY_LABEL
        n = self._recent.fill_level()
        if n < 2:
            return ENTRY_LABEL
        windows = self._recent.windows()
        features = self._re.extractor.extract(windows)
        return self._re.classify(features)

    def process_sample(self, t: float, sample: Mapping[str, float]) -> ControllerState:
        """Feed one multi-stream RSSI sample into the live system."""
        if self._controller is None or self._kma is None:
            raise RuntimeError(
                "call attach_idle_provider() before processing samples"
            )
        self._recent.append(sample)
        self._detector.process(t, sample)
        d_wt = self._detector.current_window_duration(t)
        return self._controller.step(t, d_wt, self._classify_recent_window)

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

    def _replay_report(self) -> ReplayReport:
        assert self._controller is not None
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
        :meth:`process_sample` each sample — see
        :meth:`replay_day_scalar`), and the controller consumes them in a
        lean loop with precomputed idle times and input flags.  RE is only
        invoked at the instants Rule 1 fires, on the same sample windows
        the online buffer would hold.  Note the system's online
        :attr:`detector` state is bypassed (not advanced) on this path; use
        :meth:`replay_day_scalar` for step-level introspection.

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
        columns = [np.ascontiguousarray(matrix[:, j]) for j in range(matrix.shape[1])]

        # MD through the streaming kernel: one recorded day is simply the
        # whole stream delivered as a single batch.  The kernel returns the
        # online tracker's s_t series (partial windows included), the
        # profile decisions and the per-step dW_t.
        from ..streaming.detector import OnlineDetector

        kernel = OnlineDetector(
            self._stream_ids, cfg.md, sample_rate_hz=self._rate
        )
        durations = kernel.process_block(times, matrix).durations

        # Per-step keyboard/mouse input flags for every workstation.
        interval_starts = np.empty(n)
        interval_starts[0] = float(times[0]) - 1.0 / self._rate
        interval_starts[1:] = times[:-1]
        inputs = {
            wid: day.activity[wid].has_input_in_many(interval_starts, times)
            for wid in self._sessions
        }

        # RE classification of the recent-sample window, only materialised
        # at the instants Rule 1 queries it.
        maxlen = self._recent.maxlen
        current_step = [0]

        def classify_current_window() -> str:
            i = current_step[0]
            fill = min(i + 1, maxlen)
            if not self._re.is_trained or fill < 2:
                return ENTRY_LABEL
            windows = {
                sid: col[i + 1 - fill : i + 1]
                for sid, col in zip(self._stream_ids, columns)
            }
            return self._re.classify(self._re.extractor.extract(windows))

        sessions = list(self._sessions.items())
        controller = self._controller
        for i in range(n):
            current_step[0] = i
            t = float(times[i])
            controller.step(t, float(durations[i]), classify_current_window)
            # Forward keyboard/mouse input to the sessions so alerts cancel
            # and deauthenticated users eventually log back in.
            for wid, session in sessions:
                if inputs[wid][i]:
                    if session.state is SessionState.DEAUTHENTICATED:
                        session.reauthenticate(t)
                    else:
                        session.register_input(t)
        return self._replay_report()

    def replay_day_scalar(self, day: DayRecording) -> ReplayReport:
        """Per-sample reference replay (the live-system path, step by step).

        Semantics reference for :meth:`replay_day`: feeds every sample
        through :meth:`process_sample` exactly like the deployed system.
        The equivalence tests pin the array fast path against it.
        """
        self._validate_replay_day(day)
        provider = TraceIdleProvider(day.activity)
        self.attach_idle_provider(provider)
        assert self._controller is not None

        trace = day.trace.restricted_to(self._stream_ids)
        times = trace.times
        # Precompute the per-step sample rows once: a (n_steps, n_streams)
        # matrix turned into row lists is far cheaper than indexing every
        # stream's numpy array element by element at every step.
        matrix = np.column_stack([trace.streams[sid] for sid in self._stream_ids])
        rows = matrix.tolist()
        prev_t = float(times[0]) - 1.0 / self._rate
        for i in range(times.shape[0]):
            t = float(times[i])
            sample = dict(zip(self._stream_ids, rows[i]))
            self.process_sample(t, sample)
            # Forward keyboard/mouse input to the sessions so alerts cancel
            # and deauthenticated users eventually log back in.
            for wid, session in self._sessions.items():
                if day.activity[wid].has_input_in(prev_t, t):
                    if session.state is SessionState.DEAUTHENTICATED:
                        session.reauthenticate(t)
                    else:
                        session.register_input(t)
            prev_t = t
        return self._replay_report()
