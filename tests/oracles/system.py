"""The per-sample reference replay of :class:`~repro.core.system.FadewichSystem`.

:func:`replay_day_scalar` drives a :class:`~tests.oracles.movement.MovementDetector`
one sample dict at a time through a system's controller and sessions.
``tests/test_analysis_equivalence.py`` pins
:meth:`~repro.core.system.FadewichSystem.replay_day` and the live
:meth:`~repro.core.system.FadewichSystem.process_sample` loop to it, and
``benchmarks/test_analysis_throughput.py`` times it.  It reads the
system's private state (``_controller``, ``_sessions``, ``_classify``),
as the method it was did.
"""

from __future__ import annotations

import numpy as np

from repro.core.system import FadewichSystem, ReplayReport
from repro.simulation.collector import DayRecording
from repro.workstation.idle import TraceIdleProvider
from repro.workstation.session import SessionState

from .movement import MovementDetector

__all__ = ["replay_day_scalar"]


def replay_day_scalar(system: FadewichSystem, day: DayRecording) -> ReplayReport:
    """Per-sample reference replay of ``system`` on the scalar MD engine.

    Semantics reference for
    :meth:`~repro.core.system.FadewichSystem.replay_day` and
    :meth:`~repro.core.system.FadewichSystem.process_sample`: a
    :class:`~tests.oracles.movement.MovementDetector` consumes one sample
    dict per step, KMA reads the activity traces through
    :class:`~repro.workstation.idle.TraceIdleProvider`, and Rule 1
    classifies the day's samples of ``[t1, t1 + t_delta]``.  The
    equivalence tests pin the other two paths against it.
    """
    system._validate_replay_day(day)
    provider = TraceIdleProvider(day.activity)
    system.attach_idle_provider(provider)
    assert system._controller is not None
    detector = MovementDetector(system._stream_ids, system._config.md, system._rate)

    trace = day.trace.restricted_to(system._stream_ids)
    times = trace.times
    # Precompute the per-step sample rows once: a (n_steps, n_streams)
    # matrix turned into row lists is far cheaper than indexing every
    # stream's numpy array element by element at every step.
    matrix = np.column_stack([trace.streams[sid] for sid in system._stream_ids])
    rows = matrix.tolist()
    prev_t = float(times[0]) - 1.0 / system._rate
    for i in range(times.shape[0]):
        t = float(times[i])
        detector.process(t, dict(zip(system._stream_ids, rows[i])))
        window = detector.current_window(t)
        system._controller.step(
            t,
            detector.current_window_duration(t),
            lambda: system._classify(trace, window.t_start, t),
        )
        # Forward keyboard/mouse input to the sessions so alerts cancel
        # and deauthenticated users eventually log back in.
        for wid, session in system._sessions.items():
            if day.activity[wid].has_input_in(prev_t, t):
                if session.state is SessionState.DEAUTHENTICATED:
                    session.reauthenticate(t)
                else:
                    session.register_input(t)
        prev_t = t
    return system.report()
