"""Workstation substrate: input activity, idle time and session state.

* :mod:`~repro.workstation.activity` — the Mikkelsen-style keyboard/mouse
  input generator the paper itself uses,
* :mod:`~repro.workstation.idle` — the idle-time provider over recorded
  activity, which the KMA module's "idle for s seconds" query reads,
* :mod:`~repro.workstation.session` — the workstation session state machine
  (authenticated / alert / screensaver / deauthenticated).
"""

from .activity import (
    MIKKELSEN_ACTIVITY_PROBABILITY,
    MIKKELSEN_BIN_SECONDS,
    ActivityTrace,
    InputActivityModel,
)
from .idle import TraceIdleProvider
from .session import SessionEvent, SessionState, WorkstationSession

__all__ = [
    "MIKKELSEN_ACTIVITY_PROBABILITY",
    "MIKKELSEN_BIN_SECONDS",
    "ActivityTrace",
    "InputActivityModel",
    "SessionEvent",
    "SessionState",
    "TraceIdleProvider",
    "WorkstationSession",
]
