"""An in-memory idle-time provider for the KMA, controller and system tests.

:class:`IdleTracker` answers the KMA query from inputs registered one at
a time; the library reads recorded activity through
:class:`~repro.workstation.idle.TraceIdleProvider` instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["IdleTracker"]


class IdleTracker:
    """Online idle-time tracker for a set of workstations.

    Workstations start with "no input ever seen", which counts as idle since
    the tracker's creation time.
    """

    def __init__(self, workstation_ids, start_time: float = 0.0) -> None:
        ids = list(workstation_ids)
        if not ids:
            raise ValueError("at least one workstation id is required")
        if len(set(ids)) != len(ids):
            raise ValueError("workstation ids must be unique")
        self._start = float(start_time)
        self._last_input: Dict[str, Optional[float]] = {wid: None for wid in ids}

    @property
    def workstation_ids(self) -> List[str]:
        return list(self._last_input.keys())

    def record_input(self, workstation_id: str, t: float) -> None:
        """Register a keyboard/mouse input at time ``t``."""
        if workstation_id not in self._last_input:
            raise KeyError(f"unknown workstation {workstation_id!r}")
        prev = self._last_input[workstation_id]
        if prev is not None and t < prev:
            raise ValueError("inputs must be recorded in chronological order")
        self._last_input[workstation_id] = float(t)

    def idle_time(self, workstation_id: str, t: float) -> float:
        """Seconds of inactivity at workstation ``workstation_id`` as of ``t``."""
        if workstation_id not in self._last_input:
            raise KeyError(f"unknown workstation {workstation_id!r}")
        last = self._last_input[workstation_id]
        if last is None:
            return max(t - self._start, 0.0)
        return max(t - last, 0.0)
