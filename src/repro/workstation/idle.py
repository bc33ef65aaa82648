"""Idle-time tracking.

The KMA module's only job is to answer "which workstations have observed no
keyboard or mouse input during the last ``s`` seconds?" (paper Section
IV-B).  This module provides the underlying per-workstation idle tracker
that can be driven either online (register inputs as they happen) or from a
pre-generated :class:`~repro.workstation.activity.ActivityTrace`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from .activity import ActivityTrace

__all__ = ["IdleTracker", "TraceIdleProvider"]


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


class TraceIdleProvider:
    """Idle-time answers backed by pre-generated activity traces.

    The campaign simulator generates the whole day's input activity ahead of
    time (the paper does the same when it draws the Mikkelsen input
    distribution); this adapter serves KMA queries from those traces.
    """

    def __init__(self, traces: Mapping[str, ActivityTrace]) -> None:
        if not traces:
            raise ValueError("at least one trace is required")
        self._traces: Dict[str, ActivityTrace] = dict(traces)

    @property
    def workstation_ids(self) -> List[str]:
        return list(self._traces.keys())

    def idle_time(self, workstation_id: str, t: float) -> float:
        """Seconds of inactivity at ``workstation_id`` as of time ``t``."""
        if workstation_id not in self._traces:
            raise KeyError(f"unknown workstation {workstation_id!r}")
        return self._traces[workstation_id].idle_time_at(t)

    def has_input_in(self, workstation_id: str, t_start: float, t_end: float) -> bool:
        """Whether the workstation saw input during ``[t_start, t_end]``."""
        return self._traces[workstation_id].has_input_in(t_start, t_end)
