"""Idle-time answers for the KMA module.

The KMA module's only job is to answer "which workstations have observed no
keyboard or mouse input during the last ``s`` seconds?" (paper Section
IV-B).  This module serves that query from pre-generated
:class:`~repro.workstation.activity.ActivityTrace` objects.  Any
:class:`~repro.core.kma.IdleProvider` can stand in for it; the tests drive
an in-memory one from ``tests/oracles/idle.py``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from .activity import ActivityTrace

__all__ = ["TraceIdleProvider"]


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
