"""Keyboard/Mouse Activity (KMA) module.

The simplest of the three FADEWICH modules (paper Section IV-B): each
workstation reports its input idle time to the central station, and the
system asks "which workstations have been idle for the last ``s`` seconds?"
— the set ``S_t^(s)``.

The module is a thin policy layer over an :class:`IdleProvider`: in the
library, the trace-backed
:class:`~repro.workstation.idle.TraceIdleProvider` that callers attach to
the live system, or the per-step idle arrays ``FadewichSystem.replay_day``
precomputes.
The tests also drive an in-memory provider fed one input at a time
(``tests/oracles/idle.py``).
"""

from __future__ import annotations

from typing import List, Protocol, Set

__all__ = ["IdleProvider", "KeyboardMouseActivity"]


class IdleProvider(Protocol):
    """Anything that can answer per-workstation idle-time queries."""

    @property
    def workstation_ids(self) -> List[str]:  # pragma: no cover - protocol
        ...

    def idle_time(self, workstation_id: str, t: float) -> float:  # pragma: no cover
        ...


class KeyboardMouseActivity:
    """The KMA module.

    Parameters
    ----------
    provider:
        The idle-time source (per-workstation last-input bookkeeping).
    """

    def __init__(self, provider: IdleProvider) -> None:
        self._provider = provider

    @property
    def workstation_ids(self) -> List[str]:
        """Workstations monitored by this KMA instance."""
        return list(self._provider.workstation_ids)

    def idle_time(self, workstation_id: str, t: float) -> float:
        """Idle time (seconds) of one workstation at time ``t``."""
        return self._provider.idle_time(workstation_id, t)

    def idle_set(self, t: float, s: float) -> Set[str]:
        """The paper's ``S_t^(s)``: workstations idle for >= ``s`` seconds at ``t``.

        Parameters
        ----------
        t:
            Query time.
        s:
            Idle threshold in seconds.  ``s = 1`` is used by Rule 2 (alert
            any workstation idle for the last second), ``s = t_delta`` by
            Rule 1.
        """
        if s < 0:
            raise ValueError("s must be non-negative")
        return {
            wid
            for wid in self._provider.workstation_ids
            if self._provider.idle_time(wid, t) >= s
        }
