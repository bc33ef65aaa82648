"""Login-session state of a workstation.

FADEWICH imposes two kinds of actions on workstations (paper Section IV-F):

* **Deauthenticate** — the current login session is terminated and
  re-authentication is required;
* **Alert state** — if the workstation then stays idle for ``t_ID`` seconds
  a screen saver activates; any input cancels the alert.

This module models that lifecycle as an explicit state machine so that the
security and usability analyses can replay it and count screen-saver
activations, deauthentications, re-logins and vulnerable time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["SessionState", "SessionEvent", "WorkstationSession"]


class SessionState(enum.Enum):
    """Authentication state of a workstation."""

    AUTHENTICATED = "authenticated"
    ALERT = "alert"
    SCREENSAVER = "screensaver"
    DEAUTHENTICATED = "deauthenticated"


@dataclass(frozen=True)
class SessionEvent:
    """A state transition of a workstation session."""

    time: float
    from_state: SessionState
    to_state: SessionState
    reason: str


@dataclass
class WorkstationSession:
    """The session state machine of one workstation.

    Parameters
    ----------
    workstation_id:
        The workstation this session belongs to.
    t_id_s:
        Alert-state idle threshold ``t_ID``: if the workstation remains idle
        this long after entering the alert state, the screen saver starts.
    initial_state:
        Starting state (authenticated by default: the user is logged in).
    """

    workstation_id: str
    t_id_s: float = 5.0
    initial_state: SessionState = SessionState.AUTHENTICATED

    _state: SessionState = field(init=False)
    _alert_since: Optional[float] = field(init=False, default=None)
    _history: List[SessionEvent] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.t_id_s < 0:
            raise ValueError("t_id_s must be non-negative")
        self._state = self.initial_state

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> SessionState:
        return self._state

    def _transition(self, t: float, to_state: SessionState, reason: str) -> None:
        if to_state is self._state:
            return
        self._history.append(
            SessionEvent(time=t, from_state=self._state, to_state=to_state, reason=reason)
        )
        self._state = to_state

    # ------------------------------------------------------------------ #
    def deauthenticate(self, t: float, reason: str = "rule-1") -> None:
        """Apply the Deauthenticate action (Rule 1 or a time-out)."""
        self._alert_since = None
        self._transition(t, SessionState.DEAUTHENTICATED, reason)

    def enter_alert(self, t: float, reason: str = "rule-2") -> None:
        """Apply the Alert-State action (Rule 2).

        Alert has no effect on a deauthenticated workstation and does not
        restart the alert timer if the workstation is already alerted.
        """
        if self._state is SessionState.DEAUTHENTICATED:
            return
        if self._state is SessionState.ALERT:
            return
        if self._state is SessionState.SCREENSAVER:
            return
        self._alert_since = t
        self._transition(t, SessionState.ALERT, reason)

    def register_input(self, t: float) -> None:
        """Keyboard/mouse input: cancels alert and screen saver.

        Input at a deauthenticated workstation does not re-authenticate by
        itself — :meth:`reauthenticate` models the explicit re-login.
        """
        if self._state in (SessionState.ALERT, SessionState.SCREENSAVER):
            self._alert_since = None
            self._transition(t, SessionState.AUTHENTICATED, "user-input")

    def reauthenticate(self, t: float) -> None:
        """The user logs back in after a deauthentication."""
        if self._state is not SessionState.DEAUTHENTICATED:
            return
        self._alert_since = None
        self._transition(t, SessionState.AUTHENTICATED, "re-login")

    def tick(self, t: float, idle_time_s: float) -> None:
        """Advance time: promote alert to screen saver after ``t_ID`` idle.

        Parameters
        ----------
        t:
            Current time.
        idle_time_s:
            The workstation's current idle time (from KMA).
        """
        if self._state is SessionState.ALERT and self._alert_since is not None:
            if t - self._alert_since >= self.t_id_s and idle_time_s >= self.t_id_s:
                self._transition(t, SessionState.SCREENSAVER, "alert-timeout")

    # ------------------------------------------------------------------ #
    def count_transitions_to(self, state: SessionState) -> int:
        """How many times the session entered the given state."""
        return sum(1 for ev in self._history if ev.to_state is state)

    def screensaver_activations(self) -> int:
        """Number of times the screen saver started."""
        return self.count_transitions_to(SessionState.SCREENSAVER)

    def deauthentications(self) -> int:
        """Number of times the session was deauthenticated."""
        return self.count_transitions_to(SessionState.DEAUTHENTICATED)
