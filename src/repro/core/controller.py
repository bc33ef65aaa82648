"""The FADEWICH controller: state machine, rules and actions.

The control component (paper Sections IV-F and IV-G) fuses the outputs of
MD, RE and KMA and applies actions to the workstations.  It is a two-state
automaton:

* **Quiet** — no long variation window is in progress.  The moment the
  current variation window reaches ``t_delta`` the controller queries RE
  (who moved?) and KMA (who is idle?) and applies **Rule 1**: the
  workstation named by RE is deauthenticated if it has been idle for the
  whole window.  The automaton then moves to Noisy.
* **Noisy** — the variation window is still open (possibly other users are
  moving too — the "overlap" case).  At every step the controller applies
  **Rule 2**: every workstation idle for at least one second is put into
  the alert state (a screen saver will start after ``t_ID`` further idle
  seconds).  When MD reports the window closed, the automaton returns to
  Quiet.

Note on Rule 1: the paper's Table I literally reads "if ``ci`` not in
``S(t_delta)`` then Deauthenticate ``ci``", but its own security analysis
(case A: correct classification leads to deauthentication at ``t1 +
t_delta``, when the departed user's workstation *has* been idle throughout
the window) only works with the opposite condition.  We implement the
semantically consistent rule — deauthenticate the classified workstation
when it has been idle for ``t_delta`` — and note the discrepancy here and
in DESIGN.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..workstation.session import SessionState, WorkstationSession
from .config import FadewichConfig
from .kma import KeyboardMouseActivity

__all__ = ["ControllerState", "ControllerAction", "FadewichController"]


class ControllerState(enum.Enum):
    """The two states of the FADEWICH automaton (Figure 4)."""

    QUIET = "quiet"
    NOISY = "noisy"


@dataclass(frozen=True)
class ControllerAction:
    """A record of one action the controller applied."""

    time: float
    action: str
    workstation_id: str
    rule: int
    predicted_label: Optional[str] = None


@dataclass
class FadewichController:
    """The control automaton.

    Parameters
    ----------
    config:
        System configuration (``t_delta``, ``t_ID`` ...).
    kma:
        The KMA module.
    sessions:
        The workstation session state machines the controller acts on.
    entry_label:
        The RE label meaning "somebody entered the office"; Rule 1 never
        deauthenticates on it.
    """

    config: FadewichConfig
    kma: KeyboardMouseActivity
    sessions: Dict[str, WorkstationSession]
    entry_label: str = "w0"

    _state: ControllerState = field(init=False, default=ControllerState.QUIET)
    _rule1_fired_for_window: bool = field(init=False, default=False)
    _actions: List[ControllerAction] = field(init=False, default_factory=list)

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> ControllerState:
        return self._state

    @property
    def actions(self) -> List[ControllerAction]:
        """All actions applied so far, in order."""
        return list(self._actions)

    # ------------------------------------------------------------------ #
    def _apply_rule1(self, t: float, predicted_label: str) -> None:
        """Rule 1: deauthenticate the classified workstation if it is idle."""
        idle_set: Set[str] = self.kma.idle_set(t, self.config.t_delta_s)
        if predicted_label == self.entry_label:
            # An office entry: nobody left, nothing to deauthenticate.
            return
        if predicted_label not in self.sessions:
            return
        if predicted_label in idle_set:
            session = self.sessions[predicted_label]
            if session.state is not SessionState.DEAUTHENTICATED:
                session.deauthenticate(t, reason="rule-1")
                self._actions.append(
                    ControllerAction(
                        time=t,
                        action="deauthenticate",
                        workstation_id=predicted_label,
                        rule=1,
                        predicted_label=predicted_label,
                    )
                )

    def _apply_rule2(self, t: float) -> None:
        """Rule 2: put every workstation idle for >= 1 s into the alert state."""
        for wid in self.kma.idle_set(t, 1.0):
            session = self.sessions.get(wid)
            if session is None:
                continue
            if session.state is SessionState.AUTHENTICATED:
                session.enter_alert(t, reason="rule-2")
                self._actions.append(
                    ControllerAction(
                        time=t, action="alert", workstation_id=wid, rule=2
                    )
                )

    # ------------------------------------------------------------------ #
    def step(
        self,
        t: float,
        current_window_duration: float,
        classify_current_window,
    ) -> ControllerState:
        """Advance the automaton by one time step.

        Parameters
        ----------
        t:
            Current time.
        current_window_duration:
            ``dW_t`` reported by MD: duration of the variation window
            currently open (0 when none is open).
        classify_current_window:
            Zero-argument callable invoking RE on the current variation
            window and returning the predicted label.  Only called at the
            moment Rule 1 fires, matching the paper's "query RE at
            ``t1 + t_delta``".

        Returns
        -------
        ControllerState
            The automaton state after the step.
        """
        d_wt = current_window_duration
        t_delta = self.config.t_delta_s

        if self._state is ControllerState.QUIET:
            if d_wt >= t_delta:
                predicted = classify_current_window()
                self._apply_rule1(t, predicted)
                self._rule1_fired_for_window = True
                self._state = ControllerState.NOISY
        else:  # NOISY
            if d_wt == 0.0:
                self._state = ControllerState.QUIET
                self._rule1_fired_for_window = False
            elif d_wt >= t_delta:
                self._apply_rule2(t)

        # Let alert states mature into screen savers.
        for wid, session in self.sessions.items():
            session.tick(t, self.kma.idle_time(wid, t))
        return self._state

    # ------------------------------------------------------------------ #
    def deauthentication_count(self) -> int:
        """Number of Rule-1 deauthentications applied so far."""
        return sum(1 for a in self._actions if a.action == "deauthenticate")

    def alert_count(self) -> int:
        """Number of Rule-2 alert activations applied so far."""
        return sum(1 for a in self._actions if a.action == "alert")
