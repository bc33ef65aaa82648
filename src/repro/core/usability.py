"""Usability cost model.

FADEWICH can inconvenience users in two ways (paper Sections VI-A and
VII-D):

* a **screen saver** wrongly activated at an occupied workstation costs the
  user about 3 seconds (they must produce some input to cancel it),
* a **deauthentication** of an occupied workstation costs about 13 seconds
  (a full re-login).

The paper simulates keyboard/mouse input with the Mikkelsen model (activity
in 78 % of 5-second bins), replays the system's decisions against 100
independent input draws, and reports the average number of wrong screen
savers / deauthentications per 8-hour day and the resulting daily cost
(Table IV).  This module reproduces that protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..workstation.activity import ActivityTrace, InputActivityModel
from .config import FadewichConfig
from .windows import VariationWindow

__all__ = ["UsabilityDayInput", "UsabilityResult", "UsabilitySimulator"]


@dataclass(frozen=True)
class UsabilityDayInput:
    """The per-day inputs the usability simulation needs.

    Attributes
    ----------
    decisions:
        ``(variation_window, predicted_label)`` pairs for every window that
        reached ``t_delta`` and therefore triggered a Rule-1 decision.
    presence:
        Per-workstation list of ``(t_start, t_end)`` intervals during which
        the assigned user was physically at the workstation.
    duration_s:
        Length of the working day.
    """

    decisions: Tuple[Tuple[VariationWindow, str], ...]
    presence: Dict[str, Tuple[Tuple[float, float], ...]]
    duration_s: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")


@dataclass(frozen=True)
class UsabilityResult:
    """Aggregated usability metrics (one row of the paper's Table IV).

    Per-day averages over all simulated input draws, plus the standard
    deviation across draws (the parenthesised numbers of Table IV).
    """

    screensavers_per_day: float
    screensavers_std: float
    deauthentications_per_day: float
    deauthentications_std: float
    cost_per_day_s: float
    n_draws: int


class UsabilitySimulator:
    """Replays FADEWICH's decisions against simulated keyboard/mouse input.

    Parameters
    ----------
    config:
        System configuration (``t_delta``, ``t_ID``, costs ...).
    activity_prob:
        Probability of input in a 5-second bin while the user is present.
    rng:
        Random generator for the input draws.
    """

    def __init__(
        self,
        config: Optional[FadewichConfig] = None,
        *,
        activity_prob: float = 0.78,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._config = config if config is not None else FadewichConfig()
        self._rng = rng if rng is not None else np.random.default_rng()
        self._activity_prob = activity_prob

    # ------------------------------------------------------------------ #
    @staticmethod
    def _present_at(
        presence: Sequence[Tuple[float, float]], t: float
    ) -> bool:
        return any(start <= t <= end for start, end in presence)

    def _simulate_day_once(
        self, day: UsabilityDayInput, activity: Dict[str, ActivityTrace]
    ) -> Tuple[int, int]:
        """One input draw of one day; returns (wrong screensavers, wrong deauths)."""
        cfg = self._config
        wrong_screensavers = 0
        wrong_deauths = 0
        for window, predicted in day.decisions:
            t_decision = window.t_start + cfg.t_delta_s

            # Rule 1: deauthenticate the classified workstation if idle.
            if predicted in activity:
                idle = activity[predicted].idle_time_at(t_decision)
                if idle >= cfg.t_delta_s and self._present_at(
                    day.presence.get(predicted, ()), t_decision
                ):
                    wrong_deauths += 1

            # Rule 2: during the remainder of the window, idle workstations
            # enter the alert state; those staying idle for t_ID get a
            # screen saver.  Only screen savers at occupied workstations
            # cost anything.
            noisy_end = max(window.t_end, t_decision)
            for wid, trace in activity.items():
                if wid == predicted:
                    continue
                if not self._present_at(day.presence.get(wid, ()), t_decision):
                    continue
                alert_time = self._first_alert_time(trace, t_decision, noisy_end)
                if alert_time is None:
                    continue
                if not trace.has_input_in(alert_time, alert_time + cfg.t_id_s):
                    wrong_screensavers += 1
        return wrong_screensavers, wrong_deauths

    def _first_alert_time(
        self, trace: ActivityTrace, t_start: float, t_end: float
    ) -> Optional[float]:
        """Earliest instant in ``[t_start, t_end]`` with >= 1 s of idle time."""
        if t_end < t_start:
            return None
        t = t_start
        while t <= t_end:
            if trace.idle_time_at(t) >= 1.0:
                return t
            t += 1.0
        return None

    # ------------------------------------------------------------------ #
    def run(
        self, days: Sequence[UsabilityDayInput], n_draws: int = 100
    ) -> UsabilityResult:
        """Simulate ``n_draws`` independent input draws over the campaign.

        Returns per-day averages (total over the campaign divided by the
        number of days), exactly like the paper's Table IV.
        """
        if not days:
            raise ValueError("at least one day is required")
        if n_draws < 1:
            raise ValueError("n_draws must be >= 1")
        n_days = len(days)
        model = InputActivityModel(
            activity_prob=self._activity_prob, rng=self._rng
        )

        ss_counts = np.zeros(n_draws)
        da_counts = np.zeros(n_draws)
        for draw in range(n_draws):
            total_ss = 0
            total_da = 0
            for day in days:
                activity = {
                    wid: model.generate(
                        day.duration_s, list(day.presence.get(wid, ()))
                    )
                    for wid in day.presence
                }
                ss, da = self._simulate_day_once(day, activity)
                total_ss += ss
                total_da += da
            ss_counts[draw] = total_ss / n_days
            da_counts[draw] = total_da / n_days

        cfg = self._config
        cost = float(
            np.mean(ss_counts) * cfg.screensaver_cost_s
            + np.mean(da_counts) * cfg.reauth_cost_s
        )
        return UsabilityResult(
            screensavers_per_day=float(np.mean(ss_counts)),
            screensavers_std=float(np.std(ss_counts)),
            deauthentications_per_day=float(np.mean(da_counts)),
            deauthentications_std=float(np.std(da_counts)),
            cost_per_day_s=cost,
            n_draws=n_draws,
        )
