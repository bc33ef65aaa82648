"""Security model: the decision tree of deauthentication outcomes.

When a user leaves their workstation at time ``t``, the paper's decision
tree (Figure 5) distinguishes three outcomes:

* **Case A** — MD detected the movement (true positive) and RE classified
  the sample correctly: the workstation is deauthenticated at
  ``t1 + t_delta`` (where ``t1`` is the variation-window start).
* **Case B** — MD detected the movement but RE misclassified it: the
  workstation is *not* deauthenticated by Rule 1, but Rule 2 puts it in the
  alert state and the screen saver locks it ``t_ID + t_ss`` seconds after
  the last input (taken, worst case, to be the departure instant ``t``).
* **Case C** — MD missed the movement entirely (false negative): only the
  baseline inactivity time-out ``T`` eventually deauthenticates, at
  ``t + T``.

This module classifies each departure event into its case and computes the
elapsed time between the user leaving and the deauthentication — the
security metric of Figures 9 and 10.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..mobility.events import GroundTruthEvent
from .config import FadewichConfig
from .windows import VariationWindow

__all__ = [
    "DeauthCase",
    "DeauthOutcome",
    "classify_outcome",
    "deauthentication_curve",
]


class DeauthCase(enum.Enum):
    """The three leaves of the paper's decision tree (Figure 5)."""

    CORRECT = "A"
    MISCLASSIFIED = "B"
    MISSED = "C"


@dataclass(frozen=True)
class DeauthOutcome:
    """The deauthentication outcome of one departure event.

    Attributes
    ----------
    event:
        The departure.
    case:
        Which decision-tree leaf applied.
    elapsed_s:
        Seconds between the user leaving the workstation proximity and the
        deauthentication of that workstation.
    window:
        The matched variation window, if any.
    predicted_label:
        RE's prediction for the matched window, if any.
    """

    event: GroundTruthEvent
    case: DeauthCase
    elapsed_s: float
    window: Optional[VariationWindow] = None
    predicted_label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.elapsed_s < 0:
            raise ValueError("elapsed_s must be non-negative")


def classify_outcome(
    event: GroundTruthEvent,
    matched_window: Optional[VariationWindow],
    predicted_label: Optional[str],
    config: FadewichConfig,
) -> DeauthOutcome:
    """Assign a departure event to its decision-tree case.

    Parameters
    ----------
    event:
        The departure (its ``time`` is the moment the user left the
        workstation proximity).
    matched_window:
        The variation window MD matched to the event, or ``None`` for a
        false negative.
    predicted_label:
        RE's classification of that window (ignored when ``matched_window``
        is ``None``).
    config:
        System configuration providing ``t_delta``, ``t_ID``, ``t_ss`` and
        the baseline time-out.
    """
    if matched_window is None:
        return DeauthOutcome(
            event=event, case=DeauthCase.MISSED, elapsed_s=config.timeout_s
        )
    if predicted_label is not None and predicted_label == event.workstation_id:
        deauth_time = matched_window.t_start + config.t_delta_s
        elapsed = max(deauth_time - event.time, 0.0)
        return DeauthOutcome(
            event=event,
            case=DeauthCase.CORRECT,
            elapsed_s=elapsed,
            window=matched_window,
            predicted_label=predicted_label,
        )
    return DeauthOutcome(
        event=event,
        case=DeauthCase.MISCLASSIFIED,
        elapsed_s=config.misclassification_delay_s,
        window=matched_window,
        predicted_label=predicted_label,
    )


def deauthentication_curve(
    outcomes: Sequence[DeauthOutcome],
    time_grid: Optional[np.ndarray] = None,
    max_time_s: float = 10.0,
    n_points: int = 101,
) -> tuple:
    """Proportion of workstations deauthenticated within each elapsed time.

    This is the quantity plotted in the paper's Figure 9.

    Parameters
    ----------
    outcomes:
        Deauthentication outcomes of all departure events.
    time_grid:
        Evaluation grid in seconds; generated from ``max_time_s`` and
        ``n_points`` when omitted.

    Returns
    -------
    (times, percent_deauthenticated)
        ``percent_deauthenticated[i]`` is the percentage of departures whose
        workstation was deauthenticated within ``times[i]`` seconds.
    """
    if time_grid is None:
        time_grid = np.linspace(0.0, max_time_s, n_points)
    else:
        time_grid = np.asarray(time_grid, dtype=float)
    if len(outcomes) == 0:
        return time_grid, np.zeros_like(time_grid)
    elapsed = np.asarray([o.elapsed_s for o in outcomes], dtype=float)
    percent = np.asarray(
        [100.0 * float(np.mean(elapsed <= t)) for t in time_grid]
    )
    return time_grid, percent


def case_counts(outcomes: Sequence[DeauthOutcome]) -> dict:
    """Histogram of decision-tree cases over a set of outcomes."""
    counts = {case: 0 for case in DeauthCase}
    for o in outcomes:
        counts[o.case] += 1
    return counts


def vulnerable_time_seconds(
    outcomes: Sequence[DeauthOutcome],
    absence_lookup=None,
) -> float:
    """Total time workstations spend unattended *and* authenticated.

    For each departure, the vulnerable interval lasts from the moment the
    user leaves until the deauthentication — capped by the user's absence
    duration when an ``absence_lookup`` callable (event -> absence seconds)
    is provided, since a returned user is no longer leaving the workstation
    unattended.

    This is the security indicator of the paper's Figure 13.
    """
    total = 0.0
    for o in outcomes:
        vulnerable = o.elapsed_s
        if absence_lookup is not None:
            absence = float(absence_lookup(o.event))
            vulnerable = min(vulnerable, absence)
        total += vulnerable
    return total
