"""Reproduction of Figure 2: distribution of the sum of standard deviations.

The figure contrasts the ``s_t`` values observed while the office is quiet
("normal") with those observed while a user is walking, together with the
Gaussian-KDE density of the normal profile and its 99th percentile.  The
``s_t`` values are the detector's own: each stream's rolling std from the
second sample on (partial windows first), streams added left to right.

The percentile line is produced by the shared safeguarded-Newton quantile
engine (:func:`repro.ml.kde.mixture_quantiles`) — the same threshold rule
Algorithm 1 now uses online and in the lockstep grid, within ``1e-6`` of
the bisection rule it re-pinned (kept in ``tests/oracles/kde.py``), so the
figure's threshold is exactly the one the detector acts on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..core.config import FadewichConfig
from ..core.movement import rolling_std_matrix
from ..core.windows import true_window_for_event
from ..ml.kde import GaussianKDE
from ..mobility.events import EventKind
from ..simulation.collector import CampaignRecording
from ..sliding import sample_count, sum_rows

__all__ = ["StdProfileResult", "compute_std_profile", "render_std_profile"]


@dataclass(frozen=True)
class StdProfileResult:
    """The data behind Figure 2.

    Attributes
    ----------
    normal_values:
        ``s_t`` samples observed while nobody was moving.
    walking_values:
        ``s_t`` samples observed inside a ground-truth movement window.
    kde_grid / kde_density:
        Evaluation grid and normal-profile density (the solid line).
    percentile_99:
        The 99th percentile of the normal profile (the anomaly threshold).
    """

    normal_values: np.ndarray
    walking_values: np.ndarray
    kde_grid: np.ndarray
    kde_density: np.ndarray
    percentile_99: float

    @property
    def separation(self) -> float:
        """Difference between the walking and normal medians (in std-sum units)."""
        if self.walking_values.size == 0 or self.normal_values.size == 0:
            return 0.0
        return float(
            np.median(self.walking_values) - np.median(self.normal_values)
        )


def compute_std_profile(
    recording: CampaignRecording,
    config: Optional[FadewichConfig] = None,
    day_index: int = 0,
) -> StdProfileResult:
    """Compute the Figure 2 distributions from one recorded day."""
    cfg = config if config is not None else FadewichConfig()
    day = recording.days[day_index]
    trace = day.trace
    rate = 1.0 / trace.sample_interval
    window_samples = sample_count(cfg.md.std_window_s, rate)
    # The per-stream rolling matrix is the same shared feature matrix the
    # evaluation pipeline slices; its columns added left to right give the
    # s_t series the detector thresholds.
    times, std_matrix = rolling_std_matrix(trace, window_samples)
    std_sums = sum_rows(std_matrix.T)

    # "Walking" samples are those inside the actual movement interval (from
    # the moment the user starts moving to the moment they reach the door or
    # their seat); the slack-extended true windows used for TP/FP scoring
    # would dilute the walking distribution with quiet samples.
    moving_mask = np.zeros(times.shape[0], dtype=bool)
    excluded_mask = np.zeros(times.shape[0], dtype=bool)
    for event in day.events:
        if event.kind is EventKind.INTERNAL_MOVE:
            continue
        move_end = event.exit_time if event.exit_time is not None else event.time + 5.0
        moving_mask |= (times >= event.time) & (times <= move_end)
        tw = true_window_for_event(event, cfg.true_window_slack_s)
        excluded_mask |= (times >= tw.t_start) & (times <= tw.t_end)

    # Quiet samples exclude the slack-extended windows entirely, so that the
    # rising/falling edges of a movement pollute neither distribution.
    normal_values = std_sums[~excluded_mask]
    walking_values = std_sums[moving_mask]
    if normal_values.size == 0:
        raise ValueError("the recorded day has no quiet samples")

    kde = GaussianKDE(normal_values)
    lo = float(min(std_sums.min(), normal_values.min()))
    hi = float(max(std_sums.max(), walking_values.max() if walking_values.size else 0))
    grid = np.linspace(lo, hi, 200)
    density = kde.pdf(grid)
    return StdProfileResult(
        normal_values=normal_values,
        walking_values=walking_values,
        kde_grid=grid,
        kde_density=density,
        percentile_99=kde.percentile(99.0),
    )


def render_std_profile(result: StdProfileResult, bins: int = 12) -> str:
    """Render the Figure 2 data as a text summary with coarse histograms."""
    lines = ["Figure 2: distribution of the sum of standard deviations"]
    lines.append(
        f"normal: n={result.normal_values.size}, "
        f"median={np.median(result.normal_values):.1f}"
    )
    if result.walking_values.size:
        lines.append(
            f"walking: n={result.walking_values.size}, "
            f"median={np.median(result.walking_values):.1f}"
        )
    lines.append(f"99th percentile of the normal profile: {result.percentile_99:.1f}")
    lines.append(f"median separation (walking - normal): {result.separation:.1f}")

    lo = float(result.kde_grid.min())
    hi = float(result.kde_grid.max())
    edges = np.linspace(lo, hi, bins + 1)
    normal_hist, _ = np.histogram(result.normal_values, bins=edges, density=True)
    if result.walking_values.size:
        walking_hist, _ = np.histogram(
            result.walking_values, bins=edges, density=True
        )
    else:
        walking_hist = np.zeros(bins)
    lines.append(f"{'bin':>14} | {'normal':>8} | {'walking':>8}")
    for i in range(bins):
        lines.append(
            f"[{edges[i]:5.1f},{edges[i+1]:5.1f}) | "
            f"{normal_hist[i]:8.4f} | {walking_hist[i]:8.4f}"
        )
    return "\n".join(lines)
