"""Configuration of the FADEWICH system.

All tunable parameters of the paper live here with their published default
values:

* ``t_delta`` — the variation-window duration threshold (4.5 s in the
  paper's final configuration, swept in Figure 7),
* ``alpha`` — the MD anomaly percentile (the paper thresholds at the 99th
  percentile, i.e. ``alpha = 1``),
* ``t_id`` / ``t_ss`` — alert-state idle threshold and screen-saver delay
  (5 s and 3 s, giving the 8-second step of Figure 9),
* the usability costs (3 s to cancel a screen saver, 13 s to re-login),
* the baseline inactivity time-out ``T`` (300 s in Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

__all__ = ["FadewichConfig", "MDConfig", "REConfig"]


@dataclass(frozen=True)
class MDConfig:
    """Movement Detection parameters (paper Section IV-C).

    Attributes
    ----------
    std_window_s:
        Length ``d`` of the sliding window over which each stream's standard
        deviation is computed.
    profile_init_s:
        Length of the initial quiet period used to build the normal profile
        (the paper's adversary-free installation phase, ~30 s of summation
        samples).
    alpha:
        Anomaly percentile parameter: observations above the
        ``(100 - alpha)``-th percentile of the profile CDF are anomalous.
    batch_size:
        Profile-update batch size ``b``.
    tau:
        Maximum fraction of anomalous values tolerated in an update batch
        before the batch is discarded.
    merge_gap_s:
        Anomalous runs separated by less than this are merged into a single
        variation window (bridges single-sample dips below the threshold).
    """

    std_window_s: float = 2.0
    profile_init_s: float = 60.0
    alpha: float = 1.0
    batch_size: int = 40
    tau: float = 0.25
    merge_gap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.std_window_s <= 0:
            raise ValueError("std_window_s must be positive")
        if self.profile_init_s <= 0:
            raise ValueError("profile_init_s must be positive")
        if not 0.0 < self.alpha < 100.0:
            raise ValueError("alpha must be in (0, 100)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if not self.merge_gap_s >= 0:
            raise ValueError("merge_gap_s must be non-negative")


@dataclass(frozen=True)
class REConfig:
    """Radio Environment classifier parameters (paper Section IV-D).

    Attributes
    ----------
    svm_c:
        Soft-margin penalty of the SVM.
    svm_kernel:
        Kernel name (``"rbf"`` or ``"linear"``).
    entropy_bins:
        Histogram bins of the entropy feature.
    autocorrelation_lag:
        Lag (in samples) of the autocorrelation feature.
    """

    svm_c: float = 1.0
    svm_kernel: str = "linear"
    entropy_bins: int = 16
    autocorrelation_lag: int = 1

    def __post_init__(self) -> None:
        if self.svm_c <= 0:
            raise ValueError("svm_c must be positive")
        if self.entropy_bins < 1:
            raise ValueError("entropy_bins must be >= 1")
        if self.autocorrelation_lag < 0:
            raise ValueError("autocorrelation_lag must be non-negative")


@dataclass(frozen=True)
class FadewichConfig:
    """Top-level FADEWICH configuration.

    Attributes
    ----------
    t_delta_s:
        Variation-window duration threshold ``t_delta``: windows at least
        this long trigger a system decision (Rule 1).
    t_id_s:
        Alert-state idle threshold ``t_ID`` before the screen saver starts.
    t_ss_s:
        Screen-saver activation delay ``t_ss`` (from Figure 9's case-B
        timing ``t + t_ID + t_ss``).
    timeout_s:
        Baseline inactivity time-out ``T`` used for comparison (Figure 13).
    screensaver_cost_s:
        Usability cost of cancelling a wrongly activated screen saver.
    reauth_cost_s:
        Usability cost of re-authenticating after a wrong deauthentication.
    true_window_slack_s:
        Half-width ``delta`` of the true window ``U_t = [t - delta,
        t + delta]`` used to score MD decisions.
    md:
        Movement Detection parameters.
    re:
        Radio Environment parameters.
    """

    t_delta_s: float = 4.5
    t_id_s: float = 5.0
    t_ss_s: float = 3.0
    timeout_s: float = 300.0
    screensaver_cost_s: float = 3.0
    reauth_cost_s: float = 13.0
    true_window_slack_s: float = 5.0
    md: MDConfig = field(default_factory=MDConfig)
    re: REConfig = field(default_factory=REConfig)

    def __post_init__(self) -> None:
        if self.t_delta_s <= 0:
            raise ValueError("t_delta_s must be positive")
        if self.t_id_s < 0 or self.t_ss_s < 0:
            raise ValueError("t_id_s and t_ss_s must be non-negative")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.screensaver_cost_s < 0 or self.reauth_cost_s < 0:
            raise ValueError("usability costs must be non-negative")
        if self.true_window_slack_s <= 0:
            raise ValueError("true_window_slack_s must be positive")

    def derive(
        self,
        *,
        md: Optional[Dict[str, object]] = None,
        re: Optional[Dict[str, object]] = None,
        **overrides: object,
    ) -> "FadewichConfig":
        """A copy with field overrides, including nested MD / RE fields.

        The scenario-grid constructor of :mod:`repro.analysis.scenarios`
        builds configuration axes from this in one expression::

            FadewichConfig().derive(t_delta_s=6.0, md={"alpha": 2.0})

        ``md`` / ``re`` dicts patch the corresponding nested config through
        :func:`dataclasses.replace`, so unknown field names fail loudly and
        the patched copies re-run their validation.
        """
        if md:
            overrides["md"] = replace(self.md, **md)
        if re:
            overrides["re"] = replace(self.re, **re)
        return replace(self, **overrides)

    @property
    def misclassification_delay_s(self) -> float:
        """Deauthentication delay of a misclassified event (case B): tID + tss."""
        return self.t_id_s + self.t_ss_s
