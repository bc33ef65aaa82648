"""Shared campaign setup and caching for the reproduction experiments.

Every table and figure of the paper is computed from the same ingredients:
a recorded campaign, per-sensor-count MD evaluations, the RE sample dataset
and its cross-validated predictions.  :class:`AnalysisContext` computes each
ingredient once and caches it, so the per-figure analysis modules (and the
benchmarks) can share the work.

Two campaign scales are provided:

* ``"compact"`` (default) — five simulated days of 40 minutes each with
  proportionally higher movement rates, producing on the order of a hundred
  labelled events in a few seconds of simulation.  This is what the
  benchmarks use.
* ``"paper"`` — five 8-hour days with the paper's movement rates (about
  130 events), for users who want the full-scale run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import FadewichConfig
from ..core.evaluation import (
    CampaignStdFeatures,
    MDEvaluation,
    build_sample_dataset,
    cross_validated_predictions,
    departure_outcomes,
    evaluate_md_grid,
    sensor_subset,
)
from ..core.radio_env import RadioEnvironment
from ..core.security import DeauthOutcome
from ..detectors import KdeMdDetector
from ..mobility.behavior import BehaviorProfile
from ..radio.channel import ChannelConfig
from ..radio.office import OfficeLayout, paper_office
from ..simulation.collector import CampaignCollector, CampaignRecording
from ..simulation.dataset import SampleDataset

__all__ = ["CampaignScale", "collect_campaign", "AnalysisContext"]


@dataclass(frozen=True)
class CampaignScale:
    """Parameters of a reproduction campaign.

    Attributes
    ----------
    n_days:
        Number of simulated working days.
    day_duration_s:
        Length of each day.
    departures_per_hour / mean_absence_s / internal_moves_per_hour:
        Behaviour profile shared by all users, scaled so the campaign yields
        a Table-II-like number of events.
    """

    name: str
    n_days: int
    day_duration_s: float
    departures_per_hour: float
    mean_absence_s: float
    min_absence_s: float
    internal_moves_per_hour: float

    @staticmethod
    def compact() -> "CampaignScale":
        """Five 40-minute days with compressed movement rates (default)."""
        return CampaignScale(
            name="compact",
            n_days=5,
            day_duration_s=2400.0,
            departures_per_hour=6.5,
            mean_absence_s=150.0,
            min_absence_s=45.0,
            internal_moves_per_hour=2.0,
        )

    @staticmethod
    def paper() -> "CampaignScale":
        """Five 8-hour days with the paper's movement rates (~130 events)."""
        return CampaignScale(
            name="paper",
            n_days=5,
            day_duration_s=8 * 3600.0,
            departures_per_hour=0.55,
            mean_absence_s=600.0,
            min_absence_s=60.0,
            internal_moves_per_hour=0.3,
        )

    def behavior_profile(self) -> BehaviorProfile:
        return BehaviorProfile(
            departures_per_hour=self.departures_per_hour,
            mean_absence_s=self.mean_absence_s,
            min_absence_s=self.min_absence_s,
            internal_moves_per_hour=self.internal_moves_per_hour,
        )

    def profiles_for(self, layout: OfficeLayout) -> Dict[str, BehaviorProfile]:
        """The per-workstation profile map schedule generation expects."""
        profile = self.behavior_profile()
        return {w.workstation_id: profile for w in layout.workstations}

    def derive(self, name: Optional[str] = None, **overrides) -> "CampaignScale":
        """A copy with field overrides — the behaviour axis of scenario grids.

        ``name`` defaults to the original name suffixed with ``+`` so
        derived scales remain distinguishable in sweep reports::

            CampaignScale.compact().derive("busy", departures_per_hour=12.0)
        """
        scale = replace(self, **overrides)
        return replace(scale, name=name if name is not None else f"{self.name}+")


def collect_campaign(
    seed: int = 42,
    scale: Optional[CampaignScale] = None,
    layout: Optional[OfficeLayout] = None,
    channel_config: Optional[ChannelConfig] = None,
) -> CampaignRecording:
    """Collect one reproduction campaign.

    Parameters
    ----------
    seed:
        Seed of all stochastic components (schedules, radio noise, inputs).
        Also accepts a :class:`numpy.random.SeedSequence` (the scenario
        sweep passes derived child seeds).
    scale:
        Campaign scale; :meth:`CampaignScale.compact` when omitted.
    layout:
        Office layout; the paper's office when omitted.
    channel_config:
        Radio channel configuration; the model defaults when omitted.
    """
    scale = scale if scale is not None else CampaignScale.compact()
    layout = layout if layout is not None else paper_office()
    collector = CampaignCollector(layout, channel_config=channel_config, seed=seed)
    return collector.collect_generated(
        n_days=scale.n_days,
        day_duration_s=scale.day_duration_s,
        profiles=scale.profiles_for(layout),
    )


class AnalysisContext:
    """Caches the shared evaluation artefacts of one campaign.

    Parameters
    ----------
    recording:
        The recorded campaign (collect it with :func:`collect_campaign`).
    config:
        The FADEWICH configuration (the paper's defaults when omitted).
    seed:
        Seed of the cross-validation shuffles.
    detector:
        The detector-zoo member (``repro.detectors``) to evaluate; the
        paper's KDE detector by default.
    features:
        Optional pre-built :class:`CampaignStdFeatures` for this recording
        and config — sweeps share one across the detector axis so the
        rolling feature matrices are computed once per recording.
    """

    def __init__(
        self,
        recording: CampaignRecording,
        config: Optional[FadewichConfig] = None,
        seed: int = 0,
        *,
        detector: object = KdeMdDetector(),
        features: Optional[CampaignStdFeatures] = None,
    ) -> None:
        self.recording = recording
        self.config = config if config is not None else FadewichConfig()
        self.layout = recording.layout
        self.detector = detector
        self._seed = seed
        # Every cache is keyed on (sensor subset, config, detector):
        # ``config`` and ``detector`` are public attributes, and a bare
        # ``n_sensors`` key would keep serving results computed under a
        # previous configuration (regression test in
        # tests/test_analysis_equivalence.py).
        self._md_cache: Dict[Tuple, MDEvaluation] = {}
        self._dataset_cache: Dict[Tuple, Tuple[RadioEnvironment, SampleDataset]] = {}
        self._prediction_cache: Dict[Tuple, Dict[int, str]] = {}
        self._outcome_cache: Dict[Tuple, List[DeauthOutcome]] = {}
        self._features_cache: Dict[FadewichConfig, CampaignStdFeatures] = {}
        if features is not None:
            if features.recording is not recording:
                raise ValueError(
                    "shared features were built for a different recording"
                )
            if features.config != self.config:
                raise ValueError(
                    "shared features were built for a different config"
                )
            self._features_cache[self.config] = features

    # ------------------------------------------------------------------ #
    @property
    def all_sensor_ids(self) -> List[str]:
        return list(self.layout.sensor_ids)

    @property
    def max_sensors(self) -> int:
        return len(self.layout.sensors)

    def sensor_ids(self, n_sensors: int) -> List[str]:
        """The first ``n_sensors`` sensor ids of the deployment."""
        return sensor_subset(self.all_sensor_ids, n_sensors)

    def _key(self, n_sensors: int) -> Tuple:
        return (tuple(self.sensor_ids(n_sensors)), self.config, self.detector)

    def _features(self) -> CampaignStdFeatures:
        """The shared rolling feature matrix of the current config, cached."""
        if self.config not in self._features_cache:
            self._features_cache[self.config] = CampaignStdFeatures(
                self.recording, self.config
            )
        return self._features_cache[self.config]

    # ------------------------------------------------------------------ #
    def md_evaluations(
        self, sensor_counts: Sequence[int]
    ) -> Dict[int, MDEvaluation]:
        """MD evaluations for several sensor counts, batch-computed.

        Uncached counts are evaluated together through
        :func:`~repro.core.evaluation.evaluate_md_grid`, so the rolling
        feature matrix is shared and all profile chains advance in
        lockstep.
        """
        counts = [int(n) for n in sensor_counts]
        missing = list(
            dict.fromkeys(n for n in counts if self._key(n) not in self._md_cache)
        )
        if missing:
            computed = evaluate_md_grid(
                self.recording,
                self.config,
                missing,
                features=self._features(),
                detector=self.detector,
            )
            for n, evaluation in computed.items():
                self._md_cache[self._key(n)] = evaluation
        return {n: self._md_cache[self._key(n)] for n in counts}

    def md_evaluation(self, n_sensors: int) -> MDEvaluation:
        """MD evaluation (TP/FP/FN and windows) for a sensor count, cached."""
        return self.md_evaluations([n_sensors])[n_sensors]

    def sample_dataset(
        self, n_sensors: int
    ) -> Tuple[RadioEnvironment, SampleDataset]:
        """The labelled RE dataset of a sensor count, cached."""
        key = self._key(n_sensors)
        if key not in self._dataset_cache:
            self._dataset_cache[key] = build_sample_dataset(
                self.md_evaluation(n_sensors), self.config, random_state=self._seed
            )
        return self._dataset_cache[key]

    def re_predictions(self, n_sensors: int) -> Dict[int, str]:
        """Out-of-fold RE predictions per sample index, cached."""
        key = self._key(n_sensors)
        if key not in self._prediction_cache:
            re_module, dataset = self.sample_dataset(n_sensors)
            self._prediction_cache[key] = cross_validated_predictions(
                re_module,
                dataset,
                rng=np.random.default_rng(self._seed),
            )
        return self._prediction_cache[key]

    def outcomes(self, n_sensors: int) -> List[DeauthOutcome]:
        """Per-departure deauthentication outcomes, cached."""
        key = self._key(n_sensors)
        if key not in self._outcome_cache:
            _, dataset = self.sample_dataset(n_sensors)
            self._outcome_cache[key] = departure_outcomes(
                self.md_evaluation(n_sensors),
                dataset,
                self.re_predictions(n_sensors),
                self.config,
            )
        return self._outcome_cache[key]

    def re_accuracy(self, n_sensors: int) -> float:
        """Out-of-fold classification accuracy of RE for a sensor count."""
        _, dataset = self.sample_dataset(n_sensors)
        predictions = self.re_predictions(n_sensors)
        if not predictions:
            return 0.0
        correct = sum(
            1
            for idx, label in predictions.items()
            if dataset.samples[idx].label == label
        )
        return correct / len(predictions)

    def sensor_sweep(self, counts: Optional[Sequence[int]] = None) -> List[int]:
        """The sensor counts swept by the paper (3..9 by default)."""
        if counts is not None:
            return [int(c) for c in counts]
        return list(range(3, self.max_sensors + 1))
