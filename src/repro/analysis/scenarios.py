"""Scenario-grid sweeps: many layouts / behaviours / channels, one report.

The paper evaluates one office and one behaviour profile.  This module
turns the reproduction into a *sweep engine*: a declarative
:class:`ScenarioGrid` enumerates the cartesian product of office layouts,
behaviour scales, radio-channel configurations, FADEWICH configurations and
replicate seeds, and a :class:`ScenarioSweepRunner` executes the whole grid
through the batch machinery built in the previous PRs:

* every scenario's days are collected through
  :meth:`~repro.simulation.runner.CampaignRunner.run_tasks`, so days of
  *different* scenarios share one worker pool;
* every recording is analysed through a per-scenario
  :class:`~repro.analysis.campaign.AnalysisContext`, whose
  :meth:`~repro.analysis.campaign.AnalysisContext.md_evaluations` batch
  path shares one rolling feature matrix per day and advances all sensor
  counts in lockstep (the columnar engine of PR 2);
* RE accuracy is computed through the vectorised cross-validation path.

Reproducibility
---------------

All randomness derives from one root :class:`numpy.random.SeedSequence`:
scenario ``i`` owns the child ``(SCENARIO_DOMAIN, i)`` of the sweep root,
and its recording is bit-identical to a serial
``CampaignCollector(layout, channel_config=..., seed=child).collect_generated(...)``
— the scenario tests lock this equivalence.  Replicates are ordinary grid
points (each gets its own scenario index, hence its own child seed), so a
grid is reproducible from a single integer.

The result is a :class:`SweepReport`: per-scenario Table-III-style MD rows
and RE accuracies, a cross-scenario summary, per-cell replicate statistics
(:meth:`SweepReport.cell_statistics`), a text rendering and a JSON export
that round-trips losslessly (:meth:`SweepReport.load`).

Resumable sweeps
----------------

``run(store=SweepStore(path))`` persists every completed grid point as one
atomically-written JSON record and skips grid points whose record is
already present *and* was computed under the same root seed, seed-index
assignment, analysis seed and configuration content
(:meth:`ScenarioSweepRunner.store_key`); only the missing simulations are
compiled into day tasks (:meth:`ScenarioSweepRunner.collect` with
``needed=...``).  Because scenario seeds derive from the full grid's
enumeration (``_sim_indices``), a partially resumed grid re-collects
bit-identical recordings — a warm store performs *zero* day-collection
work and reproduces the cold report exactly.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import (
    Collection,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.config import FadewichConfig
from ..core.evaluation import CampaignStdFeatures
from ..detectors import KdeMdDetector, get_detector
from ..features.rolling import RollingStdExtractor
from ..features.store import FeatureStore
from ..identity import decode, digest, encode
from ..mobility.scheduler import CampaignSchedule
from ..radio.channel import ChannelConfig
from ..radio.office import OfficeLayout
from ..simulation.collector import (
    SCENARIO_DOMAIN,
    CampaignCollector,
    CampaignRecording,
    derive_seed_sequence,
)
from ..simulation.runner import CampaignRunner, DayTask
from ..zones.estimator import ZoneAccuracy, ZoneOccupancyEstimator, score_walks
from .campaign import AnalysisContext, CampaignScale
from .md_performance import MDTableRow
from .sweep_store import SweepStore

__all__ = [
    "ScenarioSpec",
    "ScenarioGrid",
    "ScenarioResult",
    "SweepReport",
    "ScenarioSweepRunner",
    "SweepRunStats",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully resolved grid point.

    ``index`` is the scenario's position in the grid's deterministic
    enumeration order (layouts, then scales, then channels, then configs,
    then detectors, then replicates) and keys its derived seed; ``name``
    is the human-readable ``layout/scale/channel/config/detector/rN`` path
    used in reports.
    """

    index: int
    name: str
    layout: OfficeLayout
    scale: CampaignScale
    channel_name: str
    channel_config: ChannelConfig
    config_name: str
    config: FadewichConfig
    replicate: int
    detector_name: str = "kde_md"
    detector: object = KdeMdDetector()

    def simulation_key(self) -> Tuple[str, str, str, int]:
        """The identity of this scenario's *simulated* campaign.

        The FADEWICH config and the detector only affect analysis, not
        simulation, so scenarios differing solely in ``config`` and/or
        ``detector`` share one recording (and one derived seed): their
        effects are measured on identical data.
        """
        return (self.layout.name, self.scale.name, self.channel_name, self.replicate)

    def describe(self) -> Dict[str, object]:
        """The JSON-friendly identity of this scenario."""
        return {
            "index": self.index,
            "name": self.name,
            "layout": self.layout.name,
            "scale": self.scale.name,
            "channel": self.channel_name,
            "config": self.config_name,
            "detector": self.detector_name,
            "replicate": self.replicate,
            "n_days": self.scale.n_days,
            "day_duration_s": self.scale.day_duration_s,
            "n_workstations": len(self.layout.workstations),
            "n_sensors_available": len(self.layout.sensors),
        }

    def content_hash(self) -> str:
        """Hash of everything that defines this scenario's behaviour.

        Covers the layout, behaviour scale, channel configuration,
        FADEWICH configuration and detector *content* (not just their
        names), so a store record computed under a renamed-but-equal
        configuration still matches while an edited-in-place configuration
        — or a swapped/retuned detector — never does.
        """
        return digest(
            (self.layout, self.scale, self.channel_config, self.config, self.detector)
        )

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON form; :meth:`from_dict` rebuilds an equal spec."""
        return {
            "index": self.index,
            "name": self.name,
            "channel_name": self.channel_name,
            "config_name": self.config_name,
            "detector_name": self.detector_name,
            "replicate": self.replicate,
            "layout": encode(self.layout),
            "scale": encode(self.scale),
            "channel_config": encode(self.channel_config),
            "config": encode(self.config),
            "detector": encode(self.detector),
        }

    @staticmethod
    def from_dict(data: Mapping) -> "ScenarioSpec":
        # ``detector`` fields default for payloads written before the
        # detector axis existed (such records are version-invalidated at
        # the store layer anyway, but reports round-trip regardless).
        return ScenarioSpec(
            index=int(data["index"]),
            name=str(data["name"]),
            layout=decode(data["layout"]),
            scale=decode(data["scale"]),
            channel_name=str(data["channel_name"]),
            channel_config=decode(data["channel_config"]),
            config_name=str(data["config_name"]),
            config=decode(data["config"]),
            replicate=int(data["replicate"]),
            detector_name=str(data.get("detector_name", "kde_md")),
            detector=(
                decode(data["detector"])
                if "detector" in data
                else KdeMdDetector()
            ),
        )


class ScenarioGrid:
    """A declarative cartesian product of sweep axes.

    Parameters
    ----------
    layouts:
        Office layouts; names (``layout.name``) must be unique.
    scales:
        Behaviour/scale axis (:class:`~repro.analysis.campaign.CampaignScale`
        values, e.g. built with :meth:`CampaignScale.derive`); names must be
        unique.
    channel_configs:
        Named radio-channel configurations (``{"default": ChannelConfig()}``
        when omitted).
    configs:
        Named FADEWICH configurations (``{"default": FadewichConfig()}``
        when omitted); build variants with :meth:`FadewichConfig.derive`.
    detectors:
        The detector axis: registered names (``["kde_md", "ema_mad"]``),
        detector instances, or a ``{label: detector}`` mapping for tuned
        config variants.  Defaults to the paper's KDE-MD detector alone.
        Like config-only variants, detector variants of one scenario
        share a single recording, so members are compared head-to-head on
        identical data.  Unknown names, duplicate labels and duplicate
        detector configs under different labels are rejected at
        construction.
    n_replicates:
        Independent repetitions of every combination; each replicate is its
        own grid point with its own derived seed.
    sensor_counts:
        MD sensor-count sweep evaluated inside every scenario (counts
        exceeding a layout's deployment are skipped for that scenario);
        every count from 3 to the layout's maximum when omitted.
        Normalised to sorted unique values — duplicates would double-count
        scenarios in the cross-scenario summary — and counts below 2 are
        rejected (one sensor has no links, so MD has no stream to read).
    """

    def __init__(
        self,
        layouts: Sequence[OfficeLayout],
        scales: Sequence[CampaignScale],
        channel_configs: Optional[Mapping[str, ChannelConfig]] = None,
        configs: Optional[Mapping[str, FadewichConfig]] = None,
        *,
        detectors: Union[Mapping[str, object], Sequence[object], None] = None,
        n_replicates: int = 1,
        sensor_counts: Optional[Sequence[int]] = None,
    ) -> None:
        self.layouts = tuple(layouts)
        self.scales = tuple(scales)
        self.channel_configs = dict(
            channel_configs
            if channel_configs is not None
            else {"default": ChannelConfig()}
        )
        self.configs = dict(
            configs if configs is not None else {"default": FadewichConfig()}
        )
        self.detectors = self._normalise_detectors(detectors)
        if not self.layouts:
            raise ValueError("grid needs at least one layout")
        if not self.scales:
            raise ValueError("grid needs at least one scale")
        if not self.channel_configs or not self.configs:
            raise ValueError("grid needs at least one channel config and config")
        if n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        layout_names = [layout.name for layout in self.layouts]
        if len(set(layout_names)) != len(layout_names):
            raise ValueError(f"layout names must be unique, got {layout_names}")
        scale_names = [scale.name for scale in self.scales]
        if len(set(scale_names)) != len(scale_names):
            raise ValueError(f"scale names must be unique, got {scale_names}")
        self.n_replicates = int(n_replicates)
        if sensor_counts is None:
            self.sensor_counts: Optional[Tuple[int, ...]] = None
        else:
            # Normalise to sorted unique: duplicate or unsorted counts
            # (e.g. [5, 5, 3]) would otherwise produce duplicate
            # MDTableRows per scenario that double-count in
            # SweepReport.summary() and cell_statistics().
            counts = sorted({int(n) for n in sensor_counts})
            if counts and counts[0] < 2:
                raise ValueError(
                    f"sensor counts must be >= 2, got {tuple(sensor_counts)}"
                )
            self.sensor_counts = tuple(counts)

    @staticmethod
    def _normalise_detectors(
        detectors: Union[Mapping[str, object], Sequence[object], None],
    ) -> Dict[str, object]:
        """Resolve the detector axis to a validated ``{label: instance}``.

        Sequence entries resolve through
        :func:`repro.detectors.get_detector` (unknown names raise with the
        registered list) and label themselves by registry name; a mapping
        supplies explicit labels for tuned variants.  Duplicate labels and
        duplicate detector configs are construction errors — either would
        silently double grid points that analyse identically.
        """
        if detectors is None:
            return {"kde_md": KdeMdDetector()}
        if isinstance(detectors, Mapping):
            items = [
                (str(label), get_detector(entry))
                for label, entry in detectors.items()
            ]
        else:
            items = []
            for entry in detectors:
                instance = get_detector(entry)
                items.append((type(instance).name, instance))
        if not items:
            raise ValueError("grid needs at least one detector")
        labels = [label for label, _ in items]
        duplicate_labels = sorted(
            label for label, count in Counter(labels).items() if count > 1
        )
        if duplicate_labels:
            raise ValueError(
                f"detector labels must be unique, got duplicates "
                f"{duplicate_labels}; pass a {{label: detector}} mapping to "
                "sweep config variants of one detector under distinct labels"
            )
        seen: Dict[object, str] = {}
        for label, instance in items:
            if instance in seen:
                raise ValueError(
                    f"detector variants {seen[instance]!r} and {label!r} have "
                    "identical configs — duplicate variants would double "
                    "identical grid points"
                )
            seen[instance] = label
        return dict(items)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return (
            len(self.layouts)
            * len(self.scales)
            * len(self.channel_configs)
            * len(self.configs)
            * len(self.detectors)
            * self.n_replicates
        )

    def __iter__(self) -> Iterator[ScenarioSpec]:
        return iter(self.scenarios())

    def scenarios(self) -> List[ScenarioSpec]:
        """All grid points in deterministic enumeration order."""
        specs: List[ScenarioSpec] = []
        index = 0
        for layout in self.layouts:
            for scale in self.scales:
                for channel_name, channel_config in self.channel_configs.items():
                    for config_name, config in self.configs.items():
                        for det_name, detector in self.detectors.items():
                            for replicate in range(self.n_replicates):
                                specs.append(
                                    ScenarioSpec(
                                        index=index,
                                        name=(
                                            f"{layout.name}/{scale.name}/"
                                            f"{channel_name}/{config_name}/"
                                            f"{det_name}/r{replicate}"
                                        ),
                                        layout=layout,
                                        scale=scale,
                                        channel_name=channel_name,
                                        channel_config=channel_config,
                                        config_name=config_name,
                                        config=config,
                                        replicate=replicate,
                                        detector_name=det_name,
                                        detector=detector,
                                    )
                                )
                                index += 1
        return specs

    def sensor_counts_for(self, layout: OfficeLayout) -> List[int]:
        """The MD sensor-count sweep applicable to one layout."""
        n_max = len(layout.sensors)
        if self.sensor_counts is None:
            return list(range(min(3, n_max), n_max + 1))
        return [n for n in self.sensor_counts if n <= n_max]


@dataclass
class ScenarioResult:
    """The analysed outcome of one scenario.

    ``recording`` is ``None`` when the sweep ran with
    ``keep_recordings=False`` (large grids would otherwise pin every
    scenario's raw RSSI arrays in memory for the report's lifetime); the
    event statistics are captured as plain ints either way.
    """

    spec: ScenarioSpec
    n_events: int
    n_departures: int
    md_rows: List[MDTableRow]
    re_accuracies: Dict[int, float] = field(default_factory=dict)
    zone_accuracy: Optional[Dict[str, float]] = None
    recording: Optional[CampaignRecording] = None

    def best_f_measure(self) -> Optional[Tuple[int, float]]:
        """``(n_sensors, f)`` of the best-performing sensor count.

        ``None`` when the scenario evaluated no sensor counts (every
        requested count exceeded the layout's deployment).
        """
        if not self.md_rows:
            return None
        best = max(self.md_rows, key=lambda row: row.counts.f_measure)
        return best.n_sensors, best.counts.f_measure

    def to_dict(self) -> Dict[str, object]:
        """Lossless JSON form (also the sweep-store record payload).

        ``scenario`` keeps the human-readable identity summary of earlier
        exports; ``spec`` carries the full configuration content so
        :meth:`from_dict` rebuilds an equal :class:`ScenarioSpec`.  RE
        accuracies are stored at full precision — they feed
        :meth:`SweepReport.cell_statistics`, so a resumed sweep must see
        exactly the values the cold run computed.
        """
        return {
            "scenario": self.spec.describe(),
            "spec": self.spec.to_dict(),
            "n_events": self.n_events,
            "n_departures": self.n_departures,
            "md": [row.to_dict() for row in self.md_rows],
            "re_accuracy": {
                str(n): float(acc) for n, acc in self.re_accuracies.items()
            },
            "zone_accuracy": (
                None
                if self.zone_accuracy is None
                else {k: v for k, v in self.zone_accuracy.items()}
            ),
        }

    @staticmethod
    def from_dict(
        data: Mapping, spec: Optional[ScenarioSpec] = None
    ) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output.

        With ``spec`` (a sweep resume's own) the stored spec, which must
        still be a mapping, is not decoded.  ``recording`` is always
        ``None``: raw RSSI traces are never persisted (only the aggregated
        numbers are), exactly like a ``keep_recordings=False`` run.
        """
        if spec is None:
            spec = ScenarioSpec.from_dict(data["spec"])
        elif not isinstance(data["spec"], Mapping):
            raise TypeError("the stored spec is not a mapping")
        return ScenarioResult(
            spec=spec,
            n_events=int(data["n_events"]),
            n_departures=int(data["n_departures"]),
            md_rows=[MDTableRow.from_dict(row) for row in data["md"]],
            re_accuracies={
                int(n): float(acc)
                for n, acc in dict(data.get("re_accuracy", {})).items()
            },
            zone_accuracy=(
                None
                if data.get("zone_accuracy") is None
                else dict(data["zone_accuracy"])
            ),
            recording=None,
        )


def _entropy_json(seed_seq: np.random.SeedSequence):
    """A seed sequence's entropy as JSON-ready data (pooled entropy is a
    list)."""
    entropy = seed_seq.entropy
    if isinstance(entropy, (list, tuple)):
        entropy = list(entropy)
    return entropy


def _library_version() -> str:
    """The installed ``repro`` version, for store-record invalidation.

    Imported lazily: :mod:`repro` imports this module during package
    initialisation, so a module-level ``from .. import __version__`` would
    see a partially-initialised package.
    """
    from .. import __version__

    return __version__


def _mean_std_ci95(values: Sequence[float]) -> Tuple[float, float, float]:
    """NaN-safe replicate statistics: ``(mean, sample std, 95% CI half-width)``.

    Empty input yields all-NaN; a single value yields its mean with NaN
    spread (one replicate cannot estimate variance — reporting 0 would
    fabricate certainty).
    """
    if not values:
        return (math.nan, math.nan, math.nan)
    mean = float(np.mean(values))
    if len(values) < 2:
        return (mean, math.nan, math.nan)
    std = float(np.std(values, ddof=1))
    ci95 = 1.96 * std / math.sqrt(len(values))
    return (mean, std, ci95)


def _json_value(value):
    """Strict-JSON cell value: floats rounded, non-finite floats to None."""
    if isinstance(value, float):
        return round(value, 6) if math.isfinite(value) else None
    return value


def _pm(mean: float, ci95: float) -> str:
    """Render ``mean ± ci95`` with NaN-aware fallbacks."""
    if math.isnan(mean):
        return f"{'-':>13}"
    spread = "n/a" if math.isnan(ci95) else f"{ci95:.3f}"
    return f"{mean:.3f}±{spread:<5}"


@dataclass
class SweepReport:
    """Aggregate outcome of a whole scenario grid."""

    results: List[ScenarioResult]
    seed_entropy: object = None

    @property
    def n_scenarios(self) -> int:
        return len(self.results)

    def result_for(self, name: str) -> ScenarioResult:
        """Look up a scenario result by its grid-path name."""
        for result in self.results:
            if result.spec.name == name:
                return result
        raise KeyError(f"no scenario named {name!r}")

    def summary(self) -> List[Dict[str, float]]:
        """Cross-scenario MD statistics per sensor count.

        For every sensor count evaluated anywhere in the grid: how many
        scenarios evaluated it and the mean / min / max F-measure and
        recall across them.
        """
        per_count: Dict[int, List[MDTableRow]] = {}
        for result in self.results:
            for row in result.md_rows:
                per_count.setdefault(row.n_sensors, []).append(row)
        summary = []
        for n in sorted(per_count):
            f_values = [row.counts.f_measure for row in per_count[n]]
            recalls = [row.counts.recall for row in per_count[n]]
            summary.append(
                {
                    "n_sensors": n,
                    "n_scenarios": len(f_values),
                    "f_mean": float(np.mean(f_values)),
                    "f_min": float(np.min(f_values)),
                    "f_max": float(np.max(f_values)),
                    "recall_mean": float(np.mean(recalls)),
                }
            )
        return summary

    def cell_statistics(self) -> List[Dict[str, object]]:
        """Per-cell replicate statistics of the grid.

        Groups results by the cell ``(layout, scale, channel, config,
        detector)`` with the replicate axis marginalised, and reports —
        per cell and sensor count — the across-replicate mean, sample
        standard deviation and normal-approximation 95% confidence
        half-width (``1.96 * std / sqrt(r)``) of the MD F-measure, the MD
        recall and the RE accuracy.

        NaN-safety: a single-replicate cell has no spread estimate, so its
        ``*_std`` and ``*_ci95`` are NaN (*not* 0 — zero would claim
        certainty the data cannot support); a sensor count no replicate
        evaluated RE at has NaN RE statistics.
        """
        cells: Dict[Tuple[str, str, str, str, str], List[ScenarioResult]] = {}
        for result in self.results:
            spec = result.spec
            key = (
                spec.layout.name,
                spec.scale.name,
                spec.channel_name,
                spec.config_name,
                spec.detector_name,
            )
            cells.setdefault(key, []).append(result)
        rows: List[Dict[str, object]] = []
        for (layout, scale, channel, config, detector), results in cells.items():
            f_values: Dict[int, List[float]] = {}
            recall_values: Dict[int, List[float]] = {}
            re_values: Dict[int, List[float]] = {}
            for result in results:
                for row in result.md_rows:
                    f_values.setdefault(row.n_sensors, []).append(
                        row.counts.f_measure
                    )
                    recall_values.setdefault(row.n_sensors, []).append(
                        row.counts.recall
                    )
                for n, acc in result.re_accuracies.items():
                    re_values.setdefault(n, []).append(acc)
            for n in sorted(set(f_values) | set(re_values)):
                entry: Dict[str, object] = {
                    "layout": layout,
                    "scale": scale,
                    "channel": channel,
                    "config": config,
                    "detector": detector,
                    "n_sensors": n,
                    "n_replicates": len(f_values.get(n, re_values.get(n, []))),
                }
                for prefix, values in (
                    ("f", f_values.get(n, [])),
                    ("recall", recall_values.get(n, [])),
                    ("re", re_values.get(n, [])),
                ):
                    mean, std, ci95 = _mean_std_ci95(values)
                    entry[f"{prefix}_mean"] = mean
                    entry[f"{prefix}_std"] = std
                    entry[f"{prefix}_ci95"] = ci95
                rows.append(entry)
        return rows

    def zone_summary(self) -> List[Dict[str, object]]:
        """Per-scenario zone-occupancy accuracy, where the workload ran.

        One row per scenario carrying a :attr:`ScenarioResult.zone_accuracy`
        payload; empty when the sweep ran without a zone estimator.
        """
        rows: List[Dict[str, object]] = []
        for result in self.results:
            if result.zone_accuracy is None:
                continue
            rows.append(
                {"scenario": result.spec.name, **result.zone_accuracy}
            )
        return rows

    def detector_names(self) -> List[str]:
        """Sorted distinct detector labels appearing in the results."""
        return sorted({result.spec.detector_name for result in self.results})

    def detector_comparison(self) -> List[Dict[str, object]]:
        """Which detector wins, per cell and sensor count.

        Marginalises replicates and groups by ``(layout, scale, channel,
        config, n_sensors)``; each row reports the mean MD F-measure per
        detector label (``f_mean_by_detector``) and the winning label
        (``best_detector``).  The grid may be ragged — a detector absent
        from a cell is simply absent from that row's mapping, never a
        fabricated number.
        """
        cells: Dict[Tuple[str, str, str, str, int], Dict[str, List[float]]] = {}
        for result in self.results:
            spec = result.spec
            for row in result.md_rows:
                key = (
                    spec.layout.name,
                    spec.scale.name,
                    spec.channel_name,
                    spec.config_name,
                    row.n_sensors,
                )
                cells.setdefault(key, {}).setdefault(
                    spec.detector_name, []
                ).append(row.counts.f_measure)
        rows: List[Dict[str, object]] = []
        for (layout, scale, channel, config, n), by_detector in cells.items():
            f_means = {
                detector: float(np.mean(values))
                for detector, values in by_detector.items()
            }
            rows.append(
                {
                    "layout": layout,
                    "scale": scale,
                    "channel": channel,
                    "config": config,
                    "n_sensors": n,
                    "f_mean_by_detector": f_means,
                    "best_detector": max(f_means, key=f_means.__getitem__),
                }
            )
        return rows

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_scenarios": self.n_scenarios,
            "seed_entropy": self.seed_entropy,
            "scenarios": [result.to_dict() for result in self.results],
            "summary": [
                {
                    key: (round(value, 6) if isinstance(value, float) else value)
                    for key, value in row.items()
                }
                for row in self.summary()
            ],
            # NaN is not valid JSON; single-replicate spread estimates
            # export as null and load back as NaN.
            "cell_statistics": [
                {key: _json_value(value) for key, value in row.items()}
                for row in self.cell_statistics()
            ],
            "zone_summary": [
                {key: _json_value(value) for key, value in row.items()}
                for row in self.zone_summary()
            ],
            "detector_comparison": [
                {
                    **{
                        key: _json_value(value)
                        for key, value in row.items()
                        if key != "f_mean_by_detector"
                    },
                    "f_mean_by_detector": {
                        detector: _json_value(value)
                        for detector, value in row["f_mean_by_detector"].items()
                    },
                }
                for row in self.detector_comparison()
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Sorted-key JSON, on one line (C-encoded) unless ``indent`` is
        given; :meth:`load` reads either layout."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path) -> None:
        """Write :meth:`to_json` (one line) for downstream tooling."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @staticmethod
    def from_dict(data: Mapping) -> "SweepReport":
        """Rebuild a report from :meth:`to_dict` output.

        The per-scenario results (specs included) are reconstructed in
        full; ``summary`` and ``cell_statistics`` are derived data and are
        recomputed from the results rather than trusted from the file.
        """
        return SweepReport(
            results=[
                ScenarioResult.from_dict(entry) for entry in data["scenarios"]
            ],
            seed_entropy=data.get("seed_entropy"),
        )

    @staticmethod
    def from_json(text: str) -> "SweepReport":
        return SweepReport.from_dict(json.loads(text))

    @staticmethod
    def load(path) -> "SweepReport":
        """Read a report previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return SweepReport.from_json(handle.read())

    def render(self) -> str:
        """The aggregate report as text: per-scenario rates + summary."""
        lines = [f"Scenario sweep: {self.n_scenarios} scenarios"]
        for result in self.results:
            lines.append(
                f"-- {result.spec.name} "
                f"({result.n_events} events, {result.n_departures} departures) --"
            )
            lines.append(
                f"{'sensors':>8} | {'TP':>10} | {'FP':>10} | {'FN':>10} | "
                f"{'F':>6}"
            )
            for row in result.md_rows:
                r, c = row.rates, row.counts
                lines.append(
                    f"{row.n_sensors:>8} | "
                    f"{r['tp']:.2f} ({c.tp:>3}) | "
                    f"{r['fp']:.2f} ({c.fp:>3}) | "
                    f"{r['fn']:.2f} ({c.fn:>3}) | "
                    f"{c.f_measure:6.3f}"
                )
            for n, acc in sorted(result.re_accuracies.items()):
                lines.append(f"RE accuracy ({n} sensors): {acc:.3f}")
            if result.zone_accuracy is not None:
                za = result.zone_accuracy
                lines.append(
                    f"zone accuracy: {za['accuracy']:.3f} "
                    f"(coverage {za['coverage']:.3f} over "
                    f"{int(za['n_instants'])} instants)"
                )
            best = result.best_f_measure()
            if best is None:
                lines.append("no applicable sensor counts for this layout")
            else:
                n_best, f_best = best
                lines.append(
                    f"best MD F-measure: {f_best:.3f} at {n_best} sensors"
                )
        lines.append("")
        lines.append("cross-scenario summary (MD F-measure per sensor count)")
        lines.append(
            f"{'sensors':>8} | {'scenarios':>9} | {'mean F':>7} | "
            f"{'min F':>7} | {'max F':>7} | {'mean recall':>11}"
        )
        for row in self.summary():
            lines.append(
                f"{row['n_sensors']:>8} | {row['n_scenarios']:>9} | "
                f"{row['f_mean']:7.3f} | {row['f_min']:7.3f} | "
                f"{row['f_max']:7.3f} | {row['recall_mean']:11.3f}"
            )
        cells = self.cell_statistics()
        if cells:
            width = max(
                len(
                    f"{c['layout']}/{c['scale']}/{c['channel']}/"
                    f"{c['config']}/{c['detector']}"
                )
                for c in cells
            )
            lines.append("")
            lines.append(
                "replicate statistics per cell "
                "(mean ± ci95; n/a with a single replicate)"
            )
            lines.append(
                f"{'cell':>{width}} | {'sensors':>7} | {'reps':>4} | "
                f"{'F':>13} | {'recall':>13} | {'RE acc':>13}"
            )
            for c in cells:
                cell = (
                    f"{c['layout']}/{c['scale']}/{c['channel']}/"
                    f"{c['config']}/{c['detector']}"
                )
                lines.append(
                    f"{cell:>{width}} | {c['n_sensors']:>7} | "
                    f"{c['n_replicates']:>4} | "
                    f"{_pm(c['f_mean'], c['f_ci95']):>13} | "
                    f"{_pm(c['recall_mean'], c['recall_ci95']):>13} | "
                    f"{_pm(c['re_mean'], c['re_ci95']):>13}"
                )
        detectors = self.detector_names()
        if len(detectors) > 1:
            comparison = self.detector_comparison()
            width = max(
                len(f"{c['layout']}/{c['scale']}/{c['channel']}/{c['config']}")
                for c in comparison
            )
            col = max(8, *(len(d) for d in detectors))
            lines.append("")
            lines.append(
                "detector comparison (mean MD F-measure; "
                "'-' = not evaluated in that cell)"
            )
            header = f"{'cell':>{width}} | {'sensors':>7}"
            for detector in detectors:
                header += f" | {detector:>{col}}"
            header += " | best"
            lines.append(header)
            for c in comparison:
                cell = f"{c['layout']}/{c['scale']}/{c['channel']}/{c['config']}"
                line = f"{cell:>{width}} | {c['n_sensors']:>7}"
                # The grid may be ragged across detectors (a detector
                # missing from a cell, e.g. explicit spec lists or
                # layout-dependent sensor counts): blank the cell instead
                # of crashing or misaligning the table.
                f_means = c["f_mean_by_detector"]
                for detector in detectors:
                    if detector in f_means:
                        line += f" | {f_means[detector]:>{col}.3f}"
                    else:
                        line += f" | {'-':>{col}}"
                line += f" | {c['best_detector']}"
                lines.append(line)
        return "\n".join(lines)


@dataclass(frozen=True)
class SweepRunStats:
    """What one :meth:`ScenarioSweepRunner.run` invocation actually did.

    ``n_day_tasks`` counts the :class:`~repro.simulation.runner.DayTask`
    items compiled for collection — the resume-identity contract is that a
    fully warm store yields ``n_day_tasks == 0`` and a half-warm store only
    the missing simulations' days.

    ``n_unclaimed`` is only non-zero in cooperative runs (``run`` with
    ``claims``): scenarios that were neither cached nor granted to this
    runner, i.e. left for other workers.  A run is *complete* — its
    report covers the whole grid — iff ``n_unclaimed == 0``.

    ``n_discarded`` counts analysed results thrown away by a
    ``claims.may_put`` veto (a lost lease): never persisted, never
    reported, re-counted under ``n_unclaimed`` so completeness stays
    honest.
    """

    n_scenarios: int
    n_cached: int
    n_analyzed: int
    n_simulations: int
    n_day_tasks: int
    n_unclaimed: int = 0
    n_discarded: int = 0

    @property
    def complete(self) -> bool:
        return self.n_unclaimed == 0


class ScenarioSweepRunner:
    """Executes a :class:`ScenarioGrid` end to end.

    Parameters
    ----------
    grid:
        The scenario grid (or an explicit list of :class:`ScenarioSpec`).
    seed:
        Root seed of the whole sweep; scenario ``i`` derives the child
        ``(SCENARIO_DOMAIN, i)``.
    mode / max_workers:
        Forwarded to the underlying :class:`CampaignRunner`: ``"process"``
        (one worker pool that all days of all scenarios share) or
        ``"serial"``.
    analysis_seed:
        Seed of the per-scenario analysis (CV shuffles), shared across
        scenarios so analysis randomness never confounds scenario effects.
    re_sensor_counts:
        Sensor counts at which RE accuracy is cross-validated per scenario;
        default: each scenario's maximum count.  Pass ``()`` to skip the RE
        stage (MD-only sweeps are much cheaper).
    keep_recordings:
        Whether :class:`ScenarioResult` retains each scenario's raw
        :class:`CampaignRecording` (default).  Disable for large grids: the
        report only needs the aggregated numbers, while the recordings pin
        every scenario's per-sample RSSI arrays in memory.  Note that
        recordings are never *persisted*: results loaded from a
        :class:`~repro.analysis.sweep_store.SweepStore` always have
        ``recording=None``, whatever this flag says (see :meth:`run`).
    zone_estimator:
        Optional :class:`~repro.zones.estimator.ZoneOccupancyEstimator`:
        every freshly analysed scenario additionally runs the
        zone-occupancy workload over its recording, scored against the
        re-derived ground-truth walks
        (:meth:`~repro.simulation.collector.CampaignCollector.day_walks`),
        and carries the counts as :attr:`ScenarioResult.zone_accuracy`.
        The estimator's content hash joins :meth:`store_key`, so adding,
        removing or retuning it invalidates stored records instead of
        silently reusing them.
    """

    def __init__(
        self,
        grid: Union[ScenarioGrid, Sequence[ScenarioSpec]],
        *,
        seed: Union[int, np.random.SeedSequence, None] = 0,
        mode: str = "process",
        max_workers: Optional[int] = None,
        analysis_seed: int = 0,
        re_sensor_counts: Optional[Sequence[int]] = None,
        keep_recordings: bool = True,
        zone_estimator: Optional[ZoneOccupancyEstimator] = None,
    ) -> None:
        if isinstance(grid, ScenarioGrid):
            self._grid: Optional[ScenarioGrid] = grid
            self._specs = grid.scenarios()
        else:
            self._grid = None
            self._specs = list(grid)
        if not self._specs:
            raise ValueError("the scenario grid is empty")
        if isinstance(seed, np.random.SeedSequence):
            self._root = seed
        else:
            self._root = np.random.SeedSequence(seed)
        self._mode = mode
        self._max_workers = max_workers
        self._analysis_seed = analysis_seed
        self._re_sensor_counts = (
            tuple(int(n) for n in re_sensor_counts)
            if re_sensor_counts is not None
            else None
        )
        self._keep_recordings = keep_recordings
        self._zone_estimator = zone_estimator
        # Zone scores per simulation key while :meth:`run` analyses: they
        # read neither the detector nor the FADEWICH config.
        self._zone_memo: Optional[Dict[Tuple, Dict[str, float]]] = None
        self.last_run_stats: Optional[SweepRunStats] = None
        self._last_collect_task_count = 0
        # Explicit spec lists bypass ScenarioGrid's validation, so enforce
        # name uniqueness here: SweepReport.result_for and every name-keyed
        # sweep-store record would otherwise silently return the first
        # match among same-named scenarios.
        name_counts = Counter(spec.name for spec in self._specs)
        duplicate_names = sorted(n for n, c in name_counts.items() if c > 1)
        if duplicate_names:
            raise ValueError(
                f"duplicate scenario names {duplicate_names}; "
                "SweepReport.result_for and sweep-store records are keyed "
                "by name and would silently return the first match — give "
                "every scenario a unique name"
            )
        # Scenarios differing only in FADEWICH config simulate the same
        # campaign; enumerate the distinct simulations in spec order so
        # their seed derivation is reproducible from the root alone.  The
        # key is name-based, so distinct simulation inputs must never
        # alias one simulation key — that would silently analyse the
        # wrong data.
        self._sim_indices: Dict[Tuple[str, str, str, int], int] = {}
        sim_inputs: Dict[Tuple[str, str, str, int], Tuple] = {}
        for spec in self._specs:
            key = spec.simulation_key()
            inputs = (spec.layout, spec.scale, spec.channel_config)
            if key not in self._sim_indices:
                self._sim_indices[key] = len(self._sim_indices)
                sim_inputs[key] = inputs
            elif sim_inputs[key] != inputs:
                raise ValueError(
                    f"scenarios with simulation key {key} have conflicting "
                    "layout/scale/channel definitions; give distinct names "
                    "to distinct simulation inputs"
                )

    # ------------------------------------------------------------------ #
    @property
    def specs(self) -> List[ScenarioSpec]:
        return list(self._specs)

    @property
    def seed_sequence(self) -> np.random.SeedSequence:
        return self._root

    def scenario_seed(self, spec: ScenarioSpec) -> np.random.SeedSequence:
        """The derived seed root of a scenario's simulated campaign.

        Keyed by the scenario's *simulation* identity: config-only variants
        of the same campaign share the seed (and hence the recording).
        """
        return derive_seed_sequence(
            self._root, SCENARIO_DOMAIN, self._sim_indices[spec.simulation_key()]
        )

    def _plan(
        self, spec: ScenarioSpec
    ) -> Tuple[
        np.random.SeedSequence,
        CampaignCollector,
        CampaignSchedule,
        np.random.SeedSequence,
    ]:
        """A scenario's seed, collector, schedule and day seed base: the
        plan :meth:`collect` simulates and :meth:`_zone_accuracy` replays."""
        seed = self.scenario_seed(spec)
        collector = CampaignCollector(
            spec.layout, channel_config=spec.channel_config, seed=seed
        )
        schedule = collector.make_schedule(
            spec.scale.n_days,
            spec.scale.day_duration_s,
            spec.scale.profiles_for(spec.layout),
        )
        return seed, collector, schedule, collector.next_generated_base()

    def _sensor_counts_for(self, spec: ScenarioSpec) -> List[int]:
        if self._grid is not None:
            return self._grid.sensor_counts_for(spec.layout)
        n_max = len(spec.layout.sensors)
        return list(range(min(3, n_max), n_max + 1))

    # ------------------------------------------------------------------ #
    def collect(
        self,
        needed: Optional[Collection[Tuple[str, str, str, int]]] = None,
    ) -> List[Tuple[ScenarioSpec, CampaignRecording]]:
        """Collect scenario campaigns on one shared worker pool.

        Schedule generation runs serially per scenario (it is cheap and
        stateful on the scenario's structural stream); day collection fans
        out across scenarios through
        :meth:`CampaignRunner.run_tasks`.  Each scenario's recording is
        bit-identical to a serial ``collect_generated`` with the same
        derived seed.

        Parameters
        ----------
        needed:
            Simulation keys (:meth:`ScenarioSpec.simulation_key`) to
            collect; everything when omitted.  This is the partial
            collection a store resume drives: only the missing simulations
            are compiled into day tasks, while seed derivation stays keyed
            by the *full* grid's ``_sim_indices`` — so a 90%-warm grid
            reruns 10% of the day-collection work and still reproduces
            every recording bit-identically to a cold run.  Returned pairs
            cover exactly the specs whose simulation key was collected.
        """
        needed_keys = None if needed is None else set(needed)
        tasks: List[DayTask] = []
        spans: Dict[Tuple[str, str, str, int], Tuple[int, int]] = {}
        sim_specs: Dict[Tuple[str, str, str, int], ScenarioSpec] = {}
        for spec in self._specs:
            key = spec.simulation_key()
            if key in spans:
                continue  # config-only variant: shares the recording
            if needed_keys is not None and key not in needed_keys:
                continue
            sim_specs[key] = spec
            scenario_seed, _, schedule, base = self._plan(spec)
            start = len(tasks)
            tasks.extend(
                DayTask(
                    day=day,
                    seed_seq=scenario_seed,
                    seed_base=base,
                    layout=spec.layout,
                    channel_config=spec.channel_config,
                )
                for day in schedule.days
            )
            spans[key] = (start, len(tasks))
        self._last_collect_task_count = len(tasks)
        if not tasks:
            return []
        runner = CampaignRunner(
            self._specs[0].layout,
            seed=self._root,
            mode=self._mode,
            max_workers=self._max_workers,
        )
        days = runner.run_tasks(tasks)
        recordings = {
            key: CampaignRecording(
                days=days[a:b], layout=sim_specs[key].layout
            )
            for key, (a, b) in spans.items()
        }
        return [
            (spec, recordings[spec.simulation_key()])
            for spec in self._specs
            if spec.simulation_key() in recordings
        ]

    def analyze(
        self,
        spec: ScenarioSpec,
        recording: CampaignRecording,
        features: Optional[CampaignStdFeatures] = None,
    ) -> ScenarioResult:
        """Run the batch MD / RE analysis of one scenario recording.

        ``features`` optionally shares pre-built rolling feature matrices
        across calls — :meth:`run` builds every variant's on one
        :class:`~repro.features.store.FeatureStore` per recording, so the
        detector and config axes compute each day's std matrix once per
        std window (the columnar std matrices dominate a sweep's analysis
        cost; detectors and the other config fields only act downstream
        of them).
        """
        context = AnalysisContext(
            recording,
            spec.config,
            seed=self._analysis_seed,
            detector=spec.detector,
            features=features,
        )
        counts = self._sensor_counts_for(spec)
        evaluations = context.md_evaluations(counts)
        md_rows = [
            MDTableRow(n_sensors=n, counts=evaluations[n].counts) for n in counts
        ]
        if self._re_sensor_counts is None:
            re_counts: Sequence[int] = [max(counts)] if counts else []
        else:
            re_counts = [n for n in self._re_sensor_counts if n in set(counts)]
        re_accuracies = {n: context.re_accuracy(n) for n in re_counts}
        zone_accuracy = None
        if self._zone_estimator is not None:
            zone_accuracy = self._zone_accuracy(spec, recording)
        return ScenarioResult(
            spec=spec,
            n_events=recording.total_labelled_events(),
            n_departures=recording.total_departures(),
            md_rows=md_rows,
            re_accuracies=re_accuracies,
            zone_accuracy=zone_accuracy,
            recording=recording if self._keep_recordings else None,
        )

    def _zone_accuracy(
        self, spec: ScenarioSpec, recording: CampaignRecording
    ) -> Dict[str, float]:
        """Score the zone workload on one recording against ground truth.

        Rebuilds the scenario's collector and schedule from its derived
        seed — the exact deterministic plan the recording was collected
        under — so :meth:`~repro.simulation.collector.CampaignCollector.
        day_walks` yields the true trajectories without re-simulating any
        radio.  Inside :meth:`run`, each simulation is scored once and
        every variant gets its own copy of the dict.
        """
        memo = {} if self._zone_memo is None else self._zone_memo
        key = spec.simulation_key()
        if key in memo:
            return dict(memo[key])
        estimator = self._zone_estimator
        assert estimator is not None
        _, collector, schedule, base = self._plan(spec)
        total = ZoneAccuracy()
        for day, day_schedule in zip(recording.days, schedule.days):
            times, grid = estimator.day_grid(day, spec.layout)
            walks = collector.day_walks(day_schedule, seed_base=base)
            trajectories = [
                traj
                for walk_list in walks.values()
                for (_, traj, _) in walk_list
            ]
            total = total + score_walks(
                estimator.zone_map, times, grid.occupied, trajectories
            )
        memo[key] = total.to_dict()
        return dict(memo[key])

    def store_key(self, spec: ScenarioSpec) -> Dict[str, object]:
        """The staleness fingerprint of one scenario's store record.

        A stored result is only reusable if *everything* that determined it
        is unchanged: the sweep's root seed identity (entropy + spawn key),
        the scenario's position in the simulation-seed enumeration
        (``sim_index`` — grid reshapes that reassign seeds invalidate
        records even when names survive), the analysis seed, the evaluated
        sensor counts, the RE stage selection, the detector label and the
        content hash of the layout / scale / channel / FADEWICH / detector
        configuration.  Any mismatch reads as a store miss, never as
        silent reuse — in particular, a grid re-run with a different
        detector (or a retuned one under the same label) recomputes
        instead of resuming, while each detector's own records stay warm.

        The library version is part of the key too: this repo consciously
        re-pins analysis semantics across releases, so a record computed by
        an older ``repro`` must be recomputed, not resumed.  (Conservative
        by design — a version bump invalidates stores even when the
        analysis maths is untouched; recomputing is cheap next to silently
        mixing semantics in one report.)  Digests are memoised per call
        only, so a component retuned in place between runs reads stale.
        """
        return self._store_keys([spec])[spec.name]

    def _store_keys(self, specs: Sequence[ScenarioSpec]) -> Dict[str, Dict]:
        """:meth:`store_key` of every spec, by name.  Runner-wide fields are
        built once, the features digest once per typed ``std_window_s`` (4
        and 4.0 encode differently), the content hash once per distinct
        component objects, keyed by ``id`` (``specs`` keeps them alive)."""
        shared = {
            "version": _library_version(),
            "root_entropy": _entropy_json(self._root),
            "root_spawn_key": list(self._root.spawn_key),
            "analysis_seed": self._analysis_seed,
            "re_sensor_counts": (
                list(self._re_sensor_counts)
                if self._re_sensor_counts is not None
                else None
            ),
            # Feature-pipeline identity: the fingerprint of the extractor
            # the analysis features resolve to, plus the zone workload (or
            # its absence).  A retuned extractor or estimator can never
            # silently reuse records computed under the old definition.
            # The one-element list keeps the value stored keys carry.
            "zones": (
                None
                if self._zone_estimator is None
                else digest([self._zone_estimator])
            ),
        }
        content_hashes: Dict[Tuple[int, ...], str] = {}
        feature_digests: Dict[Tuple[type, float], str] = {}
        keys: Dict[str, Dict[str, object]] = {}
        for spec in specs:
            parts = spec.layout, spec.scale, spec.channel_config, spec.config
            ids = tuple(map(id, (*parts, spec.detector)))
            if ids not in content_hashes:
                content_hashes[ids] = spec.content_hash()
            window = spec.config.md.std_window_s
            window_key = (type(window), window)
            if window_key not in feature_digests:
                feature_digests[window_key] = digest(
                    RollingStdExtractor(std_window_s=window)
                )
            keys[spec.name] = {
                **shared,
                "sim_index": self._sim_indices[spec.simulation_key()],
                "detector": spec.detector_name,
                "sensor_counts": self._sensor_counts_for(spec),
                "content_hash": content_hashes[ids],
                "features": feature_digests[window_key],
            }
        return keys

    def _load_stored(
        self, store: SweepStore, spec: ScenarioSpec, key: Dict[str, object]
    ) -> Optional[ScenarioResult]:
        """One scenario's store record as a result, or ``None``."""
        payload = store.get(spec.name, key)
        if payload is None:
            return None
        try:
            # The runner's own spec wins: the stored index may be stale.
            return ScenarioResult.from_dict(payload, spec)
        except (KeyError, TypeError, ValueError):
            # A matching key on a mangled payload (hand-edited record,
            # foreign writer): honour the corrupted-files-read-as-misses
            # contract and recompute the scenario.  Reclassify the lookup
            # the store already counted as a hit, so hits + misses + stale
            # keeps partitioning lookups and "hits" only counts reused
            # records.
            store.stats.reclassify_hit_as_stale()
            return None

    def run(
        self, store: Optional[SweepStore] = None, *, claims: object = None
    ) -> SweepReport:
        """Collect and analyse the grid, returning the report.

        With a :class:`~repro.analysis.sweep_store.SweepStore`, grid points
        whose record matches their :meth:`store_key` are loaded instead of
        recomputed, only the missing simulations are collected (see
        :meth:`collect`), and every freshly analysed scenario is persisted
        atomically — so an interrupted sweep resumes where it stopped and a
        completed sweep re-runs without any day-collection work, returning
        a report bit-identical (``to_dict()``) to the cold run.
        :attr:`last_run_stats` records what actually happened.  Keys are
        derived once per call, each digest once per distinct component.

        Raw recordings are never persisted, so store-loaded results carry
        ``recording=None`` even under ``keep_recordings=True``: after a
        resume, ``ScenarioResult.recording`` is only populated for the
        scenarios that were actually (re-)simulated.  Code needing raw
        traces for every scenario should re-run without a store.

        Cooperative mode
        ----------------
        ``claims`` (used with a ``store``) turns one run into a single
        *pass* of a multi-worker fill.  It answers four calls, each with a
        simulation key (:meth:`ScenarioSpec.simulation_key`);
        :class:`~repro.analysis.sweep_queue.SweepWorker` answers them with
        lease files, so concurrent workers partition the grid:

        * ``claims.claim(key) -> bool`` is asked once per missing
          simulation key, in the deterministic ``_sim_indices`` order, and
          only granted keys are collected.  Because seed derivation stays
          keyed by the *full* grid, any partition of keys across workers
          re-collects every recording bit-identically to a solo run.
        * ``claims.superseded(key)`` reports a granted key with no work
          left: just before collecting, granted scenarios are re-checked
          against the store, and records completed meanwhile by another
          worker supersede the claim — so a crash-then-reclaim can never
          analyse a scenario twice into diverging records.
        * ``claims.may_put(key) -> bool`` is asked right before each
          ``store.put``; ``False`` *discards* the result — neither
          persisted nor reported, counted as unclaimed — which is how a
          worker drops results whose lease was stolen mid-collect.
        * ``claims.put_done(key)`` runs right after each ``store.put`` (a
          crash-after-put fault-injection seam).

        The returned report covers only the cached + granted scenarios —
        check ``last_run_stats.complete`` (``n_unclaimed == 0``) before
        treating it as the full grid.
        """
        results: Dict[str, ScenarioResult] = {}
        store_keys: Dict[str, Dict[str, object]] = {}
        if store is not None:
            store_keys = self._store_keys(self._specs)
            for spec in self._specs:
                result = self._load_stored(store, spec, store_keys[spec.name])
                if result is not None:
                    results[spec.name] = result
        missing = [spec for spec in self._specs if spec.name not in results]
        missing_keys = {spec.simulation_key() for spec in missing}
        if claims is None:
            collect_keys = missing_keys
        else:
            # Ask in deterministic enumeration order so every worker walks
            # the same sequence and lease contention stays predictable.
            granted = {
                key
                for key in self._sim_indices
                if key in missing_keys and claims.claim(key)
            }
            # Completed records supersede claims: re-check granted
            # scenarios before doing any simulation work.
            for spec in missing:
                if spec.simulation_key() not in granted:
                    continue
                result = self._load_stored(store, spec, store_keys[spec.name])
                if result is not None:
                    results[spec.name] = result
            missing = [s for s in self._specs if s.name not in results]
            collect_keys = granted & {s.simulation_key() for s in missing}
            for key in granted - collect_keys:
                claims.superseded(key)
        self._last_collect_task_count = 0
        pairs = self.collect(needed=collect_keys) if collect_keys else []
        n_analyzed = 0
        n_discarded = 0
        # Detector/config variants of one simulation share the recording;
        # share its feature blocks too, through one FeatureStore per
        # recording: the extractor digest keys std windows apart, so each
        # day's std matrix is computed once per std window and the other
        # axes only pay for what they change downstream.
        feature_stores: Dict[int, FeatureStore] = {}
        self._zone_memo = {}
        try:
            for spec, recording in pairs:
                if spec.name in results:
                    continue  # cached config-variant sharing a missing simulation
                shared = feature_stores.get(id(recording))
                if shared is None:
                    shared = feature_stores[id(recording)] = FeatureStore(recording)
                features = CampaignStdFeatures(recording, spec.config, store=shared)
                result = self.analyze(spec, recording, features=features)
                n_analyzed += 1
                if store is not None:
                    sim_key = spec.simulation_key()
                    if claims is not None and not claims.may_put(sim_key):
                        # Lost the claim mid-collect: the thief will produce
                        # this record; persisting ours would race its put.
                        n_discarded += 1
                        continue
                    store.put(spec.name, store_keys[spec.name], result.to_dict())
                    if claims is not None:
                        claims.put_done(sim_key)
                results[spec.name] = result
        finally:
            self._zone_memo = None
        self.last_run_stats = SweepRunStats(
            n_scenarios=len(self._specs),
            n_cached=len(results) - (n_analyzed - n_discarded),
            n_analyzed=n_analyzed,
            n_simulations=len(collect_keys),
            n_day_tasks=self._last_collect_task_count,
            n_unclaimed=len(self._specs) - len(results),
            n_discarded=n_discarded,
        )
        return SweepReport(
            results=[
                results[spec.name]
                for spec in self._specs
                if spec.name in results
            ],
            seed_entropy=_entropy_json(self._root),
        )
