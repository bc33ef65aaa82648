"""repro — a reproduction of FADEWICH (ICDCS 2017).

FADEWICH (Fast Deauthentication over the Wireless Channel) automatically
deauthenticates office users when they walk away from their workstation, by
observing how their body perturbs the RSSI of packets exchanged among cheap
wireless sensors.  This package reimplements the full system and the
substrates its evaluation needs:

* :mod:`repro.core` — the FADEWICH contribution (KMA, MD, RE, controller,
  security / usability analysis),
* :mod:`repro.radio` — the simulated office radio testbed,
* :mod:`repro.mobility` — simulated users and movement schedules,
* :mod:`repro.workstation` — keyboard/mouse input and session state,
* :mod:`repro.ml` — from-scratch SVM / KDE / CV / mutual-information tools,
* :mod:`repro.simulation` — campaign collection harness,
* :mod:`repro.analysis` — per-table / per-figure reproduction code,
* :mod:`repro.streaming` — the incremental detection engine (bounded-state
  online kernel, stream sources, multi-tenant ingestion router),
* :mod:`repro.reliability` — deterministic fault injection and
  checkpoint/restore for the streaming and sweep stacks,
* :mod:`repro.features` — the reusable feature pipeline (extractor
  registry, per-recording cached store),
* :mod:`repro.identity` — the canonical encoder, content digest and
  registry every layer keys by,
* :mod:`repro.sliding` — the sliding-window kernel that every rolling
  reduction's offline and streaming paths share,
* :mod:`repro.zones` — zone-occupancy inference from per-link
  attenuation, offline and streaming.

Quickstart
----------
>>> from repro import quick_campaign, FadewichConfig
>>> from repro.core import evaluate_md, build_sample_dataset
>>> recording = quick_campaign(seed=7)          # a small simulated campaign
>>> config = FadewichConfig()
>>> md = evaluate_md(recording, config, recording.layout.sensor_ids)
>>> md.counts.recall > 0.5
True
"""

from .core.config import FadewichConfig, MDConfig, REConfig
from .core.system import FadewichSystem
from .detectors import (
    EmaMadDetector,
    KdeMdDetector,
    VarianceThresholdDetector,
    detector_names,
    get_detector,
    register_detector,
)
from .features import FeatureStore, RollingStdExtractor
from .radio.office import OfficeLayout, paper_office, wide_office
from .reliability import CheckpointStore, FaultInjector, FaultPlan, FaultSpec
from .zones import (
    AttenuationExtractor,
    ZoneEngine,
    ZoneMap,
    ZoneOccupancyEstimator,
    score_walks,
)
from .analysis.sweep_queue import SweepWorker, run_prioritized
from .simulation.collector import CampaignCollector, CampaignRecording
from .simulation.runner import CampaignRunner, DayTask
from .streaming import IngestRouter, OnlineDetector

# 2.0.0: breaking — the seeding scheme moved to per-purpose SeedSequence
# streams (same seed now yields different, but still deterministic,
# campaigns than 1.x) and replay_day raises ValueError on empty traces.
# 2.1.0: columnar analysis engine — evaluate_md_grid / array replay_day /
# vectorised CV, bit-identical to the retained scalar references
# (evaluate_md_scalar, replay_day_scalar, cross_validated_predictions_scalar).
# 2.2.0: scenario-grid sweep engine — ScenarioGrid / ScenarioSweepRunner /
# SweepReport over CampaignRunner.run_tasks (heterogeneous day tasks),
# wide_office layout, FadewichConfig.derive / CampaignScale.derive axes;
# learning_curve now skips single-class training subsets and reports NaN
# ci95 for sizes with zero valid repeats.
# 2.3.0: root-finding threshold engine + shared-gram learning curve —
# mixture_quantiles (safeguarded Newton, warm starts, active rows) behind
# GaussianKDE.percentile and the lockstep profile grid (bisection retained
# as bisect_quantiles; thresholds re-pinned within the old tol=1e-6);
# slice-stable kernels, kernel="precomputed" SVC fits, incremental SMO
# error cache (original formulation retained behind error_cache=False),
# SVCFoldFitter shared-gram/warm-start learning-curve engine used by
# Figure 8; GaussianKDE.sample now requires an explicit Generator.
# 2.4.0: resumable sweep persistence — SweepStore (atomic per-scenario
# JSON records keyed by name + root-seed fingerprint + configuration
# content hash), ScenarioSweepRunner.run(store=...) with partial
# collection (warm store: zero day tasks, bit-identical report), full
# SweepReport round-trip serialization (save/load), per-cell replicate
# statistics (mean/std/ci95, NaN-safe); ScenarioGrid sensor-count
# normalisation, runner name-uniqueness validation, ragged Figure-7 curve
# rendering, quantize non-finite rejection.
# 2.5.0: incremental streaming detection engine — repro.streaming
# (OnlineDetector: bounded-state batch kernel bit-identical to the
# columnar offline path and the per-sample MovementDetector whatever the
# arrival batching; DayRecordingSource / merge_by_time stream sources;
# IngestRouter: per-tenant detectors on round-robin sharded workers with
# bounded queues and clean drain); replay_day is now a thin client of the
# kernel; SweepStore stale/miss taxonomy fixed (records of the requested
# scenario with a missing fingerprint block, mangled result or old format
# count as stale, foreign/corrupt files as misses — the three counters
# partition every lookup).
# 2.6.0: distributed sweep execution — repro.analysis.sweep_queue
# (LeaseManager: atomic hard-link claims with heartbeat TTL expiry;
# SweepWorker: claim → bit-identical partial recollection → put →
# release; run_prioritized: named grids in priority order over N worker
# processes, per-grid stores/logs, merged SWEEP_report.json);
# ScenarioSweepRunner.run grows a cooperative claim_filter mode;
# SweepStore record filenames are bounded and escape-proof, StoreStats is
# thread-safe (hits+misses+stale == lookups under concurrency);
# IngestRouter lifecycle edges (submit-after-close race, drain/close
# after failure) made deterministic.
# 2.7.0: pluggable detector zoo — repro.detectors (registry of frozen
# config dataclasses, each pairing an offline reference grid with a
# streaming engine proven bitwise-identical under arbitrary batch
# splits): KdeMdDetector (pure port of the KDE profile engines — golden
# numbers unchanged), EmaMadDetector (EMA + median/MAD hysteresis),
# VarianceThresholdDetector (rolling-variance baseline); *detector* is a
# first-class ScenarioGrid axis sharing one recording (and one feature
# matrix) across variants, part of ScenarioSpec.content_hash and the
# sweep-store fingerprint, grouped in SweepReport cell statistics plus a
# detector_comparison table, and hosted per-tenant by OnlineDetector /
# IngestRouter.
# 2.8.0: fault-injection harness + self-healing fleet — repro.reliability
# (FaultPlan/FaultInjector: seeded, picklable fault plans fired at named
# seams threaded through SweepStore I/O, LeaseManager, SweepWorker and
# the streaming sources/router; CheckpointStore + snapshot()/restore()
# across the whole streaming stack, JSON round-trips proven bitwise
# identical at arbitrary cut points for every registered detector);
# SweepStore records carry a SHA-256 payload checksum (format 2) and
# quarantine corrupt files to *.corrupt (new `corrupt` counter —
# hits+misses+stale+corrupt partition lookups); run_prioritized
# supervises its fleet (capped respawns, exponential backoff, fault-free
# replacements); SweepWorker releases leases on SIGTERM and discards
# results whose lease was stolen mid-collect; IngestRouter grows
# fail_fast / restart_shard (per-batch checkpoints) / quarantine
# (dead-letter records) failure policies with per-shard counters.
# 2.9.0: reusable feature store + zone-occupancy inference workload —
# repro.features (frozen-config extractor registry with SHA-256 content
# fingerprints; FeatureStore caches per-day (times, matrix, columns)
# blocks per recording keyed (fingerprint, day index) with
# identity-validated day membership; CampaignStdFeatures re-expressed as
# the rolling_std extractor bit-identically — no goldens re-pinned) and
# repro.zones (ZoneMap from Liang-Barsky link-crossing geometry,
# AttenuationExtractor against the log-distance baseline,
# ZoneOccupancyEstimator — rolling-mean smoothing, per-link median
# calibration, rectified excess, exclusivity-weighted zone scores —
# with a bounded-state ZoneEngine bitwise-identical under arbitrary
# batch splits, JSON-snapshotable, hosted per-tenant by OnlineDetector /
# IngestRouter; score_walks against ground-truth trajectories, seed-42
# goldens pinned); zone accuracy threaded through ScenarioSweepRunner
# (zone_estimator=, zone_accuracy payloads, zone_summary, feature/zone
# store-key fingerprints); EmaMadDetector long-window median/MAD
# dispatches to an indexable sorted window past the measured crossover.
__version__ = "2.9.0"

__all__ = [
    "AttenuationExtractor",
    "CampaignCollector",
    "CampaignRecording",
    "CampaignRunner",
    "CheckpointStore",
    "DayTask",
    "EmaMadDetector",
    "FadewichConfig",
    "FadewichSystem",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FeatureStore",
    "IngestRouter",
    "KdeMdDetector",
    "MDConfig",
    "OfficeLayout",
    "OnlineDetector",
    "REConfig",
    "RollingStdExtractor",
    "SweepWorker",
    "VarianceThresholdDetector",
    "ZoneEngine",
    "ZoneMap",
    "ZoneOccupancyEstimator",
    "__version__",
    "detector_names",
    "get_detector",
    "paper_office",
    "quick_campaign",
    "register_detector",
    "run_prioritized",
    "score_walks",
    "wide_office",
]


def quick_campaign(
    seed: int = 0,
    n_days: int = 2,
    day_duration_s: float = 1200.0,
) -> CampaignRecording:
    """Collect a small simulated campaign with sensible defaults.

    A convenience wrapper for examples, tests and interactive exploration:
    builds the paper's office, draws an overlap-free movement schedule and
    records the RSSI traces, ground-truth events and input activity.

    Parameters
    ----------
    seed:
        Seed of all stochastic components.
    n_days:
        Number of simulated working days.
    day_duration_s:
        Length of each day in seconds (compact days keep the quickstart
        fast; use ``8 * 3600`` for paper-scale days).
    """
    from .mobility.behavior import BehaviorProfile

    layout = paper_office()
    collector = CampaignCollector(layout, seed=seed)
    # Compact days need a proportionally higher departure rate to produce a
    # useful number of labelled events.
    profile = BehaviorProfile(
        departures_per_hour=6.0,
        mean_absence_s=120.0,
        min_absence_s=45.0,
        internal_moves_per_hour=2.0,
    )
    profiles = {w.workstation_id: profile for w in layout.workstations}
    return collector.collect_generated(
        n_days=n_days, day_duration_s=day_duration_s, profiles=profiles
    )
