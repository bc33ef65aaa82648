"""The two sweep workloads: a cold scenario sweep and a warm store resume.

Both drive ``ScenarioSweepRunner(mode="serial", zone_estimator=...)`` over
``paper_office`` x one campaign scale x detectors ``kde_md``, ``ema_mad``
and ``variance``, with RE cross-validated at 9 sensors.  One layout only:
the runner applies one zone map to every layout of a grid.

* ``sweep_cold`` times ``run(store=...)`` into an empty store: collect ->
  features -> MD grid -> RE -> zones -> store write.  Its three detectors
  share one recording and one feature matrix.
* ``sweep_resume`` fills a store with tens of points in set-up (short
  days, replicate axis), then times warm ``run(store=...)`` + ``save``:
  store-key hashing, record reads and report (de)serialisation.

The traced run repeats the runner's work call by call through the same
public API (:func:`staged_run`), wrapping each call in a span, and checks
that the staged report is ``to_dict()``-equal to ``run()``'s.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro import ZoneMap, ZoneOccupancyEstimator, paper_office
from repro.analysis import (
    AnalysisContext,
    CampaignScale,
    MDTableRow,
    ScenarioGrid,
    ScenarioResult,
    ScenarioSweepRunner,
    SweepReport,
    SweepStore,
)
from repro.core.evaluation import CampaignStdFeatures, streams_for_sensors
from repro.ml import BinarySVC
from repro.simulation.collector import CampaignCollector
from repro.zones import ZoneAccuracy, score_walks

from .layers import Measured
from .spans import Tracer

DETECTORS = ("kde_md", "ema_mad", "variance")
RE_SENSORS = (9,)
ANALYSIS_SEED = 0


@dataclass(frozen=True)
class SweepSizes:
    """Input sizes of the sweep workloads (``FULL`` is the benchmark)."""

    cold_scale: CampaignScale
    resume_scale: CampaignScale
    resume_replicates: int
    setup_reps: int
    min_cold_runs: int
    min_resume_passes: int
    trace_passes: int


FULL = SweepSizes(
    cold_scale=CampaignScale.compact(),
    resume_scale=CampaignScale.compact().derive(
        "short", n_days=1, day_duration_s=600.0
    ),
    resume_replicates=10,
    setup_reps=3,
    min_cold_runs=3,
    min_resume_passes=20,
    trace_passes=20,
)

TINY = SweepSizes(
    cold_scale=CampaignScale.compact().derive(
        "tiny", n_days=1, day_duration_s=480.0
    ),
    resume_scale=CampaignScale.compact().derive(
        "tiny", n_days=1, day_duration_s=480.0
    ),
    resume_replicates=1,
    setup_reps=1,
    min_cold_runs=1,
    min_resume_passes=2,
    trace_passes=2,
)


@dataclass
class Timed:
    """The measured part of one run: per-operation times and outcomes."""

    op_ms: List[float]
    attempted: int
    failed: int


class Sweep:
    """A grid, its runner and zone estimator, as the workloads build them."""

    def __init__(self, scale: CampaignScale, replicates: int, seed: int) -> None:
        layout = paper_office()
        self.grid = ScenarioGrid(
            [layout], [scale], detectors=list(DETECTORS), n_replicates=replicates
        )
        self.estimator = ZoneOccupancyEstimator(zone_map=ZoneMap.from_layout(layout))
        self.runner = ScenarioSweepRunner(
            self.grid,
            seed=seed,
            mode="serial",
            analysis_seed=ANALYSIS_SEED,
            re_sensor_counts=RE_SENSORS,
            zone_estimator=self.estimator,
        )

    @property
    def n_points(self) -> int:
        return len(self.runner.specs)


def canonical(report: SweepReport) -> str:
    """A report's ``to_dict()`` as canonical JSON (NaN compares equal)."""
    return json.dumps(report.to_dict(), sort_keys=True)


def _enough(start: float, durations: List[float], seconds: float, minimum: int) -> bool:
    """Stop once ``minimum`` ops ran and another would overrun ``seconds``."""
    if len(durations) < minimum:
        return False
    elapsed = time.perf_counter() - start
    return elapsed + sum(durations) / len(durations) > seconds


@contextmanager
def counting_svm_fits(counters: Dict[str, float]) -> Iterator[None]:
    """Count ``BinarySVC.fit`` calls while the traced phases run."""
    original = BinarySVC.fit

    def fit(self, *args, **kwargs):
        counters["ml.svm_fits"] += 1
        return original(self, *args, **kwargs)

    BinarySVC.fit = fit
    try:
        yield
    finally:
        BinarySVC.fit = original


def _entropy_json(seed_sequence):
    entropy = seed_sequence.entropy
    return list(entropy) if isinstance(entropy, (list, tuple)) else entropy


def _staged_analyze(sweep, spec, recording, features, tracer, counters):
    """``ScenarioSweepRunner.analyze`` call by call, each call in a span."""
    context = AnalysisContext(
        recording,
        spec.config,
        seed=ANALYSIS_SEED,
        detector=spec.detector,
        features=features,
    )
    counts = sweep.grid.sensor_counts_for(spec.layout)
    with tracer.span("core.md_grid"):
        evaluations = context.md_evaluations(counts)
    counters["core.md_chains"] += len(recording.days) * len(counts)
    md_rows = [MDTableRow(n_sensors=n, counts=evaluations[n].counts) for n in counts]
    re_accuracies = {}
    for n in (n for n in RE_SENSORS if n in set(counts)):
        with tracer.span("core.re_dataset"):
            _, dataset = context.sample_dataset(n)
        counters["core.re_windows"] += len(dataset) * len(
            streams_for_sensors(context.sensor_ids(n))
        )
        with tracer.span("ml.re_cv"):
            context.re_predictions(n)
        re_accuracies[n] = context.re_accuracy(n)

    estimator = sweep.estimator
    counters["zones.scorings"] += 1
    with tracer.span("zones.score"):
        collector = CampaignCollector(
            spec.layout,
            channel_config=spec.channel_config,
            seed=sweep.runner.scenario_seed(spec),
        )
        schedule = collector.make_schedule(
            spec.scale.n_days,
            spec.scale.day_duration_s,
            spec.scale.profiles_for(spec.layout),
        )
        base = collector.next_generated_base()
    total = ZoneAccuracy()
    for day, day_schedule in zip(recording.days, schedule.days):
        with tracer.span("zones.day_grid"):
            times, zone_grid = estimator.day_grid(day, spec.layout, store=features.store)
        with tracer.span("zones.score"):
            walks = collector.day_walks(day_schedule, seed_base=base)
            trajectories = [
                traj for walk_list in walks.values() for (_, traj, _) in walk_list
            ]
            total = total + score_walks(
                estimator.zone_map, times, zone_grid.occupied, trajectories
            )
    return ScenarioResult(
        spec=spec,
        n_events=recording.total_labelled_events(),
        n_departures=recording.total_departures(),
        md_rows=md_rows,
        re_accuracies=re_accuracies,
        zone_accuracy=total.to_dict(),
        recording=recording,
    )


def staged_run(
    sweep: Sweep,
    store: SweepStore,
    tracer: Tracer,
    counters: Dict[str, float],
    save_path: Optional[Path] = None,
) -> SweepReport:
    """``ScenarioSweepRunner.run(store=...)`` (+ ``save``) call by call."""
    runner = sweep.runner
    specs = runner.specs
    results: Dict[str, ScenarioResult] = {}
    keys = {}
    hits = []
    for spec in specs:
        with tracer.span("analysis.store_key"):
            key = keys[spec.name] = runner.store_key(spec)
        with tracer.span("analysis.store_get"):
            payload = store.get(spec.name, key)
        counters["analysis.store_lookups"] += 1
        if payload is not None:
            with tracer.span("analysis.from_dict"):
                result = ScenarioResult.from_dict(payload)
            results[spec.name] = replace(result, spec=spec)
            hits.append(spec.name)
    missing = {s.simulation_key() for s in specs if s.name not in results}
    pairs = []
    if missing:
        with tracer.span("simulation.collect"):
            pairs = runner.collect(needed=missing)
    features_cache = {}
    for spec, recording in pairs:
        if spec.name in results:
            continue
        features = features_cache.get(id(recording))
        if features is None:
            counters["simulation.stream_samples"] += sum(
                day.trace.n_samples * len(day.trace.stream_ids)
                for day in recording.days
            )
            counters["zones.recordings"] += 1
            with tracer.span("features.rolling_std"):
                features = CampaignStdFeatures(recording, spec.config)
                for day in recording.days:
                    features.day_matrix(day)
            features_cache[id(recording)] = features
        result = _staged_analyze(sweep, spec, recording, features, tracer, counters)
        with tracer.span("analysis.store_put"):
            path = store.put(spec.name, keys[spec.name], result.to_dict())
        counters["analysis.bytes_written"] += path.stat().st_size
        results[spec.name] = result
    report = SweepReport(
        results=[results[s.name] for s in specs if s.name in results],
        seed_entropy=_entropy_json(runner.seed_sequence),
    )
    if save_path is not None:
        with tracer.span("analysis.save"):
            with tracer.span("analysis.to_json"):
                text = report.to_json()
            save_path.write_text(text, encoding="utf-8")
    counters["analysis.store_hits"] += len(hits)
    counters["analysis.bytes_read"] += sum(
        store.record_path(name).stat().st_size for name in hits
    )
    for features in features_cache.values():
        counters["features.hits"] += features.store.hits
        counters["features.lookups"] += features.store.hits + features.store.misses
    return report


class SweepCold:
    """``sweep_cold``: the user's cold path into an empty store."""

    name = "sweep_cold"

    def __init__(self, seed: int, work: Path, sizes: SweepSizes = FULL) -> None:
        self.seed = seed
        self.work = work
        self.sizes = sizes
        self.setup_reps = sizes.setup_reps
        self.store: Optional[SweepStore] = None
        self.cold_report: Optional[SweepReport] = None

    def setup(self, tracer: Tracer, counters: Dict[str, float]) -> None:
        with tracer.span("sweep.build"):
            self.sweep = Sweep(self.sizes.cold_scale, 1, self.seed)

    def _cold_run(self, label: str) -> float:
        """One timed cold ``run``; keeps only the newest store for checks.

        The previous run's store and report are freed first, so every run
        starts from the same heap.
        """
        if self.store is not None:
            shutil.rmtree(self.store.path)
        self.store = self.cold_report = None
        gc.collect()
        store = SweepStore(self.work / label)
        t0 = time.perf_counter()
        report = self.sweep.runner.run(store=store)
        elapsed = time.perf_counter() - t0
        self.store, self.cold_report = store, report
        self.cold_stats = store.stats.as_dict()
        return elapsed

    def measure(self, seconds: float) -> Timed:
        durations: List[float] = []
        attempted = failed = 0
        start = time.perf_counter()
        while not _enough(start, durations, seconds, self.sizes.min_cold_runs):
            durations.append(self._cold_run(f"cold-{len(durations)}"))
            attempted += self.sweep.n_points
            failed += self.sweep.n_points - self.cold_stats["writes"]
        return Timed([d * 1e3 for d in durations], attempted, failed)

    def trace(self, tracer: Tracer, counters: Dict[str, float]) -> tuple:
        """Untraced ``run`` twice (warm-up, timing), then the staged pass."""
        reference = self.sweep.runner.run(store=SweepStore(self.work / "reference"))
        untraced = self._cold_run("untraced")
        with counting_svm_fits(counters), tracer.span("pass"):
            staged = staged_run(
                self.sweep, SweepStore(self.work / "staged"), tracer, counters
            )
        failures = []
        if canonical(staged) != canonical(reference):
            failures.append("staged cold pass is not to_dict()-equal to run()")
        overhead = tracer.phase_seconds("pass") - untraced
        return overhead, self.sweep.n_points, failures

    def check(self) -> List[str]:
        """The cold run stored every point; a warm re-run hits them all and
        reproduces the cold report."""
        failures = []
        store, report, n = self.store, self.cold_report, self.sweep.n_points
        cold = self.cold_stats
        if cold["writes"] != n:
            failures.append(f"cold run stored {cold['writes']} of {n} points")
        store.reset_stats()
        warm = self.sweep.runner.run(store=store)
        for label, stats in (("cold run", cold), ("warm re-run", store.stats.as_dict())):
            parts = stats["hits"] + stats["misses"] + stats["stale"] + stats["corrupt"]
            if parts != stats["lookups"]:
                failures.append(f"{label}: store counters do not partition lookups")
        if store.stats.hits != n or store.stats.lookups != n:
            failures.append(
                f"warm re-run: {store.stats.hits} of {store.stats.lookups} "
                f"lookups hit, {n} points expected"
            )
        if canonical(warm) != canonical(report):
            failures.append("warm re-run report is not to_dict()-identical")
        return failures

    def report(self, timed: Timed) -> Dict[str, Measured]:
        return {
            "cold_sweep_s": Measured(
                statistics.median(timed.op_ms) / 1e3, "s", len(timed.op_ms)
            )
        }

    def close(self) -> None:
        pass


class SweepResume:
    """``sweep_resume``: warm re-run of a filled store, then ``save``."""

    name = "sweep_resume"

    def __init__(self, seed: int, work: Path, sizes: SweepSizes = FULL) -> None:
        self.seed = seed
        self.work = work
        self.sizes = sizes
        self.setup_reps = sizes.setup_reps
        self.store: Optional[SweepStore] = None
        self._fills = 0
        self.save_path = work / "resumed_report.json"

    def setup(self, tracer: Tracer, counters: Dict[str, float]) -> None:
        if self.store is not None:
            shutil.rmtree(self.store.path)
        self._fills += 1
        with tracer.span("sweep.build"):
            self.sweep = Sweep(
                self.sizes.resume_scale, self.sizes.resume_replicates, self.seed
            )
        self.store = SweepStore(self.work / f"resume-{self._fills}")
        if tracer.enabled:
            with counting_svm_fits(counters):
                self.fill = staged_run(self.sweep, self.store, tracer, counters)
        else:
            self.fill = self.sweep.runner.run(store=self.store)

    def _passes(self, seconds: float, minimum: int) -> List[float]:
        """Untraced warm passes; returns per-pass seconds."""
        self.store.reset_stats()
        durations: List[float] = []
        start = time.perf_counter()
        while not _enough(start, durations, seconds, minimum):
            t0 = time.perf_counter()
            report = self.sweep.runner.run(store=self.store)
            report.save(self.save_path)
            durations.append(time.perf_counter() - t0)
        self.last = report
        self.pass_stats = self.store.stats.as_dict()
        self.n_passes = len(durations)
        return durations

    def measure(self, seconds: float) -> Timed:
        durations = self._passes(seconds, self.sizes.min_resume_passes)
        n = self.sweep.n_points
        stats = self.pass_stats
        return Timed(
            [d * 1e3 / n for d in durations],
            stats["lookups"],
            stats["lookups"] - stats["hits"],
        )

    def trace(self, tracer: Tracer, counters: Dict[str, float]) -> tuple:
        """run() fill for reference, untraced passes, then staged passes."""
        reference = self.sweep.runner.run(store=SweepStore(self.work / "reference"))
        failures = []
        if canonical(self.fill) != canonical(reference):
            failures.append("staged fill is not to_dict()-equal to run()")
        passes = self.sizes.trace_passes
        untraced = sum(self._passes(0.0, passes))
        expected = canonical(self.last)
        for _ in range(passes):
            with tracer.span("pass"):
                staged = staged_run(
                    self.sweep, self.store, tracer, counters, save_path=self.save_path
                )
            if canonical(staged) != expected:
                failures.append("staged resume pass is not to_dict()-equal to run()")
        overhead = tracer.phase_seconds("pass") - untraced
        return overhead, passes * self.sweep.n_points, failures

    def check(self) -> List[str]:
        failures = []
        stats = self.pass_stats
        expected = self.n_passes * self.sweep.n_points
        if stats["lookups"] != expected or stats["hits"] != expected:
            failures.append(
                f"resume: {stats['hits']} of {stats['lookups']} lookups hit, "
                f"{expected} expected"
            )
        if canonical(self.last) != canonical(self.fill):
            failures.append("resumed report is not to_dict()-equal to the fill's")
        if self.save_path.read_text(encoding="utf-8") != self.fill.to_json():
            failures.append("saved report differs from the fill's JSON")
        return failures

    def report(self, timed: Timed) -> Dict[str, Measured]:
        return {
            "resume_ms_per_point": Measured(
                statistics.median(timed.op_ms), "ms", len(timed.op_ms)
            )
        }

    def close(self) -> None:
        pass
