"""The ``router_live`` workload: 8 offices streamed through ``IngestRouter``.

Each tenant has its own simulated day (one ``ScenarioSweepRunner.collect``
over a replicate axis, so every day derives from the workload seed) and a
seeded 4-9-sensor subset (12-72 streams).  Each runs the paper's KDE
detector plus its own ``ZoneEngine``.

The load is a closed loop with one caller: every tick submits one 1-s
(4-sample) batch per tenant, then ``drain()``s.  A tick's latency runs
from the first ``submit`` to the return of ``drain``.  The 4-6 s
deauthentication target allows about a 1-s cadence, and at that cadence
per-batch, per-stream overhead dominates.  Set-up streams every tenant
past the 60-s profile initialisation and the zone calibration in one
batch, so only steady state is timed.

The traced run adds an inline single-thread replay of the traced ticks
(source, detector without zones, zone engine), which is the baseline for
``streaming.parallel_efficiency``.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import (
    IngestRouter,
    OnlineDetector,
    ZoneMap,
    ZoneOccupancyEstimator,
    paper_office,
)
from repro.analysis import CampaignScale, ScenarioGrid, ScenarioSweepRunner
from repro.core.evaluation import streams_for_sensors
from repro.simulation.collector import DayRecording
from repro.streaming import DayRecordingSource, SampleBatch

from .layers import Measured
from .spans import NullTracer, Tracer
from .sweeps import Timed

RATE_HZ = 4.0
TICK_SAMPLES = 4  # one second per batch at 4 Hz
WARMUP_S = 90.0  # past the 60-s profile init and the 30-s zone calibration
SUBSET_DOMAIN = 0x54454E  # seeds the tenants' sensor subsets
# Subset sizes (4-9 sensors, 12-72 streams) are a fixed multiset dealt to
# tenants by the seed, so every seed streams the same 304 streams.
SUBSET_SIZES = (4, 5, 6, 7, 8, 9, 6, 7)


@dataclass(frozen=True)
class RouterSizes:
    """Input sizes of the router workload (``FULL`` is the benchmark)."""

    n_tenants: int
    day_s: float
    setup_reps: int
    min_ticks: int
    trace_ticks: int


FULL = RouterSizes(n_tenants=8, day_s=3600.0, setup_reps=3, min_ticks=200, trace_ticks=250)
TINY = RouterSizes(n_tenants=2, day_s=480.0, setup_reps=1, min_ticks=5, trace_ticks=5)


@dataclass(frozen=True)
class Tenant:
    name: str
    stream_ids: List[str]
    day: DayRecording


def make_tenants(seed: int, sizes: RouterSizes, tracer: Tracer, counters) -> List[Tenant]:
    """Seeded tenant days and sensor subsets."""
    layout = paper_office()
    scale = CampaignScale.compact().derive(
        "tenant-day", n_days=1, day_duration_s=sizes.day_s
    )
    grid = ScenarioGrid([layout], [scale], n_replicates=sizes.n_tenants)
    runner = ScenarioSweepRunner(grid, seed=seed, mode="serial")
    with tracer.span("simulation.collect"):
        pairs = runner.collect()
    rng = np.random.default_rng([seed, SUBSET_DOMAIN])
    sensors = layout.sensor_ids
    sizes_dealt = rng.permutation(np.resize(SUBSET_SIZES, len(pairs)))
    tenants = []
    for i, ((_, recording), k) in enumerate(zip(pairs, sizes_dealt.tolist())):
        day = recording.days[0]
        counters["simulation.stream_samples"] += day.trace.n_samples * len(
            day.trace.stream_ids
        )
        chosen = set(rng.choice(sensors, size=k, replace=False).tolist())
        subset = [s for s in sensors if s in chosen]
        tenants.append(Tenant(f"office-{i}", streams_for_sensors(subset), day))
    return tenants


def _bitwise_equal(a: Optional[np.ndarray], b: Optional[np.ndarray]) -> bool:
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class RouterLive:
    """``router_live``: closed-loop 1-s ticks over 8 tenants."""

    name = "router_live"

    def __init__(self, seed: int, work: Path, sizes: RouterSizes = FULL) -> None:
        self.seed = seed
        self.sizes = sizes
        self.setup_reps = sizes.setup_reps
        self.n_workers = len(os.sched_getaffinity(0))
        self.layout = paper_office()
        self.estimator = ZoneOccupancyEstimator(
            zone_map=ZoneMap.from_layout(self.layout)
        )
        self.router: Optional[IngestRouter] = None

    def _zones(self, tenant: Tenant):
        return self.estimator.streaming_engine(tenant.stream_ids, self.layout)

    def _feed(self, tenant: Tenant):
        return iter(
            DayRecordingSource(
                tenant.name,
                tenant.day,
                stream_ids=tenant.stream_ids,
                batch_samples=TICK_SAMPLES,
            )
        )

    def setup(self, tracer: Tracer, counters: Dict[str, float]) -> None:
        # Free the previous set-up's days and router first, so peak RSS
        # covers one set-up however many times it is repeated.
        self.close()
        gc.collect()
        self.tenants = make_tenants(self.seed, self.sizes, tracer, counters)
        with tracer.span("router.start"):
            self.router = IngestRouter(n_workers=self.n_workers)
            for tenant in self.tenants:
                self.router.register(
                    tenant.name, tenant.stream_ids, zones=self._zones(tenant)
                )
        self.feeds = [self._feed(tenant) for tenant in self.tenants]
        n_warm = int(WARMUP_S * RATE_HZ) // TICK_SAMPLES
        with tracer.span("streaming.warmup"):
            for tenant, feed in zip(self.tenants, self.feeds):
                parts = [next(feed) for _ in range(n_warm)]
                self.router.submit(
                    SampleBatch(
                        tenant.name,
                        np.concatenate([p.times for p in parts]),
                        np.concatenate([p.samples for p in parts]),
                    )
                )
            self.router.drain()
        self.submitted = {t.name: n_warm * TICK_SAMPLES for t in self.tenants}

    def _ticks(self, seconds: float, minimum: int, tracer: Tracer, counters=None):
        """Run ticks until ``seconds`` pass (at least ``minimum``).

        Returns ``(latencies_s, samples, wall_s)``; stops early when the
        tenants' days run out.
        """
        router = self.router
        latencies: List[float] = []
        samples = 0
        start = time.perf_counter()
        while len(latencies) < minimum or time.perf_counter() - start < seconds:
            with tracer.span("router.pull"):
                batches = [next(feed, None) for feed in self.feeds]
            if any(batch is None for batch in batches):
                break
            with tracer.span("router.tick"):
                t0 = time.perf_counter()
                for batch in batches:
                    with tracer.span("streaming.submit"):
                        router.submit(batch)
                with tracer.span("streaming.drain"):
                    router.drain()
                latencies.append(time.perf_counter() - t0)
            for tenant, batch in zip(self.tenants, batches):
                self.submitted[tenant.name] += batch.n_samples
                samples += batch.n_samples
                if counters is not None:
                    counters["streaming.stream_samples"] += batch.n_samples * len(
                        tenant.stream_ids
                    )
        return latencies, samples, time.perf_counter() - start

    def measure(self, seconds: float) -> Timed:
        before = self.router.stats.batches_submitted
        latencies, samples, wall = self._ticks(
            seconds, self.sizes.min_ticks, NullTracer()
        )
        stats = self.router.stats
        self.throughput = (samples, wall)
        return Timed(
            [t * 1e3 for t in latencies],
            stats.batches_submitted - before,
            stats.batches_submitted - stats.batches_processed,
        )

    def trace(self, tracer: Tracer, counters: Dict[str, float]) -> tuple:
        """Untraced ticks, the same number traced, then the inline replay."""
        n = self.sizes.trace_ticks
        untraced = self._ticks(0.0, n, NullTracer())[2]
        traced_from = dict(self.submitted)
        with tracer.span("pass"):
            self._ticks(0.0, n, tracer, counters)
        traced = tracer.phase_seconds("pass")
        counters["streaming.max_queue_depth"] = self.router.stats.max_queue_depth
        counters["streaming.router_capacity_s"] = traced * self.n_workers
        self._inline(tracer, traced_from, n)
        seconds = tracer.layer_seconds()
        counters["streaming.inline_busy_s"] = sum(
            seconds.get(name, 0.0)
            for name in ("streaming.source", "streaming.detect", "zones.engine")
        )
        return traced - untraced, n * len(self.tenants), []

    def _inline(self, tracer: Tracer, start: Dict[str, int], n_ticks: int) -> None:
        """Single-thread replay of the traced ticks: source, detector, zones."""
        lanes = []
        for tenant in self.tenants:
            detector = OnlineDetector(tenant.stream_ids)
            zones = self._zones(tenant)
            feed = self._feed(tenant)
            warm = [next(feed) for _ in range(start[tenant.name] // TICK_SAMPLES)]
            times = np.concatenate([b.times for b in warm])
            samples = np.concatenate([b.samples for b in warm])
            detector.process_block(times, samples)
            zones.extend(samples)
            lanes.append((feed, detector, zones))
        with tracer.span("inline"):
            for _ in range(n_ticks):
                for feed, detector, zones in lanes:
                    with tracer.span("streaming.source"):
                        batch = next(feed)
                    with tracer.span("streaming.detect"):
                        detector.process_block(batch.times, batch.samples)
                    with tracer.span("zones.engine"):
                        zones.extend(batch.samples)

    def check(self) -> List[str]:
        """Router output against a single-batch replay of each tenant's day."""
        failures = []
        stats = self.router.stats
        if stats.batches_processed != stats.batches_submitted:
            failures.append(
                f"router processed {stats.batches_processed} of "
                f"{stats.batches_submitted} batches"
            )
        for tenant in self.tenants:
            got = self.router.tenant_state(tenant.name).concatenated()
            n = got.times.shape[0]
            if n != self.submitted[tenant.name]:
                failures.append(
                    f"{tenant.name}: {n} of {self.submitted[tenant.name]} "
                    "samples decided"
                )
                continue
            trace = tenant.day.trace.restricted_view(tenant.stream_ids)
            matrix = np.column_stack([trace.streams[s] for s in tenant.stream_ids])
            reference = OnlineDetector(
                tenant.stream_ids, zones=self._zones(tenant)
            ).process_block(trace.times[:n], matrix[:n])
            for field in (
                "times",
                "decisions",
                "durations",
                "zone_scores",
                "zone_occupancy",
            ):
                if not _bitwise_equal(getattr(got, field), getattr(reference, field)):
                    failures.append(f"{tenant.name}: {field} differ from the replay")
        return failures

    def report(self, timed: Timed) -> Dict[str, Measured]:
        ticks = np.asarray(timed.op_ms)
        samples, wall = self.throughput
        return {
            "samples_per_s": Measured(samples / wall, "tenant-samples/s", samples),
            "tick_p50_ms": Measured(float(np.percentile(ticks, 50)), "ms", ticks.size),
            "tick_p95_ms": Measured(float(np.percentile(ticks, 95)), "ms", ticks.size),
        }

    def close(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None
        self.tenants = self.feeds = None
