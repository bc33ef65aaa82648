"""Benchmark: streaming detection kernel and multi-tenant router throughput.

Two gates over one simulated working day:

* **kernel** — the batched :class:`~repro.streaming.detector.OnlineDetector`
  (fed fixed-size :class:`~repro.streaming.source.DayRecordingSource`
  batches) against the per-sample
  :class:`~tests.oracles.movement.MovementDetector` loop it replaces,
  bit-identity asserted on every decision and window duration, >= 3x
  required;
* **router** — an :class:`~repro.streaming.router.IngestRouter` sustaining
  eight concurrent offices (distinct sensor subsets, batches interleaved
  in arrival order by :func:`~repro.streaming.source.merge_by_time`) over
  four shards, processed on the submitting thread, against per-sample
  scalar detectors over the same eight tenants.  Every tenant's
  concatenated decision stream must be bit-identical to a standalone
  single-tenant replay — the no-reordering acceptance criterion — with
  >= 2x required over the scalar loop.

Day length defaults to a compact 40-minute day (``--streaming-day-s`` to
override; the CI smoke job passes a smaller day, ``--paper-scale`` the
full 8-hour day).  Timings use the shared best-of-``--bench-repeats``
estimator; the scalar references run once (they are the slow side by an
order of magnitude — a repeat would only add minutes, not precision).
"""

import numpy as np

from repro.core.config import MDConfig
from repro.mobility.behavior import BehaviorProfile
from repro.mobility.scheduler import ScheduleGenerator
from repro.radio.office import paper_office
from repro.simulation.collector import CampaignCollector
from repro.streaming import (
    DayRecordingSource,
    IngestRouter,
    OnlineDetector,
    merge_by_time,
)

from tests.oracles.movement import MovementDetector

#: Required speedups.
MIN_KERNEL_SPEEDUP = 3.0
MIN_ROUTER_SPEEDUP = 2.0

N_TENANTS = 8
BATCH_SAMPLES = 256
RATE = 4.0

MD_CFG = MDConfig(profile_init_s=30.0)


def _day_duration(request) -> float:
    if request.config.getoption("--paper-scale"):
        return 8 * 3600.0
    return float(request.config.getoption("--streaming-day-s"))


def _bench_day(request):
    layout = paper_office()
    profile = BehaviorProfile(
        departures_per_hour=6.5,
        mean_absence_s=150.0,
        min_absence_s=45.0,
        internal_moves_per_hour=2.0,
    )
    generator = ScheduleGenerator(
        layout,
        {w.workstation_id: profile for w in layout.workstations},
        rng=np.random.default_rng(7),
    )
    day = generator.generate_day(0, _day_duration(request))
    collector = CampaignCollector(
        layout, seed=request.config.getoption("--campaign-seed")
    )
    return collector.collect_day(day)


def _scalar_replay(trace, ids):
    """The pre-streaming way: one MovementDetector, one sample at a time."""
    detector = MovementDetector(ids, MD_CFG, sample_rate_hz=RATE)
    rows = np.column_stack([trace.streams[sid] for sid in ids]).tolist()
    times = trace.times.tolist()
    decisions = np.empty(len(times), dtype=np.int8)
    durations = np.empty(len(times))
    for i, (t, row) in enumerate(zip(times, rows)):
        d = detector.process(t, dict(zip(ids, row)))
        decisions[i] = -1 if d is None else int(d)
        durations[i] = detector.current_window_duration(t)
    return decisions, durations


def _streaming_replay(day, ids):
    detector = OnlineDetector(ids, MD_CFG, sample_rate_hz=RATE)
    blocks = [
        detector.process_block(batch.times, batch.samples)
        for batch in DayRecordingSource(
            "bench", day, stream_ids=ids, batch_samples=BATCH_SAMPLES
        )
    ]
    return (
        np.concatenate([b.decisions for b in blocks]),
        np.concatenate([b.durations for b in blocks]),
    )


def test_streaming_kernel_throughput(request, best_of, speedup_gate):
    day = _bench_day(request)
    ids = day.trace.stream_ids
    n = day.trace.n_samples

    t_stream, (dec_stream, dur_stream) = best_of(
        lambda: _streaming_replay(day, ids)
    )
    t_scalar, (dec_scalar, dur_scalar) = best_of(
        lambda: _scalar_replay(day.trace, ids), repeats=1
    )

    # Bit-identity first: every decision and window duration equal.
    np.testing.assert_array_equal(dec_stream, dec_scalar)
    np.testing.assert_array_equal(dur_stream, dur_scalar)

    rate_scalar = n / t_scalar
    rate_stream = n / t_stream
    speedup_gate(
        "streaming kernel throughput",
        t_scalar,
        t_stream,
        MIN_KERNEL_SPEEDUP,
        reference_name=f"per-sample ({rate_scalar:12,.0f} samples/s)",
        fast_name=f"streaming  ({rate_stream:12,.0f} samples/s)",
        detail=(
            f"{n} steps x {len(ids)} streams, "
            f"{BATCH_SAMPLES}-sample batches"
        ),
    )


def _tenant_feeds(day):
    """Eight offices replaying the day over distinct sensor subsets."""
    rng = np.random.default_rng(11)
    all_ids = day.trace.stream_ids
    return [
        (
            f"office-{i}",
            sorted(rng.choice(all_ids, size=4 + (i % 3), replace=False)),
        )
        for i in range(N_TENANTS)
    ]


def _router_replay(day, feeds, n_shards=4):
    router = IngestRouter(
        n_workers=n_shards,
        queue_capacity=32,
        config=MD_CFG,
        sample_rate_hz=RATE,
    )
    try:
        for tenant, ids in feeds:
            router.register(tenant, ids)
        sources = [
            DayRecordingSource(
                tenant, day, stream_ids=ids, batch_samples=BATCH_SAMPLES
            )
            for tenant, ids in feeds
        ]
        for batch in merge_by_time(sources):
            router.submit(batch)
        router.drain()
        return {
            tenant: router.tenant_state(tenant).concatenated()
            for tenant, _ in feeds
        }
    finally:
        router.close()


def test_router_sustains_eight_offices(request, best_of, speedup_gate):
    day = _bench_day(request)
    feeds = _tenant_feeds(day)
    n = day.trace.n_samples

    t_router, streams = best_of(lambda: _router_replay(day, feeds))
    t_scalar, scalar = best_of(
        lambda: {
            tenant: _scalar_replay(day.trace, ids)
            for tenant, ids in feeds
        },
        repeats=1,
    )

    # The no-reordering criterion: each of the eight tenants' concatenated
    # decision streams is bit-identical to a standalone replay of the same
    # day — sharding, interleaved submission and bounded pending lists
    # left no trace in the output.
    for tenant, ids in feeds:
        got = streams[tenant]
        dec_scalar, dur_scalar = scalar[tenant]
        np.testing.assert_array_equal(got.decisions, dec_scalar)
        np.testing.assert_array_equal(got.durations, dur_scalar)
        assert got.times.shape[0] == n

    total = n * N_TENANTS
    speedup_gate(
        "streaming router throughput",
        t_scalar,
        t_router,
        MIN_ROUTER_SPEEDUP,
        reference_name=(
            f"per-sample x {N_TENANTS} ({total / t_scalar:12,.0f} samples/s)"
        ),
        fast_name=(
            f"router (4 shards)   ({total / t_router:12,.0f} samples/s)"
        ),
        detail=(
            f"{N_TENANTS} offices x {n} steps, "
            f"{BATCH_SAMPLES}-sample batches, bounded pending lists"
        ),
    )
