"""Multi-tenant streaming service: one detection backend, many offices.

The load-generator companion of the streaming engine: several simulated
offices (tenants) replay their recorded days as timestamped sample
batches, a k-way merge interleaves them into one global arrival sequence
— exactly what a shared ingestion endpoint would see — and an
:class:`~repro.streaming.router.IngestRouter` routes the batches to
per-tenant detectors on round-robin shards.  The router starts no thread:
the submit that fills a shard to its capacity processes the shard's
pending batches on this (the producer's) thread, and ``drain()`` processes
the rest.

After the drain, every tenant's decision stream is compared bit-for-bit
against a standalone single-tenant detector fed the same day: sharding,
interleaving and bounded pending lists leave no trace in the output.

Run with::

    python examples/streaming_service.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import quick_campaign
from repro.core.config import MDConfig
from repro.streaming import (
    DayRecordingSource,
    IngestRouter,
    OnlineDetector,
    merge_by_time,
)

N_TENANTS = 8
N_SHARDS = 4
QUEUE_CAPACITY = 16
BATCH_SAMPLES = 128


def main() -> None:
    config = MDConfig(profile_init_s=30.0)

    print(f"Collecting a recorded campaign shared by {N_TENANTS} offices...")
    recording = quick_campaign(seed=23, n_days=2, day_duration_s=1200.0)

    # Each office monitors its own sensor subset of one recorded day —
    # eight independent deployments hitting the same backend.
    rng = np.random.default_rng(5)
    all_ids = recording.days[0].trace.stream_ids
    feeds = []
    for i in range(N_TENANTS):
        day = recording.days[i % recording.n_days]
        ids = sorted(rng.choice(all_ids, size=4 + (i % 3), replace=False))
        feeds.append((f"office-{i}", day, ids))

    print(
        f"Routing {N_TENANTS} tenants over {N_SHARDS} shards on the "
        f"caller's thread (at most {QUEUE_CAPACITY} batches pending each)..."
    )
    t0 = time.perf_counter()
    with IngestRouter(
        n_workers=N_SHARDS,
        queue_capacity=QUEUE_CAPACITY,
        config=config,
    ) as router:
        for tenant, day, ids in feeds:
            router.register(tenant, ids)
        sources = [
            DayRecordingSource(
                tenant, day, stream_ids=ids, batch_samples=BATCH_SAMPLES
            )
            for tenant, day, ids in feeds
        ]
        # The load generator: batches from all tenants, in arrival order.
        for batch in merge_by_time(sources):
            router.submit(batch)
        router.drain()
        elapsed = time.perf_counter() - t0
        stats = router.stats
        print(
            f"  {stats.batches_processed} batches / "
            f"{stats.samples_processed} samples in {elapsed:.2f}s "
            f"({stats.samples_processed / elapsed:,.0f} samples/s); "
            f"deepest pending list: {stats.max_queue_depth}"
        )

        print("\nPer-tenant results (vs. a standalone detector):")
        for tenant, day, ids in feeds:
            state = router.tenant_state(tenant)
            stream = state.concatenated()

            reference = OnlineDetector(ids, config)
            trace = day.trace.restricted_view(ids)
            matrix = np.column_stack([trace.streams[sid] for sid in ids])
            want = reference.process_block(trace.times, matrix)

            identical = np.array_equal(
                stream.decisions, want.decisions
            ) and np.array_equal(stream.durations, want.durations)
            n_windows = len(state.detector.completed_windows)
            n_anomalous = int(np.count_nonzero(stream.decisions == 1))
            print(
                f"  {tenant} (shard {state.shard}, {len(ids)} streams): "
                f"{state.n_samples} samples, {n_anomalous} anomalous, "
                f"{n_windows} variation windows, "
                f"bit-identical: {identical}"
            )
            assert identical, f"{tenant}: router output diverged!"

    print("\nEvery tenant's stream matched the standalone kernel exactly.")


if __name__ == "__main__":
    main()
