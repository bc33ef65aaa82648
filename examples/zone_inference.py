"""Zone-occupancy inference: where in the office is the walker?

Walks the full zone workload end to end:

1. partition the paper office into a 3-zone grid
   (:meth:`~repro.zones.map.ZoneMap.from_layout`) and see which radio
   links cross which zone (Liang-Barsky clipping of the sensor-to-sensor
   segments);
2. collect a compact seed-42 campaign, whose raw RSSI the estimator
   reads as per-link attenuation against the log-distance baseline
   (:class:`~repro.zones.attenuation.AttenuationExtractor`);
3. run :meth:`~repro.zones.estimator.ZoneOccupancyEstimator.day_grid`
   over each recorded day and score it against the ground-truth walker
   trajectories the campaign scheduler planned
   (:func:`~repro.zones.estimator.score_walks`);
4. replay the same day through the bounded-state
   :class:`~repro.zones.estimator.ZoneEngine` as a live deployment would
   — including a mid-stream JSON checkpoint — and verify it reproduces
   ``day_grid`` bit for bit, the same equivalence contract the detection
   engines obey.

Run with::

    python examples/zone_inference.py
"""

from __future__ import annotations

import json

import numpy as np

from repro import paper_office
from repro.analysis import CampaignScale
from repro.simulation.collector import CampaignCollector
from repro.zones import (
    ZoneEngine,
    ZoneMap,
    ZoneOccupancyEstimator,
    score_walks,
)

SEED = 42
N_DAYS = 2
DAY_S = 1200.0  # compact 20-minute days keep the walkthrough quick


def main() -> None:
    layout = paper_office()

    # 1. Zone geometry: which links cross which third of the office.
    zone_map = ZoneMap.from_layout(layout)  # 3 x 1 grid by default
    print(f"office {layout.width} x {layout.height} m, {zone_map.n_zones} zones")
    for zone in zone_map.zones:
        print(
            f"  {zone.name}: x in [{zone.x_min:.1f}, {zone.x_max:.1f}], "
            f"{len(zone.stream_ids)} crossing links"
        )

    # 2. A compact campaign with scheduled walker trajectories.
    scale = CampaignScale.compact().derive(
        "zone-demo", n_days=N_DAYS, day_duration_s=DAY_S
    )
    collector = CampaignCollector(layout, seed=SEED)
    schedule = collector.make_schedule(
        scale.n_days, scale.day_duration_s, scale.profiles_for(layout)
    )
    base = collector.next_generated_base()
    recording = collector.collect(schedule, seed_base=base)

    # 3. Recorded-day estimation, scored against ground truth per day.
    estimator = ZoneOccupancyEstimator(zone_map=zone_map)
    total = None
    for day, day_schedule in zip(recording.days, schedule.days):
        times, grid = estimator.day_grid(day, layout)
        walks = collector.day_walks(day_schedule, seed_base=base)
        trajectories = [
            traj for walk_list in walks.values() for (_, traj, _) in walk_list
        ]
        acc = score_walks(zone_map, times, grid.occupied, trajectories)
        total = acc if total is None else total + acc
        decided = int((grid.occupied >= 0).sum())
        print(
            f"day {day.day_index}: {len(trajectories)} walks, "
            f"{decided} occupied instants, "
            f"day accuracy {acc.accuracy:.3f} over {acc.n_instants} instants"
        )
    print(
        f"campaign: accuracy {total.accuracy:.3f}, "
        f"coverage {total.coverage:.3f} over {total.n_instants} instants"
    )

    # 4. Live replay + mid-stream JSON checkpoint, bit-identical to
    #    day_grid.
    day = recording.days[0]
    trace = day.trace
    ids = trace.stream_ids
    rssi = np.column_stack([trace.streams[sid] for sid in ids])
    _, recorded = estimator.day_grid(day, layout)

    engine = estimator.streaming_engine(ids, layout)
    cut = rssi.shape[0] // 3
    first = engine.extend(rssi[:cut])
    checkpoint = json.dumps(engine.snapshot())  # plain JSON, wire-safe
    resumed = ZoneEngine.from_snapshot(json.loads(checkpoint))
    rest = resumed.extend(rssi[cut:])
    scores = np.concatenate([first.scores, rest.scores])
    occupied = np.concatenate([first.occupied, rest.occupied])

    # equal_nan: scores are NaN inside the calibration window on both paths
    assert np.array_equal(scores, recorded.scores, equal_nan=True)
    assert np.array_equal(occupied, recorded.occupied)
    print(
        f"live engine: {cut} + {rssi.shape[0] - cut} samples through a "
        f"{len(checkpoint)}-byte checkpoint, bit-identical to day_grid"
    )


if __name__ == "__main__":
    main()
