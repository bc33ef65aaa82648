"""Benchmark: the zone-occupancy inference workload, batched and live.

Every path runs one :class:`~repro.zones.estimator.ZoneEngine`; the two
gates time how it is fed over one simulated working day, both asserting
bit-identity between the feeds they time (so neither can pass on
divergent numbers):

* **columnar** — the engine over a calibration-spanning prefix of the
  day in one batch, against the same engine fed one sample at a time —
  the arrival pattern of a live deployment without batching —
  >= ``MIN_COLUMNAR_SPEEDUP`` required;
* **streaming overhead** — the engine fed realistic 256-sample batches
  over the full day must cost at most ``MAX_STREAM_OVERHEAD`` of
  :meth:`~repro.zones.estimator.ZoneOccupancyEstimator.day_grid`, the
  recorded day in 1,024-row blocks: bounded state and tail
  re-materialisation are allowed a constant factor, never an asymptotic
  one.

Day length defaults to compact 10-minute days (``--sweep-day-s`` to
override); ``--paper-scale`` runs the full 8-hour day.  Both timed sides
run as the best of ``--bench-repeats``; results land in
``BENCH_results.json`` next to the other gates.
"""

import numpy as np

from repro.mobility.behavior import BehaviorProfile
from repro.mobility.scheduler import ScheduleGenerator
from repro.radio.office import paper_office
from repro.simulation.collector import CampaignCollector
from repro.zones import ZoneMap, ZoneOccupancyEstimator

#: Required speedup of one whole-prefix batch over single-sample
#: streaming on the prefix slice (measured well above this).
MIN_COLUMNAR_SPEEDUP = 3.0

#: Maximum tolerated ratio of 256-sample-batch streaming to ``day_grid``
#: over the full day.
MAX_STREAM_OVERHEAD = 4.0

BATCH_SAMPLES = 256

#: Single-sample prefix: past the calibration boundary with decided
#: instants, small enough to keep the per-sample python loop in seconds.
PREFIX = 600


def _day_duration(request) -> float:
    if request.config.getoption("--paper-scale"):
        return 8 * 3600.0
    return float(request.config.getoption("--sweep-day-s"))


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
    return layout, collector.collect_day(day)


def _stream_grids(engine, rssi, batch_samples):
    grids = [
        engine.extend(rssi[pos : pos + batch_samples])
        for pos in range(0, rssi.shape[0], batch_samples)
    ]
    return (
        np.concatenate([g.scores for g in grids]),
        np.concatenate([g.occupied for g in grids]),
    )


def test_zone_inference_gates(request, best_of, speedup_gate):
    layout, day = _bench_day(request)
    estimator = ZoneOccupancyEstimator(zone_map=ZoneMap.from_layout(layout))
    trace = day.trace
    ids = trace.stream_ids
    rssi = np.column_stack([trace.streams[sid] for sid in ids])
    n = rssi.shape[0]
    assert n > estimator.calibration_samples, (
        "day too short for the calibration window"
    )
    prefix = min(PREFIX, n)

    # Gate 1: one batch vs single-sample streaming on the prefix.
    t_cols, grid_cols = best_of(
        lambda: estimator.streaming_engine(ids, layout).extend(rssi[:prefix])
    )
    t_single, single = best_of(
        lambda: _stream_grids(
            estimator.streaming_engine(ids, layout), rssi[:prefix], 1
        )
    )
    np.testing.assert_array_equal(single[0], grid_cols.scores)
    np.testing.assert_array_equal(single[1], grid_cols.occupied)
    assert (grid_cols.occupied >= 0).any(), "no occupancy decided on prefix"
    speedup_gate(
        "zone columnar grid",
        t_single,
        t_cols,
        MIN_COLUMNAR_SPEEDUP,
        reference_name="single-sample ZoneEngine",
        fast_name="one-batch ZoneEngine",
        detail=f"{prefix} samples, {len(ids)} links, bitwise-identical",
    )

    # Gate 2: realistic batching must stay within a constant factor of
    # day_grid over the full day.
    t_full, (_, grid_full) = best_of(lambda: estimator.day_grid(day, layout))
    t_batch, batched = best_of(
        lambda: _stream_grids(
            estimator.streaming_engine(ids, layout), rssi, BATCH_SAMPLES
        )
    )
    np.testing.assert_array_equal(batched[0], grid_full.scores)
    np.testing.assert_array_equal(batched[1], grid_full.occupied)
    speedup_gate(
        "zone streaming overhead",
        t_full,
        t_batch,
        1.0 / MAX_STREAM_OVERHEAD,
        reference_name="day_grid",
        fast_name=f"{BATCH_SAMPLES}-sample-batch ZoneEngine",
        detail=f"{n} samples, {len(ids)} links, bitwise-identical",
    )
