"""Benchmark / CI smoke: chaos recovery of the self-healing fleet.

The reliability layer's end-to-end drill, run exactly the way a CI smoke
step should kill things:

1. a serial, fault-free sweep fills a reference store — the ground truth
   every recovery below must reproduce *bitwise*;
2. a two-worker :func:`run_prioritized` fleet runs the same grid under a
   seeded :class:`FaultPlan`: worker 0 hard-crashes (``os._exit``, no
   unwind, leases left on disk) before its first put, worker 1 silently
   truncates its first store record on disk.  The supervisor must respawn
   the dead slot fault-free, the respawn must break the corpse's leases
   after TTL, the checksum layer must quarantine the mangled record, and
   the batch must still end with the exact serial report — one record per
   scenario, no leftover leases, exactly one ``*.corrupt`` file;
3. the streaming router is killed mid-stream and restored across router
   generations (``checkpoint_tenants`` → JSON → ``restore_from``) while
   injected shard deaths force ``restart_shard`` recoveries in *both*
   generations — and the tenant's reassembled decision stream must be
   bit-identical to one uninterrupted detector that never saw a fault.

No timing gate: the default-policy throughput gates live in the other
benchmark modules and run without any of this machinery; this module
gates *recovery*, which either reproduces the fault-free bits or fails.
"""

import json

import numpy as np

from repro.analysis.campaign import CampaignScale
from repro.analysis.scenarios import ScenarioGrid, ScenarioSweepRunner
from repro.analysis.sweep_queue import GridJob, run_prioritized
from repro.analysis.sweep_store import SweepStore, name_slug
from repro.core.config import FadewichConfig, MDConfig
from repro.radio.office import paper_office
from repro.reliability import (
    ROUTER_SHARD_DEATH,
    STORE_CORRUPT,
    WORKER_CRASH_BEFORE_PUT,
    FaultPlan,
    FaultSpec,
)
from repro.streaming import DayRecordingSource, IngestRouter, OnlineDetector

CHAOS_SEED = 31

GRID_NAME = "chaos-recovery"


def _chaos_grid(request) -> ScenarioGrid:
    if request.config.getoption("--paper-scale"):
        day_s = 8 * 3600.0
    else:
        day_s = float(request.config.getoption("--sweep-day-s"))
    scale = CampaignScale(
        name="chaos-recovery",
        n_days=1,
        day_duration_s=day_s,
        departures_per_hour=6.5,
        mean_absence_s=150.0,
        min_absence_s=45.0,
        internal_moves_per_hour=2.0,
    )
    # Six replicates of one configuration: six equal-cost simulation keys,
    # enough for both workers to be mid-grid when the faults land.
    return ScenarioGrid(
        layouts=[paper_office()],
        scales=[scale],
        configs={"default": FadewichConfig()},
        n_replicates=6,
        sensor_counts=(3,),
    )


def test_fleet_recovers_from_crash_and_corruption(request, tmp_path):
    grid = _chaos_grid(request)

    # --- 1. fault-free serial reference --------------------------------- #
    serial = ScenarioSweepRunner(
        grid, seed=CHAOS_SEED, mode="serial", re_sensor_counts=()
    ).run()
    serial_dict = serial.to_dict()
    assert len(serial.results) == len(grid) == 6

    # --- 2. two-worker fleet under a seeded fault plan ------------------- #
    # Worker 0 dies the hard way — os._exit skips every finally, so its
    # claimed lease stays on disk and only TTL expiry can free the key.
    # Worker 1 survives but its first record hits the disk truncated.
    worker_faults = {
        0: FaultPlan.of(
            FaultSpec(
                point=WORKER_CRASH_BEFORE_PUT,
                hits=(0,),
                kind="crash",
                hard=True,
            )
        ),
        1: FaultPlan.of(FaultSpec(point=STORE_CORRUPT, hits=(0,))),
    }
    fleet_root = tmp_path / "chaos-store"
    result = run_prioritized(
        [
            GridJob(
                name=GRID_NAME,
                grid=grid,
                seed=CHAOS_SEED,
                re_sensor_counts=(),
            )
        ],
        fleet_root,
        workers=2,
        lease_ttl_s=2.0,
        claim_chunk=1,
        poll_interval_s=0.05,
        worker_timeout_s=600.0,
        log_dir=tmp_path / "logs",
        report_path=None,
        mp_context="fork",
        max_worker_respawns=2,
        respawn_backoff_s=0.1,
        worker_faults=worker_faults,
    )

    # --- 3. full recovery, bit for bit ----------------------------------- #
    assert result.reports[GRID_NAME].to_dict() == serial_dict, (
        "the healed fleet diverged from the fault-free serial report"
    )
    store = SweepStore(fleet_root / name_slug(GRID_NAME))
    assert len(store.names()) == len(grid), (
        "recovery left lost or duplicated records"
    )
    assert not list(store.path.glob("*.lease")), (
        "recovery left lease files behind"
    )
    corrupt = store.corrupt_files()
    assert len(corrupt) == 1, (
        f"expected exactly one quarantined record, found {corrupt}"
    )
    log_text = result.log_paths[GRID_NAME].read_text(encoding="utf-8")
    assert "died (exit 70); respawn 1/2" in log_text, (
        "the supervisor never respawned the hard-crashed worker"
    )
    assert "exhausted" not in log_text


def test_router_kill_restore_preserves_tenant_bits(campaign):
    day = campaign.days[0]
    ids = list(day.trace.stream_ids[:3])
    cfg = MDConfig(profile_init_s=30.0)

    # Uninterrupted fault-free reference stream.
    reference = OnlineDetector(ids, cfg, sample_rate_hz=4.0)
    trace = day.trace.restricted_view(ids)
    matrix = np.column_stack([trace.streams[sid] for sid in ids])
    want = reference.process_block(trace.times, matrix)
    reference.finalize()

    batches = list(
        DayRecordingSource("office", day, stream_ids=ids, batch_samples=512)
    )
    half = len(batches) // 2
    assert half >= 2, "benchmark day too short to split across routers"

    # Generation A: injected shard death mid-stream, then a hard stop.
    first = IngestRouter(
        n_workers=1,
        config=cfg,
        sample_rate_hz=4.0,
        failure_policy="restart_shard",
        faults=FaultPlan.of(FaultSpec(point=ROUTER_SHARD_DEATH, hits=(1,))),
    )
    state_a = first.register("office", ids)
    for batch in batches[:half]:
        first.submit(batch)
    snapshots = first.checkpoint_tenants()
    blocks_a = list(state_a.blocks)
    first.close()
    assert first.stats.shard_restarts == {0: 1}

    # The checkpoint crosses process boundaries as plain JSON.
    wire = json.dumps(snapshots["office"])

    # Generation B: restore, survive another shard death, finish.
    second = IngestRouter(
        n_workers=1,
        config=cfg,
        sample_rate_hz=4.0,
        failure_policy="restart_shard",
        faults=FaultPlan.of(FaultSpec(point=ROUTER_SHARD_DEATH, hits=(2,))),
    )
    with second:
        state_b = second.register(
            "office", ids, restore_from=json.loads(wire)
        )
        for batch in batches[half:]:
            second.submit(batch)
        second.drain()
        blocks_b = list(state_b.blocks)
    assert second.stats.shard_restarts == {0: 1}

    blocks = blocks_a + blocks_b
    np.testing.assert_array_equal(
        np.concatenate([b.std_sums for b in blocks]), want.std_sums
    )
    np.testing.assert_array_equal(
        np.concatenate([b.decisions for b in blocks]), want.decisions
    )
    np.testing.assert_array_equal(
        np.concatenate([b.durations for b in blocks]), want.durations
    )
    assert (
        state_b.detector.completed_windows == reference.completed_windows
    )
    # The restored tenant's own snapshot still round-trips — generation C
    # could pick up right here.
    final_state = json.loads(json.dumps(state_b.detector.snapshot()))
    assert final_state["stream_ids"] == ids
