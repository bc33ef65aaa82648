"""Chaos engineering the sweep fleet: inject faults, watch it self-heal.

Demonstrates :mod:`repro.reliability` end to end:

1. declare a seeded :class:`FaultPlan` — deterministic faults fired at
   named seams (``store.corrupt``, ``worker.crash_before_put``, ...); the
   same plan realises the same fault sequence in every process, so every
   chaos run is reproducible;
2. corrupt a store record on disk and watch the checksum layer catch it:
   the mangled file is quarantined to ``*.corrupt``, counted in
   ``StoreStats``, and the scenario is transparently recomputed;
3. run a two-worker :func:`run_prioritized` fleet where worker 0
   hard-crashes mid-grid (``os._exit``, leases left on disk): the
   supervisor respawns the slot fault-free, TTL expiry frees the
   corpse's keys, and the healed report is bit-identical to a fault-free
   serial run;
4. checkpoint a live streaming detector mid-stream
   (``snapshot()`` → JSON → ``from_snapshot``) and finish on the restored
   copy — the reassembled decision stream matches an uninterrupted run
   bit for bit.

Run with::

    python examples/chaos_sweep.py
"""

from __future__ import annotations

import json
import shutil

import numpy as np

from repro import FadewichConfig, paper_office, quick_campaign
from repro.analysis import CampaignScale, SweepStore
from repro.analysis.scenarios import ScenarioGrid, ScenarioSweepRunner
from repro.analysis.sweep_queue import GridJob, run_prioritized
from repro.analysis.sweep_store import name_slug
from repro.core.config import MDConfig
from repro.reliability import (
    STORE_CORRUPT,
    WORKER_CRASH_BEFORE_PUT,
    FaultPlan,
    FaultSpec,
)
from repro.streaming import OnlineDetector

SEED = 42
DAY_S = 600.0  # compact 10-minute days keep the walkthrough quick
STORE_ROOT = "chaos_sweep_store"


def make_grid() -> ScenarioGrid:
    scale = CampaignScale.compact().derive(
        "chaos-demo", n_days=1, day_duration_s=DAY_S
    )
    return ScenarioGrid(
        layouts=[paper_office()],
        scales=[scale],
        configs={"default": FadewichConfig()},
        n_replicates=6,
        sensor_counts=(3,),
    )


def main() -> None:
    shutil.rmtree(STORE_ROOT, ignore_errors=True)
    grid = make_grid()

    # --- 1. the fault-free reference ------------------------------------ #
    serial = ScenarioSweepRunner(
        grid, seed=SEED, mode="serial", re_sensor_counts=()
    ).run()
    serial_dict = serial.to_dict()
    print(f"reference: {serial.n_scenarios} scenarios, fault-free serial run")

    # --- 2. checksummed records catch silent corruption ------------------ #
    # A plan is just data: frozen, seeded, picklable.  This one truncates
    # the first record this store writes — a simulated half-written file
    # or bit-rotted disk block.
    store = SweepStore(
        f"{STORE_ROOT}/corruption-demo",
        faults=FaultPlan.of(FaultSpec(point=STORE_CORRUPT, hits=(0,))),
    )
    runner = ScenarioSweepRunner(
        grid, seed=SEED, mode="serial", re_sensor_counts=()
    )
    runner.run(store=store)
    # The mangled record fails its SHA-256 check on the next read: it is
    # quarantined (never trusted, never deleted) and simply recomputed.
    healed = ScenarioSweepRunner(
        grid, seed=SEED, mode="serial", re_sensor_counts=()
    ).run(store=store)
    stats = store.stats.as_dict()
    print(
        f"corruption: {stats['corrupt']} record quarantined "
        f"({len(store.corrupt_files())} *.corrupt file), "
        f"healed report identical: {healed.to_dict() == serial_dict}"
    )

    # --- 3. a supervised fleet survives a hard worker crash -------------- #
    # Worker 0 calls os._exit before its first put: no unwind, no lease
    # release — the ugliest way a box can die.  The supervisor respawns
    # the slot (fault-free, fresh owner id), the dead worker's leases
    # expire after their TTL, and the grid still completes exactly.
    result = run_prioritized(
        [GridJob(name="chaos", grid=grid, seed=SEED, re_sensor_counts=())],
        f"{STORE_ROOT}/fleet",
        workers=2,
        lease_ttl_s=2.0,
        poll_interval_s=0.05,
        worker_timeout_s=600.0,
        log_dir=f"{STORE_ROOT}/logs",
        report_path=None,
        mp_context="fork",
        max_worker_respawns=2,
        respawn_backoff_s=0.1,
        worker_faults={
            0: FaultPlan.of(
                FaultSpec(
                    point=WORKER_CRASH_BEFORE_PUT,
                    hits=(0,),
                    kind="crash",
                    hard=True,
                )
            )
        },
    )
    fleet_store = SweepStore(f"{STORE_ROOT}/fleet/{name_slug('chaos')}")
    log_text = result.log_paths["chaos"].read_text(encoding="utf-8")
    respawns = [line for line in log_text.splitlines() if "respawn" in line]
    print(
        f"fleet: healed report identical: "
        f"{result.reports['chaos'].to_dict() == serial_dict}, "
        f"leases left: {len(list(fleet_store.path.glob('*.lease')))}"
    )
    for line in respawns:
        print(f"  {line}")

    # --- 4. checkpoint/restore a live streaming detector ----------------- #
    recording = quick_campaign(seed=SEED, n_days=1, day_duration_s=DAY_S)
    day = recording.days[0]
    ids = list(day.trace.stream_ids[:3])
    trace = day.trace.restricted_view(ids)
    matrix = np.column_stack([trace.streams[sid] for sid in ids])
    cfg = MDConfig(profile_init_s=30.0)

    uncut = OnlineDetector(ids, cfg, sample_rate_hz=4.0)
    want = uncut.process_block(trace.times, matrix)

    cut = len(trace.times) // 2
    head = OnlineDetector(ids, cfg, sample_rate_hz=4.0)
    got_head = head.process_block(trace.times[:cut], matrix[:cut])
    wire = json.dumps(head.snapshot())  # plain JSON: survives any kill
    restored = OnlineDetector.from_snapshot(json.loads(wire))
    got_tail = restored.process_block(trace.times[cut:], matrix[cut:])
    identical = bool(
        np.array_equal(
            np.concatenate([got_head.decisions, got_tail.decisions]),
            want.decisions,
        )
        and np.array_equal(
            np.concatenate([got_head.std_sums, got_tail.std_sums]),
            want.std_sums,
            equal_nan=True,  # the rolling-std warm-up head is NaN
        )
    )
    print(
        f"checkpoint: killed at sample {cut}/{len(trace.times)}, "
        f"restored from {len(wire)} bytes of JSON, "
        f"stream bit-identical: {identical}"
    )


if __name__ == "__main__":
    main()
