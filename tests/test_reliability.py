"""The reliability layer: deterministic faults, checkpoints, self-healing.

Locks the contracts of :mod:`repro.reliability` and the seams threaded
through the sweep and streaming stacks:

* fault plans are validated, deterministic and picklable — the same plan
  realises the same fire sequence in every process that evaluates it,
  explicit hits never re-time the Bernoulli stream, and crash kinds
  escape ``except Exception`` recovery;
* every streaming engine checkpoint (``snapshot()`` → JSON →
  ``restore()``) is *bit-preserving*: a detector killed at a
  hypothesis-random cut point and restored from its serialised snapshot
  finishes the stream bitwise-identically to one that never stopped —
  for the paper's KDE path and every registered zoo detector, partial
  window head included;
* the lease protocol under injected clock skew, heartbeat stalls and
  unlink races; heartbeat theft propagates to the worker, which discards
  the stolen key's in-flight result instead of racing the thief's put;
* a SIGTERM'd worker releases its held leases on the way out;
* the router's failure policies: ``restart_shard`` recovers injected
  shard deaths bitwise-identically from per-batch checkpoints (within
  its restart budget), ``quarantine`` isolates a poison tenant behind
  dead-letter records without touching its shard neighbours, and
  ``checkpoint_tenants``/``restore_from`` hand a live stream across
  router generations without losing a bit.
"""

import json
import multiprocessing
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import CampaignScale
from repro.analysis.scenarios import ScenarioGrid, ScenarioSweepRunner
from repro.analysis.sweep_queue import (
    LeaseManager,
    SweepWorker,
    _Heartbeat,
    sim_lease_name,
)
from repro.analysis.sweep_store import SweepStore
from repro.core.config import FadewichConfig, MDConfig
from repro.detectors import KdeMdDetector, detector_names, get_detector
from repro.radio.office import paper_office
from repro.reliability import (
    HARD_CRASH_EXIT_CODE,
    KNOWN_POINTS,
    LEASE_CLOCK_SKEW,
    LEASE_HEARTBEAT_STALL,
    LEASE_UNLINK_RACE,
    ROUTER_SHARD_DEATH,
    SOURCE_DROP_BATCH,
    STORE_READ,
    WORKER_CRASH_AFTER_PUT,
    WORKER_CRASH_BEFORE_PUT,
    CheckpointStore,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    as_injector,
    dumps_snapshot,
    loads_snapshot,
)
from repro.streaming import (
    DayRecordingSource,
    IngestRouter,
    OnlineDetector,
    OnlineStdSum,
    SampleBatch,
)

RATE = 4.0


# --------------------------------------------------------------------------- #
# Fault plans and injectors
# --------------------------------------------------------------------------- #


class TestFaultPlan:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultSpec(point="store.reed", hits=(0,))

    def test_never_firing_spec_rejected(self):
        with pytest.raises(ValueError, match="can never fire"):
            FaultSpec(point=STORE_READ)

    def test_invalid_probability_and_hits_rejected(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(point=STORE_READ, probability=1.5)
        with pytest.raises(ValueError, match="hits must be >= 0"):
            FaultSpec(point=STORE_READ, hits=(-1,))
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(point=STORE_READ, hits=(0,), max_fires=0)

    def test_explicit_hits_fire_at_exact_occurrences(self):
        inj = FaultPlan.of(
            FaultSpec(point=STORE_READ, hits=(0, 3))
        ).injector()
        fired = [inj.fired(STORE_READ) is not None for _ in range(6)]
        assert fired == [True, False, False, True, False, False]
        assert inj.occurrences(STORE_READ) == 6
        assert inj.fires(STORE_READ) == 2

    def test_unplanned_point_never_fires_nor_counts(self):
        inj = FaultPlan.of(FaultSpec(point=STORE_READ, hits=(0,))).injector()
        assert inj.fired(SOURCE_DROP_BATCH) is None
        assert inj.occurrences(SOURCE_DROP_BATCH) == 0

    def test_bernoulli_realisation_is_seed_deterministic(self):
        plan = FaultPlan.of(
            FaultSpec(point=SOURCE_DROP_BATCH, probability=0.3), seed=42
        )
        seq_a = [
            plan.injector().fired(SOURCE_DROP_BATCH) is not None
            for _ in range(1)
        ]
        runs = []
        for _ in range(2):
            inj = plan.injector()
            runs.append(
                [inj.fired(SOURCE_DROP_BATCH) is not None for _ in range(200)]
            )
        assert runs[0] == runs[1]
        assert any(runs[0]) and not all(runs[0])
        # A different seed realises a different sequence.
        other = FaultPlan.of(
            FaultSpec(point=SOURCE_DROP_BATCH, probability=0.3), seed=43
        ).injector()
        assert [
            other.fired(SOURCE_DROP_BATCH) is not None for _ in range(200)
        ] != runs[0]
        assert seq_a  # seq_a only exists to pin the first-draw shape

    def test_pickled_plan_realises_identically(self):
        plan = FaultPlan.of(
            FaultSpec(point=STORE_READ, hits=(2,), probability=0.2),
            FaultSpec(point=ROUTER_SHARD_DEATH, probability=0.1),
            seed=7,
        )
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        a, b = plan.injector(), clone.injector()
        for _ in range(300):
            for point in (STORE_READ, ROUTER_SHARD_DEATH):
                assert (a.fired(point) is None) == (b.fired(point) is None)

    def test_explicit_hit_does_not_retime_bernoulli_stream(self):
        # Adding a hit index must not shift when the probabilistic fires
        # land: the Bernoulli draw is consumed on every occurrence.
        base = FaultPlan.of(
            FaultSpec(point=STORE_READ, probability=0.25), seed=5
        ).injector()
        with_hit = FaultPlan.of(
            FaultSpec(point=STORE_READ, hits=(10,), probability=0.25), seed=5
        ).injector()
        base_fires = [
            i for i in range(200) if base.fired(STORE_READ) is not None
        ]
        hit_fires = [
            i for i in range(200) if with_hit.fired(STORE_READ) is not None
        ]
        assert set(hit_fires) == set(base_fires) | {10}

    def test_max_fires_caps_the_spec(self):
        inj = FaultPlan.of(
            FaultSpec(point=STORE_READ, hits=(0, 1, 2, 3), max_fires=2)
        ).injector()
        fired = [inj.fired(STORE_READ) is not None for _ in range(4)]
        assert fired == [True, True, False, False]
        assert inj.fires(STORE_READ) == 2

    def test_first_firing_spec_wins_in_plan_order(self):
        first = FaultSpec(point=STORE_READ, hits=(0,), payload=1.0)
        second = FaultSpec(point=STORE_READ, hits=(0, 1), payload=2.0)
        inj = FaultPlan.of(first, second).injector()
        assert inj.fired(STORE_READ) is first
        assert inj.fired(STORE_READ) is second

    def test_check_raises_injected_fault(self):
        inj = FaultPlan.of(FaultSpec(point=STORE_READ, hits=(0,))).injector()
        with pytest.raises(InjectedFault, match="store.read"):
            inj.check(STORE_READ)
        inj.check(STORE_READ)  # occurrence 1: silent

    def test_soft_crash_escapes_except_exception(self):
        inj = FaultPlan.of(
            FaultSpec(point=WORKER_CRASH_BEFORE_PUT, hits=(0,), kind="crash")
        ).injector()
        with pytest.raises(InjectedCrash):
            try:
                inj.check(WORKER_CRASH_BEFORE_PUT)
            except Exception:  # noqa: BLE001 - the point of the test
                pytest.fail("InjectedCrash must not be caught as Exception")

    def test_stats_counters(self):
        inj = FaultPlan.of(
            FaultSpec(point=STORE_READ, hits=(1,)),
            FaultSpec(point=SOURCE_DROP_BATCH, hits=(0,)),
        ).injector()
        inj.fired(STORE_READ)
        inj.fired(STORE_READ)
        inj.fired(SOURCE_DROP_BATCH)
        assert inj.stats() == {
            STORE_READ: {"occurrences": 2, "fires": 1},
            SOURCE_DROP_BATCH: {"occurrences": 1, "fires": 1},
        }

    def test_as_injector_normalisation(self):
        plan = FaultPlan.of(FaultSpec(point=STORE_READ, hits=(0,)))
        inj = plan.injector()
        assert as_injector(None) is None
        assert as_injector(inj) is inj
        assert isinstance(as_injector(plan), FaultInjector)
        with pytest.raises(TypeError, match="FaultPlan or FaultInjector"):
            as_injector("chaos")

    def test_constant_reads_without_counting(self):
        spec = FaultSpec(
            point=LEASE_CLOCK_SKEW, hits=(0,), kind="skew", payload=12.5
        )
        inj = FaultPlan.of(spec).injector()
        assert inj.constant(LEASE_CLOCK_SKEW) is spec
        assert inj.constant(STORE_READ) is None
        assert inj.occurrences(LEASE_CLOCK_SKEW) == 0

    def test_known_points_cover_all_module_constants(self):
        assert STORE_READ in KNOWN_POINTS
        assert len(KNOWN_POINTS) == 11


# --------------------------------------------------------------------------- #
# Checkpoint serialisation
# --------------------------------------------------------------------------- #


class TestCheckpointStore:
    def test_json_round_trip_preserves_float_bits(self):
        state = {
            "pi": 0.1 + 0.2,
            "tiny": 5e-324,
            "nan": float("nan"),
            "inf": float("inf"),
            "list": [1.0 / 3.0, -0.0],
        }
        back = loads_snapshot(dumps_snapshot(state))
        assert back["pi"] == state["pi"]
        assert back["tiny"] == state["tiny"]
        assert np.isnan(back["nan"])
        assert back["inf"] == float("inf")
        assert back["list"][0] == state["list"][0]
        assert np.signbit(back["list"][1])

    def test_non_dict_snapshot_rejected(self):
        with pytest.raises(ValueError, match="decode to a dict"):
            loads_snapshot("[1, 2]")

    def test_save_load_keys_delete(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        assert store.load("absent") is None
        store.save("tenant/0", {"x": float("nan"), "n": 3})
        store.save("tenant/1", {"x": 1.5})
        assert store.keys() == ["tenant/0", "tenant/1"]
        back = store.load("tenant/0")
        assert set(back) == {"x", "n"}
        assert np.isnan(back["x"]) and back["n"] == 3
        assert store.delete("tenant/0")
        assert not store.delete("tenant/0")
        assert store.keys() == ["tenant/1"]

    def test_hostile_keys_stay_inside_the_directory(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        for key in ("../escape", "a/b/c", "x" * 300):
            path = store.save(key, {"v": 1})
            assert path.parent == store.path
            assert store.load(key) == {"v": 1}

    def test_save_overwrites_atomically(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        store.save("k", {"v": 1})
        store.save("k", {"v": 2})
        assert store.load("k") == {"v": 2}
        leftovers = [
            p for p in store.path.iterdir() if p.suffix not in (".json",)
        ]
        assert leftovers == []


# --------------------------------------------------------------------------- #
# Streaming checkpoint/restore bit-identity
# --------------------------------------------------------------------------- #


def anomalous_day(seed, n=600, k=3):
    rng = np.random.default_rng(seed)
    times = np.arange(n) / RATE
    matrix = rng.normal(0.0, 2.0, size=(n, k))
    matrix[n // 3 : n // 3 + 30] += rng.normal(0.0, 8.0, size=(30, k))
    matrix[2 * n // 3 : 2 * n // 3 + 8] += 15.0
    matrix[-3:] += 20.0
    return times, matrix


def run_stream(det, times, matrix, sizes):
    blocks, pos = [], 0
    for s in sizes:
        blocks.append(det.process_block(times[pos : pos + s], matrix[pos : pos + s]))
        pos += s
    return {
        "std_sums": np.concatenate([b.std_sums for b in blocks]),
        "decisions": np.concatenate([b.decisions for b in blocks]),
        "thresholds": np.concatenate([b.thresholds for b in blocks]),
        "durations": np.concatenate([b.durations for b in blocks]),
    }


def assert_streams_equal(got, want):
    np.testing.assert_array_equal(got["std_sums"], want["std_sums"])
    np.testing.assert_array_equal(got["decisions"], want["decisions"])
    # Thresholds are NaN during profile initialisation.
    np.testing.assert_array_equal(
        np.asarray(got["thresholds"]), np.asarray(want["thresholds"])
    )
    np.testing.assert_array_equal(got["durations"], want["durations"])


class TestSnapshotRoundTrip:
    @given(cut=st.integers(min_value=1, max_value=199), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_online_std_sum_cut_anywhere(self, cut, data):
        w = data.draw(st.integers(min_value=2, max_value=16))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(200, 2)) * 3.0
        whole = OnlineStdSum(2, w)
        want = whole.extend(matrix)
        head = OnlineStdSum(2, w)
        got_head = head.extend(matrix[:cut])
        state = loads_snapshot(dumps_snapshot(head.snapshot()))
        tail = OnlineStdSum(2, w)
        tail.restore(state)
        got_tail = tail.extend(matrix[cut:])
        np.testing.assert_array_equal(
            np.concatenate([got_head, got_tail]), want
        )

    @pytest.mark.parametrize("detector", sorted(detector_names()))
    @given(cut=st.integers(min_value=1, max_value=599))
    @settings(max_examples=12, deadline=None)
    def test_online_detector_cut_anywhere_bitwise(self, detector, cut):
        # The acceptance criterion: kill the stream at an arbitrary point,
        # round-trip the snapshot through JSON, restore, finish — and be
        # indistinguishable from a stream that never stopped.  ``cut``
        # values below the profile-initialisation samples exercise the
        # partial-window / warm-up head.
        times, matrix = anomalous_day(seed=1234)
        cfg = MDConfig(profile_init_s=15.0, batch_size=10, merge_gap_s=2.0)
        ids = [f"s{j}" for j in range(matrix.shape[1])]
        uncut = OnlineDetector(
            ids, cfg, sample_rate_hz=RATE, detector=get_detector(detector)
        )
        want = run_stream(uncut, times, matrix, [77] * 7 + [61])
        uncut.finalize()

        head = OnlineDetector(
            ids, cfg, sample_rate_hz=RATE, detector=get_detector(detector)
        )
        got_head = run_stream(head, times[:cut], matrix[:cut], _sizes(cut))
        state = loads_snapshot(dumps_snapshot(head.snapshot()))
        restored = OnlineDetector.from_snapshot(state)
        got_tail = run_stream(
            restored, times[cut:], matrix[cut:], _sizes(600 - cut)
        )
        restored.finalize()
        got = {
            key: np.concatenate([got_head[key], got_tail[key]])
            for key in want
        }
        assert_streams_equal(got, want)
        assert restored.completed_windows == uncut.completed_windows

    def test_null_detector_snapshot_restores_as_kde(self):
        # Snapshots taken while the KDE detector was the implicit default
        # store ``"detector": null``; they must keep restoring bitwise.
        state = json.loads(_NULL_DETECTOR_SNAPSHOT)
        restored = OnlineDetector.from_snapshot(state)
        assert restored.detector == KdeMdDetector()

        matrix = np.asarray(_NULL_DETECTOR_MATRIX)
        times = np.arange(matrix.shape[0]) / RATE
        cfg = MDConfig(**state["config"])
        uncut = OnlineDetector(["a", "b"], cfg, sample_rate_hz=RATE)
        uncut.process_block(times[:20], matrix[:20])
        # The literal is exactly the state the KDE default reaches.
        assert {**uncut.snapshot(), "detector": None} == state
        want = uncut.process_block(times[20:], matrix[20:])
        got = restored.process_block(times[20:], matrix[20:])
        assert_streams_equal(
            {key: getattr(got, key) for key in _STREAM_KEYS},
            {key: getattr(want, key) for key in _STREAM_KEYS},
        )

    def test_snapshot_format_guard(self):
        ids = ["a", "b"]
        det = OnlineDetector(ids, MDConfig(), sample_rate_hz=RATE)
        state = det.snapshot()
        state["format"] = 99
        with pytest.raises(ValueError, match="snapshot format"):
            OnlineDetector.from_snapshot(state)

    def test_snapshot_carries_detector_spec(self):
        det = OnlineDetector(
            ["a"],
            MDConfig(),
            sample_rate_hz=RATE,
            detector=get_detector("ema_mad"),
        )
        state = det.snapshot()
        assert state["detector"]["name"] == "ema_mad"
        restored = OnlineDetector.from_snapshot(
            loads_snapshot(dumps_snapshot(state))
        )
        assert restored._detector.name == "ema_mad"


_STREAM_KEYS = ("std_sums", "decisions", "thresholds", "durations")

#: An ``OnlineDetector`` snapshot of the KDE default after 20 samples of
#: ``_NULL_DETECTOR_MATRIX``, in the format that stored the detector as
#: ``null``.
_NULL_DETECTOR_SNAPSHOT = """{"config": {"alpha": 1.0, "batch_size": 4, \
"merge_gap_s": 1.0, "profile_init_s": 2.0, "std_window_s": 0.5, "tau": 0.25}, \
"detector": null, "engine": {"init_buffer": [0.7499999999999964, \
0.15000000000000213, 1.4499999999999993, 1.25, 1.0, 0.8499999999999979, \
0.8500000000000014, 1.25], "kde": {"bandwidth": 0.16009596682450503, \
"data": [1.0, 0.8499999999999979, 0.8500000000000014, 1.25, \
0.6999999999999993, 0.5999999999999979, 0.5, 1.0]}, "pending": \
[1.0500000000000007, 1.3999999999999986, 0.8000000000000007], \
"pending_count": 3, "threshold": 1.4781240829963362}, "format": 1, \
"last_t": 4.75, "sample_rate_hz": 4.0, "std": {"count": 20, "tails": \
[[-60.6], [-60.1]]}, "stream_ids": ["a", "b"], "windows": {"completed": \
[[3.25, 3.5]], "last_anomalous_t": null, "window_start": null}, \
"zones": null}"""

_NULL_DETECTOR_MATRIX = [
    [-60.0, -59.7], [-60.3, -60.9], [-60.5, -61.0], [-59.9, -58.7],
    [-60.5, -60.6], [-59.5, -59.6], [-59.9, -60.9], [-60.0, -59.3],
    [-61.3, -60.5], [-61.9, -61.3], [-61.8, -60.2], [-61.3, -59.7],
    [-59.8, -60.2], [-62.5, -60.5], [-60.0, -59.9], [-61.5, -60.5],
    [-61.0, -60.8], [-58.9, -60.8], [-60.0, -59.1], [-60.6, -60.1],
    [-59.9, -59.9], [-61.2, -59.9], [-58.6, -61.5], [-59.1, -59.9],
    [-54.6, -52.0], [-53.2, -55.2], [-53.9, -53.4], [-54.2, -53.3],
    [-54.1, -53.3], [-52.6, -54.7], [-59.8, -60.5], [-59.9, -61.2],
    [-60.6, -60.2], [-59.1, -58.9], [-61.3, -60.8], [-59.4, -62.0],
    [-60.5, -60.1], [-58.7, -59.3], [-60.3, -60.4], [-60.3, -58.5],
]


def _sizes(n, chunk=37):
    """Split ``n`` samples into ragged batches (chunk, ..., remainder)."""
    sizes = [chunk] * (n // chunk)
    if n % chunk:
        sizes.append(n % chunk)
    return sizes


# --------------------------------------------------------------------------- #
# Lease protocol under injected faults
# --------------------------------------------------------------------------- #


class TestLeaseFaults:
    def test_clock_skew_makes_live_leases_look_expired(self, tmp_path):
        honest = LeaseManager(tmp_path, owner="honest", ttl_s=5.0)
        assert honest.try_acquire("key")
        # A manager whose clock runs 60 s fast judges the fresh 5 s lease
        # expired and steals it — the cross-host drift hazard.
        skewed = LeaseManager(
            tmp_path,
            owner="skewed",
            ttl_s=5.0,
            faults=FaultPlan.of(
                FaultSpec(
                    point=LEASE_CLOCK_SKEW, hits=(0,), kind="skew",
                    payload=60.0,
                )
            ),
        )
        assert skewed.try_acquire("key")
        assert skewed.owns("key")
        assert not honest.owns("key")

    def test_clock_skew_stamps_heartbeats_too(self, tmp_path):
        skewed = LeaseManager(
            tmp_path,
            owner="skewed",
            ttl_s=30.0,
            faults=FaultPlan.of(
                FaultSpec(
                    point=LEASE_CLOCK_SKEW, hits=(0,), kind="skew",
                    payload=-3600.0,
                )
            ),
        )
        assert skewed.try_acquire("key")
        # The lease lands with an hour-old heartbeat: an honest manager
        # immediately sees it as expired and reclaims it.
        honest = LeaseManager(tmp_path, owner="honest", ttl_s=30.0)
        info = honest.read("key")
        assert info.expired()
        assert honest.try_acquire("key")
        assert honest.owns("key")

    def test_heartbeat_stall_lets_competitors_steal(self, tmp_path):
        stalled = LeaseManager(
            tmp_path,
            owner="stalled",
            ttl_s=0.6,
            faults=FaultPlan.of(
                FaultSpec(point=LEASE_HEARTBEAT_STALL, probability=1.0)
            ),
        )
        assert stalled.try_acquire("key")
        beat = _Heartbeat(stalled)
        beat.start()
        try:
            deadline = time.monotonic() + 10.0
            competitor = LeaseManager(tmp_path, owner="thief", ttl_s=0.6)
            while not competitor.try_acquire("key"):
                assert time.monotonic() < deadline
                time.sleep(0.05)
        finally:
            beat.stop()
        assert competitor.owns("key")
        assert not stalled.owns("key")
        # The stalled owner's renew notices the theft and forgets the key.
        assert not stalled.renew("key")
        assert stalled.held() == []

    def test_healthy_heartbeat_keeps_short_leases_alive(self, tmp_path):
        owner = LeaseManager(tmp_path, owner="owner", ttl_s=0.6)
        assert owner.try_acquire("key")
        beat = _Heartbeat(owner)
        beat.start()
        try:
            time.sleep(1.5)  # several TTLs: renewals must keep it live
            competitor = LeaseManager(tmp_path, owner="thief", ttl_s=0.6)
            assert not competitor.try_acquire("key")
        finally:
            beat.stop()
        assert owner.owns("key")

    def test_unlink_race_loses_to_the_planted_competitor(self, tmp_path):
        store = SweepStore(tmp_path)
        # An expired foreign lease on disk...
        with open(store.lease_path("key"), "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "format": 1, "name": "key", "owner": "dead", "pid": 1,
                    "heartbeat": time.time() - 3600.0, "ttl_s": 1.0,
                },
                handle,
            )
        racer = LeaseManager(
            store,
            owner="racer",
            ttl_s=30.0,
            faults=FaultPlan.of(
                FaultSpec(point=LEASE_UNLINK_RACE, hits=(0,))
            ),
        )
        # The breaker unlinks the expired lease, but an injected
        # competitor wins the re-link race.
        assert not racer.try_acquire("key")
        assert racer.read("key").owner == "<injected-competitor>"
        assert racer.held() == []
        # Next attempt (no fault at occurrence 1, competitor still live).
        assert not racer.try_acquire("key")

    def test_owns_reflects_disk_truth(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        assert not a.owns("key")
        assert a.try_acquire("key")
        assert a.owns("key")
        # A foreign overwrite (what a thief's reclaim leaves behind).
        store = SweepStore(tmp_path)
        with open(store.lease_path("key"), "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "format": 1, "name": "key", "owner": "thief", "pid": 2,
                    "heartbeat": time.time(), "ttl_s": 30.0,
                },
                handle,
            )
        assert not a.owns("key")


# --------------------------------------------------------------------------- #
# Sweep workers under injected faults
# --------------------------------------------------------------------------- #


def fast_scale(name="chaos-tiny"):
    return CampaignScale.compact().derive(
        name, n_days=1, day_duration_s=600.0
    )


def small_grid():
    """4 scenarios over 2 simulation keys (2 replicates x 2 configs)."""
    return ScenarioGrid(
        layouts=[paper_office()],
        scales=[fast_scale()],
        configs={
            "default": FadewichConfig(),
            "t6": FadewichConfig().derive(t_delta_s=6.0),
        },
        n_replicates=2,
        sensor_counts=(3,),
    )


def make_runner(grid):
    return ScenarioSweepRunner(
        grid, seed=11, mode="serial", re_sensor_counts=()
    )


def _sigterm_worker_entry(store_dir):
    worker = SweepWorker(
        make_runner(small_grid()),
        SweepStore(store_dir),
        owner="victim",
        lease_ttl_s=3600.0,  # leases never expire: only release frees them
        poll_interval_s=0.05,
        timeout_s=120.0,
    )
    worker.run()


class TestWorkerFaults:
    @pytest.fixture(scope="class")
    def serial_dict(self):
        return make_runner(small_grid()).run().to_dict()

    def test_crash_before_put_loses_work_not_records(
        self, tmp_path, serial_dict
    ):
        store = SweepStore(tmp_path)
        victim = SweepWorker(
            make_runner(small_grid()),
            store,
            owner="victim",
            lease_ttl_s=1.0,
            poll_interval_s=0.05,
            timeout_s=120.0,
            faults=FaultPlan.of(
                FaultSpec(
                    point=WORKER_CRASH_BEFORE_PUT, hits=(0,), kind="crash"
                )
            ),
        )
        with pytest.raises(InjectedCrash):
            victim.run()
        # The analysed result died with the worker: nothing was persisted,
        # and the worker's unwind released its leases.
        assert store.names() == []
        assert not list(store.path.glob("*.lease"))
        # A clean successor completes the grid bit-identically.
        successor = SweepWorker(
            make_runner(small_grid()), store,
            poll_interval_s=0.05, lease_ttl_s=1.0, timeout_s=120.0,
        )
        assert successor.run().to_dict() == serial_dict

    def test_crash_after_put_keeps_the_record_once(
        self, tmp_path, serial_dict
    ):
        store = SweepStore(tmp_path)
        victim = SweepWorker(
            make_runner(small_grid()),
            store,
            owner="victim",
            lease_ttl_s=1.0,
            poll_interval_s=0.05,
            timeout_s=120.0,
            faults=FaultPlan.of(
                FaultSpec(
                    point=WORKER_CRASH_AFTER_PUT, hits=(0,), kind="crash"
                )
            ),
        )
        with pytest.raises(InjectedCrash):
            victim.run()
        n_after_crash = len(store.names())
        assert n_after_crash >= 1
        successor = SweepWorker(
            make_runner(small_grid()), store,
            poll_interval_s=0.05, lease_ttl_s=1.0, timeout_s=120.0,
        )
        report = successor.run()
        assert report.to_dict() == serial_dict
        assert len(store.names()) == len(serial_dict["scenarios"])
        # The successor reused the crash survivor instead of redoing it.
        assert (
            successor.last_worker_stats.scenarios_analyzed
            == len(serial_dict["scenarios"]) - n_after_crash
        )

    def test_stolen_lease_discards_in_flight_result(
        self, tmp_path, serial_dict
    ):
        # Regression: a worker whose lease is stolen mid-collect must
        # never put the stolen key's result.  A thief thread rewrites the
        # lease to a foreign owner as soon as it appears (what a
        # reclaim-after-expiry leaves on disk); the worker's put gate
        # checks disk ownership and discards.
        store = SweepStore(tmp_path)
        stolen = threading.Event()
        stop = threading.Event()

        def thief():
            lease_paths = {
                store.lease_path(sim_lease_name(key))
                for key in make_runner(small_grid())._sim_indices
            }
            while not stop.is_set():
                for path in lease_paths:
                    if path.exists() and not stolen.is_set():
                        with open(path, "w", encoding="utf-8") as handle:
                            json.dump(
                                {
                                    "format": 1, "name": path.stem,
                                    "owner": "thief", "pid": 999,
                                    "heartbeat": time.time() - 3600.0,
                                    "ttl_s": 0.5,
                                },
                                handle,
                            )
                        stolen.set()
                        return
                time.sleep(0.002)

        thread = threading.Thread(target=thief)
        thread.start()
        try:
            worker = SweepWorker(
                make_runner(small_grid()),
                store,
                owner="worker",
                lease_ttl_s=2.0,
                poll_interval_s=0.05,
                timeout_s=120.0,
            )
            report = worker.run()
        finally:
            stop.set()
            thread.join()
        assert stolen.is_set(), "the thief never saw a lease file"
        # The stolen key's first result was discarded, then redone after
        # the thief's (expired) lease was broken — and the final report
        # is still bit-identical to the serial run.
        assert worker.last_worker_stats.puts_discarded >= 1
        assert report.to_dict() == serial_dict
        assert len(store.names()) == len(serial_dict["scenarios"])
        assert not list(store.path.glob("*.lease"))

    def test_superseded_claim_is_released_and_not_counted(
        self, tmp_path, serial_dict
    ):
        # Deterministic replay of the claim-supersede race: a competitor
        # finishes a key between this worker's store load and its lease
        # acquisition.  The claim must be released immediately and move
        # to claims_superseded — wins exactly partition the keys the
        # fleet actually collected, however the race times out.
        donor_store = SweepStore(tmp_path / "donor")
        donor = make_runner(small_grid())
        donor.run(store=donor_store)

        store = SweepStore(tmp_path / "store")
        runner = make_runner(small_grid())
        keys = list(runner._sim_indices)
        raced_key = keys[0]
        by_key = {}
        for spec in runner._specs:
            by_key.setdefault(spec.simulation_key(), []).append(spec)

        worker = SweepWorker(
            runner, store,
            poll_interval_s=0.05, lease_ttl_s=30.0, timeout_s=120.0,
        )
        original_run = runner.run

        def wrapped_run(store=None, *, claims=None):
            inner_claim = claims.claim

            def racing_claim(sim_key):
                # The "competitor" lands the key's completed records after
                # the load pass but before this worker's claim is granted.
                if sim_key == raced_key:
                    for spec in by_key[sim_key]:
                        key = runner.store_key(spec)
                        result = donor_store.get(spec.name, key)
                        store.put(spec.name, key, result)
                return inner_claim(sim_key)

            claims.claim = racing_claim
            return original_run(store=store, claims=claims)

        runner.run = wrapped_run
        report = worker.run()
        assert report.to_dict() == serial_dict
        stats = worker.last_worker_stats
        assert stats.claims_superseded == 1
        # Exactly the other key was actually won and collected.
        assert stats.claims_won == len(keys) - 1
        assert not list(store.path.glob("*.lease"))

    def test_sigterm_releases_held_leases(self, tmp_path):
        store = SweepStore(tmp_path)
        ctx = multiprocessing.get_context("fork")
        victim = ctx.Process(
            target=_sigterm_worker_entry, args=(str(store.path),)
        )
        victim.start()
        deadline = time.monotonic() + 60.0
        # Wait until the worker actually holds a lease...
        while not list(store.path.glob("*.lease")):
            assert victim.is_alive(), "victim finished before the SIGTERM"
            assert time.monotonic() < deadline
            time.sleep(0.02)
        os.kill(victim.pid, signal.SIGTERM)
        victim.join(60.0)
        # ...then SIGTERM unwinds through SystemExit(143) and the
        # worker's finally releases everything it held.  With a 1 h TTL,
        # only an explicit release can explain the empty directory.
        assert victim.exitcode == 143
        assert not list(store.path.glob("*.lease"))


class TestSourceFaults:
    def test_dropped_batches_are_counted_and_skipped(self, small_recording):
        day = small_recording.days[0]
        ids = day.trace.stream_ids[:3]
        clean = list(
            DayRecordingSource("t", day, stream_ids=ids, batch_samples=256)
        )
        lossy_source = DayRecordingSource(
            "t",
            day,
            stream_ids=ids,
            batch_samples=256,
            faults=FaultPlan.of(
                FaultSpec(point=SOURCE_DROP_BATCH, hits=(1, 3))
            ),
        )
        lossy = list(lossy_source)
        assert lossy_source.dropped_batches == 2
        assert len(lossy) == len(clean) - 2
        kept = [clean[i] for i in range(len(clean)) if i not in (1, 3)]
        for got, want in zip(lossy, kept):
            np.testing.assert_array_equal(got.times, want.times)
        # A detector downstream keeps working across the gaps.
        det = OnlineDetector(
            ids, MDConfig(profile_init_s=30.0), sample_rate_hz=RATE
        )
        for batch in lossy:
            det.process_block(batch.times, batch.samples)


# --------------------------------------------------------------------------- #
# Router failure policies
# --------------------------------------------------------------------------- #


def day_batches(day, ids, batch_samples=128):
    return list(
        DayRecordingSource(
            "office", day, stream_ids=ids, batch_samples=batch_samples
        )
    )


def standalone_stream(day, ids, cfg):
    det = OnlineDetector(ids, cfg, sample_rate_hz=RATE)
    trace = day.trace.restricted_view(ids)
    matrix = np.column_stack([trace.streams[sid] for sid in ids])
    block = det.process_block(trace.times, matrix)
    det.finalize()
    return block, det.completed_windows


class TestRouterPolicies:
    CFG = MDConfig(profile_init_s=30.0)

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="failure_policy"):
            IngestRouter(failure_policy="retry")

    def test_default_policy_keeps_reliability_counters_empty(
        self, small_recording
    ):
        day = small_recording.days[0]
        ids = day.trace.stream_ids[:3]
        with IngestRouter(
            n_workers=2, config=self.CFG, sample_rate_hz=RATE
        ) as router:
            router.register("office", ids)
            for batch in day_batches(day, ids):
                router.submit(batch)
            router.drain()
        assert router.stats.shard_restarts == {}
        assert router.stats.shard_quarantines == {}
        assert router.stats.dead_letters == {}
        assert router.stats.tenants_quarantined == 0

    def test_restart_shard_recovers_bitwise_identically(
        self, small_recording
    ):
        day = small_recording.days[0]
        ids = day.trace.stream_ids[:3]
        router = IngestRouter(
            n_workers=1,
            config=self.CFG,
            sample_rate_hz=RATE,
            failure_policy="restart_shard",
            faults=FaultPlan.of(
                FaultSpec(point=ROUTER_SHARD_DEATH, hits=(2, 5))
            ),
        )
        with router:
            state = router.register("office", ids)
            for batch in day_batches(day, ids):
                router.submit(batch)
            router.drain()
            got = state.concatenated()
        want, want_windows = standalone_stream(day, ids, self.CFG)
        np.testing.assert_array_equal(got.std_sums, want.std_sums)
        np.testing.assert_array_equal(got.decisions, want.decisions)
        np.testing.assert_array_equal(got.durations, want.durations)
        assert state.detector.completed_windows == want_windows
        assert router.stats.shard_restarts == {0: 2}
        assert state.restores == 2
        assert (
            router.stats.batches_processed == router.stats.batches_submitted
        )

    def test_restart_budget_exhaustion_fails_fast(self, small_recording):
        day = small_recording.days[0]
        ids = day.trace.stream_ids[:3]
        router = IngestRouter(
            n_workers=1,
            config=self.CFG,
            sample_rate_hz=RATE,
            failure_policy="restart_shard",
            max_shard_restarts=1,
            faults=FaultPlan.of(
                FaultSpec(point=ROUTER_SHARD_DEATH, hits=(1, 3))
            ),
        )
        router.register("office", ids)
        for batch in day_batches(day, ids):
            router.submit(batch)
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            router.drain()
        assert router.stats.shard_restarts == {0: 1}
        with pytest.raises(RuntimeError):
            router.close()

    def test_quarantine_isolates_the_poison_tenant(self, small_recording):
        day = small_recording.days[0]
        ids = day.trace.stream_ids[:3]
        router = IngestRouter(
            n_workers=1,  # both tenants share the shard: isolation matters
            config=self.CFG,
            sample_rate_hz=RATE,
            failure_policy="quarantine",
        )
        with router:
            router.register("healthy", ids)
            poison_state = router.register("poison", ids)
            healthy_batches = day_batches(day, ids)
            for i, batch in enumerate(healthy_batches):
                router.submit(
                    SampleBatch(
                        tenant="healthy",
                        times=batch.times,
                        samples=batch.samples,
                    )
                )
                if i == 1:
                    # Out-of-order times: poison's second batch replays
                    # its first — the detector rejects it.
                    first = healthy_batches[0]
                    router.submit(
                        SampleBatch(
                            tenant="poison",
                            times=first.times,
                            samples=first.samples,
                        )
                    )
                    router.submit(
                        SampleBatch(
                            tenant="poison",
                            times=first.times,
                            samples=first.samples,
                        )
                    )
            router.drain()
            healthy_state = router.tenant_state("healthy")
            got = healthy_state.concatenated()
        # The healthy shard-neighbour is untouched — bit-identical.
        want, _ = standalone_stream(day, ids, self.CFG)
        np.testing.assert_array_equal(got.std_sums, want.std_sums)
        np.testing.assert_array_equal(got.decisions, want.decisions)
        # The poison tenant is quarantined behind dead letters: the
        # failing batch plus every subsequent one.
        assert poison_state.quarantined
        assert len(poison_state.dead_letters) == 1
        assert "strictly increasing" in poison_state.dead_letters[0].error
        assert router.stats.tenants_quarantined == 1
        assert router.stats.shard_quarantines == {0: 1}
        assert router.stats.dead_letters == {"poison": 1}
        # Post-quarantine submissions dead-letter without processing.
        # (The router is closed now, so count via the recorded state.)
        assert poison_state.n_batches == 1  # only its first batch landed

    def test_quarantined_tenant_keeps_dead_lettering(self, small_recording):
        day = small_recording.days[0]
        ids = day.trace.stream_ids[:3]
        batches = day_batches(day, ids)
        router = IngestRouter(
            n_workers=1, config=self.CFG, sample_rate_hz=RATE,
            failure_policy="quarantine",
        )
        with router:
            router.register("office", ids)
            router.submit(batches[0])
            router.submit(batches[0])  # replay: poison
            router.submit(batches[1])  # post-quarantine: dead letter
            router.drain()
            state = router.tenant_state("office")
        assert state.quarantined
        assert len(state.dead_letters) == 2
        assert state.dead_letters[1].error == "tenant is quarantined"
        assert router.stats.dead_letters == {"office": 2}
        assert router.stats.tenants_quarantined == 1

    def test_checkpoint_tenants_hand_over_bitwise(self, small_recording):
        # Kill-and-restore across router generations: half the stream in
        # router A, checkpoint, the other half in router B — bitwise
        # identical to one uninterrupted stream.
        day = small_recording.days[0]
        ids = day.trace.stream_ids[:3]
        batches = day_batches(day, ids)
        half = len(batches) // 2
        first = IngestRouter(
            n_workers=2, config=self.CFG, sample_rate_hz=RATE
        )
        state_a = first.register("office", ids)
        for batch in batches[:half]:
            first.submit(batch)
        snapshots = first.checkpoint_tenants()
        blocks_a = list(state_a.blocks)
        first.close()

        second = IngestRouter(
            n_workers=2, config=self.CFG, sample_rate_hz=RATE
        )
        with second:
            state_b = second.register(
                "office", ids, restore_from=snapshots["office"]
            )
            for batch in batches[half:]:
                second.submit(batch)
            second.drain()
            blocks_b = list(state_b.blocks)
        want, want_windows = standalone_stream(day, ids, self.CFG)
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
        assert state_b.detector.completed_windows == want_windows

    def test_restore_from_rejects_overrides_and_mismatches(
        self, small_recording
    ):
        day = small_recording.days[0]
        ids = day.trace.stream_ids[:3]
        donor = OnlineDetector(ids, self.CFG, sample_rate_hz=RATE)
        snap = donor.snapshot()
        router = IngestRouter(n_workers=1)
        try:
            with pytest.raises(ValueError, match="restore_from"):
                router.register(
                    "t", ids, restore_from=snap, config=self.CFG
                )
            with pytest.raises(ValueError, match="stream ids"):
                router.register("t", ids[:2], restore_from=snap)
            router.register("t", ids, restore_from=snap)
        finally:
            router.close()
