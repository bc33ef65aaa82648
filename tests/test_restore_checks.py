"""Decision-engine checkpoints whose fields disagree are rejected at restore.

A snapshot that restores with, say, ``pending_count`` kept but ``pending``
emptied, or a calibration buffer short of its count, does not fail: the
restored engine silently changes every later threshold.  Each engine's
``restore`` therefore checks how its fields fit together and raises a
``ValueError`` naming the field — directly, through
``OnlineDetector.from_snapshot`` and through
``IngestRouter.register(restore_from=...)``.  A state that is not a
mapping at all (say, decoded JSON that held a list) raises ``ValueError``
at the same two entry points.
"""

import json
import math

import numpy as np
import pytest

from repro.core.config import MDConfig
from repro.detectors import EmaMadDetector, KdeMdDetector, VarianceThresholdDetector
from repro.streaming import IngestRouter, OnlineDetector, OnlineProfile

RATE = 4.0


def values(n, seed=3):
    return np.abs(np.random.default_rng(seed).normal(2.0, 0.5, n))


def round_trip(state):
    return json.loads(json.dumps(state))


def profile_state(cfg, init, n):
    profile = OnlineProfile(cfg, init)
    profile.extend(values(n))
    return round_trip(profile.snapshot())


def rejects(engine, state, field):
    with pytest.raises(ValueError, match=f"field '{field}'"):
        engine.restore(state)


class TestProfile:
    CFG = MDConfig(batch_size=8)

    def test_consistent_snapshot_continues_bitwise(self):
        series = values(200)
        whole = OnlineProfile(self.CFG, 20)
        want = whole.extend(series)
        cut = OnlineProfile(self.CFG, 20)
        head = cut.extend(series[:45])
        resumed = OnlineProfile(self.CFG, 20)
        resumed.restore(round_trip(cut.snapshot()))
        tail = resumed.extend(series[45:])
        for part in (0, 1):
            np.testing.assert_array_equal(
                np.concatenate([head[part], tail[part]]), want[part]
            )

    def test_pending_emptied_but_count_kept(self):
        state = profile_state(self.CFG, 20, 45)
        assert state["pending_count"] == 1
        state["pending"] = []
        rejects(OnlineProfile(self.CFG, 20), state, "pending_count")

    def test_pending_count_reaching_batch_size(self):
        state = profile_state(self.CFG, 20, 44)
        state["pending"] = [2.0] * 8
        state["pending_count"] = 8
        rejects(OnlineProfile(self.CFG, 20), state, "pending_count")

    def test_threshold_without_kde(self):
        state = profile_state(self.CFG, 20, 45)
        state["kde"] = None
        rejects(OnlineProfile(self.CFG, 20), state, "threshold")

    def test_kde_without_threshold(self):
        state = profile_state(self.CFG, 20, 45)
        state["threshold"] = None
        rejects(OnlineProfile(self.CFG, 20), state, "threshold")

    @pytest.mark.parametrize("n, keep", [(45, 19), (10, 20)])
    def test_init_buffer_length(self, n, keep):
        # Ready with a short buffer, or unready with a full one.
        state = profile_state(self.CFG, 20, n)
        state["init_buffer"] = (state["init_buffer"] * 2)[:keep]
        rejects(OnlineProfile(self.CFG, 20), state, "init_buffer")

    def test_pending_before_ready(self):
        state = profile_state(self.CFG, 20, 10)
        state["pending"], state["pending_count"] = [2.0], 1
        rejects(OnlineProfile(self.CFG, 20), state, "pending")

    def test_kde_window_length(self):
        state = profile_state(self.CFG, 20, 45)
        state["kde"]["data"] = state["kde"]["data"][1:]
        rejects(OnlineProfile(self.CFG, 20), state, "kde")

    def test_batch_larger_than_init_window_grows_to_batch(self):
        cfg = MDConfig(batch_size=30)
        grown = profile_state(cfg, 8, 40)
        assert len(grown["kde"]["data"]) == 30
        OnlineProfile(cfg, 8).restore(grown)
        OnlineProfile(cfg, 8).restore(profile_state(cfg, 8, 20))
        grown["kde"]["data"] = grown["kde"]["data"][:12]
        rejects(OnlineProfile(cfg, 8), grown, "kde")


ZOO = [VarianceThresholdDetector(), EmaMadDetector()]
ZOO_IDS = ["variance", "ema_mad"]


def zoo_state(det, n, init=60):
    engine = det.streaming_engine(MDConfig(), init)
    engine.extend(values(n))
    return round_trip(engine.snapshot())


class TestZooEngines:
    @pytest.mark.parametrize("det", ZOO, ids=ZOO_IDS)
    @pytest.mark.parametrize("n", [0, 1, 40, 59, 60, 100])
    def test_consistent_snapshots_restore(self, det, n):
        state = zoo_state(det, n)
        engine = det.streaming_engine(MDConfig(), 60)
        engine.restore(state)
        assert round_trip(engine.snapshot()) == state

    @pytest.mark.parametrize("det", ZOO, ids=ZOO_IDS)
    def test_calibration_values_dropped(self, det):
        state = zoo_state(det, 40)
        state["calib"] = state["calib"][:-3]
        rejects(det.streaming_engine(MDConfig(), 60), state, "calib")

    @pytest.mark.parametrize("det", ZOO, ids=ZOO_IDS)
    def test_calibration_buffer_kept_after_calibration(self, det):
        state = zoo_state(det, 100)
        state["calib"] = [1.0]
        rejects(det.streaming_engine(MDConfig(), 60), state, "calib")

    @pytest.mark.parametrize("det", ZOO, ids=ZOO_IDS)
    def test_threshold_before_calibration(self, det):
        state = zoo_state(det, 40)
        state["eff"] = 1.0
        rejects(det.streaming_engine(MDConfig(), 60), state, "eff")

    @pytest.mark.parametrize("det", ZOO, ids=ZOO_IDS)
    def test_no_threshold_after_calibration(self, det):
        state = zoo_state(det, 100)
        state["eff"] = None
        rejects(det.streaming_engine(MDConfig(), 60), state, "eff")

    @pytest.mark.parametrize(
        "n, field, value",
        [
            (40, "ema_last", None),
            (0, "ema_last", 1.0),
            (100, "down", math.nan),
            (40, "down", 1.0),
            (40, "active", True),
        ],
    )
    def test_ema_mad_fields(self, n, field, value):
        state = zoo_state(EmaMadDetector(), n)
        state[field] = value
        rejects(EmaMadDetector().streaming_engine(MDConfig(), 60), state, field)


def drop_pending(state):
    state["pending"] = []


def drop_calibration_values(state):
    state["calib"] = state["calib"][3:]


# Per detector: samples fed before the checkpoint (60 initialise) and the
# field one inconsistent edit breaks.
BROKEN = [
    (KdeMdDetector(), 100, "pending_count", drop_pending),
    (VarianceThresholdDetector(), 46, "calib", drop_calibration_values),
    (EmaMadDetector(), 46, "calib", drop_calibration_values),
]
BROKEN_IDS = ["kde_md", "variance", "ema_mad"]


def broken_detector_state(det, n, break_engine):
    cfg = MDConfig(profile_init_s=15.0, batch_size=8)
    ids = ["a", "b"]
    online = OnlineDetector(ids, cfg, sample_rate_hz=RATE, detector=det)
    matrix = np.random.default_rng(5).normal(-60.0, 1.0, size=(n, 2))
    online.process_block(np.arange(n) / RATE, matrix)
    state = round_trip(online.snapshot())
    break_engine(state["engine"])
    return ids, state


@pytest.mark.parametrize("det, n, field, break_engine", BROKEN, ids=BROKEN_IDS)
def test_online_detector_from_snapshot(det, n, field, break_engine):
    _, state = broken_detector_state(det, n, break_engine)
    with pytest.raises(ValueError, match=f"field '{field}'"):
        OnlineDetector.from_snapshot(state)


@pytest.mark.parametrize("det, n, field, break_engine", BROKEN, ids=BROKEN_IDS)
def test_router_register_restore_from(det, n, field, break_engine):
    ids, state = broken_detector_state(det, n, break_engine)
    router = IngestRouter(n_workers=1)
    try:
        with pytest.raises(ValueError, match=f"field '{field}'"):
            router.register("t", ids, restore_from=state)
        assert router.stats.n_tenants == 0
    finally:
        router.close()


def test_from_snapshot_rejects_a_state_that_is_not_a_mapping():
    with pytest.raises(ValueError, match="snapshot must be a mapping, got list"):
        OnlineDetector.from_snapshot(json.loads("[1, 2]"))


def test_router_restore_from_rejects_a_state_that_is_not_a_mapping():
    router = IngestRouter(n_workers=1)
    try:
        with pytest.raises(ValueError, match="snapshot must be a mapping"):
            router.register("t", ["a", "b"], restore_from=[1, 2])
        assert router.stats.n_tenants == 0
    finally:
        router.close()
