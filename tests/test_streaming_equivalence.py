"""Batch vs. streaming bit-identity of the detection kernel.

Extends the repo's equivalence discipline (``tests/test_analysis_equivalence.py``)
to the streaming engine of :mod:`repro.streaming`:

* :class:`OnlineStdSum` emits the same ``s_t`` series — partial-window
  head included, equal to the per-sample :class:`StdSumTracker` — whatever
  the arrival batching (single samples, ragged batches, one big block);
* :class:`OnlineProfile` reproduces the scalar :class:`NormalProfile`
  chain (decisions and warm-started thresholds) bit for bit, alone or as
  one of several lockstep chains;
* :class:`OnlineDetector` matches both the columnar kernel (the whole
  trace's ``s_t`` through one profile) and the
  per-sample :class:`MovementDetector` on the same trace: every ``s_t``,
  anomaly decision, threshold and window duration equal;
* the sweep's ``evaluate_md_grid`` reports, per day and sensor subset, the
  ``s_t``, thresholds and windows that :class:`OnlineDetector` (standalone
  under random batch splits, or hosted by :class:`IngestRouter`) emits from
  the recording's second sample on, for every registered detector;
* :meth:`WindowTracker.extend`, the one variation-window automaton,
  equals a per-step oracle bit for bit under any batch split (empty
  batches included) and across a JSON snapshot/restore mid-window; the
  merge-gap boundary cases (a run ending exactly ``merge_gap_s`` before
  the next, an anomalous final sample leaving a window open at EOF) are
  pinned on both;
* an empty batch changes no output and no snapshot of
  :class:`OnlineDetector`, for every registered detector, with and
  without a hosted zone engine;
* the multi-tenant :class:`IngestRouter` never reorders a tenant's
  decision stream: per-tenant concatenated output is bit-identical to a
  standalone detector fed the same day, for any shard count and queue
  capacity.
"""

import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import CampaignScale, collect_campaign
from repro.core.config import FadewichConfig, MDConfig
from repro.core.evaluation import (
    evaluate_md_grid,
    sensor_subset,
    streams_for_sensors,
)
from repro.core.windows import VariationWindow
from repro.detectors import KdeMdDetector, detector_names, get_detector
from repro.streaming import (
    DayRecordingSource,
    IngestRouter,
    OnlineDetector,
    OnlineProfile,
    OnlineStdSum,
    SampleBatch,
    WindowTracker,
    merge_by_time,
)
from repro.zones import ZoneMap, ZoneOccupancyEstimator

from tests.oracles.movement import MovementDetector, NormalProfile, StdSumTracker

RATE = 4.0


def split_matrix(matrix, sizes):
    """Split a sample matrix into consecutive row batches of given sizes."""
    out, pos = [], 0
    for s in sizes:
        out.append(matrix[pos : pos + s])
        pos += s
    assert pos == matrix.shape[0]
    return out


def stream_std_sums(matrix, window_samples, sizes):
    tracker = OnlineStdSum(matrix.shape[1], window_samples)
    return np.concatenate(
        [tracker.extend(b) for b in split_matrix(matrix, sizes)]
    )


class TestOnlineStdSum:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8, 9, 20, 100])
    @pytest.mark.parametrize("k", [1, 3])
    def test_single_sample_feed_matches_offline_series(self, rng, n, k):
        matrix = rng.normal(size=(n, k)) * 3.0
        ref = stream_std_sums(matrix, 8, [len(matrix)])
        got = stream_std_sums(matrix, 8, [1] * n)
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize(
        "sizes",
        [[40], [1] * 40, [3, 7, 1, 9, 20], [5, 35], [39, 1], [2, 2, 36]],
    )
    def test_any_batching_matches_offline_series(self, rng, sizes):
        matrix = rng.normal(size=(40, 4)) * 2.0
        ref = stream_std_sums(matrix, 8, [len(matrix)])
        np.testing.assert_array_equal(stream_std_sums(matrix, 8, sizes), ref)

    def test_partial_window_head_regression(self, rng):
        # S1 regression: fewer samples than the std window have arrived.
        # The streaming head must equal the offline partial-window values
        # AND the per-sample tracker's, at every instant — batched or not.
        k, w = 3, 12
        matrix = rng.normal(size=(7, k))
        ids = [f"s{j}" for j in range(k)]
        scalar_tracker = StdSumTracker(ids, w)
        scalar = np.array(
            [
                np.nan if v is None else v
                for v in (
                    scalar_tracker.update(dict(zip(ids, row)))
                    for row in matrix
                )
            ]
        )
        ref = stream_std_sums(matrix, w, [len(matrix)])
        np.testing.assert_array_equal(scalar, ref)
        for sizes in ([7], [1] * 7, [2, 5], [6, 1]):
            np.testing.assert_array_equal(
                stream_std_sums(matrix, w, sizes), ref
            )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=60),
        k=st.integers(min_value=1, max_value=4),
        w=st.integers(min_value=2, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_batch_split_invariance(self, n, k, w, seed, data):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(0.0, 5.0, size=(n, k))
        ref = stream_std_sums(matrix, w, [len(matrix)])
        sizes, left = [], n
        while left > 0:
            s = data.draw(st.integers(min_value=1, max_value=left))
            sizes.append(s)
            left -= s
        np.testing.assert_array_equal(stream_std_sums(matrix, w, sizes), ref)

    def test_empty_batch_is_a_no_op(self, rng):
        matrix = rng.normal(size=(10, 2))
        tracker = OnlineStdSum(2, 4)
        parts = [
            tracker.extend(matrix[:5]),
            tracker.extend(matrix[:0]),
            tracker.extend(matrix[5:]),
        ]
        assert parts[1].shape == (0,)
        np.testing.assert_array_equal(
            np.concatenate([parts[0], parts[2]]),
            stream_std_sums(matrix, 4, [len(matrix)]),
        )

    def test_rejects_wrong_shapes(self):
        tracker = OnlineStdSum(3, 4)
        with pytest.raises(ValueError, match="sample batch"):
            tracker.extend(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="sample batch"):
            tracker.extend(np.zeros(5))
        with pytest.raises(ValueError, match="n_streams"):
            OnlineStdSum(0, 4)
        with pytest.raises(ValueError, match="window_samples"):
            OnlineStdSum(3, 1)


class TestOnlineProfile:
    CFG = MDConfig(profile_init_s=5.0, batch_size=16)

    def profile_series(self, rng, n):
        values = np.abs(rng.normal(2.0, 0.5, n))
        values[n // 2 :: 7] += 4.0  # sprinkle anomalies
        return values

    @pytest.mark.parametrize("sizes", [[200], [1] * 200, [13, 50, 137], [37] * 5 + [15]])
    def test_matches_scalar_normal_profile(self, rng, sizes):
        values = self.profile_series(rng, 200)
        init_samples = max(int(round(self.CFG.profile_init_s * RATE)), 2)

        scalar = NormalProfile(self.CFG, init_samples)
        want = np.array(
            [
                -1 if d is None else int(d)
                for d in (scalar.observe(float(v)) for v in values)
            ],
            dtype=np.int8,
        )

        online = OnlineProfile(self.CFG, init_samples)
        got = np.concatenate(
            [online.extend(b)[0] for b in split_matrix(values, sizes)]
        )
        np.testing.assert_array_equal(got, want)
        assert online.threshold == scalar.threshold

    def test_threshold_trace_matches_lockstep_chain(self, rng):
        values = self.profile_series(rng, 300)
        init_samples = max(int(round(self.CFG.profile_init_s * RATE)), 2)
        lockstep = OnlineProfile(self.CFG, init_samples)
        grid_d, grid_t = lockstep.extend(np.column_stack([values, values[::-1]]))

        online = OnlineProfile(self.CFG, init_samples)
        decisions, thresholds = online.extend(values)
        np.testing.assert_array_equal(decisions, grid_d[:, 0])
        np.testing.assert_array_equal(thresholds, grid_t[:, 0])

    def test_batch_size_larger_than_init_matches_scalar(self, rng):
        # An accepted window outgrows the init window in this regime: pin
        # the profile to the scalar reference directly.
        cfg = MDConfig(profile_init_s=3.0, batch_size=50)
        init_samples = max(int(round(cfg.profile_init_s * RATE)), 2)
        values = self.profile_series(rng, 180)
        scalar = NormalProfile(cfg, init_samples)
        want = np.array(
            [
                -1 if d is None else int(d)
                for d in (scalar.observe(float(v)) for v in values)
            ],
            dtype=np.int8,
        )
        online = OnlineProfile(cfg, init_samples)
        got = np.concatenate(
            [online.extend(b)[0] for b in split_matrix(values, [90, 90])]
        )
        np.testing.assert_array_equal(got, want)
        assert online.threshold == scalar.threshold


NON_FINITE = pytest.mark.parametrize(
    "bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)
POSITIONS = pytest.mark.parametrize("where", ["first", "middle", "last", "single"])


def poisoned(times, bad, where):
    """A copy of ``times`` (its first sample alone for ``"single"``) with
    ``bad`` in the named position."""
    out = times[:1].copy() if where == "single" else times.copy()
    out[{"first": 0, "middle": out.size // 2, "last": -1, "single": 0}[where]] = bad
    return out


def detector_pair(k=4, cfg=None):
    cfg = cfg if cfg is not None else MDConfig(
        profile_init_s=15.0, batch_size=10, merge_gap_s=2.0
    )
    ids = [f"s{j}" for j in range(k)]
    return ids, cfg


def anomalous_day(rng, n=1200, k=4):
    times = np.arange(n) / RATE
    matrix = rng.normal(0.0, 2.0, size=(n, k))
    matrix[n // 3 : n // 3 + 40] += rng.normal(0.0, 8.0, size=(40, k))
    matrix[2 * n // 3 : 2 * n // 3 + 10] += 15.0
    matrix[-3:] += 20.0
    return times, matrix


class TestOnlineDetector:
    def columnar_reference(self, times, matrix, cfg):
        n = times.shape[0]
        w = max(int(round(cfg.std_window_s * RATE)), 2)
        ini = max(int(round(cfg.profile_init_s * RATE)), 2)
        std_sums = stream_std_sums(matrix, w, [len(matrix)])
        anomalous = np.zeros(n, dtype=bool)
        engine = KdeMdDetector().streaming_engine(cfg, ini)
        decisions, thresholds = engine.extend(std_sums[1:, np.newaxis])
        anomalous[1:] = decisions[:, 0] == 1
        durations = WindowTracker(cfg.merge_gap_s).extend(times, anomalous)
        return std_sums, anomalous, thresholds[:, 0], durations

    @pytest.mark.parametrize(
        "sizes", [None, [1200], [1, 7, 64, 256] * 4 + [1200 - 4 * 328]]
    )
    def test_matches_columnar_kernel(self, rng, sizes):
        ids, cfg = detector_pair()
        times, matrix = anomalous_day(rng)
        std_sums, anomalous, thresholds, durations = self.columnar_reference(
            times, matrix, cfg
        )
        det = OnlineDetector(ids, cfg, sample_rate_hz=RATE)
        if sizes is None:
            sizes = [1] * times.shape[0]
        blocks, pos = [], 0
        for s in sizes:
            blocks.append(
                det.process_block(times[pos : pos + s], matrix[pos : pos + s])
            )
            pos += s
        got_ss = np.concatenate([b.std_sums for b in blocks])
        got_anom = np.concatenate([b.anomalous for b in blocks])
        got_th = np.concatenate([b.thresholds for b in blocks])
        got_dur = np.concatenate([b.durations for b in blocks])
        np.testing.assert_array_equal(got_ss, std_sums)
        np.testing.assert_array_equal(got_anom, anomalous)
        np.testing.assert_array_equal(got_th[1:], thresholds)
        np.testing.assert_array_equal(got_dur, durations)

    def test_per_sample_process_matches_movement_detector(self, rng):
        ids, cfg = detector_pair(k=3)
        times, matrix = anomalous_day(rng, n=800, k=3)
        md = MovementDetector(ids, cfg, sample_rate_hz=RATE)
        online = OnlineDetector(ids, cfg, sample_rate_hz=RATE)
        for i, t in enumerate(times):
            sample = dict(zip(ids, matrix[i]))
            assert md.process(float(t), sample) == online.process(
                float(t), sample
            )
            assert md.current_window_duration(
                float(t)
            ) == online.current_window_duration(float(t))
        md.finalize(float(times[-1]))
        online.finalize()
        assert online.completed_windows == md.completed_windows

    def test_replayed_recording_day_matches_columnar_kernel(
        self, small_recording
    ):
        # The acceptance-criterion case: a real recorded DayRecording.
        day = small_recording.days[0]
        ids = day.trace.stream_ids[:5]
        cfg = MDConfig(profile_init_s=30.0)
        trace = day.trace.restricted_view(ids)
        matrix = np.column_stack([trace.streams[sid] for sid in ids])
        std_sums, anomalous, thresholds, durations = self.columnar_reference(
            trace.times, matrix, cfg
        )
        det = OnlineDetector(ids, cfg, sample_rate_hz=RATE)
        blocks = [
            det.process_block(batch.times, batch.samples)
            for batch in DayRecordingSource(
                "office-0", day, stream_ids=ids, batch_samples=97
            )
        ]
        np.testing.assert_array_equal(
            np.concatenate([b.std_sums for b in blocks]), std_sums
        )
        np.testing.assert_array_equal(
            np.concatenate([b.anomalous for b in blocks]), anomalous
        )
        np.testing.assert_array_equal(
            np.concatenate([b.durations for b in blocks]), durations
        )

    def test_rejects_non_increasing_times(self, rng):
        ids, cfg = detector_pair(k=2)
        det = OnlineDetector(ids, cfg, sample_rate_hz=RATE)
        det.process_block(np.array([0.0, 0.25]), rng.normal(size=(2, 2)))
        with pytest.raises(ValueError, match="strictly increasing"):
            det.process_block(np.array([0.25]), rng.normal(size=(1, 2)))
        with pytest.raises(ValueError, match="strictly increasing"):
            det.process_block(
                np.array([0.5, 0.5]), rng.normal(size=(2, 2))
            )

    @NON_FINITE
    @POSITIONS
    def test_rejects_non_finite_times_and_keeps_state(self, rng, bad, where):
        ids, cfg = detector_pair(k=2)
        times = np.arange(200) / RATE
        matrix = rng.normal(0.0, 2.0, size=(200, 2))
        det = OnlineDetector(ids, cfg, sample_rate_hz=RATE)
        clean = OnlineDetector(ids, cfg, sample_rate_hz=RATE)
        det.process_block(times[:100], matrix[:100])
        clean.process_block(times[:100], matrix[:100])
        batch = poisoned(times[100:103], bad, where)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            det.process_block(batch, matrix[100 : 100 + batch.size])
        assert json.dumps(det.snapshot()) == json.dumps(clean.snapshot())
        # The last accepted time still orders what follows: a late batch
        # is refused, and the rest of the day continues bit for bit.
        with pytest.raises(ValueError, match="strictly increasing"):
            det.process_block(np.array([-5.0]), matrix[:1])
        got = det.process_block(times[100:], matrix[100:])
        want = clean.process_block(times[100:], matrix[100:])
        for field in ("std_sums", "decisions", "thresholds", "durations"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
        assert json.dumps(det.snapshot()) == json.dumps(clean.snapshot())

    @pytest.mark.parametrize("zoned", [False, True], ids=["plain", "zones"])
    @pytest.mark.parametrize("name", detector_names())
    def test_empty_batch_changes_nothing(
        self, small_recording, layout, name, zoned
    ):
        trace = small_recording.days[0].trace
        ids = trace.stream_ids
        times = trace.times
        matrix = np.column_stack([trace.streams[sid] for sid in ids])
        estimator = ZoneOccupancyEstimator(
            zone_map=ZoneMap.from_layout(layout), calibration_samples=60
        )

        def make():
            return OnlineDetector(
                ids,
                MDConfig(profile_init_s=30.0),
                sample_rate_hz=RATE,
                detector=get_detector(name),
                zones=estimator.streaming_engine(ids, layout) if zoned else None,
            )

        whole = make().process_block(times, matrix)
        # Cut inside the day's first open variation window, if it has one.
        open_at = np.flatnonzero(whole.durations > 0)
        cut = int(open_at[0]) + 1 if open_at.size else times.shape[0] // 2
        det = make()
        blocks = []
        for lo, hi in ((0, 0), (0, cut), (cut, cut), (cut, None)):
            before = json.dumps(det.snapshot())
            blocks.append(det.process_block(times[lo:hi], matrix[lo:hi]))
            if lo == hi:
                assert json.dumps(det.snapshot()) == before
        for empty in (blocks[0], blocks[2]):
            assert empty.std_sums.shape == empty.thresholds.shape == (0,)
            assert empty.durations.shape == (0,)
            assert empty.decisions.dtype == np.int8
            if zoned:
                assert empty.zone_scores.shape == (0, estimator.zone_map.n_zones)
                assert empty.zone_occupancy.dtype == np.int64
            else:
                assert empty.zone_scores is None
        for field in (
            "std_sums", "decisions", "thresholds", "durations",
            "zone_scores", "zone_occupancy",
        ):
            if getattr(whole, field) is None:
                assert all(getattr(b, field) is None for b in blocks)
                continue
            got = np.concatenate([getattr(b, field) for b in blocks])
            assert got.dtype == getattr(whole, field).dtype
            assert got.tobytes() == getattr(whole, field).tobytes()


@pytest.fixture(scope="module")
def sweep_recording():
    """One 600-s recorded day of the paper office (72 streams)."""
    scale = CampaignScale.compact().derive(
        "sweep-vs-live", n_days=1, day_duration_s=600.0
    )
    return collect_campaign(seed=3, scale=scale)


@st.composite
def md_configs(draw):
    """MD configs with ``batch_size`` on either side of ``init_samples``."""
    init = draw(st.integers(8, 160))
    if draw(st.booleans()):
        batch_size = draw(st.integers(init + 1, 2 * init))
    else:
        batch_size = draw(st.integers(1, init))
    return MDConfig(
        std_window_s=draw(st.sampled_from([0.5, 1.0, 2.0, 3.25, 5.0])),
        profile_init_s=init / RATE,
        batch_size=batch_size,
    )


def random_sizes(n, seed):
    """A random split of ``n`` samples into batches of 1 to 300 samples."""
    rng = np.random.default_rng(seed)
    sizes, left = [], n
    while left:
        sizes.append(int(min(rng.integers(1, 301), left)))
        left -= sizes[-1]
    return sizes


def assert_sweep_day_matches_live(day_eval, blocks, windows):
    """A sweep day equals a live detector's blocks from sample 1 on."""
    result = day_eval.md_result
    for field, got in (
        ("times", result.times),
        ("std_sums", result.std_sums),
        ("thresholds", result.threshold_trace),
    ):
        live = np.concatenate([getattr(b, field) for b in blocks])
        np.testing.assert_array_equal(got, live[1:])
    assert list(result.windows) == windows


class TestSweepMatchesLiveDetector:
    """One ``s_t`` from recording to router: the sweep reports what the
    live detector decides on the same recording, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(detector_names()),
        config=md_configs(),
        counts=st.lists(
            st.integers(3, 9), min_size=2, max_size=3, unique=True
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grid_matches_online_detector(
        self, sweep_recording, name, config, counts, seed
    ):
        detector = get_detector(name)
        fadewich = FadewichConfig(md=config)
        grid = evaluate_md_grid(
            sweep_recording, fadewich, counts, detector=detector
        )
        all_ids = sweep_recording.layout.sensor_ids
        for n in counts:
            ids = streams_for_sensors(sensor_subset(all_ids, n))
            for day, day_eval in zip(sweep_recording.days, grid[n].days):
                trace = day.trace.restricted_view(ids)
                matrix = np.column_stack([trace.streams[s] for s in ids])
                sizes = random_sizes(trace.n_samples, seed)
                live = OnlineDetector(
                    ids, config, sample_rate_hz=RATE, detector=detector
                )
                blocks = [
                    live.process_block(times, batch)
                    for times, batch in zip(
                        split_matrix(trace.times, sizes),
                        split_matrix(matrix, sizes),
                    )
                ]
                live.finalize()
                assert_sweep_day_matches_live(
                    day_eval, blocks, live.completed_windows
                )

    @pytest.mark.parametrize("name", detector_names())
    def test_grid_matches_ingest_router(self, sweep_recording, name):
        detector = get_detector(name)
        config = MDConfig(profile_init_s=30.0, batch_size=160)
        counts = (3, 6, 9)
        grid = evaluate_md_grid(
            sweep_recording, FadewichConfig(md=config), counts,
            detector=detector,
        )
        day = sweep_recording.days[0]
        all_ids = sweep_recording.layout.sensor_ids
        subsets = {
            f"office-{n}": streams_for_sensors(sensor_subset(all_ids, n))
            for n in counts
        }
        with IngestRouter(
            n_workers=2, config=config, sample_rate_hz=RATE, detector=detector
        ) as router:
            for tenant, ids in subsets.items():
                router.register(tenant, ids)
            sources = [
                DayRecordingSource(tenant, day, stream_ids=ids, batch_samples=4)
                for tenant, ids in subsets.items()
            ]
            for batch in merge_by_time(sources):
                router.submit(batch)
        for n in counts:
            state = router.tenant_state(f"office-{n}")
            assert_sweep_day_matches_live(
                grid[n].days[0], state.blocks, state.detector.completed_windows
            )


class StepOracle:
    """The variation-window automaton one observation at a time: the
    per-step rule :meth:`WindowTracker.extend` evaluates in closed form."""

    def __init__(self, gap):
        self.gap = gap
        self.window_start = self.last_anomalous_t = None
        self.completed = []

    def update(self, t, anomalous):
        if anomalous:
            if self.window_start is None:
                self.window_start = t
            self.last_anomalous_t = t
        elif self.window_start is not None and t - self.last_anomalous_t > self.gap:
            self.completed.append(
                VariationWindow(self.window_start, self.last_anomalous_t)
            )
            self.window_start = self.last_anomalous_t = None
        return 0.0 if self.window_start is None else t - self.window_start

    def finalize(self):
        if self.window_start is not None:
            self.completed.append(
                VariationWindow(self.window_start, self.last_anomalous_t)
            )
            self.window_start = self.last_anomalous_t = None


def oracle_run(times, flags, gap):
    """``(oracle, durations, open_after)`` of the oracle over a series."""
    oracle = StepOracle(gap)
    durations, open_after = [], []
    for t, f in zip(np.asarray(times, dtype=float).tolist(), flags):
        durations.append(oracle.update(t, bool(f)))
        open_after.append(oracle.window_start is not None)
    return oracle, np.array(durations, dtype=float), open_after


def tracker_run(times, flags, gap, sizes, tracker=None):
    """``(tracker, durations)`` of :meth:`WindowTracker.extend` fed in
    consecutive batches of the given sizes."""
    tracker = tracker if tracker is not None else WindowTracker(gap)
    flags = np.asarray(flags, dtype=bool)
    parts = [
        tracker.extend(t, f)
        for t, f in zip(split_matrix(times, sizes), split_matrix(flags, sizes))
    ]
    return tracker, np.concatenate(parts)


class TestWindowTracker:
    """The one variation-window automaton against the per-step oracle."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        gap_steps=st.integers(min_value=0, max_value=10),
        density=st.floats(min_value=0.02, max_value=1.0),
        on_grid=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_extend_matches_per_step_oracle(
        self, n, gap_steps, density, on_grid, seed, data
    ):
        rng = np.random.default_rng(seed)
        # On a quarter-second grid with holes, observations land exactly
        # one gap after an anomalous instant as well as either side of it.
        if on_grid:
            steps = 0.25 * rng.integers(1, 5, n)
        else:
            steps = rng.uniform(0.1, 0.6, n)
        times = 100.0 + np.cumsum(steps)
        flags = rng.random(n) < density
        gap = 0.25 * gap_steps
        oracle, want, open_after = oracle_run(times, flags, gap)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=6)))
        sizes = np.diff([0, *cuts, n]).tolist()  # empty batches included
        tracker, got = tracker_run(times, flags, gap, sizes)
        assert got.tobytes() == want.tobytes()
        assert tracker.completed_windows == oracle.completed
        state = tracker.snapshot()
        assert state["window_start"] == oracle.window_start
        assert state["last_anomalous_t"] == oracle.last_anomalous_t

        # A JSON round trip inside an open window continues identically.
        inside = [i + 1 for i, is_open in enumerate(open_after) if is_open]
        if inside:
            cut = data.draw(st.sampled_from(inside))
            head, first = tracker_run(times[:cut], flags[:cut], gap, [cut])
            assert head.snapshot()["window_start"] is not None
            resumed = WindowTracker(gap)
            resumed.restore(json.loads(json.dumps(head.snapshot())))
            _, rest = tracker_run(
                times[cut:], flags[cut:], gap, [n - cut], tracker=resumed
            )
            assert np.concatenate([first, rest]).tobytes() == want.tobytes()
            assert resumed.completed_windows == oracle.completed
            assert resumed.snapshot()["window_start"] == oracle.window_start
            resumed.finalize()
            oracle.finalize()
            assert resumed.completed_windows == oracle.completed

    @pytest.mark.parametrize("gap", [-0.25, float("nan")])
    def test_rejects_negative_or_nan_merge_gap(self, gap):
        with pytest.raises(ValueError, match="merge_gap_s"):
            WindowTracker(gap)


class TestMergeGapBoundaries:
    """S2: merge-gap edge cases agree between the per-step oracle and
    :meth:`WindowTracker.extend`, fed whole, one sample at a time and in
    batches of three."""

    GAP = 2.0

    def assert_all_equal(self, times, flags, gap=GAP):
        """Check every feed against the oracle; return the durations and
        the windows once EOF closes any open one."""
        oracle, want, _ = oracle_run(times, flags, gap)
        n = len(times)
        trackers = []
        for sizes in ([n], [1] * n, [3] * (n // 3) + [n % 3]):
            tracker, got = tracker_run(times, flags, gap, sizes)
            assert got.tobytes() == want.tobytes()
            assert tracker.completed_windows == oracle.completed
            assert tracker.snapshot()["window_start"] == oracle.window_start
            trackers.append(tracker)
        # EOF closes any open window, as MovementDetector.finalize does.
        oracle.finalize()
        for tracker in trackers:
            tracker.finalize()
            assert tracker.completed_windows == oracle.completed
        return want, oracle.completed

    def test_run_ending_exactly_merge_gap_before_next_merges(self):
        # The non-anomalous instant right before the second run arrives
        # exactly GAP after the first run's last anomalous sample: the
        # close rule is strictly `>`, so the runs must merge.
        times = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
        flags = [False, True, False, False, False, False, True, True, False]
        # times[6-1] - times[1] = 2.5 - 0.5 = GAP exactly.
        assert times[5] - times[1] == self.GAP
        _, windows = self.assert_all_equal(times, flags)
        assert windows == [VariationWindow(0.5, 3.5)]  # merged, not split

    def test_gap_one_sample_beyond_threshold_splits(self):
        times = np.arange(10) * 0.75
        flags = [False, True, False, False, False, False, True, True, False, False]
        # times[5] - times[1] = 3.0 > GAP: the window closed before the
        # second run, so two windows result.
        assert times[5] - times[1] > self.GAP
        _, windows = self.assert_all_equal(times, flags)
        assert len(windows) == 2

    def test_anomalous_final_sample_leaves_window_open_at_eof(self):
        times = np.arange(8) * 0.25
        flags = [False] * 6 + [True, True]
        durations, windows = self.assert_all_equal(times, flags)
        tracker, _ = tracker_run(times, flags, self.GAP, [8])
        # The window is still open at EOF: dW grows through the last sample.
        assert durations[-1] == pytest.approx(times[-1] - times[6])
        assert tracker.snapshot()["window_start"] == times[6]
        # Finalizing closes it at the last anomalous instant, exactly like
        # MovementDetector.finalize.
        tracker.finalize()
        assert tracker.completed_windows == windows
        assert windows[-1] == VariationWindow(times[6], times[-1])
        assert tracker.snapshot()["window_start"] is None

    def test_day_of_single_anomalous_sample(self):
        times = np.array([0.0])
        flags = [True]
        self.assert_all_equal(times, flags)

    def test_zero_merge_gap(self):
        times = np.arange(12) * 0.25
        flags = [bool(i % 2) for i in range(12)]
        self.assert_all_equal(times, flags, gap=0.0)


class TestStreamSources:
    def test_day_recording_source_covers_trace_exactly(self, small_recording):
        day = small_recording.days[0]
        ids = day.trace.stream_ids[:3]
        source = DayRecordingSource(
            "t0", day, stream_ids=ids, batch_samples=100
        )
        batches = list(source)
        assert sum(b.n_samples for b in batches) == day.trace.n_samples
        np.testing.assert_array_equal(
            np.concatenate([b.times for b in batches]), day.trace.times
        )
        matrix = np.column_stack([day.trace.streams[sid] for sid in ids])
        np.testing.assert_array_equal(
            np.vstack([b.samples for b in batches]), matrix
        )
        assert all(b.tenant == "t0" for b in batches)

    def test_sample_batch_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SampleBatch("t", np.array([0.0, 0.0]), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="equal length"):
            SampleBatch("t", np.array([0.0]), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="empty"):
            SampleBatch("t", np.empty(0), np.zeros((0, 1)))

    @NON_FINITE
    @POSITIONS
    def test_sample_batch_rejects_non_finite_times(self, bad, where):
        times = poisoned(np.array([0.0, 0.25, 0.5]), bad, where)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            SampleBatch("t", times, np.zeros((times.size, 1)))

    def test_merge_by_time_preserves_per_tenant_order(self, small_recording):
        sources = [
            DayRecordingSource(
                f"office-{i}",
                small_recording.days[i % small_recording.n_days],
                batch_samples=64 + 13 * i,
            )
            for i in range(4)
        ]
        merged = list(merge_by_time(sources))
        assert len(merged) == sum(
            len(list(DayRecordingSource(
                f"office-{i}",
                small_recording.days[i % small_recording.n_days],
                batch_samples=64 + 13 * i,
            )))
            for i in range(4)
        )
        # Global interleave is ordered by batch start time...
        starts = [b.t_first for b in merged]
        assert starts == sorted(starts)
        # ...and every tenant's own batches remain in time order.
        for i in range(4):
            own = [b for b in merged if b.tenant == f"office-{i}"]
            own_times = np.concatenate([b.times for b in own])
            assert np.all(np.diff(own_times) > 0)


class TestIngestRouter:
    N_TENANTS = 8

    def tenant_feeds(self, small_recording, rng):
        """Eight offices with distinct sensor subsets over the recording."""
        feeds = []
        for i in range(self.N_TENANTS):
            day = small_recording.days[i % small_recording.n_days]
            all_ids = day.trace.stream_ids
            ids = list(
                rng.choice(all_ids, size=3 + (i % 3), replace=False)
            )
            feeds.append((f"office-{i}", day, ids))
        return feeds

    def standalone_reference(self, day, ids, cfg):
        det = OnlineDetector(ids, cfg, sample_rate_hz=RATE)
        trace = day.trace.restricted_view(ids)
        matrix = np.column_stack([trace.streams[sid] for sid in ids])
        block = det.process_block(trace.times, matrix)
        det.finalize()
        return block, det.completed_windows

    @pytest.mark.parametrize("n_workers,queue_capacity", [(1, 64), (3, 2), (4, 8)])
    def test_eight_tenants_bit_identical_to_standalone(
        self, small_recording, rng, n_workers, queue_capacity
    ):
        cfg = MDConfig(profile_init_s=30.0)
        feeds = self.tenant_feeds(small_recording, rng)
        with IngestRouter(
            n_workers=n_workers,
            queue_capacity=queue_capacity,
            config=cfg,
            sample_rate_hz=RATE,
        ) as router:
            for tenant, day, ids in feeds:
                router.register(tenant, ids)
            sources = [
                DayRecordingSource(
                    tenant, day, stream_ids=ids, batch_samples=128
                )
                for tenant, day, ids in feeds
            ]
            for batch in merge_by_time(sources):
                router.submit(batch)
            router.drain()
            assert (
                router.stats.batches_processed
                == router.stats.batches_submitted
            )
            states = {
                tenant: router.tenant_state(tenant)
                for tenant, _, _ in feeds
            }
        # Router closed: every tenant's stream equals a standalone replay.
        for tenant, day, ids in feeds:
            state = states[tenant]
            got = state.concatenated()
            want, want_windows = self.standalone_reference(day, ids, cfg)
            np.testing.assert_array_equal(got.std_sums, want.std_sums)
            np.testing.assert_array_equal(got.decisions, want.decisions)
            np.testing.assert_array_equal(got.durations, want.durations)
            assert state.detector.completed_windows == want_windows
            assert state.n_samples == day.trace.n_samples

    def test_round_robin_sharding(self):
        router = IngestRouter(n_workers=3)
        try:
            shards = [
                router.register(f"t{i}", ["a", "b"]).shard for i in range(7)
            ]
            assert shards == [0, 1, 2, 0, 1, 2, 0]
            assert router.stats.n_tenants == 7
        finally:
            router.close()

    def test_unknown_tenant_rejected(self):
        with IngestRouter(n_workers=1) as router:
            with pytest.raises(KeyError, match="not registered"):
                router.submit(
                    SampleBatch("ghost", np.array([0.0]), np.zeros((1, 2)))
                )

    def test_duplicate_registration_rejected(self):
        with IngestRouter(n_workers=1) as router:
            router.register("t0", ["a"])
            with pytest.raises(ValueError, match="already registered"):
                router.register("t0", ["a"])

    def test_worker_failure_surfaces_on_drain(self):
        router = IngestRouter(n_workers=1, queue_capacity=4)
        router.register("t0", ["a", "b"])
        router.submit(
            SampleBatch("t0", np.array([0.0, 0.25]), np.zeros((2, 2)))
        )
        # Time goes backwards: drain() hits the detector's validation
        # error, which must surface as the router's failure, not vanish.
        router.submit(SampleBatch("t0", np.array([0.1]), np.zeros((1, 2))))
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            router.drain()
            router.close()

    def test_full_shard_is_processed_by_its_submitter(self):
        # The submit that fills the single shard to queue_capacity
        # processes it on the producer's thread, so the pending list
        # never grows past its bound.
        cfg = MDConfig(profile_init_s=5.0)
        router = IngestRouter(
            n_workers=1, queue_capacity=2, config=cfg, sample_rate_hz=RATE
        )
        try:
            router.register("t0", ["a"])
            n_batches, batch = 12, 25
            times = np.arange(n_batches * batch) / RATE
            progressed = []

            def producer():
                for i in range(n_batches):
                    lo = i * batch
                    router.submit(
                        SampleBatch(
                            "t0",
                            times[lo : lo + batch],
                            np.random.default_rng(i).normal(
                                size=(batch, 1)
                            ),
                        )
                    )
                    progressed.append(i)

            thread = threading.Thread(target=producer)
            thread.start()
            thread.join(timeout=30.0)
            assert not thread.is_alive()
            router.drain()
            state = router.tenant_state("t0")
            assert state.n_batches == n_batches
            # The pending list never held more than its capacity.
            assert router.stats.max_queue_depth <= 2
        finally:
            router.close()

    def test_producers_sharing_shards_keep_every_tenant_fifo(self):
        # Four producers feed eight tenants on two shards of capacity 3
        # under a short switch interval, so submits land while another
        # producer processes the same shard.
        cfg = MDConfig(profile_init_s=5.0)
        n_batches, batch = 30, 4
        times = np.arange(n_batches * batch) / RATE
        rng = np.random.default_rng(9)
        data = {
            f"t{i}": rng.normal(size=(n_batches * batch, 2)) for i in range(8)
        }
        router = IngestRouter(
            n_workers=2, queue_capacity=3, config=cfg, sample_rate_hz=RATE
        )
        for tenant in data:
            router.register(tenant, ["a", "b"])

        def producer(tenants):
            for k in range(n_batches):
                rows = slice(k * batch, (k + 1) * batch)
                for tenant in tenants:
                    router.submit(
                        SampleBatch(tenant, times[rows], data[tenant][rows])
                    )

        threads = [
            threading.Thread(target=producer, args=([f"t{i}", f"t{i + 4}"],))
            for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive(), "producer hung"
            router.drain()
        finally:
            sys.setswitchinterval(interval)
        assert (
            router.stats.batches_submitted
            == router.stats.batches_processed
            == 8 * n_batches
        )
        for tenant, matrix in data.items():
            state = router.tenant_state(tenant)
            want = OnlineDetector(
                ["a", "b"], cfg, sample_rate_hz=RATE
            ).process_block(times, matrix)
            got = state.concatenated()
            assert state.n_batches == n_batches
            np.testing.assert_array_equal(got.std_sums, want.std_sums)
            np.testing.assert_array_equal(got.decisions, want.decisions)
            np.testing.assert_array_equal(got.durations, want.durations)
        router.close()

    def test_submit_that_fills_the_shard_processes_it(self):
        router = IngestRouter(n_workers=1, queue_capacity=3)
        router.register("t0", ["a", "b"])
        processed = []
        for i in range(3):
            router.submit(
                SampleBatch("t0", np.array([i, i + 0.5]), np.zeros((2, 2)))
            )
            processed.append(router.tenant_state("t0").n_batches)
        assert processed == [0, 0, 3]
        assert router.stats.max_queue_depth == 3
        router.close()

    def test_router_starts_no_thread(self):
        before = threading.active_count()
        router = IngestRouter(n_workers=3)
        counts = [threading.active_count()]
        for i in range(3):
            router.register(f"t{i}", ["a", "b"])
        counts.append(threading.active_count())
        for i in range(3):
            router.submit(
                SampleBatch(f"t{i}", np.array([0.0, 0.25]), np.zeros((2, 2)))
            )
        counts.append(threading.active_count())
        router.drain()
        counts.append(threading.active_count())
        router.close()
        counts.append(threading.active_count())
        assert counts == [before] * 5
        assert router.stats.batches_processed == 3


class TestIngestRouterLifecycle:
    """Regression tests for the router's close/failure edges.

    ``submit()`` racing ``close()`` must either land its batch before
    ``close()`` processes the shard or raise, never leave it pending after
    the close, and ``close()``/``drain()`` after a processing failure must
    raise on every call, not only the first, so callers cannot miss it.
    """

    @staticmethod
    def one_batch(tenant="t0", t0=0.0):
        return SampleBatch(
            tenant, np.array([t0, t0 + 0.25]), np.zeros((2, 2))
        )

    @staticmethod
    def poison_router():
        """A router whose single shard has recorded a failure."""
        router = IngestRouter(n_workers=1, queue_capacity=4)
        router.register("t0", ["a", "b"])
        router.submit(
            SampleBatch("t0", np.array([0.0, 0.25]), np.zeros((2, 2)))
        )
        # Time goes backwards within the tenant's stream: the detector's
        # validation error becomes the router's recorded failure.
        router.submit(SampleBatch("t0", np.array([0.1]), np.zeros((1, 2))))
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            router.drain()
        return router

    def test_submit_after_close_raises(self):
        router = IngestRouter(n_workers=2)
        router.register("t0", ["a", "b"])
        router.close()
        with pytest.raises(RuntimeError, match="router is closed"):
            router.submit(self.one_batch())

    def test_register_after_close_raises(self):
        router = IngestRouter(n_workers=1)
        router.close()
        with pytest.raises(RuntimeError, match="router is closed"):
            router.register("late", ["a"])

    def test_drain_after_close_is_noop(self):
        router = IngestRouter(n_workers=2)
        router.register("t0", ["a", "b"])
        router.submit(self.one_batch())
        router.close()
        # Nothing is pending after close(): returns at once, repeatably.
        router.drain()
        router.drain()

    def test_double_drain_and_double_close_are_idempotent(self):
        router = IngestRouter(n_workers=1)
        router.register("t0", ["a", "b"])
        router.submit(self.one_batch())
        router.drain()
        router.drain()
        router.close()
        router.close()
        assert router.stats.batches_processed == 1

    def test_close_after_failure_raises_every_time(self):
        router = self.poison_router()
        for _ in range(3):
            with pytest.raises(RuntimeError, match="ingest worker failed"):
                router.close()

    def test_drain_after_failed_close_still_raises(self):
        router = self.poison_router()
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            router.close()
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            router.drain()

    def test_submit_and_register_after_failure_raise(self):
        router = self.poison_router()
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            router.submit(self.one_batch(t0=10.0))
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            router.register("t1", ["a"])
        with pytest.raises(RuntimeError, match="ingest worker failed"):
            router.close()

    def test_submit_racing_close_never_hangs_drain(self):
        # Hammer the submit/close race: producers submit as fast as they
        # can while the control thread closes.  Every submit must either
        # be fully processed or raise "router is closed" — none may stay
        # pending after close() has processed its shard.
        for attempt in range(5):
            router = IngestRouter(n_workers=2, queue_capacity=8)
            router.register("t0", ["a", "b"])
            router.register("t1", ["a", "b"])
            start = threading.Event()
            outcomes = []

            def producer(tenant, outcomes=outcomes):
                start.wait()
                t = 0.0
                while True:
                    try:
                        router.submit(
                            SampleBatch(
                                tenant,
                                np.array([t, t + 0.1]),
                                np.zeros((2, 2)),
                            )
                        )
                        outcomes.append("ok")
                    except RuntimeError:
                        outcomes.append("closed")
                        return
                    t += 1.0

            threads = [
                threading.Thread(target=producer, args=(f"t{i}",))
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            start.set()
            closer = threading.Thread(target=router.close)
            closer.start()
            closer.join(timeout=30.0)
            assert not closer.is_alive(), "close() hung"
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive(), "producer hung"
            # Every producer eventually observed the close...
            assert outcomes.count("closed") == 2
            # ...and every accepted batch was actually processed.
            assert (
                router.stats.batches_processed
                == router.stats.batches_submitted
                == outcomes.count("ok")
            )
