"""Zone-occupancy inference: geometry, estimator, streaming twin, sweep.

The zone workload rides the same equivalence discipline as the detector
zoo: the streaming :class:`ZoneEngine` must reproduce the offline
:meth:`ZoneOccupancyEstimator.offline_grid` bit for bit under *any*
batch split (hypothesis-random, partial smoothing head and calibration
boundary included), snapshots must round-trip through plain JSON, and
hosting inside :class:`OnlineDetector` / :class:`IngestRouter` must not
perturb a single value.  Accuracy against ground-truth walker
trajectories is pinned as goldens at seed 42, and a noise-free synthetic
channel must be recovered exactly.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import CampaignScale
from repro.analysis.scenarios import (
    ScenarioGrid,
    ScenarioSweepRunner,
    SweepReport,
)
from repro.core.config import MDConfig
from repro.radio.geometry import Point
from repro.radio.links import enumerate_stream_ids
from repro.radio.office import paper_office
from repro.simulation.collector import CampaignCollector
from repro.streaming import (
    DayRecordingSource,
    IngestRouter,
    OnlineDetector,
    merge_by_time,
)
from repro.zones import (
    AttenuationExtractor,
    Zone,
    ZoneEngine,
    ZoneMap,
    ZoneOccupancyEstimator,
    score_walks,
    stream_segments,
)

RATE = 4.0

#: Trimmed day length for the equivalence tests: long enough to cross
#: the calibration boundary (k=60) with decided instants on both sides.
N_EQ = 400


def split_matrix(matrix, sizes):
    out, pos = [], 0
    for s in sizes:
        out.append(matrix[pos : pos + s])
        pos += s
    assert pos == matrix.shape[0]
    return out


@pytest.fixture(scope="module")
def zone_map(layout):
    return ZoneMap.from_layout(layout)


@pytest.fixture(scope="module")
def estimator(zone_map):
    # Short calibration so the trimmed equivalence traces decide plenty
    # of instants past the boundary.
    return ZoneOccupancyEstimator(zone_map=zone_map, calibration_samples=60)


@pytest.fixture(scope="module")
def day_rssi(small_recording):
    """``(times, rssi, stream_ids)`` of day 0, trimmed to ``N_EQ`` rows."""
    trace = small_recording.days[0].trace
    ids = trace.stream_ids
    rssi = np.column_stack([trace.streams[sid] for sid in ids])[:N_EQ]
    return trace.times[:N_EQ], rssi, ids


@pytest.fixture(scope="module")
def offline_reference(estimator, small_recording, layout, day_rssi):
    """The offline grid over the trimmed day-0 attenuation matrix."""
    _, matrix, columns = estimator.attenuation.day_block(
        small_recording.days[0], layout
    )
    return estimator.offline_grid(matrix[:N_EQ], columns)


class TestZoneMap:
    def test_from_layout_geometry(self, layout, zone_map):
        assert zone_map.n_zones == 3
        assert [z.name for z in zone_map.zones] == ["z1", "z2", "z3"]
        x_min = min(z.x_min for z in zone_map.zones)
        x_max = max(z.x_max for z in zone_map.zones)
        assert x_min == 0.0 and x_max == layout.width
        # Every directed stream crosses at least one zone of a full
        # partition, and zone crossing sets cover all streams exactly.
        all_ids = set(enumerate_stream_ids(layout.sensor_ids))
        covered = set()
        for zone in zone_map.zones:
            covered.update(zone.stream_ids)
        assert covered == all_ids

    def test_crossing_counts_pinned(self, zone_map):
        # paper_office, 3x1 grid: the link-geometry golden.  Moves only
        # if the office layout or the Liang-Barsky clipping changes.
        assert [len(z.stream_ids) for z in zone_map.zones] == [30, 64, 52]

    def test_segments_match_stream_enumeration(self, layout):
        segments = stream_segments(layout)
        assert list(segments) == enumerate_stream_ids(layout.sensor_ids)

    def test_zone_of_boundary_tie_break(self, zone_map):
        # A point on the shared edge of z1/z2 resolves to the lower index
        # — the same tie-break argmax applies to equal zone scores.
        edge_x = zone_map.zones[0].x_max
        assert zone_map.zones[1].x_min == edge_x
        p = Point(edge_x, zone_map.zones[0].y_min + 0.1)
        assert zone_map.zone_of(p) == 0
        outside = Point(-1.0, -1.0)
        assert zone_map.zone_of(outside) == -1

    def test_jsonable_round_trip(self, zone_map):
        data = json.loads(json.dumps(zone_map.to_jsonable()))
        assert ZoneMap.from_jsonable(data) == zone_map

    def test_validation(self):
        with pytest.raises(ValueError, match="empty rectangle"):
            Zone(name="bad", x_min=1.0, y_min=0.0, x_max=1.0, y_max=2.0)
        z = Zone(name="a", x_min=0.0, y_min=0.0, x_max=1.0, y_max=1.0)
        with pytest.raises(ValueError, match="unique"):
            ZoneMap(zones=(z, z))
        with pytest.raises(ValueError, match="at least one zone"):
            ZoneMap(zones=())


class TestAttenuationExtractor:
    def test_day_block_is_baseline_minus_rssi(
        self, small_recording, layout
    ):
        extractor = AttenuationExtractor()
        day = small_recording.days[0]
        times, matrix, columns = extractor.day_block(day, layout)
        trace = day.trace
        assert np.array_equal(times, trace.times)
        expected = extractor.baseline(layout, trace.stream_ids)
        for j, sid in enumerate(trace.stream_ids):
            assert columns[sid] == j
            np.testing.assert_array_equal(
                matrix[:, j], expected[j] - trace.streams[sid]
            )

    def test_quiescent_links_sit_near_zero(self, small_recording, layout):
        # The baseline models the quiescent channel, so median attenuation
        # over a whole day stays within the shadowing scale of zero.
        _, matrix, _ = AttenuationExtractor().day_block(
            small_recording.days[0], layout
        )
        assert float(np.median(np.abs(np.median(matrix, axis=0)))) < 3.0


class TestStreamingEquivalence:
    def engine(self, estimator, layout, ids):
        return estimator.streaming_engine(ids, layout)

    def concat(self, engine, rssi, sizes):
        grids = [engine.extend(b) for b in split_matrix(rssi, sizes)]
        return (
            np.concatenate([g.scores for g in grids]),
            np.concatenate([g.occupied for g in grids]),
        )

    def assert_matches(self, got, reference):
        scores, occupied = got
        np.testing.assert_array_equal(scores, reference.scores)
        np.testing.assert_array_equal(occupied, reference.occupied)

    @pytest.mark.parametrize(
        "sizes",
        [
            [N_EQ],
            [1] * 50 + [N_EQ - 50],
            [3, 1, 59, 1, 128, N_EQ - 192],
            [59, 2, N_EQ - 61],  # straddles the calibration boundary
            [399, 1],
        ],
    )
    def test_fixed_batchings(
        self, estimator, layout, day_rssi, offline_reference, sizes
    ):
        _, rssi, ids = day_rssi
        got = self.concat(self.engine(estimator, layout, ids), rssi, sizes)
        self.assert_matches(got, offline_reference)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_batch_splits(
        self, estimator, layout, day_rssi, offline_reference, data
    ):
        _, rssi, ids = day_rssi
        sizes, left = [], N_EQ
        while left > 0:
            s = data.draw(st.integers(1, left))
            sizes.append(s)
            left -= s
        got = self.concat(self.engine(estimator, layout, ids), rssi, sizes)
        self.assert_matches(got, offline_reference)

    @pytest.mark.parametrize("cut", [17, 59, 60, 250])
    def test_snapshot_round_trip_mid_stream(
        self, estimator, layout, day_rssi, offline_reference, cut
    ):
        # Cut points before, at and after the calibration freeze; the
        # resumed engine must continue bitwise from a JSON checkpoint.
        _, rssi, ids = day_rssi
        engine = self.engine(estimator, layout, ids)
        first = engine.extend(rssi[:cut])
        state = json.loads(json.dumps(engine.snapshot()))
        resumed = ZoneEngine.from_snapshot(state)
        rest = resumed.extend(rssi[cut:])
        got = (
            np.concatenate([first.scores, rest.scores]),
            np.concatenate([first.occupied, rest.occupied]),
        )
        self.assert_matches(got, offline_reference)

    def test_empty_batch_is_identity(self, estimator, layout, day_rssi):
        _, rssi, ids = day_rssi
        engine = self.engine(estimator, layout, ids)
        empty = engine.extend(rssi[:0])
        assert empty.n_samples == 0
        a = engine.extend(rssi[:100])
        engine.extend(rssi[100:0])
        b = engine.extend(rssi[100:200])
        fresh = self.engine(estimator, layout, ids)
        whole = fresh.extend(rssi[:200])
        np.testing.assert_array_equal(
            np.concatenate([a.scores, b.scores]), whole.scores
        )

    def test_calibration_window_is_silent(self, offline_reference, estimator):
        k = estimator.calibration_samples
        assert np.isnan(offline_reference.scores[:k]).all()
        assert (offline_reference.occupied[:k] == -1).all()
        assert np.isfinite(offline_reference.scores[k:]).all()
        # The trimmed day must actually decide something past calibration,
        # or the equivalence tests above prove nothing.
        assert (offline_reference.occupied[k:] >= 0).any()


class TestHosting:
    def test_online_detector_attaches_zone_grid(
        self, estimator, layout, day_rssi, offline_reference
    ):
        times, rssi, ids = day_rssi
        det = OnlineDetector(
            ids,
            MDConfig(profile_init_s=30.0),
            sample_rate_hz=RATE,
            zones=estimator.streaming_engine(ids, layout),
        )
        block = det.process_block(times, rssi)
        np.testing.assert_array_equal(
            block.zone_scores, offline_reference.scores
        )
        np.testing.assert_array_equal(
            block.zone_occupancy, offline_reference.occupied
        )

    def test_without_zones_fields_stay_none(self, day_rssi):
        times, rssi, ids = day_rssi
        det = OnlineDetector(
            ids, MDConfig(profile_init_s=30.0), sample_rate_hz=RATE
        )
        block = det.process_block(times, rssi)
        assert block.zone_scores is None and block.zone_occupancy is None

    def test_stream_id_mismatch_rejected(self, estimator, layout, day_rssi):
        _, _, ids = day_rssi
        engine = estimator.streaming_engine(ids[:4], layout)
        with pytest.raises(ValueError, match="stream ids"):
            OnlineDetector(
                ids,
                MDConfig(profile_init_s=30.0),
                sample_rate_hz=RATE,
                zones=engine,
            )

    def test_detector_snapshot_carries_zone_state(
        self, estimator, layout, day_rssi, offline_reference
    ):
        times, rssi, ids = day_rssi
        cut = 150
        det = OnlineDetector(
            ids,
            MDConfig(profile_init_s=30.0),
            sample_rate_hz=RATE,
            zones=estimator.streaming_engine(ids, layout),
        )
        first = det.process_block(times[:cut], rssi[:cut])
        state = json.loads(json.dumps(det.snapshot()))
        resumed = OnlineDetector.from_snapshot(state)
        assert resumed.zones is not None
        rest = resumed.process_block(times[cut:], rssi[cut:])
        np.testing.assert_array_equal(
            np.concatenate([first.zone_scores, rest.zone_scores]),
            offline_reference.scores,
        )
        np.testing.assert_array_equal(
            np.concatenate([first.zone_occupancy, rest.zone_occupancy]),
            offline_reference.occupied,
        )

    def test_pre_zone_snapshots_still_load(self, day_rssi):
        # PR 9 checkpoints predate the "zones" key: they must restore to
        # a detector with no zone engine, not crash.
        _, _, ids = day_rssi
        det = OnlineDetector(
            ids, MDConfig(profile_init_s=30.0), sample_rate_hz=RATE
        )
        state = det.snapshot()
        state.pop("zones")
        assert OnlineDetector.from_snapshot(state).zones is None

    def test_router_hosts_per_tenant_zone_engines(
        self, estimator, layout, small_recording, offline_reference, day_rssi
    ):
        _, _, ids = day_rssi
        day = small_recording.days[0]
        cfg = MDConfig(profile_init_s=30.0)
        with IngestRouter(
            n_workers=2, config=cfg, sample_rate_hz=RATE
        ) as router:
            router.register(
                "plain", ids
            )
            router.register(
                "zoned", ids, zones=estimator.streaming_engine(ids, layout)
            )
            sources = [
                DayRecordingSource(t, day, stream_ids=ids, batch_samples=64)
                for t in ("plain", "zoned")
            ]
            for batch in merge_by_time(sources):
                router.submit(batch)
            router.drain()
            plain = router.tenant_state("plain").concatenated()
            zoned = router.tenant_state("zoned").concatenated()
        assert plain.zone_scores is None
        np.testing.assert_array_equal(
            zoned.zone_scores[:N_EQ], offline_reference.scores
        )
        np.testing.assert_array_equal(
            zoned.zone_occupancy[:N_EQ], offline_reference.occupied
        )
        # Detection outputs are untouched by the hosted zone engine.
        np.testing.assert_array_equal(plain.std_sums, zoned.std_sums)
        np.testing.assert_array_equal(plain.decisions, zoned.decisions)

    def test_restore_from_forbids_zone_override(
        self, estimator, layout, day_rssi
    ):
        _, _, ids = day_rssi
        det = OnlineDetector(
            ids, MDConfig(profile_init_s=30.0), sample_rate_hz=RATE
        )
        with IngestRouter(n_workers=1) as router:
            with pytest.raises(ValueError, match="restore_from"):
                router.register(
                    "t",
                    ids,
                    restore_from=det.snapshot(),
                    zones=estimator.streaming_engine(ids, layout),
                )


def _synthetic_map(n_zones):
    """Unit-square zones in a row: one private link each + one wall link.

    The wall link crosses every zone (weight ``1/n_zones``), each private
    link only its own (weight 1) — no zone's link set nests inside
    another's, so equal attenuation on exactly one zone's links makes
    that zone the strict argmax.
    """
    zones = tuple(
        Zone(
            name=f"z{i + 1}",
            x_min=float(i),
            y_min=0.0,
            x_max=float(i + 1),
            y_max=1.0,
            stream_ids=("wall", f"p{i}"),
        )
        for i in range(n_zones)
    )
    return ZoneMap(zones=zones)


class TestNoiseFreeRecovery:
    @settings(max_examples=50, deadline=None)
    @given(
        n_zones=st.integers(min_value=2, max_value=4),
        true_zone=st.integers(min_value=0, max_value=3),
        magnitude=st.floats(min_value=1.0, max_value=8.0),
        w=st.integers(min_value=1, max_value=5),
        n_occupied=st.integers(min_value=8, max_value=40),
    )
    def test_exact_recovery(self, n_zones, true_zone, magnitude, w, n_occupied):
        """A noise-free channel recovers the occupied zone exactly.

        Attenuation is zero through calibration, then exactly the true
        zone's crossing links attenuate by a constant.  Once the rolling
        mean settles (w samples), every instant must name the true zone;
        after the walker leaves, occupancy must return to none.
        """
        true_zone = true_zone % n_zones
        zone_map = _synthetic_map(n_zones)
        k = 8
        est = ZoneOccupancyEstimator(
            zone_map=zone_map, smoothing_samples=w, calibration_samples=k
        )
        ids = ["wall"] + [f"p{i}" for i in range(n_zones)]
        columns = {sid: j for j, sid in enumerate(ids)}
        hot = set(zone_map.zones[true_zone].stream_ids)
        n = k + n_occupied + w + 10
        matrix = np.zeros((n, len(ids)))
        occupied_rows = slice(k, k + n_occupied)
        for sid in hot:
            matrix[occupied_rows, columns[sid]] = magnitude
        grid = est.offline_grid(matrix, columns)
        assert (grid.occupied[:k] == -1).all()
        settled = slice(k + w - 1, k + n_occupied)
        assert (grid.occupied[settled] == true_zone).all()
        # Once the step has fully left the smoothing window, quiet again.
        assert (grid.occupied[k + n_occupied + w - 1 :] == -1).all()

    def test_streaming_twin_on_synthetic_channel(self):
        # The same synthetic day through a ZoneEngine (RSSI = -attenuation
        # under zero baselines) stays bitwise equal to the offline grid.
        zone_map = _synthetic_map(3)
        est = ZoneOccupancyEstimator(
            zone_map=zone_map, smoothing_samples=3, calibration_samples=8
        )
        ids = ["wall", "p0", "p1", "p2"]
        columns = {sid: j for j, sid in enumerate(ids)}
        matrix = np.zeros((40, 4))
        matrix[8:30, [0, 2]] = 2.0  # zone z2's links: wall + p1
        reference = est.offline_grid(matrix, columns)
        assert (reference.occupied[10:30] == 1).all()
        engine = ZoneEngine(
            zone_map=zone_map,
            stream_ids=ids,
            baselines={sid: 0.0 for sid in ids},
            smoothing_samples=3,
            calibration_samples=8,
            threshold_db=est.threshold_db,
        )
        grids = [engine.extend(b) for b in split_matrix(-matrix, [5, 8, 27])]
        np.testing.assert_array_equal(
            np.concatenate([g.scores for g in grids]), reference.scores
        )
        np.testing.assert_array_equal(
            np.concatenate([g.occupied for g in grids]), reference.occupied
        )


def zone_oracle(zone_map, att, columns, w, k, threshold_db):
    """Per-instant zone scores and occupancy, written out loop by loop.

    Each link's attenuation is smoothed by the mean of its last ``w``
    values (fewer at the start), calibrated by the median of its first
    ``k`` smoothed values and rectified.  Zone ``z`` scores the mean of its
    present links' excess, each weighted by ``1 / zones it crosses``,
    added in the zone's stream order; a zone no present link crosses
    scores 0.0.  The highest score (the lowest zone on ties) is occupied
    when it clears the threshold.
    """
    n = att.shape[0]
    crossed = {}
    for zone in zone_map.zones:
        for sid in zone.stream_ids:
            crossed[sid] = crossed.get(sid, 0) + 1
    present = [
        [sid for sid in zone.stream_ids if sid in columns]
        for zone in zone_map.zones
    ]
    excess = {}
    for sid in {sid for sids in present for sid in sids}:
        col = np.ascontiguousarray(att[:, columns[sid]])
        smoothed = np.array(
            [np.mean(col[max(0, i - w + 1) : i + 1]) for i in range(n)]
        )
        calib = np.median(smoothed[:k])
        excess[sid] = [max(smoothed[i] - calib, 0.0) for i in range(n)]
    scores = np.full((n, zone_map.n_zones), np.nan)
    occupied = np.full(n, -1, dtype=np.int64)
    for i in range(k, n):
        for z, sids in enumerate(present):
            num, den = None, 0.0
            for sid in sids:
                term = excess[sid][i] * (1.0 / crossed[sid])
                num = term if num is None else num + term
                den += 1.0 / crossed[sid]
            scores[i, z] = 0.0 if num is None else num / den
        best = 0
        for z in range(1, zone_map.n_zones):
            if scores[i, z] > scores[i, best]:
                best = z
        if scores[i, best] > threshold_db:
            occupied[i] = best
    return scores, occupied


@pytest.fixture(scope="module")
def sensor_subsets(layout, zone_map):
    """Every subset of 2+ sensors, keyed by whether it leaves a zone with
    no crossing link."""
    split = {True: [], False: []}
    for r in range(2, len(layout.sensor_ids) + 1):
        for subset in itertools.combinations(layout.sensor_ids, r):
            ids = set(enumerate_stream_ids(list(subset)))
            empty = any(not ids & set(z.stream_ids) for z in zone_map.zones)
            split[empty].append(list(subset))
    return split


class TestPerInstantOracle:
    """Offline grid and engine against :func:`zone_oracle`, sensor subsets
    that leave a zone with no crossing link included."""

    @pytest.mark.parametrize("empty_zone", [True, False])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_offline_and_streaming_match_the_loop(
        self, layout, zone_map, sensor_subsets, empty_zone, data
    ):
        sensors = data.draw(
            st.sampled_from(sensor_subsets[empty_zone]), label="sensors"
        )
        w = data.draw(st.integers(1, 5), label="w")
        k = data.draw(st.integers(1, 30), label="k")
        n = k + data.draw(st.integers(1, 60), label="decided")
        threshold = data.draw(st.sampled_from([0.0, 0.25, 1.0]), label="th")
        decimals = data.draw(st.integers(0, 2), label="decimals")
        ids = enumerate_stream_ids(sensors)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        rssi = np.round(-60.0 + 3.0 * rng.standard_normal((n, len(ids))), decimals)
        est = ZoneOccupancyEstimator(
            zone_map=zone_map,
            smoothing_samples=w,
            calibration_samples=k,
            threshold_db=threshold,
        )
        engine = est.streaming_engine(ids, layout)
        baselines = engine.snapshot()["baselines"]
        att = np.column_stack(
            [baselines.get(sid, 0.0) - rssi[:, j] for j, sid in enumerate(ids)]
        )
        columns = {sid: j for j, sid in enumerate(ids)}
        want_scores, want_occupied = zone_oracle(
            zone_map, att, columns, w, k, threshold
        )

        offline = est.offline_grid(att, columns)
        sizes = data.draw(st.lists(st.integers(0, 9), max_size=n), label="splits")
        sizes.append(max(n - sum(sizes), 0))
        grids, pos = [], 0
        for size in sizes:
            grids.append(engine.extend(rssi[pos : pos + size]))
            pos = min(pos + size, n)
        streamed = (
            np.concatenate([g.scores for g in grids]),
            np.concatenate([g.occupied for g in grids]),
        )
        for scores, occupied in ((offline.scores, offline.occupied), streamed):
            np.testing.assert_array_equal(
                scores.view(np.uint64), want_scores.view(np.uint64)
            )
            np.testing.assert_array_equal(occupied, want_occupied)


class TestGoldenAccuracy:
    """Zone accuracy on the seed-42 compact campaign, pinned exactly.

    The counts are integers, so any drift in the channel, the walker
    plans, the attenuation baseline or the estimator shows up as a hard
    failure, not a tolerance creep.
    """

    @pytest.fixture(scope="class")
    def golden_accuracy(self, layout, zone_map):
        scale = CampaignScale.compact().derive(
            "zone-golden", n_days=2, day_duration_s=1200.0
        )
        collector = CampaignCollector(layout, seed=42)
        schedule = collector.make_schedule(
            scale.n_days, scale.day_duration_s, scale.profiles_for(layout)
        )
        base = collector.next_generated_base()
        recording = collector.collect(schedule, seed_base=base)
        est = ZoneOccupancyEstimator(zone_map=zone_map)
        total = None
        for day, day_schedule in zip(recording.days, schedule.days):
            times, grid = est.day_grid(day, layout)
            walks = collector.day_walks(day_schedule, seed_base=base)
            trajectories = [
                traj
                for walk_list in walks.values()
                for (_, traj, _) in walk_list
            ]
            acc = score_walks(zone_map, times, grid.occupied, trajectories)
            total = acc if total is None else total + acc
        return total

    def test_pinned_counts(self, golden_accuracy):
        assert golden_accuracy.n_instants == 178
        assert golden_accuracy.n_predicted == 175
        assert golden_accuracy.n_correct == 106

    def test_derived_rates(self, golden_accuracy):
        assert golden_accuracy.accuracy == pytest.approx(106 / 175)
        assert golden_accuracy.coverage == pytest.approx(175 / 178)
        # Far above the 1/3 chance level of a 3-zone map.
        assert golden_accuracy.accuracy > 0.5


class TestSweepIntegration:
    @pytest.fixture(scope="class")
    def zone_report(self, layout, zone_map):
        scale = CampaignScale.compact().derive(
            "zone-sweep", n_days=1, day_duration_s=600.0
        )
        grid = ScenarioGrid(
            layouts=[layout],
            scales=[scale],
            sensor_counts=(3,),
        )
        est = ZoneOccupancyEstimator(zone_map=zone_map)
        runner = ScenarioSweepRunner(
            grid,
            seed=11,
            mode="serial",
            re_sensor_counts=(),
            zone_estimator=est,
        )
        return runner.run()

    def test_results_carry_zone_accuracy(self, zone_report):
        result = zone_report.results[0]
        assert result.zone_accuracy is not None
        keys = set(result.zone_accuracy)
        assert keys == {
            "n_instants",
            "n_predicted",
            "n_correct",
            "accuracy",
            "coverage",
        }
        assert result.zone_accuracy["n_instants"] > 0

    def test_report_round_trip_and_summary(self, zone_report):
        data = json.loads(json.dumps(zone_report.to_dict()))
        back = SweepReport.from_dict(data)
        assert (
            back.results[0].zone_accuracy
            == zone_report.results[0].zone_accuracy
        )
        summary = zone_report.zone_summary()
        assert len(summary) == len(zone_report.results)
        assert summary[0]["scenario"] == zone_report.results[0].spec.name
        assert "zone accuracy:" in zone_report.render()

    def test_without_estimator_no_zone_payload(self, layout):
        scale = CampaignScale.compact().derive(
            "zone-none", n_days=1, day_duration_s=600.0
        )
        grid = ScenarioGrid(
            layouts=[layout], scales=[scale], sensor_counts=(3,)
        )
        report = ScenarioSweepRunner(
            grid, seed=11, mode="serial", re_sensor_counts=()
        ).run()
        assert report.results[0].zone_accuracy is None
        assert report.zone_summary() == []
        assert "zone accuracy:" not in report.render()

    def test_zones_scored_once_per_recording(
        self, layout, zone_map, monkeypatch
    ):
        # Zone accuracy reads neither the detector nor the FADEWICH
        # config: a 3-detector grid scores each recording's days once.
        scale = CampaignScale.compact().derive(
            "zone-once", n_days=2, day_duration_s=300.0
        )
        grid = ScenarioGrid(
            layouts=[layout],
            scales=[scale],
            detectors=["kde_md", "ema_mad", "variance"],
            n_replicates=2,
            sensor_counts=(3,),
        )
        runner = ScenarioSweepRunner(
            grid,
            seed=11,
            mode="serial",
            re_sensor_counts=(),
            zone_estimator=ZoneOccupancyEstimator(zone_map=zone_map),
        )
        day_grid = ZoneOccupancyEstimator.day_grid
        calls = []

        def counting_day_grid(self, *args, **kwargs):
            calls.append(1)
            return day_grid(self, *args, **kwargs)

        monkeypatch.setattr(
            ZoneOccupancyEstimator, "day_grid", counting_day_grid
        )
        report = runner.run()
        n_recordings, n_days = 2, 2
        assert len(report.results) == 3 * n_recordings
        assert len(calls) == n_recordings * n_days
        # Every variant carries its own dict, equal to scoring it alone.
        variants = {}
        for result in report.results:
            key = result.spec.simulation_key()
            variants.setdefault(key, []).append(id(result.zone_accuracy))
        assert [len(set(ids)) for ids in variants.values()] == [3, 3]
        per_spec = SweepReport(
            results=[
                runner.analyze(result.spec, result.recording)
                for result in report.results
            ],
            seed_entropy=report.seed_entropy,
        )
        assert len(calls) == (1 + 3) * n_recordings * n_days
        assert json.dumps(per_spec.to_dict(), sort_keys=True) == json.dumps(
            report.to_dict(), sort_keys=True
        )

    def test_store_key_fingerprints(self, layout, zone_map):
        scale = CampaignScale.compact().derive(
            "zone-key", n_days=1, day_duration_s=600.0
        )
        grid = ScenarioGrid(
            layouts=[layout], scales=[scale], sensor_counts=(3,)
        )
        est = ZoneOccupancyEstimator(zone_map=zone_map)
        tuned = ZoneOccupancyEstimator(zone_map=zone_map, threshold_db=0.5)

        def key(estimator):
            runner = ScenarioSweepRunner(
                grid,
                seed=11,
                mode="serial",
                re_sensor_counts=(),
                zone_estimator=estimator,
            )
            return runner.store_key(list(grid)[0])

        base, same = key(est), key(est)
        assert same == base
        assert "features" in base and base["features"]
        # An estimator config change must invalidate store records...
        assert key(tuned)["zones"] != base["zones"]
        # ...while detection-only sweeps key with zones=None but keep the
        # feature fingerprint (shared with the zone path's std features).
        none_key = key(None)
        assert none_key["zones"] is None
        assert none_key["features"] == base["features"]


def test_default_profiles_make_walks(layout):
    # Guard for the trap that motivated scale.profiles_for everywhere:
    # compact-scale days actually contain scoreable walker trajectories.
    scale = CampaignScale.compact().derive(
        "walks", n_days=1, day_duration_s=600.0
    )
    collector = CampaignCollector(layout, seed=7)
    schedule = collector.make_schedule(
        1, 600.0, scale.profiles_for(layout)
    )
    base = collector.next_generated_base()
    walks = collector.day_walks(schedule.days[0], seed_base=base)
    assert sum(len(v) for v in walks.values()) > 0
