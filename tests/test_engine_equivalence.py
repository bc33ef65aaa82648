"""Equivalence regression tests: batch engine vs. scalar reference.

The vectorised batch engine (``CampaignCollector.collect_day``,
``RadioChannel.sample_block``) must produce *bit-identical* output to the
per-step reference path (``collect_day_scalar`` / ``sample_vector``): both
consume the same per-purpose random streams in the same order.  These tests
pin that contract across seeds, layouts and schedule shapes, and extend it
to the parallel :class:`~repro.simulation.runner.CampaignRunner`.
"""

import numpy as np
import pytest

from repro.mobility.events import EventKind
from repro.mobility.person import Person, PresenceState
from repro.mobility.scheduler import DaySchedule, PlannedMovement
from repro.mobility.trajectory import walk_through
from repro.radio.channel import RadioChannel
from repro.radio.geometry import Point
from repro.radio.links import LinkSet
from repro.radio.office import paper_office
from repro.simulation.collector import CampaignCollector, derive_seed_sequence
from repro.simulation.runner import CampaignRunner

SEEDS = (0, 7, 1234)


def small_office():
    """The paper office restricted to five sensors (second layout)."""
    return paper_office().with_sensors(["d1", "d2", "d3", "d4", "d5"])


def busy_day(day_index=0):
    """A compact day exercising departures, entries, internal moves and a
    visitor, including back-to-back movements."""
    return DaySchedule(
        day_index=day_index,
        duration_s=360.0,
        movements=[
            PlannedMovement(EventKind.INTERNAL_MOVE, "u2", "w2", 40.0),
            PlannedMovement(EventKind.ENTRY, "guest", "w3", 70.0),
            PlannedMovement(EventKind.DEPARTURE, "u1", "w1", 120.0, absence_s=60.0),
            PlannedMovement(EventKind.ENTRY, "u1", "w1", 200.0),
            PlannedMovement(EventKind.INTERNAL_MOVE, "u3", "w3", 250.0),
            PlannedMovement(EventKind.DEPARTURE, "u2", "w2", 300.0, absence_s=200.0),
        ],
    )


def assert_days_identical(a, b):
    np.testing.assert_array_equal(a.trace.times, b.trace.times)
    assert a.trace.stream_ids == b.trace.stream_ids
    for sid in a.trace.stream_ids:
        np.testing.assert_array_equal(
            a.trace.streams[sid], b.trace.streams[sid], err_msg=f"stream {sid}"
        )
    key = lambda e: (e.kind, e.time, e.user_id, e.workstation_id, e.exit_time)
    assert [key(e) for e in a.events] == [key(e) for e in b.events]
    assert set(a.activity) == set(b.activity)
    for wid in a.activity:
        np.testing.assert_array_equal(
            a.activity[wid].active_bins, b.activity[wid].active_bins
        )
        assert a.activity[wid].bin_seconds == b.activity[wid].bin_seconds
        assert a.activity[wid].start_time == b.activity[wid].start_time


class TestBatchScalarEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make_layout", [paper_office, small_office])
    def test_collect_day_matches_scalar(self, seed, make_layout):
        layout = make_layout()
        batch = CampaignCollector(layout, seed=seed).collect_day(busy_day())
        scalar = CampaignCollector(layout, seed=seed).collect_day_scalar(
            busy_day()
        )
        assert_days_identical(batch, scalar)

    def test_generated_schedule_matches_scalar(self):
        layout = paper_office()
        collector_a = CampaignCollector(layout, seed=99)
        collector_b = CampaignCollector(layout, seed=99)
        from repro.mobility.behavior import BehaviorProfile
        from repro.mobility.scheduler import ScheduleGenerator

        profile = BehaviorProfile(
            departures_per_hour=8.0,
            mean_absence_s=90.0,
            min_absence_s=40.0,
            internal_moves_per_hour=3.0,
        )
        generator = ScheduleGenerator(
            layout,
            {w.workstation_id: profile for w in layout.workstations},
            rng=np.random.default_rng(5),
        )
        day = generator.generate_day(2, 900.0)
        assert_days_identical(
            collector_a.collect_day(day), collector_b.collect_day_scalar(day)
        )

    def test_overlapping_walks_match_scalar(self):
        # Walks replaced mid-flight (no overlap-free guarantee) must still
        # replay identically.
        layout = small_office()
        day = DaySchedule(
            day_index=1,
            duration_s=120.0,
            movements=[
                PlannedMovement(EventKind.DEPARTURE, "u1", "w1", 30.0),
                PlannedMovement(EventKind.ENTRY, "u1", "w1", 32.0),
                PlannedMovement(EventKind.DEPARTURE, "u1", "w1", 33.5),
            ],
        )
        batch = CampaignCollector(layout, seed=3).collect_day(day)
        scalar = CampaignCollector(layout, seed=3).collect_day_scalar(day)
        assert_days_identical(batch, scalar)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equivalence_holds_without_quantization(self, seed):
        # With quantization disabled nothing rounds away ulp-level drift,
        # so this pins the bit-for-bit contract at full float precision.
        from repro.radio.channel import ChannelConfig

        layout = paper_office()
        config = ChannelConfig(quantization_db=0.0)
        batch = CampaignCollector(
            layout, seed=seed, channel_config=config
        ).collect_day(busy_day())
        scalar = CampaignCollector(
            layout, seed=seed, channel_config=config
        ).collect_day_scalar(busy_day())
        assert_days_identical(batch, scalar)

    def test_duplicate_day_indices_rejected(self):
        # Two days with the same index would silently share random streams.
        from repro.mobility.scheduler import CampaignSchedule

        layout = small_office()
        schedule = CampaignSchedule(days=[busy_day(0), busy_day(0)])
        with pytest.raises(ValueError, match="duplicate day_index"):
            CampaignCollector(layout, seed=1).collect(schedule)
        with pytest.raises(ValueError, match="duplicate day_index"):
            CampaignRunner(layout, seed=1, mode="serial").run(schedule)

    def test_collect_day_is_idempotent(self):
        # Day streams derive from (root entropy, day index): collecting the
        # same day twice, in any order, yields identical recordings.
        layout = paper_office()
        collector = CampaignCollector(layout, seed=21)
        first = collector.collect_day(busy_day(day_index=4))
        collector.collect_day(busy_day(day_index=0))  # interleave another day
        second = collector.collect_day(busy_day(day_index=4))
        assert_days_identical(first, second)


class TestChannelBlockEquivalence:
    def _channel_pair(self, seed=13):
        layout = paper_office()
        links = LinkSet(layout, np.random.default_rng(0))
        root = np.random.SeedSequence(seed)
        mk = lambda: RadioChannel(
            links, sample_interval_s=0.25, seed_seq=derive_seed_sequence(root, 9)
        )
        return mk(), mk()

    def test_sample_block_matches_sample_vector(self):
        ch_block, ch_scalar = self._channel_pair()
        n_steps, n_bodies = 50, 2
        rng = np.random.default_rng(1)
        pos = rng.uniform(0.5, 2.5, size=(n_steps, n_bodies, 2))
        speeds = rng.uniform(0.0, 1.5, size=(n_steps, n_bodies))
        presence = rng.random((n_steps, n_bodies)) < 0.7

        block = ch_block.sample_block(pos, speeds, presence)
        for step in range(n_steps):
            bodies = [
                Point(*pos[step, b]) for b in range(n_bodies) if presence[step, b]
            ]
            sp = [speeds[step, b] for b in range(n_bodies) if presence[step, b]]
            row = ch_scalar.sample_vector(bodies, sp)
            np.testing.assert_array_equal(block[step], row, err_msg=f"step {step}")

    def test_sample_block_chunking_is_transparent(self):
        ch_a, ch_b = self._channel_pair(seed=77)
        n_steps = RadioChannel.BLOCK_CHUNK_STEPS + 37  # straddle a boundary
        pos = np.full((n_steps, 1, 2), 1.5)
        a = ch_a.sample_block(pos)
        b_first = ch_b.sample_block(pos[: n_steps // 2])
        b_second = ch_b.sample_block(pos[n_steps // 2 :])
        np.testing.assert_array_equal(a, np.vstack([b_first, b_second]))

    def test_sample_block_validates_shapes(self):
        ch, _ = self._channel_pair()
        with pytest.raises(ValueError):
            ch.sample_block(np.zeros((4, 1, 3)))
        with pytest.raises(ValueError):
            ch.sample_block(np.zeros((4, 1, 2)), speeds=np.zeros((3, 1)))
        with pytest.raises(ValueError):
            ch.sample_block(np.zeros((4, 1, 2)), presence=np.zeros((4, 2), bool))


class TestPersonReplayEquivalence:
    def test_positions_over_matches_scalar_state_machine(self):
        times = np.arange(0, 120.0, 0.25)
        seat = Point(1.0, 1.0)
        traj_out = walk_through([seat, Point(3.0, 2.0)], 30.0, pauses=[1.0])
        traj_back = walk_through([Point(3.0, 2.0), Point(2.0, 0.5)], 60.0)
        walks = [
            (int(np.searchsorted(times, traj_out.start_time)), traj_out,
             PresenceState.ABSENT),
            (int(np.searchsorted(times, traj_back.start_time)), traj_back,
             PresenceState.SEATED),
        ]
        ss = np.random.SeedSequence(42)
        batch_person = Person("u1", "w1", seat)
        xy, present, walking = batch_person.positions_over(
            times, np.random.default_rng(ss), walks
        )

        scalar_person = Person("u1", "w1", seat)
        rng = np.random.default_rng(ss)
        wi = 0
        for k, t in enumerate(times):
            while wi < len(walks) and walks[wi][0] <= k:
                scalar_person.start_walk(walks[wi][1], walks[wi][2])
                wi += 1
            scalar_person.update(float(t))
            pos = scalar_person.position_at(float(t), rng)
            assert present[k] == (pos is not None)
            assert walking[k] == (
                scalar_person.state is PresenceState.WALKING
            )
            if pos is not None:
                assert xy[k, 0] == pos.x and xy[k, 1] == pos.y


class TestRunnerEquivalence:
    def _schedule(self):
        from repro.mobility.scheduler import CampaignSchedule

        return CampaignSchedule(days=[busy_day(0), busy_day(1), busy_day(2)])

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_runner_matches_serial_collector(self, mode):
        layout = paper_office()
        schedule = self._schedule()
        serial = CampaignCollector(layout, seed=11).collect(schedule)
        parallel = CampaignRunner(layout, seed=11, mode=mode).run(schedule)
        assert parallel.n_days == serial.n_days
        for a, b in zip(serial.days, parallel.days):
            assert_days_identical(a, b)

    def test_run_many_campaigns_reproducible_and_independent(self):
        layout = small_office()
        schedule = self._schedule()
        first = CampaignRunner(layout, seed=5, mode="process").run_many(
            [schedule, schedule]
        )
        second = CampaignRunner(layout, seed=5, mode="serial").run_many(
            [schedule, schedule]
        )
        for c1, c2 in zip(first, second):
            for a, b in zip(c1.days, c2.days):
                assert_days_identical(a, b)
        # Different campaign indices derive different child seeds.
        sid = first[0].days[0].trace.stream_ids[0]
        assert not np.array_equal(
            first[0].days[0].trace.streams[sid],
            first[1].days[0].trace.streams[sid],
        )

    def test_run_many_matches_seeded_collectors(self):
        layout = small_office()
        schedule = self._schedule()
        runner = CampaignRunner(layout, seed=8, mode="serial")
        results = runner.run_many([schedule])
        direct = runner._make_collector(runner.campaign_seed(0)).collect(schedule)
        for a, b in zip(direct.days, results[0].days):
            assert_days_identical(a, b)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            CampaignRunner(paper_office(), mode="fork-bomb")
        with pytest.raises(ValueError, match="mode"):
            CampaignRunner(paper_office(), mode="thread")

    def test_repeated_generated_campaigns_are_decorrelated(self):
        # Generated campaigns renumber their days from zero; each draw must
        # still get fresh noise streams (regression: repeated campaigns
        # once replayed >50% bit-identical samples).
        from repro.mobility.behavior import BehaviorProfile

        layout = paper_office()
        collector = CampaignCollector(layout, seed=42)
        profiles = {
            w.workstation_id: BehaviorProfile(
                departures_per_hour=6.5,
                mean_absence_s=150.0,
                min_absence_s=45.0,
            )
            for w in layout.workstations
        }
        first = collector.collect_generated(
            n_days=1, day_duration_s=600.0, profiles=profiles
        )
        second = collector.collect_generated(
            n_days=1, day_duration_s=600.0, profiles=profiles
        )
        a = np.column_stack(
            [first.days[0].trace.streams[s] for s in first.days[0].trace.stream_ids]
        )
        b = np.column_stack(
            [second.days[0].trace.streams[s] for s in second.days[0].trace.stream_ids]
        )
        # Quantised RSSI coincides by chance (~20-25%); shared streams would
        # push this beyond 50%.
        assert (a == b).mean() < 0.35

    def test_run_generated_matches_collect_generated(self):
        from repro.mobility.behavior import BehaviorProfile

        layout = small_office()
        profiles = {
            w.workstation_id: BehaviorProfile(
                departures_per_hour=8.0, mean_absence_s=90.0, min_absence_s=40.0
            )
            for w in layout.workstations
        }
        runner = CampaignRunner(layout, seed=9, mode="serial")
        collector = CampaignCollector(layout, seed=9)
        # Two successive draws must match the stateful collector draw for
        # draw (schedule stream and per-campaign seed base both advance).
        for _ in range(2):
            via_runner = runner.run_generated(
                n_days=1, day_duration_s=600.0, profiles=profiles
            )
            direct = collector.collect_generated(
                n_days=1, day_duration_s=600.0, profiles=profiles
            )
            for a, b in zip(direct.days, via_runner.days):
                assert_days_identical(a, b)

    def test_process_mode_bit_identical_over_multi_day_schedule(self):
        """Serial mode shares one collector across all days of a scenario;
        that is only sound if ``collect_day`` never touches the structural
        stream or any other collector state.  Lock bit-identity against
        process workers, which build a fresh collector per day, over a
        generated multi-day schedule large enough that several workers
        really run."""
        from repro.mobility.behavior import BehaviorProfile
        from repro.mobility.scheduler import ScheduleGenerator

        layout = paper_office()
        profile = BehaviorProfile(
            departures_per_hour=8.0,
            mean_absence_s=90.0,
            min_absence_s=40.0,
            internal_moves_per_hour=3.0,
        )
        schedule = ScheduleGenerator(
            layout,
            {w.workstation_id: profile for w in layout.workstations},
            rng=np.random.default_rng(13),
        ).generate_campaign(6, 500.0)

        serial = CampaignRunner(layout, seed=21, mode="serial").run(schedule)
        parallel = CampaignRunner(
            layout, seed=21, mode="process", max_workers=4
        ).run(schedule)
        assert parallel.n_days == serial.n_days == 6
        for a, b in zip(serial.days, parallel.days):
            assert_days_identical(a, b)

    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_run_tasks_mixes_layouts_and_seeds(self, mode):
        """Heterogeneous day tasks (different layouts, channels and seeds in
        one pool) must each match a dedicated serial collector."""
        from repro.radio.channel import ChannelConfig
        from repro.simulation.runner import DayTask

        big, small = paper_office(), small_office()
        quiet = ChannelConfig(slow_drift_sigma_db=0.1)
        seed_a = np.random.SeedSequence(3)
        seed_b = np.random.SeedSequence(4)
        tasks = [
            DayTask(day=busy_day(0), seed_seq=seed_a, layout=big),
            DayTask(
                day=busy_day(0),
                seed_seq=seed_a,
                layout=small,
                channel_config=quiet,
            ),
            DayTask(day=busy_day(1), seed_seq=seed_b, layout=small),
            DayTask(day=busy_day(2), seed_seq=seed_a, layout=big),
        ]
        runner = CampaignRunner(big, seed=0, mode=mode, max_workers=3)
        results = runner.run_tasks(tasks)
        references = [
            CampaignCollector(big, seed=seed_a).collect_day(busy_day(0)),
            CampaignCollector(
                small, channel_config=quiet, seed=seed_a
            ).collect_day(busy_day(0)),
            CampaignCollector(small, seed=seed_b).collect_day(busy_day(1)),
            CampaignCollector(big, seed=seed_a).collect_day(busy_day(2)),
        ]
        assert len(results) == len(references)
        for got, want in zip(results, references):
            assert_days_identical(got, want)

    def test_serial_mode_accepts_list_entropy_seed(self):
        # SeedSequence([...]) stores its entropy as a list; the serial-mode
        # collector cache must not choke on the unhashable entropy.
        layout = small_office()
        schedule = self._schedule()
        seed = np.random.SeedSequence([1, 2, 3])
        cached = CampaignRunner(layout, seed=seed, mode="serial").run(schedule)
        direct = CampaignCollector(layout, seed=seed).collect(schedule)
        for a, b in zip(direct.days, cached.days):
            assert_days_identical(a, b)
