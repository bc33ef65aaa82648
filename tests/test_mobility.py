"""Tests for the mobility substrate: people, trajectories, schedules, events."""

import numpy as np
import pytest

from repro.mobility.behavior import AbsenceSampler, BehaviorProfile
from repro.mobility.events import ENTRY_LABEL, EventKind, EventLog, GroundTruthEvent
from repro.mobility.person import Person, PresenceState
from repro.mobility.scheduler import (
    CampaignSchedule,
    DaySchedule,
    PlannedMovement,
    ScheduleGenerator,
)
from repro.mobility.trajectory import (
    Trajectory,
    departure_trajectory,
    entry_trajectory,
    walk_through,
)
from repro.radio.geometry import Point


class TestTrajectory:
    def test_walk_duration_matches_speed(self):
        traj = walk_through([Point(0, 0), Point(2.8, 0)], start_time=0.0, speed_mps=1.4)
        assert traj.duration == pytest.approx(2.0)

    def test_position_before_and_after(self):
        traj = walk_through([Point(0, 0), Point(1, 0)], start_time=10.0)
        assert traj.position_at(0.0) == Point(0, 0)
        assert traj.position_at(100.0) == Point(1, 0)

    def test_position_midway(self):
        traj = walk_through([Point(0, 0), Point(2, 0)], start_time=0.0, speed_mps=1.0)
        mid = traj.position_at(1.0)
        assert mid.x == pytest.approx(1.0)

    def test_position_frozen_outside_the_walk(self):
        traj = walk_through([Point(0, 0), Point(1.4, 0)], start_time=5.0)
        assert traj.end_time == pytest.approx(5.0 + traj.duration)
        assert traj.position_at(4.9) == Point(0, 0)
        assert traj.position_at(traj.end_time) == Point(1.4, 0)
        assert traj.position_at(20.0) == Point(1.4, 0)
        assert 0.0 < traj.position_at(5.5).x < 1.4

    def test_pauses_extend_duration(self):
        plain = walk_through([Point(0, 0), Point(1, 0)], 0.0)
        paused = walk_through([Point(0, 0), Point(1, 0)], 0.0, pauses=[2.0])
        assert paused.duration == pytest.approx(plain.duration + 2.0)

    def test_departure_trajectory_ends_at_door(self):
        door = Point(0.2, 0.4)
        traj = departure_trajectory(Point(5, 2), door, 0.0)
        assert traj.waypoints[-1] == door
        assert traj.duration > 3.0

    def test_entry_trajectory_starts_at_door_ends_at_seat(self):
        door, seat = Point(0.2, 0.4), Point(5, 2)
        traj = entry_trajectory(door, seat, 0.0)
        assert traj.waypoints[0] == door
        assert traj.waypoints[-1] == seat

    def test_invalid_trajectories_raise(self):
        with pytest.raises(ValueError):
            walk_through([Point(0, 0)], 0.0)
        with pytest.raises(ValueError):
            walk_through([Point(0, 0), Point(1, 0)], 0.0, speed_mps=0.0)
        with pytest.raises(ValueError):
            Trajectory(0.0, (Point(0, 0), Point(1, 0)), (1.0, 2.0))

    def test_via_waypoints_increase_path(self):
        direct = departure_trajectory(Point(5, 2), Point(0.2, 0.4), 0.0)
        detour = departure_trajectory(
            Point(5, 2), Point(0.2, 0.4), 0.0, via=[Point(3, 2.5)]
        )
        assert detour.duration > direct.duration


class TestPerson:
    def test_initially_seated_at_seat(self):
        person = Person("u1", "w1", Point(1, 1))
        assert person.state is PresenceState.SEATED
        assert person.position_at(0.0) == Point(1, 1)

    def test_walk_and_become_absent(self):
        person = Person("u1", "w1", Point(1, 1))
        traj = walk_through([Point(1, 1), Point(0, 0)], start_time=0.0)
        person.start_walk(traj, ends_as=PresenceState.ABSENT)
        assert person.state is PresenceState.WALKING
        person.update(traj.end_time + 1.0)
        assert person.state is PresenceState.ABSENT
        assert person.position_at(traj.end_time + 1.0) is None

    def test_walk_and_sit_down_updates_seat(self):
        person = Person("u1", "w1", Point(1, 1), initial_state=PresenceState.ABSENT)
        traj = walk_through([Point(0, 0), Point(2, 2)], start_time=0.0)
        person.start_walk(traj, ends_as=PresenceState.SEATED)
        person.update(traj.end_time + 0.1)
        assert person.state is PresenceState.SEATED
        assert person.seat == Point(2, 2)

    def test_walk_cannot_end_in_walking(self):
        person = Person("u1", "w1", Point(1, 1))
        traj = walk_through([Point(1, 1), Point(0, 0)], 0.0)
        with pytest.raises(ValueError):
            person.start_walk(traj, ends_as=PresenceState.WALKING)

    def test_fidget_offsets_are_small_and_slowly_varying(self, rng):
        person = Person(
            "u1", "w1", Point(1, 1), fidget_sigma_m=0.05, fidget_interval_s=1000.0
        )
        p1 = person.position_at(0.0, rng)
        positions = [person.position_at(t, rng) for t in (0.25, 0.5, 0.75, 1.0)]
        # Within the same fidget interval the offset is frozen: the seated
        # body is quasi-static, which is what keeps the MD baseline clean.
        resampled = sum(1 for p in positions if p.distance_to(p1) > 1e-12)
        assert resampled == 0
        assert p1.distance_to(Point(1, 1)) < 0.5

    def test_invalid_fidget_parameters_raise(self):
        with pytest.raises(ValueError):
            Person("u1", "w1", Point(0, 0), fidget_sigma_m=-1.0)
        with pytest.raises(ValueError):
            Person("u1", "w1", Point(0, 0), fidget_interval_s=0.0)


class TestBehavior:
    def test_absence_sampler_respects_minimum(self, rng):
        profile = BehaviorProfile(mean_absence_s=120.0, min_absence_s=60.0)
        sampler = AbsenceSampler(profile, rng)
        assert np.all(np.asarray([sampler.sample() for _ in range(200)]) >= 60.0)

    def test_absence_sampler_mean_roughly_matches(self, rng):
        profile = BehaviorProfile(mean_absence_s=600.0, min_absence_s=1.0)
        sampler = AbsenceSampler(profile, rng)
        mean = np.mean([sampler.sample() for _ in range(3000)])
        assert 400.0 < mean < 800.0

    def test_invalid_profile_raises(self):
        with pytest.raises(ValueError):
            BehaviorProfile(departures_per_hour=-1.0)
        with pytest.raises(ValueError):
            BehaviorProfile(mean_absence_s=0.0)
        with pytest.raises(ValueError):
            BehaviorProfile(walking_speed_mps=0.0)


class TestEvents:
    def test_event_labels(self):
        dep = GroundTruthEvent(EventKind.DEPARTURE, 10.0, "u1", "w1", exit_time=15.0)
        ent = GroundTruthEvent(EventKind.ENTRY, 20.0, "u1", "w1")
        move = GroundTruthEvent(EventKind.INTERNAL_MOVE, 30.0, "u1", "w1")
        assert dep.label == "w1"
        assert ent.label == ENTRY_LABEL
        assert move.label is None

    def test_exit_before_event_time_rejected(self):
        with pytest.raises(ValueError):
            GroundTruthEvent(EventKind.DEPARTURE, 10.0, "u1", "w1", exit_time=5.0)

    def test_event_log_ordering_and_counts(self):
        log = EventLog()
        log.add(GroundTruthEvent(EventKind.ENTRY, 20.0, "u1", "w1"))
        log.add(GroundTruthEvent(EventKind.DEPARTURE, 10.0, "u1", "w1", exit_time=14.0))
        assert [e.time for e in log] == [10.0, 20.0]
        assert len(log.departures()) == 1
        assert len(log.entries()) == 1
        assert log.label_counts() == {"w1": 1, "w0": 1}

    def test_event_log_labelled_skips_internal_moves(self):
        log = EventLog(
            [
                GroundTruthEvent(EventKind.INTERNAL_MOVE, 30.0, "u2", "w2"),
                GroundTruthEvent(EventKind.ENTRY, 50.0, "u1", "w1"),
                GroundTruthEvent(EventKind.DEPARTURE, 5.0, "u1", "w1", exit_time=9.0),
            ]
        )
        assert [e.time for e in log.events] == [5.0, 30.0, 50.0]
        assert log[1].kind is EventKind.INTERNAL_MOVE
        assert [e.time for e in log.labelled()] == [5.0, 50.0]
        assert log.label_counts() == {"w1": 1, ENTRY_LABEL: 1}


class TestScheduler:
    def test_generated_day_is_overlap_free(self, layout, rng):
        gen = ScheduleGenerator(layout, min_gap_s=45.0, rng=rng)
        day = gen.generate_day(0, duration_s=4 * 3600.0)
        times = sorted(m.start_time for m in day.movements)
        for a, b in zip(times, times[1:]):
            assert b - a >= 45.0 - 1e-9

    def test_departures_and_entries_alternate_per_user(self, layout, rng):
        gen = ScheduleGenerator(layout, rng=rng)
        day = gen.generate_day(0, duration_s=8 * 3600.0)
        for workstation in layout.workstation_ids:
            user = ScheduleGenerator.user_for(workstation)
            seq = [
                m.kind
                for m in day.movements
                if m.user_id == user and m.kind is not EventKind.INTERNAL_MOVE
            ]
            for first, second in zip(seq, seq[1:]):
                assert (first, second) != (EventKind.DEPARTURE, EventKind.DEPARTURE)

    def test_campaign_has_requested_days(self, layout, rng):
        gen = ScheduleGenerator(layout, rng=rng)
        campaign = gen.generate_campaign(n_days=3, day_duration_s=3600.0)
        assert campaign.n_days == 3
        assert all(isinstance(d, DaySchedule) for d in campaign.days)

    def test_label_counts_shape(self, layout, rng):
        gen = ScheduleGenerator(layout, rng=rng)
        campaign = gen.generate_campaign(n_days=5, day_duration_s=8 * 3600.0)
        counts = campaign.label_counts()
        # Entries and at least one departure label must be present.
        assert counts.get("w0", 0) > 0
        assert any(counts.get(w, 0) > 0 for w in layout.workstation_ids)

    def test_movements_respect_lead_in(self, layout, rng):
        gen = ScheduleGenerator(layout, first_movement_s=300.0, rng=rng)
        day = gen.generate_day(0, duration_s=3600.0)
        assert all(m.start_time >= 300.0 for m in day.movements)

    def test_too_short_day_raises(self, layout, rng):
        gen = ScheduleGenerator(layout, first_movement_s=600.0, rng=rng)
        with pytest.raises(ValueError):
            gen.generate_day(0, duration_s=500.0)

    def test_user_for_mapping(self):
        assert ScheduleGenerator.user_for("w1") == "u1"
        assert ScheduleGenerator.user_for("w3") == "u3"

    def test_planned_movement_validation(self):
        with pytest.raises(ValueError):
            PlannedMovement(EventKind.DEPARTURE, "u1", "w1", start_time=-1.0)
        with pytest.raises(ValueError):
            PlannedMovement(EventKind.DEPARTURE, "u1", "w1", 0.0, absence_s=-5.0)

    def test_campaign_schedule_totals(self):
        day = DaySchedule(
            day_index=0,
            duration_s=100.0,
            movements=[
                PlannedMovement(EventKind.DEPARTURE, "u1", "w1", 10.0, 30.0),
                PlannedMovement(EventKind.ENTRY, "u1", "w1", 40.0),
            ],
        )
        campaign = CampaignSchedule(days=[day])
        assert sum(len(d.movements) for d in campaign.days) == 2
        assert campaign.label_counts() == {"w1": 1, "w0": 1}
