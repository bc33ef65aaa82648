"""Tests for the workstation substrate: input activity, idle time, sessions."""

import numpy as np
import pytest

from repro.core.kma import KeyboardMouseActivity
from repro.workstation.activity import (
    MIKKELSEN_ACTIVITY_PROBABILITY,
    ActivityTrace,
    InputActivityModel,
)
from repro.workstation.idle import TraceIdleProvider
from repro.workstation.session import SessionState, WorkstationSession

from tests.oracles.idle import IdleTracker


class TestActivityModel:
    def test_activity_fraction_matches_mikkelsen(self, rng):
        model = InputActivityModel(rng=rng)
        duration_s = 3600.0 * 5
        trace = model.generate(duration_s, [(0.0, duration_s)])
        fraction = trace.active_bins.mean()
        assert fraction == pytest.approx(MIKKELSEN_ACTIVITY_PROBABILITY, abs=0.03)

    def test_no_input_outside_presence(self, rng):
        model = InputActivityModel(rng=rng)
        trace = model.generate(600.0, presence_intervals=[(0.0, 100.0)])
        # Bins after 100 s must all be inactive.
        first_absent_bin = int(100.0 / trace.bin_seconds) + 1
        assert not trace.active_bins[first_absent_bin:].any()

    def test_idle_time_grows_during_absence(self, rng):
        model = InputActivityModel(activity_prob=1.0, rng=rng)
        trace = model.generate(300.0, presence_intervals=[(0.0, 100.0)])
        assert trace.idle_time_at(250.0) >= 140.0

    def test_idle_time_small_while_active(self, rng):
        model = InputActivityModel(activity_prob=1.0, rng=rng)
        trace = model.generate(300.0, [(0.0, 300.0)])
        assert trace.idle_time_at(200.0) <= trace.bin_seconds + 1e-9

    def test_has_input_in_interval(self, rng):
        model = InputActivityModel(activity_prob=1.0, rng=rng)
        trace = model.generate(100.0, presence_intervals=[(0.0, 50.0)])
        assert trace.has_input_in(0.0, 20.0)
        assert not trace.has_input_in(60.0, 90.0)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            InputActivityModel(activity_prob=1.5)
        with pytest.raises(ValueError):
            InputActivityModel(bin_seconds=0.0)
        with pytest.raises(ValueError):
            InputActivityModel().generate(0.0, [])

    def test_trace_duration_and_end_time(self):
        trace = ActivityTrace(bin_seconds=5.0, active_bins=np.ones(10, dtype=bool))
        assert trace.duration == pytest.approx(50.0)
        assert trace.end_time == pytest.approx(50.0)

    def test_last_input_before_start_is_none(self):
        trace = ActivityTrace(
            bin_seconds=5.0, active_bins=np.ones(4, dtype=bool), start_time=100.0
        )
        assert trace.last_input_before(50.0) is None


class TestIdleTracking:
    def test_idle_tracker_counts_from_start_without_input(self):
        tracker = IdleTracker(["w1", "w2"], start_time=0.0)
        assert tracker.idle_time("w1", 30.0) == pytest.approx(30.0)

    def test_idle_tracker_resets_on_input(self):
        tracker = IdleTracker(["w1"])
        tracker.record_input("w1", 10.0)
        assert tracker.idle_time("w1", 12.0) == pytest.approx(2.0)

    def test_idle_tracker_rejects_out_of_order_input(self):
        tracker = IdleTracker(["w1"])
        tracker.record_input("w1", 10.0)
        with pytest.raises(ValueError):
            tracker.record_input("w1", 5.0)

    def test_idle_tracker_unknown_workstation(self):
        tracker = IdleTracker(["w1"])
        with pytest.raises(KeyError):
            tracker.idle_time("w9", 0.0)
        with pytest.raises(KeyError):
            tracker.record_input("w9", 0.0)

    def test_idle_tracker_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            IdleTracker(["w1", "w1"])

    def test_trace_idle_provider(self, rng):
        model = InputActivityModel(activity_prob=1.0, rng=rng)
        traces = {
            "w1": model.generate(200.0, [(0.0, 200.0)]),
            "w2": model.generate(200.0, [(0.0, 50.0)]),
        }
        provider = TraceIdleProvider(traces)
        assert provider.idle_time("w1", 150.0) <= 6.0
        assert provider.idle_time("w2", 150.0) >= 90.0
        assert KeyboardMouseActivity(provider).idle_set(150.0, 60.0) == {"w2"}

    def test_trace_idle_provider_empty_raises(self):
        with pytest.raises(ValueError):
            TraceIdleProvider({})


class TestWorkstationSession:
    def test_initial_state_authenticated(self):
        session = WorkstationSession("w1")
        assert session.state is SessionState.AUTHENTICATED

    def test_deauthentication_blocks_access(self):
        session = WorkstationSession("w1")
        session.deauthenticate(10.0)
        assert session.state is SessionState.DEAUTHENTICATED
        assert session.deauthentications() == 1

    def test_alert_then_screensaver_after_tid(self):
        session = WorkstationSession("w1", t_id_s=5.0)
        session.enter_alert(10.0)
        session.tick(12.0, idle_time_s=2.0)
        assert session.state is SessionState.ALERT
        session.tick(16.0, idle_time_s=6.0)
        assert session.state is SessionState.SCREENSAVER
        assert session.screensaver_activations() == 1

    def test_input_cancels_alert(self):
        session = WorkstationSession("w1")
        session.enter_alert(10.0)
        session.register_input(11.0)
        assert session.state is SessionState.AUTHENTICATED
        session.tick(20.0, idle_time_s=10.0)
        assert session.state is SessionState.AUTHENTICATED

    def test_input_does_not_reauthenticate(self):
        session = WorkstationSession("w1")
        session.deauthenticate(5.0)
        session.register_input(6.0)
        assert session.state is SessionState.DEAUTHENTICATED
        session.reauthenticate(7.0)
        assert session.state is SessionState.AUTHENTICATED

    def test_alert_on_deauthenticated_session_is_noop(self):
        session = WorkstationSession("w1")
        session.deauthenticate(5.0)
        session.enter_alert(6.0)
        assert session.state is SessionState.DEAUTHENTICATED

    def test_history_records_transitions(self):
        session = WorkstationSession("w1")
        session.enter_alert(1.0)
        session.register_input(2.0)
        session.deauthenticate(3.0)
        states = [ev.to_state for ev in session._history]
        assert states == [
            SessionState.ALERT,
            SessionState.AUTHENTICATED,
            SessionState.DEAUTHENTICATED,
        ]

    def test_negative_tid_rejected(self):
        with pytest.raises(ValueError):
            WorkstationSession("w1", t_id_s=-1.0)

    def test_repeated_alert_does_not_restart_timer(self):
        session = WorkstationSession("w1", t_id_s=5.0)
        session.enter_alert(10.0)
        session.enter_alert(14.0)
        session.tick(15.5, idle_time_s=6.0)
        assert session.state is SessionState.SCREENSAVER
