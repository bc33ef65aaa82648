"""Tests for the controller, security model, adversaries, baseline, usability
and the assembled system / evaluation pipeline."""

import numpy as np
import pytest

from repro.core.adversary import COWORKER, INSIDER, Adversary, attack_opportunities
from repro.core.baseline import TimeoutBaseline
from repro.core.config import FadewichConfig
from repro.core.controller import ControllerState, FadewichController
from repro.core.evaluation import (
    build_sample_dataset,
    cross_validated_predictions,
    departure_outcomes,
    evaluate_md,
    sensor_subset,
    streams_for_sensors,
)
from repro.core.kma import KeyboardMouseActivity
from repro.core.security import (
    DeauthCase,
    case_counts,
    classify_outcome,
    deauthentication_curve,
    vulnerable_time_seconds,
)
from repro.core.usability import UsabilityDayInput, UsabilitySimulator
from repro.core.windows import VariationWindow
from repro.mobility.events import EventKind, GroundTruthEvent
from repro.workstation.session import SessionState, WorkstationSession

from tests.oracles.idle import IdleTracker


def departure(t=100.0, exit_time=106.0, workstation="w1"):
    return GroundTruthEvent(
        EventKind.DEPARTURE, t, "u1", workstation, exit_time=exit_time
    )


class TestSecurityModel:
    def test_case_a_correct_classification(self, config):
        window = VariationWindow(100.5, 108.0)
        outcome = classify_outcome(departure(), window, "w1", config)
        assert outcome.case is DeauthCase.CORRECT
        assert outcome.elapsed_s == pytest.approx(0.5 + config.t_delta_s)

    def test_case_b_misclassification(self, config):
        window = VariationWindow(100.5, 108.0)
        outcome = classify_outcome(departure(), window, "w2", config)
        assert outcome.case is DeauthCase.MISCLASSIFIED
        assert outcome.elapsed_s == pytest.approx(8.0)

    def test_case_c_missed_detection(self, config):
        outcome = classify_outcome(departure(), None, None, config)
        assert outcome.case is DeauthCase.MISSED
        assert outcome.elapsed_s == pytest.approx(config.timeout_s)

    def test_deauthentication_curve_monotone(self, config):
        outcomes = [
            classify_outcome(departure(), VariationWindow(100.0, 108.0), "w1", config),
            classify_outcome(departure(200.0, 206.0), None, None, config),
        ]
        times, percent = deauthentication_curve(outcomes, max_time_s=10.0)
        assert np.all(np.diff(percent) >= 0)
        assert percent[-1] == pytest.approx(50.0)

    def test_case_counts(self, config):
        outcomes = [
            classify_outcome(departure(), VariationWindow(100.0, 108.0), "w1", config),
            classify_outcome(departure(), VariationWindow(100.0, 108.0), "w2", config),
            classify_outcome(departure(), None, None, config),
        ]
        counts = case_counts(outcomes)
        assert counts[DeauthCase.CORRECT] == 1
        assert counts[DeauthCase.MISCLASSIFIED] == 1
        assert counts[DeauthCase.MISSED] == 1

    def test_vulnerable_time_capped_by_absence(self, config):
        outcome = classify_outcome(departure(), None, None, config)
        total = vulnerable_time_seconds([outcome], absence_lookup=lambda e: 60.0)
        assert total == pytest.approx(60.0)


class TestAdversaries:
    def test_insider_slower_than_coworker(self):
        assert INSIDER.reach_delay_s > COWORKER.reach_delay_s

    def test_fast_deauth_denies_both_adversaries(self, config):
        window = VariationWindow(100.2, 108.0)
        outcome = classify_outcome(departure(), window, "w1", config)
        assert attack_opportunities([outcome], INSIDER) == []
        assert attack_opportunities([outcome], COWORKER) == []

    def test_missed_detection_gives_opportunity(self, config):
        outcome = classify_outcome(departure(), None, None, config)
        assert len(attack_opportunities([outcome], INSIDER)) == 1
        assert len(attack_opportunities([outcome], COWORKER)) == 1

    def test_case_b_exploitable_only_by_coworker(self, config):
        # Deauth at t+8; the co-worker reaches the desk at exit (t+6), the
        # insider at exit+4 (t+10).
        window = VariationWindow(100.2, 108.0)
        outcome = classify_outcome(departure(), window, "w2", config)
        assert len(attack_opportunities([outcome], COWORKER)) == 1
        assert len(attack_opportunities([outcome], INSIDER)) == 0

    def test_negative_reach_delay_rejected(self):
        with pytest.raises(ValueError):
            Adversary("bad", -1.0)


class TestTimeoutBaseline:
    def test_every_departure_is_an_opportunity(self):
        baseline = TimeoutBaseline(timeout_s=300.0)
        departures = [departure(t=100.0 * i, exit_time=100.0 * i + 6) for i in range(1, 6)]
        assert baseline.attack_opportunity_count(departures, INSIDER) == 5
        assert baseline.attack_opportunity_count(departures, COWORKER) == 5

    def test_vulnerable_time_capped_by_timeout_and_absence(self):
        baseline = TimeoutBaseline(timeout_s=300.0)
        departures = [departure(), departure(1000.0, 1006.0)]
        total = baseline.vulnerable_time_seconds(departures, [60.0, 600.0])
        assert total == pytest.approx(60.0 + 300.0)

    def test_outcomes_are_case_c(self):
        baseline = TimeoutBaseline(timeout_s=120.0)
        outcomes = baseline.outcomes([departure()])
        assert outcomes[0].case is DeauthCase.MISSED
        assert outcomes[0].elapsed_s == pytest.approx(120.0)

    def test_zero_user_cost(self):
        assert TimeoutBaseline().user_cost_seconds == 0.0

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            TimeoutBaseline(timeout_s=0.0)


class TestController:
    def _make(self, config):
        tracker = IdleTracker(["w1", "w2"], start_time=0.0)
        kma = KeyboardMouseActivity(tracker)
        sessions = {
            "w1": WorkstationSession("w1", t_id_s=config.t_id_s),
            "w2": WorkstationSession("w2", t_id_s=config.t_id_s),
        }
        controller = FadewichController(config=config, kma=kma, sessions=sessions)
        return tracker, controller, sessions

    def test_rule1_deauthenticates_idle_classified_workstation(self, config):
        tracker, controller, sessions = self._make(config)
        tracker.record_input("w2", 99.0)  # w2 active, w1 idle since 0
        state = controller.step(104.5, current_window_duration=4.5,
                                classify_current_window=lambda: "w1")
        assert state is ControllerState.NOISY
        assert sessions["w1"].state is SessionState.DEAUTHENTICATED
        assert sessions["w2"].state is not SessionState.DEAUTHENTICATED

    def test_rule1_skips_active_workstation(self, config):
        tracker, controller, sessions = self._make(config)
        tracker.record_input("w1", 104.0)  # w1 active right now
        controller.step(104.5, 4.5, lambda: "w1")
        assert sessions["w1"].state is SessionState.AUTHENTICATED

    def test_entry_label_never_deauthenticates(self, config):
        _, controller, sessions = self._make(config)
        controller.step(104.5, 4.5, lambda: "w0")
        assert all(s.state is SessionState.AUTHENTICATED for s in sessions.values())

    def test_rule2_alerts_idle_workstations_in_noisy_state(self, config):
        tracker, controller, sessions = self._make(config)
        controller.step(104.5, 4.5, lambda: "w1")       # -> NOISY
        tracker.record_input("w2", 104.6)
        controller.step(105.0, 5.0, lambda: "w1")       # rule 2 applies
        # w2 typed 0.4 s ago -> not alerted; w1 is deauthenticated already.
        assert sessions["w2"].state is SessionState.AUTHENTICATED
        controller.step(110.0, 10.0, lambda: "w1")
        assert sessions["w2"].state is SessionState.ALERT

    def test_returns_to_quiet_when_window_closes(self, config):
        _, controller, _ = self._make(config)
        controller.step(104.5, 4.5, lambda: "w0")
        assert controller.state is ControllerState.NOISY
        controller.step(120.0, 0.0, lambda: "w0")
        assert controller.state is ControllerState.QUIET

    def test_action_log_counts(self, config):
        tracker, controller, _ = self._make(config)
        controller.step(104.5, 4.5, lambda: "w1")
        assert controller.deauthentication_count() == 1
        assert len(controller.actions) >= 1


class TestUsabilitySimulator:
    def test_no_decisions_no_cost(self, config):
        day = UsabilityDayInput(
            decisions=(),
            presence={"w1": ((0.0, 1000.0),)},
            duration_s=1000.0,
        )
        result = UsabilitySimulator(config, rng=np.random.default_rng(0)).run([day], 5)
        assert result.cost_per_day_s == 0.0

    def test_misclassified_window_costs_reauth_when_present(self, config):
        window = VariationWindow(100.0, 108.0)
        day = UsabilityDayInput(
            decisions=((window, "w1"),),
            presence={"w1": ((0.0, 1000.0),)},  # w1's user is at the desk
            duration_s=1000.0,
        )
        sim = UsabilitySimulator(config, activity_prob=0.0, rng=np.random.default_rng(0))
        result = sim.run([day], n_draws=3)
        assert result.deauthentications_per_day == pytest.approx(1.0)
        assert result.cost_per_day_s >= config.reauth_cost_s

    def test_active_user_never_wrongly_deauthenticated(self, config):
        window = VariationWindow(100.0, 108.0)
        day = UsabilityDayInput(
            decisions=((window, "w1"),),
            presence={"w1": ((0.0, 1000.0),)},
            duration_s=1000.0,
        )
        sim = UsabilitySimulator(config, activity_prob=1.0, rng=np.random.default_rng(0))
        result = sim.run([day], n_draws=3)
        assert result.deauthentications_per_day == pytest.approx(0.0)

    def test_absent_user_costs_nothing(self, config):
        window = VariationWindow(100.0, 108.0)
        day = UsabilityDayInput(
            decisions=((window, "w1"),),
            presence={"w1": ()},  # user not at the desk
            duration_s=1000.0,
        )
        sim = UsabilitySimulator(config, activity_prob=0.0, rng=np.random.default_rng(0))
        result = sim.run([day], n_draws=3)
        assert result.cost_per_day_s == pytest.approx(0.0)

    def test_run_requires_days_and_draws(self, config):
        sim = UsabilitySimulator(config)
        with pytest.raises(ValueError):
            sim.run([], 10)


class TestEvaluationPipeline:
    def test_sensor_subset_and_streams(self, layout):
        ids = sensor_subset(layout.sensor_ids, 3)
        assert ids == ["d1", "d2", "d3"]
        assert len(streams_for_sensors(ids)) == 6
        with pytest.raises(ValueError):
            sensor_subset(layout.sensor_ids, 1)
        with pytest.raises(ValueError):
            sensor_subset(layout.sensor_ids, 20)

    def test_evaluate_md_on_recording(self, small_recording, config):
        evaluation = evaluate_md(
            small_recording, config, small_recording.layout.sensor_ids
        )
        counts = evaluation.counts
        assert counts.tp + counts.fn > 0
        assert counts.recall > 0.5  # 9 sensors detect most movements

    def test_rematch_with_larger_t_delta_reduces_recall(self, analysis_context):
        evaluation = analysis_context.md_evaluation(9)
        loose = evaluation.rematch(2.0, analysis_context.config.true_window_slack_s)
        strict = evaluation.rematch(8.0, analysis_context.config.true_window_slack_s)
        assert strict.counts.recall <= loose.counts.recall

    def test_dataset_labels_come_from_ground_truth(self, analysis_context):
        _, dataset = analysis_context.sample_dataset(9)
        valid_labels = {"w0", "w1", "w2", "w3"}
        assert set(dataset.labels) <= valid_labels
        assert len(dataset) > 0

    def test_cross_validated_predictions_cover_dataset(self, analysis_context):
        re_module, dataset = analysis_context.sample_dataset(9)
        predictions = analysis_context.re_predictions(9)
        assert set(predictions.keys()) == set(range(len(dataset)))
        assert set(predictions.values()) <= {"w0", "w1", "w2", "w3"}

    def test_departure_outcomes_cover_all_departures(self, analysis_context):
        outcomes = analysis_context.outcomes(9)
        n_departures = sum(
            len(day.events.departures()) for day in analysis_context.recording.days
        )
        assert len(outcomes) == n_departures

    def test_more_sensors_do_not_hurt_recall(self, analysis_context):
        few = analysis_context.md_evaluation(3).counts.recall
        many = analysis_context.md_evaluation(9).counts.recall
        assert many >= few - 0.1
