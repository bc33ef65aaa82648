"""Tests for the FADEWICH configuration, variation windows, KMA and actions."""

import pytest

from repro.core.config import FadewichConfig, MDConfig, REConfig
from repro.core.kma import KeyboardMouseActivity
from repro.core.windows import (
    TrueWindow,
    VariationWindow,
    match_windows,
    true_window_for_event,
)
from repro.mobility.events import EventKind, GroundTruthEvent

from tests.oracles.idle import IdleTracker


class TestConfig:
    def test_paper_defaults(self, config):
        assert config.t_delta_s == pytest.approx(4.5)
        assert config.t_id_s == pytest.approx(5.0)
        assert config.t_ss_s == pytest.approx(3.0)
        assert config.timeout_s == pytest.approx(300.0)
        assert config.screensaver_cost_s == pytest.approx(3.0)
        assert config.reauth_cost_s == pytest.approx(13.0)
        assert config.md.alpha == pytest.approx(1.0)

    def test_misclassification_delay_is_tid_plus_tss(self, config):
        assert config.misclassification_delay_s == pytest.approx(8.0)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FadewichConfig(t_delta_s=0.0)
        with pytest.raises(ValueError):
            FadewichConfig(timeout_s=-1.0)
        with pytest.raises(ValueError):
            MDConfig(alpha=0.0)
        with pytest.raises(ValueError):
            MDConfig(tau=1.5)
        with pytest.raises(ValueError, match="merge_gap_s"):
            MDConfig(merge_gap_s=-0.25)
        with pytest.raises(ValueError, match="merge_gap_s"):
            MDConfig(merge_gap_s=float("nan"))
        with pytest.raises(ValueError):
            REConfig(svm_c=0.0)
        with pytest.raises(ValueError):
            REConfig(entropy_bins=0)

    def test_derive_returns_modified_copy(self, config):
        other = config.derive(t_delta_s=6.0)
        assert other.t_delta_s == 6.0
        assert config.t_delta_s == 4.5
        assert other.md is config.md and other.re is config.re

    def test_derive_patches_nested_configs_and_revalidates(self, config):
        other = config.derive(md={"alpha": 2.0}, re={"svm_c": 3.0})
        assert (other.md.alpha, other.re.svm_c) == (2.0, 3.0)
        assert (config.md.alpha, config.re.svm_c) != (2.0, 3.0)
        assert other.md.tau == config.md.tau
        with pytest.raises(ValueError):
            config.derive(t_delta_s=0.0)
        with pytest.raises(ValueError):
            config.derive(md={"alpha": 0.0})
        with pytest.raises(TypeError):
            config.derive(md={"no_such_field": 1.0})


class TestVariationWindows:
    def _event(self, t=100.0, exit_time=105.0, label="w1"):
        return GroundTruthEvent(
            EventKind.DEPARTURE, t, "u1", label, exit_time=exit_time
        )

    def test_duration_and_contains(self):
        window = VariationWindow(10.0, 16.0)
        assert window.duration == pytest.approx(6.0)
        assert window.contains(12.0)
        assert not window.contains(17.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            VariationWindow(10.0, 5.0)

    def test_true_window_spans_event_and_exit(self):
        tw = true_window_for_event(self._event(), slack_s=5.0)
        assert tw.t_start == pytest.approx(95.0)
        assert tw.t_end == pytest.approx(110.0)

    def test_true_window_without_exit_time(self):
        event = GroundTruthEvent(EventKind.ENTRY, 50.0, "u1", "w1")
        tw = true_window_for_event(event, slack_s=3.0)
        assert tw.t_start == pytest.approx(47.0)
        assert tw.t_end == pytest.approx(53.0)

    def test_overlap_detection(self):
        tw = TrueWindow(95.0, 110.0, self._event())
        assert VariationWindow(100.0, 108.0).overlaps(tw)
        assert VariationWindow(80.0, 96.0).overlaps(tw)
        assert not VariationWindow(111.0, 120.0).overlaps(tw)

    def test_match_counts_tp_fp_fn(self):
        events = [self._event(100.0, 105.0), self._event(200.0, 205.0, "w2")]
        windows = [
            VariationWindow(101.0, 107.0),  # matches first event
            VariationWindow(300.0, 306.0),  # matches nothing -> FP
        ]
        result = match_windows(windows, events, slack_s=5.0)
        assert result.counts.tp == 1
        assert result.counts.fp == 1
        assert result.counts.fn == 1

    def test_min_duration_filters_short_windows(self):
        events = [self._event(100.0, 105.0)]
        windows = [VariationWindow(101.0, 103.0)]  # only 2 s long
        result = match_windows(windows, events, slack_s=5.0, min_duration_s=4.5)
        assert result.counts.tp == 0
        assert result.counts.fn == 1

    def test_redundant_detection_not_counted_as_fp(self):
        events = [self._event(100.0, 105.0)]
        windows = [VariationWindow(99.0, 104.0), VariationWindow(105.0, 110.0)]
        result = match_windows(windows, events, slack_s=5.0)
        assert result.counts.tp == 1
        assert result.counts.fp == 0

    def test_each_event_matched_at_most_once(self):
        events = [self._event(100.0, 105.0)]
        windows = [VariationWindow(99.0, 104.0)]
        result = match_windows(windows, events, slack_s=5.0)
        assert len(result.true_positive_pairs) == 1
        assert len(result.missed_events) == 0


class TestKMA:
    def test_idle_set_matches_tracker(self):
        tracker = IdleTracker(["w1", "w2", "w3"])
        tracker.record_input("w1", 95.0)
        tracker.record_input("w2", 50.0)
        kma = KeyboardMouseActivity(tracker)
        assert kma.idle_set(t=100.0, s=10.0) == {"w2", "w3"}
        assert kma.idle_set(t=100.0, s=200.0) == set()

    def test_idle_time_passthrough(self):
        tracker = IdleTracker(["w1"])
        tracker.record_input("w1", 90.0)
        kma = KeyboardMouseActivity(tracker)
        assert kma.idle_time("w1", 100.0) == pytest.approx(10.0)

    def test_idle_set_threshold_is_inclusive(self):
        tracker = IdleTracker(["w1", "w2"])
        tracker.record_input("w1", 99.0)
        tracker.record_input("w2", 10.0)
        kma = KeyboardMouseActivity(tracker)
        assert kma.idle_set(t=100.0, s=1.0) == {"w1", "w2"}
        assert kma.idle_set(t=100.0, s=90.0) == {"w2"}
        assert kma.idle_set(t=100.0, s=90.5) == set()

    def test_negative_threshold_rejected(self):
        kma = KeyboardMouseActivity(IdleTracker(["w1"]))
        with pytest.raises(ValueError):
            kma.idle_set(10.0, -1.0)

    def test_workstation_ids_exposed(self):
        kma = KeyboardMouseActivity(IdleTracker(["w1", "w2"]))
        assert set(kma.workstation_ids) == {"w1", "w2"}
