"""Equivalence regression tests: columnar analysis engine vs. scalar references.

PR 2's analysis fast paths must be *bit-identical* to their retained scalar
references:

* ``evaluate_md_grid`` / ``evaluate_md`` (shared rolling feature matrix +
  lockstep profile engine) vs. ``evaluate_md_scalar`` (per-count restrict /
  recompute / per-observation profile),
* ``cross_validated_predictions`` (array fold masks) vs.
  ``cross_validated_predictions_scalar`` (per-fold index lists),
* ``FadewichSystem.replay_day`` (array replay) vs. ``replay_day_scalar``
  (per-sample ``process_sample`` loop).

The suite pins those contracts across seeds, layouts and every sensor
count, with exact equality on counts/windows and float tolerance on rates,
plus the ``AnalysisContext`` cache-key regression (stale results after a
config change).
"""

import numpy as np
import pytest

from repro.analysis.campaign import AnalysisContext, CampaignScale, collect_campaign
from repro.core import build_sample_dataset
from repro.core.config import FadewichConfig, MDConfig
from repro.core.evaluation import (
    CampaignStdFeatures,
    cross_validated_predictions,
    cross_validated_predictions_scalar,
    evaluate_md,
    evaluate_md_grid,
    evaluate_md_scalar,
    sensor_subset,
    streams_for_sensors,
)
from repro.core.movement import (
    detect_offline,
    detect_offline_scalar,
    online_std_sum_series,
    rolling_std_matrix,
    window_duration_series,
)
from repro.core.system import FadewichSystem
from repro.detectors import KdeMdDetector
from repro.radio.office import paper_office
from repro.simulation.dataset import SampleDataset
from repro.sliding import sample_count, sum_rows

SEEDS = (0, 7, 1234)


def small_office():
    """The paper office restricted to five sensors (second layout)."""
    return paper_office().with_sensors(["d1", "d2", "d3", "d4", "d5"])


def tiny_scale(n_days=2, day_duration_s=600.0):
    """A compact campaign that still exercises every pipeline stage."""
    return CampaignScale(
        name="tiny",
        n_days=n_days,
        day_duration_s=day_duration_s,
        departures_per_hour=8.0,
        mean_absence_s=120.0,
        min_absence_s=40.0,
        internal_moves_per_hour=2.0,
    )


def collect(seed, layout=None, **scale_kwargs):
    return collect_campaign(
        seed=seed, scale=tiny_scale(**scale_kwargs), layout=layout
    )


def assert_md_identical(batch, scalar):
    """Bit-exact agreement of two MD evaluations, plus rate tolerance."""
    assert batch.sensor_ids == scalar.sensor_ids
    assert batch.t_delta_s == scalar.t_delta_s
    # Exact equality on the counts...
    assert batch.counts == scalar.counts
    # ...float tolerance on the derived rates.
    for key, value in batch.counts.rates().items():
        assert value == pytest.approx(scalar.counts.rates()[key], abs=1e-12)
    assert len(batch.days) == len(scalar.days)
    for day_b, day_s in zip(batch.days, scalar.days):
        assert day_b.day_index == day_s.day_index
        assert day_b.counts == day_s.counts
        assert day_b.md_result.windows == day_s.md_result.windows
        np.testing.assert_array_equal(
            day_b.md_result.times, day_s.md_result.times
        )
        np.testing.assert_array_equal(
            day_b.md_result.std_sums, day_s.md_result.std_sums
        )
        np.testing.assert_array_equal(
            day_b.md_result.threshold_trace, day_s.md_result.threshold_trace
        )
        assert [
            (vw.t_start, vw.t_end) for vw, _ in day_b.match.true_positive_pairs
        ] == [
            (vw.t_start, vw.t_end) for vw, _ in day_s.match.true_positive_pairs
        ]


class TestSharedFeatureMatrix:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_column_slices_match_restricted_recompute(self, seed):
        # A subset's s_t is its columns of the full matrix added left to
        # right: equal to recomputing on the restricted trace and to the
        # online series past its undefined first sample.
        recording = collect(seed, n_days=1)
        trace = recording.days[0].trace
        times_full, matrix = rolling_std_matrix(trace, 8)
        columns = {sid: j for j, sid in enumerate(trace.stream_ids)}
        for k in (3, 5, 9):
            stream_ids = streams_for_sensors(
                sensor_subset(recording.layout.sensor_ids, k)
            )
            restricted = trace.restricted_to(stream_ids)
            times, own = rolling_std_matrix(restricted, 8)
            sliced = sum_rows(matrix.T, [columns[s] for s in stream_ids])
            online = online_std_sum_series(
                np.column_stack([restricted.streams[s] for s in stream_ids]), 8
            )
            np.testing.assert_array_equal(times, times_full)
            np.testing.assert_array_equal(sum_rows(own.T), sliced)
            np.testing.assert_array_equal(online[1:], sliced)

    def test_campaign_features_are_cached_per_day(self):
        recording = collect(0, n_days=2)
        features = CampaignStdFeatures(recording, FadewichConfig())
        first = features.day_matrix(recording.days[0])
        assert features.day_matrix(recording.days[0]) is first


class TestDetectOfflineEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_matches_scalar(self, seed):
        recording = collect(seed, n_days=1)
        stream_ids = streams_for_sensors(
            sensor_subset(recording.layout.sensor_ids, 4)
        )
        trace = recording.days[0].trace.restricted_to(stream_ids)
        batch = detect_offline(trace, FadewichConfig().md)
        scalar = detect_offline_scalar(trace, FadewichConfig().md)
        assert batch.windows == scalar.windows
        np.testing.assert_array_equal(batch.std_sums, scalar.std_sums)
        np.testing.assert_array_equal(
            batch.threshold_trace, scalar.threshold_trace
        )

    def test_batch_matches_scalar_when_update_outgrows_init(self):
        # batch_size > init_samples flips the engine to its per-column
        # fallback; the contract must hold there too.
        recording = collect(7, n_days=1)
        stream_ids = streams_for_sensors(
            sensor_subset(recording.layout.sensor_ids, 3)
        )
        trace = recording.days[0].trace.restricted_to(stream_ids)
        config = MDConfig(profile_init_s=5.0, batch_size=40)
        batch = detect_offline(trace, config)
        scalar = detect_offline_scalar(trace, config)
        assert batch.windows == scalar.windows
        np.testing.assert_array_equal(
            batch.threshold_trace, scalar.threshold_trace
        )

    def test_batch_does_not_mutate_precomputed_series(self):
        # Regression: the lockstep engine's KDE windows once aliased the
        # caller's std-sum array and slid over it in place.
        recording = collect(0, n_days=1)
        stream_ids = streams_for_sensors(
            sensor_subset(recording.layout.sensor_ids, 3)
        )
        trace = recording.days[0].trace.restricted_to(stream_ids)
        config = FadewichConfig().md
        result = detect_offline(trace, config)
        std_sums = result.std_sums.copy()
        original = std_sums.copy()
        init = sample_count(config.profile_init_s, 1.0 / trace.sample_interval)
        grid = KdeMdDetector().offline_grid(std_sums[:, np.newaxis], config, init)
        np.testing.assert_array_equal(std_sums, original)
        np.testing.assert_array_equal(grid.thresholds[:, 0], result.threshold_trace)


class TestEvaluateMDGridEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make_layout", [paper_office, small_office])
    def test_grid_matches_scalar_for_all_sensor_counts(self, seed, make_layout):
        layout = make_layout()
        recording = collect(seed, layout=layout)
        config = FadewichConfig()
        counts = list(range(3, len(layout.sensors) + 1))
        grid = evaluate_md_grid(recording, config, counts)
        assert sorted(grid) == counts
        for n in counts:
            scalar = evaluate_md_scalar(
                recording, config, sensor_subset(layout.sensor_ids, n)
            )
            assert_md_identical(grid[n], scalar)

    def test_single_subset_fast_path_matches_scalar(self):
        recording = collect(7)
        config = FadewichConfig()
        ids = sensor_subset(recording.layout.sensor_ids, 6)
        assert_md_identical(
            evaluate_md(recording, config, ids),
            evaluate_md_scalar(recording, config, ids),
        )

    def test_grid_accepts_shared_features(self):
        recording = collect(0)
        config = FadewichConfig()
        features = CampaignStdFeatures(recording, config)
        first = evaluate_md_grid(recording, config, [3, 5], features=features)
        again = evaluate_md_grid(recording, config, [3, 5], features=features)
        for n in (3, 5):
            assert_md_identical(first[n], again[n])

    def test_grid_dedupes_repeated_counts(self):
        # Regression: a duplicated count once appended its days twice,
        # silently doubling every Table 3 number.
        recording = collect(0)
        config = FadewichConfig()
        duplicated = evaluate_md_grid(recording, config, [5, 5, 5])
        reference = evaluate_md_grid(recording, config, [5])
        assert len(duplicated[5].days) == recording.n_days
        assert duplicated[5].counts == reference[5].counts

    def test_grid_of_empty_sweep_is_empty(self):
        recording = collect(0)
        assert evaluate_md_grid(recording, FadewichConfig(), []) == {}


class TestCrossValidationEquivalence:
    def _dataset(self, seed, n_sensors=9):
        recording = collect(seed, day_duration_s=900.0)
        config = FadewichConfig()
        evaluation = evaluate_md(
            recording, config, sensor_subset(recording.layout.sensor_ids, n_sensors)
        )
        return build_sample_dataset(evaluation, config, random_state=0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_vectorized_matches_scalar(self, seed):
        re_module, dataset = self._dataset(seed)
        vectorized = cross_validated_predictions(
            re_module, dataset, rng=np.random.default_rng(seed)
        )
        scalar = cross_validated_predictions_scalar(
            re_module, dataset, rng=np.random.default_rng(seed)
        )
        assert vectorized == scalar
        if len(dataset) >= 5:
            assert sorted(vectorized) == list(range(len(dataset)))

    def test_small_dataset_in_sample_path_matches(self):
        re_module, dataset = self._dataset(0)
        # Trim below n_folds to hit the in-sample fallback on both paths.
        small = SampleDataset(
            feature_names=dataset.feature_names,
            samples=[s for s in dataset.samples if s.label == dataset.labels[0]],
        )
        while len(small) > 3:
            small.samples.pop()
        vectorized = cross_validated_predictions(
            re_module, small, rng=np.random.default_rng(1)
        )
        scalar = cross_validated_predictions_scalar(
            re_module, small, rng=np.random.default_rng(1)
        )
        assert vectorized == scalar


class TestReplayEquivalence:
    def _setup(self, seed, layout):
        recording = collect(seed, layout=layout)
        config = FadewichConfig()
        evaluation = evaluate_md(recording, config, layout.sensor_ids)
        re_module, dataset = build_sample_dataset(
            evaluation, config, random_state=0
        )
        def make_system():
            system = FadewichSystem(
                stream_ids=re_module.stream_ids,
                workstation_ids=layout.workstation_ids,
                config=config,
            )
            if len(dataset):
                system.train(dataset)
            return system
        return recording, make_system

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make_layout", [paper_office, small_office])
    def test_array_replay_matches_scalar(self, seed, make_layout):
        recording, make_system = self._setup(seed, make_layout())
        day = recording.days[0]
        batch = make_system().replay_day(day)
        scalar = make_system().replay_day_scalar(day)
        assert batch.actions == scalar.actions
        assert batch.final_states == scalar.final_states
        assert batch.deauthentications == scalar.deauthentications
        assert batch.alerts == scalar.alerts
        assert batch.screensavers == scalar.screensavers

    def test_replay_of_inputless_workstation_matches_scalar(self):
        # Regression: the vectorised idle-time lookup crashed on a
        # workstation whose activity trace contains no input at all.
        from repro.workstation.activity import ActivityTrace

        recording, make_system = self._setup(0, small_office())
        day = recording.days[0]
        silent_activity = {
            wid: ActivityTrace(
                bin_seconds=trace.bin_seconds,
                active_bins=np.zeros_like(trace.active_bins),
                start_time=trace.start_time,
            )
            for wid, trace in day.activity.items()
        }
        from dataclasses import replace as dc_replace

        silent_day = dc_replace(day, activity=silent_activity)
        batch = make_system().replay_day(silent_day)
        scalar = make_system().replay_day_scalar(silent_day)
        assert batch.actions == scalar.actions
        assert batch.final_states == scalar.final_states
        assert batch.screensavers == scalar.screensavers

    def test_window_duration_series_matches_online_detector(self):
        # Drive the online detector step by step and compare dW_t.
        from repro.core.movement import MovementDetector

        recording, _ = self._setup(0, small_office())
        day = recording.days[0]
        stream_ids = day.trace.stream_ids
        detector = MovementDetector(stream_ids, FadewichConfig().md, 4.0)
        times = day.trace.times
        matrix = np.column_stack([day.trace.streams[sid] for sid in stream_ids])
        flags = np.zeros(times.shape[0], dtype=bool)
        reference = np.zeros(times.shape[0])
        for i in range(times.shape[0]):
            decision = detector.process(
                float(times[i]), dict(zip(stream_ids, matrix[i]))
            )
            flags[i] = bool(decision)
            reference[i] = detector.current_window_duration(float(times[i]))
        durations = window_duration_series(
            times, flags, FadewichConfig().md.merge_gap_s
        )
        np.testing.assert_array_equal(durations, reference)


class TestAnalysisContextCacheKeys:
    def test_config_change_invalidates_cached_results(self):
        # Regression: the caches were keyed on the bare sensor count, so
        # swapping the public ``config`` attribute kept serving results
        # computed under the old configuration.
        recording = collect(0)
        context = AnalysisContext(recording, FadewichConfig(), seed=0)
        before = context.md_evaluation(3)
        context.config = FadewichConfig(t_delta_s=2.0)
        after = context.md_evaluation(3)
        assert after.t_delta_s == 2.0
        assert after is not before
        # Switching back serves the original cached evaluation again.
        context.config = FadewichConfig()
        assert context.md_evaluation(3) is before

    def test_md_evaluations_batch_is_cached_per_count(self):
        recording = collect(7)
        context = AnalysisContext(recording, FadewichConfig(), seed=0)
        batch = context.md_evaluations([3, 4, 5])
        assert context.md_evaluation(4) is batch[4]
