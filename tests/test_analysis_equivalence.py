"""Equivalence regression tests: columnar analysis engine vs. scalar references.

PR 2's analysis fast paths must be *bit-identical* to their retained scalar
references:

* ``evaluate_md_grid`` / ``evaluate_md`` (shared rolling feature matrix +
  one detector engine over lockstep chains) vs. ``evaluate_md_scalar`` (per-count restrict /
  recompute / per-observation profile),
* ``cross_validated_predictions`` (array fold masks) vs.
  ``cross_validated_predictions_scalar`` (per-fold index lists),
* ``FadewichSystem.replay_day`` (array replay) vs. ``replay_day_scalar``
  (per-sample ``MovementDetector`` loop) and the live ``process_sample``
  loop, which must also hand RE, at every Rule-1 firing, exactly the
  feature vector ``RadioEnvironment.extract_sample`` builds for the
  training set and Table IV.

The suite pins those contracts across seeds, layouts and every sensor
count, with exact equality on counts/windows and float tolerance on rates,
plus the ``AnalysisContext`` cache-key regression (stale results after a
config change).
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import AnalysisContext, CampaignScale, collect_campaign
from repro.core import build_sample_dataset
from repro.core.config import FadewichConfig, MDConfig
from repro.core.controller import FadewichController
from repro.core.evaluation import (
    CampaignStdFeatures,
    cross_validated_predictions,
    evaluate_md,
    evaluate_md_grid,
    sensor_subset,
    streams_for_sensors,
)
from repro.core.movement import rolling_std_matrix
from repro.core.radio_env import RadioEnvironment
from repro.core.system import FadewichSystem
from repro.core.windows import VariationWindow
from repro.detectors import KdeMdDetector
from repro.mobility.events import ENTRY_LABEL
from repro.radio.office import paper_office
from repro.radio.trace import RssiTrace
from repro.simulation.collector import DayRecording
from repro.simulation.dataset import LabeledSample, SampleDataset
from repro.sliding import sample_count, sum_rows
from repro.streaming.detector import OnlineDetector, OnlineStdSum
from repro.workstation.activity import ActivityTrace
from repro.workstation.idle import TraceIdleProvider
from repro.workstation.session import SessionState

from tests.oracles.evaluation import (
    cross_validated_predictions_scalar,
    evaluate_md_scalar,
)
from tests.oracles.movement import MovementDetector, detect_offline_scalar
from tests.oracles.system import replay_day_scalar

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


def feed_live(system, day, stream_ids, rate=4.0):
    """Drive ``day`` through ``process_sample`` one sample at a time, as a
    deployment would: KMA reads the activity traces, and each input since
    the previous sample reaches the sessions (``replay_day``'s rule)."""
    system.attach_idle_provider(TraceIdleProvider(day.activity))
    times = day.trace.times.tolist()
    rows = np.column_stack([day.trace.streams[sid] for sid in stream_ids]).tolist()
    prev_t = times[0] - 1.0 / rate
    for t, row in zip(times, rows):
        system.process_sample(t, dict(zip(stream_ids, row)))
        for wid, session in system.sessions.items():
            if day.activity[wid].has_input_in(prev_t, t):
                if session.state is SessionState.DEAUTHENTICATED:
                    session.reauthenticate(t)
                else:
                    session.register_input(t)
        prev_t = t


def live_md(trace, config):
    """``(std_sums, thresholds, windows)`` of an :class:`OnlineDetector` fed
    a whole trace, from its second sample on (the first has no std)."""
    ids = trace.stream_ids
    detector = OnlineDetector(ids, config, 1.0 / trace.sample_interval)
    block = detector.process_block(
        trace.times, np.column_stack([trace.streams[sid] for sid in ids])
    )
    detector.finalize()
    return (
        block.std_sums[1:],
        block.thresholds[1:],
        tuple(detector.completed_windows),
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
            online = OnlineStdSum(len(stream_ids), 8).extend(
                np.column_stack([restricted.streams[s] for s in stream_ids])
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
        std_sums, thresholds, windows = live_md(trace, FadewichConfig().md)
        scalar = detect_offline_scalar(trace, FadewichConfig().md)
        assert windows == scalar.windows
        np.testing.assert_array_equal(std_sums, scalar.std_sums)
        np.testing.assert_array_equal(thresholds, scalar.threshold_trace)

    def test_batch_matches_scalar_when_update_outgrows_init(self):
        # batch_size > init_samples: an accepted window outgrows the init
        # window, and the contract must hold there too.
        recording = collect(7, n_days=1)
        stream_ids = streams_for_sensors(
            sensor_subset(recording.layout.sensor_ids, 3)
        )
        trace = recording.days[0].trace.restricted_to(stream_ids)
        config = MDConfig(profile_init_s=5.0, batch_size=40)
        _, thresholds, windows = live_md(trace, config)
        scalar = detect_offline_scalar(trace, config)
        assert windows == scalar.windows
        np.testing.assert_array_equal(thresholds, scalar.threshold_trace)

    def test_batch_does_not_mutate_precomputed_series(self):
        # Regression: the lockstep engine's KDE windows once aliased the
        # caller's std-sum array and slid over it in place.
        recording = collect(0, n_days=1)
        stream_ids = streams_for_sensors(
            sensor_subset(recording.layout.sensor_ids, 3)
        )
        trace = recording.days[0].trace.restricted_to(stream_ids)
        config = FadewichConfig().md
        result = detect_offline_scalar(trace, config)
        std_sums = result.std_sums.copy()
        original = std_sums.copy()
        init = sample_count(config.profile_init_s, 1.0 / trace.sample_interval)
        engine = KdeMdDetector().streaming_engine(config, init)
        _, thresholds = engine.extend(std_sums[:, np.newaxis])
        np.testing.assert_array_equal(std_sums, original)
        np.testing.assert_array_equal(thresholds[:, 0], result.threshold_trace)


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
    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _setup(seed, make_layout):
        layout = make_layout()
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
        recording, make_system = self._setup(seed, make_layout)
        day = recording.days[0]
        batch = make_system().replay_day(day)
        scalar = replay_day_scalar(make_system(), day)
        assert batch.actions == scalar.actions
        assert batch.final_states == scalar.final_states
        assert batch.deauthentications == scalar.deauthentications
        assert batch.alerts == scalar.alerts
        assert batch.screensavers == scalar.screensavers

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("make_layout", [paper_office, small_office])
    def test_live_process_sample_matches_array_replay(self, seed, make_layout):
        recording, make_system = self._setup(seed, make_layout)
        day = recording.days[0]
        batch = make_system().replay_day(day)
        system = make_system()
        feed_live(system, day, system.detector.stream_ids)
        live = system.report()
        assert live.actions == batch.actions
        assert live.final_states == batch.final_states
        assert live.deauthentications == batch.deauthentications
        assert live.alerts == batch.alerts
        assert live.screensavers == batch.screensavers

    def test_replay_of_inputless_workstation_matches_scalar(self):
        # Regression: the vectorised idle-time lookup crashed on a
        # workstation whose activity trace contains no input at all.
        recording, make_system = self._setup(0, small_office)
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
        scalar = replay_day_scalar(make_system(), silent_day)
        assert batch.actions == scalar.actions
        assert batch.final_states == scalar.final_states
        assert batch.screensavers == scalar.screensavers

    def test_online_detector_durations_match_movement_detector(self):
        # Drive the scalar detector step by step and compare dW_t with the
        # streaming kernel's, fed the whole day as one batch.
        recording, _ = self._setup(0, small_office)
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
        block = OnlineDetector(stream_ids, FadewichConfig().md, 4.0).process_block(
            times, matrix
        )
        np.testing.assert_array_equal(block.anomalous, flags)
        np.testing.assert_array_equal(block.durations, reference)


def burst_day(rate, config, origin, seed, extra_s):
    """A synthetic day of three streams, laid out on the grid
    ``origin + k / rate`` as ``SimulationClock`` lays out its own.

    Quiet noise (sigma 1) runs through the profile's installation phase
    and 10 s more; then come bursts (sigma 8), burst ``i`` lasting
    ``t_delta + extra_s[i]``, each followed by a quiet gap 8 s longer than
    the merge gap.  Two workstations see sparse random input.
    """
    rng = np.random.default_rng(seed)
    md = config.md
    sigma = [np.ones(int((md.profile_init_s + 10.0) * rate))]
    for extra in extra_s:
        sigma += [
            np.full(int((config.t_delta_s + extra) * rate), 8.0),
            np.ones(int((md.merge_gap_s + 8.0) * rate)),
        ]
    sigma = np.concatenate(sigma)
    n = sigma.shape[0]
    streams = {
        sid: -60.0 + sigma * rng.standard_normal(n) for sid in ("a-b", "b-c", "c-a")
    }
    activity = {
        wid: ActivityTrace(
            bin_seconds=1.0,
            active_bins=rng.random(int(n / rate) + 2) < 0.1,
            start_time=origin,
        )
        for wid in ("w1", "w2")
    }
    return DayRecording(
        day_index=0,
        duration_s=n / rate,
        trace=RssiTrace(times=origin + np.arange(n) / rate, streams=streams),
        events=None,
        activity=activity,
    )


@st.composite
def rule_one_days(draw):
    """A :func:`burst_day` and the configuration to replay it with.

    The rate may have a step that is not a dyadic fraction (3 and 5 Hz),
    ``t_delta`` lies on the sample grid or between two samples, and the
    day starts at a drawn time origin.
    """
    rate = draw(st.sampled_from([2.0, 3.0, 4.0, 5.0]))
    steps = draw(st.integers(2, 12))
    if draw(st.booleans()):
        steps += draw(st.floats(0.05, 0.95))
    config = FadewichConfig(
        t_delta_s=steps / rate,
        md=MDConfig(
            profile_init_s=draw(st.floats(8.0, 25.0)),
            merge_gap_s=draw(st.floats(0.0, 3.0)),
        ),
    )
    # The last choice starts the first burst within 2 s of t = 0, so a
    # window may straddle it.
    first_burst_s = config.md.profile_init_s + 10.0
    origin = draw(
        st.one_of(
            st.just(0.0),
            st.floats(-1000.0, 1e5),
            st.floats(-2.0, 2.0).map(lambda u: u - first_burst_s),
        )
    )
    day = burst_day(
        rate,
        config,
        origin,
        draw(st.integers(0, 2**32 - 1)),
        draw(st.lists(st.floats(0.5, 4.0), min_size=3, max_size=3)),
    )
    return config, rate, day


class TestRuleOneWindow:
    """At every Rule-1 firing, ``process_sample``, ``replay_day`` and
    ``replay_day_scalar`` hand ``RadioEnvironment.classify`` the vector
    ``extract_sample`` builds over ``[t1, t1 + t_delta]``, with ``t1`` the
    kernel's window start: the window RE is trained on and Table IV
    scores."""

    @staticmethod
    def _system(config, rate, ids):
        system = FadewichSystem(ids, ["w1", "w2"], config, sample_rate_hz=rate)
        re = RadioEnvironment(ids, config.re)
        dataset = re.empty_dataset()
        rng = np.random.default_rng(0)
        for i in range(6):
            dataset.add(
                LabeledSample(
                    features=rng.standard_normal(len(re.feature_names)),
                    label=f"w{i % 3}",
                    time=float(i),
                )
            )
        return system.train(dataset)

    @staticmethod
    def _rule_one(run):
        """``(t, label)`` of every Rule-1 query ``run()`` makes, and every
        vector it hands ``RadioEnvironment.classify``."""
        queries, vectors = [], []
        step, classify = FadewichController.step, RadioEnvironment.classify

        def spy_step(controller, t, d_wt, classify_window):
            def query():
                label = classify_window()
                queries.append((t, label))
                return label

            return step(controller, t, d_wt, query)

        def spy_classify(re, features):
            vectors.append(np.array(features, dtype=float))
            return classify(re, features)

        with mock.patch.object(FadewichController, "step", spy_step), \
                mock.patch.object(RadioEnvironment, "classify", spy_classify):
            run()
        return queries, vectors

    def _runs(self, config, rate, day):
        ids = day.trace.stream_ids
        return {
            "replay_day": lambda: self._system(config, rate, ids).replay_day(day),
            "replay_day_scalar": lambda: replay_day_scalar(
                self._system(config, rate, ids), day
            ),
            "process_sample": lambda: feed_live(
                self._system(config, rate, ids), day, ids, rate
            ),
        }

    @settings(max_examples=25, deadline=None)
    @given(case=rule_one_days())
    def test_every_path_classifies_the_training_window(self, case):
        config, rate, day = case
        ids = day.trace.stream_ids
        times = day.trace.times.tolist()
        rows = np.column_stack([day.trace.streams[sid] for sid in ids]).tolist()
        kernel = OnlineDetector(ids, config.md, rate)
        window_start = {}
        for t, row in zip(times, rows):
            kernel.process(t, dict(zip(ids, row)))
            window = kernel.current_window(t)
            window_start[t] = None if window is None else window.t_start
        re = RadioEnvironment(ids, config.re)

        firing_times = {}
        for path, run in self._runs(config, rate, day).items():
            queries, vectors = self._rule_one(run)
            assert queries, f"{path}: no Rule-1 firing on a day with bursts"
            assert len(vectors) == len(queries)
            firing_times[path] = [t for t, _ in queries]
            for t, vector in zip(firing_times[path], vectors):
                expected = re.extract_sample(
                    day.trace,
                    VariationWindow(window_start[t], t),
                    config.t_delta_s,
                )
                assert vector.tobytes() == expected.tobytes(), (path, t)
        assert (
            firing_times["replay_day"]
            == firing_times["replay_day_scalar"]
            == firing_times["process_sample"]
        )

    def test_a_one_sample_window_reports_an_office_entry(self):
        # t_delta is shorter than the 0.5-s step: [t1, t1 + t_delta] holds
        # t1 alone, so Rule 1 reports an entry without querying RE.
        config = FadewichConfig(t_delta_s=0.3, md=MDConfig(profile_init_s=10.0))
        day = burst_day(2.0, config, 0.0, 1, [2.0, 2.0, 2.0])
        for path, run in self._runs(config, 2.0, day).items():
            queries, vectors = self._rule_one(run)
            assert queries, f"{path}: no Rule-1 firing on a day with bursts"
            assert {label for _, label in queries} == {ENTRY_LABEL}, path
            assert vectors == [], path


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
