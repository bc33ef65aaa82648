"""Tests for the Movement Detection and Radio Environment modules."""

import numpy as np
import pytest

from repro.core.config import FadewichConfig, MDConfig, REConfig
from repro.core.movement import rolling_std_matrix
from repro.core.radio_env import RadioEnvironment, RENotTrainedError
from repro.core.windows import VariationWindow
from repro.radio.trace import RssiTrace
from repro.simulation.dataset import LabeledSample
from repro.streaming import OnlineDetector

from tests.oracles.movement import (
    MovementDetector,
    NormalProfile,
    StdSumTracker,
    detect_offline_scalar,
)


def live_md(trace, config):
    """An :class:`OnlineDetector` fed a whole trace as one batch, then
    finalized: ``(block, detector)``."""
    detector = OnlineDetector(trace.stream_ids, config, sample_rate_hz=4.0)
    block = detector.process_block(
        trace.times,
        np.column_stack([trace.streams[s] for s in trace.stream_ids]),
    )
    detector.finalize()
    return block, detector


def synthetic_trace(
    duration_s=200.0,
    rate=4.0,
    streams=("a-b", "b-a"),
    burst=(100.0, 110.0),
    burst_sigma=4.0,
    seed=0,
):
    """A quiet multi-stream trace with one high-fluctuation burst."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * rate)
    times = np.arange(n) / rate
    data = {}
    for sid in streams:
        base = rng.normal(-60.0, 1.0, n)
        mask = (times >= burst[0]) & (times <= burst[1])
        base[mask] += rng.normal(0.0, burst_sigma, mask.sum())
        data[sid] = base
    return RssiTrace(times=times, streams=data)


class TestStdSumTracker:
    def test_returns_none_until_two_samples(self):
        tracker = StdSumTracker(["a-b"], window_samples=4)
        assert tracker.update({"a-b": 1.0}) is None
        assert tracker.update({"a-b": 2.0}) is not None

    def test_constant_streams_give_zero_sum(self):
        tracker = StdSumTracker(["a-b", "b-a"], window_samples=4)
        for _ in range(6):
            value = tracker.update({"a-b": -50.0, "b-a": -55.0})
        assert value == pytest.approx(0.0)

    def test_sum_over_streams(self):
        tracker = StdSumTracker(["a-b", "b-a"], window_samples=2)
        tracker.update({"a-b": 0.0, "b-a": 0.0})
        value = tracker.update({"a-b": 2.0, "b-a": 4.0})
        assert value == pytest.approx(1.0 + 2.0)

    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            StdSumTracker(["a-b"], window_samples=1)


class TestNormalProfile:
    def test_initialisation_then_thresholding(self, rng):
        profile = NormalProfile(MDConfig(), init_samples=50)
        for _ in range(50):
            assert profile.observe(float(rng.normal(10.0, 1.0))) is None or profile.is_ready
        assert profile.is_ready
        assert profile.observe(100.0) is True
        assert profile.observe(10.0) is False

    def test_threshold_near_99th_percentile(self, rng):
        profile = NormalProfile(MDConfig(alpha=1.0), init_samples=300)
        values = rng.normal(50.0, 5.0, 300)
        for v in values:
            profile.observe(float(v))
        assert profile.threshold == pytest.approx(np.percentile(values, 99), abs=3.0)

    def test_profile_adapts_to_slow_drift(self, rng):
        config = MDConfig(batch_size=20, tau=0.5)
        profile = NormalProfile(config, init_samples=100)
        for _ in range(100):
            profile.observe(float(rng.normal(10.0, 1.0)))
        old_threshold = profile.threshold
        # Feed a higher but not anomalous-dominated level repeatedly.
        for _ in range(300):
            profile.observe(float(rng.normal(12.0, 1.0)))
        assert profile.threshold > old_threshold

    def test_anomalous_batches_do_not_poison_profile(self, rng):
        config = MDConfig(batch_size=20, tau=0.25)
        profile = NormalProfile(config, init_samples=100)
        for _ in range(100):
            profile.observe(float(rng.normal(10.0, 1.0)))
        threshold_before = profile.threshold
        for _ in range(100):
            profile.observe(float(rng.normal(200.0, 1.0)))  # wildly anomalous
        assert profile.threshold == pytest.approx(threshold_before, rel=0.2)

    def test_invalid_init_samples(self):
        with pytest.raises(ValueError):
            NormalProfile(MDConfig(), init_samples=1)


class TestOfflineMD:
    def test_rolling_std_matrix_detects_burst(self):
        trace = synthetic_trace()
        times, matrix = rolling_std_matrix(trace, window_samples=8)
        sums = matrix.sum(axis=1)
        burst_mask = (times >= 102.0) & (times <= 110.0)
        assert sums[burst_mask].mean() > sums[~burst_mask].mean() * 1.5

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize(
        "config", [MDConfig(), MDConfig(profile_init_s=0.5, batch_size=2)]
    )
    def test_short_trace_offline_md_matches_online_detector(self, n, config):
        # A day shorter than the std window (w = 8) is partial windows
        # only: offline MD still runs, and equals the live detector.
        trace = synthetic_trace(duration_s=n / 4.0)
        result = detect_offline_scalar(trace, config)
        block, detector = live_md(trace, config)
        np.testing.assert_array_equal(result.times, trace.times[1:])
        np.testing.assert_array_equal(result.std_sums, block.std_sums[1:])
        np.testing.assert_array_equal(
            result.threshold_trace, block.thresholds[1:]
        )
        assert list(result.windows) == detector.completed_windows

    @pytest.mark.parametrize("n", [1, 2])
    def test_offline_md_below_three_samples_raises(self, n):
        trace = synthetic_trace(duration_s=n / 4.0)
        with pytest.raises(ValueError):
            detect_offline_scalar(trace, MDConfig())

    def test_offline_md_of_streamless_trace_raises(self):
        trace = RssiTrace(times=np.arange(20) / 4.0, streams={})
        with pytest.raises(ValueError, match="no streams"):
            rolling_std_matrix(trace, window_samples=8)
        with pytest.raises(ValueError, match="no streams"):
            detect_offline_scalar(trace, MDConfig())

    def test_online_detector_finds_burst_window(self):
        trace = synthetic_trace()
        _, detector = live_md(trace, MDConfig(profile_init_s=40.0))
        long_windows = [w for w in detector.completed_windows if w.duration >= 4.0]
        assert any(w.t_start <= 104.0 and w.t_end >= 106.0 for w in long_windows)

    def test_online_detector_no_movement_no_long_windows(self):
        trace = synthetic_trace(burst_sigma=0.0)
        _, detector = live_md(trace, MDConfig(profile_init_s=40.0))
        assert not [w for w in detector.completed_windows if w.duration >= 4.5]

    def test_threshold_trace_has_same_length_as_series(self):
        trace = synthetic_trace()
        result = detect_offline_scalar(trace, MDConfig(profile_init_s=40.0))
        assert result.threshold_trace.shape == result.std_sums.shape


class TestOnlineMovementDetector:
    def test_online_matches_burst(self):
        trace = synthetic_trace()
        detector = MovementDetector(
            trace.stream_ids, MDConfig(profile_init_s=40.0), sample_rate_hz=4.0
        )
        for i, t in enumerate(trace.times):
            sample = {sid: trace.streams[sid][i] for sid in trace.stream_ids}
            detector.process(float(t), sample)
        detector.finalize(float(trace.times[-1]))
        windows = [w for w in detector.completed_windows if w.duration >= 4.0]
        assert any(w.t_start <= 104.0 and w.t_end >= 106.0 for w in windows)

    def test_current_window_duration_zero_when_quiet(self):
        detector = MovementDetector(["a-b"], MDConfig(profile_init_s=10.0))
        assert detector.current_window_duration(0.0) == 0.0

    def test_out_of_order_samples_rejected(self):
        detector = MovementDetector(["a-b"], MDConfig())
        detector.process(1.0, {"a-b": -50.0})
        with pytest.raises(ValueError):
            detector.process(0.5, {"a-b": -50.0})

    def test_invalid_sample_rate(self):
        with pytest.raises(ValueError):
            MovementDetector(["a-b"], sample_rate_hz=0.0)


class TestRadioEnvironment:
    def _dataset(self, re_module, rng, n_per_class=8):
        dataset = re_module.empty_dataset()
        for label, shift in (("w0", 0.0), ("w1", 5.0), ("w2", 10.0)):
            for k in range(n_per_class):
                features = rng.normal(shift, 0.3, len(re_module.feature_names))
                dataset.add(
                    LabeledSample(
                        features=features, label=label, time=float(k), day_index=0
                    )
                )
        return dataset

    def test_feature_names_cover_streams(self):
        re_module = RadioEnvironment(stream_ids=["a-b", "b-a"])
        assert len(re_module.feature_names) == 6

    def test_feature_names_follow_paper_convention(self):
        re_module = RadioEnvironment(stream_ids=["d1-d2"])
        assert re_module.feature_names == ["d1-d2-var", "d1-d2-ent", "d1-d2-ac"]

    def test_duplicate_stream_ids_raise(self):
        with pytest.raises(ValueError, match="unique"):
            RadioEnvironment(stream_ids=["d1-d2", "d1-d2"])

    def test_empty_stream_ids_raise(self):
        with pytest.raises(ValueError):
            RadioEnvironment(stream_ids=[])

    def test_fit_and_classify_synthetic(self, rng):
        re_module = RadioEnvironment(stream_ids=["a-b"], config=REConfig())
        dataset = self._dataset(re_module, rng)
        re_module.fit(dataset)
        assert re_module.is_trained
        sample = rng.normal(5.0, 0.3, len(re_module.feature_names))
        assert re_module.classify(sample) == "w1"

    def test_classify_before_fit_raises(self):
        re_module = RadioEnvironment(stream_ids=["a-b"])
        with pytest.raises(RENotTrainedError):
            re_module.classify(np.zeros(3))

    def test_fit_empty_dataset_raises(self):
        re_module = RadioEnvironment(stream_ids=["a-b"])
        with pytest.raises(ValueError):
            re_module.fit(re_module.empty_dataset())

    def test_extract_sample_from_trace(self):
        trace = synthetic_trace()
        re_module = RadioEnvironment(stream_ids=list(trace.stream_ids))
        window = VariationWindow(100.0, 108.0)
        features = re_module.extract_sample(trace, window, t_delta_s=4.5)
        assert features.shape == (len(re_module.feature_names),)
        assert np.all(np.isfinite(features))

    def test_extract_sample_missing_stream_raises(self):
        trace = synthetic_trace(streams=("a-b",))
        re_module = RadioEnvironment(stream_ids=["a-b", "b-a"])
        with pytest.raises(KeyError):
            re_module.extract_sample(trace, VariationWindow(100.0, 108.0), 4.5)

    def test_extract_sample_short_window_raises(self):
        trace = synthetic_trace()
        re_module = RadioEnvironment(stream_ids=list(trace.stream_ids))
        with pytest.raises(ValueError, match="fewer than 2 samples"):
            re_module.extract_sample(trace, VariationWindow(199.75, 205.0), 4.5)

    def test_extract_sample_invalid_t_delta(self):
        trace = synthetic_trace()
        re_module = RadioEnvironment(stream_ids=list(trace.stream_ids))
        with pytest.raises(ValueError):
            re_module.extract_sample(trace, VariationWindow(100.0, 108.0), 0.0)

    def test_clone_untrained_preserves_layout(self):
        re_module = RadioEnvironment(stream_ids=["a-b", "b-a"])
        clone = re_module.clone_untrained()
        assert clone.feature_names == re_module.feature_names
        assert not clone.is_trained

    def test_classify_window_end_to_end(self, rng):
        trace = synthetic_trace()
        re_module = RadioEnvironment(stream_ids=list(trace.stream_ids))
        window = VariationWindow(100.0, 108.0)
        sample = LabeledSample(
            re_module.extract_sample(trace, window, 4.5), label="w1", time=100.0
        )
        quiet_window = VariationWindow(20.0, 28.0)
        quiet = LabeledSample(
            re_module.extract_sample(trace, quiet_window, 4.5), label="w0", time=20.0
        )
        dataset = re_module.empty_dataset()
        # duplicate with jitter to get a trainable set
        for base in (sample, quiet):
            for k in range(6):
                dataset.add(
                    LabeledSample(
                        features=base.features + rng.normal(0, 0.01, base.features.shape),
                        label=base.label,
                        time=float(k),
                    )
                )
        re_module.fit(dataset)
        assert re_module.classify_window(trace, window, 4.5) == "w1"
        assert re_module.classify_window(trace, quiet_window, 4.5) == "w0"
