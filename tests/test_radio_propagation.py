"""Tests for path loss, fading, shadowing, links, channel and traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.radio.channel import ChannelConfig, RadioChannel
from repro.radio.fading import LinkFadeLevel, QuiescentNoise, SkewLaplace
from repro.radio.geometry import Point
from repro.radio.links import LinkSet, enumerate_stream_ids, stream_id
from repro.radio.office import paper_office
from repro.radio.pathloss import FreeSpacePathLoss, LogDistancePathLoss
from repro.radio.shadowing import BodyShadowingModel
from repro.radio.trace import RssiTrace

from tests.oracles.movement import StreamBuffer


class TestPathLoss:
    def test_loss_increases_with_distance(self):
        model = LogDistancePathLoss(exponent=3.0)
        assert model.loss_db(4.0) > model.loss_db(2.0) > model.loss_db(1.0)

    def test_reference_loss_at_reference_distance(self):
        model = LogDistancePathLoss(reference_loss_db=40.0, reference_distance=1.0)
        assert model.loss_db(1.0) == pytest.approx(40.0)

    def test_mean_rssi_decreases_with_distance(self):
        model = LogDistancePathLoss()
        assert model.mean_rssi_dbm(1.0) > model.mean_rssi_dbm(5.0)

    def test_higher_exponent_means_more_loss(self):
        lossy = LogDistancePathLoss(exponent=4.0)
        mild = LogDistancePathLoss(exponent=2.0)
        assert lossy.loss_db(5.0) > mild.loss_db(5.0)

    def test_negative_distance_raises(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss().loss_db(-1.0)

    def test_invalid_exponent_raises(self):
        with pytest.raises(ValueError):
            LogDistancePathLoss(exponent=0.0)

    def test_free_space_matches_friis_at_2_4ghz(self):
        model = FreeSpacePathLoss(frequency_hz=2.4e9)
        # Friis at 1 m, 2.4 GHz is almost exactly 40 dB.
        assert model.loss_db(1.0) == pytest.approx(40.05, abs=0.1)

    def test_free_space_less_lossy_than_indoor_at_distance(self):
        indoor = LogDistancePathLoss(exponent=3.5)
        free = FreeSpacePathLoss()
        assert indoor.loss_db(10.0) > free.loss_db(10.0)


class TestFading:
    def test_skew_laplace_negative_bias(self, rng):
        dist = SkewLaplace(mode=0.0, lam_neg=0.4, lam_pos=1.2)
        samples = dist.sample(rng, size=5000)
        # The attenuation tail is heavier, so the mean is negative.
        assert samples.mean() < 0
        assert dist.mean() < 0

    def test_skew_laplace_scalar_sample(self, rng):
        value = SkewLaplace().sample(rng)
        assert isinstance(value, float)

    def test_skew_laplace_invalid_rates_raise(self):
        with pytest.raises(ValueError):
            SkewLaplace(lam_neg=0.0)

    def test_fade_level_draw_within_range(self, rng):
        for _ in range(20):
            fade = LinkFadeLevel.draw(rng, min_sensitivity=0.5, max_sensitivity=1.5)
            assert 0.5 <= fade.sensitivity <= 1.5

    def test_fade_level_negative_sensitivity_rejected(self):
        with pytest.raises(ValueError):
            LinkFadeLevel(sensitivity=-0.1)

    def test_quiescent_noise_scale(self, rng):
        noise = QuiescentNoise(base_sigma_db=1.0, outlier_prob=0.0)
        samples = noise.sample(rng, fade_sensitivity=1.0, size=5000)
        assert np.std(samples) == pytest.approx(1.0, abs=0.1)

    def test_quiescent_noise_sensitivity_scaling(self, rng):
        noise = QuiescentNoise(base_sigma_db=1.0, outlier_prob=0.0)
        quiet = np.std(noise.sample(rng, 0.5, size=3000))
        loud = np.std(noise.sample(rng, 2.0, size=3000))
        assert loud > quiet

    def test_quiescent_noise_invalid_prob_raises(self):
        with pytest.raises(ValueError):
            QuiescentNoise(outlier_prob=1.5)


class TestShadowing:
    """Body shadowing as the simulator computes it.

    Each case reads one stream's column of
    ``RadioChannel._shadowing_vectors``, the one-instant wrapper over
    ``_shadowing_block`` that ``sample_vector`` and ``sample_block`` share.
    ``_at(channel, along, across)`` places a body ``along`` metres from the
    stream's transmitter towards its receiver and ``across`` metres off the
    line of sight.  A body ``d`` metres past the receiver on that line has
    excess path length ``2 d`` and lies ``d`` metres from the link.
    """

    SID = "d2-d4"

    @staticmethod
    def _channel(layout, **sensitivity):
        links = LinkSet(layout, np.random.default_rng(0), **sensitivity)
        return RadioChannel(links, ChannelConfig(), seed_seq=np.random.SeedSequence(0))

    @pytest.fixture()
    def channel(self, layout):
        return self._channel(layout)

    def _length(self, channel):
        return channel.links.get(self.SID).length

    def _at(self, channel, along, across=0.0):
        stream = channel.links.get(self.SID)
        tx, rx = stream.tx_position, stream.rx_position
        ux = (rx.x - tx.x) / stream.length
        uy = (rx.y - tx.y) / stream.length
        return Point(
            tx.x + along * ux - across * uy, tx.y + along * uy + across * ux
        )

    @staticmethod
    def _reach(channel):
        """Excess path length beyond which a body has no static effect."""
        sh = channel.config.shadowing
        return sh.lambda_m * sh.sigma_reach_multiplier

    def _past_receiver(self, channel, d=None):
        """A body ``d`` metres past the receiver on the link's line; by
        default ``0.6 * reach``, where the excess path ``2 d`` is out of the
        static effect's reach but motion still disturbs the link."""
        if d is None:
            d = 0.6 * self._reach(channel)
        return self._at(channel, self._length(channel) + d)

    def _effect(self, channel, bodies, speeds=None):
        """``(attenuation_db, extra_sigma_db)`` of the stream ``SID``."""
        if speeds is None:
            speeds = [0.0] * len(bodies)
        column = channel.stream_ids.index(self.SID)
        atten, sigma = channel._shadowing_vectors(bodies, speeds)[:, column]
        return float(atten), float(sigma)

    def test_body_on_line_of_sight_attenuates_most(self, channel):
        mid = self._length(channel) / 2
        on_los = self._effect(channel, [self._at(channel, mid)])
        off_los = self._effect(channel, [self._at(channel, mid, 0.5)])
        assert on_los[0] > off_los[0] > 0.0

    def test_body_beyond_reach_has_no_effect(self, channel):
        reach = self._reach(channel)
        inside = self._effect(channel, [self._past_receiver(channel, 0.4 * reach)])
        beyond = self._effect(channel, [self._past_receiver(channel, 0.6 * reach)])
        assert inside[0] > 0.0 and inside[1] > 0.0
        assert beyond == (0.0, 0.0)

    def test_two_bodies_attenuate_more_than_one(self, channel):
        length = self._length(channel)
        one = self._effect(channel, [self._at(channel, 0.5 * length)])
        two = self._effect(
            channel,
            [self._at(channel, 0.35 * length), self._at(channel, 0.65 * length)],
        )
        # Attenuations add in dB; fluctuation variances add.
        assert two[0] == pytest.approx(2.0 * one[0])
        assert two[1] == pytest.approx(math.sqrt(2.0) * one[1])

    def test_fade_sensitivity_scales_the_effect(self, layout):
        weak = self._channel(layout, min_sensitivity=0.5, max_sensitivity=0.5)
        strong = self._channel(layout, min_sensitivity=1.5, max_sensitivity=1.5)
        mid = self._length(weak) / 2
        w = self._effect(weak, [self._at(weak, mid, 0.2)], [1.0])
        s = self._effect(strong, [self._at(strong, mid, 0.2)], [1.0])
        assert w[0] > 0.0 and w[1] > 0.0
        assert s[0] == pytest.approx(3.0 * w[0])
        assert s[1] == pytest.approx(3.0 * w[1])

    def test_static_body_adds_no_motion_sigma(self, channel):
        spot = self._past_receiver(channel)
        assert self._effect(channel, [spot], [0.0]) == (0.0, 0.0)
        assert self._effect(channel, [spot], [1.0])[1] > 0.0

    def test_motion_sigma_grows_with_speed_until_saturation(self, channel):
        ref = channel.config.shadowing.motion_reference_speed
        spot = self._past_receiver(channel)
        slow, walk, cap, sprint = (
            self._effect(channel, [spot], [factor * ref])[1]
            for factor in (0.3, 1.0, 1.5, 10.0)
        )
        assert slow < walk < cap
        assert cap == pytest.approx(1.5 * walk)
        assert sprint == cap

    def test_motion_sigma_decays_with_distance(self, channel):
        near = self._effect(channel, [self._past_receiver(channel)], [1.0])[1]
        far = self._effect(channel, [self._past_receiver(channel, 2.5)], [1.0])[1]
        assert near > far > 0.0

    # -- link geometry: excess path length and body-to-link distance -- #

    def _sensitivity(self, channel):
        return channel.links.get(self.SID).fade.sensitivity

    @staticmethod
    def _motion_only(layout):
        """A channel whose only extra fluctuation is the motion term."""
        links = LinkSet(layout, np.random.default_rng(0))
        config = ChannelConfig(shadowing=BodyShadowingModel(max_extra_sigma_db=0.0))
        return RadioChannel(links, config, seed_seq=np.random.SeedSequence(0))

    def _motion_distance(self, channel, body):
        """The body-to-link distance the motion term decayed over, read back
        from ``extra_sigma_db`` of a body moving at the reference speed."""
        sh = channel.config.shadowing
        _, sigma = self._effect(channel, [body], [sh.motion_reference_speed])
        peak = sh.motion_sigma_db * self._sensitivity(channel)
        return -sh.motion_range_m * math.log(sigma / peak)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.5, 1.0])
    def test_body_on_the_segment_has_zero_excess_path(self, channel, fraction):
        sh = channel.config.shadowing
        sensitivity = self._sensitivity(channel)
        body = self._at(channel, fraction * self._length(channel))
        atten, sigma = self._effect(channel, [body])
        assert atten == pytest.approx(sh.max_attenuation_db * sensitivity)
        assert sigma == pytest.approx(sh.max_extra_sigma_db * sensitivity)

    @pytest.mark.parametrize("across", [0.1, 0.4, 0.8])
    def test_attenuation_decays_with_the_excess_path(self, channel, across):
        # A body ``across`` metres off the link's midpoint lengthens the
        # path by 2 * hypot(L / 2, across) - L.
        sh = channel.config.shadowing
        length = self._length(channel)
        excess = 2.0 * math.hypot(length / 2, across) - length
        assert 0.0 < excess < self._reach(channel)
        atten, _ = self._effect(channel, [self._at(channel, length / 2, across)])
        decay = math.exp(-sh.attenuation_decay * excess / sh.lambda_m)
        assert atten == pytest.approx(
            sh.max_attenuation_db * decay * self._sensitivity(channel)
        )

    @pytest.mark.parametrize("across", [0.0, 0.5, 2.0, -1.0])
    def test_motion_distance_beside_the_link_is_perpendicular(self, layout, across):
        channel = self._motion_only(layout)
        body = self._at(channel, 0.3 * self._length(channel), across)
        assert self._motion_distance(channel, body) == pytest.approx(
            abs(across), abs=1e-9
        )

    @pytest.mark.parametrize("end", ["tx", "rx"])
    def test_motion_distance_past_an_end_is_to_that_end(self, layout, end):
        # 3 m beyond the end along the line and 4 m off it: 5 m from the end.
        channel = self._motion_only(layout)
        along = -3.0 if end == "tx" else self._length(channel) + 3.0
        body = self._at(channel, along, 4.0)
        assert self._motion_distance(channel, body) == pytest.approx(5.0)

    def test_every_stream_column_peaks_on_its_own_link(self, channel):
        sh = channel.config.shadowing
        assert channel.stream_ids == [stream.id for stream in channel.links]
        for column, stream in enumerate(channel.links):
            tx, rx = stream.tx_position, stream.rx_position
            mid = Point((tx.x + rx.x) / 2, (tx.y + rx.y) / 2)
            atten, sigma = channel._shadowing_vectors([mid], [0.0])
            sensitivity = stream.fade.sensitivity
            assert atten[column] == pytest.approx(sh.max_attenuation_db * sensitivity)
            assert sigma[column] == pytest.approx(sh.max_extra_sigma_db * sensitivity)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            BodyShadowingModel(lambda_m=0.0)
        with pytest.raises(ValueError):
            BodyShadowingModel(sigma_reach_multiplier=0.5)


class TestLinks:
    def test_stream_id_format(self):
        assert stream_id("d1", "d2") == "d1-d2"

    def test_stream_id_same_sensor_raises(self):
        with pytest.raises(ValueError):
            stream_id("d1", "d1")

    def test_enumerate_stream_ids_count(self):
        ids = enumerate_stream_ids(["d1", "d2", "d3"])
        assert len(ids) == 6
        assert len(set(ids)) == 6

    def test_linkset_has_m_times_m_minus_one_streams(self, layout, rng):
        links = LinkSet(layout, rng)
        assert len(links) == 9 * 8

    def test_linkset_reciprocal_fade_levels(self, layout, rng):
        links = LinkSet(layout, rng)
        assert links.get("d1-d2").fade.sensitivity == links.get("d2-d1").fade.sensitivity

    def test_linkset_lookup_unknown_stream_raises(self, layout, rng):
        links = LinkSet(layout, rng)
        with pytest.raises(KeyError):
            links.get("d1-d99")

    def test_linkset_needs_two_sensors(self, layout, rng):
        single = layout.with_sensors(["d1"])
        with pytest.raises(ValueError):
            LinkSet(single, rng)

    def test_stream_length_matches_geometry(self, layout, rng):
        links = LinkSet(layout, rng)
        s = links.get("d2-d3")
        expected = layout.sensor("d2").position.distance_to(layout.sensor("d3").position)
        assert s.length == pytest.approx(expected)


class TestRadioChannel:
    @pytest.fixture()
    def channel(self, layout, rng):
        links = LinkSet(layout, rng)
        return RadioChannel(
            links,
            ChannelConfig(),
            sample_interval_s=0.25,
            seed_seq=np.random.SeedSequence(0),
        )

    def test_sample_returns_all_streams(self, channel):
        values = channel.sample_vector([])
        assert values.shape == (len(channel.stream_ids),)

    def test_rssi_values_plausible(self, channel):
        for value in channel.sample_vector([]):
            assert -95.0 <= value <= 10.0

    def test_quantization_to_integer_dbm(self, channel):
        for value in channel.sample_vector([]):
            assert value == pytest.approx(round(value))

    def test_moving_body_increases_fluctuation(self, layout):
        rng = np.random.default_rng(7)
        links = LinkSet(layout, rng)
        channel = RadioChannel(links, ChannelConfig(), seed_seq=np.random.SeedSequence(7))
        quiet = np.array([channel.sample_vector([]) for _ in range(80)])
        path = [Point(0.5 + 0.05 * i, 1.5) for i in range(80)]
        moving = np.array(
            [channel.sample_vector([p], [1.4]) for p in path]
        )
        assert moving.std(axis=0).sum() > quiet.std(axis=0).sum()

    def test_static_body_changes_mean_not_variance_much(self, layout):
        rng = np.random.default_rng(8)
        links = LinkSet(layout, rng)
        channel = RadioChannel(links, ChannelConfig(), seed_seq=np.random.SeedSequence(8))
        quiet = np.array([channel.sample_vector([]) for _ in range(100)])
        body = Point(3.0, 1.5)
        occupied = np.array([channel.sample_vector([body], [0.0]) for _ in range(100)])
        # The mean RSSI of obstructed links drops...
        assert occupied.mean() < quiet.mean()
        # ...but the total fluctuation level stays comparable.
        assert occupied.std(axis=0).sum() < quiet.std(axis=0).sum() * 1.3

    def test_speeds_length_mismatch_raises(self, channel):
        with pytest.raises(ValueError):
            channel.sample_vector([Point(1, 1)], [1.0, 2.0])

    def test_sample_vector_rejects_negative_speed(self, channel):
        with pytest.raises(ValueError, match="body speeds"):
            channel.sample_vector([Point(3.0, 1.5)], [-1.4])

    @pytest.mark.parametrize("speed", [np.nan, np.inf])
    def test_sample_vector_rejects_non_finite_speed(self, channel, speed):
        with pytest.raises(ValueError, match="body speeds"):
            channel.sample_vector([Point(3.0, 1.5)], [speed])

    def test_sample_block_rejects_negative_speed(self, channel):
        speeds = np.full((4, 1), 1.4)
        speeds[2, 0] = -1.4
        with pytest.raises(ValueError, match="body speeds"):
            channel.sample_block(np.full((4, 1, 2), 1.5), speeds)

    @pytest.mark.parametrize("speed", [np.nan, np.inf])
    def test_sample_block_rejects_non_finite_speed(self, channel, speed):
        speeds = np.full((4, 1), 1.4)
        speeds[2, 0] = speed
        with pytest.raises(ValueError, match="body speeds"):
            channel.sample_block(np.full((4, 1, 2), 1.5), speeds)

    def test_mean_rssi_longer_links_weaker(self, channel, layout):
        short = channel._mean_vec[channel.stream_ids.index("d2-d3")]
        long = channel._mean_vec[channel.stream_ids.index("d2-d6")]
        d_short = layout.sensor("d2").position.distance_to(layout.sensor("d3").position)
        d_long = layout.sensor("d2").position.distance_to(layout.sensor("d6").position)
        assert d_short < d_long
        assert short > long


class TestTraces:
    def test_stream_buffer_window(self):
        buf = StreamBuffer(["a", "b"], maxlen=4)
        for i in range(6):
            buf.append({"a": float(i), "b": float(-i)})
        assert buf.fill_level() == 4
        assert list(buf.window("a")) == [2.0, 3.0, 4.0, 5.0]

    def test_stream_buffer_missing_stream_raises(self):
        buf = StreamBuffer(["a"], maxlen=3)
        with pytest.raises(KeyError):
            buf.append({"b": 1.0})

    def test_stream_buffer_invalid_args(self):
        with pytest.raises(ValueError):
            StreamBuffer(["a"], maxlen=0)
        with pytest.raises(ValueError):
            StreamBuffer([], maxlen=3)

    def test_trace_slice_time(self):
        times = np.arange(0, 10, 0.5)
        trace = RssiTrace(times=times, streams={"s": np.arange(times.shape[0], dtype=float)})
        sliced = trace.slice_time(2.0, 4.0)
        assert sliced.times.min() >= 2.0
        assert sliced.times.max() <= 4.0

    def test_trace_restricted_to_subset(self):
        times = np.arange(5, dtype=float)
        trace = RssiTrace(
            times=times,
            streams={"a-b": np.zeros(5), "b-a": np.ones(5), "a-c": np.ones(5)},
        )
        sub = trace.restricted_to(["a-b", "b-a"])
        assert sub.stream_ids == ["a-b", "b-a"]
        with pytest.raises(KeyError):
            trace.restricted_to(["missing"])

    def test_trace_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            RssiTrace(times=np.arange(3, dtype=float), streams={"s": np.zeros(4)})

    def test_trace_non_monotone_times_raise(self):
        with pytest.raises(ValueError):
            RssiTrace(times=np.array([0.0, 1.0, 0.5]), streams={"s": np.zeros(3)})

    def test_trace_sample_interval(self):
        times = np.arange(0, 2, 0.25)
        trace = RssiTrace(times=times, streams={"s": np.zeros(times.shape[0])})
        assert trace.sample_interval == pytest.approx(0.25)

    def test_trace_shape_properties(self):
        trace = RssiTrace(
            times=[0.0, 0.25, 0.5], streams={"a-b": [1.0, 2.0, 3.0], "b-a": [4, 5, 6]}
        )
        assert trace.n_samples == 3
        assert trace.stream_ids == ["a-b", "b-a"]
        assert trace.duration == pytest.approx(0.5)
        assert trace.streams["b-a"].dtype == float
        single = RssiTrace(times=[7.0], streams={"a-b": [1.0]})
        assert single.duration == 0.0
        with pytest.raises(ValueError):
            single.sample_interval

    def test_trace_slice_time_is_inclusive(self):
        times = np.arange(0, 5, 0.5)
        values = np.arange(times.shape[0], dtype=float)
        trace = RssiTrace(times=times, streams={"a-b": values, "b-a": -values})
        window = trace.slice_time(1.0, 2.0)
        assert window.stream_ids == ["a-b", "b-a"]
        assert list(window.streams["a-b"]) == [2.0, 3.0, 4.0]
        assert list(window.streams["b-a"]) == [-2.0, -3.0, -4.0]
        window.streams["a-b"][0] = 99.0  # the slice owns its samples
        assert trace.streams["a-b"][2] == 2.0
        with pytest.raises(ValueError):
            trace.slice_time(2.0, 1.0)
        with pytest.raises(ValueError):
            trace.slice_time(1.0, float("nan"))
        with pytest.raises(ValueError):
            trace.slice_time(float("nan"), 2.0)

    @settings(max_examples=100, deadline=None)
    @given(
        gaps=st.lists(st.floats(1e-3, 10.0), min_size=0, max_size=30),
        origin=st.floats(-1e6, 1e6),
        picks=st.tuples(st.integers(-2, 32), st.integers(-2, 32)),
        shifts=st.tuples(
            st.sampled_from([0.0, 1e-9, -1e-9, 0.25]),
            st.sampled_from([0.0, 1e-9, -1e-9, 0.25]),
        ),
        span=st.floats(0.0, 50.0),
    )
    def test_trace_slice_time_equals_mask(self, gaps, origin, picks, shifts, span):
        times = origin + np.concatenate([[0.0], np.cumsum(gaps)])
        if times.shape[0] > 1 and np.any(np.diff(times) <= 0):
            return  # the gaps vanished against a large origin
        values = np.arange(times.shape[0], dtype=float) * 1.5 - 7.0
        trace = RssiTrace(times=times, streams={"a-b": values, "b-a": -values})

        def bound(pick, shift):
            # on a sample time, just off one, or outside the trace
            if pick < 0:
                return times[0] - 5.0 + shift
            if pick >= times.shape[0]:
                return times[-1] + 5.0 + shift
            return times[pick] + shift

        t_start = bound(picks[0], shifts[0])
        t_end = max(bound(picks[1], shifts[1]), t_start + span)
        mask = (times >= t_start) & (times <= t_end)
        sliced = trace.slice_time(t_start, t_end)
        assert sliced.times.tobytes() == times[mask].tobytes()
        for sid, arr in trace.streams.items():
            assert sliced.streams[sid].tobytes() == arr[mask].tobytes()
        with pytest.raises(ValueError):
            trace.slice_time(t_end + 1.0, t_end)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_trace_non_finite_times_raise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            RssiTrace(times=np.array([0.0, bad, 2.0, 3.0]), streams={"s": np.zeros(4)})

    def test_trace_restricted_view_shares_arrays(self):
        times = np.arange(4, dtype=float)
        trace = RssiTrace(times=times, streams={"a-b": np.zeros(4), "b-a": np.ones(4)})
        view = trace.restricted_view(["b-a"])
        copy = trace.restricted_to(["b-a"])
        assert view.stream_ids == copy.stream_ids == ["b-a"]
        assert view.streams["b-a"] is trace.streams["b-a"]
        assert copy.streams["b-a"] is not trace.streams["b-a"]
        np.testing.assert_array_equal(view.streams["b-a"], copy.streams["b-a"])
        with pytest.raises(KeyError):
            trace.restricted_view(["missing"])
