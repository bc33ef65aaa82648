"""Property-based tests (hypothesis) on the core data structures and invariants."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluation import DayEvaluation, MDEvaluation, sensor_subset
from repro.core.movement import OfflineMDResult
from repro.core.windows import VariationWindow, match_windows, true_window_for_event
from repro.features import window_statistics
from repro.ml.kde import GaussianKDE, mixture_quantiles
from repro.ml.kernels import make_kernel
from repro.ml.metrics import DetectionCounts
from repro.ml.mutual_info import quantize, relative_mutual_information
from repro.mobility.events import EventKind, GroundTruthEvent
from repro.mobility.trajectory import (
    departure_trajectory,
    entry_trajectory,
    walk_through,
)
from repro.radio.channel import ChannelConfig, RadioChannel
from repro.radio.geometry import Point
from repro.radio.links import LinkSet
from repro.radio.office import paper_office
from repro.radio.shadowing import BodyShadowingModel
from repro.workstation.activity import InputActivityModel

from tests.oracles.kde import bisect_quantiles, updated

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
small_floats = st.floats(
    min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False
)
office_coords = st.floats(
    min_value=-5.0, max_value=15.0, allow_nan=False, allow_infinity=False
)


@functools.lru_cache(maxsize=None)
def _office_channel():
    """The paper office's channel with the static extra fluctuation off, so
    a moving body's ``extra_sigma_db`` is the motion term alone."""
    links = LinkSet(paper_office(), np.random.default_rng(0))
    config = ChannelConfig(shadowing=BodyShadowingModel(max_extra_sigma_db=0.0))
    return RadioChannel(links, config, seed_seq=np.random.SeedSequence(0))


def _link_geometry(channel, p):
    """Per stream: distance from ``p`` to the transmitter and to the
    receiver, the link length and the fade sensitivity."""
    streams = list(channel.links)
    d_tx = np.array([p.distance_to(s.tx_position) for s in streams])
    d_rx = np.array([p.distance_to(s.rx_position) for s in streams])
    length = np.array([s.length for s in streams])
    sensitivity = np.array([s.fade.sensitivity for s in streams])
    return d_tx, d_rx, length, sensitivity


class TestGeometryProperties:
    """The link geometry inside ``RadioChannel._shadowing_block``, read back
    from the per-stream effect of one body."""

    @given(px=office_coords, py=office_coords)
    def test_excess_path_length_nonnegative(self, px, py):
        # Attenuation is max_attenuation_db * exp(-decay * excess / lambda)
        # while the excess path d_tx + d_rx - L is within reach, else 0.
        channel = _office_channel()
        sh = channel.config.shadowing
        p = Point(px, py)
        atten, _ = channel._shadowing_vectors([p], [0.0])
        d_tx, d_rx, length, sensitivity = _link_geometry(channel, p)
        peak = sh.max_attenuation_db * sensitivity
        assert np.all(atten >= 0.0)
        assert np.all(atten <= peak * (1.0 + 1e-12))
        excess = d_tx + d_rx - length
        reach = sh.lambda_m * sh.sigma_reach_multiplier
        assert np.all(atten[excess > reach + 1e-9] == 0.0)
        hit = excess < reach - 1e-9
        assert np.all(atten[hit] > 0.0)
        read_back = -sh.lambda_m / sh.attenuation_decay * np.log(atten[hit] / peak[hit])
        np.testing.assert_allclose(read_back, np.maximum(excess[hit], 0.0), atol=1e-9)

    @given(px=office_coords, py=office_coords)
    def test_point_segment_distance_bounded_by_endpoint_distances(self, px, py):
        channel = _office_channel()
        sh = channel.config.shadowing
        p = Point(px, py)
        _, sigma = channel._shadowing_vectors([p], [sh.motion_reference_speed])
        d_tx, d_rx, length, sensitivity = _link_geometry(channel, p)
        dist = -sh.motion_range_m * np.log(sigma / (sh.motion_sigma_db * sensitivity))
        assert np.all(dist >= -1e-9)
        assert np.all(dist <= np.minimum(d_tx, d_rx) + 1e-9)
        # ...and never closer than the link's infinite line.
        tx = np.array([[s.tx_position.x, s.tx_position.y] for s in channel.links])
        rx = np.array([[s.rx_position.x, s.rx_position.y] for s in channel.links])
        u = (rx - tx) / length[:, None]
        off_line = np.abs(u[:, 0] * (p.y - tx[:, 1]) - u[:, 1] * (p.x - tx[:, 0]))
        assert np.all(dist >= off_line - 1e-9)

    @given(
        waypoints=st.lists(
            st.tuples(finite_floats, finite_floats), min_size=2, max_size=6
        ),
        speed=st.floats(min_value=0.3, max_value=3.0),
        t=st.floats(min_value=-10.0, max_value=500.0),
    )
    def test_trajectory_position_stays_within_bounding_box(self, waypoints, speed, t):
        points = [Point(x, y) for x, y in waypoints]
        traj = walk_through(points, start_time=0.0, speed_mps=speed)
        pos = traj.position_at(t)
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        assert min(xs) - 1e-6 <= pos.x <= max(xs) + 1e-6
        assert min(ys) - 1e-6 <= pos.y <= max(ys) + 1e-6


class TestBatchTrajectoryProperties:
    """Invariants of the batch-evaluation trajectory APIs."""

    @given(
        waypoints=st.lists(
            st.tuples(finite_floats, finite_floats), min_size=2, max_size=6
        ),
        speed=st.floats(min_value=0.3, max_value=3.0),
        pause=st.floats(min_value=0.0, max_value=5.0),
        times=st.lists(
            st.floats(min_value=-20.0, max_value=600.0), min_size=1, max_size=40
        ),
    )
    def test_positions_at_matches_position_at_pointwise(
        self, waypoints, speed, pause, times
    ):
        points = [Point(x, y) for x, y in waypoints]
        pauses = [pause] + [0.0] * (len(points) - 2)
        traj = walk_through(points, start_time=3.0, speed_mps=speed, pauses=pauses)
        block = traj.positions_at(np.asarray(times))
        for i, t in enumerate(times):
            pos = traj.position_at(t)
            # Bitwise equality: both paths share the same segment lookup
            # and interpolation arithmetic.
            assert block[i, 0] == pos.x
            assert block[i, 1] == pos.y

    @given(
        sx=st.floats(min_value=0.3, max_value=5.7),
        sy=st.floats(min_value=0.3, max_value=2.7),
        entry=st.booleans(),
        start=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_departure_and_entry_trajectories_stay_inside_office(
        self, sx, sy, entry, start
    ):
        layout = paper_office()
        seat = Point(sx, sy)
        if entry:
            traj = entry_trajectory(layout.door, seat, start)
        else:
            traj = departure_trajectory(seat, layout.door, start)
        grid = np.linspace(start - 2.0, traj.end_time + 2.0, 64)
        xy = traj.positions_at(grid)
        # Piecewise-linear interpolation through in-office waypoints can
        # never leave the office bounding box.
        assert np.all(xy[:, 0] >= -1e-9) and np.all(xy[:, 0] <= layout.width + 1e-9)
        assert np.all(xy[:, 1] >= -1e-9) and np.all(xy[:, 1] <= layout.height + 1e-9)

    @given(
        waypoints=st.lists(
            st.tuples(finite_floats, finite_floats), min_size=2, max_size=6
        ),
        speed=st.floats(min_value=0.3, max_value=3.0),
        dt=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_grid_sampled_speeds_nonnegative_and_bounded(
        self, waypoints, speed, dt
    ):
        points = [Point(x, y) for x, y in waypoints]
        traj = walk_through(points, start_time=0.0, speed_mps=speed)
        grid = np.arange(0.0, traj.end_time + 2.0 * dt, dt)
        xy = traj.positions_at(grid)
        dist = np.hypot(np.diff(xy[:, 0]), np.diff(xy[:, 1]))
        speeds = dist / dt
        assert np.all(speeds >= 0.0)
        # The walker moves at constant leg speed, so any chord between two
        # grid instants is at most speed * dt long (triangle inequality).
        assert np.all(speeds <= speed * (1.0 + 1e-9) + 1e-12)


class TestFeatureProperties:
    @staticmethod
    def _stats(values, bins=16, lag=1):
        row = np.asarray(values, dtype=float)[None, :]
        return window_statistics(row, entropy_bins=bins, ac_lag=lag)[0]

    @given(values=st.lists(finite_floats, min_size=1, max_size=100))
    def test_variance_nonnegative(self, values):
        assert self._stats(values)[0] >= 0.0

    @given(values=st.lists(finite_floats, min_size=1, max_size=100),
           bins=st.integers(min_value=1, max_value=64))
    def test_entropy_bounds(self, values, bins):
        entropy = self._stats(values, bins=bins)[1]
        assert -1e-9 <= entropy <= np.log(bins) + 1e-9

    @given(values=st.lists(finite_floats, min_size=2, max_size=100),
           lag=st.integers(min_value=0, max_value=10))
    def test_autocorrelation_bounded(self, values, lag):
        # The paper's estimator divides by (n - k) while the variance uses n,
        # so at large lags its magnitude can exceed 1 but never n / (n - k).
        ac = self._stats(values, lag=lag)[2]
        n = len(values)
        bound = n / max(n - lag, 1) + 1e-6
        assert -bound <= ac <= bound

    @given(values=st.lists(finite_floats, min_size=1, max_size=200),
           bins=st.integers(min_value=1, max_value=256))
    def test_quantize_within_bins(self, values, bins):
        q = quantize(np.asarray(values), bins=bins)
        assert q.min() >= 0
        assert q.max() < bins

    @given(
        values=st.lists(finite_floats, min_size=0, max_size=50),
        poison=st.sampled_from([np.nan, np.inf, -np.inf]),
        position=st.integers(min_value=0, max_value=50),
        bins=st.integers(min_value=1, max_value=256),
    )
    def test_quantize_rejects_non_finite(self, values, poison, position, bins):
        # NaN used to slip through the ``hi <= lo`` constant-feature guard
        # (False for NaN bounds), giving NaN linspace edges and garbage
        # digitize output — silently wrong RMI instead of an error.
        x = np.asarray(values, dtype=float)
        x = np.insert(x, min(position, x.shape[0]), poison)
        with pytest.raises(ValueError, match="non-finite"):
            quantize(x, bins=bins)

    @given(
        values=st.lists(finite_floats, min_size=4, max_size=100),
    )
    def test_rmi_in_unit_interval(self, values):
        x = np.asarray(values)
        y = (np.arange(x.shape[0]) % 2).astype(int)
        rmi = relative_mutual_information(x, y)
        assert 0.0 <= rmi <= 1.0


class TestKDEProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        data=st.lists(small_floats, min_size=2, max_size=80),
        q=st.floats(min_value=1.0, max_value=99.0),
    )
    def test_percentile_within_reasonable_range(self, data, q):
        kde = GaussianKDE(data)
        value = kde.percentile(q)
        spread = max(data) - min(data) + 10.0 * kde.bandwidth
        assert min(data) - spread <= value <= max(data) + spread

    @settings(max_examples=25, deadline=None)
    @given(data=st.lists(small_floats, min_size=2, max_size=80))
    def test_cdf_monotone(self, data):
        kde = GaussianKDE(data)
        grid = np.linspace(min(data) - 1.0, max(data) + 1.0, 30)
        cdf = kde.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-9)


class TestQuantileSolverProperties:
    """The safeguarded-Newton threshold engine (PR 4's conscious re-pin)."""

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(small_floats, min_size=2, max_size=60),
        bandwidth=st.floats(min_value=1e-3, max_value=5.0),
        q=st.floats(min_value=0.5, max_value=99.5),
    )
    def test_solver_matches_brute_force_grid_inversion(self, data, bandwidth, q):
        """The Newton engine inverts the CDF like a dense-grid lookup.

        Brute force: evaluate the CDF on a dense grid and take the cell
        where it crosses the target (step inversion — linear interpolation
        would misplace the quantile on the near-staircase CDFs of tiny
        bandwidths).  The solver's value must land in that cell, up to the
        grid pitch.
        """
        kde = GaussianKDE(data, bandwidth=bandwidth)
        value = kde.percentile(q, tol=1e-6)
        lo = min(data) - 10.0 * bandwidth
        hi = max(data) + 10.0 * bandwidth
        grid = np.linspace(lo, hi, 20001)
        cdf = kde.cdf(grid)
        pitch = (hi - lo) / 20000
        crossing = int(np.searchsorted(cdf, q / 100.0))
        cell_lo = grid[max(crossing - 1, 0)]
        cell_hi = grid[min(crossing, grid.shape[0] - 1)]
        assert cell_lo - pitch - 1e-6 <= value <= cell_hi + pitch + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=2, max_value=60),
        q=st.floats(min_value=0.5, max_value=99.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_newton_within_old_tol_of_bisection(self, rows, n, q, seed):
        """|Newton - retained bisection| <= tol: the documented re-pin bound."""
        rng = np.random.default_rng(seed)
        data = np.exp(rng.normal(0.0, rng.uniform(0.1, 2.0), size=(rows, n)))
        data *= rng.uniform(1.0, 50.0)
        h = np.abs(rng.normal(1.0, 0.5, rows)) + 1e-3
        newton = mixture_quantiles(data, h, q, tol=1e-6)
        bisect = bisect_quantiles(data, h, q, tol=1e-6)
        assert np.abs(newton - bisect).max() <= 1e-6

    @settings(max_examples=5, deadline=None)
    @given(
        n=st.integers(min_value=10, max_value=60),
        q=st.floats(min_value=90.0, max_value=99.5),
        drift=st.floats(min_value=-2e-3, max_value=2e-3),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_chained_warm_starts_stay_within_bound_under_drift(
        self, n, q, drift, seed
    ):
        """1000+ warm-started re-solves of a drifting profile never degrade.

        The streaming engine's profile maintenance re-solves the threshold
        after every accepted batch, warm-starting Newton from the chain's
        previous threshold (``x0``) while the underlying profile drifts
        slowly — exactly the long-running-service regime.  A warm start far
        from the drifted solution must not push Newton outside the pinned
        ``|Newton - bisect| <= 1e-6`` bound at *any* point of the chain.
        """
        rng = np.random.default_rng(seed)
        window = rng.normal(10.0, 1.0, n)
        kde = GaussianKDE(window)
        x0 = None
        for step in range(1000):
            threshold = kde.percentile(q, x0=x0, tol=1e-6)
            reference = bisect_quantiles(
                kde.data[np.newaxis, :],
                np.array([kde.bandwidth]),
                q,
                tol=1e-6,
            )[0]
            assert abs(threshold - reference) <= 1e-6
            x0 = threshold
            # Slow drift: the profile window slides one sample per step,
            # its mean creeping away from where the chain started.
            fresh = rng.normal(10.0 + drift * step, 1.0 + 0.2 * abs(drift) * step)
            kde = updated(kde, [fresh], drop_oldest=1)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(min_value=2, max_value=10),
        n=st.integers(min_value=2, max_value=40),
        q=st.floats(min_value=1.0, max_value=99.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_batched_solve_bit_identical_to_single_rows(self, rows, n, q, seed):
        """Solving a profile alone or inside any batch gives the same bits."""
        rng = np.random.default_rng(seed)
        data = rng.normal(5.0, 2.0, size=(rows, n))
        h = np.abs(rng.normal(1.0, 0.4, rows)) + 1e-2
        x0 = rng.normal(5.0, 1.0, rows)
        batched = mixture_quantiles(data, h, q, x0=x0)
        single = np.array([
            mixture_quantiles(data[i : i + 1], h[i : i + 1], q, x0=x0[i : i + 1])[0]
            for i in range(rows)
        ])
        np.testing.assert_array_equal(batched, single)

    @settings(max_examples=20, deadline=None)
    @given(
        data=st.lists(small_floats, min_size=2, max_size=40),
        q=st.floats(min_value=1.0, max_value=99.0),
        guess_offset=st.floats(min_value=-30.0, max_value=30.0),
    )
    def test_warm_start_agrees_with_cold_start(self, data, q, guess_offset):
        """Any warm-start guess lands within tol of the cold-start root."""
        kde = GaussianKDE(data)
        cold = kde.percentile(q)
        warm = kde.percentile(q, x0=cold + guess_offset)
        assert abs(warm - cold) <= 2e-6


class TestKernelSliceStability:
    """Gram entries depend only on their own row pair (bitwise)."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=25),
        m=st.integers(min_value=3, max_value=25),
        d=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
        name=st.sampled_from(["linear", "rbf", "poly"]),
    )
    def test_subgram_equals_gram_slice(self, n, m, d, seed, name):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d)) * 3.0
        Y = rng.normal(size=(m, d)) * 2.0
        kernel = make_kernel(name, **({} if name == "linear" else {"gamma": 0.37}))
        K = kernel(X, Y)
        idx = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        jdx = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
        np.testing.assert_array_equal(
            kernel(X[idx], Y[jdx]), K[np.ix_(idx, jdx)]
        )


class TestDetectionCountProperties:
    @given(tp=st.integers(0, 500), fp=st.integers(0, 500), fn=st.integers(0, 500))
    def test_metrics_in_unit_interval(self, tp, fp, fn):
        counts = DetectionCounts(tp, fp, fn)
        assert 0.0 <= counts.precision <= 1.0
        assert 0.0 <= counts.recall <= 1.0
        assert 0.0 <= counts.f_measure <= 1.0
        rates = counts.rates()
        assert 0.0 <= sum(rates.values()) <= 1.0 + 1e-9

    @given(
        tp1=st.integers(0, 100), fp1=st.integers(0, 100), fn1=st.integers(0, 100),
        tp2=st.integers(0, 100), fp2=st.integers(0, 100), fn2=st.integers(0, 100),
    )
    def test_addition_is_componentwise(self, tp1, fp1, fn1, tp2, fp2, fn2):
        total = DetectionCounts(tp1, fp1, fn1) + DetectionCounts(tp2, fp2, fn2)
        assert total.tp == tp1 + tp2
        assert total.fp == fp1 + fp2
        assert total.fn == fn1 + fn2


class TestWindowMatchingProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        event_times=st.lists(
            st.floats(min_value=10.0, max_value=1000.0), min_size=0, max_size=8
        ),
        window_specs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1000.0),
                st.floats(min_value=0.0, max_value=30.0),
            ),
            min_size=0,
            max_size=8,
        ),
    )
    def test_counts_are_consistent_with_inputs(self, event_times, window_specs):
        events = [
            GroundTruthEvent(EventKind.DEPARTURE, t, "u1", "w1", exit_time=t + 5.0)
            for t in event_times
        ]
        windows = [VariationWindow(s, s + d) for s, d in window_specs]
        result = match_windows(windows, events, slack_s=5.0)
        counts = result.counts
        assert counts.tp + counts.fn == len(events)
        assert counts.tp <= len(windows)
        assert counts.fp <= len(windows)
        assert len(result.true_positive_pairs) == counts.tp
        assert len(result.missed_events) == counts.fn

    @settings(max_examples=30, deadline=None)
    @given(slack=st.floats(min_value=0.5, max_value=30.0),
           t=st.floats(min_value=50.0, max_value=500.0))
    def test_true_window_contains_event_time(self, slack, t):
        event = GroundTruthEvent(EventKind.DEPARTURE, t, "u1", "w1", exit_time=t + 4.0)
        tw = true_window_for_event(event, slack)
        assert tw.t_start <= t <= tw.t_end


def _synthetic_md_evaluation(event_specs, window_specs):
    """An MDEvaluation over synthetic chronological events and MD windows.

    ``event_specs`` / ``window_specs`` are ``(gap, duration)`` pairs laid
    out cumulatively, mirroring the real pipeline's output shape:
    chronological events, sorted non-overlapping variation windows.
    """
    t = 0.0
    events = []
    for gap, duration in event_specs:
        t += gap
        events.append(
            GroundTruthEvent(
                EventKind.DEPARTURE, t, "u1", "w1", exit_time=t + duration
            )
        )
    w = 0.0
    windows = []
    for gap, duration in window_specs:
        w += gap
        windows.append(VariationWindow(w, w + duration))
        w += duration
    md_result = OfflineMDResult(
        times=np.array([0.0, 1.0]),
        std_sums=np.zeros(2),
        windows=tuple(windows),
        threshold_trace=np.zeros(2),
    )
    day = DayEvaluation(
        day_index=0, trace=None, md_result=md_result, match=None, events=events
    )
    return MDEvaluation(sensor_ids=("d1", "d2"), t_delta_s=1.0, days=[day])


_gap = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)
_duration = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
_specs = st.lists(st.tuples(_gap, _duration), min_size=0, max_size=6)


class TestRematchProperties:
    """Invariants of the Figure 7 re-scoring path (MDEvaluation.rematch)."""

    @settings(max_examples=150, deadline=None)
    @given(
        event_specs=_specs,
        window_specs=_specs,
        slack_a=st.floats(min_value=0.1, max_value=30.0),
        slack_b=st.floats(min_value=0.1, max_value=30.0),
        t_delta=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_tp_monotone_in_slack_and_counts_conserved(
        self, event_specs, window_specs, slack_a, slack_b, t_delta
    ):
        evaluation = _synthetic_md_evaluation(event_specs, window_specs)
        narrow = evaluation.rematch(t_delta, min(slack_a, slack_b)).counts
        wide = evaluation.rematch(t_delta, max(slack_a, slack_b)).counts
        n_events = len(evaluation.days[0].events)
        # Every event is either detected or missed, at any slack.
        assert narrow.tp + narrow.fn == n_events
        assert wide.tp + wide.fn == n_events
        # Growing the true windows can only gain detections.
        assert narrow.tp <= wide.tp

    @settings(max_examples=100, deadline=None)
    @given(
        event_specs=_specs,
        window_specs=_specs,
        slack=st.floats(min_value=0.1, max_value=30.0),
        t_delta=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_rematch_is_deterministic_and_preserves_detection(
        self, event_specs, window_specs, slack, t_delta
    ):
        evaluation = _synthetic_md_evaluation(event_specs, window_specs)
        first = evaluation.rematch(t_delta, slack)
        second = evaluation.rematch(t_delta, slack)
        assert first.counts == second.counts
        assert first.t_delta_s == t_delta
        # rematch re-scores the same MD output: the windows are untouched.
        for day_before, day_after in zip(evaluation.days, first.days):
            assert day_after.md_result is day_before.md_result


class TestSensorSubsetProperties:
    _ids = st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=4,
        ),
        min_size=2,
        max_size=9,
        unique=True,
    )

    @settings(max_examples=100, deadline=None)
    @given(ids=_ids, data=st.data())
    def test_deterministic_and_prefix_consistent(self, ids, data):
        k = data.draw(st.integers(min_value=2, max_value=len(ids)))
        subset = sensor_subset(ids, k)
        # Deterministic: repeated calls agree.
        assert subset == sensor_subset(ids, k)
        assert len(subset) == k
        # k-prefix consistency: every sweep's subsets nest.
        for smaller in range(2, k + 1):
            assert sensor_subset(ids, smaller) == subset[:smaller]
        # And the subset is literally the deployment-order prefix.
        assert subset == list(ids)[:k]

    @settings(max_examples=50, deadline=None)
    @given(ids=_ids)
    def test_invalid_sizes_rejected(self, ids):
        with pytest.raises(ValueError):
            sensor_subset(ids, 1)
        with pytest.raises(ValueError):
            sensor_subset(ids, len(ids) + 1)


class TestActivityProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        prob=st.floats(min_value=0.0, max_value=1.0),
        duration=st.floats(min_value=10.0, max_value=2000.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_idle_time_never_negative_and_bounded_by_duration(
        self, prob, duration, seed
    ):
        model = InputActivityModel(
            activity_prob=prob, rng=np.random.default_rng(seed)
        )
        trace = model.generate(duration, [(0.0, duration)])
        for t in np.linspace(0.0, duration, 13):
            idle = trace.idle_time_at(float(t))
            assert 0.0 <= idle <= t + trace.bin_seconds + 1e-9
