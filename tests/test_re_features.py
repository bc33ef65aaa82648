"""RE window statistics against the per-window code they replaced.

:func:`repro.features.window.window_statistics` reduces a whole block of
windows at once.  The oracle below is the per-window code it replaced —
``np.var``, the entropy of ``np.histogram``'s counts and the centred
product sum, one window at a time — with three guards:

* a constant window has entropy ``-0.0`` at any magnitude, as it has at
  ordinary ones (``np.histogram`` refuses ``[lo - 0.5, lo + 0.5]`` once
  ``lo +- 0.5`` rounds back to ``lo``);
* with one bin and a value range that overflows, ``np.histogram`` casts
  a NaN to a bin index (an ``IndexError`` on x86-64, bin 0 elsewhere);
  the batch raises the "Too many bins" ``ValueError`` that
  ``np.histogram`` raises for the same window at every other bin count;
* a finite window whose range does not overflow but whose neighbouring
  bin edges round together makes ``np.histogram`` raise "Too many bins";
  no finite bins can split it, so its entropy is ``+0.0``, as for a range
  so narrow that ``bins / range`` overflows.

Every comparison is bitwise (``tobytes()``), and a block the oracle
refuses must make the batch raise the same ``ValueError`` message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import REConfig
from repro.core.radio_env import RadioEnvironment
from repro.core.windows import VariationWindow
from repro.features import window_statistics
from repro.radio.trace import RssiTrace

TOO_MANY_BINS = "Too many bins for data range. Cannot create {} finite-sized bins."


def oracle_entropy(window, bins):
    spread = float(window.max() - window.min())
    if spread == 0.0:
        return -0.0
    if bins == 1 and np.isinf(spread) and np.isfinite(window).all():
        raise ValueError(TOO_MANY_BINS.format(bins))
    with np.errstate(over="ignore"):
        if spread > 0.0 and not np.isfinite(np.float64(bins) / spread):
            return 0.0
    try:
        counts, _ = np.histogram(window, bins=bins)
    except ValueError as error:
        if str(error) == TOO_MANY_BINS.format(bins) and np.isfinite(spread):
            return 0.0
        raise
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def oracle_autocorrelation(window, lag):
    n = window.size
    if lag >= n:
        return 0.0
    mu = window.mean()
    var = np.var(window)
    if var <= 1e-15:
        return 1.0
    centered = window - mu
    num = float((centered[: n - lag] * centered[lag:]).sum())
    return num / ((n - lag) * var)


def oracle(block, bins, lag):
    """``(variance, entropy, autocorrelation)`` one window at a time."""
    rows = [
        (float(np.var(w)), oracle_entropy(w, bins), oracle_autocorrelation(w, lag))
        for w in block
    ]
    return np.array(rows, dtype=float).reshape(-1, 3)


def assert_matches_oracle(block, bins, lag):
    with np.errstate(all="ignore"):
        try:
            want = oracle(block, bins, lag)
        except ValueError as error:
            with pytest.raises(ValueError) as caught:
                window_statistics(block, entropy_bins=bins, ac_lag=lag)
            assert str(caught.value) == str(error)
            return
        got = window_statistics(block, entropy_bins=bins, ac_lag=lag)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def stats(window, bins=16, lag=1):
    """The ``(variance, entropy, autocorrelation)`` row of one window."""
    row = np.asarray(window, dtype=float)[None, :]
    return window_statistics(row, entropy_bins=bins, ac_lag=lag)[0]


any_float = st.floats(allow_nan=False, allow_infinity=False)


def _stepped(base, steps):
    """``base`` moved ``k`` representable numbers towards zero, per ``k``."""
    toward = -np.inf if base > 0 else np.inf
    out = []
    for k in steps:
        value = np.float64(base)
        for _ in range(k):
            value = np.nextafter(value, toward)
        out.append(float(value))
    return out


@st.composite
def windows(draw, n):
    """One window of ``n`` values, drawn from one of several regimes."""
    kind = draw(
        st.sampled_from(["any", "rssi", "tied", "constant", "tiny", "denormal", "huge"])
    )
    if kind == "any":
        return draw(st.lists(any_float, min_size=n, max_size=n))
    if kind == "rssi":
        values = st.floats(-100.0, -30.0)
        return draw(st.lists(values, min_size=n, max_size=n))
    if kind == "tied":
        values = st.sampled_from([-61.0, -60.5, -60.0, -59.0, 0.0, -0.0])
        return draw(st.lists(values, min_size=n, max_size=n))
    if kind == "constant":
        return [draw(any_float)] * n
    steps = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    if kind == "tiny":
        return _stepped(draw(any_float), steps)
    if kind == "denormal":
        return [k * 5e-324 for k in steps]
    base = 10.0 ** draw(st.integers(15, 307)) * draw(st.sampled_from([1.0, -1.0]))
    scale = np.spacing(abs(base)) * draw(st.sampled_from([1.0, 16.0, 2.0**20]))
    return [base + k * scale for k in steps]


@st.composite
def blocks(draw, max_n=24):
    n = draw(st.integers(1, max_n))
    rows = draw(st.integers(1, 6))
    return np.array([draw(windows(n)) for _ in range(rows)], dtype=float)


bins_st = st.sampled_from([1, 2, 3, 7, 8, 9, 16, 17, 64])
lags = st.integers(0, 30)


class TestAgainstPerWindowOracle:
    @settings(max_examples=300, deadline=None)
    @given(block=blocks(), bins=bins_st, lag=lags)
    def test_bitwise_equal(self, block, bins, lag):
        assert_matches_oracle(block, bins, lag)

    @settings(max_examples=100, deadline=None)
    @given(
        block=blocks(),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        where=st.tuples(st.integers(0, 5), st.integers(0, 23)),
        bins=bins_st,
        lag=lags,
    )
    def test_nonfinite_values_raise_numpy_message(self, block, bad, where, bins, lag):
        block[where[0] % block.shape[0], where[1] % block.shape[1]] = bad
        assert_matches_oracle(block, bins, lag)

    def test_wide_block_of_rssi_windows(self):
        rng = np.random.default_rng(3)
        block = np.round(rng.normal(-60.0, 3.0, size=(216, 19)), 1)
        block[::7] = -60.0
        assert_matches_oracle(block, 16, 1)
        assert_matches_oracle(block, 16, 3)


class TestEdgeRows:
    @pytest.mark.parametrize("value", [1e17, -1e300, 1.7e308, 5e-324, 0.0, -60.0])
    def test_constant_window_has_zero_entropy_at_any_magnitude(self, value):
        with np.errstate(all="ignore"):  # the mean of 19 huge values rounds
            ent = stats(np.full(19, value))[1]
        assert ent == 0.0 and np.signbit(ent)

    def test_denormal_spread_is_positive_zero_entropy(self):
        _, ent, _ = stats([0.0, 5e-324, 1e-323])
        assert ent == 0.0 and not np.signbit(ent)

    @pytest.mark.parametrize(
        "window, message",
        [
            ([-60.0, np.nan], "autodetected range of [nan, nan] is not finite"),
            ([-60.0, np.inf], "autodetected range of [-60.0, inf] is not finite"),
            ([-np.inf, -60.0], "autodetected range of [-inf, -60.0] is not finite"),
            ([1e308, -1e308], TOO_MANY_BINS.format(16)),
        ],
    )
    def test_refused_windows_raise_numpy_message(self, window, message):
        with pytest.raises(ValueError) as caught:
            stats(window)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "window, bins", [([1e17, 1e17 + 16.0], 16), ([-100.0, -99.99999999999999], 2)]
    )
    def test_colliding_bin_edges_give_positive_zero_entropy(self, window, bins):
        # np.histogram refuses both ("Too many bins"): neighbouring edges
        # round to the same number although the range is finite.
        with pytest.raises(ValueError, match="Too many bins"):
            np.histogram(window, bins=bins)
        ent = stats(window, bins=bins)[1]
        assert ent == 0.0 and not np.signbit(ent)

    def test_first_refused_row_names_the_error(self):
        block = np.array([[-60.0, -61.0], [-60.0, np.inf], [np.nan, -60.0]])
        with pytest.raises(ValueError, match=r"\[-60\.0, inf\]"):
            window_statistics(block, entropy_bins=16, ac_lag=1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            window_statistics(np.zeros(4), entropy_bins=16, ac_lag=1)
        with pytest.raises(ValueError):
            window_statistics(np.zeros((1, 4)), entropy_bins=0, ac_lag=1)
        with pytest.raises(ValueError):
            window_statistics(np.zeros((1, 4)), entropy_bins=16, ac_lag=-1)

    def test_empty_block_has_no_rows(self):
        out = window_statistics(np.empty((0, 5)), entropy_bins=16, ac_lag=1)
        assert out.shape == (0, 3)


class TestWindowFeatures:
    def test_variance_of_constant_window_is_zero(self):
        assert stats([5.0] * 10)[0] == 0.0

    def test_variance_matches_numpy(self, rng):
        window = rng.normal(size=64)
        assert stats(window)[0] == np.var(window)

    def test_entropy_of_constant_window_is_zero(self):
        assert stats([3.0] * 20)[1] == 0.0

    def test_entropy_increases_with_spread(self, rng):
        narrow = rng.normal(0.0, 0.001, size=200)
        uniform = rng.uniform(-10, 10, size=200)
        assert stats(uniform, bins=16)[1] > stats(narrow, bins=2)[1]

    def test_entropy_bounded_by_log_bins(self, rng):
        window = rng.uniform(size=1000)
        assert stats(window, bins=8)[1] <= np.log(8) + 1e-9

    def test_autocorrelation_of_constant_window_is_one(self):
        assert stats([2.0] * 10)[2] == 1.0

    def test_autocorrelation_of_alternating_signal_is_negative(self):
        assert stats([1.0, -1.0] * 20, lag=1)[2] < -0.9

    def test_autocorrelation_lag_beyond_window_is_zero(self):
        assert stats([1.0, 2.0, 3.0], lag=10)[2] == 0.0

    def test_autocorrelation_of_smooth_signal_is_positive(self):
        window = np.sin(np.linspace(0, np.pi, 50))
        assert stats(window, lag=1)[2] > 0.8

    def test_empty_window_raises(self):
        with pytest.raises(ValueError):
            stats([])

    def test_stream_features_returns_triplet(self, rng):
        var, ent, ac = stats(rng.normal(size=30))
        assert var >= 0
        assert ent >= 0
        assert -1.0 - 1e-9 <= ac <= 1.0 + 1e-9


@st.composite
def traces_and_starts(draw):
    """A rounded two-stream trace and window starts on and off its grid,
    near its end too."""
    rate = draw(st.sampled_from([2.0, 3.0, 4.0, 5.0]))
    origin = draw(st.sampled_from([0.0, 0.37, 1000.0]))
    n = draw(st.integers(20, 80))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    times = origin + np.arange(n) / rate
    streams = {
        sid: np.round(rng.normal(-60.0, 2.0, n), 1) for sid in ("d1-d2", "d2-d1")
    }
    t_delta = draw(st.sampled_from([1.0, 1.3, 2.5, 4.5]))
    picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    shift = st.sampled_from([0.0, 0.1, -0.1])
    offsets = draw(st.lists(shift, min_size=len(picks), max_size=len(picks)))
    starts = [float(times[i]) + off for i, off in zip(picks, offsets)]
    return RssiTrace(times=times, streams=streams), starts, t_delta


class TestExtractSamples:
    @settings(max_examples=60, deadline=None)
    @given(case=traces_and_starts(), lag=st.integers(1, 3))
    def test_rows_equal_per_window_oracle(self, case, lag):
        trace, starts, t_delta = case
        re_module = RadioEnvironment(
            ["d2-d1", "d1-d2"], REConfig(autocorrelation_lag=lag)
        )
        cuts = [
            (trace.times >= t1) & (trace.times <= t1 + t_delta) for t1 in starts
        ]
        if min(int(cut.sum()) for cut in cuts) < 2:
            with pytest.raises(ValueError, match="fewer than 2 samples"):
                re_module.extract_samples(trace, starts, t_delta)
            return
        want = np.array(
            [
                np.concatenate(
                    [
                        oracle(trace.streams[sid][cut][None, :], 16, lag)[0]
                        for sid in re_module.stream_ids
                    ]
                )
                for cut in cuts
            ]
        )
        got = re_module.extract_samples(trace, starts, t_delta)
        assert got.tobytes() == want.tobytes()
        for t1, row in zip(starts, got):
            window = VariationWindow(t1, t1 + 10.0)
            one = re_module.extract_sample(trace, window, t_delta)
            assert one.tobytes() == row.tobytes()

    def test_layout_follows_feature_names(self):
        times = np.arange(40) / 4.0
        trace = RssiTrace(
            times=times, streams={"a-b": np.sin(times), "b-a": np.cos(times) * 3.0}
        )
        re_module = RadioEnvironment(["b-a", "a-b"])
        row = re_module.extract_samples(trace, [2.0], 4.5)[0]
        cut = (times >= 2.0) & (times <= 6.5)
        for sid in ("b-a", "a-b"):
            want = stats(trace.streams[sid][cut])
            at = re_module.feature_names.index(f"{sid}-var")
            np.testing.assert_array_equal(row[at : at + 3], want)

    def test_colliding_window_is_described_not_refused(self):
        # A Rule-1 firing on a window of two neighbouring floats: at the
        # default 16 bins its histogram edges round together.
        up = np.nextafter(-60.0, 0.0)
        trace = RssiTrace(
            times=np.arange(8) / 4.0, streams={"a-b": np.array([-60.0, up] * 4)}
        )
        row = RadioEnvironment(["a-b"]).extract_sample(
            trace, VariationWindow(0.0, 1.75), 1.75
        )
        assert row[1] == 0.0 and not np.signbit(row[1])

    def test_no_starts_give_no_rows(self):
        trace = RssiTrace(times=np.arange(10.0), streams={"a-b": np.zeros(10)})
        out = RadioEnvironment(["a-b"]).extract_samples(trace, [], 4.5)
        assert out.shape == (0, 3)

    def test_nan_t_delta_raises(self):
        trace = RssiTrace(times=np.arange(10.0), streams={"a-b": np.zeros(10)})
        with pytest.raises(ValueError, match="t_delta_s"):
            RadioEnvironment(["a-b"]).extract_samples(trace, [1.0], float("nan"))
