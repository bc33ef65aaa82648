"""Each zoo detector against an independent, naive per-instant oracle.

A detector's ``offline_grid`` runs its streaming engine over whole
columns, so the offline ≡ streaming suites compare the engine with
itself.  These tests compare it with code that shares nothing with it:

* the variance detector with ``np.var`` over each instant's own slice
  ``values[max(0, i - w + 1) : i + 1]`` and the calibrated threshold;
* the EMA-MAD detector with the EMA recursion, ``np.std`` and per-window
  ``np.median`` for median and MAD, and a per-instant hysteresis walk —
  long windows (>= 160, odd and even) on rounded, tied values, which the
  sorted-window median/MAD path serves;
* the KDE detector's multi-column grid with ``batch_size > init_samples``
  with one per-observation ``NormalProfile`` per column.

Every comparison is bitwise.  The last test pins what a lockstep
(multi-chain) profile refuses: ``batch_size > init_samples`` and snapshots.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MDConfig
from repro.core.movement import NormalProfile
from repro.detectors import EmaMadDetector, KdeMdDetector, VarianceThresholdDetector
from repro.streaming import OnlineProfile

CFG = MDConfig()


def series(seed, n, decimals):
    """A quiet std-sum series with a movement burst, rounded to make ties."""
    rng = np.random.default_rng(seed)
    values = np.abs(rng.normal(2.0, 0.5, n))
    start = int(rng.integers(0, max(n - 10, 1)))
    values[start : start + int(rng.integers(1, 60))] += rng.uniform(1.0, 6.0)
    return np.round(values, decimals)


def assert_bits_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint8), want.view(np.uint8)
    )


def calibrated(stats, init, scale, floor):
    """``max(scale x median(stats at positions 1 .. init - 1), floor)``."""
    return max(scale * float(np.median(stats[1:init])), floor)


def naive_variance(values, det, init):
    n = len(values)
    var = np.zeros(n)  # fewer than two samples: 0.0
    for i in range(1, n):
        var[i] = np.var(values[max(0, i - det.window + 1) : i + 1])
    decisions = np.full(n, -1, dtype=np.int8)
    thresholds = np.full(n, np.nan)
    if n >= init:
        eff = calibrated(var, init, det.threshold_scale, 1e-12)
        thresholds[init - 1 :] = eff
        decisions[init:] = var[init:] > eff
    return decisions, thresholds


def naive_ema_mad_stats(values, det):
    """The EMA series, short-window std and long-window median and MAD."""
    n = len(values)
    ema = np.empty(n)
    e = None
    for i, v in enumerate(values.tolist()):
        e = v if e is None else det.ema_alpha * v + (1.0 - det.ema_alpha) * e
        ema[i] = e
    stds = np.full(n, np.nan)
    med = np.full(n, np.nan)
    mad = np.full(n, np.nan)
    for i in range(n):
        if i >= 1:
            stds[i] = np.std(ema[max(0, i - det.short_window + 1) : i + 1])
        if i >= det.min_long - 1:
            window = ema[max(0, i - det.long_window + 1) : i + 1]
            med[i] = np.median(window)
            mad[i] = np.median(np.abs(window - med[i]))
    return ema, stds, med, mad


def naive_ema_mad(values, det, init):
    n = len(values)
    ema, stds, med, mad = naive_ema_mad_stats(values, det)
    decisions = np.full(n, -1, dtype=np.int8)
    thresholds = np.full(n, np.nan)
    if n < init:
        return decisions, thresholds
    eff = calibrated(stds, init, det.threshold_scale, 1e-9)
    down = eff * det.down_ratio
    thresholds[init - 1 :] = eff
    active = False
    for i in range(init, n):
        if np.isnan(med[i]):
            trigger = stds[i] > eff
        else:
            sigma = mad[i] * 1.4826 if mad[i] > 1e-9 else 0.0
            dev = abs(ema[i] - med[i]) / sigma if sigma > 1e-9 else 0.0
            trigger = dev > det.dev_factor or stds[i] > eff
        active = not stds[i] < down if active else trigger
        decisions[i] = active
    return decisions, thresholds


def check_grid_and_splits(oracle, det, values, init, data):
    """Offline grid (two columns) and a random streaming split vs oracle."""
    want_d, want_t = oracle(values, det, init)
    grid = det.offline_grid(np.column_stack([values, values[::-1]]), CFG, init)
    assert_bits_equal(grid.decisions[:, 0], want_d)
    assert_bits_equal(grid.thresholds[:, 0], want_t)
    rev_d, rev_t = oracle(values[::-1].copy(), det, init)
    assert_bits_equal(grid.decisions[:, 1], rev_d)
    assert_bits_equal(grid.thresholds[:, 1], rev_t)

    engine = det.streaming_engine(CFG, init)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=6)))
    parts = np.split(values, cuts)
    got = [engine.extend(part) for part in parts]
    assert_bits_equal(np.concatenate([d for d, _ in got]), want_d)
    assert_bits_equal(np.concatenate([t for _, t in got]), want_t)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 160),
    window=st.integers(2, 40),
    scale=st.sampled_from([0.5, 1.0, 4.0]),
    init=st.integers(2, 60),
    decimals=st.sampled_from([0, 1, 3]),
    data=st.data(),
)
def test_variance_matches_naive_oracle(
    seed, n, window, scale, init, decimals, data
):
    det = VarianceThresholdDetector(window=window, threshold_scale=scale)
    check_grid_and_splits(
        naive_variance, det, series(seed, n, decimals), init, data
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    long_window=st.sampled_from([9, 40, 160, 161, 200, 241]),
    short_window=st.integers(2, 40),
    min_long=st.sampled_from(["min", "mid", "max"]),
    extra=st.integers(-30, 200),
    alpha=st.sampled_from([0.3, 0.5, 1.0]),
    dev_factor=st.sampled_from([0.5, 1.0, 3.0]),
    init=st.integers(2, 80),
    decimals=st.sampled_from([0, 1]),
    data=st.data(),
)
def test_ema_mad_matches_naive_oracle(
    seed, long_window, short_window, min_long, extra, alpha, dev_factor,
    init, decimals, data,
):
    det = EmaMadDetector(
        ema_alpha=alpha,
        short_window=min(short_window, long_window),
        long_window=long_window,
        min_long={"min": 2, "mid": long_window // 2, "max": long_window}[
            min_long
        ],
        threshold_scale=2.0,
        dev_factor=dev_factor,
    )
    values = series(seed, max(long_window + extra, 0), decimals)
    # The long-window statistics themselves: the prefix head, then full
    # windows (the sorted-window path from a window of 160 on).
    ema, _, want_med, want_mad = naive_ema_mad_stats(values, det)
    med, mad = det._median_mad(ema, len(values), 0)
    assert_bits_equal(med, want_med)
    assert_bits_equal(mad, want_mad)
    check_grid_and_splits(naive_ema_mad, det, values, init, data)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 220),
    columns=st.integers(1, 4),
    init=st.integers(2, 30),
    batch_over_init=st.integers(1, 40),
    tau=st.sampled_from([0.1, 0.25, 0.5]),
    decimals=st.sampled_from([1, 3]),
)
def test_kde_grid_with_batch_larger_than_init_matches_normal_profile(
    seed, n, columns, init, batch_over_init, tau, decimals
):
    cfg = MDConfig(batch_size=init + batch_over_init, tau=tau)
    matrix = np.column_stack(
        [series(seed + j, n, decimals) for j in range(columns)]
    ).reshape(n, columns)
    grid = KdeMdDetector().offline_grid(matrix, cfg, init)
    for j in range(columns):
        profile = NormalProfile(cfg, init)
        decisions = np.full(n, -1, dtype=np.int8)
        thresholds = np.full(n, np.nan)
        for i, value in enumerate(matrix[:, j].tolist()):
            anomalous = profile.observe(value)
            if anomalous is not None:
                decisions[i] = anomalous
            if profile.threshold is not None:
                thresholds[i] = profile.threshold
        assert_bits_equal(grid.decisions[:, j], decisions)
        assert_bits_equal(grid.thresholds[:, j], thresholds)


def test_lockstep_profile_guards():
    # An accepted window would grow to batch_size at a different time in
    # each chain, so only a single chain may run with batch_size > init.
    profile = OnlineProfile(MDConfig(batch_size=30), 8)
    with pytest.raises(ValueError, match="batch_size <= init_samples"):
        profile.extend(np.ones((40, 2)))
    # Snapshots hold one chain.
    profile = OnlineProfile(MDConfig(batch_size=4), 8)
    profile.extend(np.ones((10, 2)))
    with pytest.raises(ValueError, match="single-chain"):
        profile.snapshot()
