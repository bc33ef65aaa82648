"""Work budgets: how many kernel calls a batch or a recorded day costs.

A count does not depend on the host, so each test here pins the work a
call does with counting wrappers and no wall-clock assertion:

* ``ZoneOccupancyEstimator.day_grid`` feeds the day to one
  :class:`~repro.zones.estimator.ZoneEngine` in 1,024-row blocks, so an
  ``n``-sample day costs ``ceil(n / 1024)`` window reductions whatever
  the link count (a per-link loop would cost one per link);
* ``ZoneEngine.extend`` and ``OnlineStdSum.extend`` reduce every stream
  of a batch in one :func:`repro.sliding.sliding` call;
* ``OnlineDetector.process_block`` closes a batch's variation windows in
  one ``WindowTracker.extend`` call;
* ``build_sample_dataset`` reduces each day's RE windows with one
  ``window_statistics`` call per distinct window length and no
  ``np.histogram``;
* ``cross_validated_predictions`` makes one ``BinarySVC.fit`` per class
  pair of each fold's training set, and each of those fits runs the SMO
  solver once;
* a cold ``ScenarioSweepRunner.run()`` makes exactly those fits for one
  ``cross_validated_predictions`` per (scenario, RE sensor count) and no
  other fit (perfbench's cold grid reads 90);
* ``evaluate_md_grid`` builds one ``streaming_engine`` per group of
  equally long days for every registered detector and feeds it all the
  group's ``s_t`` columns in 1,024-row blocks, and each EMA-MAD or
  variance ``extend`` makes the same number of ``sliding`` calls whatever
  its chain count (one engine per column would multiply both).
"""

import dataclasses
import math
from itertools import combinations

import numpy as np
import pytest

import repro.analysis.campaign as campaign_module
import repro.core.radio_env as radio_env_module
import repro.detectors.ema_mad as ema_mad_module
import repro.detectors.variance as variance_module
import repro.streaming.detector as detector_module
import repro.zones.estimator as estimator_module
from repro.analysis.campaign import CampaignScale, collect_campaign
from repro.analysis.scenarios import ScenarioGrid, ScenarioSweepRunner
from repro.core.config import FadewichConfig, MDConfig
from repro.core.evaluation import (
    build_sample_dataset,
    cross_validated_predictions,
    evaluate_md,
    evaluate_md_grid,
)
from repro.detectors import detector_names, get_detector
from repro.core.radio_env import RadioEnvironment
from repro.ml.svm import BinarySVC
from repro.ml.validation import stratified_fold_assignments
from repro.radio.links import enumerate_stream_ids
from repro.radio.office import paper_office
from repro.radio.trace import RssiTrace
from repro.simulation.dataset import LabeledSample
from repro.streaming import OnlineDetector, OnlineStdSum, WindowTracker
from repro.zones import ZoneMap, ZoneOccupancyEstimator

BATCH_SIZES = pytest.mark.parametrize("batch", [1, 4, 256])
# ``sliding`` calls per detector-engine ``extend``, whatever the chain
# count (the KDE profile makes none).
SLIDING_PER_EXTEND = {"kde_md": 0, "ema_mad": 3, "variance": 1}
DETECTOR_NAMES = pytest.mark.parametrize("name", detector_names())
SENSORS = pytest.mark.parametrize(
    "n_sensors", [3, 9], ids=["6-streams", "72-streams"]
)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` wraps ``owner.name`` for the test and
    returns the list its calls append to."""

    def wrap(owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return wrap


def batches(n, batch):
    return [slice(a, a + batch) for a in range(0, n, batch)]


def stream_ids(layout, n_sensors):
    return enumerate_stream_ids(layout.sensor_ids[:n_sensors])


@SENSORS
@pytest.mark.parametrize("n_samples", [0, 1, 1024, 1025, None])
def test_day_grid_reduces_once_per_block(
    small_recording, layout, count_calls, n_sensors, n_samples
):
    day = small_recording.days[0]
    trace = day.trace.restricted_view(stream_ids(layout, n_sensors))
    n = trace.n_samples if n_samples is None else n_samples
    day = dataclasses.replace(
        day,
        trace=RssiTrace(
            times=trace.times[:n],
            streams={sid: v[:n] for sid, v in trace.streams.items()},
        ),
    )
    estimator = ZoneOccupancyEstimator(zone_map=ZoneMap.from_layout(layout))
    calls = count_calls(estimator_module, "sliding")
    estimator.day_grid(day, layout)
    assert len(calls) == math.ceil(n / 1024)


@SENSORS
@BATCH_SIZES
def test_zone_engine_reduces_once_per_batch(layout, count_calls, n_sensors, batch):
    ids = stream_ids(layout, n_sensors)
    rssi = np.random.default_rng(5).normal(-60.0, 3.0, size=(300, len(ids)))
    engine = ZoneOccupancyEstimator(
        zone_map=ZoneMap.from_layout(layout), calibration_samples=60
    ).streaming_engine(ids, layout)
    calls = count_calls(estimator_module, "sliding")
    for rows in batches(300, batch):
        engine.extend(rssi[rows])
    assert len(calls) == len(batches(300, batch))


@SENSORS
@BATCH_SIZES
def test_online_std_sum_reduces_once_per_batch(
    layout, count_calls, n_sensors, batch
):
    ids = stream_ids(layout, n_sensors)
    rssi = np.random.default_rng(6).normal(-60.0, 3.0, size=(300, len(ids)))
    std = OnlineStdSum(len(ids), 16)
    calls = count_calls(detector_module, "sliding")
    for rows in batches(300, batch):
        std.extend(rssi[rows])
    assert len(calls) == len(batches(300, batch))


@BATCH_SIZES
def test_process_block_closes_windows_once_per_batch(rng, count_calls, batch):
    times = np.arange(600) / 4.0
    matrix = rng.normal(0.0, 2.0, size=(600, 4))
    matrix[300:340] += rng.normal(0.0, 8.0, size=(40, 4))  # a window to close
    det = OnlineDetector(
        [f"s{j}" for j in range(4)], MDConfig(profile_init_s=15.0, batch_size=10)
    )
    calls = count_calls(WindowTracker, "extend")
    for rows in batches(600, batch):
        det.process_block(times[rows], matrix[rows])
    assert len(calls) == len(batches(600, batch))
    assert det.completed_windows


def test_sample_dataset_reduces_once_per_window_length(
    small_recording, layout, count_calls, monkeypatch
):
    config = FadewichConfig()
    evaluation = evaluate_md(small_recording, config, layout.sensor_ids)
    expected, n_windows = 0, 0
    for day in evaluation.days:
        starts = [
            window.t_start
            for window, true_window in day.match.true_positive_pairs
            if true_window.event.label is not None
        ]
        lengths = {
            day.trace.slice_time(t1, t1 + config.t_delta_s).n_samples
            for t1 in starts
        }
        expected += len(lengths)
        n_windows += len(starts)
    calls = count_calls(radio_env_module, "window_statistics")
    histograms = count_calls(np, "histogram")
    _, dataset = build_sample_dataset(evaluation, config)
    assert len(dataset) == n_windows > len(calls) == expected
    assert histograms == []


def test_cross_validation_fits_once_per_fold_class_pair(count_calls):
    re_module = RadioEnvironment(["a-b", "b-a"])
    dataset = re_module.empty_dataset()
    rng = np.random.default_rng(11)
    # "w3" has a single sample: the fold that tests it trains on 3 classes.
    labels = ["w0"] * 8 + ["w1"] * 8 + ["w2"] * 6 + ["w3"]
    for i, label in enumerate(labels):
        centre = float(label[1])
        dataset.add(
            LabeledSample(
                features=rng.normal(centre, 0.5, len(re_module.feature_names)),
                label=label,
                time=float(i),
            )
        )
    _, y = dataset.to_arrays()
    folds = stratified_fold_assignments(y, 5, np.random.default_rng(3))
    expected = sum(
        len(list(combinations(np.unique(y[folds != k]), 2))) for k in range(5)
    )
    fits = count_calls(BinarySVC, "fit")
    solves = count_calls(BinarySVC, "_smo")
    cross_validated_predictions(re_module, dataset, rng=np.random.default_rng(3))
    assert expected == 4 * 6 + 3
    assert len(fits) == len(solves) == expected


def fold_class_pairs(y, rng):
    """``BinarySVC.fit`` calls of a 5-fold CV: one per class pair of each
    fold's training set."""
    folds = stratified_fold_assignments(y, 5, rng)
    return sum(
        len(list(combinations(np.unique(y[folds != k]), 2))) for k in range(5)
    )


def test_cold_sweep_fits_one_cross_validation_per_re_count(
    count_calls, monkeypatch
):
    # Two 20-min days at 20 departures an hour: every dataset (12-21
    # samples, 3-4 classes) folds.
    scale = CampaignScale.compact().derive(
        "budget-re", n_days=2, day_duration_s=1200.0, departures_per_hour=20.0
    )
    grid = ScenarioGrid(
        [paper_office()], [scale], detectors=["kde_md", "variance"], sensor_counts=(5, 9)
    )
    runner = ScenarioSweepRunner(grid, seed=1, mode="serial", re_sensor_counts=(5, 9))
    fits = count_calls(BinarySVC, "fit")
    validations = []
    cross_validate = campaign_module.cross_validated_predictions

    def recording_cross_validate(re_module, dataset, *, rng):
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        before = len(fits)
        predictions = cross_validate(re_module, dataset, rng=rng)
        _, y = dataset.to_arrays()
        assert len(dataset) >= 5, "too few samples: the CV would not fold"
        validations.append((len(fits) - before, fold_class_pairs(y, replay)))
        return predictions

    monkeypatch.setattr(
        campaign_module, "cross_validated_predictions", recording_cross_validate
    )
    runner.run()
    assert len(validations) == len(runner.specs) * 2
    assert all(made == expected > 0 for made, expected in validations)
    assert len(fits) == sum(made for made, _ in validations)


@pytest.fixture(scope="module")
def short_campaign():
    """Two 300-s days at 4 Hz: 1,199 ``s_t`` rows each, one group."""
    scale = CampaignScale.compact().derive("budget", n_days=2, day_duration_s=300.0)
    return collect_campaign(seed=3, scale=scale)


def count_detector_work(count_calls, monkeypatch, detector):
    """``(engines, blocks, reductions)``: lists that ``detector``'s engine
    builds, the shapes its ``extend`` calls get and the zoo's ``sliding``
    calls append to."""
    engine_type = type(detector.streaming_engine(MDConfig(), 2))
    extend, blocks = engine_type.extend, []

    def recording_extend(engine, values):
        blocks.append(np.shape(values))
        return extend(engine, values)

    monkeypatch.setattr(engine_type, "extend", recording_extend)
    engines = count_calls(type(detector), "streaming_engine")
    reductions = [
        count_calls(module, "sliding") for module in (ema_mad_module, variance_module)
    ]
    return engines, blocks, reductions


@DETECTOR_NAMES
def test_md_grid_runs_one_engine_per_day_shape(
    short_campaign, count_calls, monkeypatch, name
):
    detector = get_detector(name)
    engines, blocks, reductions = count_detector_work(
        count_calls, monkeypatch, detector
    )
    counts = (3, 5, 7, 9)
    evaluate_md_grid(short_campaign, FadewichConfig(), counts, detector=detector)
    chains = len(short_campaign.days) * len(counts)
    assert len(engines) == 1
    assert blocks == [(1024, chains), (1199 - 1024, chains)]
    assert sum(map(len, reductions)) == SLIDING_PER_EXTEND[name] * len(blocks)


@DETECTOR_NAMES
@pytest.mark.parametrize("chains", [1, 35])
def test_engine_reductions_do_not_grow_with_chains(
    count_calls, monkeypatch, name, chains
):
    detector = get_detector(name)
    _, blocks, reductions = count_detector_work(count_calls, monkeypatch, detector)
    values = np.random.default_rng(7).normal(2.0, 0.5, size=(300, chains))
    engine = detector.streaming_engine(MDConfig(batch_size=10), 60)
    for rows in batches(300, 4):
        engine.extend(values[rows])
    assert len(blocks) == len(batches(300, 4))
    assert sum(map(len, reductions)) == SLIDING_PER_EXTEND[name] * len(blocks)
