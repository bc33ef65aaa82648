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
  one ``WindowTracker.extend`` call.
"""

import dataclasses
import math

import numpy as np
import pytest

import repro.streaming.detector as detector_module
import repro.zones.estimator as estimator_module
from repro.core.config import MDConfig
from repro.radio.links import enumerate_stream_ids
from repro.radio.trace import RssiTrace
from repro.streaming import OnlineDetector, OnlineStdSum, WindowTracker
from repro.zones import ZoneMap, ZoneOccupancyEstimator

BATCH_SIZES = pytest.mark.parametrize("batch", [1, 4, 256])
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
