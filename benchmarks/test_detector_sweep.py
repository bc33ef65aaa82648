"""Benchmark: the detector axis must be nearly free on top of one sweep.

Detector variants of a scenario share the simulated recording *and* the
per-config rolling-std feature matrices — only the decision kernel
differs — so sweeping the full three-detector zoo over a grid must cost
at most ``MAX_DETECTOR_OVERHEAD`` of the same grid swept with the KDE
detector alone.  If the runner ever rebuilt recordings or feature
matrices per detector variant, the ratio would sit near 3x and the gate
fails.

The gate also asserts the zoo sweep's KDE rows are ``to_dict``-identical
to the KDE-only sweep's — adding detectors to a grid must never perturb
the paper numbers — so the timing can never pass on divergent work.

Two execution-scale companions:

* a compact multi-detector :func:`repro.run_prioritized` batch (two
  grids, two workers) asserting distributed execution over the shared
  store matches the serial reports bit for bit, detector axis included —
  the CI-sized stand-in for the stress run;
* ``@pytest.mark.stress`` (opt-in via ``--run-stress``): a 1000-point
  multi-detector prioritized batch (a 3-detector grid and a 2-detector
  grid at 200 replicates each) exercising the lease protocol and the
  per-detector store keying at fleet scale.

Day length defaults to compact 10-minute days (``--sweep-day-s`` to
override); ``--paper-scale`` runs full 8-hour days.  Both timed sides
run as the best of ``--bench-repeats``.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.analysis.campaign import CampaignScale
from repro.analysis.scenarios import ScenarioGrid, ScenarioSweepRunner
from repro.analysis.sweep_queue import GridJob, run_prioritized
from repro.analysis.sweep_store import SweepStore
from repro.detectors import (
    EmaMadDetector,
    KdeMdDetector,
    VarianceThresholdDetector,
)
from repro.radio.office import paper_office, wide_office

#: Maximum tolerated ratio of the 3-detector sweep to the KDE-only sweep.
MAX_DETECTOR_OVERHEAD = 1.5

#: Minimum speedup of EMA-MAD's rolling median/MAD (sorted windows on
#: ``repro.sliding``) over dense ``np.median`` windows at a large long
#: window (measured ~3-4x at 481 on a 2-vCPU host).
MIN_SORTED_MEDIAN_SPEEDUP = 1.5

SWEEP_SEED = 23

ZOO = {
    "kde_md": KdeMdDetector(),
    "ema_mad": EmaMadDetector(),
    "variance": VarianceThresholdDetector(),
}


def _bench_scale(request, name="detector-bench") -> CampaignScale:
    if request.config.getoption("--paper-scale"):
        day_s = 8 * 3600.0
    else:
        day_s = float(request.config.getoption("--sweep-day-s"))
    return CampaignScale(
        name=name,
        n_days=2,
        day_duration_s=day_s,
        departures_per_hour=6.5,
        mean_absence_s=150.0,
        min_absence_s=45.0,
        internal_moves_per_hour=2.0,
    )


def _grid(request, detectors) -> ScenarioGrid:
    # One sensor count keeps the timed region dominated by the shared
    # work (simulation + feature matrices): a runner that re-simulated or
    # re-featurised per detector variant would still blow the gate (~3x),
    # while the legitimate per-detector decision kernels stay cheap.
    return ScenarioGrid(
        layouts=[paper_office()],
        scales=[_bench_scale(request)],
        sensor_counts=(3,),
        detectors=detectors,
    )


def test_detector_sweep_overhead(request, best_of, speedup_gate):
    zoo_grid = _grid(request, ZOO)
    kde_grid = _grid(request, {"kde_md": KdeMdDetector()})

    def run(grid):
        return ScenarioSweepRunner(
            grid, seed=SWEEP_SEED, mode="serial", re_sensor_counts=()
        ).run()

    t_kde, kde_report = best_of(lambda: run(kde_grid))
    t_zoo, zoo_report = best_of(lambda: run(zoo_grid))

    # The zoo sweep's KDE rows must be exactly the KDE-only sweep's —
    # the detector axis may never move the paper numbers...
    assert kde_report.n_scenarios == 1 and zoo_report.n_scenarios == 3
    want = kde_report.results[0]
    got = zoo_report.result_for(want.spec.name)
    assert got.to_dict() == want.to_dict()
    # ...and every variant analysed the same shared recording.
    assert len({id(r.recording) for r in zoo_report.results}) == 1

    # Three detectors for at most MAX_DETECTOR_OVERHEAD of one: the gate
    # asserts t_zoo / t_kde <= MAX_DETECTOR_OVERHEAD, i.e. the KDE-only
    # side's "speedup" over the zoo must stay >= 1 / MAX_DETECTOR_OVERHEAD.
    speedup_gate(
        "detector sweep overhead",
        t_kde,
        t_zoo,
        1.0 / MAX_DETECTOR_OVERHEAD,
        reference_name="KDE-only sweep",
        fast_name="3-detector zoo",
        detail=f"{len(zoo_grid)} scenarios sharing 1 recording, serial",
    )


def _dense_window_median_mad(arr, w):
    """``(median, MAD)`` of every full window: ``np.median`` over the rows
    of ``sliding_window_view`` — the reference the gate times against."""
    rows = sliding_window_view(arr, w)
    med = np.median(rows, axis=1)
    mad = np.median(np.abs(rows - med[:, None]), axis=1)
    return med, mad


def test_rolling_median_mad_gate(best_of, speedup_gate):
    """EMA-MAD's rolling median/MAD must beat dense windows at large ones.

    ``EmaMadDetector._median_mad`` reduces its long window on
    :func:`repro.sliding.sliding`, sorting each window for the median and
    its deviations for the MAD; this gate locks its large-window win over
    ``np.median`` on a ``sliding_window_view`` in — and asserts the two
    are bitwise identical on the benchmarked series, so the timing can
    never pass on divergent numbers.  (The default ``long_window=120``
    is covered by the detector-overhead gate above.)
    """
    w = 481
    rng = np.random.default_rng(SWEEP_SEED)
    # Rounded values force heavy ties — the adversarial case for order
    # statistics.
    series = np.round(rng.normal(2.0, 1.0, 20_000), 1)
    detector = EmaMadDetector(long_window=w)
    # The w - 1 leading values are history, so every output is a window.
    full = series.size - w + 1

    t_dense, dense = best_of(lambda: _dense_window_median_mad(series, w))
    t_sorted, fast = best_of(lambda: detector._median_mad(series, full, w - 1))
    assert np.array_equal(dense[0], fast[0])
    assert np.array_equal(dense[1], fast[1])

    speedup_gate(
        "rolling median/MAD",
        t_dense,
        t_sorted,
        MIN_SORTED_MEDIAN_SPEEDUP,
        reference_name="dense np.median windows",
        fast_name="sorted windows on repro.sliding",
        detail=f"window {w}, {series.size} samples, bitwise-identical",
    )


def _prioritized_jobs(request, *, n_replicates, scaled=True):
    """Two multi-detector grids for a prioritized batch.

    The compact smoke shape (2 grids, heterogeneous detector axes); the
    stress shape scales the same grids up through ``n_replicates``.
    """
    scale = _bench_scale(request, name="det-queue")
    if scaled:
        scale = scale.derive("det-queue", day_duration_s=300.0)
    busy = scale.derive("det-queue-busy", departures_per_hour=10.0)
    zoo_a = dict(ZOO)
    zoo_b = {"kde_md": KdeMdDetector(), "variance": VarianceThresholdDetector()}
    grid_a = ScenarioGrid(
        layouts=[paper_office()],
        scales=[scale],
        sensor_counts=(3,),
        detectors=zoo_a,
        n_replicates=n_replicates,
    )
    grid_b = ScenarioGrid(
        layouts=[paper_office()],
        scales=[busy],
        sensor_counts=(3,),
        detectors=zoo_b,
        n_replicates=n_replicates,
    )
    return [
        GridJob("zoo", grid_a, seed=SWEEP_SEED),
        GridJob("pair", grid_b, seed=SWEEP_SEED + 1),
    ]


def test_prioritized_multi_detector_matches_serial(request, tmp_path):
    # The CI-sized stand-in for the stress run: 10 grid points (6 + 4)
    # over 2 cooperative workers, checked bit-identical to serial runs.
    jobs = _prioritized_jobs(request, n_replicates=2)
    result = run_prioritized(
        jobs,
        SweepStore(tmp_path / "store"),
        workers=2,
        report_path=tmp_path / "report.json",
        log_dir=tmp_path / "logs",
    )
    assert result.order == ["zoo", "pair"]
    for job in jobs:
        serial = job.make_runner("serial").run()
        assert result.reports[job.name].to_dict() == serial.to_dict()
    # Per-detector records landed in each grid's own store partition.
    names = {
        spec_name
        for job in jobs
        for spec_name in (
            r.spec.name for r in result.reports[job.name].results
        )
    }
    assert sum("/kde_md/" in n for n in names) == 4
    assert sum("/ema_mad/" in n for n in names) == 2
    assert sum("/variance/" in n for n in names) == 4


@pytest.mark.stress
def test_prioritized_multi_detector_stress(request, tmp_path):
    """~1000 grid points through the lease protocol, detector axis live.

    A 3-detector grid and a 2-detector grid at 200 replicates each =
    1000 scenarios, 4 workers; detector-sharing means only 400 campaigns
    are simulated.  Asserts completeness and per-detector record keying,
    not timing — this is a load test of the claim/heartbeat/merge path.
    """
    jobs = _prioritized_jobs(request, n_replicates=200)
    total = sum(len(job.grid) for job in jobs)
    assert total == 1000
    result = run_prioritized(
        jobs,
        SweepStore(tmp_path / "store"),
        workers=4,
        report_path=tmp_path / "report.json",
        log_dir=tmp_path / "logs",
    )
    assert [len(result.reports[j.name].results) for j in jobs] == [600, 400]
    for job in jobs:
        report = result.reports[job.name]
        by_detector = {}
        for r in report.results:
            by_detector.setdefault(r.spec.detector_name, 0)
            by_detector[r.spec.detector_name] += 1
        assert all(count == 200 for count in by_detector.values())
