"""Golden analysis test: the paper-facing numbers of the default campaign.

Pins Table III (MD detection counts and rates), the Figure 7 F-measure
peaks and the Figure 8 final accuracies for the default seed-42 compact
campaign.  The columnar analysis engine (shared feature matrix, lockstep
profile grid, vectorised CV) sits under all of these, so any refactor that
silently drifts the paper's numbers fails here loudly.  The ``s_t`` behind
them is the live detector's (``tests/test_streaming_equivalence.py`` pins
the sweep against ``OnlineDetector``).  If a change is
*intentional* (e.g. a new seeding or profiling scheme), re-derive the
golden values and update them in the same commit.
"""

import pytest

from repro.analysis.campaign import AnalysisContext, collect_campaign
from repro.analysis.md_performance import compute_fmeasure_curves, compute_md_table
from repro.analysis.re_performance import compute_learning_curves
from repro.core.config import FadewichConfig

GOLDEN_SEED = 42

#: Table III — (tp, fp, fn) per sensor count.  Consciously re-pinned when
#: the sweep adopted the live detector's ``s_t`` (each stream's partial-head
#: rolling std from the second sample, streams added left to right), so the
#: profile's initialisation window now covers the samples a deployed router
#: sees.  Old values (cumsum std from the first full window, pairwise
#: stream sums): {3: (38, 1, 35), 4: (44, 2, 29), 5: (43, 0, 30),
#: 6: (47, 2, 26), 7: (56, 6, 17), 8: (67, 8, 6), 9: (66, 7, 7)}.
GOLDEN_MD_COUNTS = {
    3: (37, 1, 36),
    4: (43, 2, 30),
    5: (47, 0, 26),
    6: (48, 3, 25),
    7: (58, 2, 15),
    8: (64, 7, 9),
    9: (68, 5, 5),
}

#: Table III — TP/FP/FN fractions per sensor count (re-pinned with the
#: counts above).
GOLDEN_MD_RATES = {
    3: {"tp": 0.500000, "fp": 0.013514, "fn": 0.486486},
    4: {"tp": 0.573333, "fp": 0.026667, "fn": 0.400000},
    5: {"tp": 0.643836, "fp": 0.000000, "fn": 0.356164},
    6: {"tp": 0.631579, "fp": 0.039474, "fn": 0.328947},
    7: {"tp": 0.773333, "fp": 0.026667, "fn": 0.200000},
    8: {"tp": 0.800000, "fp": 0.087500, "fn": 0.112500},
    9: {"tp": 0.871795, "fp": 0.064103, "fn": 0.064103},
}

#: Figure 7 — (t_delta at peak, peak F-measure) per plotted sensor count.
#: Re-pinned with Table III; the peak t_delta of every count is unchanged.
#: Old F-measures: {3: 0.8344, 5: 0.8873, 7: 0.8767, 9: 0.9128}.
GOLDEN_F_PEAKS = {
    3: (2.0, 0.863013698630137),
    5: (3.0, 0.8857142857142857),
    7: (3.5, 0.9027777777777778),
    9: (4.0, 0.9333333333333333),
}

#: Figure 8 — final out-of-fold accuracy per sensor count
#: (n_repeats=3, seed=0 keeps the golden run fast but fully pinned).
#: Consciously re-pinned for the shared-Gram learning-curve engine
#: (PR 4): the curve now fixes one StandardScaler and one kernel per
#: (repeat, fold) instead of per training subset — the invariant that
#: makes the fold's Gram matrix shareable across sizes — and the SMO
#: solver (incremental error cache, extremum-based second choice,
#: warm-started prefix fits) reaches tol-equivalent but not bitwise-equal
#: stationary points.  Old values (per-subset scaler, pre-cache SMO):
#: {3: 0.3071428571428571, 9: 0.678949938949939} — the shift is within
#: the curves' own ci95.  The fold splits themselves are unchanged (the
#: fitter consumes the random stream exactly like the per-fit path).
#: Re-pinned again with the live ``s_t`` (see Table III), which changes the
#: true positives the RE datasets are built from.  3 sensors:
#: 0.28174603174603174 -> 0.3968 (ci95 0.082); the dataset has 37 samples
#: instead of 38, so the largest train size evaluated drops from 30 to 20.
#: 9 sensors: 0.6664102564102564 -> 0.6754 (ci95 0.024), inside the old
#: ci95 of 0.033.
GOLDEN_FINAL_ACCURACY = {
    3: 0.3968253968253969,
    9: 0.6753815628815629,
}


@pytest.fixture(scope="module")
def context():
    recording = collect_campaign(seed=GOLDEN_SEED)
    return AnalysisContext(recording, FadewichConfig(), seed=0)


class TestGoldenAnalysis:
    def test_table3_md_counts_and_rates(self, context):
        rows = compute_md_table(context)
        assert [row.n_sensors for row in rows] == sorted(GOLDEN_MD_COUNTS)
        for row in rows:
            counts = (row.counts.tp, row.counts.fp, row.counts.fn)
            assert counts == GOLDEN_MD_COUNTS[row.n_sensors]
            for key, value in GOLDEN_MD_RATES[row.n_sensors].items():
                assert row.rates[key] == pytest.approx(value, abs=1e-6)

    def test_fig7_fmeasure_peaks(self, context):
        curves = compute_fmeasure_curves(context)
        assert [c.n_sensors for c in curves] == sorted(GOLDEN_F_PEAKS)
        for curve in curves:
            t_peak, f_peak = curve.peak()
            golden_t, golden_f = GOLDEN_F_PEAKS[curve.n_sensors]
            assert t_peak == golden_t
            assert f_peak == pytest.approx(golden_f, abs=1e-9)

    def test_fig8_final_accuracies(self, context):
        curves = compute_learning_curves(
            context, sensor_counts=tuple(sorted(GOLDEN_FINAL_ACCURACY)),
            n_repeats=3, seed=0,
        )
        assert [c.n_sensors for c in curves] == sorted(GOLDEN_FINAL_ACCURACY)
        for curve in curves:
            assert curve.final_accuracy == pytest.approx(
                GOLDEN_FINAL_ACCURACY[curve.n_sensors], abs=1e-9
            )
