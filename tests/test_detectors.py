"""The detector zoo: bit-identity, codec and sweep-axis contracts.

Extends the repo's equivalence discipline to :mod:`repro.detectors`:

* **every registered detector** (and tuned variants) has a streaming
  engine bitwise-identical to its offline reference grid under
  hypothesis-generated random batch splits — partial-window head
  included — the same contract ``OnlineStdSum``/``OnlineProfile`` set;
* ``KdeMdDetector`` is a pure port: its grids equal
  :func:`repro.core.movement.run_profile_grid` exactly, so the golden
  numbers cannot move;
* detector configs round-trip through the :mod:`repro.identity` codec;
* *detector* works as a first-class :class:`ScenarioGrid` axis: shared
  recordings, per-detector store records (warm resume of one detector
  leaves the others' holes intact), KDE rows of a zoo sweep identical to
  a KDE-only sweep, and a ragged-tolerant comparison table.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.campaign import CampaignScale
from repro.analysis.md_performance import MDTableRow
from repro.analysis.scenarios import (
    ScenarioGrid,
    ScenarioResult,
    ScenarioSpec,
    ScenarioSweepRunner,
    SweepReport,
)
from repro.analysis.sweep_store import SweepStore
from repro.core.config import FadewichConfig, MDConfig
from repro.core.movement import online_std_sum_series, run_profile_grid
from repro.detectors import (
    DetectionGrid,
    EmaMadDetector,
    KdeMdDetector,
    VarianceThresholdDetector,
    detector_names,
    get_detector,
)
from repro.identity import decode, encode
from repro.ml.metrics import DetectionCounts
from repro.radio.office import paper_office
from repro.streaming import IngestRouter, OnlineDetector, SampleBatch

RATE = 4.0

# Tuned variants exercise the small-window/short-init code paths the
# defaults (short_window=30, long_window=120, window=10) rarely reach on
# compact test series.
TUNED_EMA = EmaMadDetector(
    ema_alpha=0.5,
    short_window=4,
    long_window=9,
    min_long=3,
    threshold_scale=2.0,
    dev_factor=2.0,
    down_ratio=0.5,
)
TUNED_VARIANCE = VarianceThresholdDetector(window=3, threshold_scale=2.0)


def zoo_variants():
    """Every registered detector (default config) plus tuned variants."""
    variants = [(name, get_detector(name)) for name in detector_names()]
    variants += [("ema_mad-tuned", TUNED_EMA), ("variance-tuned", TUNED_VARIANCE)]
    return variants


def variant_params():
    return [pytest.param(det, id=label) for label, det in zoo_variants()]


def split_series(values, sizes):
    out, pos = [], 0
    for s in sizes:
        out.append(values[pos : pos + s])
        pos += s
    assert pos == values.shape[0]
    return out


def stream_grid(detector, values, config, init_samples, sizes):
    """Run a detector's streaming engine over ``values`` in given splits."""
    engine = detector.streaming_engine(config, init_samples)
    decisions, thresholds = [], []
    for batch in split_series(values, sizes):
        d, th = engine.extend(batch)
        decisions.append(d)
        thresholds.append(th)
    return np.concatenate(decisions), np.concatenate(thresholds)


def anomaly_series(rng, n):
    values = np.abs(rng.normal(2.0, 0.5, n))
    values[n // 2 :: 5] += 4.0
    return values


# --------------------------------------------------------------------- #
class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ema_alpha": 0.0},
            {"ema_alpha": 1.5},
            {"short_window": 1},
            {"short_window": 10, "long_window": 5},
            {"min_long": 1},
            {"long_window": 20, "min_long": 30},
            {"threshold_scale": 0.0},
            {"dev_factor": -1.0},
            {"down_ratio": 0.0},
            {"down_ratio": 1.5},
        ],
    )
    def test_ema_mad_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            EmaMadDetector(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"window": 1}, {"threshold_scale": 0.0}]
    )
    def test_variance_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            VarianceThresholdDetector(**kwargs)

    def test_detection_grid_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="share a shape"):
            DetectionGrid(
                decisions=np.zeros((4, 2), dtype=np.int8),
                thresholds=np.zeros((4, 3)),
            )


class TestComponentCodec:
    @pytest.mark.parametrize(
        "det",
        [
            KdeMdDetector(),
            EmaMadDetector(),
            TUNED_EMA,
            VarianceThresholdDetector(),
            TUNED_VARIANCE,
        ],
        ids=lambda d: type(d).__name__,
    )
    def test_round_trip_through_json(self, det):
        back = decode(json.loads(json.dumps(encode(det))))
        assert type(back) is type(det)
        assert back == det

    def test_variants_encode_distinctly(self):
        assert encode(EmaMadDetector()) != encode(TUNED_EMA)
        assert encode(VarianceThresholdDetector()) != encode(TUNED_VARIANCE)


# --------------------------------------------------------------------- #
class TestOfflineStreamingIdentity:
    """The zoo-wide bit-identity contract, enforced per registry entry."""

    CFG = MDConfig(profile_init_s=5.0, batch_size=16)

    @pytest.mark.parametrize("det", variant_params())
    @pytest.mark.parametrize("init_samples", [2, 8, 40])
    def test_single_sample_feed_matches_offline_grid(self, rng, det, init_samples):
        values = anomaly_series(rng, 120)
        ref = det.offline_grid(values[:, np.newaxis], self.CFG, init_samples)
        dec, th = stream_grid(det, values, self.CFG, init_samples, [1] * 120)
        np.testing.assert_array_equal(dec, ref.decisions[:, 0])
        np.testing.assert_array_equal(th, ref.thresholds[:, 0])

    @pytest.mark.parametrize("det", variant_params())
    @pytest.mark.parametrize(
        "sizes",
        [[120], [3, 117], [1, 1, 118], [13, 50, 57], [119, 1], [2] * 60],
    )
    def test_fixed_splits_match_offline_grid(self, rng, det, sizes):
        # [1, 1, 118] and [2] * 60 start below every window length, so the
        # partial-window head crosses a batch boundary.
        values = anomaly_series(rng, 120)
        ref = det.offline_grid(values[:, np.newaxis], self.CFG, 20)
        dec, th = stream_grid(det, values, self.CFG, 20, sizes)
        np.testing.assert_array_equal(dec, ref.decisions[:, 0])
        np.testing.assert_array_equal(th, ref.thresholds[:, 0])

    @pytest.mark.parametrize("det", variant_params())
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=90),
        init_samples=st.sampled_from([2, 3, 8, 40]),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_random_batch_splits_are_bitwise_identical(
        self, det, n, init_samples, seed, data
    ):
        rng = np.random.default_rng(seed)
        values = anomaly_series(rng, n)
        ref = det.offline_grid(values[:, np.newaxis], self.CFG, init_samples)
        sizes, left = [], n
        while left > 0:
            s = data.draw(st.integers(min_value=1, max_value=left))
            sizes.append(s)
            left -= s
        dec, th = stream_grid(det, values, self.CFG, init_samples, sizes)
        np.testing.assert_array_equal(dec, ref.decisions[:, 0])
        np.testing.assert_array_equal(th, ref.thresholds[:, 0])

    @pytest.mark.parametrize("det", variant_params())
    def test_empty_batch_is_a_no_op(self, rng, det):
        values = anomaly_series(rng, 40)
        ref = det.offline_grid(values[:, np.newaxis], self.CFG, 12)
        engine = det.streaming_engine(self.CFG, 12)
        d1, t1 = engine.extend(values[:15])
        d_empty, t_empty = engine.extend(values[:0])
        d2, t2 = engine.extend(values[15:])
        assert d_empty.shape == (0,) and t_empty.shape == (0,)
        np.testing.assert_array_equal(
            np.concatenate([d1, d2]), ref.decisions[:, 0]
        )
        np.testing.assert_array_equal(
            np.concatenate([t1, t2]), ref.thresholds[:, 0]
        )

    def test_kde_offline_is_a_pure_port_of_run_profile_grid(self, rng):
        # The zoo wrapper must not perturb a single bit of the paper's
        # engine — this is what keeps the golden numbers pinned.
        matrix = np.abs(rng.normal(2.0, 0.8, size=(160, 3)))
        matrix[60::7, :] += 5.0
        ref = run_profile_grid(matrix, self.CFG, 20)
        got = KdeMdDetector().offline_grid(matrix, self.CFG, 20)
        assert isinstance(got, DetectionGrid)
        np.testing.assert_array_equal(got.decisions, ref.decisions)
        np.testing.assert_array_equal(got.thresholds, ref.thresholds)

    @pytest.mark.parametrize(
        "det",
        [TUNED_EMA, TUNED_VARIANCE],
        ids=["ema_mad", "variance"],
    )
    def test_columns_are_independent_chains(self, rng, det):
        matrix = np.abs(rng.normal(2.0, 0.8, size=(80, 3)))
        matrix[40::6, :] += 5.0
        grid = det.offline_grid(matrix, self.CFG, 12)
        assert grid.decisions.shape == matrix.shape
        for j in range(matrix.shape[1]):
            col = det.offline_grid(matrix[:, j : j + 1], self.CFG, 12)
            np.testing.assert_array_equal(
                col.decisions[:, 0], grid.decisions[:, j]
            )
            np.testing.assert_array_equal(
                col.thresholds[:, 0], grid.thresholds[:, j]
            )

    @pytest.mark.parametrize("det", variant_params())
    def test_decisions_follow_the_grid_conventions(self, rng, det):
        values = anomaly_series(rng, 100)
        grid = det.offline_grid(values[:, np.newaxis], self.CFG, 30)
        dec, th = grid.decisions[:, 0], grid.thresholds[:, 0]
        assert dec.dtype == np.int8
        assert set(np.unique(dec)) <= {-1, 0, 1}
        # Initialisation phase: undecided, no threshold before init-1.
        assert np.all(dec[:29] == -1)
        assert np.all(np.isnan(th[:29]))
        # The threshold first materialises at row init_samples - 1.
        assert np.isfinite(th[29:]).all()
        assert np.all(dec[30:] >= 0)


# --------------------------------------------------------------------- #
def tiny_scale(name="tiny", **overrides):
    base = CampaignScale.compact().derive(name, n_days=2, day_duration_s=400.0)
    return base.derive(name, **overrides) if overrides else base


ZOO = {
    "kde_md": KdeMdDetector(),
    "ema_mad": EmaMadDetector(),
    "variance": VarianceThresholdDetector(),
}


def zoo_grid(detectors=ZOO):
    return ScenarioGrid(
        layouts=[paper_office()],
        scales=[tiny_scale()],
        sensor_counts=(3,),
        detectors=detectors,
    )


class TestGridDetectorAxis:
    def test_default_axis_is_the_paper_detector(self):
        grid = ScenarioGrid(layouts=[paper_office()], scales=[tiny_scale()])
        assert grid.detectors == {"kde_md": KdeMdDetector()}
        spec = grid.scenarios()[0]
        assert spec.detector_name == "kde_md"
        assert spec.detector == KdeMdDetector()
        assert "/kde_md/" in spec.name

    def test_detector_axis_multiplies_grid_points(self):
        grid = zoo_grid()
        assert len(grid) == 3
        specs = grid.scenarios()
        assert [s.detector_name for s in specs] == ["kde_md", "ema_mad", "variance"]
        assert [s.name for s in specs] == [
            "paper-office/tiny/default/default/kde_md/r0",
            "paper-office/tiny/default/default/ema_md/r0".replace("ema_md", "ema_mad"),
            "paper-office/tiny/default/default/variance/r0",
        ]
        # Detector variants share one simulated campaign.
        assert len({s.simulation_key() for s in specs}) == 1
        assert len({s.index for s in specs}) == 3

    def test_sequence_entries_label_by_registry_name(self):
        grid = zoo_grid(detectors=["variance", KdeMdDetector(), TUNED_EMA])
        assert list(grid.detectors) == ["variance", "kde_md", "ema_mad"]
        assert grid.detectors["ema_mad"] is TUNED_EMA

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="at least one detector"):
            zoo_grid(detectors={})
        with pytest.raises(ValueError, match="kde_md"):
            zoo_grid(detectors=["no-such-detector"])
        with pytest.raises(ValueError, match="mapping"):
            zoo_grid(detectors=[EmaMadDetector(), TUNED_EMA])
        with pytest.raises(ValueError, match="identical configs"):
            zoo_grid(detectors={"a": VarianceThresholdDetector(),
                                "b": VarianceThresholdDetector()})

    def test_content_hash_distinguishes_detectors(self):
        hashes = {
            spec.detector_name: spec.content_hash()
            for spec in zoo_grid().scenarios()
        }
        assert len(set(hashes.values())) == 3
        tuned = zoo_grid(detectors={"ema_mad": TUNED_EMA}).scenarios()[0]
        default = zoo_grid(detectors={"ema_mad": EmaMadDetector()}).scenarios()[0]
        assert tuned.name == default.name
        assert tuned.content_hash() != default.content_hash()

    def test_spec_round_trip_carries_the_detector(self):
        spec = zoo_grid(detectors={"ema_mad": TUNED_EMA}).scenarios()[0]
        back = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.detector == TUNED_EMA
        assert back.content_hash() == spec.content_hash()

    def test_spec_from_dict_defaults_old_records_to_kde(self):
        spec = ScenarioGrid(
            layouts=[paper_office()], scales=[tiny_scale()]
        ).scenarios()[0]
        data = spec.to_dict()
        del data["detector"], data["detector_name"]
        back = ScenarioSpec.from_dict(data)
        assert back.detector_name == "kde_md"
        assert back.detector == KdeMdDetector()


class TestDetectorSweep:
    SEED = 11

    @pytest.fixture(scope="class")
    def zoo_report(self):
        return ScenarioSweepRunner(
            zoo_grid(), seed=self.SEED, mode="serial", re_sensor_counts=()
        ).run()

    def test_zoo_kde_rows_identical_to_kde_only_sweep(self, zoo_report):
        kde_only = ScenarioSweepRunner(
            zoo_grid(detectors={"kde_md": KdeMdDetector()}),
            seed=self.SEED,
            mode="serial",
            re_sensor_counts=(),
        ).run()
        assert kde_only.n_scenarios == 1
        want = kde_only.results[0]
        got = zoo_report.result_for(want.spec.name)
        assert got.to_dict() == want.to_dict()

    def test_detector_variants_share_one_recording(self, zoo_report):
        recordings = {id(r.recording) for r in zoo_report.results}
        assert len(recordings) == 1
        assert zoo_report.results[0].recording is not None

    def test_report_detector_surfaces(self, zoo_report):
        assert zoo_report.detector_names() == ["ema_mad", "kde_md", "variance"]
        cells = zoo_report.cell_statistics()
        assert {cell["detector"] for cell in cells} == {
            "ema_mad", "kde_md", "variance",
        }
        comparison = zoo_report.detector_comparison()
        assert len(comparison) == 1
        row = comparison[0]
        assert set(row["f_mean_by_detector"]) == {"ema_mad", "kde_md", "variance"}
        assert row["best_detector"] in row["f_mean_by_detector"]
        for f in row["f_mean_by_detector"].values():
            assert 0.0 <= f <= 1.0
        rendered = zoo_report.render()
        assert "detector comparison" in rendered
        # to_dict carries the same table (floats quantized for export).
        exported = zoo_report.to_dict()["detector_comparison"]
        assert [r["best_detector"] for r in exported] == [
            r["best_detector"] for r in comparison
        ]
        for got, want in zip(exported, comparison):
            assert got["f_mean_by_detector"] == {
                k: round(v, 6) for k, v in want["f_mean_by_detector"].items()
            }

    def test_round_trip_preserves_detector_sections(self, zoo_report, tmp_path):
        path = tmp_path / "report.json"
        zoo_report.save(path)
        loaded = SweepReport.load(path)
        assert loaded.to_dict() == zoo_report.to_dict()
        assert loaded.detector_comparison() == zoo_report.detector_comparison()

    def test_store_records_are_keyed_per_detector(self, tmp_path):
        def runner():
            return ScenarioSweepRunner(
                zoo_grid(), seed=self.SEED, mode="serial", re_sensor_counts=()
            )

        store = SweepStore(tmp_path)
        cold = runner().run(store=store)
        assert len(store) == 3

        # Punch a hole in exactly one detector's record...
        victim = cold.result_for(
            "paper-office/tiny/default/default/ema_mad/r0"
        ).spec
        assert store.delete(victim.name)

        # ...and resume: only that scenario is re-analysed, the other two
        # detectors' records stay warm (their holes are left intact).
        resumed_runner = runner()
        resumed = resumed_runner.run(store=store)
        stats = resumed_runner.last_run_stats
        assert stats.n_analyzed == 1
        assert stats.n_cached == 2
        assert resumed.to_dict() == cold.to_dict()

    def test_tuned_variant_invalidates_only_its_own_record(self, tmp_path):
        store = SweepStore(tmp_path)
        ScenarioSweepRunner(
            zoo_grid(), seed=self.SEED, mode="serial", re_sensor_counts=()
        ).run(store=store)
        store.reset_stats()

        # Same labels, one detector's config changed: its record reads as
        # stale while the other two hit.
        tuned = dict(ZOO, ema_mad=TUNED_EMA)
        tuned_runner = ScenarioSweepRunner(
            zoo_grid(detectors=tuned),
            seed=self.SEED,
            mode="serial",
            re_sensor_counts=(),
        )
        tuned_runner.run(store=store)
        assert tuned_runner.last_run_stats.n_analyzed == 1
        assert tuned_runner.last_run_stats.n_cached == 2
        assert store.stats.stale == 1
        assert store.stats.hits == 2


class TestRaggedComparisonRender:
    """Satellite: a detector absent from a cell renders blank, not a crash."""

    @staticmethod
    def ragged_report():
        specs = zoo_grid(
            detectors={"kde_md": KdeMdDetector(), "variance": VarianceThresholdDetector()}
        ).scenarios()
        results = [
            ScenarioResult(
                spec=specs[0],
                n_events=6,
                n_departures=4,
                md_rows=[
                    MDTableRow(3, DetectionCounts(tp=4, fp=1, fn=1)),
                    MDTableRow(6, DetectionCounts(tp=5, fp=0, fn=1)),
                ],
            ),
            # The second detector evaluated a different sensor count, so
            # cells (3,) and (6,) miss it and cell (9,) misses kde_md.
            ScenarioResult(
                spec=specs[1],
                n_events=6,
                n_departures=4,
                md_rows=[MDTableRow(9, DetectionCounts(tp=3, fp=2, fn=2))],
            ),
        ]
        return SweepReport(results, seed_entropy=0)

    def test_missing_cells_are_blank_not_fabricated(self):
        report = self.ragged_report()
        comparison = report.detector_comparison()
        by_count = {row["n_sensors"]: row for row in comparison}
        assert set(by_count) == {3, 6, 9}
        assert set(by_count[3]["f_mean_by_detector"]) == {"kde_md"}
        assert set(by_count[9]["f_mean_by_detector"]) == {"variance"}
        assert by_count[9]["best_detector"] == "variance"

    def test_render_survives_ragged_cells(self):
        rendered = self.ragged_report().render()
        assert "detector comparison" in rendered
        # Missing metrics render as '-' placeholders in the table body.
        comparison_section = rendered[rendered.index("detector comparison") :]
        assert "-" in comparison_section

    def test_single_detector_report_omits_comparison_section(self):
        report = self.ragged_report()
        solo = SweepReport(report.results[:1], seed_entropy=0)
        assert "detector comparison" not in solo.render()


# --------------------------------------------------------------------- #
class TestStreamingIntegration:
    CFG = MDConfig(std_window_s=2.0, profile_init_s=5.0, batch_size=16)

    def day_matrix(self, rng, n=160, k=3):
        matrix = rng.normal(-50.0, 1.0, size=(n, k))
        matrix[n // 2 : n // 2 + 20] += rng.normal(0.0, 6.0, size=(20, k))
        return np.arange(n) / RATE, matrix

    def offline_reference(self, det, matrix):
        window = max(int(round(self.CFG.std_window_s * RATE)), 2)
        init = max(int(round(self.CFG.profile_init_s * RATE)), 2)
        s = online_std_sum_series(matrix, window)
        defined = ~np.isnan(s)
        grid = det.offline_grid(s[defined][:, np.newaxis], self.CFG, init)
        decisions = np.full(s.shape[0], -1, dtype=np.int8)
        thresholds = np.full(s.shape[0], np.nan)
        decisions[defined] = grid.decisions[:, 0]
        thresholds[defined] = grid.thresholds[:, 0]
        return decisions, thresholds

    @pytest.mark.parametrize(
        "det",
        [KdeMdDetector(), TUNED_EMA, TUNED_VARIANCE],
        ids=["kde_md", "ema_mad", "variance"],
    )
    def test_online_detector_hosts_any_zoo_member(self, rng, det):
        times, matrix = self.day_matrix(rng)
        want_dec, want_th = self.offline_reference(det, matrix)
        od = OnlineDetector(
            ["s0", "s1", "s2"], self.CFG, sample_rate_hz=RATE, detector=det
        )
        assert od.detector is det
        blocks, pos = [], 0
        for size in [1, 2, 37, 60, 60]:
            blocks.append(
                od.process_block(
                    times[pos : pos + size], matrix[pos : pos + size]
                )
            )
            pos += size
        assert pos == matrix.shape[0]
        np.testing.assert_array_equal(
            np.concatenate([b.decisions for b in blocks]), want_dec
        )
        np.testing.assert_array_equal(
            np.concatenate([b.thresholds for b in blocks]), want_th
        )

    def test_kde_member_matches_the_default_path_bitwise(self, rng):
        times, matrix = self.day_matrix(rng)
        default = OnlineDetector(["s0", "s1", "s2"], self.CFG, sample_rate_hz=RATE)
        zoo = OnlineDetector(
            ["s0", "s1", "s2"],
            self.CFG,
            sample_rate_hz=RATE,
            detector=KdeMdDetector(),
        )
        a = default.process_block(times, matrix)
        b = zoo.process_block(times, matrix)
        np.testing.assert_array_equal(a.decisions, b.decisions)
        np.testing.assert_array_equal(a.thresholds, b.thresholds)
        np.testing.assert_array_equal(a.durations, b.durations)

    def test_router_hosts_heterogeneous_tenants(self, rng):
        times, matrix = self.day_matrix(rng)
        ids = ["s0", "s1", "s2"]
        tenant_detectors = {
            "kde-office": None,
            "ema-office": TUNED_EMA,
            "var-office": TUNED_VARIANCE,
        }
        router = IngestRouter(
            n_workers=2, config=self.CFG, sample_rate_hz=RATE,
            detector=KdeMdDetector(),
        )
        with router:
            for tenant, det in tenant_detectors.items():
                router.register(tenant, ids, detector=det)
            for start in range(0, matrix.shape[0], 40):
                for tenant in tenant_detectors:
                    router.submit(
                        SampleBatch(
                            tenant=tenant,
                            times=times[start : start + 40],
                            samples=matrix[start : start + 40],
                        )
                    )
            router.drain()
        for tenant, det in tenant_detectors.items():
            # None falls back to the router default (the KDE zoo member).
            ref_det = det if det is not None else KdeMdDetector()
            want_dec, want_th = self.offline_reference(ref_det, matrix)
            got = router.tenant_state(tenant).concatenated()
            np.testing.assert_array_equal(got.decisions, want_dec)
            np.testing.assert_array_equal(got.thresholds, want_th)
        # The per-tenant engines really are distinct zoo members.
        assert router.tenant_state("ema-office").detector.detector is TUNED_EMA
        assert router.tenant_state("var-office").detector.detector is TUNED_VARIANCE
