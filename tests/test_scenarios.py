"""Tests for the scenario-grid sweep subsystem.

Locks the contracts of :mod:`repro.analysis.scenarios`:

* grid enumeration is the deterministic cartesian product of the axes;
* every scenario's recording is bit-identical to a serial
  ``collect_generated`` with the scenario's derived child seed (so the
  sweep is exactly "many reproduction campaigns", not a new engine);
* config-only variants share one simulated recording, and its rolling-std
  blocks wherever their std windows agree;
* the whole sweep is reproducible from a single root seed across
  execution modes;
* the aggregate report renders and round-trips through JSON.
"""

import json

import numpy as np
import pytest

from repro.analysis.campaign import CampaignScale
from repro.analysis.scenarios import (
    ScenarioGrid,
    ScenarioSweepRunner,
    SweepReport,
)
from repro.core.config import FadewichConfig
from repro.features.rolling import RollingStdExtractor
from repro.radio.channel import ChannelConfig
from repro.radio.office import paper_office, wide_office
from repro.simulation.collector import CampaignCollector


def tiny_scale(name="tiny", **overrides):
    base = CampaignScale.compact().derive(
        name, n_days=2, day_duration_s=600.0
    )
    return base.derive(name, **overrides) if overrides else base


@pytest.fixture(scope="module")
def grid():
    return ScenarioGrid(
        layouts=[paper_office(), wide_office()],
        scales=[tiny_scale(), tiny_scale("tiny-busy", departures_per_hour=10.0)],
        configs={
            "default": FadewichConfig(),
            "t6": FadewichConfig().derive(t_delta_s=6.0),
        },
        sensor_counts=(3, 6, 9),
    )


@pytest.fixture(scope="module")
def report(grid):
    return ScenarioSweepRunner(
        grid, seed=11, mode="serial", re_sensor_counts=()
    ).run()


class TestScenarioGrid:
    def test_cartesian_enumeration(self, grid):
        specs = grid.scenarios()
        assert len(grid) == len(specs) == 2 * 2 * 1 * 2
        assert [spec.index for spec in specs] == list(range(len(specs)))
        names = [spec.name for spec in specs]
        assert len(set(names)) == len(names)
        assert names[0] == "paper-office/tiny/default/default/kde_md/r0"
        # Iteration order is deterministic: layouts, scales, channels,
        # configs, detectors, replicates.
        assert names[1] == "paper-office/tiny/default/t6/kde_md/r0"

    def test_replicates_are_distinct_grid_points(self):
        grid = ScenarioGrid(
            layouts=[paper_office()], scales=[tiny_scale()], n_replicates=3
        )
        specs = grid.scenarios()
        assert len(specs) == 3
        assert [spec.replicate for spec in specs] == [0, 1, 2]
        assert len({spec.simulation_key() for spec in specs}) == 3

    def test_sensor_counts_respect_layout(self, grid):
        assert grid.sensor_counts_for(paper_office()) == [3, 6, 9]
        five = paper_office().with_sensors(["d1", "d2", "d3", "d4", "d5"])
        assert grid.sensor_counts_for(five) == [3]

    def test_default_sensor_counts_full_sweep(self):
        grid = ScenarioGrid(layouts=[paper_office()], scales=[tiny_scale()])
        assert grid.sensor_counts_for(paper_office()) == list(range(3, 10))

    def test_validation(self):
        with pytest.raises(ValueError, match="layout"):
            ScenarioGrid(layouts=[], scales=[tiny_scale()])
        with pytest.raises(ValueError, match="scale"):
            ScenarioGrid(layouts=[paper_office()], scales=[])
        with pytest.raises(ValueError, match="unique"):
            ScenarioGrid(
                layouts=[paper_office(), paper_office()], scales=[tiny_scale()]
            )
        with pytest.raises(ValueError, match="n_replicates"):
            ScenarioGrid(
                layouts=[paper_office()], scales=[tiny_scale()], n_replicates=0
            )

    def test_sensor_counts_normalised_to_sorted_unique(self):
        # Duplicate / unsorted counts ([5, 5, 3]) used to produce duplicate
        # MDTableRows per scenario, double-counting every scenario in
        # SweepReport.summary().
        grid = ScenarioGrid(
            layouts=[paper_office()],
            scales=[tiny_scale()],
            sensor_counts=[5, 5, 3],
        )
        assert grid.sensor_counts == (3, 5)
        assert grid.sensor_counts_for(paper_office()) == [3, 5]
        report = ScenarioSweepRunner(
            grid, seed=7, mode="serial", re_sensor_counts=()
        ).run()
        assert [row.n_sensors for row in report.results[0].md_rows] == [3, 5]
        summary = report.summary()
        assert [row["n_sensors"] for row in summary] == [3, 5]
        # One scenario in the grid: each count must be counted exactly once.
        assert all(row["n_scenarios"] == 1 for row in summary)

    @pytest.mark.parametrize("counts", [[0, 3], [1, 3]])
    def test_sensor_counts_below_two_rejected(self, counts):
        # A subset needs two sensors: one sensor has no links, and the
        # runner would only find that out after collecting the day.
        with pytest.raises(ValueError, match="sensor counts"):
            ScenarioGrid(
                layouts=[paper_office()],
                scales=[tiny_scale()],
                sensor_counts=counts,
            )

    def test_config_derive_axes(self):
        config = FadewichConfig().derive(t_delta_s=6.0, md={"alpha": 2.0})
        assert config.t_delta_s == 6.0
        assert config.md.alpha == 2.0
        assert config.re == FadewichConfig().re
        with pytest.raises(TypeError):
            FadewichConfig().derive(md={"no_such_field": 1})
        with pytest.raises(ValueError):
            FadewichConfig().derive(md={"alpha": -1.0})

    def test_scale_derive(self):
        busy = CampaignScale.compact().derive("busy", departures_per_hour=12.0)
        assert busy.name == "busy"
        assert busy.departures_per_hour == 12.0
        assert busy.n_days == CampaignScale.compact().n_days
        assert CampaignScale.compact().derive(n_days=1).name == "compact+"

    def test_wide_office_is_valid(self):
        layout = wide_office()
        assert layout.name == "wide-office"
        assert len(layout.sensors) == 9
        assert len(layout.workstations) == 4
        assert layout.contains(layout.door)


class TestScenarioSweepRunner:
    def test_recordings_match_serial_collect_generated(self, grid):
        runner = ScenarioSweepRunner(
            grid, seed=11, mode="serial", re_sensor_counts=()
        )
        pairs = runner.collect()
        assert len(pairs) == len(grid)
        for spec, recording in pairs[:3]:
            collector = CampaignCollector(
                spec.layout,
                channel_config=spec.channel_config,
                seed=runner.scenario_seed(spec),
            )
            reference = collector.collect_generated(
                spec.scale.n_days,
                spec.scale.day_duration_s,
                spec.scale.profiles_for(spec.layout),
            )
            assert recording.n_days == reference.n_days == spec.scale.n_days
            for got, want in zip(recording.days, reference.days):
                for sid in want.trace.stream_ids:
                    np.testing.assert_array_equal(
                        got.trace.streams[sid], want.trace.streams[sid]
                    )

    def test_config_variants_share_recording(self, grid):
        pairs = ScenarioSweepRunner(
            grid, seed=11, mode="serial", re_sensor_counts=()
        ).collect()
        by_sim = {}
        for spec, recording in pairs:
            by_sim.setdefault(spec.simulation_key(), set()).add(id(recording))
        # 'default' and 't6' differ only in analysis config.
        assert all(len(ids) == 1 for ids in by_sim.values())
        assert len(by_sim) == len(grid) // 2

    def test_config_variants_share_feature_blocks(self, monkeypatch):
        # One FeatureStore per recording: configs with the same std window
        # share its day blocks, and another std window computes its own.
        grid = ScenarioGrid(
            layouts=[paper_office()],
            scales=[tiny_scale("tiny-short", day_duration_s=300.0)],
            configs={
                "default": FadewichConfig(),
                "alpha2": FadewichConfig().derive(md={"alpha": 2.0}),
                "std6": FadewichConfig().derive(md={"std_window_s": 6.0}),
            },
            sensor_counts=(3,),
        )
        runner = ScenarioSweepRunner(
            grid, seed=11, mode="serial", re_sensor_counts=()
        )
        day_block = RollingStdExtractor.day_block
        windows = []

        def counting_day_block(self, *args, **kwargs):
            windows.append(self.std_window_s)
            return day_block(self, *args, **kwargs)

        monkeypatch.setattr(RollingStdExtractor, "day_block", counting_day_block)
        report = runner.run()
        n_days = 2
        assert sorted(windows) == [2.0] * n_days + [6.0] * n_days
        # Every variant reads what analysing it alone computes.
        alone = SweepReport(
            results=[
                runner.analyze(result.spec, result.recording)
                for result in report.results
            ],
            seed_entropy=report.seed_entropy,
        )
        assert alone.to_json() == report.to_json()

    def test_distinct_scenarios_get_distinct_noise(self, report):
        day_a = report.results[0].recording.days[0]
        busy = report.result_for(
            "paper-office/tiny-busy/default/default/kde_md/r0"
        )
        day_b = busy.recording.days[0]
        sid = day_a.trace.stream_ids[0]
        a, b = day_a.trace.streams[sid], day_b.trace.streams[sid]
        n = min(a.shape[0], b.shape[0])
        # Quantised RSSI coincides by chance; shared streams would push
        # agreement far beyond this bound.
        assert (a[:n] == b[:n]).mean() < 0.5

    def test_sweep_reproducible_across_modes(self, grid, report):
        parallel = ScenarioSweepRunner(
            grid, seed=11, mode="process", max_workers=4, re_sensor_counts=()
        ).run()
        assert parallel.to_json() == report.to_json()

    def test_different_seed_changes_results(self, grid, report):
        other = ScenarioSweepRunner(
            grid, seed=12, mode="serial", re_sensor_counts=()
        ).run()
        assert other.to_json() != report.to_json()

    def test_report_contents(self, grid, report):
        assert isinstance(report, SweepReport)
        assert report.n_scenarios == len(grid)
        for result in report.results:
            assert [row.n_sensors for row in result.md_rows] == list(
                grid.sensor_counts_for(result.spec.layout)
            )
        summary = report.summary()
        assert [row["n_sensors"] for row in summary] == [3, 6, 9]
        assert all(
            0.0 <= row["f_min"] <= row["f_mean"] <= row["f_max"] <= 1.0
            for row in summary
        )
        # Every scenario evaluated 3 sensors; only 9-sensor layouts the rest.
        assert summary[0]["n_scenarios"] == len(grid)
        text = report.render()
        assert "Scenario sweep" in text
        assert "cross-scenario summary" in text
        for spec in grid.scenarios():
            assert spec.name in text
        with pytest.raises(KeyError):
            report.result_for("no/such/scenario")

    def test_json_round_trip(self, report, tmp_path):
        path = tmp_path / "sweep.json"
        report.save(path)
        data = json.loads(path.read_text())
        assert data["n_scenarios"] == report.n_scenarios
        assert data["seed_entropy"] == 11
        assert len(data["scenarios"]) == report.n_scenarios
        first = data["scenarios"][0]
        assert first["scenario"]["name"] == report.results[0].spec.name
        assert {row["n_sensors"] for row in first["md"]} == {3, 6, 9}
        for row in first["md"]:
            # MD scores every labelled event as either TP or FN.
            assert row["tp"] + row["fn"] == first["n_events"]
            assert 0.0 <= row["f_measure"] <= 1.0

    def test_re_accuracy_stage(self):
        grid = ScenarioGrid(
            layouts=[paper_office()],
            scales=[tiny_scale("re-tiny", departures_per_hour=10.0)],
            sensor_counts=(3, 9),
        )
        report = ScenarioSweepRunner(grid, seed=3, mode="serial").run()
        accs = report.results[0].re_accuracies
        # Default RE stage: the scenario's maximum sensor count only.
        assert list(accs) == [9]
        assert 0.0 <= accs[9] <= 1.0
        assert "RE accuracy" in report.render()

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ScenarioSweepRunner([], seed=0)

    def test_scenario_without_applicable_counts_renders(self):
        # Counts exceeding a layout's deployment are skipped; a scenario
        # left with no counts must still report (and not crash render()).
        five = paper_office().with_sensors(["d1", "d2", "d3", "d4", "d5"])
        grid = ScenarioGrid(
            layouts=[five], scales=[tiny_scale()], sensor_counts=(6, 9)
        )
        report = ScenarioSweepRunner(
            grid, seed=1, mode="serial", re_sensor_counts=()
        ).run()
        assert report.results[0].md_rows == []
        assert report.results[0].best_f_measure() is None
        assert "no applicable sensor counts" in report.render()
        assert json.loads(report.to_json())["scenarios"][0]["md"] == []

    def test_conflicting_explicit_specs_rejected(self, grid):
        # Distinctly named specs sharing one simulation key (layout,
        # scale, channel name, replicate) but carrying different
        # simulation inputs must fail loudly instead of silently sharing
        # one recording.
        specs = grid.scenarios()[:1]
        clone = specs[0].__class__(
            **{
                **specs[0].__dict__,
                "index": 1,
                "name": specs[0].name + "-variant",
                "channel_config": ChannelConfig(slow_drift_sigma_db=0.1),
            }
        )
        with pytest.raises(ValueError, match="conflicting"):
            ScenarioSweepRunner([specs[0], clone], seed=0)

    def test_duplicate_scenario_names_rejected(self, grid):
        # Explicit spec lists bypass the grid's uniqueness validation, but
        # SweepReport.result_for and sweep-store records are name-keyed:
        # duplicate names would silently resolve to the first match.
        specs = grid.scenarios()[:1]
        clone = specs[0].__class__(**{**specs[0].__dict__, "index": 1})
        with pytest.raises(ValueError, match="duplicate scenario names"):
            ScenarioSweepRunner([specs[0], clone], seed=0)

    def test_keep_recordings_false_drops_raw_traces(self, grid):
        report = ScenarioSweepRunner(
            grid,
            seed=11,
            mode="serial",
            re_sensor_counts=(),
            keep_recordings=False,
        ).run()
        assert all(result.recording is None for result in report.results)
        assert all(result.n_events >= 0 for result in report.results)
        assert "cross-scenario summary" in report.render()
