"""Tests for the analysis harness and end-to-end integration of the system."""

import numpy as np
import pytest

from repro.analysis import (
    compute_attack_opportunities,
    compute_deauth_curves,
    compute_event_table,
    compute_fmeasure_curves,
    compute_learning_curves,
    compute_md_table,
    compute_rmi_ranking,
    compute_std_profile,
    compute_stream_importance,
    compute_tradeoff,
    compute_usability_table,
    compute_variance_correlations,
    render_attack_opportunities,
    render_deauth_curves,
    render_event_table,
    render_fmeasure_curves,
    render_learning_curves,
    render_md_table,
    render_rmi_table,
    render_std_profile,
    render_stream_importance,
    render_tradeoff,
    render_usability_table,
    render_variance_correlations,
)
from repro.analysis.campaign import CampaignScale, collect_campaign
from repro.core.system import FadewichSystem
from repro.core.controller import ControllerState
from repro.workstation.idle import TraceIdleProvider


class TestCampaignScales:
    def test_compact_scale_parameters(self):
        scale = CampaignScale.compact()
        assert scale.n_days == 5
        assert scale.day_duration_s < 3600.0

    def test_paper_scale_parameters(self):
        scale = CampaignScale.paper()
        assert scale.day_duration_s == pytest.approx(8 * 3600.0)

    def test_collect_campaign_is_deterministic(self):
        a = collect_campaign(seed=9, scale=CampaignScale(
            name="tiny", n_days=1, day_duration_s=400.0,
            departures_per_hour=6.0, mean_absence_s=60.0, min_absence_s=30.0,
            internal_moves_per_hour=0.0))
        b = collect_campaign(seed=9, scale=CampaignScale(
            name="tiny", n_days=1, day_duration_s=400.0,
            departures_per_hour=6.0, mean_absence_s=60.0, min_absence_s=30.0,
            internal_moves_per_hour=0.0))
        assert a.label_counts() == b.label_counts()


class TestEventTable:
    def test_counts_and_balance(self, small_recording):
        table = compute_event_table(small_recording)
        assert table.total == small_recording.total_labelled_events()
        assert 0.0 <= table.departure_balance() <= 1.0
        text = render_event_table(table)
        assert "Table II" in text


class TestMDAnalyses:
    def test_md_table_rows_and_rendering(self, analysis_context):
        rows = compute_md_table(analysis_context, sensor_counts=[3, 9])
        assert [r.n_sensors for r in rows] == [3, 9]
        # More sensors must not lose detections.
        assert rows[1].counts.tp >= rows[0].counts.tp
        assert "Table III" in render_md_table(rows)

    def test_fmeasure_curves_shape(self, analysis_context):
        curves = compute_fmeasure_curves(
            analysis_context, t_deltas=[2.0, 4.5, 7.0], sensor_counts=[3, 9]
        )
        assert len(curves) == 2
        for curve in curves:
            assert len(curve.f_measures) == 3
            assert all(0.0 <= f <= 1.0 for f in curve.f_measures)
        assert "Figure 7" in render_fmeasure_curves(curves)

    def test_fmeasure_render_aligns_ragged_curves(self):
        from repro.analysis import FMeasureCurve

        # Caller-supplied curves on different t_delta grids used to be
        # indexed with the first curve's grid: IndexError on shorter
        # curves, silently misaligned columns on shifted ones.
        long = FMeasureCurve(
            n_sensors=3, t_deltas=(2.0, 4.5, 7.0), f_measures=(0.5, 0.7, 0.6)
        )
        short = FMeasureCurve(
            n_sensors=9, t_deltas=(4.5, 8.0), f_measures=(0.9, 0.8)
        )
        text = render_fmeasure_curves([long, short])
        lines = text.splitlines()
        # Rows span the union grid; missing cells render blank, and each
        # value lands on its own t_delta row.
        assert sum(line.lstrip().startswith(("2.0", "4.5", "7.0", "8.0"))
                   for line in lines) == 4
        row_45 = next(line for line in lines if line.lstrip().startswith("4.5"))
        assert "0.700" in row_45 and "0.900" in row_45
        row_20 = next(line for line in lines if line.lstrip().startswith("2.0"))
        assert "0.500" in row_20 and "-" in row_20
        # Peaks are still reported per curve.
        assert "peak (9 sensors): F=0.900 at t_delta=4.5 s" in text

    def test_fmeasure_render_rejects_malformed_curve(self):
        from repro.analysis import FMeasureCurve

        broken = FMeasureCurve(
            n_sensors=3, t_deltas=(2.0, 4.5), f_measures=(0.5,)
        )
        with pytest.raises(ValueError, match="2 t_deltas but 1"):
            render_fmeasure_curves([broken])
        # Duplicate t_deltas would silently keep only the last value in a
        # t_delta-keyed table.
        duplicated = FMeasureCurve(
            n_sensors=3, t_deltas=(2.0, 2.0), f_measures=(0.1, 0.9)
        )
        with pytest.raises(ValueError, match="duplicate t_deltas"):
            render_fmeasure_curves([duplicated])

    def test_std_profile_separates_walking_from_normal(self, small_recording, config):
        result = compute_std_profile(small_recording, config, day_index=0)
        assert result.separation > 0
        assert result.percentile_99 > float(np.median(result.normal_values))
        assert "Figure 2" in render_std_profile(result)


class TestREAnalysis:
    def test_learning_curve_accuracy_bounds(self, analysis_context):
        curves = compute_learning_curves(
            analysis_context,
            sensor_counts=[9],
            train_sizes=[10, 30],
            n_repeats=2,
        )
        assert len(curves) == 1
        acc = curves[0].result.mean_accuracy
        assert np.nanmax(acc) <= 1.0
        assert np.nanmin(acc) >= 0.0
        assert "Figure 8" in render_learning_curves(curves)

    def test_learning_curve_template_stateless(self, analysis_context):
        """The shared RE template is never trained by the curve fits.

        ``compute_learning_curves`` hands every fit an adapter around the
        *same* RE module; each fit must go through ``clone_untrained()``,
        leaving the template untouched so fits cannot leak into one another
        — identical repeated runs are the observable consequence.
        """
        re_module, _ = analysis_context.sample_dataset(9)
        assert not re_module.is_trained
        first = compute_learning_curves(
            analysis_context, sensor_counts=[9], train_sizes=[10], n_repeats=2
        )
        assert not re_module.is_trained, "learning curve trained the template"
        second = compute_learning_curves(
            analysis_context, sensor_counts=[9], train_sizes=[10], n_repeats=2
        )
        np.testing.assert_array_equal(
            first[0].result.all_scores, second[0].result.all_scores
        )


class TestSecurityAnalyses:
    def test_deauth_curves_monotone_in_sensors(self, analysis_context):
        curves = compute_deauth_curves(analysis_context, sensor_counts=[3, 9])
        by_sensors = {c.n_sensors: c for c in curves}
        assert by_sensors[9].percent_within(10.0) >= by_sensors[3].percent_within(10.0) - 10.0
        assert "Figure 9" in render_deauth_curves(curves)

    def test_attack_opportunities_timeout_is_worst(self, analysis_context):
        rows = compute_attack_opportunities(analysis_context, sensor_counts=[3, 9])
        timeout_row = rows[0]
        assert timeout_row.label == "timeout"
        assert timeout_row.insider_pct == pytest.approx(100.0)
        best = rows[-1]
        assert best.insider_pct <= timeout_row.insider_pct
        assert "Figure 10" in render_attack_opportunities(rows)

    def test_coworker_at_least_as_dangerous_as_insider(self, analysis_context):
        rows = compute_attack_opportunities(analysis_context, sensor_counts=[9])
        for row in rows:
            assert row.coworker_pct >= row.insider_pct - 1e-9


class TestUsabilityAndTradeoff:
    def test_usability_table_costs_are_bounded(self, analysis_context):
        rows = compute_usability_table(
            analysis_context, sensor_counts=[9], n_draws=5
        )
        assert len(rows) == 1
        result = rows[0].result
        assert result.cost_per_day_s >= 0.0
        assert result.cost_per_day_s < 600.0
        assert "Table IV" in render_usability_table(rows)

    def test_tradeoff_fadewich_less_vulnerable_than_timeout(self, analysis_context):
        points = compute_tradeoff(analysis_context, sensor_counts=[9], n_draws=3)
        timeout = points[0]
        fadewich = points[-1]
        assert timeout.total_cost_min == pytest.approx(0.0)
        assert fadewich.vulnerable_time_min < timeout.vulnerable_time_min
        assert "Figure 13" in render_tradeoff(points)


class TestFeatureAnalyses:
    def test_variance_correlations(self, analysis_context):
        result = compute_variance_correlations(analysis_context)
        n_streams = len(result.stream_ids)
        assert result.correlation.matrix.shape == (n_streams, n_streams)
        assert 0.0 <= result.mean_absolute_correlation() <= 1.0
        assert "Figure 11" in render_variance_correlations(result)

    def test_rmi_ranking_and_table(self, analysis_context):
        ranked = compute_rmi_ranking(analysis_context)
        assert all(0.0 <= fi.rmi <= 1.0 for fi in ranked)
        assert all(
            ranked[i].rmi >= ranked[i + 1].rmi for i in range(len(ranked) - 1)
        )
        assert "Table V" in render_rmi_table(ranked)

    def test_stream_importance_map(self, analysis_context):
        result = compute_stream_importance(analysis_context)
        assert len(result.scores) > 0
        assert "Figure 12" in render_stream_importance(result)


class TestFullSystemReplay:
    def test_replay_day_detects_and_deauthenticates(self, analysis_context):
        context = analysis_context
        recording = context.recording
        re_module, dataset = context.sample_dataset(9)
        system = FadewichSystem(
            stream_ids=re_module.stream_ids,
            workstation_ids=recording.layout.workstation_ids,
            config=context.config,
        )
        if len(set(dataset.labels)) >= 2:
            system.train(dataset)
        report = system.replay_day(recording.days[0])
        n_departures = len(recording.days[0].events.departures())
        # The live system must have reacted to the day's activity.
        assert report.alerts + report.deauthentications > 0
        assert report.deauthentications <= n_departures + len(
            recording.days[0].events.entries()
        ) + 5
        assert system._controller.state in (ControllerState.QUIET, ControllerState.NOISY)

    def test_reattach_starts_a_fresh_live_day(self, analysis_context):
        context = analysis_context
        re_module, dataset = context.sample_dataset(9)
        day = context.recording.days[0]
        stream_ids = re_module.stream_ids
        rows = np.column_stack([day.trace.streams[sid] for sid in stream_ids])

        def system():
            live = FadewichSystem(
                stream_ids=stream_ids,
                workstation_ids=context.recording.layout.workstation_ids,
                config=context.config,
            )
            return live.train(dataset)

        def live_pass(live):
            live.attach_idle_provider(TraceIdleProvider(day.activity))
            states = [
                live.process_sample(t, dict(zip(stream_ids, row)))
                for t, row in zip(day.trace.times.tolist(), rows.tolist())
            ]
            return states, live.report()

        twice = system()
        first = live_pass(twice)
        second = live_pass(twice)
        fresh = live_pass(system())
        assert first[0] == second[0] == fresh[0]
        assert first[1] == second[1] == fresh[1]
        assert fresh[1].alerts + fresh[1].deauthentications > 0

    def test_process_sample_requires_idle_provider(self, analysis_context):
        re_module, _ = analysis_context.sample_dataset(9)
        system = FadewichSystem(
            stream_ids=re_module.stream_ids, workstation_ids=["w1", "w2", "w3"]
        )
        with pytest.raises(RuntimeError):
            system.process_sample(0.0, {sid: -60.0 for sid in re_module.stream_ids})
