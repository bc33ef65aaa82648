"""Tests for the simulation harness: clock, collector, datasets."""

import numpy as np
import pytest

from repro.mobility.events import EventKind
from repro.mobility.scheduler import DaySchedule, PlannedMovement
from repro.radio.office import paper_office
from repro.simulation.clock import SimulationClock
from repro.simulation.collector import CampaignCollector
from repro.simulation.dataset import LabeledSample, SampleDataset


class TestSimulationClock:
    def test_dt_and_sample_counts(self):
        clock = SimulationClock(sample_rate_hz=4.0)
        assert clock.dt == pytest.approx(0.25)
        assert clock.n_samples(10.0) == 40

    def test_timestamps_grid(self):
        clock = SimulationClock(sample_rate_hz=2.0, start_time=100.0)
        ts = clock.timestamps(3.0)
        assert ts.shape == (6,)
        assert ts[0] == pytest.approx(100.0)
        assert ts[1] - ts[0] == pytest.approx(0.5)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            SimulationClock(sample_rate_hz=0.0)

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError):
            SimulationClock().n_samples(-1.0)

    def test_n_samples_rounds_to_the_nearest_sample(self):
        clock = SimulationClock(sample_rate_hz=4.0)
        assert clock.n_samples(0.01) == 0
        assert clock.n_samples(0.2) == 1
        assert clock.n_samples(2.5) == 10

    def test_zero_duration_has_an_empty_grid(self):
        assert SimulationClock(start_time=5.0).timestamps(0.0).shape == (0,)


class TestSampleDataset:
    def _sample(self, label="w1", value=1.0, time=0.0, day=0):
        return LabeledSample(
            features=np.array([value, value + 1.0]), label=label, time=time, day_index=day
        )

    def test_add_and_convert_to_arrays(self):
        ds = SampleDataset(feature_names=("f1", "f2"))
        ds.add(self._sample("w1", 1.0))
        ds.add(self._sample("w2", 2.0))
        X, y = ds.to_arrays()
        assert X.shape == (2, 2)
        assert list(y) == ["w1", "w2"]

    def test_dimension_mismatch_rejected(self):
        ds = SampleDataset(feature_names=("f1", "f2", "f3"))
        with pytest.raises(ValueError):
            ds.add(self._sample())

    def test_label_counts(self):
        ds = SampleDataset(feature_names=("f1", "f2"))
        for label in ["w1", "w1", "w0"]:
            ds.add(self._sample(label))
        assert ds.label_counts() == {"w1": 2, "w0": 1}

    def test_empty_dataset_arrays(self):
        ds = SampleDataset(feature_names=("f1",))
        X, y = ds.to_arrays()
        assert X.shape == (0, 1)
        assert y.shape == (0,)

    def test_add_invalidates_the_cached_arrays(self):
        ds = SampleDataset(feature_names=("f1", "f2"))
        ds.add(self._sample("w1", 1.0))
        X, _ = ds.to_arrays()
        assert ds.to_arrays()[0] is X
        ds.add(self._sample("w2", 5.0))
        X, y = ds.to_arrays()
        assert X.shape == (2, 2)
        assert X[1, 0] == 5.0
        assert list(y) == ["w1", "w2"]

    def test_constructor_validates_samples(self):
        with pytest.raises(ValueError):
            SampleDataset(feature_names=())
        with pytest.raises(ValueError):
            SampleDataset(feature_names=("f1",), samples=[self._sample()])

    def test_labels_length_and_iteration(self):
        samples = [self._sample("w2", time=1.0), self._sample("w0", time=2.0)]
        ds = SampleDataset(feature_names=("f1", "f2"), samples=list(samples))
        assert len(ds) == 2
        assert ds.n_features == 2
        assert ds.labels == ["w2", "w0"]
        assert [id(s) for s in ds] == [id(s) for s in samples]

    def test_invalid_samples_rejected(self):
        with pytest.raises(ValueError):
            LabeledSample(features=np.array([]), label="w1", time=0.0)
        with pytest.raises(ValueError):
            LabeledSample(features=np.array([1.0]), label="", time=0.0)


class TestCampaignCollector:
    @pytest.fixture(scope="class")
    def single_departure_day(self):
        layout = paper_office()
        collector = CampaignCollector(layout, seed=7)
        day = DaySchedule(
            day_index=0,
            duration_s=300.0,
            movements=[
                PlannedMovement(EventKind.DEPARTURE, "u1", "w1", 150.0, absence_s=60.0),
                PlannedMovement(EventKind.ENTRY, "u1", "w1", 240.0),
            ],
        )
        return collector, collector.collect_day(day)

    def test_trace_shape_matches_clock(self, single_departure_day):
        collector, recording = single_departure_day
        expected = collector.clock.n_samples(300.0)
        assert recording.trace.n_samples == expected
        assert len(recording.trace.stream_ids) == 72

    def test_ground_truth_events_recorded(self, single_departure_day):
        _, recording = single_departure_day
        kinds = [e.kind for e in recording.events]
        assert EventKind.DEPARTURE in kinds
        assert EventKind.ENTRY in kinds
        departure = recording.events.departures()[0]
        assert departure.exit_time is not None
        assert departure.exit_time > departure.time

    def test_departure_perturbs_the_radio_channel(self, single_departure_day):
        _, recording = single_departure_day
        trace = recording.trace
        matrix = np.column_stack([trace.streams[s] for s in trace.stream_ids])
        quiet = matrix[(trace.times > 20) & (trace.times < 140)]
        moving = matrix[(trace.times > 150) & (trace.times < 158)]
        assert moving.std(axis=0).sum() > quiet.std(axis=0).sum() * 1.2

    def test_activity_traces_cover_all_workstations(self, single_departure_day):
        collector, recording = single_departure_day
        assert set(recording.activity.keys()) == set(
            collector.layout.workstation_ids
        )

    def test_no_input_at_departed_workstation(self, single_departure_day):
        _, recording = single_departure_day
        # u1 is away from roughly t=150 to t=245; the workstation must be idle.
        trace = recording.activity["w1"]
        assert not trace.has_input_in(165.0, 240.0)

    def test_collect_generated_multi_day(self):
        layout = paper_office()
        collector = CampaignCollector(layout, seed=11)
        recording = collector.collect_generated(n_days=2, day_duration_s=600.0)
        assert recording.n_days == 2
        assert recording.layout is layout

    def test_label_counts_aggregate(self, small_recording):
        counts = small_recording.label_counts()
        assert sum(counts.values()) == small_recording.total_labelled_events()
        assert counts.get("w0", 0) >= small_recording.total_departures() - len(
            small_recording.days
        ) * 3  # each departure is usually followed by a return

    def test_deterministic_given_seed(self):
        layout = paper_office()
        day = DaySchedule(
            day_index=0,
            duration_s=200.0,
            movements=[
                PlannedMovement(EventKind.DEPARTURE, "u2", "w2", 150.0, absence_s=30.0)
            ],
        )
        rec_a = CampaignCollector(layout, seed=5).collect_day(day)
        rec_b = CampaignCollector(layout, seed=5).collect_day(day)
        sid = rec_a.trace.stream_ids[0]
        assert np.allclose(rec_a.trace.streams[sid], rec_b.trace.streams[sid])
