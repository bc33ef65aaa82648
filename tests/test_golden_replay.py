"""Golden end-to-end replay test.

Pins the complete system behaviour — campaign collection, MD-driven sample
labelling, RE training and the online replay with Rules 1/2 — against a
fixed seed.  Any accidental drift anywhere in the pipeline (engine,
seeding scheme, channel model, detector, controller) changes these counts
and fails loudly.  If a change is *intentional* (e.g. a new seeding
scheme), re-derive the golden values and update them in the same commit.
"""

import numpy as np
import pytest

from repro import FadewichConfig, quick_campaign
from repro.core import build_sample_dataset, evaluate_md
from repro.core.system import FadewichSystem
from repro.radio.trace import RssiTrace
from repro.simulation.collector import CampaignRecording, DayRecording

GOLDEN_SEED = 23
GOLDEN_DAY_S = 1500.0


@pytest.fixture(scope="module")
def golden_setup():
    config = FadewichConfig()
    recording = quick_campaign(seed=GOLDEN_SEED, n_days=2, day_duration_s=GOLDEN_DAY_S)
    train_rec = CampaignRecording(days=[recording.days[0]], layout=recording.layout)
    evaluation = evaluate_md(train_rec, config, recording.layout.sensor_ids)
    re_module, dataset = build_sample_dataset(evaluation, config, random_state=0)
    return config, recording, re_module, dataset


class TestGoldenReplay:
    def test_ground_truth_is_pinned(self, golden_setup):
        _, recording, _, dataset = golden_setup
        day = recording.days[1]
        assert recording.days[0].events.label_counts() == {
            "w1": 3,
            "w0": 4,
            "w2": 1,
        }
        assert len(day.events.departures()) == 4
        assert len(day.events.entries()) == 4
        assert len(day.events) == 9
        # Re-pinned with the live s_t convention: MD on the training day
        # went from 6/0/2 to 8/0/0 TP/FP/FN, so every labelled event now
        # yields a sample (old: {"w1": 3, "w0": 2, "w2": 1}).
        assert dataset.label_counts() == {"w1": 3, "w0": 4, "w2": 1}

    def test_replay_counts_are_pinned(self, golden_setup):
        config, recording, re_module, dataset = golden_setup
        system = FadewichSystem(
            stream_ids=re_module.stream_ids,
            workstation_ids=recording.layout.workstation_ids,
            config=config,
        ).train(dataset)
        report = system.replay_day(recording.days[1])

        # Re-pinned with the live s_t convention (old: 2 deauthentications,
        # 9 alerts, 6 screen savers, 11 actions, the first a Rule-1
        # deauthentication of w1 at 260.0 s).  The RE classifier, trained on
        # only 8 samples, now labels both Rule-1 windows (the departures of
        # w1 at ~255 s and of w3 at ~445 s) office entries (w0), so Rule 1
        # deauthenticates nobody and Rule 2 alerts instead.  The old second
        # deauthentication hit the wrong workstation anyway (w2 for w3's
        # departure).  TestReplayEquivalence keeps Rule 1 driven end to end.
        assert report.deauthentications == 0
        assert report.alerts == 10
        assert report.screensavers == 7
        assert len(report.actions) == 10
        assert {w: s.name for w, s in report.final_states.items()} == {
            "w1": "AUTHENTICATED",
            "w2": "AUTHENTICATED",
            "w3": "AUTHENTICATED",
        }
        first = report.actions[0]
        assert first.rule == 2
        assert first.action == "alert"
        assert first.workstation_id == "w1"
        assert first.time == pytest.approx(260.25)

    def test_replay_is_deterministic(self, golden_setup):
        config, recording, re_module, dataset = golden_setup
        reports = []
        for _ in range(2):
            system = FadewichSystem(
                stream_ids=re_module.stream_ids,
                workstation_ids=recording.layout.workstation_ids,
                config=config,
            ).train(dataset)
            reports.append(system.replay_day(recording.days[1]))
        a, b = reports
        assert [x.time for x in a.actions] == [x.time for x in b.actions]
        assert a.deauthentications == b.deauthentications
        assert a.screensavers == b.screensavers


class TestReplayGuards:
    def _system(self, stream_ids=("d1-d2",)):
        return FadewichSystem(
            stream_ids=list(stream_ids), workstation_ids=["w1"]
        )

    def _day(self, trace):
        return DayRecording(
            day_index=0,
            duration_s=0.0,
            trace=trace,
            events=None,
            activity={},
        )

    def test_replay_of_streamless_trace_raises(self):
        trace = RssiTrace(times=np.arange(4.0), streams={})
        with pytest.raises(ValueError, match="no RSSI streams"):
            self._system().replay_day(self._day(trace))

    def test_replay_of_empty_trace_raises(self):
        trace = RssiTrace(
            times=np.empty(0), streams={"d1-d2": np.empty(0)}
        )
        with pytest.raises(ValueError, match="no samples"):
            self._system().replay_day(self._day(trace))
