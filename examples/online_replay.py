"""Online replay: run the assembled FADEWICH system over one recorded day.

Unlike the offline evaluation used for the paper's tables, this example
wires the full online pipeline — Movement Detection fed sample by sample,
the Quiet/Noisy controller, Rule 1 and Rule 2, the workstation session
state machines — and feeds a recorded day through
``FadewichSystem.process_sample`` one sample at a time, as a deployment
would: KMA reads the day's input activity through a
``TraceIdleProvider``, and every keyboard/mouse input is forwarded to the
workstation sessions.  It prints every action the system takes, then
replays the same day with the array fast path (``replay_day``) and exits
with status 1 unless both reports are equal.

Run with::

    python examples/online_replay.py
"""

from __future__ import annotations

import sys

from repro import FadewichConfig, quick_campaign
from repro.core import build_sample_dataset, evaluate_md
from repro.core.system import FadewichSystem, ReplayReport
from repro.simulation.collector import DayRecording
from repro.workstation.idle import TraceIdleProvider
from repro.workstation.session import SessionState


def run_live(system: FadewichSystem, day: DayRecording) -> ReplayReport:
    """Feed ``day`` through ``process_sample``, one sample per step."""
    provider = TraceIdleProvider(day.activity)
    system.attach_idle_provider(provider)
    trace = day.trace
    prev_t = float(trace.times[0]) - trace.sample_interval
    for i, t in enumerate(trace.times.tolist()):
        system.process_sample(
            t, {sid: float(values[i]) for sid, values in trace.streams.items()}
        )
        # Keyboard/mouse input since the previous sample cancels alerts and
        # screen savers, and logs a deauthenticated user back in.
        for workstation_id, session in system.sessions.items():
            if provider.has_input_in(workstation_id, prev_t, t):
                if session.state is SessionState.DEAUTHENTICATED:
                    session.reauthenticate(t)
                else:
                    session.register_input(t)
        prev_t = t
    return system.report()


def main() -> int:
    config = FadewichConfig()

    print("Collecting two simulated days (day 1 trains, day 2 is replayed)...")
    recording = quick_campaign(seed=11, n_days=2, day_duration_s=1200.0)

    # Train the RE classifier on the first day's detections.
    training_recording = type(recording)(days=[recording.days[0]], layout=recording.layout)
    evaluation = evaluate_md(training_recording, config, recording.layout.sensor_ids)
    re_module, dataset = build_sample_dataset(evaluation, config)
    print(f"  training samples: {len(dataset)} ({dataset.label_counts()})")

    system = FadewichSystem(
        stream_ids=re_module.stream_ids,
        workstation_ids=recording.layout.workstation_ids,
        config=config,
    )
    if len(set(dataset.labels)) >= 2:
        system.train(dataset)
        print("  RE classifier trained.")
    else:
        print("  not enough label variety to train RE; running detection only.")

    print("\nFeeding day 2 through the live system, one sample at a time...")
    day = recording.days[1]
    report = run_live(system, day)

    print(f"  ground-truth departures: {len(day.events.departures())}")
    print(f"  ground-truth entries:    {len(day.events.entries())}")
    print(f"  Rule-1 deauthentications: {report.deauthentications}")
    print(f"  Rule-2 alert activations: {report.alerts}")
    print(f"  screen savers started:    {report.screensavers}")

    print("\nController action log:")
    for action in report.actions[:20]:
        label = f" (RE said {action.predicted_label})" if action.predicted_label else ""
        print(
            f"  t={action.time:8.2f}s  rule {action.rule}:"
            f" {action.action:<15} {action.workstation_id}{label}"
        )
    if len(report.actions) > 20:
        print(f"  ... and {len(report.actions) - 20} more actions")

    print("\nFinal session states:")
    for workstation_id, state in report.final_states.items():
        print(f"  {workstation_id}: {state.value}")

    replayed = system.replay_day(day)
    if replayed != report:
        print("\nFAIL: replay_day's report differs from the live run's")
        return 1
    print("\nreplay_day (array fast path) reproduces the live report.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
