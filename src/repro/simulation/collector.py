"""Campaign data collection.

Plays the role of the paper's five-day measurement campaign: it executes a
:class:`~repro.mobility.scheduler.CampaignSchedule` against the simulated
office, producing for every day

* the multi-stream RSSI trace recorded by the sensors,
* the ground-truth event log (the "human supervisor" of the paper),
* the per-workstation keyboard/mouse activity traces.

Batch engine and scalar reference
---------------------------------

:meth:`CampaignCollector.collect_day` is a *vectorised batch engine*: it
first compiles the day's schedule into per-person walk assignments
(movement-delimited segments), replays every person's position over the
whole timestamp grid at once through
:meth:`~repro.mobility.person.Person.positions_over`, derives instantaneous
body speeds with array arithmetic, and hands the resulting
``(n_steps, n_bodies, ...)`` blocks to
:meth:`~repro.radio.channel.RadioChannel.sample_block`, which evaluates
shadowing, noise and drift for :attr:`~repro.radio.channel.RadioChannel.BLOCK_CHUNK_STEPS`
timesteps per chunk.

:meth:`CampaignCollector.collect_day_scalar` is the step-by-step reference
implementation of exactly the same contract: it advances person state
machines and the radio channel one 4 Hz instant at a time.  Both paths
consume the same per-purpose random streams in the same order, so their
outputs (RSSI trace, event log, activity traces) are **bit-for-bit
identical** — the equivalence regression tests rely on this.

Seeding scheme
--------------

All randomness derives from one :class:`numpy.random.SeedSequence` root:

* a *structural* child stream (spawn-key domain 0) seeds the per-link fade
  levels and any schedule drawn through :meth:`collect_generated`;
* every day ``d`` owns the child sequence at spawn-key domain ``(1, d)``,
  further split into channel, movement (trajectory perturbations), fidget
  (one grandchild per person) and input-activity streams;
* every campaign drawn through :meth:`collect_generated` derives its day
  streams from the per-campaign child ``(3, c)`` (``c`` counts drawn
  campaigns), so repeated campaigns — whose days all renumber from zero —
  are independent realisations rather than replays of the same noise.

Because day streams depend only on the base identity and the day index —
not on how many days were collected before — :meth:`collect_day` is
idempotent and days can be collected in any order or in parallel (see
:class:`~repro.simulation.runner.CampaignRunner`) with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..mobility.behavior import BehaviorProfile
from ..mobility.events import EventKind, EventLog, GroundTruthEvent
from ..mobility.person import Person, PresenceState
from ..mobility.scheduler import CampaignSchedule, DaySchedule, ScheduleGenerator
from ..mobility.trajectory import (
    Trajectory,
    departure_trajectory,
    entry_trajectory,
    walk_through,
)
from ..radio.channel import ChannelConfig, RadioChannel
from ..radio.geometry import Point
from ..radio.links import LinkSet
from ..radio.office import OfficeLayout
from ..radio.trace import RssiTrace
from ..workstation.activity import ActivityTrace, InputActivityModel
from .clock import SimulationClock

__all__ = [
    "DayRecording",
    "CampaignRecording",
    "CampaignCollector",
    "derive_seed_sequence",
    "require_unique_day_indices",
    "STRUCTURAL_DOMAIN",
    "DAY_DOMAIN",
    "CAMPAIGN_DOMAIN",
    "GENERATED_DOMAIN",
    "SCENARIO_DOMAIN",
]

#: Spawn-key domains of the collector's seed-derivation scheme.  Keeping the
#: domains distinct guarantees the structural, per-day, per-campaign and
#: per-scenario streams never collide.
STRUCTURAL_DOMAIN = 0
DAY_DOMAIN = 1
CAMPAIGN_DOMAIN = 2
GENERATED_DOMAIN = 3
#: Scenario ``i`` of a :class:`~repro.analysis.scenarios.ScenarioSweepRunner`
#: grid derives its root from the sweep seed at ``(SCENARIO_DOMAIN, i)``.
SCENARIO_DOMAIN = 4

#: Minimum body speed (m/s) attributed to a walking person.  Standing up,
#: turning and opening the door are part of a walk's "pause" legs: the body
#: is still in motion even though its centre barely translates.
_MIN_WALKING_SPEED = 0.6


def require_unique_day_indices(days) -> None:
    """Reject schedules whose days share a ``day_index``.

    Day random streams are keyed by the day index, so two days with the
    same index would silently receive byte-identical channel, fidget and
    activity realisations — statistical corruption the caller would never
    notice.  Fail loudly instead.
    """
    indices = [d.day_index for d in days]
    duplicates = sorted({i for i in indices if indices.count(i) > 1})
    if duplicates:
        raise ValueError(
            f"schedule contains duplicate day_index values {duplicates}; "
            "days with equal indices derive identical random streams — "
            "renumber the days or collect them as separate campaigns"
        )


def derive_seed_sequence(
    root: np.random.SeedSequence, *key: int
) -> np.random.SeedSequence:
    """A deterministic child of ``root`` at the given spawn-key suffix.

    Unlike :meth:`numpy.random.SeedSequence.spawn` this is stateless: the
    child depends only on the root identity (entropy + spawn key) and the
    requested suffix, so the same child can be re-derived anywhere — in
    particular inside parallel workers that never saw the parent object.
    """
    return np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + tuple(int(k) for k in key),
    )


@dataclass
class DayRecording:
    """Everything recorded during one simulated working day."""

    day_index: int
    duration_s: float
    trace: RssiTrace
    events: EventLog
    activity: Dict[str, ActivityTrace]

    @property
    def n_events(self) -> int:
        return len(self.events)


@dataclass
class CampaignRecording:
    """A full multi-day campaign recording."""

    days: List[DayRecording]
    layout: OfficeLayout

    @property
    def n_days(self) -> int:
        return len(self.days)

    def label_counts(self) -> Dict[str, int]:
        """Aggregate Table-II-style label histogram over all days."""
        counts: Dict[str, int] = {}
        for day in self.days:
            for label, n in day.events.label_counts().items():
                counts[label] = counts.get(label, 0) + n
        return counts

    def total_labelled_events(self) -> int:
        return sum(len(day.events.labelled()) for day in self.days)

    def total_departures(self) -> int:
        return sum(len(day.events.departures()) for day in self.days)


@dataclass
class _DayPlan:
    """The compiled form of one day's schedule.

    Produced by ``CampaignCollector._prepare_day`` and consumed by both the
    batch and the scalar engine: the timestamp grid, the person roster (in
    stable order, visitors included), every person's walk assignments
    ``(fire_index, trajectory, ends_as)`` in firing order, the ground-truth
    event log, and the compiled trajectory of every fired movement (keyed
    by the movement object) so downstream consumers see the *same* walks
    the engines simulate.
    """

    times: np.ndarray
    people: Dict[str, Person]
    walks: Dict[str, List[Tuple[int, Trajectory, PresenceState]]]
    events: EventLog = field(default_factory=EventLog)
    move_trajectories: Dict[int, Trajectory] = field(default_factory=dict)


class CampaignCollector:
    """Executes movement schedules against the simulated office.

    Parameters
    ----------
    layout:
        The office.
    clock:
        Sampling clock (default 4 Hz).
    channel_config:
        Radio channel configuration.
    seed:
        Seed of the campaign's randomness: an int, ``None`` (fresh OS
        entropy) or a :class:`numpy.random.SeedSequence`.  Every stochastic
        component (fade levels, noise, drift, fidgeting, input activity,
        schedules drawn through :meth:`collect_generated`) derives from it
        through the scheme described in the module docstring.
    """

    def __init__(
        self,
        layout: OfficeLayout,
        *,
        clock: Optional[SimulationClock] = None,
        channel_config: Optional[ChannelConfig] = None,
        seed: Union[int, np.random.SeedSequence, None] = None,
    ) -> None:
        self._layout = layout
        self._clock = clock if clock is not None else SimulationClock()
        if isinstance(seed, np.random.SeedSequence):
            self._root = seed
        else:
            self._root = np.random.SeedSequence(seed)
        # Structural stream: per-link fade levels and generated schedules.
        self._rng = np.random.default_rng(
            derive_seed_sequence(self._root, STRUCTURAL_DOMAIN)
        )
        self._links = LinkSet(layout, self._rng)
        self._channel_config = (
            channel_config if channel_config is not None else ChannelConfig()
        )
        # Counter of campaigns drawn through collect_generated, folded into
        # their seed bases so repeated draws stay independent.
        self._generated_campaigns = 0

    # ------------------------------------------------------------------ #
    @property
    def layout(self) -> OfficeLayout:
        return self._layout

    @property
    def links(self) -> LinkSet:
        return self._links

    @property
    def clock(self) -> SimulationClock:
        return self._clock

    # ------------------------------------------------------------------ #
    def _day_sequences(
        self,
        day_index: int,
        seed_base: Optional[np.random.SeedSequence] = None,
    ) -> Tuple[
        np.random.SeedSequence,
        np.random.SeedSequence,
        np.random.SeedSequence,
        np.random.SeedSequence,
    ]:
        """The four per-purpose seed sequences of one day.

        Derived from the base identity (the collector root by default) and
        the day index alone, so a day's streams are identical no matter
        when, where or how often the day is collected.  ``collect_generated``
        passes a per-campaign child as ``seed_base`` so that successively
        drawn campaigns — whose days all renumber from zero — do not replay
        the same noise realisations.
        """
        root = seed_base if seed_base is not None else self._root
        day_ss = derive_seed_sequence(root, DAY_DOMAIN, day_index)
        channel_ss, movement_ss, fidget_ss, activity_ss = day_ss.spawn(4)
        return channel_ss, movement_ss, fidget_ss, activity_ss

    def _make_people(self) -> Dict[str, Person]:
        people: Dict[str, Person] = {}
        for w in self._layout.workstations:
            user_id = ScheduleGenerator.user_for(w.workstation_id)
            people[user_id] = Person(
                user_id=user_id,
                workstation_id=w.workstation_id,
                seat=w.seat_position,
            )
        return people

    def _desk_detour(self, seat: Point) -> Point:
        """A waypoint stepping away from the desk towards the room centre.

        Users do not walk in a straight line from their chair to the door:
        they push the chair back and step around the desk first.  The detour
        also makes every departure last roughly the five seconds the paper
        reports as the average workstation-to-door walking time.
        """
        cx, cy = self._layout.width / 2.0, self._layout.height / 2.0
        dx, dy = cx - seat.x, cy - seat.y
        norm = float(np.hypot(dx, dy))
        if norm < 1e-9:
            return seat
        step = 0.8
        return Point(seat.x + step * dx / norm, seat.y + step * dy / norm)

    def _trajectory_for(
        self, movement, seat: Point, rng: np.random.Generator
    ) -> Tuple[Trajectory, PresenceState]:
        door = self._layout.door
        if movement.kind is EventKind.DEPARTURE:
            traj = departure_trajectory(
                seat,
                door,
                movement.start_time,
                stand_up_s=1.5,
                door_open_s=1.5,
                via=[self._desk_detour(seat)],
            )
            return traj, PresenceState.ABSENT
        if movement.kind is EventKind.ENTRY:
            target = self._layout.workstation(movement.workstation_id).seat_position
            traj = entry_trajectory(
                door,
                target,
                movement.start_time,
                door_open_s=1.5,
                sit_down_s=1.5,
                via=[self._desk_detour(target)],
            )
            return traj, PresenceState.SEATED
        # Internal move: a short excursion near the seat (reaching a shelf,
        # turning to a colleague) that perturbs nearby links briefly without
        # being a departure.  Kept within ~1 m so the resulting variation
        # window is shorter than typical t_delta values.
        offset = rng.uniform(0.5, 1.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        target = Point(
            float(
                np.clip(
                    seat.x + offset * np.cos(angle),
                    0.3,
                    self._layout.width - 0.3,
                )
            ),
            float(
                np.clip(
                    seat.y + offset * np.sin(angle),
                    0.3,
                    self._layout.height - 0.3,
                )
            ),
        )
        traj = walk_through(
            [seat, target, seat],
            movement.start_time,
            pauses=[0.0, 0.5],
        )
        return traj, PresenceState.SEATED

    def _presence_intervals(
        self, day: DaySchedule, plan: _DayPlan
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Per-workstation intervals during which the assigned user is at the desk.

        Walk end times come from the plan's compiled trajectories — the
        exact walks the engines simulate — so the activity presence windows
        line up with the RSSI trace.  Movements the engine never fires
        (starting after the day's last sample) are ignored here too.
        """
        intervals: Dict[str, List[Tuple[float, float]]] = {}
        for w in self._layout.workstations:
            user_id = ScheduleGenerator.user_for(w.workstation_id)
            user_moves = sorted(
                (
                    m
                    for m in day.movements
                    if m.user_id == user_id and id(m) in plan.move_trajectories
                ),
                key=lambda m: m.start_time,
            )
            present_since: Optional[float] = 0.0
            user_intervals: List[Tuple[float, float]] = []
            for m in user_moves:
                traj = plan.move_trajectories[id(m)]
                if m.kind is EventKind.DEPARTURE:
                    if present_since is not None:
                        # Overlapping manual schedules can place a departure
                        # before the seating completes; a zero-length
                        # presence adds nothing.
                        if m.start_time > present_since:
                            user_intervals.append((present_since, m.start_time))
                        present_since = None
                elif m.kind is EventKind.ENTRY:
                    if present_since is None:
                        present_since = traj.end_time
                elif m.kind is EventKind.INTERNAL_MOVE:
                    if present_since is not None:
                        if m.start_time > present_since:
                            user_intervals.append((present_since, m.start_time))
                        present_since = traj.end_time
            if present_since is not None:
                user_intervals.append((present_since, day.duration_s))
            intervals[w.workstation_id] = user_intervals
        return intervals

    # ------------------------------------------------------------------ #
    def _prepare_day(
        self, day: DaySchedule, movement_rng: np.random.Generator
    ) -> _DayPlan:
        """Compile a day's schedule into walk assignments and events.

        Movements are processed in chronological order exactly as the
        per-step engine would fire them: a movement fires at the first grid
        step whose timestamp reaches its start time, trajectories are built
        from the person's seat *as of that step* (a walk that completed
        earlier may have moved the seat), and movements starting after the
        last grid step never fire.
        """
        clock = self._clock
        times = clock.timestamps(day.duration_s)
        n_steps = times.shape[0]
        if n_steps == 0:
            raise ValueError("day duration too short for the sampling rate")

        people = self._make_people()
        walks: Dict[str, List[Tuple[int, Trajectory, PresenceState]]] = {
            uid: [] for uid in people
        }
        events = EventLog()
        # Virtual per-person walk state used only to evolve seats during
        # compilation (mirrors Person.update's seat hand-over).
        seats: Dict[str, Point] = {uid: p.seat for uid, p in people.items()}
        active: Dict[str, Tuple[int, Trajectory, PresenceState]] = {}
        plan_trajs: Dict[int, Trajectory] = {}

        for movement in sorted(day.movements, key=lambda m: m.start_time):
            fire_idx = int(np.searchsorted(times, movement.start_time, side="left"))
            if fire_idx >= n_steps:
                continue  # starts after the day's last sample: never fires
            uid = movement.user_id
            if uid not in people:
                # A visitor: a transient person entering through the door.
                people[uid] = Person(
                    user_id=uid,
                    workstation_id=None,
                    seat=self._layout.door,
                    initial_state=PresenceState.ABSENT,
                )
                walks[uid] = []
                seats[uid] = self._layout.door
            prior = active.get(uid)
            if prior is not None and prior[0] < fire_idx:
                # The previous walk completed before this one fires; apply
                # its seat hand-over (walks replaced mid-flight never
                # complete and therefore never move the seat).
                _, prior_traj, prior_ends = prior
                if prior_ends is PresenceState.SEATED:
                    seats[uid] = prior_traj.waypoints[-1]
                del active[uid]
            traj, ends_as = self._trajectory_for(movement, seats[uid], movement_rng)
            end_idx = int(np.searchsorted(times, traj.end_time, side="left"))
            active[uid] = (end_idx, traj, ends_as)
            walks[uid].append((fire_idx, traj, ends_as))
            plan_trajs[id(movement)] = traj
            if movement.kind is EventKind.DEPARTURE:
                events.add(
                    GroundTruthEvent(
                        kind=EventKind.DEPARTURE,
                        time=movement.start_time,
                        user_id=uid,
                        workstation_id=movement.workstation_id,
                        exit_time=traj.end_time,
                    )
                )
            elif movement.kind is EventKind.ENTRY:
                events.add(
                    GroundTruthEvent(
                        kind=EventKind.ENTRY,
                        time=movement.start_time,
                        user_id=uid,
                        workstation_id=movement.workstation_id,
                    )
                )
            else:
                events.add(
                    GroundTruthEvent(
                        kind=EventKind.INTERNAL_MOVE,
                        time=movement.start_time,
                        user_id=uid,
                        workstation_id=movement.workstation_id,
                    )
                )
        return _DayPlan(
            times=times,
            people=people,
            walks=walks,
            events=events,
            move_trajectories=plan_trajs,
        )

    def _fidget_rngs(
        self, plan: _DayPlan, fidget_ss: np.random.SeedSequence
    ) -> Dict[str, np.random.Generator]:
        """One dedicated fidget generator per person, in roster order."""
        children = fidget_ss.spawn(len(plan.people))
        return {
            uid: np.random.default_rng(child)
            for uid, child in zip(plan.people, children)
        }

    def _finalize_day(
        self,
        day: DaySchedule,
        plan: _DayPlan,
        rssi: np.ndarray,
        activity_ss: np.random.SeedSequence,
    ) -> DayRecording:
        """Assemble the day recording from the sampled RSSI block."""
        streams = {
            sid: rssi[:, i] for i, sid in enumerate(self._links.stream_ids)
        }
        trace = RssiTrace(times=plan.times, streams=streams)
        presence = self._presence_intervals(day, plan)
        activity_model = InputActivityModel(
            rng=np.random.default_rng(activity_ss)
        )
        activity = {
            wid: activity_model.generate(
                day.duration_s, presence[wid], start_time=self._clock.start_time
            )
            for wid in self._layout.workstation_ids
        }
        return DayRecording(
            day_index=day.day_index,
            duration_s=day.duration_s,
            trace=trace,
            events=plan.events,
            activity=activity,
        )

    # ------------------------------------------------------------------ #
    def collect_day(
        self,
        day: DaySchedule,
        *,
        seed_base: Optional[np.random.SeedSequence] = None,
    ) -> DayRecording:
        """Execute one day's schedule with the vectorised batch engine.

        Produces output bit-identical to :meth:`collect_day_scalar` (the
        equivalence regression tests assert this) at a fraction of the cost:
        person positions are replayed over movement-delimited segments and
        the radio channel samples whole timestep chunks at once.

        ``seed_base`` overrides the identity the day's random streams derive
        from (default: the collector root).  Used by the generated-campaign
        APIs to decorrelate successive campaigns.
        """
        channel_ss, movement_ss, fidget_ss, activity_ss = self._day_sequences(
            day.day_index, seed_base
        )
        movement_rng = np.random.default_rng(movement_ss)
        plan = self._prepare_day(day, movement_rng)
        times = plan.times
        n_steps = times.shape[0]
        n_bodies = len(plan.people)

        xy = np.empty((n_steps, n_bodies, 2))
        present = np.zeros((n_steps, n_bodies), dtype=bool)
        walking = np.zeros((n_steps, n_bodies), dtype=bool)
        fidget_rngs = self._fidget_rngs(plan, fidget_ss)
        for i, (uid, person) in enumerate(plan.people.items()):
            xy[:, i, :], present[:, i], walking[:, i] = person.positions_over(
                times, fidget_rngs[uid], plan.walks[uid]
            )

        # Instantaneous body speeds: consecutive-position distance over dt,
        # zero at (re-)appearance, floored for walkers (a walking body is in
        # motion even while its centre barely translates).
        speeds = np.zeros((n_steps, n_bodies))
        if n_steps > 1:
            dist = np.hypot(
                xy[1:, :, 0] - xy[:-1, :, 0], xy[1:, :, 1] - xy[:-1, :, 1]
            )
            both = present[1:] & present[:-1]
            speeds[1:] = np.where(both, dist / self._clock.dt, 0.0)
        speeds = np.where(
            walking, np.maximum(speeds, _MIN_WALKING_SPEED), speeds
        )

        channel = RadioChannel(
            self._links,
            config=self._channel_config,
            sample_interval_s=self._clock.dt,
            seed_seq=channel_ss,
        )
        rssi = channel.sample_block(xy, speeds, present)
        return self._finalize_day(day, plan, rssi, activity_ss)

    def day_walks(
        self,
        day: DaySchedule,
        *,
        seed_base: Optional[np.random.SeedSequence] = None,
    ) -> Dict[str, List[Tuple[int, Trajectory, PresenceState]]]:
        """Re-derive the ground-truth walks of one day without radio.

        Compiles the same deterministic day plan :meth:`collect_day` and
        :meth:`collect_day_scalar` execute — same seed derivation, same
        movement stream — but skips channel sampling entirely, returning
        each person's ``(fire_idx, trajectory, ends_as)`` walk list.
        This is the position ground truth
        (:meth:`~repro.mobility.trajectory.Trajectory.positions_at`)
        the zone-occupancy workload scores against, recoverable for any
        recorded campaign from its schedule and seed alone.
        """
        _, movement_ss, _, _ = self._day_sequences(day.day_index, seed_base)
        plan = self._prepare_day(day, np.random.default_rng(movement_ss))
        return {uid: list(walks) for uid, walks in plan.walks.items()}

    def collect_day_scalar(
        self,
        day: DaySchedule,
        *,
        seed_base: Optional[np.random.SeedSequence] = None,
    ) -> DayRecording:
        """Execute one day step by step (the reference engine).

        Kept as the per-instant reference implementation of the batch
        contract: it drives the same compiled day plan through the person
        state machines and :meth:`RadioChannel.sample_vector` one timestep
        at a time, consuming the same random streams in the same order as
        :meth:`collect_day`.  Used by the equivalence tests and as the
        baseline of the throughput benchmark.
        """
        channel_ss, movement_ss, fidget_ss, activity_ss = self._day_sequences(
            day.day_index, seed_base
        )
        movement_rng = np.random.default_rng(movement_ss)
        plan = self._prepare_day(day, movement_rng)
        times = plan.times
        n_steps = times.shape[0]
        clock = self._clock

        channel = RadioChannel(
            self._links,
            config=self._channel_config,
            sample_interval_s=clock.dt,
            seed_seq=channel_ss,
        )
        fidget_rngs = self._fidget_rngs(plan, fidget_ss)
        # Flatten walk assignments into one chronological firing list.
        pending = sorted(
            (
                (fire_idx, uid, traj, ends_as)
                for uid, user_walks in plan.walks.items()
                for fire_idx, traj, ends_as in user_walks
            ),
            key=lambda w: w[0],
        )
        pending_idx = 0

        n_streams = len(self._links)
        rssi = np.empty((n_steps, n_streams))
        prev_positions: Dict[str, Optional[Point]] = {}

        for step in range(n_steps):
            t = float(times[step])
            while pending_idx < len(pending) and pending[pending_idx][0] <= step:
                _, uid, traj, ends_as = pending[pending_idx]
                pending_idx += 1
                plan.people[uid].start_walk(traj, ends_as)

            bodies = []
            speeds = []
            for uid, person in plan.people.items():
                person.update(t)
                pos = person.position_at(t, fidget_rngs[uid])
                prev = prev_positions.get(uid)
                prev_positions[uid] = pos
                if pos is None:
                    continue
                bodies.append(pos)
                if prev is None:
                    speed = 0.0
                else:
                    # np.hypot, not Point.distance_to (math.hypot): CPython
                    # and libm hypot differ in the last ulp, and the batch
                    # equivalence contract is bit-for-bit.
                    speed = float(
                        np.hypot(pos.x - prev.x, pos.y - prev.y)
                    ) / clock.dt
                if person.state is PresenceState.WALKING:
                    speed = max(speed, _MIN_WALKING_SPEED)
                speeds.append(speed)
            rssi[step] = channel.sample_vector(bodies, speeds)

        return self._finalize_day(day, plan, rssi, activity_ss)

    def collect(
        self,
        schedule: CampaignSchedule,
        *,
        seed_base: Optional[np.random.SeedSequence] = None,
    ) -> CampaignRecording:
        """Execute every day of a campaign schedule."""
        require_unique_day_indices(schedule.days)
        days = [self.collect_day(day, seed_base=seed_base) for day in schedule.days]
        return CampaignRecording(days=days, layout=self._layout)

    def make_schedule(
        self,
        n_days: int = 5,
        day_duration_s: float = 8 * 3600.0,
        profiles: Optional[Dict[str, BehaviorProfile]] = None,
    ) -> CampaignSchedule:
        """Draw a campaign schedule on the collector's structural stream.

        Stateful across calls (each draw advances the stream), matching the
        historical ``collect_generated`` semantics.
        """
        generator = ScheduleGenerator(self._layout, profiles, rng=self._rng)
        return generator.generate_campaign(n_days, day_duration_s)

    def next_generated_base(self) -> np.random.SeedSequence:
        """The seed base of the next generated campaign, advancing a counter.

        Generated campaigns all number their days from zero, so deriving
        their day streams straight from the collector root would replay
        identical noise in every campaign.  Instead each drawn campaign
        gets the child ``(GENERATED_DOMAIN, c)`` for an ever-increasing
        ``c``, keeping repeated :meth:`collect_generated` campaigns
        statistically independent (as in 1.x) while explicit
        :meth:`collect_day` calls stay idempotent by day index.
        """
        base = derive_seed_sequence(
            self._root, GENERATED_DOMAIN, self._generated_campaigns
        )
        self._generated_campaigns += 1
        return base

    def collect_generated(
        self,
        n_days: int = 5,
        day_duration_s: float = 8 * 3600.0,
        profiles: Optional[Dict[str, BehaviorProfile]] = None,
    ) -> CampaignRecording:
        """Draw a schedule and collect it in one call.

        Stateful across calls: each call draws a fresh schedule from the
        structural stream *and* a fresh per-campaign seed base, so repeated
        campaigns are independent realisations.
        """
        schedule = self.make_schedule(n_days, day_duration_s, profiles)
        return self.collect(schedule, seed_base=self.next_generated_base())
