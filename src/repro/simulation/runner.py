"""Parallel campaign execution.

The batch engine makes a single day cheap; this module makes *many* days
and *many campaigns* cheap by executing them concurrently.  Days are
embarrassingly parallel under the collector's seeding scheme: every day's
random streams derive from the root entropy and the day index alone (see
:mod:`repro.simulation.collector`), so collecting day 3 in a worker process
yields bit-identical output to collecting it serially after days 0-2.

* :meth:`CampaignRunner.run` — execute one schedule, one task per day.
* :meth:`CampaignRunner.run_generated` — draw a schedule (serially, on the
  structural stream) and execute it in parallel.
* :meth:`CampaignRunner.run_many` — execute several independent campaigns;
  campaign ``i`` is seeded with the spawn-key-derived child
  ``(CAMPAIGN_DOMAIN, i)`` of the runner's root
  :class:`~numpy.random.SeedSequence`, so the fleet is reproducible from a
  single integer seed.
* :meth:`CampaignRunner.run_tasks` — execute an explicit list of
  :class:`DayTask` items, each optionally overriding the layout and channel
  configuration.  This is the heterogeneous entry point the scenario-grid
  sweep (:mod:`repro.analysis.scenarios`) drives: days of *different*
  scenarios (layouts, channel configs, seeds) share one worker pool.

Outputs are plain :class:`~repro.simulation.collector.CampaignRecording`
objects — the same type ``CampaignCollector.collect`` returns — so they
feed directly into :class:`~repro.core.system.FadewichSystem` training and
replay, the analysis context and every figure/table benchmark.

Execution modes: ``"process"`` (default, true parallelism via
``concurrent.futures.ProcessPoolExecutor``) and ``"serial"`` (no executor
at all; days of one scenario share one collector).  If a process pool
cannot be created (restricted environments), the runner degrades to
serial execution with a warning rather than failing.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from ..radio.channel import ChannelConfig
from ..radio.office import OfficeLayout
from .clock import SimulationClock
from .collector import (
    CAMPAIGN_DOMAIN,
    CampaignCollector,
    CampaignRecording,
    DayRecording,
    derive_seed_sequence,
    require_unique_day_indices,
)
from ..mobility.scheduler import CampaignSchedule, DaySchedule

__all__ = ["CampaignRunner", "DayTask"]

_MODES = ("process", "serial")


def _seed_key(seed_seq: np.random.SeedSequence):
    """A hashable identity for a seed sequence.

    ``SeedSequence.entropy`` may be an int, ``None`` or a list (when the
    sequence was built from pooled entropy), so normalise it to a tuple.
    """
    entropy = seed_seq.entropy
    if isinstance(entropy, (list, tuple)):
        entropy = tuple(entropy)
    return entropy, tuple(seed_seq.spawn_key)


def _collect_day_task(
    layout: OfficeLayout,
    clock: Optional[SimulationClock],
    channel_config: Optional[ChannelConfig],
    seed_seq: np.random.SeedSequence,
    day: DaySchedule,
    seed_base: Optional[np.random.SeedSequence] = None,
) -> DayRecording:
    """Worker entry point: rebuild the collector and collect one day.

    Module-level so it pickles for process pools.  Reconstructing the
    collector repeats only the cheap construction work (fade levels draw
    from the structural stream, so every worker sees the same link set);
    the day result is identical to a serial ``collect_day`` call.
    """
    collector = CampaignCollector(
        layout, clock=clock, channel_config=channel_config, seed=seed_seq
    )
    return collector.collect_day(day, seed_base=seed_base)


@dataclass(frozen=True)
class DayTask:
    """One day-collection work item of :meth:`CampaignRunner.run_tasks`.

    ``layout`` / ``clock`` / ``channel_config`` left as ``None`` inherit the
    runner's own defaults, so homogeneous callers (:meth:`CampaignRunner.run`
    and friends) and heterogeneous callers (the scenario sweep, which mixes
    layouts and channel configurations in one pool) share the same executor
    plumbing.  The day's random streams derive from ``seed_base`` (or, when
    that is ``None``, from ``seed_seq``) and the day index exactly as in
    :meth:`~repro.simulation.collector.CampaignCollector.collect_day`, so a
    task's result is bit-identical to a serial collection with the same
    seed.
    """

    day: DaySchedule
    seed_seq: np.random.SeedSequence
    seed_base: Optional[np.random.SeedSequence] = None
    layout: Optional[OfficeLayout] = None
    clock: Optional[SimulationClock] = None
    channel_config: Optional[ChannelConfig] = None


class CampaignRunner:
    """Executes campaign schedules with per-day / per-campaign parallelism.

    Parameters
    ----------
    layout:
        The office layout shared by all campaigns.
    clock:
        Sampling clock (default 4 Hz).
    channel_config:
        Radio channel configuration.
    seed:
        Root seed (int, ``None`` or :class:`numpy.random.SeedSequence`);
        campaign ``i`` of :meth:`run_many` derives its own child seed from
        it, and :meth:`run` forwards it to the day collectors unchanged, so
        runner results match ``CampaignCollector(layout, seed=seed)``
        exactly.
    max_workers:
        Upper bound on concurrent workers (default: CPU count).
    mode:
        ``"process"`` or ``"serial"``.
    """

    def __init__(
        self,
        layout: OfficeLayout,
        *,
        clock: Optional[SimulationClock] = None,
        channel_config: Optional[ChannelConfig] = None,
        seed: Union[int, np.random.SeedSequence, None] = None,
        max_workers: Optional[int] = None,
        mode: str = "process",
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self._layout = layout
        self._clock = clock
        self._channel_config = channel_config
        if isinstance(seed, np.random.SeedSequence):
            self._root = seed
        else:
            self._root = np.random.SeedSequence(seed)
        self._max_workers = max_workers
        self._mode = mode
        # Lazily-built collector reused by run_generated so repeated calls
        # advance the structural stream exactly like a reused
        # CampaignCollector.collect_generated would.
        self._schedule_collector: Optional[CampaignCollector] = None

    # ------------------------------------------------------------------ #
    @property
    def mode(self) -> str:
        return self._mode

    def _make_collector(self, seed_seq: np.random.SeedSequence) -> CampaignCollector:
        return CampaignCollector(
            self._layout,
            clock=self._clock,
            channel_config=self._channel_config,
            seed=seed_seq,
        )

    def _worker_count(self, n_tasks: int) -> int:
        cap = self._max_workers if self._max_workers else (os.cpu_count() or 1)
        return max(1, min(cap, n_tasks))

    def _resolve(self, task: DayTask) -> DayTask:
        """Fill a task's ``None`` fields with the runner's own defaults."""
        return DayTask(
            day=task.day,
            seed_seq=task.seed_seq,
            seed_base=task.seed_base,
            layout=task.layout if task.layout is not None else self._layout,
            clock=task.clock if task.clock is not None else self._clock,
            channel_config=(
                task.channel_config
                if task.channel_config is not None
                else self._channel_config
            ),
        )

    @staticmethod
    def _collector_key(task: DayTask):
        """Collector-sharing identity of a resolved task.

        Object identity is the right granularity for the layout and channel
        config: distinct-but-equal objects get distinct collectors, which
        costs only cheap re-construction, while the seed identity must be
        structural so equal seeds share one collector.
        """
        return (
            id(task.layout),
            id(task.clock),
            id(task.channel_config),
            _seed_key(task.seed_seq),
        )

    def _collect_serial(self, tasks: Sequence[DayTask]) -> List[DayRecording]:
        """Collect in order, one collector per distinct (layout, clock,
        channel, seed).

        ``collect_day`` never touches the structural stream, so a collector
        can be shared by many days of the same scenario (the serial-vs-
        process bit-identity tests lock this: process workers build a fresh
        collector per day).
        """
        collectors: dict = {}
        days = []
        for task in tasks:
            key = self._collector_key(task)
            if key not in collectors:
                collectors[key] = CampaignCollector(
                    task.layout,
                    clock=task.clock,
                    channel_config=task.channel_config,
                    seed=task.seed_seq,
                )
            days.append(
                collectors[key].collect_day(task.day, seed_base=task.seed_base)
            )
        return days

    def _collect_days(self, tasks: Sequence[DayTask]) -> List[DayRecording]:
        """Collect resolved :class:`DayTask` items, preserving order."""
        if self._mode == "serial" or len(tasks) <= 1:
            return self._collect_serial(tasks)
        # Process mode.  Only pool-infrastructure failures (no fork in this
        # environment, pool died) trigger the serial fallback; exceptions
        # raised by collect_day inside a worker propagate unchanged.
        pool_error: BaseException
        try:
            pool = ProcessPoolExecutor(
                max_workers=self._worker_count(len(tasks))
            )
        except (OSError, PermissionError, RuntimeError) as exc:
            pool_error = exc
        else:
            with pool:
                try:
                    futures = [
                        pool.submit(
                            _collect_day_task,
                            task.layout,
                            task.clock,
                            task.channel_config,
                            task.seed_seq,
                            task.day,
                            task.seed_base,
                        )
                        for task in tasks
                    ]
                except (OSError, PermissionError, BrokenProcessPool) as exc:
                    # Worker spawn failed (e.g. fork blocked by the host).
                    pool_error = exc
                else:
                    try:
                        return [f.result() for f in futures]
                    except BrokenProcessPool as exc:
                        pool_error = exc
        warnings.warn(
            f"process pool unavailable ({pool_error!r}); falling back to "
            "serial day collection",
            RuntimeWarning,
            stacklevel=3,
        )
        return self._collect_serial(tasks)

    # ------------------------------------------------------------------ #
    def run(self, schedule: CampaignSchedule) -> CampaignRecording:
        """Execute one campaign schedule, one parallel task per day.

        Returns the same :class:`CampaignRecording` a serial
        ``CampaignCollector(layout, seed=seed).collect(schedule)`` would.
        """
        require_unique_day_indices(schedule.days)
        tasks = [
            self._resolve(DayTask(day=day, seed_seq=self._root))
            for day in schedule.days
        ]
        days = self._collect_days(tasks)
        return CampaignRecording(days=days, layout=self._layout)

    def run_generated(
        self,
        n_days: int = 5,
        day_duration_s: float = 8 * 3600.0,
        profiles: Optional[dict] = None,
    ) -> CampaignRecording:
        """Draw a schedule on the structural stream, then run it in parallel.

        Matches ``CampaignCollector.collect_generated`` with the same seed,
        including its statefulness: repeated calls draw successive
        schedules from one structural stream, just like repeated
        ``collect_generated`` calls on one collector.  Schedule generation
        happens serially in the parent; only the day collection fans out.
        """
        if self._schedule_collector is None:
            self._schedule_collector = self._make_collector(self._root)
        schedule = self._schedule_collector.make_schedule(
            n_days, day_duration_s, profiles
        )
        # The schedule collector also owns the generated-campaign counter,
        # so runner and serial collector derive identical seed bases.
        base = self._schedule_collector.next_generated_base()
        tasks = [
            self._resolve(DayTask(day=day, seed_seq=self._root, seed_base=base))
            for day in schedule.days
        ]
        days = self._collect_days(tasks)
        return CampaignRecording(days=days, layout=self._layout)

    def run_many(
        self, schedules: Sequence[CampaignSchedule]
    ) -> List[CampaignRecording]:
        """Execute several independent campaigns concurrently.

        Campaign ``i`` uses the child seed ``(CAMPAIGN_DOMAIN, i)`` of the
        runner's root, so results are reproducible and independent of the
        execution order; all days of all campaigns share one worker pool.
        """
        tasks = []
        spans = []
        for i, schedule in enumerate(schedules):
            require_unique_day_indices(schedule.days)
            seed_i = derive_seed_sequence(self._root, CAMPAIGN_DOMAIN, i)
            start = len(tasks)
            tasks.extend(
                self._resolve(DayTask(day=day, seed_seq=seed_i))
                for day in schedule.days
            )
            spans.append((start, len(tasks)))
        days = self._collect_days(tasks)
        return [
            CampaignRecording(days=days[a:b], layout=self._layout)
            for a, b in spans
        ]

    def run_tasks(self, tasks: Sequence[DayTask]) -> List[DayRecording]:
        """Execute explicit :class:`DayTask` items on the runner's pool.

        The heterogeneous entry point: tasks may carry their own layout,
        clock and channel configuration (``None`` fields inherit the
        runner's defaults), so days of entirely different scenarios share
        one worker pool.  Results are returned in task order, each
        bit-identical to a serial
        ``CampaignCollector(layout, ...).collect_day(day, seed_base=...)``
        with the task's seeds.  Callers mixing scenarios are responsible
        for seed hygiene across tasks (the scenario sweep derives one child
        seed per scenario from a single root).
        """
        return self._collect_days([self._resolve(task) for task in tasks])

    def campaign_seed(self, index: int) -> np.random.SeedSequence:
        """The derived root seed of campaign ``index`` in :meth:`run_many`."""
        return derive_seed_sequence(self._root, CAMPAIGN_DOMAIN, index)
