"""Distributed sweep execution: N workers cooperatively fill one store.

PR 5 made every grid point an atomic, fingerprinted
:class:`~repro.analysis.sweep_store.SweepStore` record; this module adds
the thin work-queue front-end the ROADMAP's distributed-execution item
calls for, so N processes — or N hosts sharing the store directory over a
network filesystem — each claim missing *simulation keys* and fill the
same store without coordination beyond the filesystem itself.

The claim protocol
------------------

A **lease file** (``<slug>.lease`` next to the record files) marks one
simulation key as being worked on.  The lifecycle keeps the store's
crash-anywhere guarantees:

* **Claiming is atomic.**  The full lease payload (owner id, PID,
  heartbeat timestamp, TTL) is serialised to a temporary file in the
  store directory and *hard-linked* into place — link creation fails if
  the lease already exists, so exactly one of any number of contending
  workers wins a key; the losers move on to the next one.  (Creation
  needs no-clobber semantics, which is why it uses ``os.link`` rather
  than the ``os.replace`` rename of record writes and heartbeat renewals
  — ``os.replace`` would silently steal a live competitor's claim.)
* **Leases expire.**  A worker renews its heartbeat (temp file +
  ``os.replace``, owner-only) every ``ttl / 4`` seconds from a background
  thread; a lease whose heartbeat is older than its TTL is *reclaimable*:
  any worker may break it (unlink) and race for a fresh claim — again,
  exactly one wins.  A SIGKILL'd worker therefore blocks its keys for at
  most one TTL.
* **Completed records supersede claims.**  After winning a lease the
  runner re-checks the store before simulating
  (:meth:`~repro.analysis.scenarios.ScenarioSweepRunner.run` cooperative
  mode), and every finished scenario is ``put`` *before* the lease is
  released — so a crash at any point either leaves the records (work
  survives) or leaves an expiring lease (work is redone).  Nothing is
  ever lost, and redone work is harmless: seed derivation is keyed by the
  full grid, so any worker recomputes bit-identical records.

Bit-identity contract
---------------------

A cooperative fill partitions *which worker collects which simulation*,
never *what is collected*: scenario seeds derive from the full grid's
``_sim_indices`` enumeration, so the union of any workers' records —
including records redone after crashes — reproduces a solo
``run(store=...)`` report ``to_dict()``-identically.  The tier-1 queue
tests and the ``benchmarks/test_sweep_distributed.py`` gate both assert
this equality.

Prioritized batches
-------------------

:func:`run_prioritized` executes a list of *named* grids in priority
order — the batch-orchestration shape of running one resumable campaign
after another — giving each grid its own store subdirectory and log file,
fanning each out over ``workers`` processes, and merging everything into
one ``SWEEP_report.json``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..reliability.faults import (
    LEASE_CLOCK_SKEW,
    LEASE_HEARTBEAT_STALL,
    LEASE_UNLINK_RACE,
    WORKER_CRASH_AFTER_PUT,
    WORKER_CRASH_BEFORE_PUT,
    FaultInjector,
    as_injector,
)
from .scenarios import ScenarioGrid, ScenarioSweepRunner, SweepReport
from .sweep_store import SweepStore, name_slug

__all__ = [
    "LeaseInfo",
    "LeaseManager",
    "SweepWorker",
    "SweepWorkerStats",
    "GridJob",
    "PrioritizedRunResult",
    "run_prioritized",
]

#: Version stamp of the lease-file layout.
LEASE_FORMAT = 1

#: Default lease time-to-live.  Generous next to the ttl/4 heartbeat
#: cadence, tight next to typical per-simulation wall times: a killed
#: worker's keys are reclaimable within half a minute.
DEFAULT_LEASE_TTL_S = 30.0


@dataclass(frozen=True)
class LeaseInfo:
    """The decoded content of one lease file."""

    name: str
    owner: str
    pid: int
    heartbeat: float
    ttl_s: float

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the heartbeat is older than the lease's own TTL."""
        now = time.time() if now is None else now
        return (now - self.heartbeat) > self.ttl_s


class LeaseManager:
    """Atomic, expiring claims over names in one store directory.

    Parameters
    ----------
    store:
        The :class:`SweepStore` (or its directory) whose names are being
        claimed.  Leases live next to the record files so one shared
        directory is the whole coordination surface.
    owner:
        Unique identity written into every lease this manager takes;
        defaults to ``host-pid-uuid`` so two workers can never
        accidentally share one.
    ttl_s:
        Heartbeats older than this make a lease reclaimable by anyone.
        Workers on different hosts compare wall clocks here, so keep the
        TTL comfortably above plausible clock skew.
    faults:
        Optional :class:`~repro.reliability.FaultPlan` /
        :class:`~repro.reliability.FaultInjector` enabling the lease
        hazards: ``lease.clock_skew`` (a constant offset on this
        manager's wall clock, both when stamping heartbeats and when
        judging expiry — the cross-host drift hazard),
        ``lease.heartbeat_stall`` (the background renewal thread skips a
        firing tick, so held leases silently age toward theft) and
        ``lease.unlink_race`` (a competitor's fresh lease materialises
        between our expired-lease unlink and re-link — the break race
        lost).
    """

    def __init__(
        self,
        store: Union[SweepStore, str, Path],
        *,
        owner: Optional[str] = None,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        faults: Optional[object] = None,
    ) -> None:
        self._store = store if isinstance(store, SweepStore) else SweepStore(store)
        if ttl_s <= 0:
            raise ValueError("ttl_s must be positive")
        self.owner = owner or (
            f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        )
        self.ttl_s = float(ttl_s)
        self._faults = as_injector(faults)
        self._lock = threading.Lock()
        self._held: Dict[str, Path] = {}

    # ------------------------------------------------------------------ #
    @property
    def store(self) -> SweepStore:
        return self._store

    def held(self) -> List[str]:
        """Names currently held by this manager, sorted."""
        with self._lock:
            return sorted(self._held)

    def read(self, name: str) -> Optional[LeaseInfo]:
        """The current lease on a name, or ``None``.

        Unreadable lease files (foreign junk, unsupported format) decode
        to a synthetic lease whose heartbeat is the file's mtime and whose
        owner is unknown: recent ones read as live (never break what a
        competitor may have just written), old ones as expired.
        """
        path = self._store.lease_path(name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            data = None
        if (
            isinstance(data, dict)
            and data.get("format") == LEASE_FORMAT
            and isinstance(data.get("owner"), str)
        ):
            try:
                return LeaseInfo(
                    name=str(data.get("name", name)),
                    owner=data["owner"],
                    pid=int(data.get("pid", -1)),
                    heartbeat=float(data["heartbeat"]),
                    ttl_s=float(data.get("ttl_s", self.ttl_s)),
                )
            except (KeyError, TypeError, ValueError):
                pass
        try:
            mtime = os.path.getmtime(path)
        except OSError:
            return None
        return LeaseInfo(
            name=name, owner="<unreadable>", pid=-1, heartbeat=mtime,
            ttl_s=self.ttl_s,
        )

    def owns(self, name: str) -> bool:
        """Disk truth: is the lease on ``name`` currently ours?

        Unlike :meth:`held` (this manager's belief), this re-reads the
        lease file — the check a worker makes before persisting a result,
        so work finished after a competitor stole the expired lease is
        discarded instead of racing the thief's own put.
        """
        current = self.read(name)
        return current is not None and current.owner == self.owner

    # ------------------------------------------------------------------ #
    def _now(self) -> float:
        """This manager's wall clock, plus any injected constant skew."""
        now = time.time()
        if self._faults is not None:
            spec = self._faults.constant(LEASE_CLOCK_SKEW)
            if spec is not None:
                now += float(spec.payload)
        return now

    def _payload(self, name: str) -> Dict[str, object]:
        return {
            "format": LEASE_FORMAT,
            "name": name,
            "owner": self.owner,
            "pid": os.getpid(),
            "heartbeat": self._now(),
            "ttl_s": self.ttl_s,
        }

    def _write_temp(self, name: str) -> str:
        fd, tmp_name = tempfile.mkstemp(
            prefix="lease.", suffix=".tmp", dir=self._store.path
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(self._payload(name), handle, sort_keys=True)
            handle.write("\n")
        return tmp_name

    def try_acquire(self, name: str) -> bool:
        """Attempt to claim a name; ``True`` iff this manager now holds it.

        Exactly one of any number of contenders succeeds: creation is an
        atomic ``os.link`` (fails on an existing lease), and breaking an
        expired lease is unlink-then-race — the unlink may remove a lease
        another breaker already removed, but the decisive re-link is
        first-wins again.
        """
        path = self._store.lease_path(name)
        with self._lock:
            if name in self._held:
                return True
        tmp_name = self._write_temp(name)
        try:
            won = self._link(tmp_name, path)
            if not won:
                existing = self.read(name)
                if existing is not None and not existing.expired(self._now()):
                    return False
                # Expired (or vanished since the failed link): break it
                # and race for the fresh claim.
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    pass
                except OSError:
                    return False
                if (
                    self._faults is not None
                    and self._faults.fired(LEASE_UNLINK_RACE) is not None
                ):
                    # A competing breaker wins the post-unlink race: its
                    # fresh lease lands before our re-link attempt.
                    self._plant_competitor(name, path)
                won = self._link(tmp_name, path)
            if won:
                with self._lock:
                    self._held[name] = path
            return won
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    def _plant_competitor(self, name: str, path: Path) -> None:
        """Materialise a live competitor's lease (fault-injection only)."""
        fd, tmp_name = tempfile.mkstemp(
            prefix="lease.", suffix=".tmp", dir=self._store.path
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            payload = dict(
                self._payload(name),
                owner="<injected-competitor>",
                heartbeat=time.time(),
            )
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
        try:
            self._link(tmp_name, path)
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    @staticmethod
    def _link(tmp_name: str, path: Path) -> bool:
        try:
            os.link(tmp_name, path)
            return True
        except FileExistsError:
            return False

    def renew(self, name: str) -> bool:
        """Refresh the heartbeat of a held lease (temp file + ``os.replace``).

        Returns ``False`` — and forgets the lease — if it is no longer
        ours on disk: it expired and a competitor reclaimed it.  The
        caller's work is then potentially duplicated elsewhere, which the
        bit-identity contract makes harmless.
        """
        with self._lock:
            path = self._held.get(name)
        if path is None:
            return False
        current = self.read(name)
        if current is None or current.owner != self.owner:
            with self._lock:
                self._held.pop(name, None)
            return False
        tmp_name = self._write_temp(name)
        try:
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            return False
        return True

    def renew_all(self) -> None:
        for name in self.held():
            self.renew(name)

    def release(self, name: str) -> None:
        """Drop a held lease (no-op for names we do not hold on disk)."""
        with self._lock:
            path = self._held.pop(name, None)
        if path is None:
            return
        current = self.read(name)
        if current is not None and current.owner == self.owner:
            try:
                os.unlink(path)
            except OSError:
                pass

    def release_all(self) -> None:
        for name in self.held():
            self.release(name)


class _Heartbeat(threading.Thread):
    """Background renewal of every held lease, every ``ttl / 4`` seconds."""

    def __init__(self, leases: LeaseManager) -> None:
        super().__init__(name="sweep-lease-heartbeat", daemon=True)
        self._leases = leases
        # NB: Thread itself defines a private _stop() method; shadowing it
        # with an Event breaks join().
        self._stopped = threading.Event()

    def run(self) -> None:
        interval = self._leases.ttl_s / 4.0
        injector = self._leases._faults
        while not self._stopped.wait(interval):
            if (
                injector is not None
                and injector.fired(LEASE_HEARTBEAT_STALL) is not None
            ):
                # A stalled tick: held leases silently age toward theft.
                continue
            self._leases.renew_all()

    def stop(self) -> None:
        self._stopped.set()
        self.join()


def sim_lease_name(sim_key: Tuple[str, str, str, int]) -> str:
    """The lease name of one simulation key.

    Claims are per *simulation* (layout, scale, channel, replicate), not
    per scenario: config-only variants share a recording, so the worker
    that wins a key analyses every config variant riding on it.
    """
    layout, scale, channel, replicate = sim_key
    return f"{layout}/{scale}/{channel}/r{replicate}"


@dataclass
class SweepWorkerStats:
    """What one :meth:`SweepWorker.run` invocation did across its passes."""

    passes: int = 0
    claims_won: int = 0
    claims_lost: int = 0
    scenarios_analyzed: int = 0
    idle_waits: int = 0
    #: Analysed results thrown away because the key's lease was stolen
    #: mid-collect (heartbeat theft): never persisted, redone elsewhere.
    puts_discarded: int = 0
    #: Claims released without work because a competitor's completed
    #: records landed between the store load and the lease acquisition;
    #: not counted in ``claims_won``, so wins exactly partition the keys
    #: this fleet actually collected.
    claims_superseded: int = 0


class _LeaseClaims:
    """The claims of one :meth:`SweepWorker.run` pass, taken as leases.

    Implements the ``claims`` protocol of
    :meth:`~repro.analysis.scenarios.ScenarioSweepRunner.run`; ``held``
    lists the leases still to release when the pass ends.
    """

    def __init__(
        self,
        leases: LeaseManager,
        chunk: int,
        stats: SweepWorkerStats,
        faults: Optional[FaultInjector],
        say: Callable[[str], None],
    ) -> None:
        self._leases = leases
        self._chunk = chunk
        self._stats = stats
        self._faults = faults
        self._say = say
        self.held: List[str] = []

    def claim(self, sim_key: Tuple[str, str, str, int]) -> bool:
        if len(self.held) >= self._chunk:
            return False
        lease = sim_lease_name(sim_key)
        if self._leases.try_acquire(lease):
            self.held.append(lease)
            self._stats.claims_won += 1
            return True
        self._stats.claims_lost += 1
        return False

    def superseded(self, sim_key: Tuple[str, str, str, int]) -> None:
        # A competitor finished this key between our store load and our
        # acquisition: the claim did no work.  Release it right away and
        # reclassify the win.
        lease = sim_lease_name(sim_key)
        if lease in self.held:
            self._leases.release(lease)
            self.held.remove(lease)
            self._stats.claims_won -= 1
            self._stats.claims_superseded += 1

    def may_put(self, sim_key: Tuple[str, str, str, int]) -> bool:
        self._crash_point(WORKER_CRASH_BEFORE_PUT)
        lease = sim_lease_name(sim_key)
        if lease in self.held and not self._leases.owns(lease):
            # The lease expired and a competitor stole it: discard our
            # result — the thief's put (of the bit-identical record) is
            # authoritative, and a racing double-put could interleave
            # with it.
            self._stats.puts_discarded += 1
            self._say(f"lease {lease!r} stolen mid-collect; discarding result")
            return False
        return True

    def put_done(self, sim_key: Tuple[str, str, str, int]) -> None:
        self._crash_point(WORKER_CRASH_AFTER_PUT)

    def _crash_point(self, point: str) -> None:
        if self._faults is not None:
            spec = self._faults.fired(point)
            if spec is not None:
                self._faults.apply(spec)


class SweepWorker:
    """One cooperative participant in a multi-worker store fill.

    Repeatedly runs the runner in cooperative mode — claim up to
    ``claim_chunk`` missing simulation keys by lease, collect them through
    the bit-identical partial-recollection path, ``put`` every analysed
    scenario, release the leases — until the store covers the whole grid,
    then returns the full :class:`SweepReport` (``to_dict()``-identical to
    a solo run's).

    Parameters
    ----------
    runner:
        The grid's :class:`ScenarioSweepRunner`.  Workers of one fleet
        must be constructed over the same grid and seeds; inside a
        multi-process fleet the runner's ``mode`` should stay ``"serial"``
        (the processes *are* the parallelism).
    store:
        The shared :class:`SweepStore` (or its directory).
    owner / lease_ttl_s:
        Forwarded to this worker's :class:`LeaseManager`.
    claim_chunk:
        Simulation keys claimed per pass.  1 (the default) interleaves
        workers at the finest grain; larger chunks trade claim overhead
        against cross-scenario batching inside one collect call.
    poll_interval_s:
        Sleep between passes that made no progress (all remaining keys
        leased by live competitors).
    timeout_s:
        Give up (``TimeoutError``) if the grid is still incomplete after
        this long — e.g. a competitor that holds a lease, renews it
        forever and never finishes.  ``None`` waits indefinitely.
    faults:
        Optional :class:`~repro.reliability.FaultPlan` /
        :class:`~repro.reliability.FaultInjector` shared across this
        worker's whole stack: forwarded to its :class:`LeaseManager`
        (clock skew, heartbeat stalls, unlink races), installed on the
        store if the store has no injector of its own (read/write/fsync
        errors, record corruption), and consulted at the two worker crash
        points — ``worker.crash_before_put`` (result analysed, nothing
        persisted) and ``worker.crash_after_put`` (record persisted,
        lease never released).
    """

    def __init__(
        self,
        runner: ScenarioSweepRunner,
        store: Union[SweepStore, str, Path],
        *,
        owner: Optional[str] = None,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        claim_chunk: int = 1,
        poll_interval_s: float = 0.2,
        timeout_s: Optional[float] = None,
        log: Optional[Callable[[str], None]] = None,
        faults: Optional[object] = None,
    ) -> None:
        if claim_chunk < 1:
            raise ValueError("claim_chunk must be >= 1")
        self._runner = runner
        self._store = store if isinstance(store, SweepStore) else SweepStore(store)
        self._faults = as_injector(faults)
        if self._faults is not None and self._store.faults is None:
            self._store.faults = self._faults
        self._leases = LeaseManager(
            self._store, owner=owner, ttl_s=lease_ttl_s, faults=self._faults
        )
        self._claim_chunk = int(claim_chunk)
        self._poll_interval_s = float(poll_interval_s)
        self._timeout_s = timeout_s
        self._log = log
        self.last_worker_stats: Optional[SweepWorkerStats] = None

    @property
    def owner(self) -> str:
        return self._leases.owner

    @property
    def store(self) -> SweepStore:
        return self._store

    def _say(self, message: str) -> None:
        if self._log is not None:
            self._log(f"[{self.owner}] {message}")

    def run(self) -> SweepReport:
        """Work until the grid is complete; return the full report.

        When invoked from the main thread, a SIGTERM handler is installed
        for the duration of the run that raises ``SystemExit(143)`` — so
        a terminated worker unwinds through the ``finally`` below,
        releasing every held lease instead of leaving them to expire.
        """
        stats = SweepWorkerStats()
        self.last_worker_stats = stats
        deadline = (
            time.monotonic() + self._timeout_s
            if self._timeout_s is not None
            else None
        )
        previous_sigterm: Optional[object] = None
        sigterm_installed = False
        if threading.current_thread() is threading.main_thread():

            def _on_sigterm(signum: int, frame: object) -> None:
                raise SystemExit(143)

            previous_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
            sigterm_installed = True
        heartbeat = _Heartbeat(self._leases)
        heartbeat.start()
        try:
            while True:
                claims = _LeaseClaims(
                    self._leases, self._claim_chunk, stats, self._faults, self._say
                )
                try:
                    report = self._runner.run(store=self._store, claims=claims)
                finally:
                    for lease in claims.held:
                        self._leases.release(lease)
                stats.passes += 1
                run_stats = self._runner.last_run_stats
                stats.scenarios_analyzed += run_stats.n_analyzed
                if run_stats.n_analyzed:
                    self._say(
                        f"pass {stats.passes}: analysed "
                        f"{run_stats.n_analyzed} scenario(s) "
                        f"({run_stats.n_day_tasks} day tasks)"
                    )
                if run_stats.complete:
                    self._say(
                        f"grid complete after {stats.passes} pass(es), "
                        f"{stats.scenarios_analyzed} analysed here"
                    )
                    return report
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"grid still has {run_stats.n_unclaimed} unclaimed "
                        f"scenario(s) after {self._timeout_s}s"
                    )
                if run_stats.n_analyzed == 0:
                    # Nothing claimable right now: competitors hold every
                    # remaining key.  Wait for completions or expiries.
                    stats.idle_waits += 1
                    time.sleep(self._poll_interval_s)
        finally:
            heartbeat.stop()
            self._leases.release_all()
            if sigterm_installed:
                signal.signal(signal.SIGTERM, previous_sigterm)


# --------------------------------------------------------------------------- #
# Prioritized multi-grid driver
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class GridJob:
    """One named, prioritized grid in a :func:`run_prioritized` batch."""

    name: str
    grid: Union[ScenarioGrid, Sequence]
    seed: int = 0
    analysis_seed: int = 0
    re_sensor_counts: Optional[Tuple[int, ...]] = None
    keep_recordings: bool = False

    def make_runner(self, mode: str = "serial") -> ScenarioSweepRunner:
        return ScenarioSweepRunner(
            self.grid,
            seed=self.seed,
            mode=mode,
            analysis_seed=self.analysis_seed,
            re_sensor_counts=self.re_sensor_counts,
            keep_recordings=self.keep_recordings,
        )


@dataclass
class PrioritizedRunResult:
    """Outcome of one :func:`run_prioritized` batch."""

    order: List[str]
    reports: Dict[str, SweepReport]
    log_paths: Dict[str, Path] = field(default_factory=dict)
    report_path: Optional[Path] = None

    def to_dict(self) -> Dict[str, object]:
        """The merged-report JSON shape (also what lands on disk)."""
        return {
            "format": 1,
            "order": list(self.order),
            "grids": {
                name: report.to_dict() for name, report in self.reports.items()
            },
        }


def _worker_entry(
    job: GridJob,
    store_dir: str,
    owner: str,
    lease_ttl_s: float,
    poll_interval_s: float,
    claim_chunk: int,
    timeout_s: Optional[float],
    log_path: Optional[str],
    faults: Optional[object] = None,
) -> None:
    """Child-process entry point of one fleet worker (module-level so both
    fork and spawn start methods can import it)."""
    lines: List[str] = []
    worker = SweepWorker(
        job.make_runner(mode="serial"),
        SweepStore(store_dir),
        owner=owner,
        lease_ttl_s=lease_ttl_s,
        claim_chunk=claim_chunk,
        poll_interval_s=poll_interval_s,
        timeout_s=timeout_s,
        log=lines.append,
        faults=faults,
    )
    try:
        worker.run()
    finally:
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")


def _normalise_jobs(
    grids: Union[Mapping[str, object], Sequence[GridJob]],
) -> List[GridJob]:
    if isinstance(grids, Mapping):
        jobs = [GridJob(name=str(name), grid=grid) for name, grid in grids.items()]
    else:
        jobs = list(grids)
    if not jobs:
        raise ValueError("run_prioritized needs at least one grid")
    if not all(isinstance(job, GridJob) for job in jobs):
        raise TypeError("grids must be GridJobs or a name -> grid mapping")
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"grid names must be unique, got {names}")
    return jobs


#: Exit codes :func:`run_prioritized` never respawns: a clean finish, the
#: driver's own ``terminate()`` (``-SIGTERM``) and the worker's graceful
#: SIGTERM unwind (``SystemExit(143)``) — only *unexpected* deaths count
#: against a worker slot's failure budget.
_NO_RESPAWN_EXITS = frozenset({0, 143, -int(signal.SIGTERM)})

#: Supervisor poll cadence while a fleet is running.
_SUPERVISE_POLL_S = 0.05


@dataclass
class _Slot:
    """One supervised worker slot of a :func:`run_prioritized` fleet."""

    proc: Optional[multiprocessing.process.BaseProcess]
    failures: int = 0
    restart_at: Optional[float] = None
    done: bool = False
    exit_codes: List[Optional[int]] = field(default_factory=list)


def run_prioritized(
    grids: Union[Mapping[str, object], Sequence[GridJob]],
    store: Union[SweepStore, str, Path],
    *,
    workers: int = 1,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    claim_chunk: int = 1,
    poll_interval_s: float = 0.2,
    worker_timeout_s: Optional[float] = None,
    log_dir: Optional[Union[str, Path]] = None,
    report_path: Optional[Union[str, Path]] = "SWEEP_report.json",
    mp_context: Optional[str] = None,
    max_worker_respawns: int = 2,
    respawn_backoff_s: float = 0.5,
    worker_faults: Optional[Mapping[int, object]] = None,
) -> PrioritizedRunResult:
    """Execute named grids in priority order over one shared store.

    Grids run strictly one after another (the *priority* contract: grid
    ``i+1`` starts only when grid ``i`` is complete); within a grid,
    ``workers`` processes cooperatively claim simulation keys through the
    lease protocol.  Every grid gets its own store subdirectory — so
    same-named scenarios in different grids never collide — its own log
    file under ``log_dir``, and its finished :class:`SweepReport`; the
    batch merges everything into one ``report_path`` JSON
    (:meth:`PrioritizedRunResult.to_dict`).

    Every grid is resumable: records persisted by an interrupted batch
    (even one whose workers were SIGKILL'd) are reused on the next
    invocation, and the driver itself runs a final single-process pass per
    grid, so a fleet that crashed mid-grid still leaves this call with a
    complete report — the surviving pass fills the holes serially.

    Parameters
    ----------
    grids:
        ``{name: ScenarioGrid}`` mapping (priority = insertion order) or
        an explicit :class:`GridJob` sequence for per-grid seeds.
    store:
        Root directory shared by every worker (a ``SweepStore`` or path).
    workers:
        Processes per grid.  1 runs in-process (no multiprocessing at
        all); N spawns N cooperative workers per grid.
    worker_timeout_s:
        Per-worker :class:`SweepWorker` timeout; also how long the driver
        waits for fleet processes before falling back to the serial pass.
    mp_context:
        Multiprocessing start method (``"fork"``/``"spawn"``); platform
        default when ``None``.
    max_worker_respawns:
        Per-slot failure budget of the supervisor: a worker process that
        dies with an unexpected exit code (crash, injected fault,
        SIGKILL) is respawned up to this many times, with exponential
        backoff (``respawn_backoff_s * 2**(failures-1)``).  Clean exits,
        graceful SIGTERM unwinds (143) and the driver's own terminate
        are never respawned.  Respawned workers run fault-free — the
        planned fault already happened; the replacement's job is
        recovery — under a fresh owner id, so the dead worker's leases
        expire rather than being mistaken for the replacement's.
    respawn_backoff_s:
        First-respawn backoff; doubles per subsequent failure of the
        same slot.
    worker_faults:
        Optional ``{slot index: FaultPlan}`` mapping, forwarded to the
        matching initial worker processes (chaos testing — see
        ``benchmarks/test_chaos_recovery.py``).  Respawns never inherit
        a plan.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if max_worker_respawns < 0:
        raise ValueError("max_worker_respawns must be >= 0")
    if respawn_backoff_s <= 0:
        raise ValueError("respawn_backoff_s must be positive")
    if worker_faults:
        bad = sorted(i for i in worker_faults if not 0 <= int(i) < workers)
        if bad:
            raise ValueError(
                f"worker_faults names slots {bad} outside 0..{workers - 1}"
            )
    jobs = _normalise_jobs(grids)
    root = Path(store.path if isinstance(store, SweepStore) else store)
    root.mkdir(parents=True, exist_ok=True)
    log_root = Path(log_dir) if log_dir is not None else None
    if log_root is not None:
        log_root.mkdir(parents=True, exist_ok=True)
    ctx = (
        multiprocessing.get_context(mp_context)
        if mp_context is not None
        else multiprocessing.get_context()
    )

    order: List[str] = []
    reports: Dict[str, SweepReport] = {}
    log_paths: Dict[str, Path] = {}
    for job in jobs:
        sub_store = SweepStore(root / name_slug(job.name))
        log_path: Optional[Path] = None
        lines: List[str] = []
        if log_root is not None:
            log_path = log_root / f"{name_slug(job.name)}.log"
            log_paths[job.name] = log_path
        t0 = time.perf_counter()
        exit_codes: List[Optional[int]] = []
        if workers > 1:
            deadline = (
                time.monotonic() + worker_timeout_s
                if worker_timeout_s is not None
                else None
            )

            def _spawn(slot_index: int, attempt: int, faults):
                proc = ctx.Process(
                    target=_worker_entry,
                    args=(
                        job,
                        str(sub_store.path),
                        f"{job.name}-w{slot_index}-a{attempt}-"
                        f"{uuid.uuid4().hex[:6]}",
                        lease_ttl_s,
                        poll_interval_s,
                        claim_chunk,
                        worker_timeout_s,
                        str(log_path) if log_path is not None else None,
                        faults,
                    ),
                    name=f"sweep-{job.name}-w{slot_index}",
                )
                proc.start()
                return proc

            slots = [
                _Slot(
                    proc=_spawn(
                        i,
                        0,
                        worker_faults.get(i) if worker_faults else None,
                    )
                )
                for i in range(workers)
            ]
            while True:
                now = time.monotonic()
                for i, slot in enumerate(slots):
                    if slot.done:
                        continue
                    if slot.proc is not None:
                        if slot.proc.is_alive():
                            continue
                        slot.proc.join()
                        code = slot.proc.exitcode
                        slot.exit_codes.append(code)
                        slot.proc = None
                        if code in _NO_RESPAWN_EXITS:
                            slot.done = True
                            continue
                        slot.failures += 1
                        if slot.failures > max_worker_respawns:
                            slot.done = True
                            lines.append(
                                f"[driver] worker {i} exhausted its "
                                f"{max_worker_respawns}-respawn budget "
                                f"(exit codes {slot.exit_codes}); the "
                                f"serial pass covers its keys"
                            )
                            continue
                        backoff = respawn_backoff_s * 2 ** (slot.failures - 1)
                        slot.restart_at = now + backoff
                        lines.append(
                            f"[driver] worker {i} died (exit {code}); "
                            f"respawn {slot.failures}/{max_worker_respawns} "
                            f"in {backoff:.2f}s"
                        )
                    elif (
                        slot.restart_at is not None
                        and now >= slot.restart_at
                    ):
                        # Respawns run fault-free under a fresh owner id:
                        # the planned fault already happened, and the dead
                        # worker's leases must expire, not be adopted.
                        slot.restart_at = None
                        slot.proc = _spawn(i, slot.failures, None)
                if all(slot.done for slot in slots):
                    break
                if deadline is not None and now >= deadline:
                    # Stuck fleet: the serial pass takes over.
                    for slot in slots:
                        if slot.proc is not None:
                            if slot.proc.is_alive():
                                slot.proc.terminate()
                            slot.proc.join()
                            slot.exit_codes.append(slot.proc.exitcode)
                            slot.proc = None
                        slot.done = True
                    break
                time.sleep(_SUPERVISE_POLL_S)
            exit_codes = [c for slot in slots for c in slot.exit_codes]
        # Final pass — also the single-process mode.  On a store the fleet
        # completed this is a pure warm read (zero claims, zero day
        # tasks); after a crash it serially fills whatever holes are left,
        # so the batch always ends with a complete grid.
        closer = SweepWorker(
            job.make_runner(mode="serial"),
            sub_store,
            lease_ttl_s=lease_ttl_s,
            claim_chunk=max(claim_chunk, 1),
            poll_interval_s=poll_interval_s,
            timeout_s=worker_timeout_s,
            log=lines.append,
        )
        report = closer.run()
        elapsed = time.perf_counter() - t0
        order.append(job.name)
        reports[job.name] = report
        stats = closer.last_worker_stats
        lines.append(
            f"[driver] grid {job.name!r}: {report.n_scenarios} scenarios in "
            f"{elapsed:.2f}s with {workers} worker(s); "
            f"final pass analysed {stats.scenarios_analyzed}, "
            f"worker exit codes {exit_codes if exit_codes else '[in-process]'}"
        )
        if log_path is not None:
            with open(log_path, "a", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(line + "\n")

    result = PrioritizedRunResult(order=order, reports=reports, log_paths=log_paths)
    if report_path is not None:
        result.report_path = Path(report_path)
        with open(result.report_path, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return result
