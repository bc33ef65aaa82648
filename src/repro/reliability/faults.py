"""Deterministic, seeded fault injection through real seams.

The reliability layer's first principle is that failure handling can only
be trusted if failures are *reproducible*: a chaos run that cannot be
replayed bit-for-bit cannot be debugged, and a recovery path exercised by
``unittest.mock`` monkeypatching proves nothing about the seams production
code actually flows through.  This module therefore gives every
fault-tolerant component a first-class ``faults`` parameter instead:

* a :class:`FaultPlan` is a frozen, picklable description of *which*
  named injection points misbehave, *when* (explicit occurrence indices
  and/or a seeded Bernoulli rate) and *how* (a fault ``kind`` the seam
  interprets: raise, crash, corrupt, drop, stall, skew);
* a :class:`FaultInjector` executes one plan: per-point occurrence
  counters plus a per-point deterministic RNG derived from the plan seed
  and the point name, so the same plan fires at the same occurrences in
  every process that evaluates it — including worker processes the plan
  was pickled into;
* the **injection points** are real seams: components consult the
  injector at the exact place a disk, clock, network or process failure
  would surface (``SweepStore`` I/O, ``LeaseManager`` heartbeats,
  ``SweepWorker`` put boundaries, streaming sources and router shards),
  and the injected failure then flows through the *production* handling
  path — no test double ever substitutes for the code being proven.

Two exception types carry injected failures.  :class:`InjectedFault` is
an ordinary ``RuntimeError``: seams that simulate recoverable component
errors raise it (or translate it into the domain error a real failure
would produce, e.g. ``OSError`` for store I/O).  :class:`InjectedCrash`
derives from ``BaseException`` so it sails past ``except Exception``
recovery code exactly like a ``KeyboardInterrupt`` would — and a *hard*
crash (``hard=True``) calls ``os._exit``, giving the process no chance to
run ``finally`` blocks, the closest in-process stand-in for SIGKILL.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "as_injector",
    "HARD_CRASH_EXIT_CODE",
    "KNOWN_POINTS",
    "STORE_READ",
    "STORE_WRITE",
    "STORE_FSYNC",
    "STORE_CORRUPT",
    "LEASE_HEARTBEAT_STALL",
    "LEASE_CLOCK_SKEW",
    "LEASE_UNLINK_RACE",
    "WORKER_CRASH_BEFORE_PUT",
    "WORKER_CRASH_AFTER_PUT",
    "SOURCE_DROP_BATCH",
    "ROUTER_SHARD_DEATH",
]

#: SweepStore record read: fires a transient I/O error (counted a miss,
#: the file is left in place — exactly what a real EIO does).
STORE_READ = "store.read"
#: SweepStore record write: ``put`` fails with ``OSError`` before the
#: atomic replace, leaving the previous record (or no record) intact.
STORE_WRITE = "store.write"
#: SweepStore durability barrier: the ``fsync`` before the atomic replace
#: fails, so the write aborts without publishing a maybe-unflushed record.
STORE_FSYNC = "store.fsync"
#: SweepStore record corruption: the serialised record is mangled on the
#: way to disk (bitrot / torn-sector stand-in); the checksum/parse path
#: must quarantine it on the next read.
STORE_CORRUPT = "store.corrupt"
#: LeaseManager heartbeat thread: skips renewal ticks, so a short-TTL
#: lease expires under a live owner and competitors may steal it.
LEASE_HEARTBEAT_STALL = "lease.heartbeat_stall"
#: LeaseManager wall clock: a constant skew (``payload`` seconds) applied
#: to every time read — the cross-host clock-disagreement hazard.
LEASE_CLOCK_SKEW = "lease.clock_skew"
#: LeaseManager expired-lease break: a competitor wins the unlink→link
#: race (a fresh foreign lease appears between our unlink and our link).
LEASE_UNLINK_RACE = "lease.unlink_race"
#: SweepWorker: crash at the instant *before* a scenario record is put —
#: the work is lost, the lease left to expire.
WORKER_CRASH_BEFORE_PUT = "worker.crash_before_put"
#: SweepWorker: crash immediately *after* a record is put — the record
#: survives, the lease is orphaned; recovery must not duplicate it.
WORKER_CRASH_AFTER_PUT = "worker.crash_after_put"
#: Streaming source: a sample batch is dropped in transit.
SOURCE_DROP_BATCH = "source.drop_batch"
#: IngestRouter shard worker: dies after computing a batch but before
#: recording it — the failure-policy layer must recover the tenant state.
ROUTER_SHARD_DEATH = "router.shard_death"

#: Every injection point threaded through the codebase.  Plans naming an
#: unknown point are rejected at construction — a typo in a chaos plan
#: must fail loudly, not silently inject nothing.
KNOWN_POINTS = frozenset(
    {
        STORE_READ,
        STORE_WRITE,
        STORE_FSYNC,
        STORE_CORRUPT,
        LEASE_HEARTBEAT_STALL,
        LEASE_CLOCK_SKEW,
        LEASE_UNLINK_RACE,
        WORKER_CRASH_BEFORE_PUT,
        WORKER_CRASH_AFTER_PUT,
        SOURCE_DROP_BATCH,
        ROUTER_SHARD_DEATH,
    }
)

#: Exit code of hard-crash injections (``os._exit``).  Distinct from 0,
#: from SIGTERM's 143 and from python's generic 1, so tests and the fleet
#: supervisor can tell an injected crash from every other death.
HARD_CRASH_EXIT_CODE = 70


class InjectedFault(RuntimeError):
    """A recoverable component failure raised at an injection point."""

    def __init__(self, point: str) -> None:
        super().__init__(f"injected fault at {point!r}")
        self.point = point


class InjectedCrash(BaseException):
    """A process-death stand-in.

    Derives from ``BaseException`` so ordinary ``except Exception``
    recovery cannot swallow it: the worker dies, and only its supervisor
    (or an explicit chaos-aware harness) sees it again.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"injected crash at {point!r}")
        self.point = point


@dataclass(frozen=True)
class FaultSpec:
    """When and how one injection point misbehaves.

    Attributes
    ----------
    point:
        Injection-point name (one of :data:`KNOWN_POINTS`).
    hits:
        Explicit 0-based occurrence indices at which the fault fires —
        occurrence ``n`` is the ``n``-th time the component consults this
        point.  Deterministic regardless of seed.
    probability:
        Additional per-occurrence Bernoulli fire rate, drawn from the
        plan-and-point-seeded RNG (so the realisation is deterministic
        too).  ``0.0`` fires only at ``hits``.
    max_fires:
        Cap on total fires of this spec; ``None`` is unbounded.
    kind:
        How the seam should misbehave: ``"error"`` (raise the failure a
        real fault would produce), ``"crash"`` (process death), and the
        seam-specific kinds ``"corrupt"``, ``"drop"``, ``"stall"``,
        ``"skew"``.
    payload:
        Kind-specific magnitude (e.g. clock-skew seconds).
    hard:
        For ``"crash"``: ``os._exit`` (SIGKILL-like, no ``finally``
        cleanup) instead of raising :class:`InjectedCrash`.
    """

    point: str
    hits: Tuple[int, ...] = ()
    probability: float = 0.0
    max_fires: Optional[int] = None
    kind: str = "error"
    payload: float = 0.0
    hard: bool = False

    def __post_init__(self) -> None:
        if self.point not in KNOWN_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; known points: "
                f"{sorted(KNOWN_POINTS)}"
            )
        object.__setattr__(
            self, "hits", tuple(int(h) for h in self.hits)
        )
        if any(h < 0 for h in self.hits):
            raise ValueError(f"hits must be >= 0, got {self.hits}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError(f"max_fires must be >= 1, got {self.max_fires}")
        if not self.hits and self.probability == 0.0:
            raise ValueError(
                f"spec for {self.point!r} can never fire: give hits or a "
                "positive probability"
            )


def _point_rng(seed: int, point: str) -> np.random.Generator:
    """A deterministic per-point generator, stable across processes.

    Derived from the plan seed and a SHA-256 digest of the point name —
    *not* python's salted ``hash`` — so a pickled plan realises the same
    Bernoulli draws in every worker that evaluates it.
    """
    digest = int.from_bytes(
        hashlib.sha256(point.encode("utf-8")).digest()[:8], "big"
    )
    return np.random.default_rng(np.random.SeedSequence([int(seed), digest]))


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, picklable chaos schedule: specs plus the realisation seed.

    One plan describes one process's worth of misbehaviour; build the
    executable side with :meth:`injector` (or pass the plan itself to a
    component — they accept either and build the injector internally).
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"specs must be FaultSpecs, got {spec!r}")

    @classmethod
    def of(cls, *specs: FaultSpec, seed: int = 0) -> "FaultPlan":
        return cls(specs=specs, seed=seed)

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


def as_injector(
    faults: "Optional[FaultPlan | FaultInjector]",
) -> "Optional[FaultInjector]":
    """Normalise a component's ``faults`` argument (plan, injector, None)."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return faults.injector()
    raise TypeError(
        f"faults must be a FaultPlan or FaultInjector, got {type(faults).__name__}"
    )


class _PointState:
    __slots__ = ("occurrences", "fires", "rng")

    def __init__(self, rng: np.random.Generator) -> None:
        self.occurrences = 0
        self.fires = 0
        self.rng = rng


class FaultInjector:
    """Executes one :class:`FaultPlan`: thread-safe, deterministic.

    Components call :meth:`fired` at their seams; the spec (or ``None``)
    tells them whether — and how — to misbehave at this occurrence.  All
    decision state (occurrence counters, Bernoulli streams) lives here,
    so the seam code stays a two-line guard.
    """

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise TypeError(f"plan must be a FaultPlan, got {type(plan).__name__}")
        self._plan = plan
        self._lock = threading.Lock()
        self._points: Dict[str, _PointState] = {
            point: _PointState(_point_rng(plan.seed, point))
            for point in {s.point for s in plan.specs}
        }

    @property
    def plan(self) -> FaultPlan:
        return self._plan

    # ------------------------------------------------------------------ #
    def fired(self, point: str) -> Optional[FaultSpec]:
        """Consult one injection point; return the firing spec or ``None``.

        Counts one *occurrence* of the point either way.  Of several
        specs on one point, the first that fires wins (plan order).
        """
        state = self._points.get(point)
        if state is None:
            return None
        with self._lock:
            occurrence = state.occurrences
            state.occurrences += 1
            for spec in self._plan.specs:
                if spec.point != point:
                    continue
                if spec.max_fires is not None and state.fires >= spec.max_fires:
                    continue
                hit = occurrence in spec.hits
                if not hit and spec.probability > 0.0:
                    hit = bool(state.rng.random() < spec.probability)
                elif spec.probability > 0.0:
                    # Keep the Bernoulli stream aligned with occurrences
                    # even on explicit hits, so adding a hit index never
                    # re-times every later probabilistic fire.
                    state.rng.random()
                if hit:
                    state.fires += 1
                    return spec
            return None

    def check(self, point: str) -> None:
        """Consult a point and apply the default effect of a firing spec.

        ``kind="error"`` raises :class:`InjectedFault`; ``kind="crash"``
        raises :class:`InjectedCrash` (or hard-exits the process).  Seams
        that interpret richer kinds use :meth:`fired` directly.
        """
        spec = self.fired(point)
        if spec is None:
            return
        self.apply(spec)

    def apply(self, spec: FaultSpec) -> None:
        """Raise/crash according to a spec already known to have fired."""
        if spec.kind == "crash":
            if spec.hard:
                os._exit(HARD_CRASH_EXIT_CODE)
            raise InjectedCrash(spec.point)
        raise InjectedFault(spec.point)

    def constant(self, point: str) -> Optional[FaultSpec]:
        """The first spec on a point, without counting an occurrence.

        Persistent conditions (clock skew) are properties, not events:
        components read them once instead of polling an occurrence
        stream.
        """
        for spec in self._plan.specs:
            if spec.point == point:
                return spec
        return None

    # ------------------------------------------------------------------ #
    def occurrences(self, point: str) -> int:
        state = self._points.get(point)
        with self._lock:
            return 0 if state is None else state.occurrences

    def fires(self, point: str) -> int:
        state = self._points.get(point)
        with self._lock:
            return 0 if state is None else state.fires

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-point ``{"occurrences": n, "fires": m}`` counters."""
        with self._lock:
            return {
                point: {
                    "occurrences": state.occurrences,
                    "fires": state.fires,
                }
                for point, state in sorted(self._points.items())
            }
