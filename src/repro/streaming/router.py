"""Multi-tenant ingestion: many offices, sharded workers, bounded queues.

:class:`IngestRouter` is the front-end the north-star service shape calls
for: every office (*tenant*) owns an independent
:class:`~repro.streaming.detector.OnlineDetector`, tenants are assigned
round-robin to a fixed worker shard at registration, and each shard is one
worker thread consuming a bounded :class:`queue.Queue`.  The design gives
three guarantees:

* **per-tenant FIFO** — a tenant's batches are processed by exactly one
  worker in submission order, so its decision stream is never reordered
  (batches of *different* tenants on different shards may interleave
  freely, which is fine — their detectors share no state);
* **backpressure** — :meth:`IngestRouter.submit` blocks once the target
  shard's queue holds ``queue_capacity`` batches, so a slow shard
  throttles its producers instead of buffering unboundedly;
* **clean drain/flush** — :meth:`IngestRouter.drain` blocks until every
  submitted batch is fully processed, and :meth:`IngestRouter.close`
  drains, stops the workers, and closes every tenant's open variation
  window (:meth:`~repro.streaming.detector.OnlineDetector.finalize`), so
  shutdown never drops work in flight.

Worker exceptions (e.g. out-of-order timestamps from a misbehaving
source) are captured and re-raised on the submitting/draining thread, not
swallowed in the worker.

Lifecycle edges are deterministic: ``submit()`` after (or racing with)
``close()`` raises ``RuntimeError`` — it can never slip a batch onto a
queue whose worker has already exited, which would make a later
``drain()`` hang forever on ``Queue.join`` — ``drain()`` after ``close()``
is a no-op, repeated ``close()`` is idempotent, and once a worker has
failed *every* subsequent ``submit``/``drain``/``close``/``register``
re-raises the failure instead of silently doing nothing.

Failure policies
----------------

What happens when processing a batch *fails* is configurable
(``failure_policy``):

* ``"fail_fast"`` (default, the historical behaviour): the failure is
  recorded and re-raised on every subsequent call — zero overhead on the
  happy path;
* ``"restart_shard"``: the shard's tenants are rebuilt from their last
  per-batch checkpoints (:meth:`OnlineDetector.snapshot` after every
  successful batch) and the failed batch is retried, up to
  ``max_shard_restarts`` restarts per shard.  Because checkpoints are
  bit-preserving, a restarted shard's decision stream is **bitwise
  identical** to one that never died;
* ``"quarantine"``: the failing *tenant* is isolated — its batch (and
  every later one) is recorded as a :class:`DeadLetter` on the tenant
  state instead of processed, so one poison tenant cannot take down its
  shard neighbours.

Restart/quarantine/dead-letter counts surface in :class:`RouterStats`;
injected shard deaths (``repro.reliability``'s ``ROUTER_SHARD_DEATH``
point) flow through exactly the same policy code as real failures.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.config import MDConfig
from ..detectors import KdeMdDetector
from ..reliability.faults import ROUTER_SHARD_DEATH, as_injector
from .detector import DetectionBlock, OnlineDetector
from .source import SampleBatch

__all__ = [
    "IngestRouter",
    "RouterStats",
    "TenantState",
    "DeadLetter",
    "FAILURE_POLICIES",
]

#: Recognised ``failure_policy`` values, in documentation order.
FAILURE_POLICIES = ("fail_fast", "restart_shard", "quarantine")

_SHUTDOWN = object()


@dataclass
class RouterStats:
    """Counters describing one router's lifetime.

    ``submitted == processed`` after a successful :meth:`IngestRouter.drain`
    (nothing in flight); ``max_queue_depth`` reaching ``queue_capacity``
    means backpressure actually engaged.  The reliability counters stay
    empty under the default ``fail_fast`` policy: ``shard_restarts`` /
    ``shard_quarantines`` count recovery events per shard index, and
    ``dead_letters`` counts rejected batches per tenant (the batches
    themselves are kept on :attr:`TenantState.dead_letters`).
    """

    n_tenants: int = 0
    batches_submitted: int = 0
    batches_processed: int = 0
    samples_processed: int = 0
    max_queue_depth: int = 0
    tenants_quarantined: int = 0
    shard_restarts: Dict[int, int] = field(default_factory=dict)
    shard_quarantines: Dict[int, int] = field(default_factory=dict)
    dead_letters: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class DeadLetter:
    """One batch a quarantined tenant could not have processed."""

    tenant: str
    t_first: float
    t_last: float
    n_samples: int
    error: str


@dataclass
class TenantState:
    """Everything the router holds for one office."""

    tenant: str
    shard: int
    detector: OnlineDetector
    blocks: List[DetectionBlock] = field(default_factory=list)
    n_batches: int = 0
    n_samples: int = 0
    # Reliability state: the last per-batch checkpoint (populated only
    # under the restart_shard policy), how many times this tenant's
    # detector was rebuilt from it, and the quarantine record.
    checkpoint: Optional[Dict[str, Any]] = None
    restores: int = 0
    quarantined: bool = False
    dead_letters: List[DeadLetter] = field(default_factory=list)

    def concatenated(self) -> DetectionBlock:
        """The tenant's whole decision stream as one block."""
        if not self.blocks:
            empty = np.empty(0)
            return DetectionBlock(
                times=empty,
                std_sums=empty.copy(),
                decisions=np.empty(0, dtype=np.int8),
                thresholds=empty.copy(),
                durations=empty.copy(),
            )
        zone_scores = zone_occupancy = None
        if all(b.zone_scores is not None for b in self.blocks):
            zone_scores = np.concatenate(
                [b.zone_scores for b in self.blocks]
            )
            zone_occupancy = np.concatenate(
                [b.zone_occupancy for b in self.blocks]
            )
        return DetectionBlock(
            times=np.concatenate([b.times for b in self.blocks]),
            std_sums=np.concatenate([b.std_sums for b in self.blocks]),
            decisions=np.concatenate([b.decisions for b in self.blocks]),
            thresholds=np.concatenate([b.thresholds for b in self.blocks]),
            durations=np.concatenate([b.durations for b in self.blocks]),
            zone_scores=zone_scores,
            zone_occupancy=zone_occupancy,
        )


class IngestRouter:
    """Route sample batches from many offices to sharded detector workers.

    Parameters
    ----------
    n_workers:
        Worker shard count.  Tenants are assigned round-robin at
        registration and never migrate, preserving per-tenant order.
    queue_capacity:
        Bound of each shard's batch queue — the backpressure knob.
        Producers block in :meth:`submit` once their tenant's shard is
        this far behind.
    config / sample_rate_hz / detector:
        Defaults for detectors built at registration (overridable per
        tenant); ``detector`` is a detector-zoo member
        (``repro.detectors``), the paper's KDE detector by default.
    keep_blocks:
        Keep every processed :class:`DetectionBlock` on the tenant state
        (the load-generator / equivalence-test mode).  A long-running
        service would set this ``False`` and act on
        :attr:`TenantState.detector` instead.
    failure_policy:
        What a batch-processing failure does: ``"fail_fast"`` (record and
        re-raise — the default), ``"restart_shard"`` (rebuild the shard's
        tenants from their last checkpoints and retry, up to
        ``max_shard_restarts`` per shard) or ``"quarantine"`` (isolate
        the failing tenant, dead-lettering its batches).
    max_shard_restarts:
        Per-shard restart budget under ``restart_shard``; once exhausted
        the shard fails fast.
    faults:
        Optional :class:`~repro.reliability.FaultPlan` /
        :class:`~repro.reliability.FaultInjector` — enables the
        ``router.shard_death`` injection point, which fires *after* a
        batch is computed but before it is recorded, so recovery must
        genuinely re-derive the batch from checkpoints.
    """

    def __init__(
        self,
        *,
        n_workers: int = 4,
        queue_capacity: int = 64,
        config: Optional[MDConfig] = None,
        sample_rate_hz: float = 4.0,
        keep_blocks: bool = True,
        detector: object = KdeMdDetector(),
        failure_policy: str = "fail_fast",
        max_shard_restarts: int = 3,
        faults: Optional[object] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        if max_shard_restarts < 0:
            raise ValueError("max_shard_restarts must be >= 0")
        self._config = config if config is not None else MDConfig()
        self._rate = float(sample_rate_hz)
        self._detector = detector
        self._keep_blocks = bool(keep_blocks)
        self._policy = failure_policy
        self._max_shard_restarts = int(max_shard_restarts)
        self._faults = as_injector(faults)
        self._tenants: Dict[str, TenantState] = {}
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.stats = RouterStats()
        self._queues: List["queue.Queue"] = [
            queue.Queue(maxsize=queue_capacity) for _ in range(n_workers)
        ]
        # One submit lock per shard: submit() holds its shard's lock across
        # the closed-recheck and the q.put, and close() cycles every lock
        # after setting _closed, so no batch can land on a queue whose
        # worker has already been told to shut down.
        self._submit_locks = [threading.Lock() for _ in self._queues]
        self._close_lock = threading.Lock()
        self._failure: Optional[BaseException] = None
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                args=(i, q),
                name=f"ingest-worker-{i}",
                daemon=True,
            )
            for i, q in enumerate(self._queues)
        ]
        for w in self._workers:
            w.start()

    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        return len(self._queues)

    @property
    def tenants(self) -> List[str]:
        with self._lock:
            return list(self._tenants.keys())

    def tenant_state(self, tenant: str) -> TenantState:
        with self._lock:
            return self._tenants[tenant]

    def _check_failure(self) -> None:
        if self._failure is not None:
            raise RuntimeError(
                "an ingest worker failed; the router is unusable"
            ) from self._failure

    # ------------------------------------------------------------------ #
    def register(
        self,
        tenant: str,
        stream_ids: Sequence[str],
        *,
        config: Optional[MDConfig] = None,
        sample_rate_hz: Optional[float] = None,
        detector: Optional[object] = None,
        zones: Optional[object] = None,
        restore_from: Optional[Dict[str, Any]] = None,
    ) -> TenantState:
        """Register an office, assigning it to the next shard round-robin.

        ``detector`` overrides the router's default zoo member for this
        tenant, so one router can host heterogeneous per-tenant detectors
        (each tenant's engine is private state on its own shard).
        ``zones`` hosts a per-tenant
        :class:`~repro.zones.estimator.ZoneEngine` next to the detector —
        engines are stateful, so every tenant needs its own instance.

        ``restore_from`` resumes the tenant mid-stream from an
        :meth:`OnlineDetector.snapshot` checkpoint (e.g. one taken by
        :meth:`checkpoint_tenants` in a previous router's life); the
        snapshot is self-describing, so ``config`` / ``sample_rate_hz`` /
        ``detector`` / ``zones`` must be left unset and ``stream_ids``
        must match the checkpointed ids.
        """
        self._check_failure()
        if self._closed:
            raise RuntimeError("router is closed")
        if restore_from is not None:
            if (
                config is not None
                or sample_rate_hz is not None
                or detector is not None
                or zones is not None
            ):
                raise ValueError(
                    "restore_from carries config/rate/detector itself; do "
                    "not combine it with explicit overrides"
                )
            online = OnlineDetector.from_snapshot(restore_from)
            if online.stream_ids != list(stream_ids):
                raise ValueError(
                    f"checkpoint stream ids {online.stream_ids} do not "
                    f"match the registration's {list(stream_ids)}"
                )
        else:
            online = OnlineDetector(
                stream_ids,
                config if config is not None else self._config,
                sample_rate_hz=(
                    sample_rate_hz
                    if sample_rate_hz is not None
                    else self._rate
                ),
                detector=(
                    detector if detector is not None else self._detector
                ),
                zones=zones,
            )
        with self._lock:
            if tenant in self._tenants:
                raise ValueError(f"tenant {tenant!r} is already registered")
            shard = len(self._tenants) % len(self._queues)
            state = TenantState(tenant=tenant, shard=shard, detector=online)
            if self._policy == "restart_shard":
                # Seed the recovery point: a shard death before the
                # tenant's first successful batch restores to "freshly
                # registered" (or to the restore_from point).
                state.checkpoint = online.snapshot()
            self._tenants[tenant] = state
            with self._stats_lock:
                self.stats.n_tenants += 1
            return state

    def checkpoint_tenants(self) -> Dict[str, Dict[str, Any]]:
        """Drain, then snapshot every tenant's detector mid-stream.

        Returns ``{tenant: snapshot}`` suitable for ``register(...,
        restore_from=...)`` on a fresh router.  Unlike :meth:`close` this
        does **not** finalize open variation windows, so a restored
        router continues the streams bitwise-identically.
        """
        if not self._closed:
            self.drain()
        with self._lock:
            states = list(self._tenants.values())
        return {state.tenant: state.detector.snapshot() for state in states}

    def submit(self, batch: SampleBatch) -> None:
        """Enqueue one batch; blocks when the tenant's shard queue is full.

        Raises :class:`RuntimeError` if the router is closed (or closes
        concurrently) and re-raises the first worker failure, so a batch
        never lands on a queue nobody will consume.
        """
        self._check_failure()
        if self._closed:
            raise RuntimeError("router is closed")
        with self._lock:
            state = self._tenants.get(batch.tenant)
        if state is None:
            raise KeyError(
                f"tenant {batch.tenant!r} is not registered with this router"
            )
        q = self._queues[state.shard]
        # Re-check under the shard's submit lock: close() sets _closed and
        # then cycles this lock, so either we enqueue before close() starts
        # draining, or we observe _closed and raise — never a put onto a
        # queue whose worker has exited (which would hang a later drain()).
        with self._submit_locks[state.shard]:
            if self._closed:
                raise RuntimeError("router is closed")
            q.put((state, batch))
            depth = q.qsize()
        with self._stats_lock:
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            self.stats.batches_submitted += 1

    def drain(self) -> None:
        """Block until every submitted batch has been fully processed.

        After :meth:`close`, draining is a deterministic no-op (everything
        was already flushed); a recorded worker failure is re-raised either
        way.  Safe to call repeatedly.
        """
        if self._closed:
            self._check_failure()
            return
        for q in self._queues:
            q.join()
        self._check_failure()

    def close(self) -> None:
        """Drain, stop the workers, and finalize every tenant's detector.

        Idempotent — but if a worker failed, *every* call re-raises that
        failure rather than only the first, so callers cannot miss it.
        """
        with self._close_lock:
            if not self._closed:
                self._closed = True
                # Fence: after this, no submit() can be between its closed
                # re-check and its q.put, so the queues only shrink.
                for lock in self._submit_locks:
                    with lock:
                        pass
                try:
                    for q in self._queues:
                        q.join()
                finally:
                    for q in self._queues:
                        q.put(_SHUTDOWN)
                    for w in self._workers:
                        w.join()
                for state in self._tenants.values():
                    state.detector.finalize()
        self._check_failure()

    def __enter__(self) -> "IngestRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            # Already failing: best-effort shutdown without masking the
            # original exception.
            try:
                self.close()
            except RuntimeError:
                pass

    # ------------------------------------------------------------------ #
    def _worker_loop(self, shard: int, q: "queue.Queue") -> None:
        while True:
            item = q.get()
            if item is _SHUTDOWN:
                q.task_done()
                return
            state, batch = item
            try:
                if self._failure is None:
                    self._process_one(shard, state, batch)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                with self._stats_lock:
                    if self._failure is None:
                        self._failure = exc
            finally:
                q.task_done()

    def _process_one(
        self, shard: int, state: TenantState, batch: SampleBatch
    ) -> None:
        """Process one batch under the router's failure policy."""
        if state.quarantined:
            self._dead_letter(state, batch, "tenant is quarantined")
            return
        while True:
            try:
                block = state.detector.process_block(
                    batch.times, batch.samples
                )
                if self._faults is not None:
                    # Fires *after* the compute: a recovered shard must
                    # re-derive this block from the checkpoint, which is
                    # what makes the restart path's bit-identity claim a
                    # real one.
                    spec = self._faults.fired(ROUTER_SHARD_DEATH)
                    if spec is not None:
                        self._faults.apply(spec)
            except BaseException as exc:  # noqa: BLE001 - policy decides
                if self._policy == "quarantine":
                    state.quarantined = True
                    self._dead_letter(state, batch, repr(exc))
                    with self._stats_lock:
                        self.stats.tenants_quarantined += 1
                        self.stats.shard_quarantines[shard] = (
                            self.stats.shard_quarantines.get(shard, 0) + 1
                        )
                    return
                if self._policy == "restart_shard":
                    with self._stats_lock:
                        used = self.stats.shard_restarts.get(shard, 0)
                        budget_left = used < self._max_shard_restarts
                        if budget_left:
                            self.stats.shard_restarts[shard] = used + 1
                    if budget_left:
                        self._restart_shard(shard)
                        continue
                raise
            break
        if self._keep_blocks:
            state.blocks.append(block)
        state.n_batches += 1
        state.n_samples += batch.n_samples
        if self._policy == "restart_shard":
            state.checkpoint = state.detector.snapshot()
        with self._stats_lock:
            self.stats.batches_processed += 1
            self.stats.samples_processed += batch.n_samples

    def _restart_shard(self, shard: int) -> None:
        """Rebuild every tenant on ``shard`` from its last checkpoint."""
        with self._lock:
            states = [
                s for s in self._tenants.values() if s.shard == shard
            ]
        for state in states:
            assert state.checkpoint is not None  # seeded at registration
            state.detector = OnlineDetector.from_snapshot(state.checkpoint)
            state.restores += 1

    def _dead_letter(
        self, state: TenantState, batch: SampleBatch, error: str
    ) -> None:
        times = np.asarray(batch.times, dtype=float)
        state.dead_letters.append(
            DeadLetter(
                tenant=state.tenant,
                t_first=float(times[0]) if times.size else float("nan"),
                t_last=float(times[-1]) if times.size else float("nan"),
                n_samples=batch.n_samples,
                error=error,
            )
        )
        with self._stats_lock:
            self.stats.dead_letters[state.tenant] = (
                self.stats.dead_letters.get(state.tenant, 0) + 1
            )
