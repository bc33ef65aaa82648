"""Reliability layer: deterministic fault injection + lossless recovery.

:mod:`repro.reliability.faults` holds a seeded, picklable
:class:`FaultPlan` executed by a :class:`FaultInjector` at named
injection points threaded through the *production* seams of the store,
the lease protocol, the sweep workers and the streaming stack (no
monkeypatching), so every chaos run is replayable bit for bit.  The
streaming kernel's ``snapshot()`` dicts are plain JSON values, and
``json.dumps`` / ``json.loads`` round-trip every float64 bit for bit
(NaN and ±inf as bare tokens), so a checkpoint needs no codec of its own.

The recovery paths themselves live with the components they protect:
checksummed quarantine in :mod:`repro.analysis.sweep_store`, supervised
respawn in :func:`repro.analysis.sweep_queue.run_prioritized`, shard
restart / tenant quarantine policies in
:class:`repro.streaming.IngestRouter`.
"""

from .faults import (
    HARD_CRASH_EXIT_CODE,
    KNOWN_POINTS,
    LEASE_CLOCK_SKEW,
    LEASE_HEARTBEAT_STALL,
    LEASE_UNLINK_RACE,
    ROUTER_SHARD_DEATH,
    SOURCE_DROP_BATCH,
    STORE_CORRUPT,
    STORE_FSYNC,
    STORE_READ,
    STORE_WRITE,
    WORKER_CRASH_AFTER_PUT,
    WORKER_CRASH_BEFORE_PUT,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    as_injector,
)

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedFault",
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
