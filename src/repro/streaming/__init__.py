"""Incremental streaming detection engine.

The paper's movement-detection pipeline is inherently online — samples
arrive, a rolling std is updated, Rule 1 / Rule 2 fire in real time.
This package is its detection kernel, a true incremental engine:

* :class:`~repro.streaming.detector.OnlineDetector` — bounded-state,
  batch-capable detection kernel: constant work per sample (independent of
  stream length), **bit-identical** to the scalar per-sample reference
  in ``tests/oracles/movement.py``, to the detector's engine over the
  whole ``s_t`` series and to the sweep's
  ``evaluate_md_grid`` (per-day ``s_t``, thresholds and windows), whatever
  the arrival batching (``tests/test_streaming_equivalence.py``);
  its :class:`~repro.streaming.detector.WindowTracker` is the one
  variation-window automaton, which the sweep runs as well;
* :class:`~repro.streaming.source.DayRecordingSource` /
  :func:`~repro.streaming.source.merge_by_time` — ``stream()``-style
  iterator sources replaying :class:`~repro.simulation.collector.DayRecording`
  traces as timestamped sample batches, and the multi-tenant load
  generator interleaving many tenants' batches in arrival order;
* :class:`~repro.streaming.router.IngestRouter` — the ingestion front-end
  multiplexing many concurrent offices: per-tenant detector state,
  round-robin shards of bounded pending lists processed on the callers'
  threads (the router starts none), a clean drain/flush on shutdown that
  never reorders a tenant's decisions, and configurable failure policies
  (``fail_fast`` / ``restart_shard`` from per-batch checkpoints /
  ``quarantine`` with dead-letter records).

Every stateful piece checkpoints: ``snapshot()``/``restore()`` round-trip
the kernel's bounded state through ``json.dumps``/``json.loads``
bit-exactly, so a killed stream resumed from a checkpoint is
indistinguishable from one that never stopped.

The live system's MD is this kernel:
:meth:`~repro.core.system.FadewichSystem.process_sample` feeds it one
sample at a time, and
:meth:`~repro.core.system.FadewichSystem.replay_day` delivers a whole
recorded day as a single batch.
"""

from .detector import (
    DetectionBlock,
    OnlineDetector,
    OnlineProfile,
    OnlineStdSum,
    WindowTracker,
)
from .router import (
    FAILURE_POLICIES,
    DeadLetter,
    IngestRouter,
    RouterStats,
    TenantState,
)
from .source import DayRecordingSource, SampleBatch, StreamSource, merge_by_time

__all__ = [
    "DetectionBlock",
    "OnlineDetector",
    "OnlineProfile",
    "OnlineStdSum",
    "WindowTracker",
    "SampleBatch",
    "StreamSource",
    "DayRecordingSource",
    "merge_by_time",
    "IngestRouter",
    "RouterStats",
    "TenantState",
    "DeadLetter",
    "FAILURE_POLICIES",
]
