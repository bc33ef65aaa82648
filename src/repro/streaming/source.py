"""Stream sources: recorded days replayed as timestamped sample batches.

The ingestion side of the streaming engine speaks one currency — the
:class:`SampleBatch`: a tenant id, a strictly increasing timestamp vector
and the matching ``(m, n_streams)`` sample block.  A :class:`StreamSource`
is anything that yields them in time order; :class:`DayRecordingSource`
adapts a recorded :class:`~repro.simulation.collector.DayRecording` (or a
bare :class:`~repro.radio.trace.RssiTrace`), chopping it into
fixed-size batches the way a live collector would deliver them, and
:func:`merge_by_time` interleaves many tenants' sources into one global
arrival sequence — the multi-tenant load generator driving
:class:`~repro.streaming.router.IngestRouter` in the example and the
benchmark.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..radio.trace import RssiTrace
from ..reliability.faults import SOURCE_DROP_BATCH, as_injector
from ..simulation.collector import DayRecording

__all__ = [
    "SampleBatch",
    "StreamSource",
    "DayRecordingSource",
    "merge_by_time",
]

_CHUNK_ROWS = 1024  # rows per gathered block (see DayRecordingSource)


@dataclass(frozen=True)
class SampleBatch:
    """One timestamped multi-stream sample batch from one tenant.

    Attributes
    ----------
    tenant:
        Office id the batch belongs to.
    times:
        Strictly increasing ``(m,)`` timestamps.
    samples:
        ``(m, n_streams)`` RSSI block, columns in the source's
        ``stream_ids`` order.
    """

    tenant: str
    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "times", np.asarray(self.times, dtype=float)
        )
        object.__setattr__(
            self, "samples", np.asarray(self.samples, dtype=float)
        )
        if self.times.ndim != 1 or self.samples.ndim != 2:
            raise ValueError("times must be (m,) and samples (m, n_streams)")
        if self.times.shape[0] != self.samples.shape[0]:
            raise ValueError("times and samples must have equal length")
        if self.times.shape[0] == 0:
            raise ValueError("a sample batch cannot be empty")
        if self.times.shape[0] > 1 and bool(
            np.any(np.diff(self.times) <= 0)
        ):
            raise ValueError("timestamps must be strictly increasing")

    @property
    def n_samples(self) -> int:
        return int(self.times.shape[0])

    @property
    def t_first(self) -> float:
        return float(self.times[0])

    @property
    def t_last(self) -> float:
        return float(self.times[-1])


class StreamSource:
    """Iterator over a tenant's :class:`SampleBatch` sequence, in time order.

    Subclasses yield batches whose timestamps strictly increase across the
    whole iteration (batch ``i+1`` starts after batch ``i`` ends).  A
    source is single-pass, like any generator-backed feed.
    """

    tenant: str
    stream_ids: List[str]

    def __iter__(self) -> Iterator[SampleBatch]:  # pragma: no cover
        raise NotImplementedError


class DayRecordingSource(StreamSource):
    """Replay one recorded day as a stream of fixed-size sample batches.

    Parameters
    ----------
    tenant:
        Office id stamped on every batch.
    day:
        A :class:`~repro.simulation.collector.DayRecording` or a bare
        :class:`~repro.radio.trace.RssiTrace`.
    stream_ids:
        Sensor subset (and column order) to replay; defaults to all
        streams of the trace in recording order.
    batch_samples:
        Samples per batch (the last batch may be shorter).  ``1`` replays
        the day sample by sample, the way a live collector at 4 Hz would.
        Batches are C-contiguous views of a block of whole batches
        (about 1,024 rows) gathered as the iteration reaches it, so a
        source never holds a copy of the whole day.
    faults:
        Optional :class:`~repro.reliability.FaultPlan` /
        :class:`~repro.reliability.FaultInjector` — enables the
        ``source.drop_batch`` point: a firing occurrence silently drops
        that batch in transit (the lossy-radio-uplink hazard), counted in
        :attr:`dropped_batches`.  Downstream detectors keep working —
        timestamps stay strictly increasing across a gap — but their
        outputs reflect the loss, which is exactly what loss-tolerance
        tests need to observe.
    """

    def __init__(
        self,
        tenant: str,
        day: Union[DayRecording, RssiTrace],
        *,
        stream_ids: Optional[Sequence[str]] = None,
        batch_samples: int = 256,
        faults: Optional[object] = None,
    ) -> None:
        if batch_samples < 1:
            raise ValueError("batch_samples must be >= 1")
        trace = day.trace if isinstance(day, DayRecording) else day
        self.tenant = str(tenant)
        self.stream_ids = (
            list(stream_ids) if stream_ids is not None else trace.stream_ids
        )
        self._trace = trace.restricted_view(self.stream_ids)
        self._batch_samples = int(batch_samples)
        self._faults = as_injector(faults)
        self.dropped_batches = 0

    @property
    def n_samples(self) -> int:
        return self._trace.n_samples

    def __iter__(self) -> Iterator[SampleBatch]:
        trace = self._trace
        step = self._batch_samples
        span = max(_CHUNK_ROWS // step, 1) * step
        for lo in range(0, trace.n_samples, step):
            if lo % span == 0:
                block = np.column_stack(
                    [trace.streams[sid][lo : lo + span] for sid in self.stream_ids]
                )
            if (
                self._faults is not None
                and self._faults.fired(SOURCE_DROP_BATCH) is not None
            ):
                self.dropped_batches += 1
                continue
            at = lo % span
            yield SampleBatch(
                tenant=self.tenant,
                times=trace.times[lo : lo + step],
                samples=block[at : at + step],
            )


def merge_by_time(
    sources: Iterable[StreamSource],
) -> Iterator[SampleBatch]:
    """Interleave many tenants' batch streams into global arrival order.

    A k-way heap merge on each batch's first timestamp (ties broken by
    source registration order, so the interleaving is deterministic).
    Every tenant's own batches keep their relative order — the property
    the router's per-tenant FIFO guarantee is tested against.
    """
    iterators = [iter(s) for s in sources]
    heap: List[tuple] = []
    for order, it in enumerate(iterators):
        first = next(it, None)
        if first is not None:
            heap.append((first.t_first, order, first, it))
    heapq.heapify(heap)
    while heap:
        _, order, batch, it = heapq.heappop(heap)
        yield batch
        nxt = next(it, None)
        if nxt is not None:
            heapq.heappush(heap, (nxt.t_first, order, nxt, it))
