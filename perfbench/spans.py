"""In-memory spans recorded by the benchmark around calls into ``repro``.

A traced run wraps each public call it makes into the program in a span
(name, start, end, parent, run id).  Spans stay in memory until the run
ends, when :meth:`Tracer.to_jsonable` hands them to the record writer.

Every top-level span is a *phase* (``setup``, ``pass``, ``inline``); the
layer spans nest below it.  A span's self time is its duration minus the
part of it its child spans cover, so the self times under one phase sum
to that phase's wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: records nothing."""

    enabled = False

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Records nested spans of one benchmark run (single-threaded)."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # [name, start, end, parent index or -1]
        self._spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self._stack.append(len(self._spans))
        self._spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _self_times(self) -> List[float]:
        own = [end - start for _, start, end, _ in self._spans]
        for _, start, end, parent in self._spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def _phase_of(self) -> List[str]:
        """The name of the phase (root span) each span belongs to."""
        phase: List[str] = []
        for name, _, _, parent in self._spans:
            phase.append(name if parent < 0 else phase[parent])
        return phase

    def layer_seconds(self) -> Dict[str, float]:
        """Summed self time per span name, phases themselves excluded."""
        totals: Dict[str, float] = {}
        for (name, _, _, parent), own in zip(self._spans, self._self_times()):
            if parent >= 0:
                totals[name] = totals.get(name, 0.0) + own
        return totals

    def phase_seconds(self, phase: str) -> float:
        """Total wall time of every root span named ``phase``."""
        return sum(
            end - start
            for name, start, end, parent in self._spans
            if parent < 0 and name == phase
        )

    def coverage(self, phase: str) -> float:
        """Share of a phase's wall time that its layer spans account for."""
        wall = self.phase_seconds(phase)
        if wall <= 0.0:
            return 0.0
        covered = sum(
            own
            for (_, _, _, parent), own, ph in zip(
                self._spans, self._self_times(), self._phase_of()
            )
            if parent >= 0 and ph == phase
        )
        return covered / wall

    def span_counts(self) -> Dict[str, int]:
        """How many spans of each name were recorded."""
        counts: Dict[str, int] = {}
        for name, _, _, _ in self._spans:
            counts[name] = counts.get(name, 0) + 1
        return counts

    def to_jsonable(self, origin: float) -> List[dict]:
        """Spans as plain dicts, times in seconds after ``origin``
        (a ``time.perf_counter()`` reading)."""
        return [
            {
                "name": name,
                "start": start - origin,
                "end": end - origin,
                "parent": parent,
                "run": self.run_id,
            }
            for name, start, end, parent in self._spans
        ]
