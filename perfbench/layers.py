"""Metric results and the per-layer breakdown of a traced run.

Per-layer metrics are named by the ``repro`` package whose public call a
span wraps.  A ``*_s`` metric is the summed self time of that span name
over every traced phase of the run (set-up, traced passes and the inline
baseline); counts and ratios come from counters the workloads keep at the
same call boundaries.  A layer the workload never calls reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from .spans import Tracer


@dataclass(frozen=True)
class Measured:
    """One metric value with its unit and the number of samples behind it."""

    value: float
    unit: str
    n: int = 1


@dataclass
class RunResult:
    """What one workload run reports.

    ``metrics`` are the gated metrics named in ``BENCHMARK.json``;
    ``report`` holds the workload's user-facing figures under their own
    names (median and tail latencies, throughput, error rate), printed
    and recorded but not gated.  ``failures`` lists failed output checks;
    a run with any failure is incorrect and reports no metrics.
    """

    attempted: int
    failed: int
    metrics: Dict[str, Measured]
    failures: List[str] = field(default_factory=list)
    report: Dict[str, Measured] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.failures


#: Timed layer metrics and the span each one sums.
SPAN_METRICS: Dict[str, str] = {
    "simulation.collect_s": "simulation.collect",
    "features.rolling_std_s": "features.rolling_std",
    "core.md_grid_s": "core.md_grid",
    "core.re_dataset_s": "core.re_dataset",
    "ml.re_cv_s": "ml.re_cv",
    "zones.day_grid_s": "zones.day_grid",
    "zones.score_s": "zones.score",
    "analysis.store_put_s": "analysis.store_put",
    "analysis.store_key_s": "analysis.store_key",
    "analysis.store_get_s": "analysis.store_get",
    "analysis.from_dict_s": "analysis.from_dict",
    "analysis.to_json_s": "analysis.to_json",
    "streaming.source_s": "streaming.source",
    "streaming.detect_s": "streaming.detect",
    "zones.engine_s": "zones.engine",
    "streaming.submit_wait_s": "streaming.submit",
    "streaming.drain_wait_s": "streaming.drain",
}

#: Counted layer metrics and their units.
COUNT_METRICS: Dict[str, str] = {
    "simulation.stream_samples": "count",
    "core.md_chains": "count",
    "core.re_windows": "count",
    "ml.svm_fits": "count",
    "analysis.bytes_written": "bytes",
    "analysis.bytes_read": "bytes",
    "streaming.stream_samples": "count",
    "streaming.max_queue_depth": "count",
}

#: Ratio metrics as (numerator counter, denominator counter).
RATIO_METRICS: Dict[str, tuple] = {
    "features.hit_ratio": ("features.hits", "features.lookups"),
    "zones.useful_ratio": ("zones.recordings", "zones.scorings"),
    "analysis.store_hit_ratio": ("analysis.store_hits", "analysis.store_lookups"),
}


def new_counters() -> Dict[str, float]:
    """A zeroed counter set covering every counted and ratio input."""
    names = list(COUNT_METRICS)
    for numerator, denominator in RATIO_METRICS.values():
        names += [numerator, denominator]
    names.append("streaming.inline_busy_s")
    names.append("streaming.router_capacity_s")
    return {name: 0 for name in names}


def per_layer_metrics(
    tracer: Tracer,
    counters: Mapping[str, float],
    *,
    overhead_s: float,
) -> Dict[str, Measured]:
    """Every per-layer metric of a traced run."""
    seconds = tracer.layer_seconds()
    span_counts = tracer.span_counts()
    metrics: Dict[str, Measured] = {}
    for metric, span_name in SPAN_METRICS.items():
        metrics[metric] = Measured(
            seconds.get(span_name, 0.0), "s", span_counts.get(span_name, 0)
        )
    for metric, unit in COUNT_METRICS.items():
        metrics[metric] = Measured(float(counters[metric]), unit)
    for metric, (numerator, denominator) in RATIO_METRICS.items():
        den = counters[denominator]
        metrics[metric] = Measured(
            counters[numerator] / den if den else 0.0, "fraction", int(den)
        )
    capacity = counters["streaming.router_capacity_s"]
    metrics["streaming.parallel_efficiency"] = Measured(
        counters["streaming.inline_busy_s"] / capacity if capacity else 0.0,
        "fraction",
    )
    metrics["trace.coverage"] = Measured(tracer.coverage("pass"), "fraction")
    metrics["trace.overhead_s"] = Measured(overhead_s, "s")
    return metrics
