"""Self-checks of the end-to-end benchmark harness at tiny sizes.

The workloads run here at toy sizes only, and no test looks at a
wall-clock number.  They check that a run reports exactly the metrics
``BENCHMARK.json`` names, with the same units, and that every workload's
output check catches a tampered result.
"""

import json
from pathlib import Path

import pytest

from perfbench import live, sweeps
from perfbench.layers import new_counters
from perfbench.run import check_names, run_workload
from perfbench.spans import NullTracer
from repro.analysis.sweep_store import result_checksum

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def tiny(name, work):
    if name == "router_live":
        return live.RouterLive(SEED, work, live.TINY)
    factory = {"sweep_cold": sweeps.SweepCold, "sweep_resume": sweeps.SweepResume}
    return factory[name](SEED, work, sweeps.TINY)


def measured(workload):
    """A tiny workload after set-up and its (shortest) measured part."""
    workload.setup(NullTracer(), new_counters())
    workload.measure(0.0)
    return workload


def edit_record(store, name, *, forge):
    """Change one stored result; ``forge`` re-signs it with a valid checksum."""
    path = store.record_path(name)
    record = json.loads(path.read_text(encoding="utf-8"))
    record["result"]["n_events"] += 1
    if forge:
        record["checksum"] = result_checksum(record["result"])
    path.write_text(json.dumps(record), encoding="utf-8")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["sweep_cold", "sweep_resume", "router_live"])
def test_metric_names_and_units_match_benchmark_json(name, trace, tmp_path):
    result, _ = run_workload(
        tiny(name, tmp_path), trace=trace, seconds=0.0, imports_s=0.0, run_id="t"
    )
    assert result.failures == []
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert check_names(result.metrics, expected) == []
    assert result.attempted >= 1


def test_check_names_reports_unit_and_name_drift():
    from perfbench.layers import Measured

    spec = [{"name": "a_ms", "unit": "ms"}, {"name": "b", "unit": "count"}]
    metrics = {"a_ms": Measured(1.0, "s"), "c": Measured(1.0, "count")}
    assert check_names(metrics, spec) == [
        "metric b: missing",
        "metric c: not in BENCHMARK.json",
        "metric a_ms: unit s but BENCHMARK.json says ms",
    ]


def test_router_check_catches_a_flipped_decision(tmp_path):
    workload = measured(tiny("router_live", tmp_path))
    try:
        assert workload.check() == []
        block = workload.router.tenant_state(workload.tenants[0].name).blocks[-1]
        block.decisions[-1] = 1 - block.decisions[-1]
        assert any("decisions differ" in f for f in workload.check())
    finally:
        workload.close()


@pytest.mark.parametrize("forge", [False, True])
def test_cold_check_catches_an_edited_record(forge, tmp_path):
    workload = measured(tiny("sweep_cold", tmp_path))
    assert workload.check() == []
    edit_record(workload.store, workload.sweep.runner.specs[0].name, forge=forge)
    failures = workload.check()
    expected = "to_dict()-identical" if forge else "lookups hit"
    assert any(expected in f for f in failures), failures


@pytest.mark.parametrize("forge", [False, True])
def test_resume_check_catches_an_edited_record(forge, tmp_path):
    workload = tiny("sweep_resume", tmp_path)
    workload.setup(NullTracer(), new_counters())
    edit_record(workload.store, workload.sweep.runner.specs[0].name, forge=forge)
    workload.measure(0.0)
    failures = workload.check()
    expected = "equal to the fill's" if forge else "lookups hit"
    assert any(expected in f for f in failures), failures
