"""Run one workload of the end-to-end benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the traced pass and reports the per-layer breakdown.
``--workload all`` runs every workload in turn, each in its own process.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a failed output check reports
no metrics and exits with code 1.  Every run also writes one record
(host, commit, seed, metrics with units and sample counts) to
``.perfbench/records/`` and, when traced, its spans to
``.perfbench/traces/``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_cold", "sweep_resume", "router_live")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _host():
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def check_names(metrics, spec_metrics):
    """Problems with the emitted metrics against ``BENCHMARK.json``."""
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    problems = []
    for name in sorted(set(expected) ^ set(metrics)):
        side = "missing" if name in expected else "not in BENCHMARK.json"
        problems.append(f"metric {name}: {side}")
    for name in sorted(set(expected) & set(metrics)):
        if metrics[name].unit != expected[name]:
            problems.append(
                f"metric {name}: unit {metrics[name].unit} but "
                f"BENCHMARK.json says {expected[name]}"
            )
    return problems


def end_to_end(timed, setup_times, imports_s):
    """The gated metrics: set-up, the fastest op and peak memory."""
    from perfbench.layers import Measured

    return {
        "setup_s": Measured(
            imports_s + statistics.median(setup_times), "s", len(setup_times)
        ),
        "op_min_ms": Measured(min(timed.op_ms), "ms", len(timed.op_ms)),
        "peak_rss_mb": Measured(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def make_workload(name, seed, work):
    from perfbench import live, sweeps

    factory = {
        "sweep_cold": sweeps.SweepCold,
        "sweep_resume": sweeps.SweepResume,
        "router_live": live.RouterLive,
    }[name]
    return factory(seed, work)


def run_workload(workload, *, trace, seconds, imports_s, run_id):
    """Run one workload; returns ``(RunResult, tracer or None)``."""
    from perfbench.layers import Measured, RunResult, new_counters, per_layer_metrics
    from perfbench.spans import NullTracer, Tracer

    counters = new_counters()
    try:
        if trace:
            tracer = Tracer(run_id)
            with tracer.span("setup"):
                workload.setup(tracer, counters)
            overhead_s, attempted, failures = workload.trace(tracer, counters)
            failures += workload.check()
            metrics = per_layer_metrics(tracer, counters, overhead_s=overhead_s)
            return RunResult(attempted, 0, metrics, failures), tracer
        setup_times = []
        for _ in range(workload.setup_reps):
            t0 = time.perf_counter()
            workload.setup(NullTracer(), counters)
            setup_times.append(time.perf_counter() - t0)
        timed = workload.measure(seconds)
        metrics = end_to_end(timed, setup_times, imports_s)
        failures = workload.check()
        report = {
            "setup_s": metrics["setup_s"],
            **workload.report(timed),
            "peak_rss_mb": metrics["peak_rss_mb"],
            "error_rate": Measured(
                timed.failed / timed.attempted, "fraction", timed.attempted
            ),
        }
        result = RunResult(timed.attempted, timed.failed, metrics, failures, report)
        return result, None
    finally:
        workload.close()


def _jsonable(metrics, *, with_n):
    return {
        name: {"value": m.value, "unit": m.unit, **({"n": m.n} if with_n else {})}
        for name, m in metrics.items()
    }


def write_record(args, result, tracer):
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record = {
        "run_id": args.run_id,
        "started_utc": args.started,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "host": _host(),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "metrics": _jsonable(result.metrics, with_n=True),
        "report": _jsonable(result.report, with_n=True),
    }
    if tracer is not None:
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        spans_path = traces / f"{args.run_id}.json"
        spans_path.write_text(json.dumps(tracer.to_jsonable(_T0)), encoding="utf-8")
        record["spans"] = str(spans_path.relative_to(ROOT))
    (records / f"{args.run_id}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True), encoding="utf-8"
    )


def run_all(args):
    """Every workload in its own process, one after the other."""
    code = 0
    for workload in WORKLOADS:
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            check=False,
        )
        code = max(code, done.returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]
    try:
        import repro
        import perfbench.live  # noqa: F401
        import perfbench.sweeps  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if source not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    imports_s = time.perf_counter() - _T0
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    args.started = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
    args.run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.started}-{os.getpid()}"
    args.work = ROOT / ".perfbench" / "work" / args.run_id
    args.work.mkdir(parents=True)
    try:
        result, tracer = run_workload(
            make_workload(args.workload, args.seed, args.work),
            trace=args.trace,
            seconds=args.seconds,
            imports_s=imports_s,
            run_id=args.run_id,
        )
    finally:
        shutil.rmtree(args.work, ignore_errors=True)

    problems = check_names(
        result.metrics, spec["per_layer" if args.trace else "end_to_end"]
    )
    if problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 3
    write_record(args, result, tracer)

    tag = f"[{args.workload} seed={args.seed} trace={args.trace}]"
    for failure in result.failures:
        print(f"{tag} CHECK FAILED: {failure}")
    for name, m in result.report.items():
        print(f"{tag} {name} = {m.value:.6g} {m.unit} (n={m.n})")
    for name, m in result.metrics.items():
        print(f"{tag} metric {name} = {m.value!r} {m.unit} (n={m.n})")
    metrics = {} if result.failures else _jsonable(result.metrics, with_n=False)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
