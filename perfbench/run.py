#!/usr/bin/env python3
"""Benchmark of the ciflie workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else.  One client keeps one
operation in flight (a closed loop).  The run sets up ``SETUP_REPEATS``
times and reports the median set-up time, warms up, then runs whole
cycles of the workload until ``--seconds`` have passed, checking every
output.  With ``--trace 1`` it instead runs one fixed period of cycles
untraced and traced, and reports the per-layer figures and the tracing
overhead.

The last line of stdout is the result: a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a
record of the run (interpreter, machine, code digest, seed, op counts,
tail percentile).  Both are written with sorted keys.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15
WARMUP_S = 2.0
WARMUP_CYCLE = 1_000_000  # cycle index whose inputs only the warm-up uses
TAIL_BEYOND = 10  # samples the tail percentile must leave beyond it
TAIL_FLOOR = 90.0  # below this percentile the maximum is reported instead

# End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_ciflie():
    """Import ciflie afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "ciflie" or n.startswith("ciflie.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("ciflie")
    if Path(package.__file__).resolve().parent != SRC / "ciflie":
        fail(f"imported ciflie from {package.__file__}, not from {SRC}")
    return package


def set_up(name: str, seed: int, workdir: Path):
    """Import ciflie, build and validate the algebras, make the inputs."""
    c = import_ciflie()
    return c, workloads.WORKLOADS[name](c, seed, workdir)


def run_op(op, failures: list) -> float:
    """Run one operation and check it; returns its latency in seconds."""
    start = perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        elapsed = perf_counter() - start
        failures.append(f"{op.label}: raised {exc!r}")
        return elapsed
    elapsed = perf_counter() - start
    problem = op.check(result)
    if problem is not None:
        failures.append(problem)
    return elapsed


def warm_up(workload, failures: list) -> int:
    """Run warm-up operations, at least one, for about WARMUP_S."""
    start = perf_counter()
    done = 0
    for op in workload.cycle(WARMUP_CYCLE):
        run_op(op, failures)
        done += 1
        if perf_counter() - start >= WARMUP_S:
            break
    return done


def measure(workload, seconds: float, failures: list) -> tuple[list[float], float, int]:
    """Whole cycles until ``seconds`` have passed; returns the latencies,
    the wall time and the number of cycles."""
    latencies: list[float] = []
    start = perf_counter()
    cycles = 0
    while True:
        for op in workload.cycle(cycles):
            latencies.append(run_op(op, failures))
        cycles += 1
        if perf_counter() - start >= seconds:
            return latencies, perf_counter() - start, cycles


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it: the sample with exactly that many above it, so its percentile
    (the share of samples at or below it) moves smoothly with the sample
    count instead of jumping between fixed rungs.  When that percentile
    would be under TAIL_FLOOR (too few samples for a tail), the maximum
    (percentile 100, no samples beyond).
    Returns (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = 100.0 * (n - TAIL_BEYOND) / n
    if pct < TAIL_FLOOR:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], pct, TAIL_BEYOND


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str:
    """The checkout's commit from ``.git``, or "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def source_digest() -> str:
    """sha256 over the package sources, naming the code measured even
    where there is no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ciflie").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def base_record(args) -> dict:
    return {
        "commit": git_commit(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": args.seconds,
        "seed": args.seed,
        "source_sha256": source_digest(),
        "trace": args.trace,
        "workload": args.workload,
    }


def run_plain(args, workdir: Path) -> tuple[dict, dict, int, list]:
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        c, workload = set_up(args.workload, args.seed, workdir)
        setup_samples.append(perf_counter() - start)
    warmup_failures: list[str] = []
    warmup_ops = warm_up(workload, warmup_failures)
    failures: list[str] = []
    latencies, wall, cycles = measure(workload, args.seconds, failures)
    attempted = len(latencies)
    ok = attempted - len(failures)
    tail_s, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ok / wall,
        "op_ms_p50": statistics.median(latencies) * 1000.0,
        "op_ms_tail": tail_s * 1000.0,
        "ok_frac": ok / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    record = {
        "cycles": cycles,
        "failed_frac": len(failures) / attempted,
        "measured_s": wall,
        "op_ms_tail_percentile": tail_pct,
        "op_ms_tail_samples_beyond": beyond,
        "samples": attempted,
        "setup_samples_s": setup_samples,
        "warmup_failed": len(warmup_failures),
        "warmup_ops": warmup_ops,
    }
    return metrics, record, warmup_ops + attempted, warmup_failures + failures


def period_ops(workload) -> list:
    """The operations of cycles 0 to period - 1: every kind the workload has."""
    return [op for k in range(workload.period) for op in workload.cycle(k)]


def traced_pass(c, name: str, seed: int, workdir: Path):
    """Set up under the tracer (without the import, so set-up layers show)
    and run the first period traced.  Returns the tracer, the wall time of the
    operations, their number and the failures."""
    tracer = tracing.Tracer()
    failures: list[str] = []
    tracer.install(c)
    try:
        workload = workloads.WORKLOADS[name](c, seed, workdir)
        ops = period_ops(workload)
        start = perf_counter()
        for i, op in enumerate(ops):
            tracer.op_id = i
            run_op(op, failures)
        traced_s = perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, traced_s, len(ops), failures


def run_traced(args, workdir: Path) -> tuple[dict, dict, int, list]:
    """The first period in the order untraced, traced, traced, untraced, so a
    steady drift in machine speed cancels from the overhead; the first
    traced pass gives the per-layer figures, the second must repeat its
    counts exactly."""
    c, workload = set_up(args.workload, args.seed, workdir)
    failures: list[str] = []
    attempted = warm_up(workload, failures)
    ops = period_ops(workload)

    def untraced() -> float:
        start = perf_counter()
        for op in ops:
            run_op(op, failures)
        return perf_counter() - start

    passes = []
    untraced_s = [untraced()]
    for _ in range(2):
        tracer, traced_s, n, traced_failures = traced_pass(c, args.workload, args.seed, workdir)
        passes.append((tracer, traced_s))
        failures += traced_failures
        attempted += n
    untraced_s.append(untraced())
    attempted += 2 * len(ops)
    (tracer, _), (again, _) = passes
    if tracer.counters() != again.counters():
        failures.append("traced counters differ between two passes on one seed")

    metrics = tracer.per_layer(
        statistics.mean(untraced_s), statistics.mean(t for _, t in passes)
    )
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.json"
    spans_path.write_text(json.dumps(tracer.span_records(), sort_keys=True))
    record = {
        "counters": tracer.counters(),
        "module_self_s": tracer.module_self_s(),
        "ops": len(ops),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_s": [t for _, t in passes],
        "untraced_s": untraced_s,
    }
    return metrics, record, attempted, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ciflie" / "__init__.py").is_file():
        fail(f"no ciflie sources under {SRC}; run from a source checkout")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        try:
            runner = run_traced if args.trace else run_plain
            metrics, extra, attempted, failures = runner(args, Path(tmp))
        except workloads.SetupError as exc:
            fail(str(exc))

    for problem in failures[:10]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    units = END_TO_END if not args.trace else {
        name: unit for name, (unit, _) in tracing.PER_LAYER.items()
    }
    record = {**base_record(args), **extra, "failed": len(failures), "attempted": attempted}
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "attempted": attempted,
        "correct": not failures,
        "failed": len(failures),
        "metrics": {
            name: {"unit": units[name], "value": metrics[name]} for name in units
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
