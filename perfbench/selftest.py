#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in order, and exits non-zero on the first that does not hold:

1. BENCHMARK.json names exactly the metrics, with the units, that
   run.py reports untraced and traced.
2. The benchmark can fail: a short run of each workload has failed_frac
   0, and the same run with a perturbed result has failed_frac above 0.
   The perturbations are a bracket table with one changed degree (from
   the ladder in the law catalog, and from the oracle in the sweep) and
   one flipped byte in the JSON the CLI writes.
3. Without the package sources, run.py exits non-zero and prints no
   result.

That the traced counters repeat is checked by every traced run, which
makes two traced passes and counts a mismatch as a failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import tracer as tracing
import workloads

SEED = 11
CHEAP_LARGE_CARRIER = {"image-S1", "image-N1", "check-subspace-N1"}


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAIL {message}", file=sys.stderr)
        sys.exit(1)
    print(f"selftest: ok   {message}")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(
        layer == {name: unit for name, (unit, _) in tracing.PER_LAYER.items()},
        "BENCHMARK.json per_layer matches tracer.py",
    )
    check(
        sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
        "BENCHMARK.json workloads match workloads.py",
    )
    check(
        sorted(sum(workloads.LARGE_CARRIER_CYCLES, ())) == sorted(workloads.LARGE_CARRIER_COMMANDS),
        "large-carrier cycles run every command once a period",
    )


def one_degree_changed(c, S):
    """S with the degree of its last carrier vector replaced."""
    table = dict(S.table)
    x = c.space_vectors(S.space)[-1]
    table[x] = c.FULL if table[x] != c.FULL else c.EMPTY
    return c.CIFSet(S.space, table, S.notes)


def failed_frac(ops) -> float:
    failures: list[str] = []
    for op in ops:
        run.run_op(op, failures)
    return len(failures) / len(ops)


def check_can_fail(c, workdir: Path) -> None:
    def perturbed(module: str, func: str, wrap):
        original = getattr(getattr(c, module), func)
        return tracing.replace_everywhere(c, module, func, wrap(original))

    def changed_table(fn):
        return lambda *args, **kwargs: one_degree_changed(c, fn(*args, **kwargs))

    def flipped_byte(fn):
        def emit(payload):
            text = fn(payload)
            return text[:10] + chr(ord(text[10]) ^ 1) + text[11:]

        return emit

    cases = [
        ("catalog", "bracket", "bracket_product", changed_table, None),
        ("oracle-sweep", "bracket", "bracket_product_oracle", changed_table, None),
        ("large-carrier", "jsonio", "emit_json", flipped_byte, CHEAP_LARGE_CARRIER),
    ]
    for name, module, func, wrap, labels in cases:
        workload = workloads.WORKLOADS[name](c, SEED, workdir)
        ops = [op for op in run.period_ops(workload) if labels is None or op.label in labels]
        check(failed_frac(ops) == 0.0, f"{name}: clean run has failed_frac 0")
        undo = perturbed(module, func, wrap)
        try:
            frac = failed_frac(ops)
        finally:
            tracing.restore(undo)
        check(frac > 0.0, f"{name}: perturbed {func} gives failed_frac {frac:.3f} > 0")


def check_fails_without_sources() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        bare = Path(tmp)
        (bare / "perfbench").mkdir()
        for path in run.HERE.iterdir():
            if path.is_file():
                (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
        (bare / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "catalog",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    check(
        proc.returncode != 0 and '"metrics"' not in proc.stdout,
        f"without src/ run.py exits {proc.returncode} and prints no result",
    )


def main() -> int:
    check_benchmark_json()
    c = run.import_ciflie()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        check_can_fail(c, Path(tmp))
    check_fails_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
