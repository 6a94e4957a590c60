#!/usr/bin/env python3
"""Record the golden output digests of the large-carrier workload.

    python3 perfbench/record_golden.py

Runs every large-carrier command once on each input variant and writes
the exit codes and sha256 digests of the outputs to ``golden.json``.
The digests pin the outputs of the commit they were recorded at; record
them again only when a change of output is intended.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    c = run.import_ciflie()
    variants = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for variant in range(workloads.VARIANTS):
            wl = workloads.LargeCarrier(c, variant, Path(tmp), golden={})
            outputs = {}
            for label in workloads.LARGE_CARRIER_COMMANDS:
                code, data = wl.execute(label)
                outputs[label] = {"exit": code, "sha256": workloads.sha256_hex(data)}
                print(f"variant {variant} {label}: exit {code}", file=sys.stderr)
            variants[str(variant)] = {
                "outputs": outputs,
                "spec_sha256": workloads.sha256_hex(wl.spec_path.read_bytes()),
            }
    record = {"recorded_at": run.git_commit(), "variants": variants}
    workloads.GOLDEN_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
