"""Deterministic JSON rendering of CIF sets and reports.

Rationals are always "num/den" strings in lowest terms with positive
denominators; vectors are coordinate arrays; keys keep a fixed insertion
order.  No floating point anywhere, so identical inputs give identical
bytes.
"""

from __future__ import annotations

import hashlib
import json

from .cifset import CIFSet
from .degrees import rat_str
from .superalgebra import space_vectors
from .theorems import TheoremReport


def cifset_rows(A: CIFSet) -> list[dict]:
    rendered: dict = {}
    rows = []
    for v in space_vectors(A.space):
        d = A.table[v]
        if d not in rendered:
            rendered[d] = [rat_str(d.mem.r), rat_str(d.mem.w)], [rat_str(d.non.r), rat_str(d.non.w)]
        mem, non = rendered[d]
        rows.append({"vector": list(v), "mem": mem, "non": non})
    return rows


def report_payload(report: TheoremReport) -> dict:
    return {
        "theorem": report.theorem_id,
        "trials": report.trials,
        "failures": [
            {
                "seed": f.seed,
                "inputs_digest": f.inputs_digest,
                "witness": f.witness,
            }
            for f in report.failures
        ],
        "note": report.note,
        "passed": report.passed,
    }


def input_digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def emit_json(payload: dict) -> str:
    """Compact, byte-deterministic rendering with a trailing newline.
    Payloads are trees, so the circular-reference check is skipped."""
    return json.dumps(payload, separators=(",", ":"), check_circular=False) + "\n"
