#!/usr/bin/env python3
"""Run the full theorem catalog on the built-in test algebras.

Reproduces the desk-scale verification run: every catalog law at the
default trial counts (200 on the 2-dim algebra, 50 on the 3-dim one),
plus the negative controls, with one result line per (law, algebra).
The controls always get their full budget of 200 trials: each stops at
its first falsification, and a smaller budget could leave one unfalsified.
"""

import argparse
import sys
import time

from ciflie import (
    PrimeField,
    THEOREM_IDS,
    check_theorem,
    make_config,
    negative_controls,
    superalgebra_from_pairs,
)


def built_in_algebras():
    F3 = PrimeField(3)
    H = superalgebra_from_pairs(F3, (0, 1), {(1, 1): (1, 0)})
    L3 = superalgebra_from_pairs(
        F3, (0, 1, 1), {(1, 1): (1, 0, 0), (1, 2): (1, 0, 0), (2, 2): (2, 0, 0)}
    )
    return (("H", H, 200), ("L3", L3, 50))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--trials", type=int, help="override both laws' trial counts (not the controls')"
    )
    args = parser.parse_args()

    failed = 0
    start = time.monotonic()
    for name, alg, default_trials in built_in_algebras():
        trials = args.trials or default_trials
        cfg = make_config(args.seed, alg)
        for theorem_id in THEOREM_IDS:
            t0 = time.monotonic()
            report = check_theorem(theorem_id, cfg, trials)
            verdict = "pass" if report.passed else "FAIL"
            print(
                f"{theorem_id:24s} {name:3s} {trials:4d} trials  {verdict}"
                f"  ({time.monotonic() - t0:.1f}s)"
            )
            if not report.passed:
                failed += 1
                for failure in report.failures[:3]:
                    print(f"    seed {failure.seed}: {failure.witness}")
        controls = negative_controls(cfg)
        verdict = "pass" if controls.passed else "FAIL"
        print(f"{'neg-controls':24s} {name:3s} {controls.trials:4d} runs    {verdict}")
        if not controls.passed:
            failed += 1
    print(f"total: {time.monotonic() - start:.1f}s, {failed} failing entries")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
