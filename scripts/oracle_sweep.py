#!/usr/bin/env python3
"""Cross-check the ladder bracket product against the coset-closure oracle.

Sweeps seeded homogeneous pairs of generated CIF subspaces and demands
exact table equality between the two independent algorithms.  The
oracle seeds each crisp bracket with its best single-term value and
grows the additive closure one coset at a time; it uses no spans, and
takes every carrier the package accepts (up to 3125 vectors).  Every
RANDOM_EVERY-th pair is instead a pair of random-degree tables, usually
non-homogeneous, so the componentwise reading of the bracket is swept
as well.
"""

import argparse
import random
import sys
import time

from ciflie import (
    PrimeField,
    bracket_product,
    bracket_product_oracle,
    first_difference,
    gen_pair,
    gen_random_table,
    make_config,
    superalgebra_from_pairs,
)


RANDOM_EVERY = 5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=500)
    parser.add_argument("--pairs-dim3", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    F3 = PrimeField(3)
    H = superalgebra_from_pairs(F3, (0, 1), {(1, 1): (1, 0)})
    L3 = superalgebra_from_pairs(
        F3, (0, 1, 1), {(1, 1): (1, 0, 0), (1, 2): (1, 0, 0), (2, 2): (2, 0, 0)}
    )

    mismatches = 0
    start = time.monotonic()
    for name, alg, pairs in (("H", H, args.pairs), ("L3", L3, args.pairs_dim3)):
        random_pairs = 0
        for i in range(pairs):
            if i % RANDOM_EVERY == RANDOM_EVERY - 1:
                random_pairs += 1
                rng = random.Random(f"{name}:{args.seed + i}")
                A, B = gen_random_table(alg, rng), gen_random_table(alg, rng)
            else:
                A, B = gen_pair(make_config(args.seed + i, alg), kind="subspace")
            diff = first_difference(bracket_product(A, B), bracket_product_oracle(A, B))
            if diff is not None:
                mismatches += 1
                print(f"MISMATCH {name} seed={args.seed + i} at {diff}")
        print(f"{name}: {pairs} pairs checked, {random_pairs} of them random-degree")
    elapsed = time.monotonic() - start
    print(f"{mismatches} mismatches in {elapsed:.1f}s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
