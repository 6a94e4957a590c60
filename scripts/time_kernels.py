#!/usr/bin/env python3
"""Time the kernels and the loading steps of a command across carrier sizes.

Prints one sorted-key JSON line per (algebra, input kind, operation)
with the best-of-N wall time of one call and a digest of its result, so
two trees can be compared on the same inputs.  The algebras are H
(|V| = 9), L3 (27), L5 (243), osp12 (osp(1|2) over F_3, 243, the
structure constants of ``tests/conftest.py``), L4 (F_5^4, 625) and F5^5
(the L5 bracket table over F_5, 3125).  osp(1|2) is perfect, so its
brackets reach every vector; the others bracket into a centre of rank at
most 2.  The input kinds are a generated pair of CIF subspaces, two
random tables over a 24-degree palette, and two random tables that give
every nonzero vector its own degree.  Each kind is summed and bracketed,
and the random tables are bracketed again by the coset oracle
``bracket_product_oracle``, which enumerates all |V|^2 pairs, reading
each distinct row [a, B] once.  The steps that every ``ciflie`` command pays
before its operation follow: ``parse_spec`` of the serialized palette
and per-vector workspaces (two sets each), ``validate_superalgebra`` of
the algebra, the predicates ``is_cif_subspace`` of the generated
subspace pair's first set and ``is_cif_ideal`` of a generated ideal
(both pass), then the same predicates failing, digested by their
witness text: ``is_cif_subspace`` of a trivial set with two raised
lines and ``is_cif_ideal`` of an odd line at FULL (see ``failing``),
and ``image`` of the palette and per-vector tables under a fixed
grading-preserving map that is neither injective nor surjective.
Last come the degree layer's steps: ``Degree`` construction of every
distinct membership and non-membership part of the per-vector pair,
``make_config`` and the first read of its ``degree_pool`` (the config
draws its pool then), the generators at ``make_config(0, alg)``
(``gen_pair`` of two CIF subspaces, ``gen_cif_ideal`` and
``gen_anti_hom``; the sets are digested by their fingerprints and the
map by its matrix, so two trees that draw alike print equal digests) and
``rank_encode`` of each input pair.  The last rows time whole commands:
in-process ``run_cli`` of ``compute sum A B`` and ``check subspace A``
on the palette and per-vector spec files, digested by the exit code and
the stdout of the command.

With ``--write-spec DIR`` nothing is timed: the palette and per-vector
workspaces that the ``parse_spec`` rows parse are written to DIR as
``<algebra>-<kind>.spec`` (``^`` in the algebra name becomes ``_``),
one path printed per file, for timing ``ciflie`` commands on them.

    PYTHONPATH=src python3 scripts/time_kernels.py --algebras H,L5 --repeat 5
    PYTHONPATH=src python3 scripts/time_kernels.py --algebras F5^5 --write-spec /tmp/specs
"""

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from ciflie import (
    EMPTY,
    FULL,
    Degree,
    GradedMap,
    PrimeField,
    Workspace,
    bracket_product,
    bracket_product_oracle,
    cif_degree,
    cif_sum,
    gen_anti_hom,
    gen_cif_ideal,
    gen_pair,
    image,
    is_cif_ideal,
    is_cif_subspace,
    make_cifset,
    make_config,
    parse_spec,
    run_cli,
    serialize,
    space_vectors,
    superalgebra_from_pairs,
    validate_superalgebra,
)
from ciflie.cifset import rank_encode, table_fingerprint
from ciflie.specfile import WorkspaceSet

OPERATIONS = {"cif_sum": cif_sum, "bracket_product": bracket_product}
KINDS = ("subspace", "palette", "per-vector")
PALETTE = 24
GRID = 60


def algebras() -> dict:
    F3, F5 = PrimeField(3), PrimeField(5)
    e3, e4, e5 = (1, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0, 0)
    l5_pairs = {(1, 1): e5, (1, 2): e5, (2, 2): (2, 0, 0, 0, 0), (4, 4): e5}
    # osp(1|2): even h, e, f and odd x, y (Kac, "Lie superalgebras", 1977)
    osp12_pairs = {
        (0, 1): (0, 2, 0, 0, 0), (0, 2): (0, 0, -2, 0, 0), (1, 2): (1, 0, 0, 0, 0),
        (0, 3): (0, 0, 0, 1, 0), (0, 4): (0, 0, 0, 0, -1), (1, 4): (0, 0, 0, -1, 0),
        (2, 3): (0, 0, 0, 0, -1), (3, 3): (0, 2, 0, 0, 0), (4, 4): (0, 0, -2, 0, 0),
        (3, 4): (1, 0, 0, 0, 0),
    }
    return {
        "H": superalgebra_from_pairs(F3, (0, 1), {(1, 1): (1, 0)}),
        "L3": superalgebra_from_pairs(F3, (0, 1, 1), {(1, 1): e3, (1, 2): e3, (2, 2): (2, 0, 0)}),
        "L5": superalgebra_from_pairs(F3, (0, 1, 1, 0, 1), l5_pairs),
        "osp12": superalgebra_from_pairs(F3, (0, 0, 0, 1, 1), osp12_pairs),
        "L4": superalgebra_from_pairs(F5, (0, 1, 1, 0), {(1, 1): e4, (1, 2): e4, (2, 2): (2, 0, 0, 0)}),
        "F5^5": superalgebra_from_pairs(F5, (0, 1, 1, 0, 1), l5_pairs),
    }


def random_degree(rng: random.Random, grid: int):
    mr = rng.randint(0, grid)
    nr = rng.randint(0, grid - mr)
    return cif_degree(
        Fraction(mr, grid), Fraction(rng.randint(0, grid), grid),
        Fraction(nr, grid), Fraction(rng.randint(0, grid), grid),
    )


def random_table(alg, rng: random.Random, per_vector: bool):
    """Every nonzero vector takes a palette degree, or its own degree on a
    fine lattice (distinct with high probability)."""
    vectors = [x for x in space_vectors(alg) if x != alg.zero()]
    if per_vector:
        degrees = [random_degree(rng, 10**6) for _ in vectors]
    else:
        palette = [random_degree(rng, GRID) for _ in range(PALETTE)]
        degrees = [rng.choice(palette) for _ in vectors]
    return make_cifset(alg, zip(vectors, degrees), EMPTY)


def inputs(name: str, alg, kind: str):
    if kind == "subspace":
        return gen_pair(make_config(0, alg), kind="subspace")
    rng = random.Random(f"{name}:{kind}:0")
    return tuple(random_table(alg, rng, kind == "per-vector") for _ in range(2))


def spec_text(alg, A, B) -> str:
    sets = {"A": WorkspaceSet("V", EMPTY, A), "B": WorkspaceSet("V", EMPTY, B)}
    return serialize(Workspace(alg.field, {"V": alg}, sets, {}))


def collapsing_map(alg) -> GradedMap:
    """Each basis vector but the last goes to the next one of its parity,
    cyclically, and the last one to zero: grading-preserving, with a
    nonzero kernel."""
    rows = []
    for i, parity in enumerate(alg.parity[:-1]):
        same = [j for j in range(alg.dim) if alg.parity[j] == parity]
        target = same[(same.index(i) + 1) % len(same)]
        rows.append(tuple(int(j == target) for j in range(alg.dim)))
    return GradedMap(alg, alg, tuple(rows) + ((0,) * alg.dim,))


def failing(alg):
    """A trivial set whose two lines through (1,0,0,0,3) and (1,2,0,4,1)
    are raised to 1/2 1/2 1/4 1/4, and the odd line through (0,1,2,0,0)
    at FULL; on a smaller carrier each vector keeps its first dim
    coordinates, reduced mod p.  The sum of the two vectors leaves their
    lines, and the odd line is no ideal of any of these algebras."""
    p = alg.field.p

    def line(v):
        return [tuple(k * c % p for c in v[: alg.dim]) for k in range(1, p)]

    level = cif_degree(Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    lines = make_cifset(alg, [(x, level) for x in line((1, 0, 0, 0, 3)) + line((1, 2, 0, 4, 1))], EMPTY)
    return lines, make_cifset(alg, [(x, FULL) for x in line((0, 1, 2, 0, 0))], EMPTY)


def cases(name: str, alg):
    """(input kind, operation, call, text of the result) in print order."""
    tables = {}
    for kind in KINDS:
        A, B = tables[kind] = inputs(name, alg, kind)
        for op_name, op in OPERATIONS.items():
            yield kind, op_name, lambda op=op, A=A, B=B: op(A, B), table_fingerprint
    for kind in ("palette", "per-vector"):
        A, B = tables[kind]
        yield kind, "bracket_product_oracle", lambda A=A, B=B: bracket_product_oracle(A, B), table_fingerprint
    texts = {kind: spec_text(alg, *tables[kind]) for kind in ("palette", "per-vector")}
    for kind, text in texts.items():
        yield kind, "parse_spec", lambda text=text: parse_spec(text), serialize
    yield "algebra", "validate_superalgebra", lambda: validate_superalgebra(alg), repr
    subspace = tables["subspace"][0]
    yield "subspace", "is_cif_subspace", lambda: is_cif_subspace(subspace), repr
    ideal = gen_cif_ideal(make_config(0, alg))
    yield "ideal", "is_cif_ideal", lambda: is_cif_ideal(ideal), repr
    lines, odd_line = failing(alg)
    yield "two-lines", "is_cif_subspace", lambda: is_cif_subspace(lines), lambda report: report.witness
    yield "odd-line", "is_cif_ideal", lambda: is_cif_ideal(odd_line), lambda report: report.witness
    m = collapsing_map(alg)
    for kind in ("palette", "per-vector"):
        A = tables[kind][0]
        yield kind, "image", lambda A=A: image(m, A), table_fingerprint
    parts = list(dict.fromkeys(q for S in tables["per-vector"] for d in S.table.values() for q in (d.mem, d.non)))
    yield "per-vector", "Degree", lambda: [Degree(q.r, q.w) for q in parts], repr
    yield "pool", "make_config", lambda: make_config(0, alg).degree_pool, repr
    yield (
        "config", "gen_pair", lambda: gen_pair(make_config(0, alg), kind="subspace"),
        lambda sets: "&".join(map(table_fingerprint, sets)),
    )
    yield "config", "gen_cif_ideal", lambda: gen_cif_ideal(make_config(0, alg)), table_fingerprint
    yield "config", "gen_anti_hom", lambda: gen_anti_hom(make_config(0, alg)), lambda m: repr(m.matrix)
    for kind in KINDS:
        A, B = tables[kind]
        yield kind, "rank_encode", lambda A=A, B=B: rank_encode(A, B), repr
    with tempfile.TemporaryDirectory() as workdir:
        for kind, text in texts.items():
            path = Path(workdir) / f"{kind}.spec"
            path.write_text(text)
            for argv in (
                ["compute", "sum", str(path), "--left", "A", "--right", "B"],
                ["check", "subspace", str(path), "--name", "A"],
            ):
                yield kind, f"run_cli {argv[0]} {argv[1]}", lambda argv=argv: command(argv), str


def command(argv: list[str]) -> str:
    """In-process ``run_cli``: its exit code, a newline and its stdout;
    stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return f"{code}\n{out.getvalue()}"


def best_of(repeat: int, call):
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--algebras", default="H,L3,L5,osp12,L4,F5^5", help="comma-separated subset of H,L3,L5,osp12,L4,F5^5")
    parser.add_argument("--repeat", type=int, default=3, help="calls per operation; the best is reported")
    parser.add_argument("--write-spec", metavar="DIR", type=Path, help="write the palette and per-vector spec files, time nothing")
    args = parser.parse_args()
    known = algebras()
    names = args.algebras.split(",")
    unknown = [n for n in names if n not in known]
    if unknown or args.repeat < 1:
        parser.error(f"unknown algebra {unknown[0]}" if unknown else "--repeat must be at least 1")
    if args.write_spec:
        args.write_spec.mkdir(parents=True, exist_ok=True)
        for name in names:
            alg = known[name]
            for kind in ("palette", "per-vector"):
                path = args.write_spec / f"{name.replace('^', '_')}-{kind}.spec"
                path.write_text(spec_text(alg, *inputs(name, alg, kind)))
                print(path, flush=True)
        return 0
    for name in names:
        alg = known[name]
        for kind, op_name, call, render in cases(name, alg):
            seconds, result = best_of(args.repeat, call)
            digest = hashlib.sha256(render(result).encode()).hexdigest()
            print(json.dumps({
                "algebra": name, "best_s": round(seconds, 6), "digest": digest[:16],
                "input": kind, "operation": op_name, "repeat": args.repeat, "size": alg.size,
            }, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
