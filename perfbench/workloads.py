"""The three benchmark workloads: catalog, oracle-sweep and large-carrier.

A workload is set up from the imported ``ciflie`` package, a seed and a
scratch directory, and hands out its operations one cycle at a time.  A
cycle has a fixed composition (the same algebra mix, the same cost
classes), so figures taken over whole cycles compare across runs and
seeds.  The operations of cycle ``k`` repeat at cycle ``k + period``; the
traced run covers one period, so it sees every kind of operation.  Every
operation reaches ciflie through the package namespace when it runs,
which is where the tracer installs its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN_FILE = Path(__file__).resolve().parent / "golden.json"

# large-carrier inputs come from one of this many recorded variants
# (seed modulo VARIANTS), so every output has a golden digest.
VARIANTS = 8


class SetupError(RuntimeError):
    """The workload inputs could not be built or do not match the record."""


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``call`` does the work, ``check`` returns
    None when its result is right and a message otherwise."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], "str | None"]


def sub_seed(*parts: object) -> int:
    """Deterministic 64-bit seed from the given parts."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_E5 = (1, 0, 0, 0, 0)

# name -> (parity, structure constants on basis pairs i <= j), over F_3.
# H and L3 are the acceptance-criteria algebras; L5 (|V| = 243) has
# e = b0 and [b1,b1] = e, [b1,b2] = e, [b2,b2] = 2e, [b4,b4] = e.
ALGEBRAS = {
    "H": ((0, 1), {(1, 1): (1, 0)}),
    "L3": ((0, 1, 1), {(1, 1): (1, 0, 0), (1, 2): (1, 0, 0), (2, 2): (2, 0, 0)}),
    "L5": (
        (0, 1, 1, 0, 1),
        {(1, 1): _E5, (1, 2): _E5, (2, 2): (2, 0, 0, 0, 0), (4, 4): _E5},
    ),
}


def build_algebra(c, name: str):
    """One of the fixed algebras, checked with ``validate_superalgebra``."""
    parity, pairs = ALGEBRAS[name]
    alg = c.superalgebra_from_pairs(c.PrimeField(3), parity, pairs)
    report = c.validate_superalgebra(alg)
    if not report.ok:
        raise SetupError(f"algebra {name} fails validation: {report.witness}")
    return alg


def random_table(c, alg, rng: random.Random, palette: int = 24, grid: int = 60):
    """A non-homogeneous CIF set: every nonzero vector takes one of
    ``palette`` random degrees on a 1/grid lattice, so the bracket ladder
    sees many thresholds and runs its componentwise path."""
    degrees = []
    for _ in range(palette):
        mr = rng.randint(0, grid)
        nr = rng.randint(0, grid - mr)
        degrees.append(
            c.cif_degree(
                Fraction(mr, grid),
                Fraction(rng.randint(0, grid), grid),
                Fraction(nr, grid),
                Fraction(rng.randint(0, grid), grid),
            )
        )
    zero = alg.zero()
    entries = [(v, rng.choice(degrees)) for v in c.space_vectors(alg) if v != zero]
    return c.make_cifset(alg, entries, c.EMPTY)


def _report_failure(report) -> str | None:
    if report.trials != 1:
        return f"{report.theorem_id}: ran {report.trials} trials, expected 1"
    if not report.passed:
        return f"{report.theorem_id}: {report.failures[0].witness}"
    return None


class Catalog:
    """``check_theorem(tid, make_config(seed_i, alg), 1)`` over all
    theorem ids, round-robin, H and L3 trials at 4:1."""

    name = "catalog"
    period = 1

    def __init__(self, c, seed: int, workdir: Path) -> None:
        self.c = c
        self.seed = seed
        self.algebras = {n: build_algebra(c, n) for n in ("H", "L3")}
        # Each id gets four H trials and one L3 trial per cycle; the L3
        # trials are spread over the cycle rather than bunched at its end.
        self.plan = [
            (tid, "L3" if (j + r) % 5 == 4 else "H")
            for r in range(5)
            for j, tid in enumerate(c.THEOREM_IDS)
        ]

    def cycle(self, k: int) -> list[Op]:
        return [self._op(k, i, tid, alg) for i, (tid, alg) in enumerate(self.plan)]

    def _op(self, k: int, i: int, tid: str, alg_name: str) -> Op:
        c = self.c
        alg = self.algebras[alg_name]
        trial_seed = sub_seed(self.name, self.seed, k, i)

        def call():
            return c.check_theorem(tid, c.make_config(trial_seed, alg), 1)

        return Op(f"{tid}@{alg_name}", call, _report_failure)


class OracleSweep:
    """Ladder ``bracket_product`` against ``bracket_product_oracle`` plus
    ``first_difference``; H and L3 pairs at 5:1, every fifth pair of an
    algebra a non-homogeneous random-degree pair."""

    name = "oracle-sweep"
    period = 1
    POOL_CYCLES = 4  # the pair pool holds this many cycles of inputs
    PER_CYCLE = {"H": 25, "L3": 5}

    def __init__(self, c, seed: int, workdir: Path) -> None:
        self.c = c
        self.algebras = {n: build_algebra(c, n) for n in ("H", "L3")}
        self.pool = {
            name: [
                self._pair(seed, name, j)
                for j in range(self.PER_CYCLE[name] * self.POOL_CYCLES)
            ]
            for name in self.algebras
        }
        self.plan = [("H" if s % 6 < 5 else "L3") for s in range(30)]

    def _pair(self, seed: int, name: str, j: int):
        c = self.c
        alg = self.algebras[name]
        pair_seed = sub_seed(self.name, seed, name, j)
        if j % 5 == 4:
            rng = random.Random(pair_seed)
            return random_table(c, alg, rng), random_table(c, alg, rng)
        return c.gen_pair(c.make_config(pair_seed, alg), kind="subspace")

    def cycle(self, k: int) -> list[Op]:
        ops = []
        taken = {name: 0 for name in self.algebras}
        for name in self.plan:
            j = (k % self.POOL_CYCLES) * self.PER_CYCLE[name] + taken[name]
            taken[name] += 1
            ops.append(self._op(name, j, *self.pool[name][j]))
        return ops

    def _op(self, name: str, j: int, A, B) -> Op:
        c = self.c

        def call():
            return c.first_difference(
                c.bracket_product(A, B), c.bracket_product_oracle(A, B)
            )

        def check(diff):
            if diff is None:
                return None
            return f"pair {name}#{j}: ladder and oracle differ at {diff}"

        return Op(f"pair@{name}", call, check)


# label -> ciflie command line; SPEC is replaced by the spec file's path.
LARGE_CARRIER_COMMANDS = {
    "image-S1": ["compute", "image", "SPEC", "--left", "S1", "--map", "phi"],
    "image-N1": ["compute", "image", "SPEC", "--left", "N1", "--map", "phi"],
    "check-subspace-N1": ["check", "subspace", "SPEC", "--name", "N1"],
    "check-subspace-S1": ["check", "subspace", "SPEC", "--name", "S1"],
    "check-subspace-S2": ["check", "subspace", "SPEC", "--name", "S2"],
    "check-subspace-I1": ["check", "subspace", "SPEC", "--name", "I1"],
    "sum-S1-S2": ["compute", "sum", "SPEC", "--left", "S1", "--right", "S2"],
    "sum-N1-N2": ["compute", "sum", "SPEC", "--left", "N1", "--right", "N2"],
    "sum-S1-N1": ["compute", "sum", "SPEC", "--left", "S1", "--right", "N1"],
    "check-ideal-I1": ["check", "ideal", "SPEC", "--name", "I1"],
    "bracket-S1-S2": ["compute", "bracket", "SPEC", "--left", "S1", "--right", "S2"],
    "bracket-N1-N2": ["compute", "bracket", "SPEC", "--left", "N1", "--right", "N2"],
}

# The commands of the large-carrier cycles, which rotate with period 3.
# Each cycle has one cheap command, two of middle cost (a subspace check
# and a sum, about 1.2-2.1 s each on L5) and one dear one (the ideal check
# or a bracket).  With as many cheap commands as dear ones the median
# latency falls in the middle of the mid-cost commands and rests on all of
# them, not on which of two unlike commands ranks in the middle; short
# cycles keep the overrun past --seconds small.
LARGE_CARRIER_CYCLES = (
    ("image-S1", "check-subspace-S1", "bracket-S1-S2", "sum-S1-S2"),
    ("image-N1", "check-subspace-S2", "bracket-N1-N2", "sum-N1-N2"),
    ("check-subspace-N1", "check-subspace-I1", "check-ideal-I1", "sum-S1-N1"),
)


def large_carrier_workspace(c, seed: int):
    """The L5 workspace of the variant this seed selects: generated
    subspaces S1, S2 and ideal I1 (few thresholds), random-degree tables
    N1, N2 (many thresholds) and a generated anti-homomorphism phi."""
    variant = seed % VARIANTS
    alg = build_algebra(c, "L5")
    rng = random.Random(sub_seed("large-carrier", variant))
    cfg = c.make_config(sub_seed("large-carrier", variant, "pool"), alg)
    S1, S2 = c.gen_pair(cfg, rng, kind="subspace")
    sets = {
        "S1": S1,
        "S2": S2,
        "I1": c.gen_cif_ideal(cfg, rng),
        "N1": random_table(c, alg, rng),
        "N2": random_table(c, alg, rng),
    }
    phi = c.gen_anti_hom(cfg, rng)
    spec = c.specfile
    ws = spec.Workspace(
        alg.field,
        {"L5": alg},
        {name: spec.WorkspaceSet("L5", c.EMPTY, s) for name, s in sets.items()},
        {"phi": spec.WorkspaceMap("L5", "L5", phi)},
    )
    return variant, ws


def run_command(c, argv: list[str]) -> tuple[int, bytes]:
    """``run_cli`` with stdout and stderr captured; returns the exit code
    and the captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = c.run_cli(argv)
    return code, out.getvalue().encode()


class LargeCarrier:
    """``run_cli`` commands on one L5 spec file written at set-up."""

    name = "large-carrier"
    period = len(LARGE_CARRIER_CYCLES)

    def __init__(self, c, seed: int, workdir: Path, golden: dict | None = None) -> None:
        self.c = c
        self.variant, ws = large_carrier_workspace(c, seed)
        self.spec_path = workdir / "large-carrier.spec"
        text = c.serialize(ws)
        self.spec_path.write_text(text, encoding="utf-8")
        self.workdir = workdir
        if golden is None:
            golden = json.loads(GOLDEN_FILE.read_text())["variants"][str(self.variant)]
            if golden["spec_sha256"] != sha256_hex(text.encode()):
                raise SetupError(
                    f"large-carrier variant {self.variant}: spec file differs "
                    "from the recorded one, so its golden digests do not apply"
                )
        self.golden = golden

    def argv(self, label: str) -> tuple[list[str], Path | None]:
        words = [str(self.spec_path) if w == "SPEC" else w for w in LARGE_CARRIER_COMMANDS[label]]
        if words[0] != "compute":
            return words, None
        out = self.workdir / f"{label}.json"
        return words + ["--format", "json", "--out", str(out)], out

    def cycle(self, k: int) -> list[Op]:
        return [self._op(label) for label in LARGE_CARRIER_CYCLES[k % self.period]]

    def execute(self, label: str) -> tuple[int, bytes]:
        """Run one command; returns its exit code and its output: the JSON
        file for ``compute``, the captured stdout otherwise."""
        argv, out = self.argv(label)
        if out is not None and out.exists():
            out.unlink()
        code, stdout = run_command(self.c, argv)
        if out is None:
            return code, stdout
        return code, out.read_bytes() if out.exists() else b""

    def _op(self, label: str) -> Op:
        want = self.golden["outputs"][label]

        def check(result):
            code, data = result
            if code != want["exit"]:
                return f"{label}: exit code {code}, expected {want['exit']}"
            if sha256_hex(data) != want["sha256"]:
                return f"{label}: output digest differs from the recorded one"
            return None

        return Op(label, lambda: self.execute(label), check)


WORKLOADS = {w.name: w for w in (Catalog, OracleSweep, LargeCarrier)}
