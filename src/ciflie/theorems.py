"""Executable catalog of the bracket-product laws.

Each catalog entry generates inputs of the hypothesis class its law
states (arbitrary homogeneous sets, CIF subspaces, graded subspaces or
CIF ideals), evaluates both sides exactly, and reports the first
disagreeing vector as a witness.  Trials are independently seeded, so a
single (seed, trial index) pair replays any failure.

The negative controls run deliberately falsified variants of a few laws
and demand at least one failure each: a harness that cannot fail proves
nothing.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .bracket import bracket_graded_parts, bracket_product, bracket_product_oracle
from .cifset import (
    CIFSet,
    cif_sum,
    first_difference,
    image,
    intersection,
    is_cif_ideal,
    is_cif_subspace,
    is_direct_sum,
    is_z2_graded,
    make_cifset,
    preimage,
    scalar_action,
    subset_of,
    table_fingerprint,
    trivial_cifset,
)
from .degrees import EMPTY
from .generators import (
    GenConfig,
    _random_homogeneous_vector,
    crisp_ideal_closure,
    derive_seed,
    gen_anti_hom,
    gen_cif_ideal,
    gen_cif_set,
    gen_cif_subspace,
    gen_pair,
    make_config,
    trial_config,
)
from .superalgebra import Superalgebra, _grow, _members


@dataclass(frozen=True)
class TrialFailure:
    seed: int
    inputs_digest: str
    witness: str


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    trials: int
    failures: tuple[TrialFailure, ...]
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures


def _digest(*sets: CIFSet) -> str:
    blob = "&".join(table_fingerprint(s) for s in sets)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _eq_witness(label: str, X: CIFSet, Y: CIFSet) -> str | None:
    diff = first_difference(X, Y)
    if diff is None:
        return None
    return f"{label}: tables differ at x={diff}"


def _subset_witness(label: str, X: CIFSet, Y: CIFSet) -> str | None:
    if subset_of(X, Y):
        return None
    return f"{label}: containment fails"


# A runner returns its witness (None when the law held) and its input sets.
Runner = Callable[[GenConfig, random.Random], tuple[str | None, tuple[CIFSet, ...]]]


def _transform(kind: str, cfg: GenConfig, rng: random.Random):
    """The map a law is stated through, and its label: the identity
    (draws nothing), or the image or the preimage under an
    anti-homomorphism phi drawn from ``rng`` at this point."""
    if kind == "identity":
        return (lambda X: X), ""
    phi = gen_anti_hom(cfg, rng)
    if kind == "image":
        return (lambda X: image(phi, X)), "phi"
    return (lambda X: preimage(phi, X)), "phi^-1"


def _run_closed(kind, op, cfg, rng):
    """A+B or [A,B] of two CIF subspaces (ideals) is one again."""
    A, B = gen_pair(cfg, rng, kind=kind)
    out = cif_sum(A, B) if op == "A+B" else bracket_product(A, B)
    if kind == "subspace":
        rep, word = is_cif_subspace(out), "a subspace"
    else:
        rep, word = is_cif_ideal(out), "an ideal"
    witness = None if rep.ok else f"{op} not {word}: {rep.witness}"
    return witness, (A, B)


def _run_lem_2(cfg, rng):
    B = gen_cif_subspace(cfg, rng)
    A1 = intersection(gen_cif_set(cfg, rng), B)
    A2 = intersection(gen_cif_set(cfg, rng), B)
    witness = _subset_witness("A1+A2 <= B", cif_sum(A1, A2), B)
    return witness, (A1, A2, B)


def _run_lem_1(cfg, rng):
    """A1 <= A2 and B1 <= B2 for arbitrary sets."""
    A2, B2 = gen_pair(cfg, rng, kind="set")
    A1 = intersection(gen_cif_set(cfg, rng), A2)
    B1 = intersection(gen_cif_set(cfg, rng), B2)
    witness = _subset_witness(
        "[A1,B1] <= [A2,B2]", bracket_product(A1, B1), bracket_product(A2, B2)
    )
    return witness, (A1, B1, A2, B2)


def _run_thrm_1(cfg, rng):
    A1, A2 = gen_pair(cfg, rng, kind="set")
    B = gen_cif_set(cfg, rng)
    S = cif_sum(A1, A2)
    witness = _eq_witness(
        "[A1+A2,B] = [A1,B]+[A2,B]",
        bracket_product(S, B),
        cif_sum(bracket_product(A1, B), bracket_product(A2, B)),
    ) or _eq_witness(
        "[B,A1+A2] = [B,A1]+[B,A2]",
        bracket_product(B, S),
        cif_sum(bracket_product(B, A1), bracket_product(B, A2)),
    )
    return witness, (A1, A2, B)


def _run_thrm_2(cfg, rng):
    A, B = gen_pair(cfg, rng, kind="subspace")
    alpha = rng.randrange(cfg.algebra.field.p)
    left = bracket_product(scalar_action(alpha, A), B)
    right = scalar_action(alpha, bracket_product(A, B))
    witness = _eq_witness(f"[{alpha}A,B] = {alpha}[A,B]", left, right) or _eq_witness(
        f"[A,{alpha}B] = {alpha}[A,B]", bracket_product(A, scalar_action(alpha, B)), right
    )
    return witness, (A, B)


def _run_bilinear(kind, cfg, rng):
    """[T(aA1+bA2),T(B)] = a[T(A1),T(B)] + b[T(A2),T(B)], then with the
    bracket's arguments swapped, for T the identity, an image or a
    preimage."""
    A1, A2 = gen_pair(cfg, rng, kind="subspace")
    B = gen_cif_subspace(cfg, rng)
    T, name = _transform(kind, cfg, rng)
    p = cfg.algebra.field.p
    alpha, beta = rng.randrange(p), rng.randrange(p)
    combo = T(cif_sum(scalar_action(alpha, A1), scalar_action(beta, A2)))
    TA1, TA2, TB = T(A1), T(A2), T(B)

    def law(swap: bool) -> str | None:
        def br(X, Y):
            return bracket_product(Y, X) if swap else bracket_product(X, Y)

        pair = "[{1},{0}]" if swap else "[{0},{1}]"
        wrap = f"{name}({{}})" if name else "{}"
        left = br(combo, TB)
        right = cif_sum(
            scalar_action(alpha, br(TA1, TB)), scalar_action(beta, br(TA2, TB))
        )
        label = pair.format(wrap.format(f"{alpha}A1+{beta}A2"), wrap.format("B"))
        if name:
            label += " bilinear"
        else:
            label += f" = {alpha}{pair.format('A1', 'B')}+{beta}{pair.format('A2', 'B')}"
        return _eq_witness(label, left, right)

    return law(False) or law(True), (A1, A2, B)


def _run_lem_4(cfg, rng):
    A, B = gen_pair(cfg, rng, kind="graded")
    product = bracket_product(A, B)
    rep = is_z2_graded(product)
    if not rep.ok:
        return f"[A,B] not graded: {rep.witness}", (A, B)
    part0, part1 = bracket_graded_parts(A, B)
    if not is_direct_sum(part0, part1):
        return "graded parts are not a direct sum", (A, B)
    witness = _eq_witness("[A,B] = [A,B]_0 + [A,B]_1", cif_sum(part0, part1), product)
    return witness, (A, B)


def _run_lem_5(cfg, rng):
    A, B = gen_pair(cfg, rng, kind="graded")
    witness = _eq_witness(
        "[A,B] = [B,A]", bracket_product(A, B), bracket_product(B, A)
    )
    return witness, (A, B)


def _run_bracket_contained(kind, cfg, rng):
    """T([A,B]) <= [T(A),T(B)] for ideals and T an image or a preimage."""
    A, B = gen_pair(cfg, rng, kind="ideal")
    T, name = _transform(kind, cfg, rng)
    witness = _subset_witness(
        f"{name}([A,B]) <= [{name}(A),{name}(B)]",
        T(bracket_product(A, B)),
        bracket_product(T(A), T(B)),
    )
    return witness, (A, B)


def _run_thrm_15(cfg, rng):
    A, B = gen_pair(cfg, rng, kind="ideal")
    phi = gen_anti_hom(cfg, rng)
    left = preimage(phi, cif_sum(A, B))
    right = cif_sum(preimage(phi, A), preimage(phi, B))
    witness = _eq_witness("phi^-1(A+B) = phi^-1(A)+phi^-1(B)", left, right)
    return witness, (A, B)


def _run_scalar_commutes(kind, letter, cfg, rng):
    """T(aX) = aT(X) for an ideal X and T an image or a preimage; at
    a = 0 both sides must also be the trivial set."""
    X = gen_cif_ideal(cfg, rng)
    T, name = _transform(kind, cfg, rng)
    alpha = rng.randrange(cfg.algebra.field.p)
    left = T(scalar_action(alpha, X))
    right = scalar_action(alpha, T(X))
    witness = _eq_witness(
        f"{name}({alpha}{letter}) = {alpha}{name}({letter})", left, right
    )
    if witness is None and alpha == 0:
        witness = _eq_witness(
            f"{name}(0{letter}) = trivial", left, trivial_cifset(cfg.algebra)
        )
    return witness, (X,)


def _run_oracle_agreement(cfg, rng):
    A, B = gen_pair(cfg, rng, kind="subspace")
    witness = _eq_witness(
        "ladder = coset oracle",
        bracket_product(A, B),
        bracket_product_oracle(A, B),
    )
    return witness, (A, B)


# Runners are bound to their law's transform here, but they call the
# ciflie functions by module-level name, so rebinding one (a tracer, a
# test sabotage) reaches every law that uses it.
CATALOG: dict[str, tuple[str, Runner]] = {
    "mylemma-1": (
        "sum of CIF subspaces is a CIF subspace",
        partial(_run_closed, "subspace", "A+B"),
    ),
    "sum-ideal": (
        "sum of CIF ideals is a CIF ideal", partial(_run_closed, "ideal", "A+B")
    ),
    "lem-1": ("bracket product is monotone in both arguments", _run_lem_1),
    "lem-2": ("sum of subsets of a subspace stays inside it", _run_lem_2),
    "lem-3": (
        "bracket product of subspaces is a subspace",
        partial(_run_closed, "subspace", "[A,B]"),
    ),
    "lem-4": ("bracket product of graded subspaces is graded", _run_lem_4),
    "lem-5": ("bracket product of graded subspaces is symmetric", _run_lem_5),
    "thrm-1": ("bracket product distributes over sums", _run_thrm_1),
    "thrm-2": ("bracket product respects scalar action", _run_thrm_2),
    "thrm-3": (
        "bracket product of ideals is an ideal",
        partial(_run_closed, "ideal", "[A,B]"),
    ),
    "thrm-4": (
        "image of a bracket is inside the bracket of images",
        partial(_run_bracket_contained, "image"),
    ),
    "thrm-9": ("bracket product is bilinear", partial(_run_bilinear, "identity")),
    "thrm-10": (
        "image commutes with scalar action",
        partial(_run_scalar_commutes, "image", "A"),
    ),
    "thrm-11": (
        "preimage commutes with scalar action",
        partial(_run_scalar_commutes, "preimage", "B"),
    ),
    "thrm-15": ("preimage distributes over sums", _run_thrm_15),
    "preimg-bracket": (
        "preimage of a bracket is inside the bracket of preimages",
        partial(_run_bracket_contained, "preimage"),
    ),
    "cor-image-bilinear": (
        "bracket of images is bilinear in the mapped arguments",
        partial(_run_bilinear, "image"),
    ),
    "cor-preimage-bilinear": (
        "bracket of preimages is bilinear in the pulled-back arguments",
        partial(_run_bilinear, "preimage"),
    ),
    "oracle": ("ladder and coset oracle agree", _run_oracle_agreement),
}

THEOREM_IDS = tuple(k for k in CATALOG if k != "oracle")


def check_theorem(theorem_id: str, cfg: GenConfig, trials: int) -> TheoremReport:
    """Run ``trials`` seeded instances of one catalog law; only a
    failing trial's inputs are digested, for its report."""
    if theorem_id not in CATALOG:
        raise KeyError(f"unknown theorem id: {theorem_id}")
    _, runner = CATALOG[theorem_id]
    failures: list[TrialFailure] = []
    for index in range(trials):
        tcfg = trial_config(cfg, index)
        witness, inputs = runner(tcfg, tcfg.rng())
        if witness is not None:
            failures.append(TrialFailure(tcfg.seed, _digest(*inputs), witness))
    return TheoremReport(theorem_id, trials, tuple(sorted(failures, key=lambda f: f.seed)))


def _nonideal_graded_subspace(alg: Superalgebra, rng: random.Random) -> int | None:
    """A crisp graded subspace not closed under bracketing, as a carrier
    bitset, if one exists: a proper span that its ideal closure outgrows."""
    for _ in range(200):
        gens = [
            _random_homogeneous_vector(alg, rng)
            for _ in range(rng.randint(1, alg.dim))
        ]
        span, basis = _grow(alg, 1, gens)
        if 0 < len(basis) < alg.dim and crisp_ideal_closure(alg, basis)[0] != span:
            return span
    return None


def _control_lem1_reversed(cfg, rng):
    """A1 and B1 are graded CIF subspaces cut down to arbitrary A2 and
    B2, so [A1, B1] falls short of [A2, B2] also on algebras where the
    brackets of arbitrary subsets often reach the same cuts (osp(1|2),
    gl(1|1))."""
    A2, B2 = gen_pair(cfg, rng, kind="set")
    A1 = intersection(gen_cif_subspace(cfg, rng, graded=True), A2)
    B1 = intersection(gen_cif_subspace(cfg, rng, graded=True), B2)
    return not subset_of(bracket_product(A2, B2), bracket_product(A1, B1))


def _control_absorption_reversed(cfg, rng):
    A, B = gen_pair(cfg, rng, kind="subspace")
    return not subset_of(cif_sum(A, B), A)


def _control_subset_reversed(cfg, rng):
    B = gen_cif_set(cfg, rng)
    A = intersection(gen_cif_set(cfg, rng), B)
    if first_difference(A, B) is None:
        return False
    return not subset_of(B, A)


def _control_ideal_on_nonideal(cfg, rng):
    alg = cfg.algebra
    span = _nonideal_graded_subspace(alg, rng)
    if span is None:
        return None
    top = cfg.degree_pool[-1]
    entries = [(x, top) for x in _members(alg, span) if x != alg.zero()]
    bad = make_cifset(alg, entries, EMPTY)
    return not is_cif_ideal(bad).ok


def _control_graded_on_nongraded(cfg, rng):
    alg = cfg.algebra
    evens = [i for i in range(alg.dim) if alg.parity[i] == 0]
    odds = [i for i in range(alg.dim) if alg.parity[i] == 1]
    if not evens or not odds:
        return None
    e, f = alg.basis(evens[0]), alg.basis(odds[0])
    mixed = tuple((a + b) % alg.field.p for a, b in zip(e, f))
    hi, lo = cfg.degree_pool[-1], cfg.degree_pool[0]
    bad = make_cifset(alg, [(e, hi), (f, hi), (mixed, lo)], EMPTY)
    return not is_z2_graded(bad).ok


NEGATIVE_CONTROLS: dict[str, Callable] = {
    "lem1-reversed": _control_lem1_reversed,
    "absorption-reversed": _control_absorption_reversed,
    "subset-reversed": _control_subset_reversed,
    "ideal-on-nonideal": _control_ideal_on_nonideal,
    "graded-on-nongraded": _control_graded_on_nongraded,
}


def negative_controls(cfg: GenConfig, trials: int = 200) -> TheoremReport:
    """Mutation-test the harness: each falsified law must fail somewhere.

    A control that never records a failure within the trial budget is
    itself reported as a failure.  Controls with no possible witness on
    the given algebra (say, the grading mutation on a single-parity
    carrier) are skipped and noted.
    """
    failures: list[TrialFailure] = []
    notes: list[str] = []
    total = 0
    for name, control in NEGATIVE_CONTROLS.items():
        ccfg = make_config(derive_seed(cfg.seed, _name_tag(name)), cfg.algebra)
        for index in range(trials):
            tcfg = trial_config(ccfg, index)
            outcome = control(tcfg, tcfg.rng())
            total += 1
            if outcome is None:
                notes.append(f"{name}: not applicable on this algebra")
                break
            if outcome:
                notes.append(f"{name}: falsified at seed {tcfg.seed}")
                break
        else:
            message = f"control {name} produced no failure in {trials} trials"
            failures.append(TrialFailure(cfg.seed, "-", message))
    return TheoremReport(
        "neg-controls", total, tuple(failures), note="; ".join(notes)
    )


def _name_tag(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
