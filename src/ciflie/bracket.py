"""The CIF bracket product [A, B] and its independent cross-check.

The production algorithm is a level-cut ladder, run once per scalar
component of the degree (mem r, mem w, non r, non w).  For a membership
component c and a threshold t, the cut of [A, B] is the span of the
crisp brackets [a, b] with c_A(a) >= t and c_B(b) >= t, and x takes the
largest t whose cut holds it (0 when none does).  Non-membership
components are dual: lower cuts, ascending thresholds, default 1.  The
sup over decompositions of unbounded length collapses to span
membership because any span element is a finite combination of cut
generators.  Two facts make each cut cheap and exact:

* min(c_A(a), c_B(b)) >= t exactly when c_A(a) >= t and c_B(b) >= t
  (dually max <= t exactly when both are <= t), so the pairs clearing t
  are the products of A's cut and B's cut.
* By bilinearity, span{[a, b] : a in S, b in T} is spanned by the
  brackets of a basis of span S with a basis of span T.

So the thresholds are the values A and B take, and a sweep that
brackets only the basis vectors new at each threshold against the other
side's basis makes at most dim^2 bracket evaluations per component.  On
homogeneous pairs the degree values form a chain and the componentwise
reading is the joint amplitude-phase ladder; otherwise the result
carries a note.  Whether the meets (joins) of the values form a chain is
decided from the sorted distinct values of each side, without forming
the k_A * k_B meets.

The oracle is a dynamic-programming fixpoint over single-term values,
sharing no span machinery with the ladder; agreement between the two is
the module's keystone correctness property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cifset import (
    COMPONENTS,
    INF,
    CIFSet,
    _same_space,
    cif_sum,
    component_extension,
    from_columns,
    is_z2_graded,
    merged_levels,
    phase_bounds,
)
from .degrees import BOTTOM, CIFDegree, Degree, TOP, deg_join, deg_leq, deg_meet
from .superalgebra import (
    SpanBuilder,
    SubspaceBasis,
    Vector,
    bracket_eval,
    space_vectors,
    vec_scale,
    vec_sub,
)

ORACLE_CARRIER_CAP = 81


@dataclass(frozen=True)
class LevelCutLadder:
    """Thresholds with their cut spans, for one side of a bracket product.

    Membership-side ladders list thresholds in descending order with the
    cut at each threshold spanning the brackets of argument pairs whose
    meet dominates it; the cuts grow as the threshold drops.  The
    non-membership side is dual: ascending thresholds, <=-cuts.
    """

    side: str
    thresholds: tuple[Degree, ...]
    cuts: tuple[SubspaceBasis, ...]


def _cut_spans(alg, steps):
    """Yield (t, span of the cut brackets) along ``steps``.

    Each step is (t, the vectors that join A's cut at t, the vectors
    that join B's cut at t), in sweep order.  Only the vectors that
    raise the rank of a side's span are kept as its basis, and only
    brackets with a new basis vector are taken, so the whole
    sweep makes at most rank_A * rank_B bracket evaluations.  Nothing is
    yielded before both cuts are nonempty: no pair clears those
    thresholds, so they do not hold even the zero vector.
    """
    span_a = SpanBuilder(alg.field, alg.dim)
    span_b = SpanBuilder(alg.field, alg.dim)
    out = SpanBuilder(alg.field, alg.dim)
    basis_a: list[Vector] = []
    basis_b: list[Vector] = []
    seen_a = seen_b = False
    for t, group_a, group_b in steps:
        seen_a = seen_a or bool(group_a)
        seen_b = seen_b or bool(group_b)
        new_a = [a for a in group_a if span_a.add(a)]
        new_b = [b for b in group_b if span_b.add(b)]
        basis_b += new_b
        for a in new_a:
            for b in basis_b:
                out.add(bracket_eval(alg, a, b))
        for a in basis_a:
            for b in new_b:
                out.add(bracket_eval(alg, a, b))
        basis_a += new_a
        if seen_a and seen_b:
            yield t, out


def _combined_values_form_chain(A: CIFSet, B: CIFSet, side: str) -> bool:
    """Whether the meets (membership) or joins (non-membership) of A's
    and B's values form a chain, decided without forming them.

    Joins are meets of the negated values.  The meets fail to be a chain
    exactly when, for some amplitude t among the inputs', a meet with
    amplitude below t has a larger phase than one with amplitude t or
    more.  A meet reaches t iff both arguments do, so the least phase
    there is the smaller of the two sides' least phases at or above t;
    a meet falls below t iff one argument does, so the largest phase
    there pairs one side's largest phase below t with the other side's
    largest phase overall.
    """
    sign = 1 if side == "mem" else -1
    vectors = space_vectors(A.space)
    left = list({(sign * d.r, sign * d.w) for d in (getattr(A.table[x], side) for x in vectors)})
    right = list({(sign * d.r, sign * d.w) for d in (getattr(B.table[x], side) for x in vectors)})
    amps = sorted({r for r, _ in left} | {r for r, _ in right})
    top_left = max(w for _, w in left)
    top_right = max(w for _, w in right)
    for (below_l, above_l), (below_r, above_r) in zip(
        phase_bounds(left, amps), phase_bounds(right, amps)
    ):
        if above_l == INF or above_r == INF:
            continue  # no meet reaches t
        if max(min(below_l, top_right), min(top_left, below_r)) > min(above_l, above_r):
            return False
    return True


def _achievable(A: CIFSet, B: CIFSet, side: str) -> set[Degree]:
    """Meets (membership) or joins (non-membership) of the argument
    degrees: every pair of distinct values is taken by some (a, b)."""
    combine = deg_meet if side == "mem" else deg_join
    vectors = space_vectors(A.space)
    left = {getattr(A.table[x], side) for x in vectors}
    right = {getattr(B.table[x], side) for x in vectors}
    return {combine(u, v) for u in left for v in right}


def _level_ladder(A: CIFSet, B: CIFSet, side: str) -> LevelCutLadder:
    """Joint amplitude-phase ladder; the achievable values must be a chain."""
    alg = _same_space(A, B)
    if not _combined_values_form_chain(A, B, side):
        word = "membership" if side == "mem" else "non-membership"
        raise ValueError(f"achievable {word} degrees do not form a chain")
    mem = side == "mem"
    order = sorted(_achievable(A, B, side), key=lambda d: (d.r, d.w), reverse=mem)

    def entries(S: CIFSet) -> dict:
        # a vector joins the first cut whose threshold its degree clears
        first: dict[Degree, Degree | None] = {}
        out: dict[Degree, list[Vector]] = {}
        for x in space_vectors(S.space):
            d = getattr(S.table[x], side)
            if d not in first:
                first[d] = next(
                    (t for t in order if (deg_leq(t, d) if mem else deg_leq(d, t))), None
                )
            if first[d] is not None:
                out.setdefault(first[d], []).append(x)
        return out

    entries_a, entries_b = entries(A), entries(B)
    steps = ((t, entries_a.get(t, ()), entries_b.get(t, ())) for t in order)
    cuts = [span.to_basis() for _, span in _cut_spans(alg, steps)]
    return LevelCutLadder(side, tuple(order), tuple(cuts))


def mem_level_ladder(A: CIFSet, B: CIFSet) -> LevelCutLadder:
    """Membership-side ladder; requires the achievable meets to be a chain."""
    return _level_ladder(A, B, "mem")


def non_level_ladder(A: CIFSet, B: CIFSet) -> LevelCutLadder:
    """Non-membership-side ladder; ascending thresholds, <=-cuts."""
    return _level_ladder(A, B, "non")


def _component(A: CIFSet, B: CIFSet, side: str, attr: str, descending: bool, default):
    """One component of [A, B] in carrier order: each x takes the first
    threshold whose cut span holds it, ``default`` when none does."""
    alg = A.space
    vectors = space_vectors(alg)
    value: dict[Vector, Fraction] = {}
    rank = -1
    for t, span in _cut_spans(alg, merged_levels(A, B, side, attr, descending)):
        if span.rank > rank:
            rank = span.rank
            for x in span.to_basis().members():
                value.setdefault(x, t)
            if len(value) == len(vectors):
                break
    return [value.get(x, default) for x in vectors]


def bracket_product(A: CIFSet, B: CIFSet) -> CIFSet:
    """The CIF bracket product of A and B.

    The degree at x is the largest threshold whose cut span contains x
    (membership side; dually the smallest on the non-membership side),
    and (mem BOTTOM, non TOP) when x is in no cut, i.e. x is not a
    combination of brackets at all.  The zero vector lies in every span,
    so it picks up the top threshold, which is the pin.
    """
    alg = _same_space(A, B)
    columns = [
        _component(A, B, side, attr, descending, default)
        for side, attr, descending, default in COMPONENTS
    ]
    notes = ()
    if not (
        _combined_values_form_chain(A, B, "mem")
        and _combined_values_form_chain(A, B, "non")
    ):
        notes = (
            "bracket of a non-homogeneous pair: amplitude and phase "
            "ladders computed independently",
        )
    return from_columns(alg, columns, notes)


def bracket_product_oracle(A: CIFSet, B: CIFSet) -> CIFSet:
    """Dynamic-programming fixpoint realization of the bracket product.

    Seed every x with the componentwise best over single terms
    x = alpha * [a, b], then close under binary sums, joining meets on
    the membership side and dually on the non-membership side.  The
    closure stabilizes within |V| rounds.  No span machinery is shared
    with the ladder algorithm; on homogeneous inputs the two must agree
    exactly.
    """
    alg = _same_space(A, B)
    if alg.size > ORACLE_CARRIER_CAP:
        raise ValueError(
            f"carrier too large for the oracle: {alg.size} > {ORACLE_CARRIER_CAP}"
        )
    p = alg.field.p
    vectors = space_vectors(alg)

    mem: dict[Vector, Degree] = {x: BOTTOM for x in vectors}
    non: dict[Vector, Degree] = {x: TOP for x in vectors}
    for a in vectors:
        da = A.table[a]
        for b in vectors:
            db = B.table[b]
            g = bracket_eval(alg, a, b)
            m = deg_meet(da.mem, db.mem)
            n = deg_join(da.non, db.non)
            for alpha in alg.field.elements:
                x = vec_scale(p, alpha, g)
                mem[x] = deg_join(mem[x], m)
                non[x] = deg_meet(non[x], n)

    for _ in range(alg.size):
        changed = False
        for x in vectors:
            best_m = mem[x]
            best_n = non[x]
            for u in vectors:
                v = vec_sub(p, x, u)
                cand_m = deg_meet(mem[u], mem[v])
                if not deg_leq(cand_m, best_m):
                    best_m = deg_join(best_m, cand_m)
                cand_n = deg_join(non[u], non[v])
                if not deg_leq(best_n, cand_n):
                    best_n = deg_meet(best_n, cand_n)
            if best_m != mem[x] or best_n != non[x]:
                mem[x] = best_m
                non[x] = best_n
                changed = True
        if not changed:
            break

    table = {x: CIFDegree(mem[x], non[x]) for x in vectors}
    return CIFSet(alg, table)


def bracket_graded_parts(A: CIFSet, B: CIFSet) -> tuple[CIFSet, CIFSet]:
    """Even and odd parts of [A, B] via the four component brackets.

    part_0 = [a_0, b_0] + [a_1, b_1] and part_1 = [a_0, b_1] + [a_1, b_0]
    on the component extensions; their sum reproduces the full bracket
    product when A and B are Z2-graded.
    """
    for name, S in (("A", A), ("B", B)):
        rep = is_z2_graded(S)
        if not rep:
            raise ValueError(f"input {name} is not Z2-graded: {rep.witness}")
    a0 = component_extension(A, 0)
    a1 = component_extension(A, 1)
    b0 = component_extension(B, 0)
    b1 = component_extension(B, 1)
    part0 = cif_sum(bracket_product(a0, b0), bracket_product(a1, b1))
    part1 = cif_sum(bracket_product(a0, b1), bracket_product(a1, b0))
    return part0, part1
