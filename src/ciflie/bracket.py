"""The CIF bracket product [A, B] and its independent cross-check.

The production algorithm is a level-cut ladder, run once per distinct
level split of the degree's scalar components (mem r, mem w, non r,
non w).  For a membership component c and a threshold t, the cut of
[A, B] is the span of the crisp brackets [a, b] with c_A(a) >= t and
c_B(b) >= t, and x takes the largest t whose cut holds it (0 when none
does).  Non-membership components are dual: lower cuts, ascending
thresholds, default 1.  The sup over decompositions of unbounded length
collapses to span membership because any span element is a finite
combination of cut generators.  Two facts make each cut cheap and exact:

* min(c_A(a), c_B(b)) >= t exactly when c_A(a) >= t and c_B(b) >= t
  (dually max <= t exactly when both are <= t), so the pairs clearing t
  are the products of A's cut and B's cut.
* By bilinearity, span{[a, b] : a in S, b in T} is spanned by the
  brackets of a basis of span S with a basis of span T.

So the thresholds are the values A and B take, swept as the int ranks of
``cifset.rank_encode``, and a sweep that brackets only the basis vectors
new at each threshold against the other side's basis makes at most dim^2
bracket evaluations per component.  Spans are carrier bitsets grown by
translates (``superalgebra._grow``), as the sum grows its sumsets.  A
component is fixed by its family of cuts (Zadeh's resolution identity)
and the sweep reads t as a label only.  The ranks are dense over the values
taken, so two components that cut A and B into the same levels, with rank
0 in both or in neither, carry the same labels too: ``cifset.per_split``
sweeps once for both.  On homogeneous pairs the degree values form a
chain and the componentwise reading is the joint amplitude-phase ladder;
otherwise the result carries a note.  Whether the meets (joins) of the
values form a chain is decided from each side's distinct ranks capped by
the other side's top, without forming the k_A * k_B meets.

The oracle reads each component through its level subgroups (Das's
level subgroups of a fuzzy group; Zadeh's resolution identity): each
crisp bracket g is seeded with its best single-term value, and the
seeds, swept best first, grow the additive closure one coset at a time,
so each vector is reached once.  It enumerates all |V|^2 argument pairs,
reading each distinct row [a, B] once off the basis table [e_i, e_j] and
reducing it mod p for that row only, so it holds O(|V|) codes at a time.
It ranks only the distinct degrees, exactly, and seeds and closes once
per split of its own.  It uses vector addition only, no spans, echelon
forms, rank encoder, ``per_split`` or result decoder of the ladder's; it
shares ``bracket_eval``, the vector operations, ``space_vectors`` and
``COMPONENTS``.  Agreement between the two is the module's keystone
correctness property.  It takes every carrier the package accepts
(MAX_CARRIER = 3125 vectors).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from operator import mul

from .cifset import (
    COMPONENTS,
    CIFSet,
    _label,
    _same_space,
    cif_sum,
    component_extension,
    from_columns,
    is_z2_graded,
    per_split,
    rank_encode,
)
from .degrees import EMPTY, CIFDegree, Degree
from .superalgebra import (
    SubspaceBasis,
    Vector,
    _grow,
    bracket_eval,
    space_vectors,
    span_closure,
    vec_add,
    vec_scale,
)


@dataclass(frozen=True)
class LevelCutLadder:
    """Thresholds with their cut spans, for one side of a bracket product:
    descending thresholds with growing cuts spanning the brackets of the
    pairs whose meet dominates each (membership), or dually ascending."""

    side: str
    thresholds: tuple[Degree, ...]
    cuts: tuple[SubspaceBasis, ...]


def _component(alg, steps) -> list:
    """One component of [A, B] in carrier order, as ranks: each x takes the
    first rank t along ``steps`` whose cut span holds it, rank 0 (the off
    value) when none does.  A step is (t, the vectors joining A's cut at t,
    those joining B's).  Only the vectors that grow a side's span join its
    basis, and only brackets with a new basis vector are taken, so the sweep
    makes at most rank_A * rank_B bracket evaluations.  Nothing is labelled
    before both cuts are nonempty: no pair clears those thresholds, so they
    do not hold even the zero vector."""
    column = [0] * len(space_vectors(alg))
    full = (1 << len(column)) - 1
    span_a = span_b = reached = 0  # a side's span holds bit 0, zero, once its cut is nonempty
    out, basis_a, basis_b = 1, [], []
    for t, group_a, group_b in steps:
        span_a, new_a = _grow(alg, span_a | bool(group_a), group_a)
        span_b, new_b = _grow(alg, span_b | bool(group_b), group_b)
        basis_b += new_b
        brackets = [bracket_eval(alg, a, b) for a in new_a for b in basis_b]
        brackets += [bracket_eval(alg, a, b) for a in basis_a for b in new_b]
        basis_a += new_a
        out = _grow(alg, out, brackets)[0]
        if span_a and span_b:
            _label(column, out ^ reached, t)
            reached = out
            if reached == full or span_a & span_b == full:  # nothing left to label, or to grow
                break
    return column


def _achievable(groups_a: dict, groups_b: dict, i: int) -> tuple[bool, list[dict]]:
    """Whether the meets (membership, i = 0) or joins (non-membership,
    i = 2) of A's and B's values form a chain, and per side each value's
    cap; when they do, the caps are the achievable values.  No k_A * k_B
    meets are formed.  A value is the rank pair (k[i], k[i + 1]) of a
    group key k; ranks rise with the better value on both sides, so a
    meet (join) is the componentwise min of the ranks.

    Let top_B be the componentwise best of B's values and cap(u) =
    meet(u, top_B) for A's values (cap(v) = meet(v, top_A) for B's).
    The meets form a chain exactly when the caps do, and then the two
    sets are equal.  meet(u, v) = meet(cap(u), cap(v)), so a chain of
    caps holds every meet.  Conversely cap(u) = join(meet(u, b1),
    meet(u, b2)) for values b1, b2 of B that reach top_B's amplitude and
    phase; when the meets form a chain those two are comparable, so
    cap(u) is one of them.  Joins are dual.  Sorted by (r, w), the caps
    form a chain when w never decreases.
    """
    values = [{k[i : i + 2] for k in groups} for groups in (groups_a, groups_b)]
    tops = [(max(r for r, _ in vs), max(w for _, w in vs)) for vs in values]
    caps = [{u: tuple(map(min, u, top)) for u in vs} for vs, top in zip(values, tops[::-1])]
    ordered = sorted({c for cap in caps for c in cap.values()})
    return all(u[1] <= v[1] for u, v in zip(ordered, ordered[1:])), caps


def _level_ladder(A: CIFSet, B: CIFSet, side: str) -> LevelCutLadder:
    """Joint amplitude-phase ladder; the achievable values must be a
    chain.  A vector enters the cut of its value's cap, the largest
    achievable value below it (dually the smallest above it)."""
    alg = _same_space(A, B)
    scales, groups = rank_encode(A, B)
    i = 0 if side == "mem" else 2
    chain, caps = _achievable(*groups, i)
    if not chain:
        word = "membership" if side == "mem" else "non-membership"
        raise ValueError(f"achievable {word} degrees do not form a chain")
    order = sorted({t for cap in caps for t in cap.values()}, reverse=True)
    entries: list[dict[tuple, list[Vector]]] = [{}, {}]
    for g, cap, out in zip(groups, caps, entries):
        for key, xs in g.items():
            out.setdefault(cap[key[i : i + 2]], []).extend(xs)
    # threshold k is labelled len(order) - k: its cut holds the vectors labelled that or more
    steps = [(len(order) - k, entries[0].get(t, ()), entries[1].get(t, ())) for k, t in enumerate(order)]
    labels = list(zip(space_vectors(alg), _component(alg, steps)))
    cuts = tuple(span_closure(alg, [x for x, label in labels if label >= k]) for k, _, _ in steps)
    thresholds = tuple(Degree(scales[i][r], scales[i + 1][w]) for r, w in order)
    return LevelCutLadder(side, thresholds, cuts)


def mem_level_ladder(A: CIFSet, B: CIFSet) -> LevelCutLadder:
    """Membership-side ladder; requires the achievable meets to be a chain."""
    return _level_ladder(A, B, "mem")


def non_level_ladder(A: CIFSet, B: CIFSet) -> LevelCutLadder:
    """Non-membership-side ladder; ascending thresholds, <=-cuts."""
    return _level_ladder(A, B, "non")


def bracket_product(A: CIFSet, B: CIFSet) -> CIFSet:
    """The CIF bracket product of A and B.

    The degree at x is the largest threshold whose cut span contains x
    (membership side; dually the smallest on the non-membership side),
    and (mem BOTTOM, non TOP) when x is in no cut, i.e. x is not a
    combination of brackets at all.  The zero vector lies in every span,
    so it picks up the top threshold, which is the pin.
    """
    alg = _same_space(A, B)
    scales, groups = rank_encode(A, B)
    columns = per_split(_component, alg, groups)
    notes = ()
    if not (_achievable(*groups, 0)[0] and _achievable(*groups, 2)[0]):
        notes = (
            "bracket of a non-homogeneous pair: amplitude and phase "
            "ladders computed independently",
        )
    return from_columns(alg, columns, notes, scales)


def bracket_product_oracle(A: CIFSet, B: CIFSet) -> CIFSet:
    """Coset-closure realization of the bracket product (see above).

    Per component, a crisp bracket g is seeded with the best min (dually
    max) over the pairs giving it, ranked so that higher is better; the
    seeds, best first, grow a closed set S: g outside S adds S + g, ...,
    S + (p-1)g, each new vector taking g's seed.  Zero takes the top seed,
    vectors never reached the component default.

    Only the distinct degrees are ranked, exactly, and components that
    rank every degree alike are seeded and closed once.  The row [a, B]
    is fixed by the codes of [a, e_j], so A's vectors are grouped by them
    and each distinct row is read once: [a, b] for every b, off the basis
    table [e_i, e_j] by bilinearity, reduced mod p in a memo that lives
    for that row only.  Each b of the row then folds in the worse of its
    rank and the best rank among the row's a's.
    """
    alg = _same_space(A, B)
    p, dim = alg.field.p, alg.dim
    vectors = space_vectors(alg)
    tables = [[S.table[x] for x in vectors] for S in (A, B)]  # each side's degrees in carrier order
    degrees = [*dict.fromkeys(tables[0]), *dict.fromkeys(tables[1])]
    exact = cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1])
    levels, ranks = [], []  # per component: the default, the values worst first; each degree's rank
    for side, attr, descending, default in COMPONENTS:
        values = [getattr(getattr(d, side), attr) for d in degrees]
        pairs = [q.as_integer_ratio() for q in values]
        distinct = dict(zip(pairs, values))
        order = sorted(distinct, key=exact, reverse=not descending)
        rank = {k: r for r, k in enumerate(order, 1)}
        levels.append([default, *map(distinct.__getitem__, order)])
        ranks.append([rank[k] for k in pairs])
    keys = list(zip(*ranks))  # per degree, its ranks
    # the ranks a component gives the degrees -> the first such component; each
    # via a list, since tuple(generator) resizes as it grows, fragmenting the heap
    first: dict[tuple, int] = {}
    reps = [first.setdefault(tuple([k[c] for k in keys]), c) for c in range(len(COMPONENTS))]
    key_of = dict(zip(degrees, keys))  # degree -> its ranks
    b_ranks = {c: [key_of[d][c] for d in tables[1]] for c in first.values()}  # per split, in carrier order

    # [a, b] is built as an unreduced code, w bits a coordinate, and
    # reduced mod p once per distinct code of its row.  A coordinate sums
    # dim^2 terms a_i * b_j * [e_i, e_j]_k, each at most (p-1)^3, so it
    # stays below 2^w.
    w = (dim * dim * (p - 1) ** 3).bit_length()
    basis = [alg.basis(i) for i in range(dim)]  # the table: per j, the codes of [e_i, e_j] over i
    table = [[sum(c << w * k for k, c in enumerate(bracket_eval(alg, e, f))) for e in basis] for f in basis]
    # a's row is fixed by the codes of [a, e_j]; a row seeds each split at
    # the best rank among its a's, since max over a of min(r_a, t) is
    # min(max r_a, t)
    by_row: dict[tuple, tuple] = {}
    for a, d in zip(vectors, tables[0]):
        key, ra = tuple([sum(map(mul, a, column)) for column in table]), key_of[d]
        by_row[key] = tuple(map(max, ra, by_row.get(key, ra)))
    seeds: dict[int, dict[int, int]] = {c: {} for c in first.values()}  # per split, reduced code -> rank
    for key, ra in by_row.items():
        row = [0]  # [a, b] for every b, in carrier order
        for col in key:
            steps = [k * col for k in range(p)]
            row = [x + s for x in row for s in steps]
        canon = {g: sum((g >> w * k) % (1 << w) % p << w * k for k in range(dim)) for g in set(row)}
        row = [canon[g] for g in row]
        for c, best in seeds.items():
            top = ra[c]
            for g, t in zip(row, b_ranks[c]):
                t = t if t < top else top  # a pair ranks as the worse of its two
                if best.get(g, 0) < t:
                    best[g] = t

    vector = {g: tuple((g >> w * k) % (1 << w) for k in range(dim)) for g in seeds[0]}
    columns = {}
    for c, ranked in seeds.items():
        seed = {vector[g]: t for g, t in ranked.items()}
        value = {alg.zero(): max(seed.values())}
        closed = [alg.zero()]
        for g in sorted(seed, key=seed.__getitem__, reverse=True):
            if g not in value:
                coset = [vec_add(p, x, vec_scale(p, k, g)) for k in range(1, p) for x in closed]
                value.update((x, seed[g]) for x in coset)
                closed += coset
        columns[c] = [value.get(x, 0) for x in vectors]
    rows = list(zip(*(columns[c] for c in reps)))
    decoded = {(0, 0, 0, 0): EMPTY, **dict(zip(keys, degrees))}  # rows known up front; others built once
    for row in set(rows).difference(decoded):
        mr, mw, nr, nw = map(list.__getitem__, levels, row)
        decoded[row] = CIFDegree(Degree(mr, mw), Degree(nr, nw))
    return CIFSet(alg, dict(zip(vectors, map(decoded.__getitem__, rows))))


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
