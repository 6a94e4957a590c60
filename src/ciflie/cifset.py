"""CIF sets over a finite superalgebra carrier and their set calculus.

A CIF set is a total table from the carrier's vectors to paired
membership/non-membership degrees, pinned at the zero vector to full
membership (mem TOP, non BOTTOM).  All operations are pure and exact;
sups and infs over decompositions are componentwise maxima/minima over
the finite carrier.

The sum and the structural predicates work on level cuts, one scalar
component at a time (mem r, mem w, non r, non w).  A membership
component c has upper cuts {x : c(x) >= t}, swept in descending t; a
non-membership component has lower cuts {x : c(x) <= t}, swept in
ascending t.  The thresholds are the values the inputs take, ranked
once per operation (``rank_encode``): sweeps, caps and row keys work on
int ranks, and each distinct result row is decoded once, or reuses the
input degree it keys (``from_columns``).  The sum, the bracket product
and the subspace and ideal predicates run their kernel once per
distinct level split (``per_split``): a component is fixed by
its cuts, and two components with the same levels, rank 0 in both or in
neither, have the same ranks.  Every result equals its pairwise
definition, for these reasons:

* min(c(a), c(b)) >= t exactly when c(a) >= t and c(b) >= t, and
  dually max(c(a), c(b)) <= t exactly when both are <= t.  So the cut
  of a sum is the sumset of the cuts, (A + B)_t = A_t + B_t.
* Pigeonhole: once |A_t| + |B_t| > |V|, the sets A_t and x - B_t meet
  for every x, so A_t + B_t is the whole carrier and the sweep stops.
* Cuts, sumsets and spans are carrier bitsets, translated by two masked
  shifts per nonzero coordinate: a sumset grows by one translate per new
  vector, a span by p - 1 translates per vector off it
  (``superalgebra._grow``).
* A is a CIF subspace exactly when every cut of every component is a
  linear subspace.  Over F_p a nonempty set closed under + is closed
  under scalars too, and the pairwise clauses say precisely that each
  cut is closed under + and holds 0.  A cut is a subspace exactly when
  it equals its span.
* Cut-ideal criterion: a CIF subspace absorbs the bracket exactly when
  every cut equals its span and its ideal closure (``superalgebra._ideal``,
  by bilinearity the span closed under [u, e_j] and [e_j, u]).

A failing predicate rescans its pairs in carrier order only to name the
first witness, so its report reads as the pairwise definition's.  It
scans only pairs with a raised vector, one whose rank key is off the
floor, the componentwise least key that A takes.  A pair fails only
where some rank of its result is below that rank of x (scalar), of x
and y (additivity) or of x or y (bracket), and none is below the floor:
the subspace clauses need x and y raised, the bracket clause x or y.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Mapping

from .degrees import (
    CIFDegree,
    Degree,
    EMPTY,
    FULL,
    deg_join,
    deg_leq,
    deg_meet,
)
from .report import Report
from .superalgebra import (
    GradedMap,
    Superalgebra,
    Vector,
    _carrier_bits,
    _grow,
    _ideal,
    _translate,
    bracket_eval,
    graded_split,
    map_images,
    space_vectors,
    vec_scale,
)

INF = float("inf")


@dataclass(frozen=True)
class CIFSet:
    """Immutable total map from carrier vectors to CIF degrees.

    ``notes`` carries provenance warnings (e.g. a sum of a
    non-homogeneous pair) and never takes part in equality.
    """

    space: Superalgebra
    table: Mapping[Vector, CIFDegree]
    notes: tuple[str, ...] = dc_field(default=(), compare=False)

    def mem(self, x: Vector) -> Degree:
        return self.table[x].mem

    def non(self, x: Vector) -> Degree:
        return self.table[x].non


def make_cifset(
    space: Superalgebra,
    entries: Iterable[tuple[Vector, CIFDegree]],
    default: CIFDegree,
) -> CIFSet:
    """Build a total table: listed vectors get their degree, others the default.

    The zero vector is pinned to (mem TOP, non BOTTOM); an explicit zero
    entry must agree with the pin.  Degree budgets are enforced by the
    CIFDegree constructor.
    """
    table: dict[Vector, CIFDegree] = dict.fromkeys(space_vectors(space), default)
    zero = space.zero()
    seen: set[Vector] = set()
    for v, d in entries:
        v = tuple(v)
        if v not in table:
            raise ValueError(f"vector {v} does not belong to the space")
        if v in seen:
            raise ValueError(f"duplicate entry for vector {v}")
        seen.add(v)
        if v == zero and d != FULL:
            raise ValueError(
                "explicit zero entry must match the pin (mem TOP, non BOTTOM)"
            )
        table[v] = d
    table[zero] = FULL
    return CIFSet(space, table)


def trivial_cifset(space: Superalgebra) -> CIFSet:
    """Full membership at zero, none anywhere else."""
    return make_cifset(space, [], EMPTY)


def is_trivial(A: CIFSet) -> bool:
    zero = A.space.zero()
    return all(
        A.table[v] == EMPTY for v in space_vectors(A.space) if v != zero
    )


def _same_space(A: CIFSet, B: CIFSet) -> Superalgebra:
    if A.space != B.space:
        raise ValueError("CIF sets live on different spaces")
    return A.space


def subset_of(A: CIFSet, B: CIFSet) -> bool:
    """A <= B: memberships rise pointwise, non-memberships fall."""
    _same_space(A, B)
    return all(
        deg_leq(A.mem(x), B.mem(x)) and deg_leq(B.non(x), A.non(x))
        for x in space_vectors(A.space)
    )


def is_homogeneous(A: CIFSet) -> Report:
    """Amplitude order and phase order agree on every pair, on both sides."""
    return pair_homogeneous(A, A)


def _clashing_keys(groups_a: dict, groups_b: dict) -> set[tuple]:
    """The rank keys u of A that some key v of B orders differently by
    amplitude and by phase, on either side: v.r >= u.r with v.w < u.w,
    or v.r < u.r with v.w >= u.w.  With B's (r, w) points sorted by r,
    these are a suffix minimum and a prefix maximum of the phases.
    Non-membership ranks run against the values, so that side compares
    negated ranks."""
    bad = set()
    for side in (lambda k: (k[0], k[1]), lambda k: (-k[2], -k[3])):
        points = sorted(side(k) for k in groups_b)
        phases = [w for _, w in points]
        below = list(accumulate(phases, max, initial=-INF))
        above = list(accumulate(reversed(phases), min, initial=INF))[::-1]
        amps = [r for r, _ in points]
        for k in groups_a:
            r, w = side(k)
            i = bisect_left(amps, r)
            if above[i] < w or below[i] >= w:
                bad.add(k)
    return bad


def pair_homogeneous(A: CIFSet, B: CIFSet) -> Report:
    """Cross-set version: A's degrees compare consistently against B's.

    Decided on the ranks of the distinct degree values; on failure the
    pairs are scanned in carrier order, from the rows whose value
    clashes, for the first witness.
    """
    _same_space(A, B)
    _, groups = rank_encode(A, B)
    vectors = space_vectors(A.space)
    for x in sorted(x for k in _clashing_keys(*groups) for x in groups[0][k]):
        dx = A.table[x]
        for y in vectors:
            dy = B.table[y]
            if (dx.mem.r <= dy.mem.r) != (dx.mem.w <= dy.mem.w):
                return Report(False, (f"membership side disagrees at ({x}, {y})",))
            if (dx.non.r <= dy.non.r) != (dx.non.w <= dy.non.w):
                return Report(False, (f"non-membership side disagrees at ({x}, {y})",))
    return Report(True)


# The four scalar components of a degree: (side, attribute, whether the
# cuts are upper cuts swept in descending order, value off every cut).
COMPONENTS = (
    ("mem", "r", True, Fraction(0)),
    ("mem", "w", True, Fraction(0)),
    ("non", "r", False, Fraction(1)),
    ("non", "w", False, Fraction(1)),
)


def rank_encode(*sets: CIFSet) -> tuple[list, list[dict]]:
    """Rank-encode the degrees that the given sets take, for one operation.

    Per component, the distinct values and the off value are keyed by
    their (numerator, denominator) pairs, which Fractions keep reduced,
    and sorted once by the float numerator / denominator.  Int true
    division rounds correctly, so it is monotone: the floats order every
    pair of values they tell apart, and an exact Fraction comparison
    breaks only float ties.  Values are ranked so that a better value (a
    larger membership, a smaller non-membership) has a higher rank and
    the off value has rank 0.  Returns the four scales (rank -> value)
    followed by the input degrees keyed by their rank tuples, which
    ``from_columns`` may reuse, and per set its vectors grouped by rank
    key, their degree's ranks.
    """
    by_degree = []
    for S in sets:
        groups: dict[CIFDegree, list[Vector]] = {}
        for x, d in S.table.items():
            groups.setdefault(d, []).append(x)
        by_degree.append(groups)
    degrees = list({d: None for groups in by_degree for d in groups})
    quads = [(d.mem.r, d.mem.w, d.non.r, d.non.w) for d in degrees]
    scales, ranks = [], []
    for (_, _, descending, off), column in zip(COMPONENTS, zip(*quads)):
        distinct = {q.as_integer_ratio(): q for q in (off, *column)}
        order = sorted(distinct, key=lambda k: (k[0] / k[1], distinct[k]), reverse=not descending)
        scales.append([distinct[k] for k in order])
        ranks.append({k: i for i, k in enumerate(order)})
    mr, mw, nr, nw = ranks
    keys = [
        (mr[a.as_integer_ratio()], mw[b.as_integer_ratio()], nr[c.as_integer_ratio()], nw[e.as_integer_ratio()])
        for a, b, c, e in quads
    ]
    key_of = dict(zip(degrees, keys))
    scales.append(dict(zip(keys, degrees)))
    return scales, [{key_of[d]: xs for d, xs in g.items()} for g in by_degree]


def rank_steps(c: int, *groups: dict):
    """Yield (t, each set's vectors at rank t) over the ranks the sets
    take on component ``c``, best first."""
    levels: dict[int, list[list[Vector]]] = {}
    for i, g in enumerate(groups):
        for key, xs in g.items():
            levels.setdefault(key[c], [[] for _ in groups])[i] += xs
    for t in sorted(levels, reverse=True):
        yield (t, *levels[t])


def per_split(kernel, alg: Superalgebra, groups: list[dict]) -> list:
    """The four results ``kernel(alg, rank_steps(c, *groups))``, with the
    kernel run once per distinct level split.  A component's split is
    the rank it gives each group key.  The ranks are dense over the
    values the sets take and the off value, so two components that cut
    the sets into the same levels, with the last at rank 0 in both or in
    neither, split alike: their steps, and so their results, are equal."""
    runs: dict[tuple, object] = {}
    results = []
    for c in range(len(COMPONENTS)):
        # via a list: tuple(generator) resizes as it grows, fragmenting the heap
        split = tuple([key[c] for g in groups for key in g])
        if split not in runs:
            runs[split] = kernel(alg, rank_steps(c, *groups))
        results.append(runs[split])
    return results


def _cut_clauses(alg: Superalgebra, steps, ideal: bool = True) -> str | None:
    """The first clause that a component's cuts (the vectors swept so far)
    break: "subspace" when a cut is not its span, else "bracket" when a cut
    is not its ideal closure, grown from the vectors new to its span (only
    if ``ideal``), else None.  The cut that the last vectors join is the
    carrier."""
    index = _carrier_bits(alg.field.p, alg.dim)[0]
    cut, span, absorbs, swept = 0, 1, True, 0  # bit 0 is the zero vector
    for _, xs in steps:
        swept += len(xs)
        if swept == len(index):
            cut = (1 << len(index)) - 1
        else:
            for x in xs:
                cut |= 1 << index[x]
        span, gained = _grow(alg, span, xs)
        if cut != span:
            return "subspace"
        if ideal and absorbs:
            absorbs = _ideal(alg, span, gained)[0] == cut
    return None if absorbs else "bracket"


def is_cif_subspace(A: CIFSet) -> Report:
    """Membership superadditive under + and scalars, non-membership dual.

    Decided by the cut criterion; a failure is rescanned for its witness.
    """
    groups = rank_encode(A)[1]
    spans = per_split(lambda alg, steps: _cut_clauses(alg, steps, ideal=False), A.space, groups)
    if "subspace" in spans:
        return _subspace_witness(A, groups[0])
    return Report(True)


def _raised(groups: dict) -> list[Vector]:
    """The raised rows: the vectors of A's rank-key groups whose key is
    off the floor, the componentwise least key, in carrier order."""
    floor = tuple(map(min, zip(*groups)))
    return sorted(x for key, xs in groups.items() if key != floor for x in xs)


def _subspace_witness(A: CIFSet, groups: dict) -> Report:
    """The pairwise subspace clauses, scanned in carrier order over the
    raised vectors."""
    alg = A.space
    p = alg.field.p
    raised = _raised(groups)
    for x in raised:
        for alpha in alg.field.elements:
            ax = vec_scale(p, alpha, x)
            if not deg_leq(A.mem(x), A.mem(ax)):
                return Report(False, (f"scalar (membership): x={x}, alpha={alpha}",))
            if not deg_leq(A.non(ax), A.non(x)):
                return Report(False, (f"scalar (non-membership): x={x}, alpha={alpha}",))
    for x in raised:
        for y in raised:
            s = tuple((a + b) % p for a, b in zip(x, y))
            if not deg_leq(deg_meet(A.mem(x), A.mem(y)), A.mem(s)):
                return Report(False, (f"additivity (membership): x={x}, y={y}",))
            if not deg_leq(A.non(s), deg_join(A.non(x), A.non(y))):
                return Report(False, (f"additivity (non-membership): x={x}, y={y}",))
    return Report(True)


def is_z2_graded(A: CIFSet) -> Report:
    """A splits through the grading: its degree at x is the meet/join of
    its degrees at the even and odd parts of x.

    This is the attained form of the direct-sum condition: the component
    extensions vanish off their parity subspaces, so the sup over
    decompositions collapses to the unique graded split.  It is read on
    rank keys: ranks rise with the better value on all four components,
    so the meet of the memberships and the join of the non-memberships
    both take the lower rank, and x is graded exactly when each of its
    ranks is the min of its parts' ranks.
    """
    return _grading_clause(A.space, rank_encode(A)[1][0])


def _grading_clause(alg: Superalgebra, groups: dict) -> Report:
    """``is_z2_graded`` on A's rank-key groups.  The carrier indices of
    the even and odd parts are built like the carrier, slowest first."""
    key_of = {x: key for key, xs in groups.items() for x in xs}
    keys = [key_of[x] for x in space_vectors(alg)]
    p = alg.field.p
    parts = [(0, 0)]
    for odd in alg.parity:
        parts = [(e * p + (0 if odd else c), o * p + (c if odd else 0)) for e, o in parts for c in range(p)]
    for x, key, (e, o) in zip(space_vectors(alg), keys, parts):
        low = tuple(map(min, keys[e], keys[o]))
        if key[:2] != low[:2]:
            return Report(False, (f"membership not graded at x={x}",))
        if key != low:
            return Report(False, (f"non-membership not graded at x={x}",))
    return Report(True)


def is_cif_ideal(A: CIFSet) -> Report:
    """Graded CIF subspace absorbing the bracket: the degree of [x, y]
    dominates the join of the degrees of x and y.

    One sweep per level split decides the subspace clause by the cut
    criterion and the bracket clause by the cut-ideal criterion: a basis
    vector is checked at the cut it enters, since the later cuts contain
    that one.  A failing clause is rescanned for its witness.
    """
    groups = rank_encode(A)[1]
    clauses = per_split(_cut_clauses, A.space, groups)
    if "subspace" in clauses:
        return Report(False, (f"subspace clause: {_subspace_witness(A, groups[0]).witness}",))
    graded = _grading_clause(A.space, groups[0])
    if not graded:
        return Report(False, (f"grading clause: {graded.witness}",))
    return _bracket_clause_witness(A, groups[0]) if "bracket" in clauses else Report(True)


def _bracket_clause_witness(A: CIFSet, groups: dict) -> Report:
    """The pairwise bracket clause, scanned in carrier order: every y for
    a raised x, the raised y for any other x."""
    alg = A.space
    raised = _raised(groups)
    vectors, lifted = space_vectors(alg), set(raised)
    for x in vectors:
        for y in vectors if x in lifted else raised:
            bxy = bracket_eval(alg, x, y)
            if not deg_leq(deg_join(A.mem(x), A.mem(y)), A.mem(bxy)):
                return Report(False, (f"bracket clause (membership): x={x}, y={y}",))
            if not deg_leq(A.non(bxy), deg_meet(A.non(x), A.non(y))):
                return Report(
                    False, (f"bracket clause (non-membership): x={x}, y={y}",)
                )
    return Report(True)


def component_extension(A: CIFSet, parity: int) -> CIFSet:
    """Restrict A to one parity component and extend by no-membership.

    Vectors inside the chosen component keep their degrees, everything
    else drops to (mem BOTTOM, non TOP); the zero pin survives because
    zero lies in both components.
    """
    if parity not in (0, 1):
        raise ValueError("parity must be 0 (even) or 1 (odd)")
    alg = A.space
    table = {}
    for x in space_vectors(alg):
        x0, x1 = graded_split(alg, x)
        inside = (x1 == alg.zero()) if parity == 0 else (x0 == alg.zero())
        table[x] = A.table[x] if inside else EMPTY
    return CIFSet(alg, table)


def cif_sum(A: CIFSet, B: CIFSet) -> CIFSet:
    """Componentwise sup over decompositions x = a + b of the meets.

    On a linear carrier every x decomposes (a = x, b = 0), so the
    "no decomposition" branch of the definition never fires here.  A
    non-homogeneous input pair is accepted; the result then carries a
    provenance note recording that the componentwise reading was used.
    Each component is read off the sumsets of the cuts, grown as bitsets
    by translating one side's cut by each vector new in the other.
    """
    alg = _same_space(A, B)
    scales, groups = rank_encode(A, B)
    columns = per_split(_sum_component, alg, groups)
    notes = ()
    if _clashing_keys(*groups):
        notes = ("sum of a non-homogeneous pair: componentwise reading applied",)
    return from_columns(alg, columns, notes, scales)


def from_columns(alg: Superalgebra, columns: list, notes: tuple[str, ...], scales: list) -> CIFSet:
    """The CIF set whose four components (mem r, mem w, non r, non w)
    are the given columns of ranks, each listed in carrier order and
    decoded through its scale (rank -> value).  ``scales`` is what
    ``rank_encode`` returns: the four scales, then the input degrees
    keyed by their rank tuples.  One CIFDegree serves each distinct
    row, shared by the vectors that take it.  A row that keys an input
    degree whose four Fractions are the very scale entries the row
    decodes to (``is``, not ``==``) reuses that degree: it equals what
    the scales decode, so the result is the same set whatever the
    scales hold, and wrong scales still decode to wrong values.  Every
    other row is built from the scales, with one Degree per distinct
    rank pair.

    The sum, the bracket product and the image keep the budget mem.r +
    non.r <= 1, so the CIFDegree check never fires on their results.
    Each reads x's components off its decompositions: x = a + b for the
    sum, x a sum of brackets [a_i, b_i] for the bracket, a point of the
    fiber over x for the image.  Take a decomposition D that attains
    mem.r(x), so every input degree in D has mem.r >= mem.r(x).  The
    non-membership reading is an inf over decompositions of the max over
    their terms, so non.r(x) <= non.r(u) for some input degree u in D.
    Then mem.r(x) + non.r(x) <= mem.r(u) + non.r(u) <= 1.  A vector with
    no decomposition (outside every bracket cut, off the image) has
    mem.r = 0.
    """
    mr, mw, nr, nw, inputs = scales
    shared: dict[tuple, CIFDegree] = {}
    mems, nons, table = {}, {}, {}
    for x, row in zip(space_vectors(alg), zip(*columns)):
        d = shared.get(row)
        if d is None:
            a, b, c, e = row
            d = inputs.get(row)
            if d is None or not (d.mem.r is mr[a] and d.mem.w is mw[b] and d.non.r is nr[c] and d.non.w is nw[e]):
                mem = mems.get((a, b)) or mems.setdefault((a, b), Degree(mr[a], mw[b]))
                non = nons.get((c, e)) or nons.setdefault((c, e), Degree(nr[c], nw[e]))
                d = CIFDegree(mem, non)
            shared[row] = d
        table[x] = d
    return CIFSet(alg, table, notes)


def _sum_component(alg: Superalgebra, steps) -> list:
    """One component of A + B as ranks, carrier order: each x takes the
    first rank t along ``steps`` whose sumset A_t + B_t holds it.  The
    sumset grows by B_t translated by each vector new in A and by A's
    earlier cut translated by each vector new in B."""
    index, coords = _carrier_bits(alg.field.p, alg.dim)
    full = (1 << len(index)) - 1
    column = [0] * len(index)
    cut_a = cut_b = reached = members = 0
    for t, new_a, new_b in steps:
        members += len(new_a) + len(new_b)
        if members > len(index):
            fresh = full ^ reached
        else:
            grown = reached
            for b in new_b:
                cut_b |= 1 << index[b]
                grown |= _translate(cut_a, b, coords)
            for a in new_a:
                grown |= _translate(cut_b, a, coords)
                cut_a |= 1 << index[a]
            fresh = grown ^ reached
        reached |= fresh
        _label(column, fresh, t)
        if reached == full:
            break
    return column


def _label(column: list, fresh: int, t: int) -> None:
    """Give rank t to the vectors of the bitset ``fresh`` in ``column``."""
    while fresh:
        n = fresh.bit_length() - 1
        column[n] = t
        fresh ^= 1 << n


def intersection(A: CIFSet, B: CIFSet) -> CIFSet:
    """Pointwise meet of memberships, join of non-memberships."""
    alg = _same_space(A, B)
    table = {
        x: CIFDegree(deg_meet(A.mem(x), B.mem(x)), deg_join(A.non(x), B.non(x)))
        for x in space_vectors(alg)
    }
    return CIFSet(alg, table)


def is_direct_sum(A: CIFSet, B: CIFSet) -> bool:
    """True when A and B overlap only at zero, i.e. their intersection is
    the trivial CIF set."""
    return is_trivial(intersection(A, B))


def scalar_action(alpha: int, A: CIFSet) -> CIFSet:
    """alpha A: for alpha != 0 the table pulled back along x -> alpha^{-1} x;
    for alpha = 0 the trivial CIF set."""
    alg = A.space
    p = alg.field.p
    alpha %= p
    if alpha == 0:
        return trivial_cifset(alg)
    inv = alg.field.inv(alpha)
    table = {x: A.table[vec_scale(p, inv, x)] for x in space_vectors(alg)}
    return CIFSet(alg, table)


def image(m: GradedMap, A: CIFSet) -> CIFSet:
    """Push A forward: per component, the best rank over each fiber (the
    max for the memberships, the min for the non-memberships).  Off the
    image each component takes rank 0, its off value, so those vectors
    get EMPTY.  The images of the source vectors come from one pass over
    the matrix rows (``map_images``)."""
    if A.space != m.source:
        raise ValueError("set does not live on the map's source")
    scales, (groups,) = rank_encode(A)
    images = map_images(m)
    index = _carrier_bits(m.source.field.p, m.source.dim)[0]
    best: dict[Vector, tuple] = {}
    for key, xs in groups.items():
        for y in {images[index[x]] for x in xs}:
            best[y] = tuple(map(max, best.get(y, key), key))
    columns = list(zip(*[best.get(y, (0, 0, 0, 0)) for y in space_vectors(m.target)]))
    return from_columns(m.target, columns, (), scales)


def preimage(m: GradedMap, B: CIFSet) -> CIFSet:
    """Pull B back: table composition with the map (``map_images``)."""
    if B.space != m.target:
        raise ValueError("set does not live on the map's target")
    table = dict(zip(space_vectors(m.source), map(B.table.__getitem__, map_images(m))))
    return CIFSet(m.source, table)


def table_fingerprint(A: CIFSet) -> str:
    """Canonical one-line rendering of the table, for digests and diffs."""
    parts = []
    for x in space_vectors(A.space):
        d = A.table[x]
        parts.append(
            f"{','.join(map(str, x))}:{d.mem.r},{d.mem.w};{d.non.r},{d.non.w}"
        )
    return "|".join(parts)


def first_difference(A: CIFSet, B: CIFSet) -> Vector | None:
    """First vector (in carrier order) where the two tables disagree."""
    _same_space(A, B)
    for x in space_vectors(A.space):
        if A.table[x] != B.table[x]:
            return x
    return None
