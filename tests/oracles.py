"""Reference definitions of ciflie's operations, for tests only.

Most functions here are the pairwise reading of an operation that
``ciflie`` computes from level cuts: the bracket ladder over all |V|^2
argument pairs, the sum over all decompositions, and the subspace,
ideal and homogeneity predicates over all pairs.  They share no cut
machinery with the package, so agreement between the two is a check of
the cut identities, including the notes and the witnesses.

``fixpoint_bracket_product`` is a third reading of the bracket product:
the dynamic-programming fixpoint over single-term values, quadratic per
round, checked against both ``bracket_product`` and the coset-closure
``bracket_product_oracle``.

``pointwise_is_z2_graded`` reads the grading condition on degrees,
vector by vector, where ``ciflie`` compares rank keys.

``fiber`` solves phi(x) = y by elimination, and ``fiber_image`` and
``fiber_preimage`` read the image and the preimage of a CIF set off the
fibers, without the forward pass over the source that ``ciflie`` makes.

``echelon_ideal_closure`` is the crisp ideal closure on a reduced
row-echelon basis, where ``generators.crisp_ideal_closure`` grows a
carrier bitset.

``brute_axiom_failures`` and ``brute_map_report`` state the algebra
axioms and the map conditions on vectors rather than on the basis
table: every homogeneous pair and triple, every vector pair, and the
size of the image.  ``basis_vector_validate_superalgebra`` is the
validator's reference reading: it evaluates Jacobi's outer brackets on
the basis vectors, where the package reads them off the table cells.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from ciflie import (
    BOTTOM,
    CIFDegree,
    CIFSet,
    Degree,
    EMPTY,
    GradedMap,
    LevelCutLadder,
    Report,
    SpanBuilder,
    SubspaceBasis,
    Superalgebra,
    TOP,
    Vector,
    bracket_eval,
    deg_join,
    deg_leq,
    deg_meet,
    graded_split,
    space_vectors,
)
from ciflie.cifset import _same_space
from ciflie.superalgebra import vec_scale

FIXPOINT_CARRIER_CAP = 81


def vec_sub(p: int, u: Vector, v: Vector) -> Vector:
    return tuple((a - b) % p for a, b in zip(u, v))


def _degree_pairs(A: CIFSet, B: CIFSet):
    """Per argument pair (a, b): the meet/join degree values and the
    crisp bracket, grouped by value."""
    alg = A.space
    vectors = space_vectors(alg)
    mem_groups: dict[Degree, list] = {}
    non_groups: dict[Degree, list] = {}
    for a in vectors:
        da = A.table[a]
        for b in vectors:
            db = B.table[b]
            g = bracket_eval(alg, a, b)
            mem_groups.setdefault(deg_meet(da.mem, db.mem), []).append(g)
            non_groups.setdefault(deg_join(da.non, db.non), []).append(g)
    return mem_groups, non_groups


def is_chain(values) -> bool:
    ordered = sorted(values, key=lambda d: (d.r, d.w))
    return all(deg_leq(u, v) for u, v in zip(ordered, ordered[1:]))


def _sweep(alg, groups: dict, order: list, default):
    """Assign each carrier vector the first threshold whose accumulated
    cut contains it; ``order`` fixes the sweep direction."""
    builder = SpanBuilder(alg.field, alg.dim)
    unassigned = set(space_vectors(alg))
    assignment = {}
    cuts = []
    for value in order:
        for g in groups[value]:
            builder.add(g)
        cuts.append(builder.to_basis())
        for x in [v for v in unassigned if builder.contains(v)]:
            assignment[x] = value
            unassigned.discard(x)
    for x in unassigned:
        assignment[x] = default
    return assignment, cuts


def echelon_ideal_closure(alg: Superalgebra, gens: list[Vector]) -> SubspaceBasis:
    """Smallest subspace containing the generators and closed under
    bracketing with the whole algebra: every vector that raises the
    rank queues its brackets with the basis vectors, on both sides."""
    builder = SpanBuilder(alg.field, alg.dim)
    queue = list(gens)
    while queue:
        v = queue.pop()
        if builder.add(v):
            for j in range(alg.dim):
                queue.append(bracket_eval(alg, v, alg.basis(j)))
                queue.append(bracket_eval(alg, alg.basis(j), v))
    return builder.to_basis()


def quadratic_level_ladder(A: CIFSet, B: CIFSet, side: str) -> LevelCutLadder:
    """Joint ladder of one side from all pair values; requires a chain."""
    mem_groups, non_groups = _degree_pairs(A, B)
    groups = mem_groups if side == "mem" else non_groups
    if not is_chain(list(groups)):
        raise ValueError("achievable degrees do not form a chain")
    order = sorted(groups, key=lambda d: (d.r, d.w), reverse=side == "mem")
    _, cuts = _sweep(A.space, groups, order, BOTTOM if side == "mem" else TOP)
    return LevelCutLadder(side, tuple(order), tuple(cuts))


def joint_ladder_bracket(A: CIFSet, B: CIFSet) -> CIFSet:
    """The bracket product from joint amplitude-phase ladders over all
    pairs; only defined when the achievable values form chains."""
    alg = A.space
    mem_groups, non_groups = _degree_pairs(A, B)
    if not (is_chain(list(mem_groups)) and is_chain(list(non_groups))):
        raise ValueError("achievable degrees do not form a chain")
    mem_order = sorted(mem_groups, key=lambda d: (d.r, d.w), reverse=True)
    non_order = sorted(non_groups, key=lambda d: (d.r, d.w))
    mem_assign, _ = _sweep(alg, mem_groups, mem_order, BOTTOM)
    non_assign, _ = _sweep(alg, non_groups, non_order, TOP)
    table = {x: CIFDegree(mem_assign[x], non_assign[x]) for x in space_vectors(alg)}
    return CIFSet(alg, table)


def fixpoint_bracket_product(A: CIFSet, B: CIFSet) -> CIFSet:
    """Dynamic-programming fixpoint realization of the bracket product.

    Seed every x with the componentwise best over single terms
    x = alpha * [a, b], then close under binary sums, joining meets on
    the membership side and dually on the non-membership side.  The
    closure stabilizes within |V| rounds.  No span machinery is shared
    with the ladder algorithm; on homogeneous inputs the two must agree
    exactly.
    """
    alg = _same_space(A, B)
    if alg.size > FIXPOINT_CARRIER_CAP:
        raise ValueError(
            f"carrier too large for the oracle: {alg.size} > {FIXPOINT_CARRIER_CAP}"
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


def _component_groups(groups: dict, attr: str) -> dict:
    out: dict[Fraction, list] = {}
    for value, gens in groups.items():
        out.setdefault(getattr(value, attr), []).extend(gens)
    return out


def quadratic_bracket_product(A: CIFSet, B: CIFSet) -> CIFSet:
    """The ladder over all |V|^2 pairs: joint on chains, otherwise one
    scalar ladder per component with the non-homogeneous note."""
    alg = A.space
    mem_groups, non_groups = _degree_pairs(A, B)
    if is_chain(list(mem_groups)) and is_chain(list(non_groups)):
        return joint_ladder_bracket(A, B)

    def component(groups, attr, descending, default):
        scalar = _component_groups(groups, attr)
        order = sorted(scalar, reverse=descending)
        assignment, _ = _sweep(alg, scalar, order, default)
        return assignment

    mem_r = component(mem_groups, "r", True, Fraction(0))
    mem_w = component(mem_groups, "w", True, Fraction(0))
    non_r = component(non_groups, "r", False, Fraction(1))
    non_w = component(non_groups, "w", False, Fraction(1))
    table = {
        x: CIFDegree(Degree(mem_r[x], mem_w[x]), Degree(non_r[x], non_w[x]))
        for x in space_vectors(alg)
    }
    notes = (
        "bracket of a non-homogeneous pair: amplitude and phase "
        "ladders computed independently",
    )
    return CIFSet(alg, table, notes)


def quadratic_pair_homogeneous(A: CIFSet, B: CIFSet) -> Report:
    vectors = space_vectors(A.space)
    for x in vectors:
        dx = A.table[x]
        for y in vectors:
            dy = B.table[y]
            if (dx.mem.r <= dy.mem.r) != (dx.mem.w <= dy.mem.w):
                return Report(False, (f"membership side disagrees at ({x}, {y})",))
            if (dx.non.r <= dy.non.r) != (dx.non.w <= dy.non.w):
                return Report(False, (f"non-membership side disagrees at ({x}, {y})",))
    return Report(True)


def quadratic_cif_sum(A: CIFSet, B: CIFSet) -> CIFSet:
    """Componentwise sup over all decompositions x = a + b."""
    alg = A.space
    p = alg.field.p
    vectors = space_vectors(alg)
    table = {}
    for x in vectors:
        mr = mw = Fraction(0)
        nr = nw = Fraction(1)
        for a in vectors:
            b = vec_sub(p, x, a)
            da, db = A.table[a], B.table[b]
            m = deg_meet(da.mem, db.mem)
            n = deg_join(da.non, db.non)
            mr, mw = max(mr, m.r), max(mw, m.w)
            nr, nw = min(nr, n.r), min(nw, n.w)
        table[x] = CIFDegree(Degree(mr, mw), Degree(nr, nw))
    notes = ()
    if not quadratic_pair_homogeneous(A, B):
        notes = ("sum of a non-homogeneous pair: componentwise reading applied",)
    return CIFSet(alg, table, notes)


def quadratic_is_cif_subspace(A: CIFSet) -> Report:
    alg = A.space
    p = alg.field.p
    vectors = space_vectors(alg)
    for x in vectors:
        for alpha in alg.field.elements:
            ax = vec_scale(p, alpha, x)
            if not deg_leq(A.mem(x), A.mem(ax)):
                return Report(False, (f"scalar (membership): x={x}, alpha={alpha}",))
            if not deg_leq(A.non(ax), A.non(x)):
                return Report(False, (f"scalar (non-membership): x={x}, alpha={alpha}",))
    for x in vectors:
        for y in vectors:
            s = tuple((a + b) % p for a, b in zip(x, y))
            if not deg_leq(deg_meet(A.mem(x), A.mem(y)), A.mem(s)):
                return Report(False, (f"additivity (membership): x={x}, y={y}",))
            if not deg_leq(A.non(s), deg_join(A.non(x), A.non(y))):
                return Report(False, (f"additivity (non-membership): x={x}, y={y}",))
    return Report(True)


def pointwise_is_z2_graded(A: CIFSet) -> Report:
    """The grading condition read on degrees, vector by vector: A's
    membership at x is the meet of its memberships at the even and odd
    parts of x, and its non-membership the join."""
    alg = A.space
    for x in space_vectors(alg):
        x0, x1 = graded_split(alg, x)
        if A.mem(x) != deg_meet(A.mem(x0), A.mem(x1)):
            return Report(False, (f"membership not graded at x={x}",))
        if A.non(x) != deg_join(A.non(x0), A.non(x1)):
            return Report(False, (f"non-membership not graded at x={x}",))
    return Report(True)


def quadratic_is_cif_ideal(A: CIFSet) -> Report:
    sub = quadratic_is_cif_subspace(A)
    if not sub:
        return Report(False, (f"subspace clause: {sub.witness}",))
    graded = pointwise_is_z2_graded(A)
    if not graded:
        return Report(False, (f"grading clause: {graded.witness}",))
    alg = A.space
    vectors = space_vectors(alg)
    for x in vectors:
        for y in vectors:
            bxy = bracket_eval(alg, x, y)
            if not deg_leq(deg_join(A.mem(x), A.mem(y)), A.mem(bxy)):
                return Report(False, (f"bracket clause (membership): x={x}, y={y}",))
            if not deg_leq(A.non(bxy), deg_meet(A.non(x), A.non(y))):
                return Report(False, (f"bracket clause (non-membership): x={x}, y={y}",))
    return Report(True)


def fiber(m: GradedMap, y: Vector) -> list[Vector]:
    """All source vectors mapping to y, via a particular solution + kernel.

    Returns the empty list when y is outside the image.  The result is
    sorted, so fibers enumerate deterministically.
    """
    if len(y) != m.target.dim:
        raise ValueError("dimension mismatch")
    p = m.source.field.p
    n = m.source.dim
    # Equations over the unknown x: sum_i x_i * matrix[i][k] = y[k].
    rows = [[m.matrix[i][k] for i in range(n)] + [y[k] % p] for k in range(m.target.dim)]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot_row = next((q for q in range(r, len(rows)) if rows[q][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = m.source.field.inv(rows[r][col])
        rows[r] = [(inv * c) % p for c in rows[r]]
        for q in range(len(rows)):
            if q != r and rows[q][col]:
                factor = rows[q][col]
                rows[q] = [(a - factor * b) % p for a, b in zip(rows[q], rows[r])]
        pivots.append(col)
        r += 1
    for q in range(r, len(rows)):
        if rows[q][n]:
            return []
    particular = [0] * n
    for idx, col in enumerate(pivots):
        particular[col] = rows[idx][n]
    free = [col for col in range(n) if col not in pivots]
    kernel: list[Vector] = []
    for col in free:
        vec = [0] * n
        vec[col] = 1
        for idx, pcol in enumerate(pivots):
            vec[pcol] = (-rows[idx][col]) % p
        kernel.append(tuple(vec))
    out = []
    for coeffs in itertools.product(range(p), repeat=len(kernel)):
        x = list(particular)
        for c, vec in zip(coeffs, kernel):
            if c:
                for k in range(n):
                    x[k] = (x[k] + c * vec[k]) % p
        out.append(tuple(x))
    return sorted(set(out))


def fiber_image(m: GradedMap, A: CIFSet) -> CIFSet:
    """Per target vector y: the componentwise max of A's memberships and
    min of its non-memberships over the fiber of y; EMPTY off the image."""
    table = {}
    for y in space_vectors(m.target):
        degrees = [A.table[x] for x in fiber(m, y)]
        if not degrees:
            table[y] = EMPTY
            continue
        mem = Degree(max(d.mem.r for d in degrees), max(d.mem.w for d in degrees))
        non = Degree(min(d.non.r for d in degrees), min(d.non.w for d in degrees))
        table[y] = CIFDegree(mem, non)
    return CIFSet(m.target, table)


def fiber_preimage(m: GradedMap, B: CIFSet) -> CIFSet:
    """Every source vector takes B's degree at the target vector whose
    fiber holds it."""
    table = {}
    for y in space_vectors(m.target):
        for x in fiber(m, y):
            table[x] = B.table[y]
    return CIFSet(m.source, {x: table[x] for x in space_vectors(m.source)})


def _homogeneous(alg: Superalgebra) -> list[tuple[Vector, int]]:
    """Every nonzero homogeneous vector with its parity."""
    return [
        (x, parity)
        for x in space_vectors(alg)
        for parity in (0, 1)
        if any(x) and all(c == 0 for c, b in zip(x, alg.parity) if b != parity)
    ]


def brute_axiom_failures(alg: Superalgebra) -> set[str]:
    """The axioms that fail on some homogeneous vectors: 'grading' ([x, y]
    has parity a + b), 'super skew-symmetry' ([x, y] = -(-1)^(ab) [y, x])
    and 'graded Jacobi' ([x, [y, z]] = [[x, y], z] + (-1)^(ab) [y, [x, z]])."""
    p = alg.field.p
    homog = _homogeneous(alg)
    failed = set()
    for x, a in homog:
        for y, b in homog:
            xy = bracket_eval(alg, x, y)
            if any(c for c, q in zip(xy, alg.parity) if q != (a + b) % 2):
                failed.add("grading")
            sign = (-1) ** (a * b)
            yx = bracket_eval(alg, y, x)
            if any((u + sign * v) % p for u, v in zip(xy, yx)):
                failed.add("super skew-symmetry")
            if "graded Jacobi" in failed:
                continue
            for z, _ in homog:
                lhs = bracket_eval(alg, x, bracket_eval(alg, y, z))
                first = bracket_eval(alg, xy, z)
                second = bracket_eval(alg, y, bracket_eval(alg, x, z))
                if any((u - v - sign * w) % p for u, v, w in zip(lhs, first, second)):
                    failed.add("graded Jacobi")
                    break
    return failed


def brute_map_report(m: GradedMap) -> tuple[bool, bool]:
    """(ok, surjective) of a map read on vectors: each homogeneous vector
    goes to one of its parity, for kind 'anti' phi([x, y]) = -[phi(x),
    phi(y)] on every vector pair, and the image has p^dim vectors."""
    p = m.source.field.p

    def phi(x: Vector) -> Vector:
        out = [0] * m.target.dim
        for c, row in zip(x, m.matrix):
            out = [(o + c * r) % p for o, r in zip(out, row)]
        return tuple(out)

    ok = all(
        not any(c for c, q in zip(phi(x), m.target.parity) if q != a)
        for x, a in _homogeneous(m.source)
    )
    if m.kind == "anti":
        vectors = space_vectors(m.source)
        ok = ok and all(
            phi(bracket_eval(m.source, x, y))
            == tuple((-c) % p for c in bracket_eval(m.target, phi(x), phi(y)))
            for x in vectors
            for y in vectors
        )
    image = {phi(x) for x in space_vectors(m.source)}
    return ok, len(image) == m.target.size


def basis_vector_validate_superalgebra(alg: Superalgebra) -> Report:
    """``validate_superalgebra`` with each Jacobi term evaluated by
    ``bracket_eval`` on freshly built basis vectors: the same checks, in
    the same order, with the same witness text."""
    failures: list[str] = []
    p = alg.field.p
    n = alg.dim
    table = alg.structure
    for i, j in itertools.product(range(n), repeat=2):
        want = (alg.parity[i] + alg.parity[j]) % 2
        bad = [k for k in range(n) if table[i][j][k] and alg.parity[k] != want]
        if bad:
            failures.append(
                f"grading: [b{i}, b{j}] has a component of wrong parity at coordinate {bad[0]}"
            )
            break
    for i, j in itertools.product(range(n), repeat=2):
        sign = (-1) ** (alg.parity[i] * alg.parity[j])
        if any((a + sign * b) % p for a, b in zip(table[i][j], table[j][i])):
            failures.append(
                f"super skew-symmetry: [b{i}, b{j}] + "
                f"(-1)^({alg.parity[i]}*{alg.parity[j]}) [b{j}, b{i}] != 0"
            )
            break
    for i, j, k in itertools.product(range(n), repeat=3):
        bi, bj, bk = alg.basis(i), alg.basis(j), alg.basis(k)
        lhs = bracket_eval(alg, bi, table[j][k])
        first = bracket_eval(alg, table[i][j], bk)
        second = bracket_eval(alg, bj, table[i][k])
        sign = (-1) ** (alg.parity[i] * alg.parity[j])
        rhs = tuple((a + sign * b) % p for a, b in zip(first, second))
        if lhs != rhs:
            failures.append(f"graded Jacobi: witness basis triple (b{i}, b{j}, b{k})")
            break
    return Report(ok=not failures, failures=tuple(failures))
