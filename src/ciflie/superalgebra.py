"""Finite-dimensional Z2-graded vector spaces over a prime field.

Vectors are coordinate tuples reduced mod p, subspaces are carrier
bitsets grown by translates (``_grow``), and the bracket is the bilinear
extension of a structure-constant table c[i][j][k] with [b_i, b_j] =
sum_k c[i][j][k] b_k.  Carriers stay small (dimension at most 6, at most
3125 vectors) so every subspace and sup/inf downstream can be enumerated
outright.  The row-echelon classes ``SpanBuilder`` and ``SubspaceBasis``
remain only for the joint ladder and the benchmark tracer's bindings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Mapping, Sequence

from .report import MapReport, Report

Vector = tuple[int, ...]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
MAX_DIM = 6
# 5^5: every carrier of dim <= 5 over F_2, F_3, F_5, and dim 6 over F_2, F_3.
MAX_CARRIER = 3125


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a small prime p."""

    p: int

    def __post_init__(self) -> None:
        if self.p not in _SMALL_PRIMES:
            raise ValueError(f"modulus must be a prime in 2..13, got {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return pow(a, self.p - 2, self.p)

    @property
    def elements(self) -> range:
        return range(self.p)


def vec_add(p: int, u: Vector, v: Vector) -> Vector:
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_scale(p: int, k: int, v: Vector) -> Vector:
    return tuple((k * a) % p for a in v)


def check_carrier(field: PrimeField, dim: int) -> None:
    """Refuse a carrier F_p^dim too large to enumerate, before any vector
    of it is made."""
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 1..{MAX_DIM}, got {dim}")
    if field.p**dim > MAX_CARRIER:
        raise ValueError(
            f"carrier too large: {field.p}^{dim} = {field.p**dim} vectors,"
            f" at most {MAX_CARRIER} are supported"
        )


@dataclass(frozen=True)
class Superalgebra:
    """A Z2-graded space with a bracket given by structure constants.

    ``parity[i]`` is 0 for even basis vectors and 1 for odd ones; the
    even/odd coordinate subspaces house the grading V = V_0 + V_1.
    Construction checks shape and coefficient ranges only; the algebra
    axioms are the business of :func:`validate_superalgebra`.
    """

    field: PrimeField
    dim: int
    parity: tuple[int, ...]
    structure: tuple[tuple[Vector, ...], ...]

    def __post_init__(self) -> None:
        check_carrier(self.field, self.dim)
        if len(self.parity) != self.dim or any(b not in (0, 1) for b in self.parity):
            raise ValueError("parity must be a tuple of dim bits")
        if len(self.structure) != self.dim:
            raise ValueError("structure table must have shape dim x dim x dim")
        for row in self.structure:
            if len(row) != self.dim:
                raise ValueError("structure table must have shape dim x dim x dim")
            for cell in row:
                if len(cell) != self.dim:
                    raise ValueError("structure table must have shape dim x dim x dim")
                if any(not isinstance(c, int) or not 0 <= c < self.field.p for c in cell):
                    raise ValueError("structure constants must be reduced mod p")

    def zero(self) -> Vector:
        return (0,) * self.dim

    def basis(self, i: int) -> Vector:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    @property
    def size(self) -> int:
        return self.field.p ** self.dim


def space_vectors(alg: Superalgebra) -> tuple[Vector, ...]:
    """All vectors of the carrier in lexicographic order (zero first)."""
    return _carrier_vectors(alg.field.p, alg.dim)


@cache
def _carrier_vectors(p: int, dim: int) -> tuple[Vector, ...]:
    # Keyed by (p, dim), not by the algebra, whose hash reads the whole
    # structure table; check_carrier admits only a few dozen pairs.
    return tuple(itertools.product(range(p), repeat=dim))


@cache
def _carrier_bits(p: int, dim: int) -> tuple[dict[Vector, int], tuple]:
    """Bit n of a carrier bitset is the n-th vector of ``space_vectors``.
    Returns each vector's bit, and per coordinate i its stride
    p^(dim-1-i) and the masks low[c] of the bits whose i-th coordinate
    is below p - c."""
    index = {x: n for n, x in enumerate(_carrier_vectors(p, dim))}
    coords = []
    for i in range(dim):
        stride = p ** (dim - 1 - i)
        blocks = sum(1 << j * p * stride for j in range(p**i))
        coords.append((stride, tuple(((1 << (p - c) * stride) - 1) * blocks for c in range(p))))
    return index, tuple(coords)


def _translate(bits: int, a: Vector, coords: tuple) -> int:
    """The bitset translated by a: per nonzero coordinate c = a_i, the
    bits whose coordinate i is below p - c move up c strides and the
    others wrap down p - c."""
    for c, (stride, low) in zip(a, coords):
        if c:
            keep = bits & low[c]
            bits = (keep << c * stride) | ((bits ^ keep) >> (len(low) - c) * stride)
    return bits


def _grow(alg: Superalgebra, span: int, xs) -> tuple[int, list[Vector]]:
    """The span of a subspace bitset and xs, and the xs that grew it: an
    x off the span ORs in its translates by x, 2x, ..., (p-1)x.  From
    the zero subspace, bitset 1, the xs that grew it are a basis."""
    index, coords = _carrier_bits(alg.field.p, alg.dim)
    gained = []
    for x in xs:
        if not span >> index[x] & 1:
            gained.append(x)
            coset = span
            for _ in range(1, alg.field.p):
                coset = _translate(coset, x, coords)
                span |= coset
            if span.bit_count() == len(index):
                break
    return span, gained


def _ideal(alg: Superalgebra, span: int, gained: list[Vector]) -> tuple[int, list[Vector]]:
    """The ideal closure of a span bitset whose older basis vectors bracket
    into it, and its new ones ``gained``, extended in place by those it adds."""
    units = [alg.basis(j) for j in range(alg.dim)]
    for w in gained:  # runs on over the vectors each pass appends
        span, more = _grow(alg, span, [bracket_eval(alg, *we) for e in units for we in ((w, e), (e, w))])
        gained += more
    return span, gained


def _members(alg: Superalgebra, bits: int) -> list[Vector]:
    """The vectors of a carrier bitset in carrier order, read off its
    binary digits, least significant first."""
    return [x for x, d in zip(space_vectors(alg), bin(bits)[:1:-1]) if d == "1"]


def superalgebra_from_pairs(
    field: PrimeField,
    parity: Sequence[int],
    pairs: Mapping[tuple[int, int], Sequence[int]],
) -> Superalgebra:
    """Build an algebra from constants on basis pairs i <= j.

    Each i > j entry is set by super skew-symmetry, [b_j, b_i] =
    -(-1)^{parity_i * parity_j} [b_i, b_j]; nothing else is made valid,
    and :func:`validate_superalgebra` checks the axioms.
    """
    dim = len(parity)
    p = field.p
    cells: list[list[Vector]] = [[(0,) * dim] * dim for _ in range(dim)]
    for (i, j), coeffs in pairs.items():
        if not (0 <= i <= j < dim):
            raise ValueError(f"pair ({i}, {j}) must satisfy 0 <= i <= j < dim")
        if len(coeffs) != dim:
            raise ValueError(f"pair ({i}, {j}) needs {dim} constants")
        cell = tuple(c % p for c in coeffs)
        cells[i][j] = cell
        if i != j:
            sign = 1 if (parity[i] and parity[j]) else -1
            cells[j][i] = tuple((sign * c) % p for c in cell)
    table = tuple(tuple(row) for row in cells)
    return Superalgebra(field, dim, tuple(parity), table)


def bracket_eval(alg: Superalgebra, x: Vector, y: Vector) -> Vector:
    """Bilinear extension of the structure constants to arbitrary vectors."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise ValueError("dimension mismatch")
    p = alg.field.p
    out = [0] * alg.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = alg.structure[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            coef = (xi * yj) % p
            cell = row[j]
            for k in range(alg.dim):
                if cell[k]:
                    out[k] = (out[k] + coef * cell[k]) % p
    return tuple(out)


def graded_split(alg: Superalgebra, x: Vector) -> tuple[Vector, Vector]:
    """Split x = x_0 + x_1 into its even and odd coordinate parts."""
    if len(x) != alg.dim:
        raise ValueError("dimension mismatch")
    even = tuple(c if alg.parity[i] == 0 else 0 for i, c in enumerate(x))
    odd = tuple(c if alg.parity[i] == 1 else 0 for i, c in enumerate(x))
    return even, odd


def validate_superalgebra(alg: Superalgebra) -> Report:
    """Check grading compatibility, super skew-symmetry and graded Jacobi.

    Every bracket is read from ``alg.structure``: Jacobi's outer brackets
    are combinations of its cells, so none is evaluated: a triple's terms
    add into one residual over the cells' nonzero entries, tested mod p.
    One witness is reported per violated axiom; an empty report confirms
    validity.  Violations are report content, never exceptions.
    """
    failures: list[str] = []
    p = alg.field.p
    n = alg.dim
    table = alg.structure

    for i, j in itertools.product(range(n), repeat=2):
        want = (alg.parity[i] + alg.parity[j]) % 2
        cell = table[i][j]
        bad = [k for k in range(n) if cell[k] and alg.parity[k] != want]
        if bad:
            failures.append(
                f"grading: [b{i}, b{j}] has a component of wrong parity "
                f"at coordinate {bad[0]}"
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

    # Jacobi in Leibniz form: ad(b_i) is a superderivation of the bracket.
    # Each term is a combination of table cells, [b_i, c] = sum_m c_m
    # [b_i, b_m] and [c, b_k] = sum_m c_m [b_m, b_k] over c's support, so
    # a triple whose three cells are zero holds.  The residual is
    # [b_i, [b_j, b_k]] - [[b_i, b_j], b_k] - sign [b_j, [b_i, b_k]].
    support = [[[(m, c) for m, c in enumerate(cell) if c] for cell in row] for row in table]
    for i, j, k in itertools.product(range(n), repeat=3):
        jk, ij, ik = support[j][k], support[i][j], support[i][k]
        if not (jk or ij or ik):
            continue
        sign = (-1) ** (alg.parity[i] * alg.parity[j])
        residual = [0] * n
        for m, c in jk:
            for q, d in support[i][m]:
                residual[q] += c * d
        for m, c in ij:
            for q, d in support[m][k]:
                residual[q] -= c * d
        for m, c in ik:
            for q, d in support[j][m]:
                residual[q] -= sign * c * d
        if any(r % p for r in residual):
            failures.append(
                f"graded Jacobi: witness basis triple (b{i}, b{j}, b{k})"
            )
            break

    return Report(ok=not failures, failures=tuple(failures))


def _eliminate(p: int, rows: Iterable[tuple[int, Vector]], v: Sequence[int]) -> list[int]:
    """v reduced mod p by fully reduced echelon ``rows``, given as
    (pivot column, row) pairs with pivots normalized to 1.  Each row is
    zero at the other rows' pivots, so the order of the rows is free."""
    work = [c % p for c in v]
    for col, row in rows:
        factor = work[col]
        if factor:
            for k in range(col, len(work)):
                work[k] = (work[k] - factor * row[k]) % p
    return work


class SpanBuilder:
    """Incremental echelon accumulator for spans over F_p.

    Rows are kept fully reduced with normalized pivots, keyed by pivot
    column, so membership tests are a single reduction pass and the
    rows read in pivot order are the reduced row-echelon basis.
    """

    def __init__(self, field: PrimeField, dim: int) -> None:
        self.field = field
        self.dim = dim
        self._rows: dict[int, Vector] = {}

    def add(self, v: Sequence[int]) -> bool:
        """Insert v into the span; True if the rank grew."""
        if len(self._rows) == self.dim:
            return False
        p = self.field.p
        work = _eliminate(p, self._rows.items(), v)
        pivot = next((k for k, c in enumerate(work) if c), None)
        if pivot is None:
            return False
        inv = self.field.inv(work[pivot])
        new = tuple((inv * c) % p for c in work)
        for col, row in list(self._rows.items()):
            factor = row[pivot]
            if factor:
                self._rows[col] = tuple((a - factor * b) % p for a, b in zip(row, new))
        self._rows[pivot] = new
        return True

    def contains(self, v: Sequence[int]) -> bool:
        return not any(_eliminate(self.field.p, self._rows.items(), v))

    @property
    def rank(self) -> int:
        return len(self._rows)

    def to_basis(self) -> "SubspaceBasis":
        rows = tuple(self._rows[c] for c in sorted(self._rows))
        return SubspaceBasis(self.field, self.dim, rows)


@dataclass(frozen=True)
class SubspaceBasis:
    """Reduced row-echelon basis of a subspace of F_p^dim."""

    field: PrimeField
    dim: int
    rows: tuple[Vector, ...]

    def __post_init__(self) -> None:
        pivots: list[int] = []
        for row in self.rows:
            if len(row) != self.dim:
                raise ValueError("basis row has wrong length")
            pivot = next((k for k, c in enumerate(row) if c), None)
            if pivot is None:
                raise ValueError("basis rows must be nonzero")
            if pivots and pivot <= pivots[-1]:
                raise ValueError("pivot columns must strictly increase")
            if row[pivot] != 1:
                raise ValueError("pivots must be normalized to 1")
            for other in self.rows:
                if other is not row and other[pivot] != 0:
                    raise ValueError("basis must be fully reduced")
            pivots.append(pivot)
        object.__setattr__(self, "_pivoted", tuple(zip(pivots, self.rows)))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v: Vector) -> bool:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return not any(_eliminate(self.field.p, self._pivoted, v))


def span_closure(alg: Superalgebra, gens: Iterable[Vector]) -> SubspaceBasis:
    """Reduced row-echelon basis of the linear span of the generators."""
    builder = SpanBuilder(alg.field, alg.dim)
    for g in gens:
        if len(g) != alg.dim:
            raise ValueError("generator has wrong length")
        builder.add(g)
    return builder.to_basis()


@dataclass(frozen=True)
class GradedMap:
    """A linear map given by basis images; optionally an anti-homomorphism.

    ``matrix[i]`` holds the target coordinates of the image of source
    basis vector i.  Construction checks shapes and coefficient ranges;
    grading preservation and the anti condition are checked by
    :func:`validate_map`.
    """

    source: Superalgebra
    target: Superalgebra
    matrix: tuple[Vector, ...]
    kind: str = "plain"

    def __post_init__(self) -> None:
        if self.kind not in ("plain", "anti"):
            raise ValueError("kind must be 'plain' or 'anti'")
        if self.source.field != self.target.field:
            raise ValueError("source and target must share the ground field")
        if len(self.matrix) != self.source.dim:
            raise ValueError("matrix must have one row per source basis vector")
        p = self.source.field.p
        for row in self.matrix:
            if len(row) != self.target.dim:
                raise ValueError("matrix row has wrong length")
            if any(not isinstance(c, int) or not 0 <= c < p for c in row):
                raise ValueError("matrix entries must be reduced mod p")


def apply_map(m: GradedMap, x: Vector) -> Vector:
    if len(x) != m.source.dim:
        raise ValueError("dimension mismatch")
    p = m.source.field.p
    out = [0] * m.target.dim
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = m.matrix[i]
        for k in range(m.target.dim):
            if row[k]:
                out[k] = (out[k] + xi * row[k]) % p
    return tuple(out)


def map_images(m: GradedMap) -> list[Vector]:
    """phi(x) for every source vector x, in carrier order.  The carrier is
    lexicographic, coordinate 0 slowest, so one pass over the matrix rows
    lists them: each image so far plus each multiple of the row."""
    p = m.source.field.p
    images = [m.target.zero()]
    for row in m.matrix:
        steps = [vec_scale(p, c, row) for c in range(p)]
        images = [tuple([(a + b) % p for a, b in zip(y, s)]) for y in images for s in steps]
    return images


def validate_map(m: GradedMap) -> MapReport:
    """Check grading preservation and, for kind 'anti', the anti condition.

    The anti condition phi([x, y]) = -[phi(x), phi(y)] is checked on all
    basis pairs, reading [b_i, b_j] from the source table and phi(b_i)
    from the matrix rows; bilinearity extends it to arbitrary vectors.
    Matrix well-formedness is enforced at construction.  Surjectivity,
    the rank of the rows, is reported as a flag rather than a failure.
    """
    failures: list[str] = []
    for i in range(m.source.dim):
        alpha = m.source.parity[i]
        bad = [
            k
            for k in range(m.target.dim)
            if m.matrix[i][k] and m.target.parity[k] != alpha
        ]
        if bad:
            failures.append(
                f"grading: image of b{i} (parity {alpha}) has support at "
                f"target coordinate {bad[0]} (parity {m.target.parity[bad[0]]})"
            )
    if m.kind == "anti":
        p = m.source.field.p
        for i, j in itertools.product(range(m.source.dim), repeat=2):
            lhs = apply_map(m, m.source.structure[i][j])
            rhs = vec_scale(p, -1, bracket_eval(m.target, m.matrix[i], m.matrix[j]))
            if lhs != rhs:
                failures.append(
                    f"anti condition: phi([b{i}, b{j}]) != -[phi(b{i}), phi(b{j})]"
                )
                break
    surjective = len(_grow(m.target, 1, m.matrix)[1]) == m.target.dim
    return MapReport(ok=not failures, surjective=surjective, failures=tuple(failures))
