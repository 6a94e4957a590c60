"""Line-oriented specification language for algebras, CIF sets and maps.

One statement per line, ``#`` starts a comment, rationals are written
``num/den`` or as bare integers.  The grammar:

    field INT
    space NAME dim INT parity BIT...
    bracket NAME i j -> c_1 ... c_n        # 0-based, i <= j only
    cifset NAME on SPACE default R W RH WH
    entry NAME v_1 ... v_n deg R W RH WH
    map NAME SPACE -> SPACE kind {plain|anti} rows c ... / c ... / ...

Structure constants are declared on basis pairs i <= j; each i > j
entry is set by super skew-symmetry from its i < j partner.  The fill
does not make a table valid: a diagonal entry can still break
skew-symmetry, and grading and Jacobi are untouched.  Semantic checks
(degree budgets, the zero pin, reference and shape errors) run at load
and carry line numbers.  Algebra axioms and map conditions are not load
errors; they are what ``validate`` reports.

An entry line costs a split and a hit in each of two memos of the
parse: a tuple of coordinate tokens -> its vector mod p, and a tuple of
four degree tokens -> its CIFDegree.  A miss reads its tokens through
two more, a coordinate token -> its int mod p and a rational token ->
its Fraction, so a token is decoded once however many keys hold it.  A
memo fills on its key's first line, so a bad token fails there and the
first error in file order is the one reported.  An integer is ASCII
digits and a sign; ``int`` alone also reads ``_`` and other digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .degrees import CIFDegree, Degree, FULL, rat_str
from .superalgebra import (
    GradedMap,
    PrimeField,
    Superalgebra,
    Vector,
    check_carrier,
    space_vectors,
    superalgebra_from_pairs,
)
from .cifset import CIFSet


class SpecError(Exception):
    """A located load error: line number plus message."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


@dataclass(frozen=True)
class WorkspaceSet:
    space: str
    default: CIFDegree
    cifset: CIFSet


@dataclass(frozen=True)
class WorkspaceMap:
    source: str
    target: str
    map: GradedMap


@dataclass(frozen=True)
class Workspace:
    field: PrimeField
    algebras: dict[str, Superalgebra]
    sets: dict[str, WorkspaceSet]
    maps: dict[str, WorkspaceMap]


def _parse_int(token: str, line: int, what: str) -> int:
    try:
        if "_" in token or not token.isascii():
            raise ValueError
        return int(token)
    except ValueError:
        raise SpecError(line, f"{what}: '{token}' is not an integer") from None


def _check_name(token: str, line: int) -> str:
    if not (token[:1].isalpha() or token[:1] == "_") or not all(
        c.isalnum() or c == "_" for c in token
    ):
        raise SpecError(line, f"invalid name '{token}'")
    return token


class _Loader:
    def __init__(self) -> None:
        self.field: PrimeField | None = None
        self.space_decls: dict[str, tuple[int, tuple[int, ...]]] = {}
        self.pairs: dict[str, dict[tuple[int, int], tuple[int, ...]]] = {}
        self.set_decls: dict[str, tuple[str, CIFDegree]] = {}
        self.targets: dict[str, tuple[int, dict[Vector, CIFDegree]]] = {}  # set -> (dim, entries)
        self.map_decls: dict[str, tuple[str, str, str, tuple[Vector, ...]]] = {}
        self.vectors: dict[tuple[str, ...], Vector] = {}
        self.coords: dict[str, int] = {}
        self.degrees: dict[tuple[str, ...], CIFDegree] = {}
        self.rationals: dict[str, Fraction] = {}

    def _vector(self, key: tuple[str, ...], line: int) -> Vector:
        """Memo miss: a tuple of coordinate tokens, read mod p."""
        for t in key:
            if t not in self.coords:
                self.coords[t] = _parse_int(t, line, "coordinate") % self.field.p
        vector = self.vectors[key] = tuple([self.coords[t] for t in key])
        return vector

    def _degree(self, key: tuple[str, ...], line: int) -> CIFDegree:
        """Memo miss: four rationals, ``num/den`` or bare integers; the
        cifset and entry usage checks count them."""
        parts = []
        for t in key:
            q = self.rationals.get(t)
            if q is None:
                num_s, slash, den_s = t.partition("/")
                try:
                    num, den = int(num_s), int(den_s) if slash else 1
                    if den <= 0 or "_" in t or not t.isascii():
                        raise ValueError
                except ValueError:
                    raise SpecError(line, f"degree component: '{t}' is not a rational") from None
                q = self.rationals[t] = Fraction(num, den)
            parts.append(q)
        mr, mw, nr, nw = parts
        try:
            degree = self.degrees[key] = CIFDegree(Degree(mr, mw), Degree(nr, nw))
        except ValueError as exc:
            raise SpecError(line, str(exc)) from None
        return degree

    def _need_field(self, line: int) -> PrimeField:
        if self.field is None:
            raise SpecError(line, "a field statement must come first")
        return self.field

    def stmt_field(self, tokens: list[str], line: int) -> None:
        if self.field is not None:
            raise SpecError(line, "duplicate field statement")
        if len(tokens) != 2:
            raise SpecError(line, "usage: field INT")
        p = _parse_int(tokens[1], line, "field modulus")
        try:
            self.field = PrimeField(p)
        except ValueError as exc:
            raise SpecError(line, str(exc)) from None

    def stmt_space(self, tokens: list[str], line: int) -> None:
        field = self._need_field(line)
        if len(tokens) < 5 or tokens[2] != "dim" or tokens[4] != "parity":
            raise SpecError(line, "usage: space NAME dim INT parity BIT...")
        name = _check_name(tokens[1], line)
        if name in self.space_decls:
            raise SpecError(line, f"duplicate space '{name}'")
        dim = _parse_int(tokens[3], line, "dim")
        bits = tokens[5:]
        if len(bits) != dim:
            raise SpecError(line, f"expected {dim} parity bits, got {len(bits)}")
        parity = []
        for b in bits:
            if b not in ("0", "1"):
                raise SpecError(line, f"parity bit must be 0 or 1, got '{b}'")
            parity.append(int(b))
        try:
            check_carrier(field, dim)
        except ValueError as exc:
            raise SpecError(line, str(exc)) from None
        self.space_decls[name] = (dim, tuple(parity))
        self.pairs[name] = {}

    def stmt_bracket(self, tokens: list[str], line: int) -> None:
        field = self._need_field(line)
        if len(tokens) < 5 or tokens[4] != "->":
            raise SpecError(line, "usage: bracket NAME i j -> c_1 ... c_n")
        name = tokens[1]
        if name not in self.space_decls:
            raise SpecError(line, f"unknown space '{name}'")
        dim, _ = self.space_decls[name]
        i = _parse_int(tokens[2], line, "basis index")
        j = _parse_int(tokens[3], line, "basis index")
        if not 0 <= i < dim or not 0 <= j < dim:
            raise SpecError(line, f"basis indices must be in 0..{dim - 1}")
        if i > j:
            raise SpecError(
                line, "structure constants are declared on pairs i <= j only"
            )
        coeffs = tokens[5:]
        if len(coeffs) != dim:
            raise SpecError(line, f"expected {dim} constants, got {len(coeffs)}")
        if (i, j) in self.pairs[name]:
            raise SpecError(line, f"duplicate bracket declaration for ({i}, {j})")
        cell = tuple(
            _parse_int(c, line, "structure constant") % field.p for c in coeffs
        )
        self.pairs[name][(i, j)] = cell

    def stmt_cifset(self, tokens: list[str], line: int) -> None:
        self._need_field(line)
        if len(tokens) != 9 or tokens[2] != "on" or tokens[4] != "default":
            raise SpecError(line, "usage: cifset NAME on SPACE default R W RH WH")
        name = _check_name(tokens[1], line)
        if name in self.set_decls:
            raise SpecError(line, f"duplicate cifset '{name}'")
        space = tokens[3]
        if space not in self.space_decls:
            raise SpecError(line, f"unknown space '{space}'")
        key = tuple(tokens[5:])
        default = self.degrees.get(key) or self._degree(key, line)
        self.set_decls[name] = (space, default)
        self.targets[name] = (self.space_decls[space][0], {})

    def stmt_entry(self, tokens: list[str], line: int) -> None:
        target = self.targets.get(tokens[1]) if len(tokens) > 2 else None
        if target is None:
            self._need_field(line)
            if len(tokens) < 3:
                raise SpecError(line, "usage: entry NAME v_1 ... v_n deg R W RH WH")
            raise SpecError(line, f"unknown cifset '{tokens[1]}'")
        dim, entries = target
        if len(tokens) != dim + 7 or tokens[dim + 2] != "deg":
            raise SpecError(line, "usage: entry NAME v_1 ... v_n deg R W RH WH")
        vector_key, degree_key = tuple(tokens[2 : dim + 2]), tuple(tokens[dim + 3 :])
        coords = self.vectors.get(vector_key) or self._vector(vector_key, line)
        degree = self.degrees.get(degree_key) or self._degree(degree_key, line)
        if coords in entries:
            raise SpecError(line, f"duplicate entry for vector {coords}")
        if not any(coords) and degree != FULL:
            raise SpecError(
                line, "zero entry must match the pin (mem 1/1 1/1, non 0/1 0/1)"
            )
        entries[coords] = degree

    def stmt_map(self, tokens: list[str], line: int) -> None:
        field = self._need_field(line)
        if len(tokens) < 8 or tokens[3] != "->" or tokens[5] != "kind" or tokens[7] != "rows":
            raise SpecError(
                line,
                "usage: map NAME SPACE -> SPACE kind {plain|anti} rows c ... / ...",
            )
        name = _check_name(tokens[1], line)
        if name in self.map_decls:
            raise SpecError(line, f"duplicate map '{name}'")
        src, tgt = tokens[2], tokens[4]
        for space in (src, tgt):
            if space not in self.space_decls:
                raise SpecError(line, f"unknown space '{space}'")
        kind = tokens[6]
        if kind not in ("plain", "anti"):
            raise SpecError(line, f"kind must be 'plain' or 'anti', got '{kind}'")
        src_dim, _ = self.space_decls[src]
        tgt_dim, _ = self.space_decls[tgt]
        rows: list[list[int]] = [[]]
        for token in tokens[8:]:
            if token == "/":
                rows.append([])
            else:
                rows[-1].append(_parse_int(token, line, "matrix entry") % field.p)
        if len(rows) != src_dim:
            raise SpecError(line, f"expected {src_dim} rows, got {len(rows)}")
        for row in rows:
            if len(row) != tgt_dim:
                raise SpecError(
                    line, f"each row needs {tgt_dim} entries, got {len(row)}"
                )
        self.map_decls[name] = (src, tgt, kind, tuple(tuple(r) for r in rows))

    def build(self) -> Workspace:
        if self.field is None:
            raise SpecError(0, "missing field statement")
        algebras: dict[str, Superalgebra] = {}
        for name, (dim, parity) in self.space_decls.items():
            algebras[name] = superalgebra_from_pairs(
                self.field, parity, self.pairs[name]
            )
        sets: dict[str, WorkspaceSet] = {}
        for name, (space, default) in self.set_decls.items():
            alg, entries = algebras[space], self.targets[name][1]  # stmt_entry checked each entry
            table = {**dict.fromkeys(space_vectors(alg), default), **entries, alg.zero(): FULL}
            sets[name] = WorkspaceSet(space, default, CIFSet(alg, table))
        maps: dict[str, WorkspaceMap] = {}
        for name, (src, tgt, kind, rows) in self.map_decls.items():
            maps[name] = WorkspaceMap(
                src, tgt, GradedMap(algebras[src], algebras[tgt], rows, kind)
            )
        return Workspace(self.field, algebras, sets, maps)


_STATEMENTS = {
    "field": _Loader.stmt_field,
    "space": _Loader.stmt_space,
    "bracket": _Loader.stmt_bracket,
    "cifset": _Loader.stmt_cifset,
    "entry": _Loader.stmt_entry,
    "map": _Loader.stmt_map,
}


def parse_spec(text: str) -> Workspace:
    """Parse a document; any problem raises a SpecError with its line."""
    loader = _Loader()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw[: raw.index("#")] if "#" in raw else raw).split()
        if not tokens:
            continue
        handler = _STATEMENTS.get(tokens[0])
        if handler is None:
            raise SpecError(lineno, f"unknown statement '{tokens[0]}'")
        try:
            handler(loader, tokens, lineno)
        except SpecError:
            raise
        except Exception as exc:  # total parser: never crash on bad input
            raise SpecError(lineno, f"malformed statement: {exc}") from None
    try:
        return loader.build()
    except SpecError:
        raise
    except Exception as exc:
        raise SpecError(0, f"inconsistent document: {exc}") from None


def _degree4(d: CIFDegree) -> str:
    return f"{rat_str(d.mem.r)} {rat_str(d.mem.w)} {rat_str(d.non.r)} {rat_str(d.non.w)}"


def serialize(ws: Workspace) -> str:
    """Canonical text form; parse(serialize(ws)) == ws.

    Names are emitted sorted, structure rows only for i <= j pairs with a
    nonzero constant, and set entries only where they differ from the
    declared default (the zero pin is implicit).
    """
    lines = [f"field {ws.field.p}"]
    for name in sorted(ws.algebras):
        alg = ws.algebras[name]
        bits = " ".join(str(b) for b in alg.parity)
        lines.append(f"space {name} dim {alg.dim} parity {bits}")
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                cell = alg.structure[i][j]
                if any(cell):
                    coeffs = " ".join(str(c) for c in cell)
                    lines.append(f"bracket {name} {i} {j} -> {coeffs}")
    for name in sorted(ws.sets):
        entry = ws.sets[name]
        lines.append(
            f"cifset {name} on {entry.space} default {_degree4(entry.default)}"
        )
        alg = ws.algebras[entry.space]
        zero = alg.zero()
        for v in space_vectors(alg):
            if v == zero:
                continue
            d = entry.cifset.table[v]
            if d != entry.default:
                coords = " ".join(str(c) for c in v)
                lines.append(f"entry {name} {coords} deg {_degree4(d)}")
    for name in sorted(ws.maps):
        decl = ws.maps[name]
        rows = " / ".join(
            " ".join(str(c) for c in row) for row in decl.map.matrix
        )
        lines.append(
            f"map {name} {decl.source} -> {decl.target} kind {decl.map.kind} rows {rows}"
        )
    return "\n".join(lines) + "\n"
