"""Random workspace and document generators shared by parser tests,
unpinned chain-valued tables for the bracket's chain tests, a rebinding
helper for tests that swap out a ciflie function, and source mutants
for tests that show a broken function is caught."""

from __future__ import annotations

import inspect
import random
import string
import sys
from fractions import Fraction

from ciflie import CIFSet, PrimeField, make_cifset, space_vectors, superalgebra_from_pairs
from ciflie.degrees import CIFDegree, Degree
from ciflie.specfile import Workspace, WorkspaceMap, WorkspaceSet
from ciflie.superalgebra import GradedMap

_GRID = 12


def random_degree(rng: random.Random) -> CIFDegree:
    mr = rng.randint(0, _GRID)
    nr = rng.randint(0, _GRID - mr)
    return CIFDegree(
        Degree(Fraction(mr, _GRID), Fraction(rng.randint(0, _GRID), _GRID)),
        Degree(Fraction(nr, _GRID), Fraction(rng.randint(0, _GRID), _GRID)),
    )


def chain_table(alg, rng: random.Random) -> CIFSet:
    """An unpinned table of three degrees whose membership values lie on
    one chain and whose non-membership values on another, drawn afresh
    per table.  The zero vector draws like the others, so a table's top
    (membership) and bottom (non-membership) are usually not the pin's."""
    amps = sorted(rng.sample(range(_GRID + 1), 3))
    mem_w = sorted(rng.randint(0, _GRID) for _ in range(3))
    non_w = sorted((rng.randint(0, _GRID) for _ in range(3)), reverse=True)
    degrees = [
        CIFDegree(
            Degree(Fraction(r, _GRID), Fraction(mw, _GRID)),
            Degree(Fraction(_GRID - r, _GRID), Fraction(nw, _GRID)),
        )
        for r, mw, nw in zip(amps, mem_w, non_w)
    ]
    return CIFSet(alg, {x: rng.choice(degrees) for x in space_vectors(alg)})


def gen_workspace(rng: random.Random) -> Workspace:
    p = rng.choice([2, 3, 5])
    field = PrimeField(p)
    algebras = {}
    for idx in range(rng.randint(1, 2)):
        dim = rng.randint(1, 3)
        parity = tuple(rng.randrange(2) for _ in range(dim))
        pairs = {}
        for i in range(dim):
            for j in range(i, dim):
                if rng.random() < 0.4:
                    pairs[(i, j)] = tuple(rng.randrange(p) for _ in range(dim))
        algebras[f"S{idx}"] = superalgebra_from_pairs(field, parity, pairs)
    names = sorted(algebras)
    sets = {}
    for idx in range(rng.randint(0, 3)):
        space = rng.choice(names)
        alg = algebras[space]
        default = random_degree(rng)
        entries = []
        for v in space_vectors(alg):
            if v == alg.zero():
                continue
            if rng.random() < 0.3:
                entries.append((v, random_degree(rng)))
        sets[f"A{idx}"] = WorkspaceSet(
            space, default, make_cifset(alg, entries, default)
        )
    maps = {}
    for idx in range(rng.randint(0, 2)):
        src = rng.choice(names)
        tgt = rng.choice(names)
        rows = tuple(
            tuple(rng.randrange(p) for _ in range(algebras[tgt].dim))
            for _ in range(algebras[src].dim)
        )
        kind = rng.choice(["plain", "anti"])
        maps[f"phi{idx}"] = WorkspaceMap(
            src, tgt, GradedMap(algebras[src], algebras[tgt], rows, kind)
        )
    return Workspace(field, algebras, sets, maps)


_FUZZ_TOKENS = [
    "field", "space", "bracket", "cifset", "entry", "map", "dim", "parity",
    "default", "deg", "on", "kind", "rows", "->", "/", "plain", "anti",
    "0", "1", "2", "3", "7", "-1", "1/2", "3/4", "0/0", "9/4", "x", "_a",
    "H", "A", "phi", "#", "",
]


def gen_fuzz_document(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(0, 12)):
        style = rng.random()
        if style < 0.5:
            line = " ".join(
                rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(0, 9))
            )
        elif style < 0.8:
            line = "".join(
                rng.choice(string.printable) for _ in range(rng.randint(0, 40))
            )
        else:
            line = "".join(
                chr(rng.randint(1, 0x2FFF)) for _ in range(rng.randint(0, 20))
            )
        lines.append(line)
    return "\n".join(lines)


def rebind_everywhere(original, replacement, setattr_) -> None:
    """Rebind every attribute of a loaded ciflie module that holds
    ``original`` (as the benchmark tracer does), through ``setattr_``
    (``monkeypatch.setattr`` or a recording setter)."""
    for name, module in sorted(sys.modules.items()):
        if module is None or name.split(".")[0] != "ciflie":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr_(module, attr, replacement)


def source_mutant(function, old: str, new: str):
    """``function`` with one piece of its source replaced, compiled in a
    copy of its module's namespace."""
    source = inspect.getsource(function)
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]
