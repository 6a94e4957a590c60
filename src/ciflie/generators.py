"""Seeded generators for valid CIF subspaces, ideals and anti-homomorphisms.

All generated sets draw their degrees from one shared pool: a strictly
increasing chain of membership degrees paired with a strictly decreasing
chain of non-membership degrees.  Any family of sets valued in the same
pool (plus the zero pin and the no-membership degree) is automatically
homogeneous and pairwise homogeneous, which is exactly the standing
assumption the sup/inf operations downstream rely on.  A config is a
seed and an algebra; its pool is a function of the seed, drawn the
first time it is read, so a config that never reads it draws none.

Sets are built as level cuts over descending chains of crisp subspaces
(crisp graded ideals for the ideal generator): the deeper a vector sits
in the chain, the higher its membership.  This construction is sound by
design, and the suite re-checks soundness with the defining predicates.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cifset import CIFSet, make_cifset
from .degrees import CIFDegree, Degree, EMPTY, FULL, cif_degree
from .superalgebra import (
    GradedMap,
    Superalgebra,
    Vector,
    _grow,
    _ideal,
    _members,
    graded_split,
    space_vectors,
    validate_map,
)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic, well-spread sub-seed; stable across platforms."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


_POOL_GRID = 60
# Degrees in every generated pool, hence the deepest chain of crisp
# subspaces a generated set is cut from.
CHAIN_LENGTH = 3
_ANTI_HOM_ATTEMPTS = 200


def make_degree_pool(rng: random.Random, length: int) -> tuple[CIFDegree, ...]:
    """A chain of CIF degrees: memberships strictly rising in amplitude
    and phase, non-memberships strictly falling, budgets respected.  It
    is a chain by construction: each sample is distinct and sorted, and
    non r = (grid - r) * shrink / grid^2 falls as r rises."""
    if length < 1:
        raise ValueError("pool length must be positive")
    rs = sorted(rng.sample(range(1, _POOL_GRID), length))
    ws = sorted(rng.sample(range(1, _POOL_GRID), length))
    whs = sorted(rng.sample(range(1, _POOL_GRID), length), reverse=True)
    shrink = rng.randrange(1, _POOL_GRID)  # non r = (1 - mem r) * shrink / grid
    return tuple(
        CIFDegree(
            Degree(Fraction(r, _POOL_GRID), Fraction(w, _POOL_GRID)),
            Degree(Fraction((_POOL_GRID - r) * shrink, _POOL_GRID**2), Fraction(wh, _POOL_GRID)),
        )
        for r, w, wh in zip(rs, ws, whs)
    )


@dataclass(frozen=True)
class GenConfig:
    """Reproducible generation context: a seed and a carrier.  The
    degree pool is a function of the seed, drawn on first read."""

    seed: int
    algebra: Superalgebra

    @cached_property
    def degree_pool(self) -> tuple[CIFDegree, ...]:
        return make_degree_pool(random.Random(derive_seed(self.seed, 0)), CHAIN_LENGTH)

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def make_config(seed: int, algebra: Superalgebra) -> GenConfig:
    """The config of a seed and an algebra; its pool is not drawn yet."""
    return GenConfig(seed, algebra)


def trial_config(cfg: GenConfig, index: int) -> GenConfig:
    """Per-trial config: a derived seed, hence its own pool."""
    return make_config(derive_seed(cfg.seed, index + 1), cfg.algebra)


def _random_vector(alg: Superalgebra, rng: random.Random) -> Vector:
    return tuple(rng.randrange(alg.field.p) for _ in range(alg.dim))


def _random_homogeneous_vector(alg: Superalgebra, rng: random.Random) -> Vector:
    v = _random_vector(alg, rng)
    even, odd = graded_split(alg, v)
    return even if rng.random() < 0.5 else odd


def crisp_ideal_closure(alg: Superalgebra, gens: list[Vector]) -> tuple[int, list[Vector]]:
    """The least ideal holding the generators, as a carrier bitset, and the basis that grew it."""
    return _ideal(alg, *_grow(alg, 1, gens))


def _random_chain(
    alg: Superalgebra,
    rng: random.Random,
    max_depth: int,
    graded: bool,
    ideal: bool,
) -> list[int]:
    """Descending chain W_1 >= ... >= W_k of crisp subspaces (k possibly 0)
    as carrier bitsets, built deepest-first, each grown from the one before."""
    depth = rng.randint(0, max_depth)
    chain: list[int] = []
    span = 1
    sample = _random_homogeneous_vector if (graded or ideal) else _random_vector
    for _ in range(depth):
        gens = [sample(alg, rng) for _ in range(rng.randint(0, 2))]
        span, gained = _grow(alg, span, gens)
        if ideal:
            span = _ideal(alg, span, gained)[0]
        chain.append(span)
    chain.reverse()
    return chain


def _levelcut_set(alg: Superalgebra, chain: list[int], pool: tuple[CIFDegree, ...]) -> CIFSet:
    """Read the degrees off the chain members: each vector takes the pool
    degree of the deepest member whose bitset holds it, else EMPTY."""
    degree: dict[Vector, CIFDegree] = {}
    for span, d in zip(chain, pool):
        degree.update(dict.fromkeys(_members(alg, span), d))
    degree.pop(alg.zero(), None)
    return make_cifset(alg, degree.items(), EMPTY)


def gen_cif_subspace(
    cfg: GenConfig, rng: random.Random | None = None, *, graded: bool = False
) -> CIFSet:
    """Level-cut CIF subspace over a random chain of crisp subspaces.

    With ``graded=True`` the chain members are spans of homogeneous
    vectors, so the output is additionally Z2-graded.
    """
    rng = rng or cfg.rng()
    chain = _random_chain(cfg.algebra, rng, len(cfg.degree_pool), graded, False)
    return _levelcut_set(cfg.algebra, chain, cfg.degree_pool)


def gen_cif_ideal(cfg: GenConfig, rng: random.Random | None = None) -> CIFSet:
    """Level-cut CIF ideal over a random chain of crisp graded ideals."""
    rng = rng or cfg.rng()
    chain = _random_chain(cfg.algebra, rng, len(cfg.degree_pool), True, True)
    return _levelcut_set(cfg.algebra, chain, cfg.degree_pool)


def gen_cif_set(cfg: GenConfig, rng: random.Random | None = None) -> CIFSet:
    """Arbitrary homogeneous CIF set: a random pool-valued table.

    No subspace structure is imposed; homogeneity comes from the shared
    pool chain alone.
    """
    rng = rng or cfg.rng()
    alg = cfg.algebra
    choices: list[CIFDegree] = [EMPTY, *cfg.degree_pool, FULL]
    entries = []
    zero = alg.zero()
    for x in space_vectors(alg):
        if x == zero:
            continue
        entries.append((x, rng.choice(choices)))
    return make_cifset(alg, entries, EMPTY)


def gen_random_table(
    alg: Superalgebra, rng: random.Random, palette: int = 24, grid: int = 60
) -> CIFSet:
    """A random-degree table, usually non-homogeneous: every nonzero
    vector takes one of ``palette`` random degrees on a 1/grid lattice."""
    degrees = []
    for _ in range(palette):
        mr = rng.randint(0, grid)
        nr = rng.randint(0, grid - mr)
        degrees.append(
            cif_degree(
                Fraction(mr, grid),
                Fraction(rng.randint(0, grid), grid),
                Fraction(nr, grid),
                Fraction(rng.randint(0, grid), grid),
            )
        )
    zero = alg.zero()
    entries = [(x, rng.choice(degrees)) for x in space_vectors(alg) if x != zero]
    return make_cifset(alg, entries, EMPTY)


_PAIR_KINDS = ("set", "subspace", "graded", "ideal")


def gen_pair(
    cfg: GenConfig, rng: random.Random | None = None, kind: str = "subspace"
) -> tuple[CIFSet, CIFSet]:
    """Two independently sampled sets sharing the config's degree pool,
    hence a homogeneous pair."""
    if kind not in _PAIR_KINDS:
        raise ValueError(f"kind must be one of {_PAIR_KINDS}")
    rng = rng or cfg.rng()
    if kind == "set":
        return gen_cif_set(cfg, rng), gen_cif_set(cfg, rng)
    if kind == "subspace":
        return gen_cif_subspace(cfg, rng), gen_cif_subspace(cfg, rng)
    if kind == "graded":
        return (
            gen_cif_subspace(cfg, rng, graded=True),
            gen_cif_subspace(cfg, rng, graded=True),
        )
    return gen_cif_ideal(cfg, rng), gen_cif_ideal(cfg, rng)


def _random_graded_invertible(
    alg: Superalgebra, rng: random.Random
) -> tuple[Vector, ...] | None:
    """One sampling attempt at a grading-preserving invertible matrix."""
    p, parity, dims = alg.field.p, alg.parity, range(alg.dim)
    rows = tuple(tuple(rng.randrange(p) if parity[k] == parity[i] else 0 for k in dims) for i in dims)
    return rows if len(_grow(alg, 1, rows)[1]) == alg.dim else None


def gen_anti_hom(cfg: GenConfig, rng: random.Random | None = None) -> GradedMap:
    """A surjective anti-homomorphism of the config's algebra onto itself.

    Samples grading-preserving invertible matrices, which are surjective,
    and keeps the first one that validates.  After the attempts it
    returns minus the identity phi unchecked: it preserves the grading,
    and as (p - 1)^2 = 1 mod p, every bilinear bracket has phi([x, y]) =
    -[x, y] = -[phi(x), phi(y)], the anti condition.
    """
    rng = rng or cfg.rng()
    alg = cfg.algebra
    for _ in range(_ANTI_HOM_ATTEMPTS):
        rows = _random_graded_invertible(alg, rng)
        if rows is None:
            continue
        candidate = GradedMap(alg, alg, rows, kind="anti")
        if validate_map(candidate).ok:
            return candidate
    dims = range(alg.dim)
    rows = tuple(tuple(alg.field.p - 1 if k == i else 0 for k in dims) for i in dims)
    return GradedMap(alg, alg, rows, kind="anti")
