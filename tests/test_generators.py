import dataclasses
import random
from fractions import Fraction

import pytest

from ciflie import (
    EMPTY,
    FULL,
    PrimeField,
    Report,
    Superalgebra,
    bracket_eval,
    cif_degree,
    gen_anti_hom,
    gen_cif_ideal,
    gen_cif_set,
    gen_cif_subspace,
    gen_pair,
    is_cif_ideal,
    is_cif_subspace,
    is_homogeneous,
    is_z2_graded,
    make_cifset,
    make_config,
    make_degree_pool,
    pair_homogeneous,
    space_vectors,
    validate_map,
    validate_superalgebra,
)
from ciflie import generators
from ciflie.cifset import table_fingerprint
from ciflie.generators import (
    CHAIN_LENGTH,
    GenConfig,
    crisp_ideal_closure,
    derive_seed,
    trial_config,
)
from oracles import echelon_ideal_closure, quadratic_is_cif_ideal


def test_pool_is_a_chain():
    rng = random.Random(0)
    for _ in range(50):
        pool = make_degree_pool(rng, rng.randint(2, 4))
        for lo, hi in zip(pool, pool[1:]):
            assert lo.mem.r < hi.mem.r and lo.mem.w < hi.mem.w
            assert lo.non.r > hi.non.r and lo.non.w > hi.non.w


def test_pool_is_a_chain_at_full_length():
    """With every grid point drawn, neighbours are one grid step apart
    and the pool is still a strict chain, with no check behind it."""
    pool = make_degree_pool(random.Random(0), generators._POOL_GRID - 1)
    for lo, hi in zip(pool, pool[1:]):
        assert lo.mem.r < hi.mem.r and lo.mem.w < hi.mem.w
        assert lo.non.r > hi.non.r and lo.non.w > hi.non.w


def test_config_pool_comes_from_its_seed(H):
    cfg = make_config(3, H)
    assert len(cfg.degree_pool) == CHAIN_LENGTH
    assert cfg.degree_pool == make_degree_pool(random.Random(derive_seed(3, 0)), CHAIN_LENGTH)


def test_config_is_its_seed_and_algebra(H):
    """The pool is no field: equality and hash read the seed and the
    algebra only, whether or not the pool has been drawn."""
    assert [f.name for f in dataclasses.fields(GenConfig)] == ["seed", "algebra"]
    for seed in range(3):
        cfg, fresh = GenConfig(seed, H), make_config(seed, H)
        assert cfg == fresh and hash(cfg) == hash(fresh)
        assert cfg.degree_pool == fresh.degree_pool
        assert cfg == make_config(seed, H) and hash(cfg) == hash(make_config(seed, H))
    assert make_config(0, H) != make_config(1, H)


def test_replaced_seed_brings_its_own_pool(H):
    """A config copied with another seed draws that seed's pool, even
    when the original had already read its own."""
    cfg = make_config(0, H)
    assert cfg.degree_pool == make_config(0, H).degree_pool
    moved = dataclasses.replace(cfg, seed=1)
    assert moved == make_config(1, H)
    assert moved.degree_pool == make_config(1, H).degree_pool != cfg.degree_pool


def test_subspace_generator_sound(H, L3):
    for alg in (H, L3):
        for seed in range(40):
            A = gen_cif_subspace(make_config(seed, alg))
            assert is_cif_subspace(A).ok
            assert is_homogeneous(A).ok


def test_graded_subspace_generator_sound(H, L3):
    for alg in (H, L3):
        for seed in range(30):
            cfg = make_config(seed, alg)
            A = gen_cif_subspace(cfg, graded=True)
            assert is_cif_subspace(A).ok
            assert is_z2_graded(A).ok


def test_ideal_generator_sound(H, L3, AB2, gl11_F3, osp12_F3):
    for alg in (H, L3, AB2, gl11_F3, osp12_F3):
        for seed in range(30):
            A = gen_cif_ideal(make_config(seed, alg))
            assert is_cif_ideal(A).ok


def test_set_generator_homogeneous(H):
    for seed in range(30):
        A = gen_cif_set(make_config(seed, H))
        assert is_homogeneous(A).ok


def test_pairs_share_the_pool(H):
    for kind in ("set", "subspace", "graded", "ideal"):
        for seed in range(15):
            A, B = gen_pair(make_config(seed, H), kind=kind)
            assert pair_homogeneous(A, B).ok


def test_pair_rejects_unknown_kind(H):
    with pytest.raises(ValueError):
        gen_pair(make_config(0, H), kind="group")


def test_anti_hom_generator_sound(H, L3, AB2):
    for alg in (H, L3, AB2):
        for seed in range(20):
            phi = gen_anti_hom(make_config(seed, alg))
            rep = validate_map(phi)
            assert rep.ok and rep.surjective
            assert phi.kind == "anti"


def test_minus_identity_is_an_anti_automorphism_of_any_table(monkeypatch):
    """Once its draws run out, gen_anti_hom returns -I unchecked: -I is
    a surjective anti-homomorphism of every structure table, also of one
    that fails the superalgebra axioms."""
    monkeypatch.setattr(generators, "_random_graded_invertible", lambda alg, rng: None)
    rng = random.Random(6)
    valid = set()
    for _ in range(60):
        field = PrimeField(rng.choice([2, 3, 5]))
        dim = rng.randint(1, 4)
        density = rng.choice([0, 0.3, 0.8])
        structure = tuple(
            tuple(
                tuple(rng.randrange(field.p) if rng.random() < density else 0 for _ in range(dim))
                for _ in range(dim)
            )
            for _ in range(dim)
        )
        alg = Superalgebra(field, dim, tuple(rng.randrange(2) for _ in range(dim)), structure)
        valid.add(validate_superalgebra(alg).ok)
        phi = gen_anti_hom(make_config(0, alg))
        minus_identity = tuple(tuple((field.p - 1) * (i == k) for k in range(dim)) for i in range(dim))
        assert phi.kind == "anti" and phi.matrix == minus_identity
        rep = validate_map(phi)
        assert rep.ok and rep.surjective
    assert valid == {True, False}


def test_determinism(H):
    cfg = make_config(99, H)
    a1 = table_fingerprint(gen_cif_subspace(cfg))
    a2 = table_fingerprint(gen_cif_subspace(cfg))
    assert a1 == a2
    b1 = gen_anti_hom(cfg).matrix
    b2 = gen_anti_hom(cfg).matrix
    assert b1 == b2
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(1, 3)


def test_trial_config_varies_pool(H):
    cfg = make_config(4, H)
    pools = {trial_config(cfg, i).degree_pool for i in range(5)}
    assert len(pools) == 5


def test_crisp_ideal_closure_is_an_ideal(H, L3):
    rng = random.Random(17)
    for alg in (H, L3):
        index = {x: n for n, x in enumerate(space_vectors(alg))}

        def holds(span, v):
            return span >> index[v] & 1

        for _ in range(20):
            gens = [
                tuple(rng.randrange(alg.field.p) for _ in range(alg.dim))
                for _ in range(rng.randint(0, 2))
            ]
            span, basis = crisp_ideal_closure(alg, gens)
            assert span.bit_count() == alg.field.p ** len(basis)
            for w in basis:
                assert holds(span, w)
                for j in range(alg.dim):
                    assert holds(span, bracket_eval(alg, w, alg.basis(j)))
                    assert holds(span, bracket_eval(alg, alg.basis(j), w))
            for g in gens:
                assert holds(span, g)


@pytest.mark.parametrize("name", ["H", "L3", "L5", "L4", "osp12_F3", "gl11_F3", "gl11_F5"])
def test_crisp_ideal_closure_matches_the_echelon_closure(request, name):
    """The bitset closure spans what the echelon-form closure spans, on
    random generators, homogeneous or not."""
    alg = request.getfixturevalue(name)
    vectors = space_vectors(alg)
    rng = random.Random(name)
    for _ in range(12):
        gens = [rng.choice(vectors) for _ in range(rng.randint(0, 3))]
        reference = echelon_ideal_closure(alg, gens)
        span, basis = crisp_ideal_closure(alg, gens)
        assert len(basis) == reference.rank
        assert span == sum(1 << n for n, x in enumerate(vectors) if reference.contains(x))


# [b0, b1] = b0 and every other bracket 0, and its transpose [b1, b0] = b0.
# Neither is super skew-symmetric, so bracketing one side only misses b0.
ONE_SIDED = {
    "b0_b1": (Superalgebra(PrimeField(3), 2, (0, 0), (((0, 0), (1, 0)), ((0, 0), (0, 0)))), "x=(1, 0), y=(0, 1)"),
    "b1_b0": (Superalgebra(PrimeField(3), 2, (0, 0), (((0, 0), (0, 0)), ((1, 0), (0, 0)))), "x=(0, 1), y=(1, 0)"),
}


@pytest.mark.parametrize("table", sorted(ONE_SIDED))
def test_ideal_closure_brackets_both_sides(table):
    """On a table that fails super skew-symmetry the ideal closure of
    the line through b1 is the carrier, and the line at FULL fails the
    ideal check where the pairwise definition does."""
    alg, pair = ONE_SIDED[table]
    assert not validate_superalgebra(alg).ok
    assert crisp_ideal_closure(alg, [alg.basis(1)])[0] == (1 << alg.size) - 1
    line = make_cifset(alg, [((0, 1), FULL), ((0, 2), FULL)], EMPTY)
    failure = Report(False, (f"bracket clause (membership): {pair}",))
    assert is_cif_ideal(line) == quadratic_is_cif_ideal(line) == failure


@pytest.mark.parametrize("name", ["L3", "osp12_F3", "gl11_F3"])
def test_ideal_chain_members_close_every_generator_drawn(request, name):
    """Each member of a generated ideal chain, grown from the one before,
    is the echelon ideal closure of all the generators drawn so far."""
    alg = request.getfixturevalue(name)
    vectors = space_vectors(alg)
    for seed in range(20):
        chain = generators._random_chain(alg, random.Random(seed), CHAIN_LENGTH, True, True)
        rng, gens, members = random.Random(seed), [], []
        for _ in range(rng.randint(0, CHAIN_LENGTH)):
            gens += [generators._random_homogeneous_vector(alg, rng) for _ in range(rng.randint(0, 2))]
            closure = echelon_ideal_closure(alg, gens)
            members.append(sum(1 << n for n, x in enumerate(vectors) if closure.contains(x)))
        assert chain == members[::-1]


def test_pool_length_must_be_positive():
    with pytest.raises(ValueError) as info:
        make_degree_pool(random.Random(0), 0)
    assert str(info.value) == "pool length must be positive"


# make_config(seed, alg).degree_pool for seeds 0, 1 and 2, as (mem r, mem w,
# non r, non w).  The pool does not depend on the algebra, and the spec
# files that the benchmark writes from generated sets repeat these values.
POOLS = [
    [("23/60", "3/20", "481/900", "11/15"), ("3/5", "13/60", "26/75", "3/5"), ("59/60", "29/60", "13/900", "17/30")],
    [("37/60", "41/60", "253/900", "17/20"), ("11/15", "53/60", "44/225", "3/4"), ("11/12", "9/10", "11/180", "7/30")],
    [("7/12", "1/60", "1/4", "37/60"), ("4/5", "8/15", "3/25", "11/20"), ("49/60", "11/15", "11/100", "7/60")],
]


@pytest.mark.parametrize("name", ["H", "L3", "L5"])
@pytest.mark.parametrize("seed", range(3))
def test_config_pools_are_pinned(request, name, seed):
    pool = make_config(seed, request.getfixturevalue(name)).degree_pool
    assert pool == tuple(cif_degree(*map(Fraction, row)) for row in POOLS[seed])
    assert all(type(q) is Fraction for d in pool for q in (d.mem.r, d.mem.w, d.non.r, d.non.w))
