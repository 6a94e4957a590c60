"""Image and preimage against their fiber-wise definitions.

``ciflie.image`` pushes a set forward from the images of all source
vectors, built in one pass over the matrix rows, and
``ciflie.preimage`` composes its table with the map.  ``oracles`` reads
both off the fibers phi^-1(y), found by elimination: the image takes the
best degree over each fiber and EMPTY off the image, the preimage gives
every vector of a fiber the degree of its target.
"""

import random

import pytest

from ciflie import (
    CIFDegree,
    CIFSet,
    EMPTY,
    GradedMap,
    apply_map,
    deg_join,
    deg_meet,
    gen_anti_hom,
    gen_cif_ideal,
    gen_cif_set,
    gen_cif_subspace,
    gen_random_table,
    image,
    make_config,
    preimage,
    PrimeField,
    space_vectors,
    superalgebra_from_pairs,
)
from oracles import fiber, fiber_image, fiber_preimage


def test_fiber_examples(H, AB2):
    ident = GradedMap(H, H, ((1, 0), (0, 1)))
    assert fiber(ident, (2, 1)) == [(2, 1)]

    zero = GradedMap(AB2, AB2, ((0, 0), (0, 0)))
    assert fiber(zero, (0, 0)) == sorted(space_vectors(AB2))
    assert fiber(zero, (1, 0)) == []

    phi = GradedMap(H, H, ((2, 0), (0, 1)))
    assert fiber(phi, (1, 0)) == [(2, 0)]


def test_fiber_contains_preimage_point(H):
    rng = random.Random(5)
    phi = GradedMap(H, H, ((2, 0), (0, 2)))
    for _ in range(20):
        x = tuple(rng.randrange(3) for _ in range(2))
        assert x in fiber(phi, apply_map(phi, x))


def test_fiber_partitions_source(L3):
    proj = GradedMap(L3, L3, ((1, 0, 0), (0, 1, 0), (0, 0, 0)))
    total = sum(len(fiber(proj, y)) for y in space_vectors(L3))
    assert total == L3.size


def _maps(alg, seed):
    """A generated anti-homomorphism, a non-surjective projection that
    kills the last coordinate, and the zero map."""
    n = alg.dim
    keep = tuple(tuple(int(i == k and i < n - 1) for k in range(n)) for i in range(n))
    zero = tuple((0,) * n for _ in range(n))
    return {
        "anti-hom": gen_anti_hom(make_config(seed, alg)),
        "projection": GradedMap(alg, alg, keep),
        "zero": GradedMap(alg, alg, zero),
    }


def _sets(alg, seed):
    cfg = make_config(seed, alg)
    rng = random.Random(seed)
    return {
        "set": gen_cif_set(cfg, rng),
        "subspace": gen_cif_subspace(cfg, rng),
        "ideal": gen_cif_ideal(cfg, rng),
        "random-table": gen_random_table(alg, rng, palette=6, grid=12),
    }


def _disagreements(alg, image_fn, seeds=range(8)) -> list:
    """Every (seed, map, set) on which image_fn or preimage misses the
    fiber-wise definition."""
    bad = []
    for seed in seeds:
        for map_name, m in _maps(alg, seed).items():
            for set_name, A in _sets(alg, seed).items():
                if image_fn(m, A) != fiber_image(m, A):
                    bad.append(("image", seed, map_name, set_name))
                if preimage(m, A) != fiber_preimage(m, A):
                    bad.append(("preimage", seed, map_name, set_name))
    return bad


@pytest.mark.parametrize("alg_name", ["H", "L3"])
def test_image_and_preimage_match_the_fibers(alg_name, request):
    alg = request.getfixturevalue(alg_name)
    assert _disagreements(alg, image) == []


def test_projection_image_is_empty_off_the_image(L3):
    proj = _maps(L3, 0)["projection"]
    A = _sets(L3, 0)["random-table"]
    pushed = image(proj, A)
    off = [y for y in space_vectors(L3) if y[-1] != 0]
    assert off and all(pushed.table[y] == EMPTY for y in off)


def _image_min(m, A):
    """The image with the worst degree of each fiber instead of the best."""
    worst = {}
    for x in space_vectors(m.source):
        y, d = apply_map(m, x), A.table[x]
        if y in worst:
            d = CIFDegree(deg_meet(worst[y].mem, d.mem), deg_join(worst[y].non, d.non))
        worst[y] = d
    return CIFSet(m.target, {y: worst.get(y, EMPTY) for y in space_vectors(m.target)})


@pytest.mark.parametrize("alg_name", ["H", "L3"])
def test_negative_control_min_image_is_caught(alg_name, request):
    alg = request.getfixturevalue(alg_name)
    bad = _disagreements(alg, _image_min)
    assert any(kind == "image" for kind, *_ in bad)
    # only non-injective maps have fibers with two members to tell apart
    assert all(map_name != "anti-hom" for _, _, map_name, _ in bad)


def test_image_matches_the_fibers_on_random_maps():
    """Random plain and anti matrices between carriers of different
    dimensions over F_2, F_3 and F_5, most of them neither injective nor
    surjective: the one-pass image equals the fiber-wise one."""
    rng = random.Random(19)
    shapes = set()
    for p, dims in ((2, (1, 2, 3, 4)), (3, (1, 2, 3)), (5, (1, 2, 3))):
        field = PrimeField(p)
        for _ in range(12):
            n, k = rng.choice(dims), rng.choice(dims)
            source = superalgebra_from_pairs(field, tuple(rng.randrange(2) for _ in range(n)), {})
            target = superalgebra_from_pairs(field, tuple(rng.randrange(2) for _ in range(k)), {})
            rows = tuple(
                tuple(rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(k)) for _ in range(n)
            )
            m = GradedMap(source, target, rows, rng.choice(("plain", "anti")))
            A = gen_random_table(source, rng, palette=5, grid=8)
            assert image(m, A) == fiber_image(m, A), m
            hit = {y for y in space_vectors(target) if fiber(m, y)}
            shapes.add((p, n == k, len(hit) == source.size, len(hit) == target.size))
    assert {p for p, *_ in shapes} == {2, 3, 5}
    # (square, injective, surjective): every shape but the impossible ones
    assert {tuple(shape) for _, *shape in shapes} >= {
        (False, False, False), (False, True, False), (False, False, True),
        (True, False, False), (True, True, True),
    }
