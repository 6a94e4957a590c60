import random

import pytest

from ciflie import (
    EMPTY,
    FULL,
    bracket_eval,
    bracket_graded_parts,
    bracket_product,
    bracket_product_oracle,
    cif_degree,
    cif_sum,
    deg_join,
    deg_leq,
    deg_meet,
    first_difference,
    is_cif_subspace,
    is_trivial,
    is_z2_graded,
    make_cifset,
    mem_level_ladder,
    non_level_ladder,
    space_vectors,
    subset_of,
    trivial_cifset,
)
from ciflie.generators import gen_cif_set, gen_pair, make_config
from helpers import chain_table
from oracles import joint_ladder_bracket, quadratic_level_ladder

E, F = (1, 0), (0, 1)
D_MAIN = cif_degree("2/3", "1/2", "1/4", "1/3")


def odd_line_set(H, d=D_MAIN):
    return make_cifset(H, [(F, d), ((0, 2), d)], EMPTY)


def test_abelian_bracket_is_trivial(AB2):
    for seed in range(10):
        cfg = make_config(seed, AB2)
        A, B = gen_pair(cfg, kind="set")
        K = bracket_product(A, B)
        assert is_trivial(K)
        assert K.table[(0, 0)] == FULL
    # and for a handmade, non-generated pair as well
    d = cif_degree("1/2", "1/2", "1/4", "1/4")
    A = make_cifset(AB2, [(E, d)], EMPTY)
    assert is_trivial(bracket_product(A, A))


def test_remark_lower_bound_on_h(H):
    A = odd_line_set(H)
    B = odd_line_set(H)
    K = bracket_product(A, B)
    assert deg_leq(deg_meet(A.mem(F), B.mem(F)), K.mem(bracket_eval(H, F, F)))


def test_exact_value_single_generator(H):
    # only brackets of odd vectors are nonzero, all carrying (2/3, 1/2),
    # so the degree at e is exactly that; cross-checked by the oracle
    A = odd_line_set(H)
    K = bracket_product(A, A)
    assert K.table[E].mem == D_MAIN.mem
    assert K.table[E].non == D_MAIN.non
    assert K.table[(0, 0)] == FULL
    assert K.table[F] == EMPTY
    O = bracket_product_oracle(A, A)
    assert first_difference(K, O) is None


def test_oracle_equivalence_on_seeded_pairs(H, L3):
    for alg, seeds in ((H, range(30)), (L3, range(10))):
        for seed in seeds:
            cfg = make_config(seed, alg)
            A, B = gen_pair(cfg, kind="subspace")
            assert first_difference(
                bracket_product(A, B), bracket_product_oracle(A, B)
            ) is None


def test_oracle_equivalence_on_arbitrary_homogeneous_sets(H):
    for seed in range(30):
        cfg = make_config(seed, H)
        A, B = gen_pair(cfg, kind="set")
        assert first_difference(
            bracket_product(A, B), bracket_product_oracle(A, B)
        ) is None


def test_componentwise_path_agrees_on_chain_inputs(H, L3):
    # on homogeneous pairs the per-component cut ladders give the joint
    # amplitude-phase ladder of the pairwise definition
    for alg in (H, L3):
        for seed in range(10):
            cfg = make_config(seed, alg)
            A, B = gen_pair(cfg, kind="subspace")
            split = bracket_product(A, B)
            assert split.notes == ()
            assert first_difference(joint_ladder_bracket(A, B), split) is None


def test_non_homogeneous_inputs_flagged(H):
    A = make_cifset(H, [(F, cif_degree("1/2", "1/4", "0", "0"))], EMPTY)
    B = make_cifset(H, [(F, cif_degree("1/4", "1/2", "0", "0"))], EMPTY)
    K = bracket_product(A, B)
    assert any("non-homogeneous" in n for n in K.notes)
    # the componentwise reading still keeps the zero pin
    assert K.table[(0, 0)] == FULL


def test_space_mismatch_rejected(H, L3):
    with pytest.raises(ValueError):
        bracket_product(trivial_cifset(H), trivial_cifset(L3))
    with pytest.raises(ValueError):
        bracket_product_oracle(trivial_cifset(H), trivial_cifset(L3))


def test_oracle_symmetric_for_graded_subspaces(H):
    for seed in range(10):
        cfg = make_config(seed, H)
        A, B = gen_pair(cfg, kind="graded")
        lhs = bracket_product_oracle(A, B)
        rhs = bracket_product_oracle(B, A)
        assert first_difference(lhs, rhs) is None


def test_ladder_structure(H):
    A = odd_line_set(H)
    ladder = mem_level_ladder(A, A)
    # thresholds strictly descending along the chain
    for hi, lo in zip(ladder.thresholds, ladder.thresholds[1:]):
        assert deg_leq(lo, hi) and lo != hi
    # cuts are nested: each earlier cut sits inside every later one
    for earlier, later in zip(ladder.cuts, ladder.cuts[1:]):
        for row in earlier.rows:
            assert later.contains(row)
    dual = non_level_ladder(A, A)
    for lo, hi in zip(dual.thresholds, dual.thresholds[1:]):
        assert deg_leq(lo, hi) and lo != hi


LADDERS = (("mem", mem_level_ladder), ("non", non_level_ladder))


def test_ladders_match_pairwise_ladders(H, L3):
    rng = random.Random(1)
    verdicts = set()
    for alg in (H, L3):
        for seed in range(6):
            A, B = gen_pair(make_config(seed, alg), kind="set")
            for side, ladder in LADDERS:
                assert ladder(A, B) == quadratic_level_ladder(A, B, side)
        # unpinned: each value is capped by the other table's top
        # (bottom), which the pin would make a no-op
        for _ in range(15):
            A, B = chain_table(alg, rng), chain_table(alg, rng)
            for side, ladder in LADDERS:
                try:
                    want = quadratic_level_ladder(A, B, side)
                except ValueError:
                    verdicts.add(False)
                    with pytest.raises(ValueError):
                        ladder(A, B)
                else:
                    verdicts.add(True)
                    assert ladder(A, B) == want
    assert verdicts == {True, False}


def test_ladder_requires_chain(H):
    A = make_cifset(H, [(F, cif_degree("1/2", "1/4", "0", "0"))], EMPTY)
    B = make_cifset(H, [(F, cif_degree("1/4", "1/2", "0", "0"))], EMPTY)
    with pytest.raises(ValueError):
        mem_level_ladder(A, B)


def test_bracket_is_always_a_subspace(H):
    for seed in range(10):
        cfg = make_config(seed, H)
        A, B = gen_pair(cfg, kind="set")
        assert is_cif_subspace(bracket_product(A, B)).ok


def test_remark_bounds_property(H):
    for seed in range(20):
        cfg = make_config(seed, H)
        A, B = gen_pair(cfg, kind="set")
        K = bracket_product(A, B)
        for x in space_vectors(H):
            for y in space_vectors(H):
                bxy = bracket_eval(H, x, y)
                assert deg_leq(deg_meet(A.mem(x), B.mem(y)), K.mem(bxy))
                assert deg_leq(K.non(bxy), deg_join(A.non(x), B.non(y)))


def test_graded_parts_trivial(H):
    triv = trivial_cifset(H)
    part0, part1 = bracket_graded_parts(triv, triv)
    assert is_trivial(part0) and is_trivial(part1)


def test_graded_parts_odd_support(H):
    A = odd_line_set(H)
    part0, part1 = bracket_graded_parts(A, A)
    # odd-odd brackets land in the even part, carrying e's degree
    assert part0.table[E].mem == D_MAIN.mem
    assert is_trivial(part1)


def test_graded_parts_recombine(H):
    for seed in range(10):
        cfg = make_config(seed, H)
        A, B = gen_pair(cfg, kind="graded")
        part0, part1 = bracket_graded_parts(A, B)
        K = bracket_product(A, B)
        assert first_difference(cif_sum(part0, part1), K) is None
        assert is_z2_graded(K).ok


def test_graded_parts_reject_ungraded(H):
    lo = cif_degree("1/4", "1/4", "1/2", "1/2")
    hi = cif_degree("1/2", "1/2", "1/4", "1/4")
    bad = make_cifset(H, [(E, hi), (F, hi), ((1, 1), lo)], EMPTY)
    with pytest.raises(ValueError):
        bracket_graded_parts(bad, bad)


def test_monotone_in_both_arguments(H):
    from ciflie import intersection

    for seed in range(10):
        cfg = make_config(seed, H)
        A2, B2 = gen_pair(cfg, kind="set")
        A1 = intersection(gen_cif_set(cfg), A2)
        B1 = intersection(gen_cif_set(cfg), B2)
        assert subset_of(bracket_product(A1, B1), bracket_product(A2, B2))
