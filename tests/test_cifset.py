import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ciflie import (
    CIFDegree,
    CIFSet,
    Degree,
    EMPTY,
    FULL,
    GradedMap,
    cif_degree,
    cif_sum,
    component_extension,
    first_difference,
    gen_random_table,
    image,
    intersection,
    is_cif_ideal,
    is_cif_subspace,
    is_direct_sum,
    is_homogeneous,
    is_trivial,
    is_z2_graded,
    make_cifset,
    pair_homogeneous,
    preimage,
    scalar_action,
    space_vectors,
    subset_of,
    superalgebra_from_pairs,
    trivial_cifset,
)
import ciflie.cifset as cifset_module
from ciflie.bracket import bracket_product
from ciflie.generators import make_config, gen_cif_ideal, gen_cif_subspace, gen_pair
from oracles import pointwise_is_z2_graded, quadratic_is_cif_ideal

E, F = (1, 0), (0, 1)
D_MAIN = cif_degree("2/3", "1/2", "1/4", "1/3")


def two_level_on_f(H):
    """Membership (2/3,1/2) on span(f) off zero, nothing elsewhere."""
    return make_cifset(H, [(F, D_MAIN), ((0, 2), D_MAIN)], EMPTY)


def test_make_cifset_trivial(H):
    triv = make_cifset(H, [], EMPTY)
    assert triv.table[(0, 0)] == FULL
    assert all(triv.table[v] == EMPTY for v in space_vectors(H) if v != (0, 0))
    assert is_trivial(triv)


def test_make_cifset_single_entry(H):
    A = make_cifset(H, [(F, D_MAIN)], EMPTY)
    assert A.table[F] == D_MAIN
    assert A.table[(0, 2)] == EMPTY
    assert A.table[(0, 0)] == FULL


def test_make_cifset_budget_error(H):
    with pytest.raises(ValueError):
        cif_degree("3/4", "1/2", "1/2", "0")


def test_make_cifset_zero_pin_conflict(H):
    with pytest.raises(ValueError):
        make_cifset(H, [((0, 0), EMPTY)], EMPTY)
    # an explicit pin-matching zero entry is accepted
    A = make_cifset(H, [((0, 0), FULL)], EMPTY)
    assert A.table[(0, 0)] == FULL


def test_make_cifset_vector_outside_space(H):
    with pytest.raises(ValueError):
        make_cifset(H, [((0, 1, 0), D_MAIN)], EMPTY)
    with pytest.raises(ValueError):
        make_cifset(H, [((0, 7), D_MAIN)], EMPTY)


def test_subset_reflexive(H):
    A = two_level_on_f(H)
    assert subset_of(A, A)


def test_trivial_below_everything(H):
    triv = trivial_cifset(H)
    A = two_level_on_f(H)
    assert subset_of(triv, A)
    assert not subset_of(A, triv)


def test_subset_space_mismatch(H, L3):
    with pytest.raises(ValueError):
        subset_of(trivial_cifset(H), trivial_cifset(L3))


def test_homogeneous_when_phase_tracks_amplitude(H):
    A = make_cifset(
        H,
        [(F, cif_degree("1/2", "1/2", "1/4", "1/4"))],
        cif_degree("1/3", "1/3", "1/2", "1/2"),
    )
    assert is_homogeneous(A).ok


def test_homogeneous_witness(H):
    A = make_cifset(
        H,
        [
            (E, cif_degree("1/2", "1/4", "0", "0")),
            (F, cif_degree("1/3", "1/3", "0", "0")),
        ],
        EMPTY,
    )
    rep = is_homogeneous(A)
    assert not rep.ok
    assert "membership" in rep.witness


def test_pair_homogeneous_specializes(H):
    for A in (two_level_on_f(H), trivial_cifset(H)):
        assert pair_homogeneous(A, A).ok == is_homogeneous(A).ok


def test_trivial_is_subspace_and_ideal(H):
    triv = trivial_cifset(H)
    assert is_cif_subspace(triv).ok
    assert is_cif_ideal(triv).ok


def test_crisp_subspace_levelcut_is_subspace(H):
    # full membership exactly on span(f)
    A = make_cifset(H, [(F, FULL), ((0, 2), FULL)], EMPTY)
    assert is_cif_subspace(A).ok


def test_subspace_scalar_witness(H):
    A = make_cifset(
        H,
        [
            (F, cif_degree("1/2", "1/2", "0", "0")),
            ((0, 2), cif_degree("1/4", "1/4", "0", "0")),
        ],
        EMPTY,
    )
    rep = is_cif_subspace(A)
    assert not rep.ok


def test_graded_subspace_on_abelian_is_ideal(AB2):
    A = make_cifset(
        AB2, [(E, cif_degree("1/2", "1/2", "1/4", "1/4")), ((2, 0), cif_degree("1/2", "1/2", "1/4", "1/4"))], EMPTY
    )
    assert is_z2_graded(A).ok
    assert is_cif_ideal(A).ok


def ideal_counterexample(H):
    """Graded subspace on H that is not an ideal: high on the odd line,
    low elsewhere, so [f, f] = e drops below f's degree."""
    hi = cif_degree("2/3", "2/3", "1/4", "1/4")
    lo = cif_degree("1/3", "1/3", "1/2", "1/2")
    entries = []
    for v in space_vectors(H):
        if v == (0, 0):
            continue
        entries.append((v, hi if v in (F, (0, 2)) else lo))
    return make_cifset(H, entries, EMPTY)


def test_ideal_counterexample_on_h(H):
    A = ideal_counterexample(H)
    assert is_cif_subspace(A).ok
    assert is_z2_graded(A).ok
    rep = is_cif_ideal(A)
    assert not rep.ok
    assert "bracket clause" in rep.witness


def test_ideal_reports_the_first_clause_that_fails(H):
    """One sweep decides the subspace and the bracket clause, yet the
    report names the first failing clause in the pairwise order:
    subspace, grading, bracket."""
    hi = cif_degree("2/3", "2/3", "1/4", "1/4")
    lo = cif_degree("1/3", "1/3", "1/2", "1/2")
    # the top cut span(f) misses [f, f] = e, and the next cut
    # {0, f, 2f, e + f} is not a subspace
    A = make_cifset(H, [(F, hi), ((0, 2), hi), ((1, 1), lo)], EMPTY)
    # span(e + f) is a subspace, neither graded nor absorbing [e + f, f] = e
    B = make_cifset(H, [((1, 1), hi), ((2, 2), hi)], EMPTY)
    for S, clause in ((A, "subspace clause: "), (B, "grading clause: ")):
        rep = is_cif_ideal(S)
        assert rep == quadratic_is_cif_ideal(S)
        assert rep.witness.startswith(clause)


def test_passing_ideal_check_encodes_once(L3, monkeypatch):
    calls = []
    encode = cifset_module.rank_encode
    monkeypatch.setattr(cifset_module, "rank_encode", lambda *sets: calls.append(sets) or encode(*sets))
    ideals = [S for seed in range(4) for S in gen_pair(make_config(seed, L3), kind="ideal")]
    assert not all(is_trivial(S) for S in ideals)
    for S in ideals:
        calls.clear()
        assert is_cif_ideal(S)
        assert len(calls) == 1


def _nudged(A, rng, side):
    """A with one vector whose parts are both nonzero moved to a new
    phase on one side, so only that side's grading can break."""
    alg = A.space
    mixed = [x for x in space_vectors(alg) if any(x[i] for i in range(alg.dim) if alg.parity[i])
             and any(x[i] for i in range(alg.dim) if not alg.parity[i])]
    x = rng.choice(mixed)
    d = A.table[x]
    w = rng.choice([q for q in (Fraction(0), Fraction(1, 2), Fraction(1)) if q != getattr(d, side).w])
    moved = Degree(getattr(d, side).r, w)
    table = dict(A.table)
    table[x] = CIFDegree(moved, d.non) if side == "mem" else CIFDegree(d.mem, moved)
    return CIFSet(alg, table)


def test_grading_on_rank_keys_matches_the_pointwise_reading(H, L3, L5):
    """``is_z2_graded`` compares rank keys and ``is_cif_ideal`` hands it
    its own encoding; both give the verdict and witness of the reading on
    degrees, on random tables, graded and ideal draws, and sets knocked
    off the grading on one side."""
    rng = random.Random(21)
    seen = set()
    for alg in (H, L3, L5):
        sets = [
            gen_random_table(alg, rng, palette=rng.choice((2, 6)), grid=rng.choice((2, 12))) for _ in range(6)
        ]
        for seed in range(6):
            for kind in ("graded", "ideal"):
                sets += gen_pair(make_config(seed, alg), kind=kind)
        sets += [_nudged(S, rng, side) for S in sets[-8:] for side in ("mem", "non")]
        for S in sets:
            want = pointwise_is_z2_graded(S)
            assert is_z2_graded(S) == want
            seen.add(want.witness.split(" not")[0] if want.failures else True)
            if alg.size <= 27:
                assert is_cif_ideal(S) == quadratic_is_cif_ideal(S)
    assert seen == {True, "membership", "non-membership"}


def test_graded_examples(H):
    assert is_z2_graded(trivial_cifset(H)).ok
    # full membership exactly on the even component
    A = make_cifset(H, [(E, FULL), ((2, 0), FULL)], EMPTY)
    assert is_z2_graded(A).ok


def test_graded_witness(H):
    d = cif_degree("1/2", "1/2", "1/4", "1/4")
    lo = cif_degree("1/4", "1/4", "1/2", "1/2")
    A = make_cifset(H, [(E, d), (F, d), ((1, 1), lo)], EMPTY)
    rep = is_z2_graded(A)
    assert not rep.ok
    assert "(1, 1)" in rep.witness


def test_component_extension_examples(H):
    triv = trivial_cifset(H)
    assert component_extension(triv, 0) == triv
    assert component_extension(triv, 1) == triv

    A = make_cifset(H, [(F, cif_degree("1/2", "1/2", "1/4", "1/4"))], EMPTY)
    even = component_extension(A, 0)
    assert is_trivial(even)
    odd = component_extension(A, 1)
    assert odd.table[F] == cif_degree("1/2", "1/2", "1/4", "1/4")
    assert odd.table[E] == EMPTY


def test_component_extensions_form_direct_sum(H):
    cfg = make_config(23, H)
    for i in range(10):
        A = gen_cif_subspace(make_config(i, H))
        assert is_direct_sum(component_extension(A, 0), component_extension(A, 1))


def test_cif_sum_trivial_neutral(H):
    cfg = make_config(5, H)
    A = gen_cif_subspace(cfg)
    assert cif_sum(A, trivial_cifset(H)) == A
    assert cif_sum(trivial_cifset(H), A) == A


def test_cif_sum_contains_arguments(H):
    cfg = make_config(6, H)
    A = gen_cif_subspace(cfg)
    S = cif_sum(A, A)
    assert subset_of(A, S)


def test_cif_sum_enumerated_example(F3):
    # frozen by enumerating all three decompositions of each point of F_3
    line = superalgebra_from_pairs(F3, (0,), {})
    dA = cif_degree("1/2", "1/2", "1/4", "1/4")
    dB = cif_degree("1/3", "1/3", "1/2", "1/2")
    A = make_cifset(line, [((1,), dA)], EMPTY)
    B = make_cifset(line, [((2,), dB)], EMPTY)
    S = cif_sum(A, B)
    assert S.table[(0,)] == FULL
    assert S.table[(1,)] == dA
    assert S.table[(2,)] == dB


def test_cif_sum_flags_non_homogeneous_pair(H):
    A = make_cifset(H, [(E, cif_degree("1/2", "1/4", "0", "0"))], EMPTY)
    B = make_cifset(H, [(E, cif_degree("1/4", "1/2", "0", "0"))], EMPTY)
    assert not pair_homogeneous(A, B).ok
    S = cif_sum(A, B)
    assert any("non-homogeneous" in n for n in S.notes)
    # notes never affect equality
    assert S == cif_sum(A, B)


def test_direct_sum_examples(H):
    triv = trivial_cifset(H)
    assert is_direct_sum(triv, triv)
    A = two_level_on_f(H)
    assert not is_direct_sum(A, A)


def test_scalar_action_examples(H):
    A = two_level_on_f(H)
    assert scalar_action(1, A) == A
    assert scalar_action(0, A) == trivial_cifset(H)
    # over F_3, 2^{-1} = 2, so (2A)(f) = A(2f)
    assert scalar_action(2, A).table[F] == A.table[(0, 2)]


def test_scalar_action_group_law(H):
    rng = random.Random(2)
    for i in range(10):
        A = gen_cif_subspace(make_config(i, H))
        for alpha in (1, 2):
            for beta in (1, 2):
                lhs = scalar_action(alpha, scalar_action(beta, A))
                rhs = scalar_action((alpha * beta) % 3, A)
                assert lhs == rhs


def test_intersection_examples(H):
    A = two_level_on_f(H)
    triv = trivial_cifset(H)
    assert intersection(A, A) == A
    assert intersection(A, triv) == triv
    ext0 = component_extension(A, 0)
    ext1 = component_extension(A, 1)
    assert is_trivial(intersection(ext0, ext1))


def test_image_preimage_identity(H):
    ident = GradedMap(H, H, ((1, 0), (0, 1)))
    A = two_level_on_f(H)
    assert image(ident, A) == A
    assert preimage(ident, A) == A


def test_preimage_zero_map(H):
    zero = GradedMap(H, H, ((0, 0), (0, 0)))
    B = two_level_on_f(H)
    P = preimage(zero, B)
    assert all(P.table[v] == FULL for v in space_vectors(H))


def test_image_under_diag_map(H):
    phi = GradedMap(H, H, ((2, 0), (0, 1)), kind="anti")
    A = make_cifset(H, [(F, D_MAIN)], EMPTY)
    img = image(phi, A)
    assert img.table[F] == D_MAIN
    assert img.table[(0, 2)] == EMPTY
    assert img.table[(0, 0)] == FULL


def test_image_of_trivial_under_surjection_is_trivial(H):
    phi = GradedMap(H, H, ((2, 0), (0, 2)))
    assert is_trivial(image(phi, trivial_cifset(H)))


def test_image_preimage_monotone(H):
    phi = GradedMap(H, H, ((2, 0), (0, 2)))
    for i in range(8):
        cfg = make_config(i, H)
        A, B = gen_pair(cfg, kind="set")
        small = intersection(A, B)
        assert subset_of(image(phi, small), image(phi, A))
        assert subset_of(preimage(phi, small), preimage(phi, A))


def test_zero_pin_always_present(H):
    for i in range(5):
        A = gen_cif_subspace(make_config(i, H))
        assert A.table[(0, 0)] == FULL


def test_first_difference(H):
    A = two_level_on_f(H)
    B = trivial_cifset(H)
    assert first_difference(A, A) is None
    assert first_difference(A, B) == (0, 1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), on_l3=st.booleans(), pinned=st.booleans())
def test_sum_bracket_and_image_keep_the_amplitude_budget(H, L3, seed, on_l3, pinned):
    # from_columns builds the result degrees through the budget check;
    # its docstring proves the check never fires on these results
    alg = L3 if on_l3 else H
    rng = random.Random(seed)
    A, B = (gen_random_table(alg, rng, palette=rng.randint(1, 24)) for _ in range(2))
    if not pinned:
        A = CIFSet(alg, {**A.table, alg.zero(): A.table[rng.choice(space_vectors(alg))]})
    rows = tuple(tuple(rng.randrange(3) for _ in range(alg.dim)) for _ in range(alg.dim))
    for result in (cif_sum(A, B), bracket_product(A, B), image(GradedMap(alg, alg, rows), A)):
        assert all(d.mem.r + d.non.r <= 1 for d in result.table.values())


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (
            lambda H, L3: make_cifset(H, [(F, EMPTY), (F, EMPTY)], EMPTY),
            "duplicate entry for vector (0, 1)",
        ),
        (lambda H, L3: component_extension(trivial_cifset(H), 2), "parity must be 0 (even) or 1 (odd)"),
        (
            lambda H, L3: image(GradedMap(H, H, ((1, 0), (0, 1))), trivial_cifset(L3)),
            "set does not live on the map's source",
        ),
        (
            lambda H, L3: preimage(GradedMap(H, H, ((1, 0), (0, 1))), trivial_cifset(L3)),
            "set does not live on the map's target",
        ),
    ],
)
def test_operations_refuse_sets_they_cannot_take(H, L3, build, message):
    with pytest.raises(ValueError) as info:
        build(H, L3)
    assert str(info.value) == message


@pytest.mark.parametrize("seed", range(4))
def test_from_columns_decodes_through_the_scales_it_is_given(L3, seed):
    """A result row reuses an input degree only when the degree's four
    Fractions are the scale entries themselves.  Scales with the same
    ranks but other values (halved), or equal values in other objects,
    decode to their own values and reuse nothing."""
    A, B = gen_pair(make_config(seed, L3), kind="subspace")
    scales, groups = cifset_module.rank_encode(A, B)
    columns = cifset_module.per_split(cifset_module._sum_component, L3, groups)
    inputs = {id(d) for S in (A, B) for d in S.table.values()}
    rows = dict(zip(space_vectors(L3), zip(*columns)))

    def decoded(values):
        return {x: cif_degree(*(v[k] for v, k in zip(values, row))) for x, row in rows.items()}

    reference = cifset_module.from_columns(L3, columns, (), scales)
    assert reference == cif_sum(A, B) and reference.table == decoded(scales)
    assert any(id(d) in inputs for d in reference.table.values())
    halved = [[q / 2 for q in scale] for scale in scales[:4]]
    copied = [[Fraction(q.numerator, q.denominator) for q in scale] for scale in scales[:4]]
    for values in (halved, copied):
        result = cifset_module.from_columns(L3, columns, (), [*values, scales[4]])
        assert result.table == decoded(values)
        assert not any(id(d) in inputs for d in result.table.values())
    assert cifset_module.from_columns(L3, columns, (), [*copied, scales[4]]) == reference
    assert cifset_module.from_columns(L3, columns, (), [*halved, scales[4]]) != reference


def test_a_passing_subspace_check_makes_no_bracket_evaluation(L5, monkeypatch):
    """The subspace check stops at the span clause of each cut; the ideal
    check still closes each cut under the bracket, with its verdict."""
    from ciflie.superalgebra import bracket_eval
    from helpers import rebind_everywhere

    ideal = gen_cif_ideal(make_config(0, L5))
    calls = []

    def counted(*args):
        calls.append(args)
        return bracket_eval(*args)

    rebind_everywhere(bracket_eval, counted, monkeypatch.setattr)
    assert is_cif_subspace(ideal)
    assert calls == []
    assert is_cif_ideal(ideal)
    assert calls
