"""The level-cut operations against their pairwise definitions.

``bracket_product``, ``cif_sum``, ``is_cif_subspace``, ``is_cif_ideal``
and ``pair_homogeneous`` are computed from level cuts; ``oracles`` holds
their quadratic readings.  Agreement means the same table, the same
notes and the same report, witness included.  ``image`` shares their
rank encoding and is checked against ``oracles.fiber_image``.
"""

import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import ciflie.bracket as bracket_module
import ciflie.cifset as cifset_module
from ciflie import (
    CIFSet,
    Degree,
    EMPTY,
    FULL,
    GradedMap,
    PrimeField,
    SpanBuilder,
    bracket_eval,
    bracket_product,
    bracket_product_oracle,
    check_theorem,
    cif_degree,
    cif_sum,
    deg_join,
    deg_leq,
    deg_meet,
    first_difference,
    image,
    is_cif_ideal,
    is_cif_subspace,
    is_homogeneous,
    is_trivial,
    make_cifset,
    pair_homogeneous,
    run_cli,
    serialize,
    space_vectors,
    superalgebra_from_pairs,
    trivial_cifset,
    validate_superalgebra,
)
from ciflie.cifset import COMPONENTS, rank_encode
from ciflie.generators import gen_pair, gen_random_table, make_config
from ciflie.specfile import Workspace, WorkspaceSet
from ciflie.superalgebra import _carrier_bits, _grow, _translate, vec_add
from helpers import chain_table, random_degree, source_mutant
from oracles import (
    fiber_image,
    fixpoint_bracket_product,
    is_chain,
    quadratic_bracket_product,
    quadratic_cif_sum,
    quadratic_is_cif_ideal,
    quadratic_is_cif_subspace,
    quadratic_pair_homogeneous,
)

GRID = 4
PAIR_KINDS = ("set", "subspace", "graded", "ideal")


@st.composite
def cif_degrees(draw):
    mr = draw(st.integers(0, GRID))
    nr = draw(st.integers(0, GRID - mr))
    mw = draw(st.integers(0, GRID))
    nw = draw(st.integers(0, GRID))
    return cif_degree(Fraction(mr, GRID), Fraction(mw, GRID), Fraction(nr, GRID), Fraction(nw, GRID))


@st.composite
def tables(draw, alg, pinned=True):
    """A table over a small random palette: often non-homogeneous, with
    repeated values so cuts have several members."""
    palette = draw(st.lists(cif_degrees(), min_size=1, max_size=4))
    vectors = [v for v in space_vectors(alg) if v != alg.zero() or not pinned]
    picks = draw(st.lists(st.integers(0, len(palette) - 1), min_size=len(vectors), max_size=len(vectors)))
    entries = [(v, palette[i]) for v, i in zip(vectors, picks)]
    if pinned:
        return make_cifset(alg, entries, EMPTY)
    return CIFSet(alg, dict(entries))


@st.composite
def generated(draw, alg):
    """One set of a seeded homogeneous pair of the given kind."""
    seed = draw(st.integers(0, 2**32))
    kind = draw(st.sampled_from(PAIR_KINDS))
    return gen_pair(make_config(seed, alg), kind=kind)[draw(st.integers(0, 1))]


def cif_sets(alg):
    return st.one_of(tables(alg), generated(alg))


def random_table(alg, rng):
    return gen_random_table(alg, rng, palette=6, grid=12)


def assert_same_set(got, want):
    assert first_difference(got, want) is None
    assert got.notes == want.notes


def assert_same_predicates(S):
    assert is_cif_subspace(S) == quadratic_is_cif_subspace(S)
    assert is_cif_ideal(S) == quadratic_is_cif_ideal(S)
    assert is_homogeneous(S) == quadratic_pair_homogeneous(S, S)


@pytest.fixture(scope="module", params=["H", "L3"])
def alg(request):
    return request.getfixturevalue(request.param)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bracket_matches_pairwise_ladder(alg, data):
    A, B = data.draw(cif_sets(alg)), data.draw(cif_sets(alg))
    assert_same_set(bracket_product(A, B), quadratic_bracket_product(A, B))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sum_matches_pairwise_sum(alg, data):
    A, B = data.draw(cif_sets(alg)), data.draw(cif_sets(alg))
    assert_same_set(cif_sum(A, B), quadratic_cif_sum(A, B))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_predicates_match_pairwise_definitions(alg, data):
    A, B = data.draw(cif_sets(alg)), data.draw(cif_sets(alg))
    assert pair_homogeneous(A, B) == quadratic_pair_homogeneous(A, B)
    for S in (A, cif_sum(A, B), bracket_product(A, B)):
        assert_same_predicates(S)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_unpinned_tables_match_pairwise_definitions(H, data):
    # the cut identities do not lean on the zero pin
    A, B = data.draw(tables(H, pinned=False)), data.draw(tables(H, pinned=False))
    assert_same_set(bracket_product(A, B), quadratic_bracket_product(A, B))
    assert_same_set(cif_sum(A, B), quadratic_cif_sum(A, B))
    assert pair_homogeneous(A, B) == quadratic_pair_homogeneous(A, B)
    assert_same_predicates(A)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_non_homogeneous_bracket_matches_fixpoint_oracle(H, data):
    A, B = data.draw(tables(H)), data.draw(tables(H))
    K = bracket_product(A, B)
    assert first_difference(K, bracket_product_oracle(A, B)) is None
    assert first_difference(K, fixpoint_bracket_product(A, B)) is None


def distinct_chain_table(alg, rng, broken):
    """Every nonzero vector gets its own degree on one chain; ``broken``
    swaps the membership phase of one vector so a single value leaves
    the chain."""
    vectors = [x for x in space_vectors(alg) if x != alg.zero()]
    n = len(vectors)
    levels = rng.sample(range(n), n)
    degrees = [cif_degree(Fraction(i, n), Fraction(i, n), Fraction(n - i, n), Fraction(n - i, n)) for i in levels]
    if broken:
        k = levels.index(0)
        degrees[k] = cif_degree(0, 1, 1, 1)
    return make_cifset(alg, list(zip(vectors, degrees)), EMPTY)


def test_notes_match_pairwise_chain_test_on_distinct_values(H, L3):
    """The note's chain test works on capped distinct values; with a
    fresh degree per vector it must still match the test over all
    pairs, with both verdicts seen."""
    notes = set()
    for alg in (H, L3):
        for seed in range(12):
            rng = random.Random(seed)
            A = distinct_chain_table(alg, rng, broken=seed % 3 == 1)
            B = distinct_chain_table(alg, rng, broken=seed % 3 == 2)
            for X, Y in ((A, B), (A, gen_random_table(alg, rng, palette=alg.size, grid=60))):
                got = bracket_product(X, Y)
                assert_same_set(got, quadratic_bracket_product(X, Y))
                notes.add(got.notes)
    assert len(notes) == 2


def test_achievable_values_are_the_pairwise_meets(H, L3, L5):
    """The lemma behind the note and the joint ladder: the helper's
    verdict is whether the meets (joins) of the distinct values form a
    chain, and then its capped values, decoded from their ranks, are
    exactly those meets."""
    rng = random.Random(3)
    pairs = []
    for alg in (H, L3):
        for _ in range(15):
            pairs.append((chain_table(alg, rng), chain_table(alg, rng)))
            pairs.append((chain_table(alg, rng), random_table(alg, rng)))
            pairs.append((random_table(alg, rng), random_table(alg, rng)))
    # a degree per nonzero vector: 242 values on one chain a side
    pairs.append(tuple(distinct_chain_table(L5, rng, broken=False) for _ in range(2)))
    verdicts, capped = set(), 0
    for A, B in pairs:
        for side, combine in (("mem", deg_meet), ("non", deg_join)):
            left, right = ({getattr(S.table[x], side) for x in space_vectors(S.space)} for S in (A, B))
            combined = {combine(u, v) for u in left for v in right}
            scales, groups = rank_encode(A, B)
            i = 0 if side == "mem" else 2
            chain, caps = bracket_module._achievable(*groups, i)
            r, w = scales[i : i + 2]
            values = {Degree(r[a], w[b]) for cap in caps for a, b in cap.values()}
            assert chain == is_chain(combined)
            if chain:
                assert values == combined
                capped += values != left | right
            verdicts.add(chain)
    assert verdicts == {True, False}
    assert capped > 0


def test_predicate_agreement_sees_both_outcomes(H, L3):
    """The seeded corpus passes and fails every predicate, and fails each
    through more than one clause, so agreement is not vacuous."""
    outcomes = {"subspace": set(), "ideal": set(), "homogeneous": set()}
    witnesses = set()
    for alg in (H, L3):
        for seed in range(12):
            rng = random.Random(seed)
            A, B = gen_pair(make_config(seed, alg), kind=PAIR_KINDS[seed % 4])
            N = random_table(alg, rng)
            for S in (A, N, cif_sum(A, N), bracket_product(A, B), bracket_product(N, A)):
                assert_same_predicates(S)
                for name, rep in (
                    ("subspace", is_cif_subspace(S)),
                    ("ideal", is_cif_ideal(S)),
                    ("homogeneous", is_homogeneous(S)),
                ):
                    outcomes[name].add(rep.ok)
                    if not rep.ok:
                        witnesses.add(rep.witness.split(":")[0])
            assert pair_homogeneous(A, N) == quadratic_pair_homogeneous(A, N)
    assert all(seen == {True, False} for seen in outcomes.values())
    assert {"scalar (membership)", "subspace clause", "bracket clause (membership)"} <= witnesses


def test_l5_bracket_matches_pairwise_ladder(L5):
    # |V| = 243 is beyond the fixpoint's cap, so the quadratic ladder is
    # the reference here; test_oracle checks L5 against the coset oracle
    assert validate_superalgebra(L5).ok
    rng = random.Random(5)
    pairs = [
        gen_pair(make_config(5, L5), kind="subspace"),
        (gen_random_table(L5, rng), gen_random_table(L5, rng)),
    ]
    for A, B in pairs:
        assert_same_set(bracket_product(A, B), quadratic_bracket_product(A, B))
    assert bracket_product(*pairs[1]).notes


def test_bracket_evaluations_bounded_by_four_dim_squared(L5, monkeypatch):
    calls = []

    def counted(alg, x, y):
        calls.append(1)
        return bracket_eval(alg, x, y)

    monkeypatch.setattr(bracket_module, "bracket_eval", counted)
    rng = random.Random(7)
    A, B = gen_random_table(L5, rng), gen_random_table(L5, rng)
    bracket_product(A, B)
    assert 0 < len(calls) <= 4 * L5.dim ** 2


def test_l4_cut_operations(L4, monkeypatch):
    """|V| = 625 is beyond the quadratic references, so the checks here
    are the evaluation bound and the structure the laws promise; the
    coset oracle's L4 check is in test_oracle."""
    assert validate_superalgebra(L4).ok
    calls = []

    def counted(alg, x, y):
        calls.append(1)
        return bracket_eval(alg, x, y)

    monkeypatch.setattr(bracket_module, "bracket_eval", counted)
    rng = random.Random(4)
    S1, S2 = gen_pair(make_config(0, L4), kind="subspace")
    N1, N2 = gen_random_table(L4, rng), gen_random_table(L4, rng)
    products = []
    for A, B in ((S1, S2), (N1, N2)):
        calls.clear()
        products.append(bracket_product(A, B))
        assert len(calls) <= 4 * L4.dim ** 2
    K, N = products
    assert not is_trivial(K)
    assert is_cif_subspace(K) and is_cif_subspace(cif_sum(S1, S2))
    assert N.notes
    assert check_theorem("lem-3", make_config(1, L4), 2).passed


COMPONENT = bracket_module._component
WITHOUT_OLD_A_NEW_B = source_mutant(
    COMPONENT, "brackets += [bracket_eval(alg, a, b) for a in basis_a for b in new_b]", "pass"
)


def _drop_top_threshold(alg, steps):
    return COMPONENT(alg, list(steps)[1:])


def _skip_old_a_new_b(alg, steps):
    """The bracket kernel without the [old basis_A, new basis_B] brackets."""
    return WITHOUT_OLD_A_NEW_B(alg, steps)


@pytest.mark.parametrize("mutant", [_drop_top_threshold, _skip_old_a_new_b])
def test_mutated_cut_kernel_is_caught(H, L3, monkeypatch, mutant):
    monkeypatch.setattr(bracket_module, "_component", mutant)
    caught = 0
    for alg in (H, L3):
        for seed in range(10):
            A, B = gen_pair(make_config(seed, alg), kind="subspace")
            for X, Y in ((A, B), (B, A)):
                got, want = bracket_product(X, Y), quadratic_bracket_product(X, Y)
                if first_difference(got, want) is not None:
                    caught += 1
    assert caught > 0


def test_mutated_cut_clauses_are_caught(H, L3, monkeypatch):
    """A cut is a subspace when it equals its span; a ``_cut_clauses``
    whose test ``cut & ~span`` is never true passes every cut, and the
    pairwise predicates tell it apart on random tables."""
    mutant = source_mutant(cifset_module._cut_clauses, "cut != span", "cut & ~span")
    monkeypatch.setattr(cifset_module, "_cut_clauses", mutant)
    caught = 0
    for alg in (H, L3):
        for seed in range(6):
            S = random_table(alg, random.Random(seed))
            caught += is_cif_subspace(S) != quadratic_is_cif_subspace(S)
            caught += is_cif_ideal(S) != quadratic_is_cif_ideal(S)
    assert caught > 0


N = 10**17
# amplitudes that floats cannot tell apart: N/(N+1) < (N+1)/(N+2)
INNER = cif_degree(Fraction(N + 1, N + 2), Fraction(1, 2), 0, Fraction(1, 3))
OUTER = cif_degree(Fraction(N, N + 1), Fraction(1, 2), Fraction(1, N + 1), Fraction(1, 3))
# INNER again, every Fraction in it a distinct object
INNER_COPY = cif_degree(Fraction(2 * N + 2, 2 * N + 4), Fraction(2, 4), Fraction(0, 5), Fraction(3, 9))
# input values equal to the off values: mem r 0 and non r 1, mem w 0 and non w 1
OFF_AMPLITUDE = cif_degree(0, Fraction(1, 3), 1, Fraction(1, 5))
OFF_PHASE = cif_degree(Fraction(1, 4), 0, Fraction(1, 2), 1)
# two degrees with the same amplitudes and different phases
SHARED = cif_degree(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5))
SHARED_AMPLITUDES = cif_degree(Fraction(1, 2), Fraction(2, 3), Fraction(1, 4), Fraction(4, 5))
ADVERSARIAL = (INNER, OUTER, INNER_COPY, OFF_AMPLITUDE, OFF_PHASE, SHARED, SHARED_AMPLITUDES)


def adversarial_sets(alg, rng):
    """The trivial set, two CIF subspaces {0} < span(b0) < V built from
    the values above, and two tables drawing from all of them."""
    nonzero = [x for x in space_vectors(alg) if x != alg.zero()]
    line = [x for x in nonzero if not any(x[1:])]

    def chain(inner, outer):
        return make_cifset(alg, [(x, inner[i % len(inner)]) for i, x in enumerate(line)], outer)

    return [
        trivial_cifset(alg),
        chain((INNER, INNER_COPY), OUTER),
        chain((SHARED,), OFF_AMPLITUDE),
        *(make_cifset(alg, [(x, rng.choice(ADVERSARIAL)) for x in nonzero], EMPTY) for _ in range(2)),
    ]


def test_adversarial_values_match_pairwise_definitions(H, L3):
    """Values that floats cannot tell apart, equal values held by
    distinct objects, input values equal to the off values, a trivial
    set and degrees that share some components: the rank-encoded
    operations agree with their pairwise readings."""
    assert INNER == INNER_COPY and INNER is not INNER_COPY
    subspace = set()
    for alg in (H, L3):
        rng = random.Random(alg.dim)
        sets = adversarial_sets(alg, rng)
        rows = [tuple(tuple(int(i == j) for j in range(alg.dim)) for i in range(alg.dim))]
        rows += [tuple(tuple(rng.randrange(3) for _ in range(alg.dim)) for _ in range(alg.dim)) for _ in range(3)]
        rows += [((0,) * alg.dim,) * alg.dim]
        for A in sets:
            assert_same_predicates(A)
            subspace.add(is_cif_subspace(A).ok)
            for m in (GradedMap(alg, alg, r) for r in rows):
                assert_same_set(image(m, A), fiber_image(m, A))
            for B in sets:
                assert pair_homogeneous(A, B) == quadratic_pair_homogeneous(A, B)
                assert_same_set(cif_sum(A, B), quadratic_cif_sum(A, B))
                assert_same_set(bracket_product(A, B), quadratic_bracket_product(A, B))
    assert subspace == {True, False}


BRACKET_NOTE = "bracket of a non-homogeneous pair: amplitude and phase ladders computed independently"
SUM_NOTE = "sum of a non-homogeneous pair: componentwise reading applied"


def test_notes_fire_on_their_pairwise_rules(H, L3):
    """The notes are part of the JSON output, so their text and their
    rule are pinned: the bracket's note fires exactly when the pairwise
    meets or joins of the two sets' values are not a chain, the sum's
    exactly when the pair is not homogeneous.  Generated pairs, chain
    tables and random tables."""
    verdicts = set()
    for alg in (H, L3):
        rng = random.Random(8)
        for seed in range(12):
            for A, B in (
                gen_pair(make_config(seed, alg), kind=PAIR_KINDS[seed % 4]),
                (chain_table(alg, rng), chain_table(alg, rng)),
                (chain_table(alg, rng), random_table(alg, rng)),
                (random_table(alg, rng), random_table(alg, rng)),
            ):
                left, right = ({S.table[x] for x in space_vectors(alg)} for S in (A, B))
                chains = all(
                    is_chain({combine(getattr(u, side), getattr(v, side)) for u in left for v in right})
                    for side, combine in (("mem", deg_meet), ("non", deg_join))
                )
                homogeneous = quadratic_pair_homogeneous(A, B).ok
                assert bracket_product(A, B).notes == (() if chains else (BRACKET_NOTE,))
                assert cif_sum(A, B).notes == (() if homogeneous else (SUM_NOTE,))
                verdicts.add((chains, homogeneous))
    assert {chains for chains, _ in verdicts} == {True, False}
    assert {homogeneous for _, homogeneous in verdicts} == {True, False}


def test_bracket_and_sum_do_little_fraction_work(L5, monkeypatch):
    """The kernels sort, cap and key ranks: on an L5 pair of random
    tables (24-degree palette) a bracket product or a sum hashes or
    orders fewer Fractions than the carrier has vectors."""
    rng = random.Random(11)
    A, B = gen_random_table(L5, rng), gen_random_table(L5, rng)
    calls = []
    hash_, richcmp = Fraction.__hash__, Fraction._richcmp
    monkeypatch.setattr(Fraction, "__hash__", lambda q: calls.append(q) or hash_(q))
    monkeypatch.setattr(Fraction, "_richcmp", lambda q, o, op: calls.append(q) or richcmp(q, o, op))
    assert hash(Fraction(1, 3)) == hash_(Fraction(1, 3)) and Fraction(1, 3) < 1
    assert len(calls) == 2
    for operation in (bracket_product, cif_sum):
        calls.clear()
        operation(A, B)
        assert len(calls) < L5.size


def _long_denominator_set(alg, rng, digits=1000):
    """A set whose nonzero vectors each take a degree with a distinct
    random odd ``digits``-digit denominator in its membership amplitude,
    and half the rest of the budget as non-membership amplitude."""
    denominators = set()
    while len(denominators) < alg.size - 1:
        denominators.add(rng.randrange(10 ** (digits - 1), 10**digits) | 1)
    entries = []
    for x, d in zip([x for x in space_vectors(alg) if x != alg.zero()], sorted(denominators)):
        n = rng.randrange(1, d)
        while gcd(n, d) != 1:
            n = rng.randrange(1, d)
        r = Fraction(n, d)
        entries.append((x, cif_degree(r, Fraction(rng.randint(0, 12), 12), (1 - r) / 2, Fraction(1, 3))))
    return make_cifset(alg, entries, EMPTY)


def test_rank_encode_stays_light_on_long_distinct_denominators(L5, tmp_path, capsys):
    """242 distinct 1000-digit denominators: their common denominator
    would have about 242,000 digits, but the encoder orders the values
    themselves.  It stays light, its scales are the plainly sorted
    values, and ``ciflie check subspace`` on the spec file reports what
    the pairwise scan does."""
    A = _long_denominator_set(L5, random.Random(12))
    tracemalloc.start()
    try:
        scales, (groups,) = rank_encode(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    degrees = set(A.table.values())
    for c, (side, attr, descending, off) in enumerate(COMPONENTS):
        values = {getattr(getattr(d, side), attr) for d in degrees}
        assert scales[c] == sorted(values | {off}, reverse=not descending)
        assert all(
            scales[c][key[c]] == getattr(getattr(A.table[x], side), attr) for key, xs in groups.items() for x in xs
        )
    assert len(scales[0]) == L5.size + 1  # 242 amplitudes, the off value 0 and the pin's 1
    path = tmp_path / "long.spec"
    path.write_text(serialize(Workspace(L5.field, {"L": L5}, {"A": WorkspaceSet("L", EMPTY, A)}, {})))
    assert run_cli(["check", "subspace", str(path), "--name", "A"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "subspace A: FAIL\n"
    assert captured.err == quadratic_is_cif_subspace(A).witness + "\n"


def count_kernel_runs(monkeypatch) -> list[str]:
    """Record the name of each level-cut kernel run by the bracket
    product (``_component``), the sum (``_sum_component``) and the
    subspace and ideal predicates (``_cut_clauses``)."""
    runs = []
    for module, name in (
        (bracket_module, "_component"),
        (cifset_module, "_sum_component"),
        (cifset_module, "_cut_clauses"),
    ):
        kernel = getattr(module, name)

        def counted(alg, steps, kernel=kernel, name=name, **options):
            runs.append(name)
            return kernel(alg, steps, **options)

        monkeypatch.setattr(module, name, counted)
    return runs


def test_rank_zero_last_level_is_not_shared(H, monkeypatch):
    """Off the pin, A takes mem r 0, the off value, and mem w 1/2: both
    components cut H into the same two levels, but only mem r's last
    level is rank 0.  In a bracket, rank 0 reads as that level on mem r
    and as off every cut on mem w, so the two must not share a column."""
    A = make_cifset(H, [], cif_degree(0, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    runs = count_kernel_runs(monkeypatch)
    K = bracket_product(A, A)
    assert runs == ["_component"] * 2  # mem r; mem w, non r and non w alike
    assert_same_set(K, quadratic_bracket_product(A, A))
    assert K.mem((1, 0)) == Degree(0, Fraction(1, 2))  # e = [f, f] is on the last cut
    assert K.mem((0, 1)) == Degree(0, 0)  # f is off [H, H]
    runs.clear()
    assert_same_set(cif_sum(A, A), quadratic_cif_sum(A, A))
    assert runs == ["_sum_component"] * 2


def same_phase_table(alg, rng):
    """A random table whose degrees have w = r on both sides."""
    palette = []
    for _ in range(6):
        mr = rng.randint(0, 12)
        nr = rng.randint(0, 12 - mr)
        palette.append(cif_degree(*(Fraction(v, 12) for v in (mr, mr, nr, nr))))
    return make_cifset(alg, [(x, rng.choice(palette)) for x in space_vectors(alg) if any(x)], EMPTY)


def test_kernel_runs_once_per_distinct_level_split(H, monkeypatch):
    """A generated subspace pair splits its four components alike, two
    random tables split each apart, and degrees with w = r pair mem r
    with mem w and non r with non w.  The predicates, given the first
    set, split it the same way."""
    rng = random.Random(16)
    cases = [
        (gen_pair(make_config(16, H), kind="subspace"), 1),
        ((random_table(H, rng), random_table(H, rng)), 4),
        ((same_phase_table(H, rng), same_phase_table(H, rng)), 2),
    ]
    runs = count_kernel_runs(monkeypatch)
    for (A, B), want in cases:
        for operation, args in (
            (bracket_product, (A, B)),
            (cif_sum, (A, B)),
            (is_cif_subspace, (A,)),
            (is_cif_ideal, (A,)),
        ):
            runs.clear()
            operation(*args)
            assert len(runs) == want, (operation.__name__, want)


def with_phase(S, c, phase):
    """S with phase component c (1: mem w, 3: non w) mapped through
    ``phase``, a function of the vector and its old value."""
    side = COMPONENTS[c][0]
    table = {}
    for x, d in S.table.items():
        part = getattr(d, side)
        table[x] = replace(d, **{side: replace(part, w=phase(x, part.w))})
    return CIFSet(S.space, table)


def coarsened(S, c, rng):
    """S with phase component c coarsened: one of its values, drawn at
    random, takes the next better value, so two levels merge.  The
    relabelling is monotone and keeps the pin's value, the best, so
    every cut of the result is a cut of S and S's clauses still hold."""
    side, _, descending, _ = COMPONENTS[c]
    values = sorted({getattr(d, side).w for d in S.table.values()}, reverse=not descending)
    if len(values) < 2:
        return S
    i = rng.randrange(len(values) - 1)
    return with_phase(S, c, lambda x, w: values[i + 1] if w == values[i] else w)


def raised(S, c, rng):
    """S with one nonzero vector's phase in component c raised to the
    pin's, the best value: the top cut of c gains that vector alone, so
    it is no longer a subspace (3^k + 1 is no power of 3), and no other
    component changes."""
    zero = S.space.zero()
    side = COMPONENTS[c][0]
    best = getattr(S.table[zero], side).w
    lower = [x for x, d in S.table.items() if getattr(d, side).w != best]
    if not lower:
        return None
    y = rng.choice(sorted(lower))
    return with_phase(S, c, lambda x, w: best if x == y else w)


def test_predicates_on_coarsened_phases_match_pairwise_definitions(H, L3, L5, monkeypatch):
    """Generated subspaces, graded subspaces and ideals on H, L3 and L5
    with one phase component coarsened stay what they were, but that
    component now splits apart from the others.  Raising one vector's
    phase there breaks that split alone.  The predicates give the
    pairwise reports, witness included; the draws run two splits and
    fail every clause of the ideal check."""
    runs = count_kernel_runs(monkeypatch)
    cases = [(alg, seed, kind) for alg in (H, L3) for seed in range(6) for kind in ("subspace", "graded", "ideal")]
    cases.append((L5, 0, "ideal"))
    splits, clauses = set(), set()
    for alg, seed, kind in cases:
        rng = random.Random(seed)
        for S in gen_pair(make_config(seed, alg), kind=kind):
            c = rng.choice((1, 3))
            C = coarsened(S, c, rng)
            R = raised(C, c, rng)
            assert is_cif_subspace(C) and (kind != "ideal" or is_cif_ideal(C))
            for T in (C, R) if R is not None else (C,):
                runs.clear()
                assert is_cif_subspace(T) == quadratic_is_cif_subspace(T)
                splits.add(len(runs))
                runs.clear()
                ideal = is_cif_ideal(T)
                assert ideal == quadratic_is_cif_ideal(T)
                splits.add(len(runs))
                if not ideal:
                    clauses.add(ideal.witness.split()[0])
            if R is not None:
                verdicts = cifset_module.per_split(cifset_module._cut_clauses, alg, rank_encode(R)[1])
                assert [i for i, v in enumerate(verdicts) if v == "subspace"] == [c]
    assert 2 in splits
    assert clauses == {"subspace", "grading", "bracket"}


def coinciding_pair(alg, rng):
    """Two tables over four-degree palettes whose components partly share
    their level splits, one rule for the pair: mem w is drawn, mem r
    halved (mem r's split) or (1 + mem r) / 2 (mem r's levels, but mem r
    0 is the off value and its image is not); non r is drawn or 1 - mem r
    (mem r's split, mirrored); non w is drawn, (1 + non r) / 2 or non r
    halved."""
    g = 12
    mem_w = rng.choice((None, lambda r: r / 2, lambda r: (1 + r) / 2))
    non_r = rng.choice((None, lambda r: 1 - r))
    non_w = rng.choice((None, lambda n: (1 + n) / 2, lambda n: n / 2))

    def drawn(top=g):
        return Fraction(rng.randint(0, top), g)

    def table():
        palette = []
        for _ in range(4):
            mr = drawn()
            nr = non_r(mr) if non_r else drawn(g - int(mr * g))
            mw = mem_w(mr) if mem_w else drawn()
            nw = non_w(nr) if non_w else drawn()
            palette.append(cif_degree(mr, mw, nr, nw))
        return make_cifset(alg, [(x, rng.choice(palette)) for x in space_vectors(alg) if any(x)], EMPTY)

    return table(), table()


def test_partly_coinciding_components_match_references(H, L3, monkeypatch):
    """On 50 H pairs and 20 L3 pairs whose components partly share their
    splits, the shared columns give the pairwise bracket and sum and the
    coset oracle's bracket; some operations share and some do not."""
    runs = count_kernel_runs(monkeypatch)
    seen = set()
    for alg, n in ((H, 50), (L3, 20)):
        rng = random.Random(alg.dim)
        for _ in range(n):
            A, B = coinciding_pair(alg, rng)
            runs.clear()
            K = bracket_product(A, B)
            seen.add(len(runs))
            assert_same_set(K, quadratic_bracket_product(A, B))
            assert first_difference(K, bracket_product_oracle(A, B)) is None
            runs.clear()
            assert_same_set(cif_sum(A, B), quadratic_cif_sum(A, B))
            seen.add(len(runs))
    assert {1, 2, 3, 4} <= seen


def abelian(p, dim):
    return superalgebra_from_pairs(PrimeField(p), (0,) * (dim - 1) + (1,), {})


@pytest.mark.parametrize("p, dim", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 3), (5, 2)])
def test_translate_is_vector_addition(p, dim):
    """Every translate of every single vector, and of a random set, is
    the vector sum.  p = 2 takes the wrap at c = p - 1 on every
    coordinate, p = 5 shifts by several strides."""
    index, coords = _carrier_bits(p, dim)
    vectors = space_vectors(abelian(p, dim))
    assert list(index.items()) == [(x, n) for n, x in enumerate(vectors)]
    rng = random.Random(p * 10 + dim)
    for a in vectors:
        for x in vectors:
            assert _translate(1 << index[x], a, coords) == 1 << index[vec_add(p, x, a)]
        some = rng.sample(vectors, len(vectors) // 2)
        bits = sum(1 << index[x] for x in some)
        assert _translate(bits, a, coords) == sum(1 << index[vec_add(p, x, a)] for x in some)


@pytest.mark.parametrize("p, dim", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 3), (5, 2)])
def test_grow_is_span_closure(p, dim):
    """From the zero subspace, and again from the span of a first batch,
    ``_grow`` gives the bitset of the span of random generators (zero and
    repeats among them), and gains exactly the generators that raise a
    ``SpanBuilder``'s rank, in order."""
    alg = abelian(p, dim)
    index = _carrier_bits(p, dim)[0]
    vectors = space_vectors(alg)
    rng = random.Random(p * 10 + dim)
    for _ in range(30):
        gens = [rng.choice(vectors) for _ in range(rng.randint(0, 2 * dim + 1))]
        builder = SpanBuilder(alg.field, dim)
        span, gained = 1, []
        for batch in (gens[: len(gens) // 2], gens[len(gens) // 2 :]):
            span, new = _grow(alg, span, batch)
            gained += new
        assert gained == [x for x in gens if builder.add(x)]
        assert span == sum(1 << index[x] for x in vectors if builder.contains(x))


@pytest.mark.parametrize("p, dim", [(2, 3), (5, 2)])
def test_bitset_sum_matches_pairwise_sum_on_abelian_carriers(p, dim):
    alg = abelian(p, dim)
    rng = random.Random(p * 10 + dim)
    for _ in range(40):
        A, B = random_table(alg, rng), random_table(alg, rng)
        assert_same_set(cif_sum(A, B), quadratic_cif_sum(A, B))


def test_sum_at_the_pigeonhole_bound():
    """On F_2^3 the plane U = {x : x_0 = 0} has 4 vectors.  U and U have
    cuts summing to exactly |V| = 8 at the plane's level, and their
    sumset is U; U and U plus one vector sum to 9 > |V|, and their
    sumset is the carrier."""
    alg = abelian(2, 3)
    level = cif_degree(Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    plane = [x for x in space_vectors(alg) if x[0] == 0]
    U = make_cifset(alg, [(x, level) for x in plane if any(x)], EMPTY)
    W = make_cifset(alg, [(x, level) for x in plane + [(1, 0, 0)] if any(x)], EMPTY)
    for A, B in ((U, U), (U, W), (W, U)):
        assert_same_set(cif_sum(A, B), quadratic_cif_sum(A, B))
    assert cif_sum(U, U) == U
    assert {cif_sum(U, W).table[x] for x in space_vectors(alg) if any(x)} == {level}


@pytest.mark.parametrize("name", ["H", "L3"])
def test_a_cut_one_vector_short_of_the_carrier_is_no_subspace(request, name):
    """Every nonzero vector but one is in the top cut: that cut holds
    |V| - 1 vectors, never a subspace, though its span and the cut below
    it are the whole carrier."""
    alg = request.getfixturevalue(name)
    nonzero = [x for x in space_vectors(alg) if x != alg.zero()]
    for left_out in (nonzero[0], nonzero[-1]):
        A = make_cifset(alg, [(x, cif_degree("1/2", "1/2", "1/4", "1/4")) for x in nonzero if x != left_out], EMPTY)
        for check, reference in ((is_cif_subspace, quadratic_is_cif_subspace), (is_cif_ideal, quadratic_is_cif_ideal)):
            report = check(A)
            assert not report and report == reference(A)


def lines(alg, *vectors):
    """The nonzero multiples of each vector."""
    p = alg.field.p
    return [tuple(k * c % p for c in v) for v in vectors for k in range(1, p)]


def sparse_table(alg, rng):
    """One to four raised nonzero vectors over the EMPTY floor: a few
    random vectors at their own degrees, or the line through one vector
    at one degree, so the bracket clause is reached too."""
    nonzero = [x for x in space_vectors(alg) if x != alg.zero()]
    if rng.random() < 0.5:
        d = random_degree(rng)
        return make_cifset(alg, [(x, d) for x in lines(alg, rng.choice(nonzero))], EMPTY)
    return make_cifset(alg, [(x, random_degree(rng)) for x in rng.sample(nonzero, rng.randint(1, 4))], EMPTY)


@pytest.mark.parametrize(("name", "count"), [("H", 40), ("L3", 30), ("gl11_F3", 6)])
def test_sparse_sets_match_pairwise_definitions(request, name, count):
    """The witness rescans read only the raised rows; on sets with few
    of them they name the pairwise definitions' witnesses, and both
    verdicts of each predicate are seen."""
    alg = request.getfixturevalue(name)
    rng = random.Random(name)
    outcomes = set()
    for _ in range(count):
        S = sparse_table(alg, rng)
        subspace, ideal = is_cif_subspace(S), is_cif_ideal(S)
        assert subspace == quadratic_is_cif_subspace(S)
        assert ideal == quadratic_is_cif_ideal(S)
        outcomes.add((subspace.ok, ideal.ok))
    assert {(False, False), (True, False)} <= outcomes


def test_failing_witness_scans_read_only_the_raised_rows(monkeypatch):
    """On F_5^5 (the L5 table over F_5, |V| = 3125), two raised lines
    fail the subspace check and the odd line span((0,1,2,0,0)) the ideal
    check, with the pairwise definitions' first witnesses.  The rescans
    compare degrees on pairs of raised vectors only (the lines and the
    zero pin), and bracket each raised vector with every vector, both
    sides: not the |V|^2 pairs of a full rescan."""
    e = (1, 0, 0, 0, 0)
    alg = superalgebra_from_pairs(
        PrimeField(5), (0, 1, 1, 0, 1), {(1, 1): e, (1, 2): e, (2, 2): (2, 0, 0, 0, 0), (4, 4): e}
    )
    leqs, brackets = [], []

    def counted_leq(a, b):
        leqs.append(1)
        return deg_leq(a, b)

    def counted_bracket(alg, x, y):
        brackets.append(1)
        return bracket_eval(alg, x, y)

    monkeypatch.setattr(cifset_module, "deg_leq", counted_leq)
    monkeypatch.setattr(cifset_module, "bracket_eval", counted_bracket)
    two_lines = make_cifset(
        alg, [(x, cif_degree("1/2", "1/2", "1/4", "1/4")) for x in lines(alg, (1, 0, 0, 0, 3), (1, 2, 0, 4, 1))], EMPTY
    )
    assert is_cif_subspace(two_lines).witness == "additivity (membership): x=(1, 0, 0, 0, 3), y=(1, 2, 0, 4, 1)"
    raised, p = 9, alg.field.p
    assert 0 < len(leqs) <= 2 * (raised * p + raised**2) and not brackets
    leqs.clear()
    odd_line = make_cifset(alg, [(x, FULL) for x in lines(alg, (0, 1, 2, 0, 0))], EMPTY)
    assert is_cif_ideal(odd_line).witness == "bracket clause (membership): x=(0, 1, 0, 0, 0), y=(0, 1, 2, 0, 0)"
    raised = 5
    assert 0 < len(brackets) <= 2 * raised * alg.size
    assert len(leqs) <= 2 * len(brackets)


def test_predicates_match_pairwise_definitions_on_mixed_brackets(gl11_F3, osp12_F3):
    """gl(1|1) and osp(1|2) bracket even with odd.  There, generated sets
    and random tables get the pairwise definitions' verdicts and
    witnesses, and each verdict pair is seen.  A pairwise check that
    passes the subspace clause costs |V|^2 pairs, about 0.5 s on
    osp(1|2), so osp(1|2) gets only random tables, which fail it."""
    outcomes = set()
    for seed in (1, 3):  # a CIF subspace that is no ideal, and an ideal
        S = gen_pair(make_config(seed, gl11_F3), kind=PAIR_KINDS[seed])[0]
        for T in (S, random_table(gl11_F3, random.Random(seed)), random_table(osp12_F3, random.Random(seed))):
            assert_same_predicates(T)
            outcomes.add((is_cif_subspace(T).ok, is_cif_ideal(T).ok))
    assert outcomes == {(False, False), (True, False), (True, True)}
