"""The coset-closure bracket oracle against the other two readings.

``bracket_product_oracle`` seeds each crisp bracket with its best
single-term value and grows the additive closure one coset at a time;
``bracket_product`` spans level cuts; ``oracles.fixpoint_bracket_product``
closes the single-term values under binary sums until nothing changes.
The three share no code, so their agreement checks each of them.
"""

import inspect
import random
import tracemalloc
from fractions import Fraction

import pytest

import ciflie.bracket as bracket_module
from ciflie import (
    EMPTY,
    bracket_eval,
    bracket_product,
    bracket_product_oracle,
    check_theorem,
    cif_degree,
    first_difference,
    gen_pair,
    gen_random_table,
    is_trivial,
    make_cifset,
    make_config,
    space_vectors,
    span_closure,
    superalgebra_from_pairs,
    validate_superalgebra,
)
from ciflie.cifset import _label, from_columns, rank_encode, rank_steps
from helpers import rebind_everywhere, source_mutant
from oracles import fixpoint_bracket_product, quadratic_bracket_product

PAIR_KINDS = ("set", "subspace", "graded", "ideal")
SPAN_NAMES = {
    "SpanBuilder", "SubspaceBasis", "span_closure", "_component", "_grow", "_label", "rank_encode",
    "rank_steps", "from_columns", "per_split", "_carrier_bits", "_translate", "_achievable",
    "_clashing_keys", "_ideal",
}


def seeded_pairs(alg, count):
    """Seeded pairs of every generated kind; every third one is a pair of
    random-degree tables, usually non-homogeneous."""
    pairs = []
    for i in range(count):
        if i % 3 == 2:
            rng = random.Random(i)
            pairs.append((gen_random_table(alg, rng), gen_random_table(alg, rng)))
        else:
            pairs.append(gen_pair(make_config(i, alg), kind=PAIR_KINDS[i % 4]))
    return pairs


def _differs(reference, oracle, A, B) -> bool:
    """Whether the oracle under test gives another table than the
    reference, or raises."""
    want = reference(A, B)
    try:
        got = oracle(A, B)
    except Exception:
        return True
    return first_difference(want, got) is not None


def ladder_mismatches(oracle, pairs):
    return sum(_differs(bracket_product, oracle, A, B) for A, B in pairs)


def fixpoint_mismatches(oracle, pairs):
    return sum(_differs(fixpoint_bracket_product, oracle, A, B) for A, B in pairs)


@pytest.fixture(scope="module")
def cross_check_pairs(H, L3):
    return seeded_pairs(H, 60) + seeded_pairs(L3, 15)


@pytest.fixture(scope="module")
def fixpoint_pairs(H, L3):
    # the fixpoint costs about 10 ms a pair on H and 90 ms on L3
    return seeded_pairs(H, 12) + seeded_pairs(L3, 4)


def test_oracle_matches_ladder_on_seeded_pairs(cross_check_pairs):
    assert ladder_mismatches(bracket_product_oracle, cross_check_pairs) == 0


def test_fixpoint_agrees_with_oracle_and_ladder(fixpoint_pairs):
    assert fixpoint_mismatches(bracket_product_oracle, fixpoint_pairs) == 0
    assert fixpoint_mismatches(bracket_product, fixpoint_pairs) == 0


MUTANTS = {
    # each bracket keeps its own seed: no coset is ever added
    "seeds-only": (
        "coset = [vec_add(p, x, vec_scale(p, k, g)) for k in range(1, p) for x in closed]",
        "coset = [g]",
    ),
    # a pair counts with the better of its two values, not the worse
    "max-seeds": ("t = t if t < top else top", "t = t if t > top else top"),
    # a row shared by several a's seeds at the worst of their values, not the best
    "worst-row-rank": ("tuple(map(max, ra, by_row.get(key, ra)))", "tuple(map(min, ra, by_row.get(key, ra)))"),
    # a's row is looked up without its last column code, so rows that
    # differ there merge and each is built one column short
    "row-map-short": ("for column in table])", "for column in table[:-1]])"),
    # splits compared by their number of levels only: a component may
    # reuse the column of another split with as many levels
    "wrong-split": (
        "first.setdefault(tuple([k[c] for k in keys]), c)",
        "first.setdefault(len({k[c] for k in keys}), c)",
    ),
    # the basis table drops the first coordinate of every [e_i, e_j]
    "dropped-coefficient": (
        "enumerate(bracket_eval(alg, e, f))", "enumerate(bracket_eval(alg, e, f)) if k"
    ),
    # each split's column decoded through another component's levels
    "reversed-columns": ("for c in reps)))", "for c in reps[::-1])))"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_broken_oracles_are_caught(cross_check_pairs, fixpoint_pairs, name):
    broken = source_mutant(bracket_module.bracket_product_oracle, *MUTANTS[name])
    assert ladder_mismatches(broken, cross_check_pairs) > 0
    assert fixpoint_mismatches(broken, fixpoint_pairs) > 0


def _names(code) -> set[str]:
    """Global and attribute names a code object uses, nested code included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _names(const)
    return names


def test_oracle_uses_no_span_machinery():
    code = bracket_product_oracle.__code__
    assert not SPAN_NAMES & set(code.co_names)
    assert not SPAN_NAMES & _names(code)
    assert {"bracket_eval", "vec_add"} <= _names(code)


def test_oracle_matches_ladder_on_l5(L5):
    assert validate_superalgebra(L5).ok
    rng = random.Random(5)
    pairs = [gen_pair(make_config(seed, L5), kind="subspace") for seed in range(6)]
    pairs += [(gen_random_table(L5, rng), gen_random_table(L5, rng)) for _ in range(2)]
    # a degree for nearly every vector: about 230 classes a side
    pairs.append(tuple(gen_random_table(L5, rng, palette=L5.size) for _ in range(2)))
    products = []
    for A, B in pairs:
        K = bracket_product_oracle(A, B)
        ladder = bracket_product(A, B)
        assert first_difference(ladder, K) is None
        # subspace pairs are homogeneous, random tables are not
        assert bool(ladder.notes) == (len(products) >= 6)
        products.append(K)
    # subspace seeds 0 and 2 give trivial brackets, so check some are not
    assert not all(is_trivial(K) for K in products[:6])
    assert not any(is_trivial(K) for K in products[6:])


def test_oracle_matches_ladder_on_l4(L4):
    rng = random.Random(4)
    pairs = [
        gen_pair(make_config(0, L4), kind="subspace"),
        (gen_random_table(L4, rng), gen_random_table(L4, rng)),
    ]
    for A, B in pairs:
        K = bracket_product_oracle(A, B)
        assert not is_trivial(K)
        assert first_difference(bracket_product(A, B), K) is None


def test_oracle_matches_ladder_on_729_vectors(F3):
    """F_3^6, the largest carrier over F_3: L5's brackets with one more
    even coordinate, which brackets with b3 to e."""
    e = (1, 0, 0, 0, 0, 0)
    alg = superalgebra_from_pairs(
        F3, (0, 1, 1, 0, 1, 0), {(1, 1): e, (1, 2): e, (2, 2): (2, 0, 0, 0, 0, 0), (3, 5): e}
    )
    assert validate_superalgebra(alg).ok
    rng = random.Random(6)
    pairs = [
        gen_pair(make_config(1, alg), kind="subspace"),
        (gen_random_table(alg, rng), gen_random_table(alg, rng)),
    ]
    for A, B in pairs:
        K = bracket_product_oracle(A, B)
        assert not is_trivial(K)
        assert first_difference(bracket_product(A, B), K) is None


@pytest.mark.parametrize("name", ["gl11_F3", "osp12_F3", "gl11_F5"])
def test_oracle_matches_ladder_on_mixed_brackets(request, name):
    """gl(1|1) and osp(1|2) bracket even with odd, and osp(1|2) is
    perfect: ladder and oracle agree on a generated subspace pair and a
    random pair."""
    alg = request.getfixturevalue(name)
    for A, B in seeded_pairs(alg, 3)[1:]:
        K = bracket_product_oracle(A, B)
        assert first_difference(bracket_product(A, B), K) is None
    assert not is_trivial(K)


def test_oracle_memory_stays_linear_in_the_carrier(osp12_F3):
    """osp(1|2) is perfect, so its rows hold many distinct brackets: a
    memo of reduced codes kept across rows grows toward |V|^2 entries
    (3.6 MB traced), one kept per row stays O(|V|)."""
    for A, B in seeded_pairs(osp12_F3, 3)[1:]:
        bracket_product_oracle(A, B)  # fill the carrier caches first
        tracemalloc.start()
        try:
            bracket_product_oracle(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_oracle_does_not_read_through_the_ladder_decoder(H, monkeypatch):
    """A decoder that reads the mem-r column as mem-w breaks the ladder
    only, so the oracle law sees the two disagree."""

    def misread(alg, columns, notes, scales):
        columns = [columns[0], columns[0], *columns[2:]]
        return from_columns(alg, columns, notes, [scales[0], scales[0], *scales[2:]])

    assert check_theorem("oracle", make_config(7, H), 20).passed
    rebind_everywhere(from_columns, misread, monkeypatch.setattr)
    assert not check_theorem("oracle", make_config(7, H), 20).passed


def _derived_rank(alg) -> int:
    basis = [alg.basis(i) for i in range(alg.dim)]
    return span_closure(alg, [bracket_eval(alg, x, y) for x in basis for y in basis]).rank


def _reaches_full_carrier(A, B, monkeypatch) -> bool:
    """Whether some component's output span becomes the whole carrier,
    the exit at which the ladder has valued every vector: the bits
    ``_label`` sets during one ``_component`` run are its span."""
    alg = A.space
    _, groups = rank_encode(A, B)
    labelled = []

    def recording(column, fresh, t):
        labelled[-1] |= fresh
        _label(column, fresh, t)

    monkeypatch.setattr(bracket_module, "_label", recording)
    for c in range(4):
        labelled.append(0)
        bracket_module._component(alg, rank_steps(c, *groups))
    return (1 << len(space_vectors(alg))) - 1 in labelled


@pytest.mark.parametrize(("name", "derived", "quadratic_every"), [("sl2", 3, 1), ("C2", 2, 4)])
def test_keystone_on_larger_derived_algebras(request, monkeypatch, name, derived, quadratic_every):
    """Every other algebra brackets into a derived algebra of rank at
    most 1; here the ladder's output spans reach rank 2 and 3.  The
    quadratic reference costs about 0.2 s a pair on C2, so it checks
    every fourth pair there."""
    alg = request.getfixturevalue(name)
    assert validate_superalgebra(alg).ok
    assert _derived_rank(alg) == derived
    pairs = seeded_pairs(alg, 12)
    for i, (A, B) in enumerate(pairs):
        K = bracket_product(A, B)
        assert first_difference(K, bracket_product_oracle(A, B)) is None
        if i % quadratic_every == 0:
            assert first_difference(K, quadratic_bracket_product(A, B)) is None
    if name == "sl2":
        assert all(_reaches_full_carrier(A, B, monkeypatch) for A, B in pairs)


def _table(alg, rng, degree):
    nonzero = [x for x in space_vectors(alg) if x != alg.zero()]
    return make_cifset(alg, [(x, degree(rng)) for x in nonzero], EMPTY)


def _split_degree(rng, amplitudes=range(1, 7)):
    """Non r = (1 - mem r) / 2 falls as mem r rises, so the two rank
    every degree alike; the phases are drawn on their own."""
    r = Fraction(rng.choice(amplitudes), 6)
    return cif_degree(r, Fraction(rng.randint(0, 6), 6), (1 - r) / 2, Fraction(rng.randint(0, 6), 6))


def _between_degree(rng):
    """Mem r 2/6 and non r 4/12 or 0, between and above the values of
    ``_split_degree(rng, (1, 3))``: with those, mem r and non r rank the
    lower degrees alike and these apart."""
    return cif_degree(Fraction(2, 6), Fraction(rng.randint(0, 6), 6), rng.choice([Fraction(4, 12), 0]), 0)


def _default_degree(rng):
    """The off value on some components: mem r 0; non r 1 (so mem r 0);
    mem w 0 and non w 1; or the whole default degree."""

    def third():
        return Fraction(rng.randint(0, 3), 3)

    return rng.choice([
        cif_degree(0, third(), third(), third()),
        cif_degree(0, third(), 1, third()),
        cif_degree(Fraction(rng.randint(1, 2), 3), 0, Fraction(1, 3), 1),
        EMPTY,
    ])


def _tie_degree(rng):
    """Values a few 10^-1000 apart, equal as floats: the membership
    amplitude 1/3 + k/D and phase 1/2 - k/D, the non-membership
    amplitude half of what is left of the budget."""
    D = 10**999 + 7
    r = Fraction(1, 3) + Fraction(rng.randint(0, 4), D)
    return cif_degree(r, Fraction(1, 2) - Fraction(rng.randint(0, 4), D), (1 - r) / 2, Fraction(rng.randint(0, 2), 2))


@pytest.mark.parametrize("name", ["H", "L3", "sl2", "C2"])
def test_oracle_matches_fixpoint_on_split_reuse_defaults_and_float_ties(request, name):
    """Pairs for the oracle's own shortcuts: components that split alike
    (mem r with non r) and apart (the phases), so a column is reused and
    three are closed; nonzero vectors at the default value on some
    component; values that only an exact comparison orders; and a pair
    whose A splits alike where its B does not."""
    alg = request.getfixturevalue(name)
    rng = random.Random(name)
    pairs = [tuple(_table(alg, rng, degree) for _ in range(2)) for degree in (_split_degree, _default_degree, _tie_degree)]
    # mem r and non r rank A's degrees alike but not B's: no reuse
    low = _table(alg, rng, lambda rng: _split_degree(rng, (1, 3)))
    pairs.append((low, _table(alg, rng, _between_degree)))
    splits = []
    for A, B in pairs:
        groups = rank_encode(A, B)[1]
        splits.append([tuple(key[c] for g in groups for key in g) for c in range(4)])
        K = bracket_product_oracle(A, B)
        assert not is_trivial(K)
        assert first_difference(fixpoint_bracket_product(A, B), K) is None
        assert first_difference(bracket_product(A, B), K) is None
    # the reuse is hit (mem r with non r) and missed (the phases, and
    # the amplitudes when only A splits alike)
    split = splits[0]
    assert split[0] == split[2] and len({split[0], split[1], split[3]}) == 3
    assert splits[3][0] != splits[3][2]
    # the ties: more distinct amplitudes than floats tell apart
    values = {A.table[x].mem.r for A in pairs[2] for x in space_vectors(alg)}
    assert len(values) > len({float(q) for q in values})
