"""The coset-closure bracket oracle against the other two readings.

``bracket_product_oracle`` seeds each crisp bracket with its best
single-term value and grows the additive closure one coset at a time;
``bracket_product`` spans level cuts; ``oracles.fixpoint_bracket_product``
closes the single-term values under binary sums until nothing changes.
The three share no code, so their agreement checks each of them.
"""

import inspect
import random

import pytest

import ciflie.bracket as bracket_module
from ciflie import (
    bracket_eval,
    bracket_product,
    bracket_product_oracle,
    check_theorem,
    first_difference,
    gen_pair,
    gen_random_table,
    is_trivial,
    make_config,
    span_closure,
    superalgebra_from_pairs,
    validate_superalgebra,
)
from ciflie.cifset import from_columns, rank_encode, rank_steps
from helpers import rebind_everywhere
from oracles import fixpoint_bracket_product, quadratic_bracket_product

PAIR_KINDS = ("set", "subspace", "graded", "ideal")
SPAN_NAMES = {
    "SpanBuilder", "SubspaceBasis", "span_closure", "_cut_spans", "rank_encode", "rank_steps",
    "from_columns",
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


def ladder_mismatches(oracle, pairs):
    return sum(
        first_difference(bracket_product(A, B), oracle(A, B)) is not None for A, B in pairs
    )


def fixpoint_mismatches(oracle, pairs):
    return sum(
        first_difference(fixpoint_bracket_product(A, B), oracle(A, B)) is not None
        for A, B in pairs
    )


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


def _mutant(old: str, new: str):
    """``bracket_product_oracle`` with one piece of its source replaced."""
    source = inspect.getsource(bracket_module.bracket_product_oracle)
    assert source.count(old) == 1
    namespace = dict(vars(bracket_module))
    exec(source.replace(old, new), namespace)
    return namespace["bracket_product_oracle"]


MUTANTS = {
    # each bracket keeps its own seed: no coset is ever added
    "seeds-only": (
        "coset = [vec_add(p, x, vec_scale(p, k, g)) for k in range(1, p) for x in closed]",
        "coset = [g]",
    ),
    # a pair counts with the better of its two values, not the worse
    "max-seeds": ("map(min, ra, rb)", "map(max, ra, rb)"),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_broken_oracles_are_caught(cross_check_pairs, fixpoint_pairs, name):
    broken = _mutant(*MUTANTS[name])
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


def _reaches_full_carrier(A, B) -> bool:
    """Whether some component's cut span becomes the whole carrier, the
    exit at which the ladder has valued every vector."""
    alg = A.space
    _, groups = rank_encode(A, B)
    return any(
        span.rank == alg.dim
        for c in range(4)
        for _, span in bracket_module._cut_spans(alg, rank_steps(c, *groups))
    )


@pytest.mark.parametrize(("name", "derived", "quadratic_every"), [("sl2", 3, 1), ("C2", 2, 4)])
def test_keystone_on_larger_derived_algebras(request, name, derived, quadratic_every):
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
        assert all(_reaches_full_carrier(A, B) for A, B in pairs)
