import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ciflie import (
    GradedMap,
    PrimeField,
    Superalgebra,
    apply_map,
    bracket_eval,
    graded_split,
    space_vectors,
    span_closure,
    superalgebra_from_pairs,
    validate_map,
    validate_superalgebra,
)
from ciflie.superalgebra import MAX_CARRIER, SpanBuilder, SubspaceBasis

from helpers import rebind_everywhere
from oracles import basis_vector_validate_superalgebra, brute_axiom_failures, brute_map_report


def test_prime_field_rejects_nonprime():
    for bad in (0, 1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            PrimeField(bad)
    assert PrimeField(13).inv(5) == pow(5, 11, 13)


def test_abelian_always_valid(F3):
    for parity in itertools.product((0, 1), repeat=3):
        alg = superalgebra_from_pairs(F3, parity, {})
        assert validate_superalgebra(alg).ok


def test_h_is_valid(H):
    assert validate_superalgebra(H).ok


def test_l3_is_valid(L3):
    assert validate_superalgebra(L3).ok


def test_even_odd_action_algebra_is_valid(F3):
    # e even, f odd, [e, f] = f; classic scaling action
    alg = superalgebra_from_pairs(F3, (0, 1), {(0, 1): (0, 1)})
    assert validate_superalgebra(alg).ok


def test_broken_skew_symmetry_detected(F3):
    # [e, f] = f together with [f, e] = f violates skew-symmetry
    table = (((0, 0), (0, 1)), ((0, 1), (1, 0)))
    bad = Superalgebra(F3, 2, (0, 1), table)
    rep = validate_superalgebra(bad)
    assert not rep.ok
    assert any("skew" in f for f in rep.failures)


def test_broken_grading_detected(F3):
    # [f, f] = f puts an odd-odd bracket into the odd component
    alg = superalgebra_from_pairs(F3, (0, 1), {(1, 1): (0, 1)})
    rep = validate_superalgebra(alg)
    assert not rep.ok
    assert any("grading" in f for f in rep.failures)


def test_even_diagonal_must_vanish(F3):
    # [e, e] = e fails skew-symmetry over F_3 (2x = 0 forces x = 0)
    alg = superalgebra_from_pairs(F3, (0,), {(0, 0): (1,)})
    rep = validate_superalgebra(alg)
    assert not rep.ok


def test_structure_constants_must_be_integers(F3):
    table = (((0, 0), (0, 0)), ((0, 0), (1.5, 0)))
    with pytest.raises(ValueError, match="structure constants must be reduced mod p"):
        Superalgebra(F3, 2, (0, 1), table)


def test_jacobi_failure_is_reported_with_its_witness(F3):
    # [b0, b1] = b1 and [b1, b2] = b0: [b0, [b1, b2]] = 0 but
    # [[b0, b1], b2] + [b1, [b0, b2]] = b0.
    alg = superalgebra_from_pairs(F3, (0, 0, 0), {(0, 1): (0, 1, 0), (1, 2): (1, 0, 0)})
    assert validate_superalgebra(alg).failures == (
        "graded Jacobi: witness basis triple (b0, b1, b2)",
    )


def test_each_axiom_reports_its_first_witness(F3):
    pairs = {(0, 0): (0, 2, 0), (1, 1): (0, 1, 1), (1, 2): (2, 0, 2), (2, 2): (2, 1, 0)}
    alg = superalgebra_from_pairs(F3, (0, 1, 1), pairs)
    assert validate_superalgebra(alg).failures == (
        "grading: [b0, b0] has a component of wrong parity at coordinate 1",
        "super skew-symmetry: [b0, b0] + (-1)^(0*0) [b0, b0] != 0",
        "graded Jacobi: witness basis triple (b0, b0, b1)",
    )


def test_bracket_eval_examples(H):
    e, f = (1, 0), (0, 1)
    assert bracket_eval(H, f, f) == e
    assert bracket_eval(H, (0, 0), f) == (0, 0)
    assert bracket_eval(H, (0, 2), f) == (2, 0)


def test_bracket_eval_dimension_mismatch(H):
    with pytest.raises(ValueError):
        bracket_eval(H, (1, 0, 0), (0, 1))


def test_bracket_super_skew_on_all_homogeneous_pairs(H, L3):
    for alg in (H, L3):
        p = alg.field.p
        for i in range(alg.dim):
            for j in range(alg.dim):
                sign = (-1) ** (alg.parity[i] * alg.parity[j])
                lhs = bracket_eval(alg, alg.basis(i), alg.basis(j))
                rhs = bracket_eval(alg, alg.basis(j), alg.basis(i))
                assert all((a + sign * b) % p == 0 for a, b in zip(lhs, rhs))


def test_graded_split_examples(H):
    assert graded_split(H, (1, 1)) == ((1, 0), (0, 1))
    assert graded_split(H, (0, 0)) == ((0, 0), (0, 0))
    assert graded_split(H, (0, 2)) == ((0, 0), (0, 2))


def test_graded_split_recombines(L3):
    p = L3.field.p
    for x in space_vectors(L3):
        x0, x1 = graded_split(L3, x)
        assert tuple((a + b) % p for a, b in zip(x0, x1)) == x


def test_space_vectors_are_shared_by_carriers_of_one_shape(H, AB2, L3):
    """The carrier is a function of (p, dim) alone: algebras with other
    brackets share one tuple, in lexicographic order with zero first."""
    assert space_vectors(H) is space_vectors(AB2)
    assert space_vectors(H) == tuple(itertools.product(range(3), repeat=2))
    assert space_vectors(L3) == tuple(sorted(space_vectors(L3)))
    assert space_vectors(L3)[0] == L3.zero() and len(space_vectors(L3)) == L3.size


def test_span_closure_examples(H):
    empty = span_closure(H, [])
    assert empty.rows == ()
    assert empty.contains((0, 0)) and not empty.contains((1, 0))

    multiples = span_closure(H, [(1, 0), (2, 0)])
    assert multiples.rows == ((1, 0),)

    full = span_closure(H, [(1, 1), (0, 1)])
    assert full.rows == ((1, 0), (0, 1))


def test_span_closure_idempotent_and_contains_generators(F3):
    rng = random.Random(11)
    alg = superalgebra_from_pairs(F3, (0, 1, 0), {})
    for _ in range(50):
        gens = [
            tuple(rng.randrange(3) for _ in range(3))
            for _ in range(rng.randint(0, 4))
        ]
        basis = span_closure(alg, gens)
        again = span_closure(alg, list(basis.rows))
        assert basis == again
        assert all(basis.contains(g) for g in gens)


def test_subspace_basis_invariants_enforced(F3):
    with pytest.raises(ValueError):
        SubspaceBasis(F3, 2, ((0, 0),))
    with pytest.raises(ValueError):
        SubspaceBasis(F3, 2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        SubspaceBasis(F3, 2, ((2, 0),))


def test_validate_map_identity_on_abelian_is_anti(AB2):
    ident = GradedMap(AB2, AB2, ((1, 0), (0, 1)), kind="anti")
    rep = validate_map(ident)
    assert rep.ok and rep.surjective


def test_validate_map_anti_example(H):
    # phi(e) = 2e, phi(f) = f: phi([f,f]) = 2e = -[phi f, phi f]
    phi = GradedMap(H, H, ((2, 0), (0, 1)), kind="anti")
    rep = validate_map(phi)
    assert rep.ok and rep.surjective


def test_identity_is_not_anti_on_h(H):
    ident = GradedMap(H, H, ((1, 0), (0, 1)), kind="anti")
    rep = validate_map(ident)
    assert not rep.ok
    assert any("anti condition" in f for f in rep.failures)


def test_map_entries_must_be_integers(H):
    with pytest.raises(ValueError, match="matrix entries must be reduced mod p"):
        GradedMap(H, H, ((2.0, 0), (0, 1)), kind="anti")


def test_grading_violation_detected(H):
    # sends odd f to even e
    swap = GradedMap(H, H, ((1, 0), (1, 0)))
    rep = validate_map(swap)
    assert not rep.ok
    assert any("grading" in f for f in rep.failures)


def test_minus_identity_is_anti(H, L3):
    for alg in (H, L3):
        p = alg.field.p
        rows = tuple(
            tuple((p - 1) if k == i else 0 for k in range(alg.dim))
            for i in range(alg.dim)
        )
        rep = validate_map(GradedMap(alg, alg, rows, kind="anti"))
        assert rep.ok and rep.surjective


def test_anti_condition_extends_to_all_vectors(H):
    phi = GradedMap(H, H, ((2, 0), (0, 1)), kind="anti")
    p = H.field.p
    for x in space_vectors(H):
        for y in space_vectors(H):
            lhs = apply_map(phi, bracket_eval(H, x, y))
            rhs = tuple(
                (-c) % p
                for c in bracket_eval(H, apply_map(phi, x), apply_map(phi, y))
            )
            assert lhs == rhs


@given(st.integers(0, 2**30))
def test_span_builder_matches_subspace_basis(seed):
    rng = random.Random(seed)
    field = PrimeField(3)
    builder = SpanBuilder(field, 3)
    vectors = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(4)]
    for v in vectors:
        builder.add(v)
    basis = builder.to_basis()
    for probe in itertools.product(range(3), repeat=3):
        assert builder.contains(probe) == basis.contains(probe)


def test_carrier_limit_refused_before_enumeration(no_enumeration):
    zero = ((0,) * 6,) * 6
    with pytest.raises(ValueError, match=r"carrier too large: 13\^6 = 4826809"):
        Superalgebra(PrimeField(13), 6, (0,) * 6, (zero,) * 6)
    with pytest.raises(ValueError, match=r"carrier too large: 7\^5 = 16807"):
        superalgebra_from_pairs(PrimeField(7), (0, 1, 0, 1, 0), {})
    assert superalgebra_from_pairs(PrimeField(5), (0, 1, 0, 1, 0), {}).size == MAX_CARRIER


def _random_cell(rng, p, dim, density):
    return tuple(rng.randrange(p) if rng.random() < density else 0 for _ in range(dim))


def _random_algebra(rng, p, dim):
    parity = tuple(rng.randrange(2) for _ in range(dim))
    density = rng.choice((0.0, 0.2, 0.5))
    if rng.random() < 0.5:
        # half of these respect the grading, so Jacobi often decides
        graded = rng.random() < 0.5
        pairs = {}
        for i, j in itertools.combinations_with_replacement(range(dim), 2):
            cell = _random_cell(rng, p, dim, density)
            if graded:
                cell = tuple(c if q == parity[i] ^ parity[j] else 0 for c, q in zip(cell, parity))
            pairs[i, j] = cell
        return superalgebra_from_pairs(PrimeField(p), parity, pairs)
    table = tuple(
        tuple(_random_cell(rng, p, dim, density) for _ in range(dim)) for _ in range(dim)
    )
    return Superalgebra(PrimeField(p), dim, parity, table)


def _random_rows(rng, source, target):
    p = source.field.p
    style = rng.choice(("random", "sparse", "minus-identity", "zero"))
    if style == "minus-identity" and source.dim == target.dim:
        return tuple(
            tuple(p - 1 if k == i else 0 for k in range(target.dim)) for i in range(source.dim)
        )
    density = {"random": 1.0, "sparse": 0.3}.get(style, 0.0)
    return tuple(_random_cell(rng, p, target.dim, density) for _ in range(source.dim))


def test_validators_agree_with_brute_force_on_random_tables():
    rng = random.Random(20240917)
    seen = set()
    for _ in range(300):
        p, dim = rng.choice(((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)))
        alg = _random_algebra(rng, p, dim)
        alg_rep = validate_superalgebra(alg)
        failed = {f.split(":")[0] for f in alg_rep.failures}
        assert failed == brute_axiom_failures(alg), alg
        target = alg if rng.random() < 0.5 else _random_algebra(rng, p, rng.randint(1, dim))
        m = GradedMap(alg, target, _random_rows(rng, alg, target), rng.choice(("plain", "anti")))
        map_rep = validate_map(m)
        assert (map_rep.ok, map_rep.surjective) == brute_map_report(m), m
        seen |= {("algebra", alg_rep.ok), ("map", map_rep.ok), ("surjective", map_rep.surjective)}
        seen |= {(axiom, failed == {axiom}) for axiom in failed}
    # every verdict was reached, and each axiom failed alone at least once
    assert len(seen) == 6 + 3 * 2


def test_jacobi_from_table_cells_matches_basis_vector_reference(monkeypatch):
    """The validator adds Jacobi's terms into one residual read off the
    nonzero entries of the table cells, and skips triples whose three
    cells are zero; on seeded random tables of dims 1-4 over F_2, F_3
    and F_5, sparse and dense, its failures, witnesses included, are the
    basis-vector reading's, and it evaluates no bracket.  Valid tables
    and every axiom's failure are seen."""
    rng = random.Random(16)
    algebras = [
        _random_algebra(rng, p, dim) for p in (2, 3, 5) for dim in (1, 2, 3, 4) for _ in range(25)
    ]
    # dense graded tables: every cell may have several nonzero entries,
    # and the sign of Jacobi's last term decides on odd pairs
    for p in (2, 3, 5):
        for dim in (2, 3, 4):
            for _ in range(10):
                parity = tuple(rng.randrange(2) for _ in range(dim))
                pairs = {
                    (i, j): tuple(
                        rng.randrange(1, p) if q == parity[i] ^ parity[j] else 0 for q in parity
                    )
                    for i, j in itertools.combinations_with_replacement(range(dim), 2)
                }
                algebras.append(superalgebra_from_pairs(PrimeField(p), parity, pairs))
    # valid tables with several nonzero entries per cell: brackets land on
    # a two-dimensional even centre
    centred = []
    for p in (2, 3, 5):
        parity = (0, 0, 1, 1, 0)
        pairs = {
            (i, j): (rng.randrange(1, p), rng.randrange(1, p), 0, 0, 0)
            for i, j in itertools.combinations_with_replacement(range(2, 5), 2)
            if parity[i] == parity[j] and (i != j or parity[i] or p == 2)
        }
        centred.append(superalgebra_from_pairs(PrimeField(p), parity, pairs))
    algebras += centred
    # central extensions: every bracket lands on the central b0, so Jacobi
    # holds with nonzero cells
    for p in (2, 3, 5):
        for dim in (2, 3, 4):
            parity = (0,) + tuple(rng.randrange(2) for _ in range(dim - 1))
            pairs = {
                (i, j): (rng.randrange(p),) + (0,) * (dim - 1)
                for i, j in itertools.combinations_with_replacement(range(1, dim), 2)
                if parity[i] == parity[j]
            }
            algebras.append(superalgebra_from_pairs(PrimeField(p), parity, pairs))
    references = [basis_vector_validate_superalgebra(alg) for alg in algebras]
    rebind_everywhere(bracket_eval, None, monkeypatch.setattr)
    seen = set()
    for alg, want in zip(algebras, references):
        got = validate_superalgebra(alg)
        assert got.failures == want.failures, alg
        seen |= {f.split(":")[0] for f in got.failures} | {got.ok}
    assert seen == {True, False, "grading", "super skew-symmetry", "graded Jacobi"}
    assert all(validate_superalgebra(alg).ok for alg in centred)


ZERO_2 = ((0, 0), (0, 0))


@pytest.mark.parametrize(
    ("build", "error", "message"),
    [
        (lambda F, H: F.inv(0), ZeroDivisionError, "0 has no inverse"),
        (lambda F, H: Superalgebra(F, 2, (0,), ()), ValueError, "parity must be a tuple of dim bits"),
        (
            lambda F, H: Superalgebra(F, 2, (0, 1), (ZERO_2,)),
            ValueError,
            "structure table must have shape dim x dim x dim",
        ),
        (
            lambda F, H: Superalgebra(F, 2, (0, 1), (ZERO_2, ((0, 0),))),
            ValueError,
            "structure table must have shape dim x dim x dim",
        ),
        (
            lambda F, H: Superalgebra(F, 2, (0, 1), (ZERO_2, ((0, 0), (0,)))),
            ValueError,
            "structure table must have shape dim x dim x dim",
        ),
        (
            lambda F, H: superalgebra_from_pairs(F, (0, 1), {(1, 0): (1, 0)}),
            ValueError,
            "pair (1, 0) must satisfy 0 <= i <= j < dim",
        ),
        (
            lambda F, H: superalgebra_from_pairs(F, (0, 1), {(1, 1): (1,)}),
            ValueError,
            "pair (1, 1) needs 2 constants",
        ),
        (lambda F, H: graded_split(H, (1,)), ValueError, "dimension mismatch"),
        (lambda F, H: apply_map(GradedMap(H, H, ZERO_2), (1,)), ValueError, "dimension mismatch"),
        (lambda F, H: span_closure(H, [(1,)]), ValueError, "generator has wrong length"),
        (lambda F, H: SubspaceBasis(F, 2, ((1,),)), ValueError, "basis row has wrong length"),
        (lambda F, H: SubspaceBasis(F, 2, ((1, 1), (0, 1))), ValueError, "basis must be fully reduced"),
        (lambda F, H: SubspaceBasis(F, 2, ((1, 0),)).contains((1,)), ValueError, "dimension mismatch"),
        (lambda F, H: GradedMap(H, H, ZERO_2, "linear"), ValueError, "kind must be 'plain' or 'anti'"),
        (
            lambda F, H: GradedMap(H, superalgebra_from_pairs(PrimeField(5), (0, 1), {}), ZERO_2),
            ValueError,
            "source and target must share the ground field",
        ),
        (
            lambda F, H: GradedMap(H, H, ((0, 0),)),
            ValueError,
            "matrix must have one row per source basis vector",
        ),
        (lambda F, H: GradedMap(H, H, ((0, 0), (0,))), ValueError, "matrix row has wrong length"),
    ],
)
def test_constructors_and_kernels_refuse_bad_shapes(F3, H, build, error, message):
    with pytest.raises(error) as info:
        build(F3, H)
    assert str(info.value) == message
