import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ciflie import (
    BOTTOM,
    CIFDegree,
    Degree,
    TOP,
    cif_degree,
    deg_join,
    deg_leq,
    deg_meet,
    parse_spec,
)

units = st.fractions(min_value=0, max_value=1, max_denominator=12)
degrees = st.builds(Degree, units, units)


def test_construction_rejects_out_of_range():
    with pytest.raises(ValueError):
        Degree(Fraction(3, 2), Fraction(0))
    with pytest.raises(ValueError):
        Degree(Fraction(1, 2), Fraction(-1, 3))


def test_construction_rejects_floats():
    with pytest.raises(TypeError):
        Degree(0.5, Fraction(1))


def test_leq_examples():
    assert deg_leq(Degree("1/2", "1/3"), Degree("1/2", "1/3"))
    assert deg_leq(Degree("1/2", "1/4"), Degree("2/3", "1/3"))
    a, b = Degree("1/2", "2/3"), Degree("2/3", "1/3")
    assert not deg_leq(a, b) and not deg_leq(b, a)


def test_meet_join_examples():
    assert deg_meet(Degree("1/2", "1/4"), Degree("2/3", "1/3")) == Degree("1/2", "1/4")
    assert deg_join(Degree("1/2", "2/3"), Degree("2/3", "1/3")) == Degree("2/3", "2/3")
    a = Degree("1/5", "3/7")
    assert deg_meet(a, TOP) == a
    assert deg_join(a, BOTTOM) == a


@given(degrees)
def test_order_reflexive(a):
    assert deg_leq(a, a)


@given(degrees, degrees)
def test_order_antisymmetric(a, b):
    if deg_leq(a, b) and deg_leq(b, a):
        assert a == b


@given(degrees, degrees, degrees)
def test_order_transitive(a, b, c):
    if deg_leq(a, b) and deg_leq(b, c):
        assert deg_leq(a, c)


@given(degrees, degrees)
def test_lattice_commutative(a, b):
    assert deg_meet(a, b) == deg_meet(b, a)
    assert deg_join(a, b) == deg_join(b, a)


@given(degrees, degrees, degrees)
def test_lattice_associative(a, b, c):
    assert deg_meet(deg_meet(a, b), c) == deg_meet(a, deg_meet(b, c))
    assert deg_join(deg_join(a, b), c) == deg_join(a, deg_join(b, c))


@given(degrees)
def test_lattice_idempotent(a):
    assert deg_meet(a, a) == a
    assert deg_join(a, a) == a


@given(degrees, degrees)
def test_lattice_absorption(a, b):
    assert deg_meet(a, deg_join(a, b)) == a
    assert deg_join(a, deg_meet(a, b)) == a


@given(degrees, degrees)
def test_order_agrees_with_lattice(a, b):
    assert deg_leq(a, b) == (deg_meet(a, b) == a) == (deg_join(a, b) == b)


@given(degrees)
def test_global_bounds(a):
    assert deg_leq(BOTTOM, a)
    assert deg_leq(a, TOP)


def test_budget_enforced():
    with pytest.raises(ValueError):
        cif_degree("3/4", "1/2", "1/2", 0)
    d = cif_degree("3/4", "1/2", "1/4", 0)
    assert d.mem.r + d.non.r == 1


BIG = 10**18


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Degree(0, 0), None),
        (lambda: Degree(1, 1), None),
        (lambda: Degree("1/2", 1), None),
        (lambda: Degree(Fraction(BIG, BIG + 1), Fraction(1, BIG)), None),
        (lambda: Degree(Fraction(-1, 3), 0), "amplitude must lie in [0, 1], got -1/3"),
        (lambda: Degree(0, Fraction(-1, BIG)), f"phase must lie in [0, 1], got -1/{BIG}"),
        (lambda: Degree(Fraction(4, 3), 0), "amplitude must lie in [0, 1], got 4/3"),
        (lambda: Degree(1, Fraction(BIG + 1, BIG)), f"phase must lie in [0, 1], got {BIG + 1}/{BIG}"),
        (lambda: Degree("-1/2", 0), "amplitude must lie in [0, 1], got -1/2"),
        (lambda: Degree(0, "3/2"), "phase must lie in [0, 1], got 3/2"),
        (lambda: Degree(2, 0), "amplitude must lie in [0, 1], got 2"),
        (lambda: Degree(0, -1), "phase must lie in [0, 1], got -1"),
        (lambda: Degree(0.5, 0), "degrees are exact: floats are not accepted"),
        (lambda: Degree(0, 1.0), "degrees are exact: floats are not accepted"),
        (lambda: cif_degree("2/3", 0, "1/3", 1), None),
        (lambda: cif_degree(1, 1, 0, 0), None),
        (lambda: cif_degree(0, 0, 1, 1), None),
        (lambda: cif_degree(Fraction(BIG, BIG + 1), 0, Fraction(1, BIG + 1), 0), None),
        (
            lambda: cif_degree("1/2", 0, Fraction(1, 2) + Fraction(1, 10**9), 0),
            "amplitude budget exceeded: 1/2 + 500000001/1000000000 > 1",
        ),
        (lambda: cif_degree(1, 0, Fraction(1, BIG), 0), f"amplitude budget exceeded: 1 + 1/{BIG} > 1"),
    ],
)
def test_validation_boundaries(build, message):
    """Accept or reject at the edges of [0, 1] and of the budget, with
    the exact message, whatever the input type."""
    if message is None:
        build()
        return
    error = TypeError if "floats" in message else ValueError
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


@given(units, units, units, units)
def test_budget_property(mr, mw, nr, nw):
    if mr + nr <= 1:
        CIFDegree(Degree(mr, mw), Degree(nr, nw))
    else:
        with pytest.raises(ValueError):
            CIFDegree(Degree(mr, mw), Degree(nr, nw))


def test_equal_degrees_built_differently_share_hash_and_key():
    parsed = parse_spec(
        "field 3\nspace X dim 1 parity 0\n"
        "cifset A on X default 0/1 0/1 1/1 1/1\nentry A 1 deg 2/4 1/1 0/1 0/1\n"
    ).sets["A"].cifset.table[(1,)]
    built = cif_degree("1/2", 1, 0, 0)
    met = CIFDegree(deg_meet(Degree(1, 1), Degree("1/2", 1)), deg_join(BOTTOM, BOTTOM))
    for d in (parsed, met):
        assert d == built and hash(d) == hash(built)
        assert d.mem == built.mem and hash(d.mem) == hash(built.mem)
        assert {built: "key", built.mem: "mem"}[d] == "key"
        assert {built.mem: "mem"}[d.mem] == "mem"
    assert hash(built.mem) == hash((1, 2, 1, 1))


def test_repr_fields_and_replace_are_unchanged():
    d = cif_degree("1/2", 1, 0, "1/3")
    assert repr(d.mem) == "Degree(1/2, 1)"
    assert repr(d) == "CIFDegree((1/2,1); (0,1/3))"
    assert [f.name for f in dataclasses.fields(Degree)] == ["r", "w"]
    assert [f.name for f in dataclasses.fields(CIFDegree)] == ["mem", "non"]
    moved = dataclasses.replace(d.mem, r=Fraction(1, 4))
    assert moved == Degree("1/4", 1) and hash(moved) == hash(Degree("1/4", 1))
    assert hash(moved) != hash(d.mem)
    wider = dataclasses.replace(d, non=Degree("1/2", 0))
    assert hash(wider) == hash(cif_degree("1/2", 1, "1/2", 0))
    with pytest.raises(ValueError):
        dataclasses.replace(d.mem, w=Fraction(5, 4))
    with pytest.raises(ValueError):
        dataclasses.replace(d, non=Degree("3/4", 0))


@given(degrees, degrees)
def test_meet_join_are_componentwise_and_return_a_dominating_argument(a, b):
    meet, join = deg_meet(a, b), deg_join(a, b)
    assert meet == Degree(min(a.r, b.r), min(a.w, b.w))
    assert join == Degree(max(a.r, b.r), max(a.w, b.w))
    if deg_leq(a, b) or deg_leq(b, a):
        assert any(meet is d for d in (a, b)) and any(join is d for d in (a, b))


@given(
    n=st.one_of(st.integers(-40, 40), st.integers(-(10**30), 10**30)),
    d=st.one_of(st.integers(1, 40), st.integers(1, 10**30)),
    form=st.sampled_from(["Fraction", "int", "str"]),
    amplitude=st.booleans(),
)
def test_degree_accepts_exactly_the_unit_interval(n, d, form, amplitude):
    """Whatever the input type, a component is accepted exactly when it
    lies in [0, 1], stored as a Fraction and hashed by value; otherwise
    the ValueError names the component and its reduced value."""
    q = Fraction(n) if form == "int" else Fraction(n, d)
    value = {"Fraction": q, "int": n, "str": f"{n}/{d}"}[form]
    args = (value, Fraction(1, 2)) if amplitude else (Fraction(1, 2), value)
    if 0 <= q <= 1:
        built = Degree(*args)
        got = built.r if amplitude else built.w
        assert got == q and type(got) is Fraction
        same = Degree(*((q, Fraction(1, 2)) if amplitude else (Fraction(1, 2), q)))
        assert built == same and hash(built) == hash(same)
        return
    with pytest.raises(ValueError) as caught:
        Degree(*args)
    what = "amplitude" if amplitude else "phase"
    assert str(caught.value) == f"{what} must lie in [0, 1], got {q}"


@given(x=st.floats(allow_nan=True, allow_infinity=True), amplitude=st.booleans())
def test_degree_refuses_every_float(x, amplitude):
    with pytest.raises(TypeError) as caught:
        Degree(x, 0) if amplitude else Degree(0, x)
    assert str(caught.value) == "degrees are exact: floats are not accepted"
