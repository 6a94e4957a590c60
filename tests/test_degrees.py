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


@given(units, units, units, units)
def test_budget_property(mr, mw, nr, nw):
    if mr + nr <= 1:
        CIFDegree(Degree(mr, mw), Degree(nr, nw))
    else:
        with pytest.raises(ValueError):
            CIFDegree(Degree(mr, mw), Degree(nr, nw))
