import pytest

from ciflie import PrimeField, space_vectors, superalgebra_from_pairs, validate_superalgebra
from helpers import rebind_everywhere


@pytest.fixture(scope="session")
def F3():
    return PrimeField(3)


@pytest.fixture(scope="session")
def H(F3):
    """Two-dimensional test algebra: e even, f odd, [f, f] = e."""
    return superalgebra_from_pairs(F3, (0, 1), {(1, 1): (1, 0)})


@pytest.fixture(scope="session")
def L3(F3):
    """Three-dimensional algebra: central even e, odd f, g with a
    nondegenerate symmetric bracket form on the odd part."""
    return superalgebra_from_pairs(
        F3,
        (0, 1, 1),
        {(1, 1): (1, 0, 0), (1, 2): (1, 0, 0), (2, 2): (2, 0, 0)},
    )


@pytest.fixture(scope="session")
def AB2(F3):
    """Abelian algebra on one even and one odd coordinate."""
    return superalgebra_from_pairs(F3, (0, 1), {})


@pytest.fixture(scope="session")
def L5(F3):
    """Five-dimensional algebra (|V| = 243): e = b0 even and central,
    [b1,b1] = e, [b1,b2] = e, [b2,b2] = 2e, [b4,b4] = e."""
    e = (1, 0, 0, 0, 0)
    return superalgebra_from_pairs(
        F3,
        (0, 1, 1, 0, 1),
        {(1, 1): e, (1, 2): e, (2, 2): (2, 0, 0, 0, 0), (4, 4): e},
    )


@pytest.fixture()
def no_enumeration(monkeypatch):
    """Make enumerating any carrier an error, in every ciflie module."""

    def refuse(alg):
        raise AssertionError(f"enumerated a carrier of {alg.size} vectors")

    rebind_everywhere(space_vectors, refuse, monkeypatch.setattr)


@pytest.fixture(scope="session")
def L4():
    """Four-dimensional algebra over F_5 (|V| = 625): e = b0 even and
    central, [b1,b1] = e, [b1,b2] = e, [b2,b2] = 2e."""
    e = (1, 0, 0, 0)
    return superalgebra_from_pairs(
        PrimeField(5), (0, 1, 1, 0), {(1, 1): e, (1, 2): e, (2, 2): (2, 0, 0, 0)}
    )


@pytest.fixture(scope="session")
def sl2(F3):
    """sl2 over F_3, all even: [b0,b1] = b0, [b0,b2] = b1, [b1,b2] = b2.
    Its derived algebra [V, V] is the whole carrier."""
    return superalgebra_from_pairs(
        F3, (0, 0, 0), {(0, 1): (1, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, 1)}
    )


@pytest.fixture(scope="session")
def C2(F3):
    """F_3^4 with even b0, b1 and odd b2, b3: [b2,b2] = b0, [b3,b3] = b1.
    Its derived algebra [V, V] has rank 2."""
    return superalgebra_from_pairs(
        F3, (0, 0, 1, 1), {(2, 2): (1, 0, 0, 0), (3, 3): (0, 1, 0, 0)}
    )


def osp12(field):
    """osp(1|2) (Kac, "Lie superalgebras", 1977): even h, e, f and odd x,
    y, with [h,e] = 2e, [h,f] = -2f, [e,f] = h, [h,x] = x, [h,y] = -y,
    [e,y] = -x, [f,x] = -y, [x,x] = 2e, [y,y] = -2f and [x,y] = h.  The
    even part acts on the odd part, and [V, V] = V."""
    return superalgebra_from_pairs(field, (0, 0, 0, 1, 1), {
        (0, 1): (0, 2, 0, 0, 0), (0, 2): (0, 0, -2, 0, 0), (1, 2): (1, 0, 0, 0, 0),
        (0, 3): (0, 0, 0, 1, 0), (0, 4): (0, 0, 0, 0, -1), (1, 4): (0, 0, 0, -1, 0),
        (2, 3): (0, 0, 0, 0, -1), (3, 3): (0, 2, 0, 0, 0), (4, 4): (0, 0, -2, 0, 0),
        (3, 4): (1, 0, 0, 0, 0),
    })


def gl11(field):
    """gl(1|1): even E, N and odd psi, chi, with [N,psi] = psi,
    [N,chi] = -chi and [psi,chi] = E."""
    return superalgebra_from_pairs(
        field, (0, 0, 1, 1), {(1, 2): (0, 0, 1, 0), (1, 3): (0, 0, 0, -1), (2, 3): (1, 0, 0, 0)}
    )


def _valid(alg):
    assert validate_superalgebra(alg).ok
    return alg


@pytest.fixture(scope="session")
def osp12_F3(F3):
    """osp(1|2) over F_3 (|V| = 243)."""
    return _valid(osp12(F3))


@pytest.fixture(scope="session")
def gl11_F3(F3):
    """gl(1|1) over F_3 (|V| = 81)."""
    return _valid(gl11(F3))


@pytest.fixture(scope="session")
def gl11_F5():
    """gl(1|1) over F_5 (|V| = 625)."""
    return _valid(gl11(PrimeField(5)))
