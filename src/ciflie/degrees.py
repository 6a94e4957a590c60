"""Exact amplitude-phase membership degrees and their lattice order.

A degree is a pair (r, w) of rationals in [0, 1]: an amplitude r and a
normalized phase w, standing for the complex value r*exp(i*2*pi*w).
Degrees are compared componentwise, so the order is partial.  Sups and
infs of finite families are componentwise maxima/minima.

Everything is a Fraction.  Floats would turn the downstream theorem
checks into tolerance games, so they are rejected at construction.

Every degree is validated on its numerator and denominator ints when
it is built, and hashed then, once: the kernels group vectors by degree,
then sort and key the int ranks of the distinct values.  Where results
are built, equal values share one object: the parser and
``from_columns`` build one degree per distinct value, and a meet or join
whose argument dominates the other returns that argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RatLike = Union[Fraction, int, str]


def as_rational(value: RatLike) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions; never floats."""
    if isinstance(value, float):
        raise TypeError("degrees are exact: floats are not accepted")
    return Fraction(value)


def _unit_interval(value: RatLike, what: str) -> Fraction:
    q = value if type(value) is Fraction else as_rational(value)
    if q.numerator < 0 or q.numerator > q.denominator:
        raise ValueError(f"{what} must lie in [0, 1], got {q}")
    return q


@dataclass(frozen=True)
class Degree:
    """Amplitude-phase pair, both components exact rationals in [0, 1]."""

    r: Fraction
    w: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", _unit_interval(self.r, "amplitude"))
        object.__setattr__(self, "w", _unit_interval(self.w, "phase"))
        object.__setattr__(self, "_hash", hash((self.r, self.w)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Degree({self.r}, {self.w})"


BOTTOM = Degree(Fraction(0), Fraction(0))
TOP = Degree(Fraction(1), Fraction(1))


def deg_leq(a: Degree, b: Degree) -> bool:
    """Componentwise order; a and b may be incomparable."""
    return a.r <= b.r and a.w <= b.w


def deg_meet(a: Degree, b: Degree) -> Degree:
    """Componentwise min; the smaller argument itself when there is one."""
    if a.r <= b.r and a.w <= b.w:
        return a
    if b.r <= a.r and b.w <= a.w:
        return b
    return Degree(min(a.r, b.r), min(a.w, b.w))


def deg_join(a: Degree, b: Degree) -> Degree:
    """Componentwise max; the larger argument itself when there is one."""
    if b.r <= a.r and b.w <= a.w:
        return a
    if a.r <= b.r and a.w <= b.w:
        return b
    return Degree(max(a.r, b.r), max(a.w, b.w))


@dataclass(frozen=True)
class CIFDegree:
    """Paired membership/non-membership degrees.

    The amplitudes share a unit budget: mem.r + non.r <= 1.  The phases
    are not coupled.
    """

    mem: Degree
    non: Degree

    def __post_init__(self) -> None:
        (a, c), (b, d) = self.mem.r.as_integer_ratio(), self.non.r.as_integer_ratio()
        if a * d + b * c > c * d:  # a/c + b/d > 1
            raise ValueError(
                "amplitude budget exceeded: "
                f"{self.mem.r} + {self.non.r} > 1"
            )
        object.__setattr__(self, "_hash", hash((self.mem, self.non)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"CIFDegree(({self.mem.r},{self.mem.w}); ({self.non.r},{self.non.w}))"


# Degree assigned to the zero vector of every CIF set, and the degree of
# a vector carrying no membership at all.
FULL = CIFDegree(TOP, BOTTOM)
EMPTY = CIFDegree(BOTTOM, TOP)


def rat_str(q: Fraction) -> str:
    """The "num/den" form used by the spec language and the JSON output."""
    return f"{q.numerator}/{q.denominator}"


def cif_degree(mr: RatLike, mw: RatLike, nr: RatLike, nw: RatLike) -> CIFDegree:
    """Shorthand constructor used by tests, generators and the parser."""
    return CIFDegree(Degree(as_rational(mr), as_rational(mw)),
                     Degree(as_rational(nr), as_rational(nw)))
