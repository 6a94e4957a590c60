"""Exact amplitude-phase membership degrees and their lattice order.

A degree is a pair (r, w) of rationals in [0, 1]: an amplitude r and a
normalized phase w, standing for the complex value r*exp(i*2*pi*w).
Degrees are compared componentwise, so the order is partial.  Sups and
infs of finite families are componentwise maxima/minima.

Everything is a Fraction.  Floats would turn the downstream theorem
checks into tolerance games, so they are rejected at construction.

Every degree is validated on the numerator and denominator ints of its
components when it is built, and hashed then, once, as the int tuple
(r numerator, r denominator, w numerator, w denominator); a CIFDegree
hashes the pair of its two parts' hashes.  Fractions are kept reduced
with a positive denominator, so equal degrees have equal tuples and hash
alike, and no Fraction hash (a modular inverse) is taken.  The kernels
group vectors by degree, then sort and key the int ranks of the distinct
values.  Where results are built, equal values share one object: the
parser builds one degree per distinct value, ``from_columns`` one per
distinct result row, reusing an input degree when its components are the
scale entries it decodes to, and a meet or join whose argument dominates
the other returns that argument.
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


@dataclass(frozen=True)
class Degree:
    """Amplitude-phase pair, both components exact rationals in [0, 1]."""

    r: Fraction
    w: Fraction

    def __post_init__(self) -> None:
        r = self.r if type(self.r) is Fraction else as_rational(self.r)
        rn, rd = r.as_integer_ratio()
        if rn < 0 or rn > rd:
            raise ValueError(f"amplitude must lie in [0, 1], got {r}")
        w = self.w if type(self.w) is Fraction else as_rational(self.w)
        wn, wd = w.as_integer_ratio()
        if wn < 0 or wn > wd:
            raise ValueError(f"phase must lie in [0, 1], got {w}")
        if r is not self.r or w is not self.w:
            object.__setattr__(self, "r", r)
            object.__setattr__(self, "w", w)
        object.__setattr__(self, "_hash", hash((rn, rd, wn, wd)))

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
        object.__setattr__(self, "_hash", hash((self.mem._hash, self.non._hash)))

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
    """Shorthand constructor from four rationals (ints, 'num/den'
    strings or Fractions), used by the random-table generator, scripts
    and tests.  The spec parser builds its degrees from parsed Fractions
    directly."""
    return CIFDegree(Degree(as_rational(mr), as_rational(mw)),
                     Degree(as_rational(nr), as_rational(nw)))
