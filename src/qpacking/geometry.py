"""Exact plane geometry for rational sectors.

Scalars are arbitrary-precision rationals (`fractions.Fraction`); nothing in
the core ever touches floating point.  A sector is the wedge between the
positive x-axis and the ray of slope n/m, and the maps built here (the
integral shear, the x-axis reflection and the general two-ray reduction) are
the exact determinant +-1 transformations that move packing problems between
sectors.  ``Staircases`` is a sector's staircase arithmetic, the one record
of it that every module reads; ``classify.sector_arithmetic`` builds it.

Points are plain ``(x, y)`` tuples: integer pairs on the original lattice,
``(Fraction, int)`` pairs on skewed lattices.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from math import floor, gcd
from typing import NamedTuple


def _frac(value) -> Fraction:
    if type(value) is Fraction:  # immutable, so shared rather than copied
        return value
    if isinstance(value, float):
        raise TypeError(f"float {value!r} not allowed in exact arithmetic")
    return Fraction(value)


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0.

    Euclid's steps (a, b) -> (b % a, a) run in a loop, each remainder carried with its
    coefficients (x, y) over the inputs, until the first entry is 0.
    """
    (r, ax, ay), (s, bx, by) = (a, 1, 0), (b, 0, 1)
    while r:
        q = s // r
        (r, ax, ay), (s, bx, by) = (s - q * r, bx - q * ax, by - q * ay), (r, ax, ay)
    return (s, bx, by) if s >= 0 else (-s, -bx, -by)


@dataclass(frozen=True)
class SectorSpec:
    """The sector {(x, y): 0 <= y <= (n/m) x} for coprime n >= 1, m >= 0.

    m = 0 encodes infinite slope, i.e. the first quadrant; coprimality
    (gcd(n, 0) = n) then forces n = 1.
    """

    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"sector needs n >= 1, got n={self.n}")
        if self.m < 0:
            raise ValueError(f"sector needs m >= 0, got m={self.m}")
        if gcd(self.n, self.m) != 1:
            raise ValueError(f"sector {self.n}/{self.m} not in lowest terms; use make_sector")

    def __str__(self) -> str:
        return f"{self.n}/{self.m}"


class Staircases(NamedTuple):
    """The arithmetic of the staircases of a sector n/m, built by ``classify.sector_arithmetic`` alone.

    Staircase i holds the sector's lattice points with n x - (m-1) y = l i, l = gcd(m-1, n), spaced
    (u, v) = ((m-1)/l, n/l) apart.  The skew (x, y) -> (x - ((m-1)/n) y, y) straightens it to the
    line x = i/v, where its steps are the y with u y = -i (mod v), the lowest ``bottom(i)``.  l^2/n
    fixes the staircase sizes, and n | l^2 (equivalently n | (m-1)^2) is the sector's first
    condition for a packing polynomial.
    """

    n: int
    l: int
    v: int
    u: int
    l2_over_n: Fraction
    divides_n_l2: bool

    def bottom(self, i: int) -> int:
        """The y of the lowest step of staircase i, the y in [0, v) with u y = -i (mod v); period v in i."""
        if i < 0:
            raise ValueError(f"staircase index must be >= 0, got {i}")
        return -i * pow(self.u, -1, self.v) % self.v


def make_sector(n: int, m: int) -> SectorSpec:
    """Normalized sector of slope n/m; the fraction is reduced first."""
    if n < 1:
        raise ValueError(f"sector needs n >= 1, got n={n}")
    if m < 0:
        raise ValueError(f"sector needs m >= 0, got m={m}")
    g = gcd(n, m)
    return SectorSpec(n // g, m // g)


@dataclass(frozen=True)
class UnimodularMap:
    """2x2 matrix [[a, b], [c, d]] with determinant exactly +1 or -1.

    Entries may be non-integral rationals (the skew [[1, -(m-1)/n], [0, 1]]
    that straightens a sector's staircases has denominator n); whether a
    mapped point stays on a lattice is checked by callers, never assumed.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _frac(getattr(self, f.name)))
        if self.determinant not in (1, -1):
            raise ValueError(f"matrix determinant {self.determinant} is not +-1")

    @property
    def determinant(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def apply(self, point) -> tuple[Fraction, Fraction]:
        x, y = point
        return (self.a * x + self.b * y, self.c * x + self.d * y)

    def compose(self, other: "UnimodularMap") -> "UnimodularMap":
        """Matrix product self * other, i.e. apply ``other`` first."""
        return UnimodularMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    __matmul__ = compose

    def inverse(self) -> "UnimodularMap":
        det = self.determinant
        return UnimodularMap(self.d / det, -self.b / det, -self.c / det, self.a / det)


def shear_map(t: int) -> UnimodularMap:
    """The integral shear (x, y) -> (x + t y, y)."""
    return UnimodularMap(1, t, 0, 1)


def x_axis_reflection() -> UnimodularMap:
    return UnimodularMap(1, 0, 0, -1)


def reduce_general_sector(omega1, omega2) -> tuple[UnimodularMap, SectorSpec]:
    """Reduce the cone spanned by omega1 and omega2 to a standard sector.

    omega1 = (r, s) must be a coprime integer pair with r >= 1.  The returned
    map has determinant +-1, sends omega1 to a positive multiple of (1, 0) and
    omega2 into the first quadrant; a reflection and an integral shear are
    composed in only when needed.  The second value is the sector spanned by
    the two image rays.  omega2 must be exact (integers or Fractions); floats
    raise TypeError.
    """
    r, s = omega1
    if not (isinstance(r, int) and isinstance(s, int)):
        raise TypeError("omega1 must be a pair of integers")
    if r < 1:
        raise ValueError(f"omega1 must have positive x-coordinate, got {omega1}")
    g, a, b = extended_gcd(r, s)
    if g != 1:
        raise ValueError(f"omega1 coordinates must be coprime, got {omega1}")

    total = UnimodularMap(a, b, -s, r)
    vx, vy = total.apply((_frac(omega2[0]), _frac(omega2[1])))

    if vy == 0:
        raise ValueError(f"omega2 {omega2} is parallel to omega1 {omega1}")
    if vy < 0:
        total = x_axis_reflection() @ total
        vy = -vy
    if vx < 0:
        t = -floor(vx / vy)
        total = shear_map(t) @ total
        vx = vx + t * vy

    if vx == 0:
        return total, SectorSpec(1, 0)
    slope = vy / vx
    return total, make_sector(slope.numerator, slope.denominator)
