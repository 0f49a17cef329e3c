"""Exact plane geometry for rational sectors.

A sector is the wedge between the positive x-axis and the ray of slope n/m, given by the
coprime pair (n, m).  ``make_sector``, the one constructor for outside input, checks a pair and
reduces it; ``atlas.build_atlas`` builds coprime pairs.  ``Staircases`` records a sector's
staircase arithmetic, and ``classify.sector_arithmetic`` is its one builder; ``poly`` and ``atlas``
compute l = gcd(m-1, n) from integers.  Points are plain integer ``(x, y)`` tuples.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple


class SectorSpec(NamedTuple):
    """The sector {(x, y): 0 <= y <= (n/m) x} for coprime n >= 1, m >= 0.

    m = 0 encodes infinite slope, i.e. the first quadrant; coprimality
    (gcd(n, 0) = n) then forces n = 1.  ``make_sector`` checks this; the record does not.
    """

    n: int
    m: int

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
