"""The decision procedure listing all quadratic packing polynomials of a sector.

``sector_arithmetic`` builds the sector's staircase record (``geometry.Staircases``):
l = gcd(m-1, n), v = n/l, u = (m-1)/l, l^2/n and whether n | l^2.  A sector admits
packing polynomials only when n | l^2 (equivalently n | (m-1)^2).  The step
constant k of any packing polynomial then lies in {+-1, +-2, +-3} and must
satisfy, sign included,

    u = k (mod v),   and   l^2/n = 4 when |k| = 2,   l^2/n = 3 when |k| = 3.

Each admissible k yields exactly one polynomial, the expanded closed form whose
six coefficients ``poly.packing_coefficients`` gives as integer (num, den) pairs
in lowest terms.  The two signs of k are admitted independently: for n/l >= 3 a
sector can carry one packing polynomial (9/4 carries only k = 1; its descending
partner lives on the flipped sector 9/7), so a sector has 0, 1, 2, or 4.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .geometry import SectorSpec, Staircases
from .poly import K_ORDER, AlphaFormCoeffs, QuadPoly, packing_polynomial, to_alpha_form


class ClassifiedQPP(NamedTuple):
    """A packing polynomial together with its step constant and derived data."""

    sector: SectorSpec
    k: int
    poly: QuadPoly
    alpha_form: AlphaFormCoeffs


def sector_arithmetic(s: SectorSpec) -> Staircases:
    """The sector's staircase record, and its one builder; ``poly`` and ``atlas`` compute l from integers too."""
    l = gcd(s.m - 1, s.n)
    l2_over_n = Fraction(l * l, s.n)
    return Staircases(s.n, l, s.n // l, (s.m - 1) // l, l2_over_n, l2_over_n.denominator == 1)


def forced_quadratic_coeffs(st: Staircases) -> tuple[int, int, int] | None:
    """The only possible (A, B, C) alpha coefficients: (n, 1-m, (m-1)^2/n) = (n, -u l, u^2 l^2/n).

    ``st`` is the sector's ``sector_arithmetic``.  Returns None when n does not divide l^2, in which
    case the sector has no packing polynomial at all.
    """
    if not st.divides_n_l2:
        return None
    return (st.n, -st.u * st.l, st.u * st.u * st.l2_over_n.numerator)


def admissible_ks(st: Staircases) -> list[int]:
    """The step constants k, in ``K_ORDER``, for which the sector of the record ``st`` carries a packing polynomial.

    They need n | l^2, k = u (mod v), and l^2/n = 4 or 3 when |k| = 2 or 3.
    """
    if not st.divides_n_l2:
        return []
    need = {2: 4, 3: 3}
    return [k for k in K_ORDER if need.get(abs(k), st.l2_over_n) == st.l2_over_n and (k - st.u) % st.v == 0]


def classify(s: SectorSpec) -> list[ClassifiedQPP]:
    """All packing polynomials of the sector, in the fixed order k = 1, -1, 2, -2, 3, -3."""
    out = []
    for k in admissible_ks(sector_arithmetic(s)):
        poly = packing_polynomial(s, k)
        out.append(ClassifiedQPP(s, k, poly, to_alpha_form(poly)))
    return out


def no_qpp_reason(s: SectorSpec, st: Staircases) -> str:
    """Why a sector whose ``classify`` list is empty has no packing polynomial; ``st`` is ``sector_arithmetic(s)``."""
    if not st.divides_n_l2:
        return f"{s.n} does not divide ({s.m}-1)^2 = {(s.m - 1) ** 2}"
    return "no admissible k: the congruence and l^2/n conditions all fail"

