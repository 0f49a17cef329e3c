"""The decision procedure listing all quadratic packing polynomials of a sector.

With l = gcd(m-1, n) and u = (m-1)/l, a sector admits packing polynomials only
when n | l^2 (equivalently n | (m-1)^2).  The step constant k of any packing
polynomial then lies in {+-1, +-2, +-3} and must satisfy, sign included,

    u = k (mod n/l),   and   l^2/n = 4 when |k| = 2,   l^2/n = 3 when |k| = 3.

Each admissible k yields exactly one polynomial, the expanded closed form whose
six coefficients ``poly.packing_coefficients`` gives as integer (num, den) pairs
in lowest terms.  The two signs of k are admitted independently: for n/l >= 3 a
sector can carry one packing polynomial (9/4 carries only k = 1; its descending
partner lives on the flipped sector 9/7), so a sector has 0, 1, 2, or 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import SectorSpec
from .poly import K_ORDER, AlphaFormCoeffs, QuadPoly, packing_polynomial, to_alpha_form


@dataclass(frozen=True)
class SectorArithmetic:
    """Derived sector invariants driving the classification."""

    l: int
    n_over_l: int
    l2_over_n: Fraction
    divides_n_l2: bool


@dataclass(frozen=True)
class ClassifiedQPP:
    """A packing polynomial together with its step constant and derived data."""

    sector: SectorSpec
    k: int
    poly: QuadPoly
    alpha_form: AlphaFormCoeffs


def sector_arithmetic(s: SectorSpec) -> SectorArithmetic:
    l2_over_n = Fraction(s.l ** 2, s.n)
    return SectorArithmetic(s.l, s.n_over_l, l2_over_n, l2_over_n.denominator == 1)


def forced_quadratic_coeffs(s: SectorSpec) -> tuple[int, int, int] | None:
    """The only possible (A, B, C) alpha coefficients: (n, 1-m, (m-1)^2/n).

    Returns None when n does not divide (m-1)^2, in which case the sector has
    no packing polynomial at all.
    """
    if (s.m - 1) ** 2 % s.n != 0:
        return None
    return (s.n, 1 - s.m, (s.m - 1) ** 2 // s.n)


def admissible_ks(s: SectorSpec, ar: SectorArithmetic) -> list[int]:
    """The step constants k, in ``K_ORDER``, for which the sector carries a packing polynomial.

    ``ar`` is ``sector_arithmetic(s)``; |k| = 2, 3 need l^2/n = 4, 3.
    """
    if not ar.divides_n_l2:
        return []
    u = (s.m - 1) // ar.l
    need = {2: 4, 3: 3}
    return [k for k in K_ORDER if need.get(abs(k), ar.l2_over_n) == ar.l2_over_n and (k - u) % ar.n_over_l == 0]


def classify(s: SectorSpec) -> list[ClassifiedQPP]:
    """All packing polynomials of the sector, in the fixed order k = 1, -1, 2, -2, 3, -3."""
    out = []
    for k in admissible_ks(s, sector_arithmetic(s)):
        poly = packing_polynomial(s, k)
        out.append(ClassifiedQPP(s, k, poly, to_alpha_form(poly)))
    return out


def no_qpp_reason(s: SectorSpec, ar: SectorArithmetic) -> str:
    """Why a sector whose ``classify`` list is empty has no packing polynomial; ``ar`` is ``sector_arithmetic(s)``."""
    if not ar.divides_n_l2:
        return f"{s.n} does not divide ({s.m}-1)^2 = {(s.m - 1) ** 2}"
    return "no admissible k: the congruence and l^2/n conditions all fail"

