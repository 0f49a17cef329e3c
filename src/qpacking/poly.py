"""Exact bivariate quadratics and the closed forms of the sector classification.

A polynomial is stored by its six monomial coefficients (x^2, xy, y^2, x, y, 1),
all exact rationals; that basis is canonical and equality is coefficient-wise.
Callers pass ``Fraction``s or ints: the record converts nothing.
The alpha basis (A/2) x(x-1) + B xy + (C/2) y(y-1) + D x + E y + F, with all
six coefficients integral, is the form every packing polynomial must take;
``doubled`` is the one place its map to the monomial basis is written.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .geometry import SectorSpec, Staircases

_MONOMIALS = ("x^2", "x*y", "y^2", "x", "y", "")  # of the six coefficients, in order; the constant's is empty


class QuadPoly(NamedTuple):
    """Bivariate quadratic with exact rational coefficients (monomial basis), each a ``Fraction`` or an int."""

    c_xx: Fraction
    c_xy: Fraction
    c_yy: Fraction
    c_x: Fraction
    c_y: Fraction
    c_0: Fraction

    def __call__(self, x, y) -> Fraction:
        return (
            self.c_xx * x * x + self.c_xy * x * y + self.c_yy * y * y
            + self.c_x * x + self.c_y * y + self.c_0
        )

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(self)


def doubled(A: int, B: int, C: int, D: int, E: int, F: int) -> tuple[int, ...]:
    """The integer monomial coefficients of 2p, for p with alpha-form coefficients A, B, C, D, E, F."""
    return A, 2 * B, C, 2 * D - A, 2 * E - C, 2 * F


class AlphaFormCoeffs(NamedTuple):
    A: int
    B: int
    C: int
    D: int
    E: int
    F: int

    def to_poly(self) -> QuadPoly:
        return QuadPoly(*(Fraction(c, 2) for c in doubled(*self)))


def to_alpha_form(p: QuadPoly) -> AlphaFormCoeffs:
    """Exact change of basis into the alpha form; round-trips with ``to_poly``."""
    derived = (2 * p.c_xx, p.c_xy, 2 * p.c_yy, p.c_x + p.c_xx, p.c_y + p.c_yy, p.c_0)
    out = []
    for monomial, value in zip(_MONOMIALS, derived):
        if value.denominator != 1:
            raise ValueError(f"alpha-form coefficient at {monomial or '1'} is {value}, not an integer")
        out.append(int(value))
    return AlphaFormCoeffs(*out)


def step_difference(p: QuadPoly, st: Staircases) -> Fraction:
    """Constant difference of p across consecutive staircase steps of the sector of the record ``st``.

    The step vector is (u, v) = ((m-1)/l, n/l); the difference must be independent of
    the step, which is asserted symbolically (the difference polynomial has to
    be degree 0), not sampled.
    """
    dx, dy = st.u, st.v
    rem_x = 2 * p.c_xx * dx + p.c_xy * dy
    rem_y = p.c_xy * dx + 2 * p.c_yy * dy
    if rem_x != 0 or rem_y != 0:
        raise ValueError(
            f"step difference along ({dx}, {dy}) is not constant: "
            f"residual {rem_x}*x + {rem_y}*y"
        )
    return (
        p.c_xx * dx * dx + p.c_xy * dx * dy + p.c_yy * dy * dy
        + p.c_x * dx + p.c_y * dy
    )


K_ORDER = (1, -1, 2, -2, 3, -3)  # the possible step constants k, in the order classify lists them


def packing_coefficients(n: int, m: int, k: int) -> tuple[tuple[int, int], ...]:
    """Monomial coefficients (x^2, xy, y^2, x, y, 1) of the packing polynomial of sector n/m with step constant k.

    The one home of the closed form: with l = gcd(m-1, n) it is the expansion of
    (n/2)(x - ((m-1)/n) y)(x - ((m-1)/n) y - kl/n) + x + ((kl - (m-1))/n) y + |k| - 1.
    Each coefficient is an integer pair (num, den) in lowest terms with den > 0, as a ``Fraction`` holds it.
    This is pure algebra, with no admissibility check: k is one of ``K_ORDER``.
    """
    kl = k * gcd(m - 1, n)
    pairs = ((n, 2), (1 - m, 1), ((m - 1) ** 2, 2 * n), (2 - kl, 2), (kl * (m - 1) + 2 * (kl - (m - 1)), 2 * n),
             (abs(k) - 1, 1))
    return tuple([(num // (g := gcd(num, den)), den // g) for num, den in pairs])


def packing_polynomial(s: SectorSpec, k: int) -> QuadPoly:
    """The packing polynomial of the sector with step constant k, as a ``QuadPoly``.

    Its coefficients are ``packing_coefficients(s.n, s.m, k)``, the one home of the closed form.
    """
    return QuadPoly(*(Fraction(num, den) for num, den in packing_coefficients(s.n, s.m, k)))


# -- canonical text rendering -------------------------------------------------

def _term_body(coeff: Fraction, monomial: str) -> str:
    mag = abs(coeff)
    if not monomial:
        return str(mag)
    if mag == 1:
        return monomial
    return f"{mag}*{monomial}"


def format_poly(p: QuadPoly) -> str:
    """Canonical rendering, monomials in the order x^2, xy, y^2, x, y, 1."""
    text = ""
    for monomial, coeff in zip(_MONOMIALS, p):
        if coeff == 0:
            continue
        if text:
            text += " - " if coeff < 0 else " + "
        elif coeff < 0:
            text = "-"
        text += _term_body(coeff, monomial)
    return text or "0"


def format_factored(st: Staircases, k: int) -> str:
    """The classified polynomial with step constant k of the sector of the record ``st``, in its factored layout.

    (n/2)*(x - ((m-1)/n) y)*(x - ((m-1)/n) y - kl/n) + x + ((kl-(m-1))/n) y + |k|-1
    with zero pieces dropped, its rationals reduced: (m-1)/n = u/v, kl/n = k/v and
    (kl-(m-1))/n = (k-u)/v.  Each linear piece is a ``format_poly`` text; a factor keeps its
    parentheses unless it is just x.
    """
    beta = Fraction(st.u, st.v)
    first, second, tail = (
        format_poly(QuadPoly(0, 0, 0, 1, y_coeff, const))
        for y_coeff, const in ((-beta, 0), (-beta, Fraction(-k, st.v)), (Fraction(k - st.u, st.v), abs(k) - 1))
    )
    factors = "*".join(text if text == "x" else f"({text})" for text in (first, second))
    scale = Fraction(st.n, 2)
    prefix = "" if scale == 1 else f"{scale}*"
    return f"{prefix}{factors} + {tail}"
