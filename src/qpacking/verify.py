"""Independent verification of packing behaviour on certified finite windows.

A finite check can only prove packing up to a threshold: after enumerating the
window x <= x_max, the exact infimum of the polynomial over the remaining real
cone x > x_max bounds every unexamined lattice value from below.  With
T = floor(infimum) - 1, a window whose values are distinct non-negative
integers containing all of {0, ..., T} certifies that the polynomial packs the
initial segment {0, ..., T} correctly, no matter what happens further out.

Window values are exact integers from one place: ``window_values`` evaluates
L*p, with L the lcm of p's coefficient denominators, on the arrays of
``_window``.  These are int64 only when the window's real x and y extents prove
that nothing can overflow, and hold Python ints otherwise.

``brute_force_search`` rediscovers classifications without trusting them: it
scans integer boxes of the non-constant alpha-form coefficients in the calling
process, derives the one constant term that puts the window minimum at 0 (no
other can pass), discards candidates by exact integer arithmetic (a constant
term outside its box or a collision inside the window is final), and accepts
only candidates that earn a passing certificate from ``packing_window_verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor, gcd, lcm
from typing import Literal

import numpy as np

from .classify import forced_quadratic_coeffs
from .geometry import SectorSpec
from .poly import AlphaFormCoeffs, QuadPoly, transformed_polynomial
from .staircase import first_step_y, lattice_window

FailureKind = Literal[
    "negative_value",
    "non_integral_value",
    "collision",
    "coverage_gap",
    "tail_unbounded",
    "tail_below_zero",
]


@dataclass(frozen=True)
class Failure:
    kind: FailureKind
    message: str
    witnesses: tuple = ()
    value: Fraction | None = None
    missing: int | None = None


@dataclass(frozen=True)
class WindowCertificate:
    """Outcome of a certified window check.

    On a pass, every value <= threshold is achieved exactly once inside the
    enumerated window and the exact tail bound proves no other lattice point
    can reach it.
    """

    x_max: int
    threshold: int | None
    floor_bound: Fraction | None
    failure: Failure | None

    @property
    def ok(self) -> bool:
        return self.failure is None


# -- exact infimum over the truncated sector ---------------------------------


def _qform(p: QuadPoly, d) -> Fraction:
    return p.c_xx * d[0] * d[0] + p.c_xy * d[0] * d[1] + p.c_yy * d[1] * d[1]


def _qbil(p: QuadPoly, z, d) -> Fraction:
    return (
        p.c_xx * z[0] * d[0]
        + p.c_xy * (z[0] * d[1] + z[1] * d[0]) / 2
        + p.c_yy * z[1] * d[1]
    )


def _linear(p: QuadPoly, d) -> Fraction:
    return p.c_x * d[0] + p.c_y * d[1]


def _restrict(p: QuadPoly, base, direction) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (a, b, c) of t -> p(base + t * direction)."""
    return (
        _qform(p, direction),
        2 * _qbil(p, base, direction) + _linear(p, direction),
        p(*base),
    )


def _min_halfline(g) -> Fraction | None:
    """Exact min of a t^2 + b t + c over t >= 0; None when unbounded below."""
    a, b, c = g
    if a > 0:
        if -b <= 0:
            return c
        return c - b * b / (4 * a)
    if a == 0:
        return c if b >= 0 else None
    return None


def _min_segment(g, t_hi: Fraction) -> Fraction:
    """Exact min of a t^2 + b t + c over 0 <= t <= t_hi."""
    a, b, c = g
    end = a * t_hi * t_hi + b * t_hi + c
    if a > 0:
        t_star = -b / (2 * a)
        if 0 < t_star < t_hi:
            return c - b * b / (4 * a)
    return min(c, end)


def value_floor(p: QuadPoly, s: SectorSpec, x_min) -> Fraction | None:
    """Exact infimum of p over {(x, y): x >= x_min} within the sector region.

    For the first quadrant the region is {x >= x_min, y >= 0}.  Returns None
    when the infimum is -infinity.  The region is a 2-D truncated cone, so the
    infimum is found by exact case analysis: recession directions first (to
    detect unboundedness, including interior valley directions the boundary
    never sees), then the boundary rays, the truncation edge, and any interior
    stationary point.
    """
    x_min = Fraction(x_min)
    d0 = (Fraction(1), Fraction(0))
    d1 = (Fraction(0), Fraction(1)) if s.m == 0 else (Fraction(s.m), Fraction(s.n))

    # Unboundedness over the recession cone spanned by d0 and d1.
    qa, qc = _qform(p, d0), _qform(p, d1)
    qb = 2 * _qbil(p, d0, d1)
    if qa < 0 or qc < 0:
        return None
    if qb < 0 and qb * qb > 4 * qa * qc:
        return None
    if qa == 0 and _linear(p, d0) < 0:
        return None
    if qc == 0 and _linear(p, d1) < 0:
        return None
    if qb < 0 and qb * qb == 4 * qa * qc and qa > 0:
        # The quadratic part vanishes along one interior direction; the
        # linear part decides boundedness there.
        null_dir = (-qb * d0[0] + 2 * qa * d1[0], -qb * d0[1] + 2 * qa * d1[1])
        if _linear(p, null_dir) < 0:
            return None

    x_lo = max(x_min, Fraction(0))
    candidates = []

    r = _min_halfline(_restrict(p, (x_lo, Fraction(0)), d0))
    if r is None:
        return None
    candidates.append(r)

    if s.m == 0:
        r = _min_halfline(_restrict(p, (x_lo, Fraction(0)), d1))
        if r is None:
            return None
        candidates.append(r)
    else:
        y_edge = Fraction(s.n, s.m) * x_lo
        r = _min_halfline(_restrict(p, (x_lo, y_edge), d1))
        if r is None:
            return None
        candidates.append(r)
        if x_lo > 0:
            candidates.append(_min_segment(_restrict(p, (x_lo, Fraction(0)), (Fraction(0), Fraction(1))), y_edge))

    det = 4 * p.c_xx * p.c_yy - p.c_xy * p.c_xy
    if det != 0:
        # Unique stationary point; a minimum can hide in the interior only
        # when the Hessian is nonsingular (otherwise the critical value also
        # occurs on the boundary).
        x_star = (p.c_xy * p.c_y - 2 * p.c_yy * p.c_x) / det
        y_star = (p.c_xy * p.c_x - 2 * p.c_xx * p.c_y) / det
        inside = x_star >= x_min and y_star >= 0 and (s.m == 0 or s.m * y_star <= s.n * x_star)
        if inside:
            candidates.append(p(x_star, y_star))

    return min(candidates)


# -- certified window verification --------------------------------------------


def _window_tail_floor(p: QuadPoly, s: SectorSpec, x_max: int) -> Fraction | None:
    """Exact lower bound for p over every sector point outside the window.

    For m >= 1 the window is the full sector slice x <= x_max, so its
    complement is {x > x_max}.  For the first quadrant the window is a box and
    the complement is {x > x_max} union {y > x_max}; the second strip is the
    first under coordinate swap, so it is bounded through the swapped
    polynomial.
    """
    bound = value_floor(p, s, x_max + 1)
    if s.m != 0 or bound is None:
        return bound
    swapped = QuadPoly(p.c_yy, p.c_xy, p.c_xx, p.c_y, p.c_x, p.c_0)
    other = value_floor(swapped, s, x_max + 1)
    return None if other is None else min(bound, other)


def _window(s: SectorSpec, x_max: int, cap: int) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """The window x <= x_max as its points and their x and y arrays.

    On the window, a quadratic with integer coefficients of size at most cap,
    and each of its partial sums, has size at most cap * (x_max + y_top + 1)^2.
    The arrays are int64 when that is below 2^62, else Python-int object arrays.
    """
    pts = lattice_window(s, x_max)
    y_top = pts[-1][1]
    dtype = np.int64 if cap * (x_max + y_top + 1) ** 2 < 2 ** 62 else object
    xs = np.array([x for x, _ in pts], dtype=dtype)
    ys = np.array([y for _, y in pts], dtype=dtype)
    return pts, xs, ys


def window_values(p: QuadPoly, s: SectorSpec, x_max: int) -> tuple[list[tuple[int, int]], int, np.ndarray]:
    """(points, L, L*p at each point) on the window x <= x_max, exactly.

    L is the lcm of p's coefficient denominators: p(pt) is integral iff L divides L*p(pt).
    """
    scale = lcm(*(c.denominator for c in p.coefficients()))
    a, b, c, d, e, f = (int(q * scale) for q in p.coefficients())
    pts, xs, ys = _window(s, x_max, max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f)))
    return pts, scale, a * xs * xs + b * xs * ys + c * ys * ys + d * xs + e * ys + f


def packing_window_verify(p: QuadPoly, s: SectorSpec, x_max: int) -> WindowCertificate:
    """Check the packing property on the window x <= x_max with a certified threshold."""
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    pts, scale, vals = window_values(p, s, x_max)
    seen: dict[int, tuple[int, int]] = {}
    for pt, scaled in zip(pts, vals.tolist()):
        v, rem = divmod(scaled, scale)
        if rem:
            value = Fraction(scaled, scale)
            return WindowCertificate(x_max, None, None, Failure(
                "non_integral_value", f"value {value} at {pt} is not an integer",
                witnesses=(pt,), value=value))
        if v < 0:
            return WindowCertificate(x_max, None, None, Failure(
                "negative_value", f"value {v} at {pt} is negative",
                witnesses=(pt,), value=Fraction(v)))
        if v in seen:
            return WindowCertificate(x_max, None, None, Failure(
                "collision", f"value {v} taken at both {seen[v]} and {pt}",
                witnesses=(seen[v], pt), value=Fraction(v)))
        seen[v] = pt

    bound = _window_tail_floor(p, s, x_max)
    if bound is None:
        return WindowCertificate(x_max, None, None, Failure(
            "tail_unbounded", f"polynomial is unbounded below outside the window x <= {x_max}"))
    threshold = floor(bound) - 1
    if threshold < 0:
        return WindowCertificate(x_max, threshold, bound, Failure(
            "tail_below_zero",
            f"tail lower bound {bound} certifies no threshold; enlarge the window"))
    for t in range(threshold + 1):
        if t not in seen:
            return WindowCertificate(x_max, threshold, bound, Failure(
                "coverage_gap", f"value {t} is not attained on the window", missing=t))
    return WindowCertificate(x_max, threshold, bound, None)


def first_steps_cover_range(s: SectorSpec, k: int, f_const: int) -> bool:
    """Whether the transformed polynomial takes exactly {0, ..., k-1} on the
    first steps of the first k staircases (k > 0)."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    p = transformed_polynomial(s, k, f_const)
    v = s.n // gcd(s.m - 1, s.n)
    values = set()
    for i in range(k):
        value = p(Fraction(i, v), first_step_y(s, i))
        if value.denominator != 1:
            return False
        values.add(int(value))
    return values == set(range(k))


# -- exhaustive coefficient search ---------------------------------------------


@dataclass(frozen=True)
class SearchBounds:
    """Inclusive coefficient ranges; a/b/c are needed only in full mode."""

    d: tuple[int, int]
    e: tuple[int, int]
    f: tuple[int, int]
    a: tuple[int, int] | None = None
    b: tuple[int, int] | None = None
    c: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        for name in ("d", "e", "f", "a", "b", "c"):
            rng = getattr(self, name)
            if rng is not None and rng[0] > rng[1]:
                raise ValueError(f"empty bound for {name}: [{rng[0]}, {rng[1]}]")


def brute_force_search(
    s: SectorSpec,
    bounds: SearchBounds,
    mode: Literal["restricted", "full"] = "restricted",
    x_max: int = 25,
    t_min: int | None = None,
    jobs: int = 1,
) -> list[QuadPoly]:
    """Exhaustively search integer alpha-form coefficients for packing polynomials.

    Restricted mode pins (A, B, C) to the sector's forced quadratic part and
    scans (D, E); full mode scans (A, B, C, D, E) with A >= 1.  A passing
    certificate needs every window value non-negative and the value 0 taken,
    so the window minimum of the candidate is 0: each (A, B, C, D, E) fixes
    its constant term F as minus the minimum of the rest, and only that F,
    when it lies in ``bounds.f``, can be accepted.  Candidates are prescreened
    in int64 on the window arrays from ``_window``, whose bound covers every
    alpha-form value with coefficients inside the box, so the prescreen is
    exact and drops only provably failing candidates.  Bounds for which
    ``_window`` cannot prove that are refused with ``ValueError``.  Each
    accepted polynomial carries a passing certificate from
    ``packing_window_verify`` at the configured window, with threshold at
    least ``t_min`` when given.  Output is sorted by coefficient tuple.

    The search runs in the calling process.  ``jobs`` is still validated and
    otherwise unused: the CLI's ``--jobs`` passes it, and the benchmark's
    tracer reads it from each call.
    """
    if mode not in ("restricted", "full"):
        raise ValueError(f"unknown search mode {mode!r}")
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if t_min is not None and t_min < 0:
        raise ValueError(f"t_min must be >= 0, got {t_min}")

    if mode == "restricted":
        fixed = forced_quadratic_coeffs(s)
        if fixed is None:
            return []
        abc_ranges = [(c, c) for c in fixed]
    else:
        if bounds.a is None or bounds.b is None or bounds.c is None:
            raise ValueError("full mode needs a, b and c bounds")
        if bounds.a[0] < 1:
            raise ValueError(f"full mode needs A >= 1, got lower bound {bounds.a[0]}")
        abc_ranges = [bounds.a, bounds.b, bounds.c]

    coeff_cap = max(abs(v) for r in (bounds.d, bounds.e, bounds.f, *abc_ranges) for v in r)
    _, xs, ys = _window(s, x_max, coeff_cap)
    if xs.dtype == object:
        raise ValueError("search bounds too large for exact 64-bit prescreening")
    half_x = (xs * (xs - 1)) // 2
    half_y = (ys * (ys - 1)) // 2
    xy = xs * ys

    found = []
    for A, B, C in product(*(range(lo, hi + 1) for lo, hi in abc_ranges)):
        base = A * half_x + B * xy + C * half_y
        for D in range(bounds.d[0], bounds.d[1] + 1):
            base_d = base + D * xs
            for E in range(bounds.e[0], bounds.e[1] + 1):
                vals = np.sort(base_d + E * ys)
                F = -int(vals[0])
                if not bounds.f[0] <= F <= bounds.f[1] or (np.diff(vals) == 0).any():
                    continue
                # With F added the distinct values start at 0, so they hold
                # {0..t_min} exactly when the one at rank t_min is t_min.
                if t_min is not None and (t_min >= vals.size or int(vals[t_min]) + F != t_min):
                    continue
                candidate = AlphaFormCoeffs(A, B, C, D, E, F).to_poly()
                cert = packing_window_verify(candidate, s, x_max)
                if cert.ok and (t_min is None or cert.threshold >= t_min):
                    found.append(candidate)
    found.sort(key=QuadPoly.coefficients)
    return found
