"""Independent verification of packing behaviour on certified finite windows.

A finite check can only prove packing up to a threshold: after enumerating the
window x <= x_max, the exact infimum of the polynomial over the remaining real
cone x > x_max bounds every unexamined lattice value from below.  With
T = floor(infimum) - 1, a window whose values are distinct non-negative
integers containing all of {0, ..., T} certifies that the polynomial packs the
initial segment {0, ..., T} correctly, no matter what happens further out.

Window values are exact integers from one place: ``window_values`` evaluates
L*p, with L the lcm of p's coefficient denominators, on the window's rows, in
int32 or int64 only when ``_window_dtype`` proves that nothing can overflow.
The certificate sorts them once.  Only a failing window is ranked, stably, to
name its witness: the first point in ``lattice_window`` order that is
non-integral, negative or a repeat, by the first such check.  A passing
window's first missing value comes from the sorted values.  The bound on the
points a window leaves out also has one place: ``value_floor`` floors an
integer quadratic, such as L*p, over the sector's points with x >= x_lo, an
integer >= 0, and ``_verdict`` calls it at x_max + 1 (on the quadrant once more
for the strip y > x_max).  Its case analysis tests the directions inside the
cone for unboundedness and lets the two boundary rays decide the boundary
directions.  It keeps every candidate minimum as an integer pair (num, den),
compares them by cross-multiplication, and the certificate builds one
``Fraction`` at the end.

``brute_force_search`` rediscovers classifications without trusting them: it
scans integer boxes of the non-constant alpha-form coefficients in the calling
process and derives the one constant term that puts the window minimum at 0
(no other can pass).  Its stages, each exact:

1. ``_prescreen`` discards candidates by exact integer arithmetic, float64
   products on BLAS for int32 windows and int64 products otherwise (an F
   outside its box or a window collision is final), in blocks of at most
   ``_BLOCK`` values.  One screen, ``_screen``, keeps the candidates whose
   values on a point set are distinct and need F = -min in a range, and runs
   on two point sets: the sieve, the ``_SIEVE`` window points nearest the
   origin, with F from 0 to the top of its box, then the whole window, with
   F in its box, on what the sieve keeps; each survivor is yielded with the
   first value missing from its window;
2. ``_verdict``, the certificate's own tail, threshold and coverage verdict,
   judges each survivor's 2p without rebuilding the window, and accepts it
   when it finds no failure and T >= t_min, the one place t_min is applied;
3. each accepted hit gets ``packing_window_verify``'s certificate.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from math import lcm, prod
from typing import Literal, NamedTuple

import numpy as np

from .classify import forced_quadratic_coeffs, sector_arithmetic
from .geometry import SectorSpec
from .poly import AlphaFormCoeffs, QuadPoly, doubled
from .staircase import lattice_window

FailureKind = Literal[
    "negative_value",
    "non_integral_value",
    "collision",
    "coverage_gap",
    "tail_unbounded",
    "tail_below_zero",
]


MAX_WINDOW_POINTS = 4_000_000  # lattice points in a window's bounding box (x_max + 1)(y_top + 1)
MAX_WINDOW_BITS = 4_000_000_000  # box points times the bit length of the size bound, for Python-int windows
MAX_CANDIDATES = 1_000_000  # (A, B, C, D, E) candidates in a search box; F is derived, not scanned
MAX_SEARCH_WORK = 10 ** 9  # search box candidates times the lattice points in the window's bounding box
_MAX_PRINTED_BITS = 13_000  # about 3,900 digits, under the 4,300 digits Python converts to text


def number_text(q: int | Fraction) -> str:
    """``str(q)``, or q rounded to 12 significant digits when it has too many digits to print.

    Python refuses to convert an int of more than 4,300 digits to text.  A tail floor can be that
    long even when every coefficient has at most 1,000 digits: its numerator and denominator grow
    with products of the coefficients and the lcm of their denominators.  A window value can be
    when a coefficient is longer.
    """
    q = Fraction(q)
    if max(q.numerator.bit_length(), q.denominator.bit_length()) <= _MAX_PRINTED_BITS:
        return str(q)
    return f"{Context(prec=12).divide(Decimal(q.numerator), Decimal(q.denominator))} (rounded)"


class Failure(NamedTuple):
    kind: FailureKind
    message: str
    witnesses: tuple = ()
    value: Fraction | None = None
    missing: int | None = None


class WindowCertificate(NamedTuple):
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


def _halfline_min(a: int, bn: int, cn: int, den: int) -> tuple[int, int] | None:
    """Min over t >= 0 of a t^2 + (bn/den) t + cn/den^2 as (num, den > 0); None when unbounded below."""
    if a < 0 or (a == 0 and bn < 0):
        return None
    if a > 0 and bn < 0:
        return 4 * a * cn - bn * bn, 4 * a * den * den
    return cn, den * den


def _smallest(candidates: list[tuple[int, int]]) -> tuple[int, int]:
    """The smallest of the fractions num/den (den > 0), compared by cross-multiplication."""
    num, den = candidates[0]
    for cn, cd in candidates[1:]:
        if cn * den < num * cd:
            num, den = cn, cd
    return num, den


def value_floor(coeffs: tuple[int, ...], s: SectorSpec, x_lo: int) -> tuple[int, int] | None:
    """Exact infimum of the quadratic with integer coefficients ``coeffs`` (a, b, c, d, e, f of
    a x^2 + b xy + c y^2 + d x + e y + f) over the sector region 0 <= y <= (n/m) x, the first
    quadrant when m = 0, with x >= x_lo, an integer >= 0.

    Returns (num, den > 0), or None when the infimum is -infinity.  The region is a 2-D truncated
    cone.  The directions inside its recession cone come first, as no boundary ray sees them; the
    two boundary rays from the edge x = x_lo then decide the boundary directions, and the edge and
    any interior stationary point give the other candidate minima.  Every candidate is an integer
    pair (num, den > 0), and candidates are compared by cross-multiplication.
    """
    a, b, c, d, e, f = coeffs
    m, n = s.m, s.n  # the second cone direction, (0, 1) on the quadrant; the first is (1, 0)

    # Unboundedness inside the recession cone spanned by (1, 0) and (m, n).
    qc = a * m * m + b * m * n + c * n * n
    qb = 2 * a * m + b * n
    if qb < 0 and qb * qb > 4 * a * qc:
        return None
    if qb < 0 and qb * qb == 4 * a * qc and a > 0 and d * (2 * a * m - qb) + e * 2 * a * n < 0:
        # The quadratic part vanishes along the interior direction
        # (2a m - qb, 2a n); the linear part decides boundedness there.
        return None

    # The boundary rays from the truncation edge x = x_lo decide the two boundary directions.
    corner = a * x_lo * x_lo + d * x_lo + f  # p(x_lo, 0)
    up = b * x_lo + e  # the slope of t -> p(x_lo, t) at t = 0
    rays = [(a, 2 * a * x_lo + d, corner, 1)]
    if s.m == 0:
        rays.append((c, up, corner, 1))
    else:
        # from (x_lo, n x_lo / m) = (m x_lo, n x_lo) / m along (m, n)
        lin = d * m + e * n
        rays.append((qc, 2 * x_lo * qc + lin * m, x_lo * x_lo * qc + x_lo * lin * m + f * m * m, m))
    candidates = []
    for ray in rays:
        r = _halfline_min(*ray)
        if r is None:
            return None
        candidates.append(r)
    if s.m != 0 and c > 0 and up < 0 and -up * m < 2 * c * n * x_lo:
        # The minimum of the edge segment x = x_lo, 0 <= y <= n x_lo / m lies
        # inside it; its end values are the starts of the two rays.
        candidates.append((4 * c * corner - up * up, 4 * c))

    det = 4 * a * c - b * b
    if det != 0:
        # Unique stationary point (xs, ys) / det; a minimum can hide in the
        # interior only when the Hessian is nonsingular (otherwise the
        # critical value also occurs on the boundary).
        xs, ys = b * e - 2 * c * d, b * d - 2 * a * e
        if det < 0:
            det, xs, ys = -det, -xs, -ys
        if xs >= x_lo * det and ys >= 0 and m * ys <= n * xs:
            candidates.append((2 * f * det + d * xs + e * ys, 2 * det))

    return _smallest(candidates)


def _verdict(coeffs: tuple[int, ...], scale: int, s: SectorSpec, x_max: int, missing: int):
    """(failure kind or None, tail floor (num, den) or None, T = floor(num / (den scale)) - 1 or None)
    of the quadratic coeffs / scale, whose window x <= x_max takes distinct integers >= 0 and misses ``missing``.

    The tail floor is the exact lower bound of the integer quadratic ``coeffs`` on the sector points
    outside the window, None when it is unbounded below there.  For m >= 1 the window's complement is
    {x > x_max}.  The first quadrant's window is a box, and its second strip {y > x_max} is the first
    under coordinate swap, so it is bounded through the swapped coefficients (c, b, a, e, d, f).
    """
    pair = value_floor(coeffs, s, x_max + 1)
    if s.m == 0 and pair is not None:
        a, b, c, d, e, f = coeffs
        other = value_floor((c, b, a, e, d, f), s, x_max + 1)
        pair = None if other is None else _smallest([pair, other])
    if pair is None:
        return "tail_unbounded", None, None
    threshold = pair[0] // (pair[1] * scale) - 1
    kind = "tail_below_zero" if threshold < 0 else "coverage_gap" if missing <= threshold else None
    return kind, pair, threshold


# -- certified window verification --------------------------------------------


def _box(s: SectorSpec, x_max: int) -> tuple[int, int]:
    """(y_top, the (x_max + 1)(y_top + 1) points of the bounding box) of the window x <= x_max."""
    y_top = x_max if s.m == 0 else s.n * x_max // s.m
    return y_top, (x_max + 1) * (y_top + 1)


def _window_dtype(s: SectorSpec, x_max: int, cap: int) -> type:
    """The dtype of the x and y rows of the window x <= x_max, ``lattice_window(s, x_max).T`` cast to it.

    This sizes the window and builds none of it.  A window whose bounding box
    (x_max + 1)(y_top + 1) holds more than ``MAX_WINDOW_POINTS`` points is
    refused with ``ValueError``.  On the window, a quadratic with integer
    coefficients of size at most cap has size at most cap * (x_max + y_top + 1)^2,
    and so has each partial sum of its Horner form in ``window_values``, and
    each partial sum, in any order, of the alpha-form products in
    ``_prescreen``: their terms are >= 0 and sum to at most (x + y + 1)^2.
    The rows are int32 when that bound is below 2^30, int64 when it is below
    2^62, and Python-int objects otherwise; int64 rows are views of the block
    ``lattice_window`` builds.  The memory of an object window's values grows
    with their digits, so one whose box points times the bit length of that
    bound exceed ``MAX_WINDOW_BITS`` is refused with ``ValueError`` too.  An
    int32 or int64 window never is.
    """
    y_top, box = _box(s, x_max)
    if box > MAX_WINDOW_POINTS:
        raise ValueError(f"window x <= {x_max} has a bounding box of {number_text(box)} lattice points, "
                         f"more than the limit of {MAX_WINDOW_POINTS}")
    bound = cap * (x_max + y_top + 1) ** 2
    dtype = np.int32 if bound < 2 ** 30 else np.int64 if bound < 2 ** 62 else object
    if dtype is object and box * bound.bit_length() > MAX_WINDOW_BITS:
        raise ValueError(f"window x <= {x_max} has {box} lattice points in its bounding box and values of up to "
                         f"{bound.bit_length()} bits: more than the limit of {MAX_WINDOW_BITS} point-bits")
    return dtype


def window_values(p: QuadPoly, s: SectorSpec, x_max: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray,
                                                                  tuple[int, ...]]:
    """(xs, ys, L, L*p at each point, the coefficients of L*p) on the window x <= x_max, exactly.

    L is the lcm of p's coefficient denominators, inside the size bound of ``_window_dtype`` so that L*p // L
    and L*p % L stay exact: p(pt) is integral iff L divides L*p(pt).  The window is sized first, and a
    window that ``_window_dtype`` refuses raises ``ValueError`` before any of its points is built.  L*p is
    evaluated in place in Horner form, (c y + b x + e) y + (a x + d) x + f, with two window-sized arrays;
    each partial sum is within that bound, so the values are exact in the rows' dtype.
    """
    rationals = p.coefficients()
    scale = lcm(*(q.denominator for q in rationals))
    coeffs = tuple(q.numerator * (scale // q.denominator) for q in rationals)
    a, b, c, d, e, f = coeffs
    dtype = _window_dtype(s, x_max, max(scale, *map(abs, coeffs)))
    xs, ys = lattice_window(s, x_max).T.astype(dtype, copy=False)
    vals = ys * c
    term = xs * b
    vals += term
    vals += e
    vals *= ys
    np.multiply(xs, a, out=term)
    term += d
    term *= xs
    vals += term
    vals += f
    return xs, ys, scale, vals, coeffs


def _first_missing(ranked: np.ndarray) -> np.ndarray:
    """For ascending distinct values >= 0 on the last axis, the first they miss: the first rank unequal to its value."""
    gaps = ranked != np.arange(ranked.shape[-1])
    return np.where(gaps.any(axis=-1), gaps.argmax(axis=-1), ranked.shape[-1])


def packing_window_verify(p: QuadPoly, s: SectorSpec, x_max: int) -> WindowCertificate:
    """Check the packing property on the window x <= x_max with a certified threshold.

    The window fails at its first point, in ``lattice_window`` order, whose value is not an integer,
    is negative or was taken at an earlier point, and reports the first of these checks that fails
    there; a collision's witnesses are the earliest point with the value and this one.
    """
    xs, ys, scale, vals, coeffs = window_values(p, s, x_max)
    q, r = vals // scale, vals % scale
    ranked = np.sort(q)
    repeats = ranked[1:] == ranked[:-1]
    if r.any() or ranked[0] < 0 or repeats.any():
        # stable: each repeat follows its first point; equal q with unequal r fail first as non-integral
        order = np.argsort(q, kind="stable")
        bad = (r != 0) | (q < 0)
        bad[order[1:][repeats]] = True
        i = int(bad.argmax())
        pt, v = (int(xs[i]), int(ys[i])), Fraction(int(vals[i]), scale)
        if r[i]:
            failure = Failure("non_integral_value", f"value {number_text(v)} at {pt} is not an integer", (pt,), v)
        elif v < 0:
            failure = Failure("negative_value", f"value {v} at {pt} is negative", (pt,), v)
        else:
            j = int(order[np.searchsorted(ranked, q[i])])  # the earliest point with value v
            first = (int(xs[j]), int(ys[j]))
            failure = Failure("collision", f"value {v} taken at both {first} and {pt}", (first, pt), v)
        return WindowCertificate(x_max, None, None, failure)

    missing = int(_first_missing(ranked))
    kind, pair, threshold = _verdict(coeffs, scale, s, x_max, missing)
    if pair is None:
        return WindowCertificate(x_max, None, None, Failure(
            kind, f"polynomial is unbounded below outside the window x <= {x_max}"))
    bound, failure = Fraction(pair[0], pair[1] * scale), None
    if kind == "tail_below_zero":
        failure = Failure(kind, f"tail lower bound {number_text(bound)} certifies no threshold; enlarge the window")
    elif kind == "coverage_gap":
        failure = Failure(kind, f"value {missing} is not attained on the window", missing=missing)
    return WindowCertificate(x_max, threshold, bound, failure)


# -- exhaustive coefficient search ---------------------------------------------


class SearchBounds(NamedTuple):
    """Inclusive, non-empty coefficient ranges, as ``cli._parse_bounds`` builds them; a >= 1, b, c in full mode."""

    d: tuple[int, int]
    e: tuple[int, int]
    f: tuple[int, int]
    a: tuple[int, int] | None = None
    b: tuple[int, int] | None = None
    c: tuple[int, int] | None = None


_BLOCK = 2 ** 15  # most window values in one prescreen block or BLAS product; a product of at most
# 5 * 2^15 multiply-adds stays under the size at which OpenBLAS splits a float64 product over threads
_SIEVE = 24  # window points nearest the origin on which stage 1 of the prescreen evaluates every candidate


def _products(coeffs: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The values ``coeffs @ terms`` of the (A, B, C, D, E) rows at the points of ``terms``.

    float64 terms are those of an int32 window: the product runs on BLAS and is cast back to int32,
    exactly (see ``_prescreen``), in column slices of at most ``_BLOCK`` values, so that a row against a
    window of more than ``_BLOCK`` points is no product that OpenBLAS splits over threads.  int64 terms
    keep numpy's int64 product.
    """
    if terms.dtype != np.float64:
        return coeffs @ terms
    floats, out = coeffs.astype(np.float64), np.empty((len(coeffs), terms.shape[1]), dtype=np.int32)
    step = max(1, _BLOCK // len(coeffs))
    for i in range(0, terms.shape[1], step):
        out[:, i:i + step] = floats @ terms[:, i:i + step]
    return out


def _screen(coeffs: np.ndarray, terms: np.ndarray, f_lo: int, f_hi: int):
    """The rows (A, B, C, D, E) of ``coeffs`` whose values at the points of ``terms`` are distinct and
    need F = -min in f_lo..f_hi: (their indices, their F, their values sorted ascending).

    Each row is sorted in place, so F is minus its first value, and adjacent rows of the contiguous
    transpose are compared, so the distinctness reduction runs along long rows.
    """
    ranked = _products(coeffs, terms)
    ranked.sort(axis=1)
    f = -ranked[:, 0]
    columns = np.ascontiguousarray(ranked.T)
    kept = np.flatnonzero((f_lo <= f) & (f <= f_hi) & (columns[1:] != columns[:-1]).all(axis=0))
    return kept, f[kept], ranked[kept]


def _prescreen(abc_ranges, bounds: SearchBounds, xs: np.ndarray, ys: np.ndarray):
    """Yield, in coefficient order, each (A, B, C, D, E, F) that the prescreen keeps,
    followed by the first value >= 0 that its window does not take (xs.size if it takes 0..size-1).

    Values are (A, B, C, D, E) rows times the matrix of terms x(x-1)/2, xy, y(y-1)/2, x, y at the
    points, in the window's dtype.  The terms are >= 0 and sum to ((x+y)^2 + (x+y))/2 <= (x+y+1)^2,
    so every product and every partial sum, in any order, is at most the bound of ``_window_dtype``.
    On an int32 window that bound is below 2^30 < 2^53, so ``_products`` multiplies in float64 on
    BLAS: whatever summation order, blocking or fused multiply-add it uses, each intermediate is an
    exactly representable integer, and the result is cast back to int32.  An int64 window keeps the
    int64 product.  Both stages are ``_screen`` on a point set.  The sieve runs it on the
    ``_SIEVE`` window points first in a stable sort of x + y (the whole window when it is smaller),
    in blocks of about ``_BLOCK // _SIEVE`` consecutive candidates, with F from 0 to the top of
    ``bounds.f``.  It drops only candidates that the full window drops: the sieve points are
    window points, so a repeat there is a window collision, and their minimum is at least the
    window's, so F = -(window minimum) is at least -(sieve minimum).  That minimum is at most 0,
    as every point set holds the origin, where the non-constant part is 0; the sieve cannot take
    the bottom of ``bounds.f``, as a candidate's F on the window can exceed its F on the sieve.
    The full window then runs ``_screen`` on the sieve's survivors, about ``_BLOCK // xs.size``
    at a time, with F in ``bounds.f``.
    """
    terms = np.array([(xs * (xs - 1)) // 2, xs * ys, (ys * (ys - 1)) // 2, xs, ys],
                     dtype=np.float64 if xs.dtype == np.int32 else xs.dtype)
    near = terms[:, np.argsort(xs + ys, kind="stable")[:_SIEVE]]
    ranges = (*abc_ranges, bounds.d, bounds.e)
    shape = tuple(hi - lo + 1 for lo, hi in ranges)
    lows = np.array([lo for lo, _ in ranges])
    total = prod(shape)
    step, rows = max(1, _BLOCK // near.shape[1]), max(1, _BLOCK // xs.size)
    for start in range(0, total, step):
        coeffs = np.stack(np.unravel_index(np.arange(start, min(start + step, total)), shape), axis=1) + lows
        coeffs = coeffs[_screen(coeffs, near, 0, bounds.f[1])[0]]
        for i in range(0, len(coeffs), rows):
            chunk = coeffs[i:i + rows]
            kept, f, ranked = _screen(chunk, terms, *bounds.f)
            missing = _first_missing(ranked + f[:, None])
            for candidate, F, first_missing in zip(chunk[kept].tolist(), f.tolist(), missing.tolist()):
                yield (*candidate, F, first_missing)


def brute_force_search(
    s: SectorSpec,
    bounds: SearchBounds,
    mode: Literal["restricted", "full"],
    x_max: int,
    t_min: int,
    jobs: int = 1,
) -> list[QuadPoly]:
    """Exhaustively search integer alpha-form coefficients for packing polynomials.

    Restricted mode pins (A, B, C) to the sector's forced quadratic part and
    scans (D, E); full mode scans (A, B, C, D, E) with A >= 1.  A passing
    certificate needs every window value non-negative and the value 0 taken,
    so the window minimum of the candidate is 0: each (A, B, C, D, E) fixes
    its constant term F as minus the minimum of the rest, and only that F,
    when it lies in ``bounds.f``, can be accepted.  The stages are those of
    the module docstring: the prescreen's one ``_screen`` on two point sets,
    the window points nearest the origin with F >= 0 and then the whole
    window with F in ``bounds.f``, the certificate's ``_verdict`` on each
    survivor, which accepts a survivor with no failure and T >= ``t_min``,
    and the certificate of each hit.  The prescreen's sums of alpha-form
    terms have partial sums that the bound of ``_window_dtype`` covers
    inside the box, so it is exact, and its sieve drops only candidates that
    the full window drops.
    It takes ``bounds``, ``mode``, x_max >= 1 and t_min >= 0 as the CLI parses them.

    Boxes of more than ``MAX_CANDIDATES`` (A, B, C, D, E) candidates, searches
    of more than ``MAX_SEARCH_WORK`` candidates times window bounding-box
    points, windows that ``_window_dtype`` refuses and bounds that need a
    Python-int window to prescreen exactly are refused with ``ValueError``, in
    that order, before any window is built; a restricted search on a sector
    without forced A, B, C then returns [] without one.  Each hit is
    re-certified by ``packing_window_verify`` at the configured window, and is
    returned, as a bare ``QuadPoly``, only if it passes.  The output is
    in the prescreen's scan order, ascending (A, B, C, D, E), and so sorted by
    coefficient tuple: the monomial coefficients (A/2, B, C/2, D - A/2,
    E - C/2, F) compare in the same order, as each increases with its
    alpha-form coefficient once the earlier ones are equal, and F is fixed by
    the rest.

    The search runs in the calling process.  ``jobs`` is unused, and kept only
    because the benchmark's tracer binds it from each call; the CLI's
    ``--jobs`` passes it.
    """
    if mode == "restricted":
        fixed = forced_quadratic_coeffs(sector_arithmetic(s))
        abc_ranges = [] if fixed is None else [(c, c) for c in fixed]
    else:
        abc_ranges = [bounds.a, bounds.b, bounds.c]

    size = prod(hi - lo + 1 for lo, hi in (*abc_ranges, bounds.d, bounds.e))
    if size > MAX_CANDIDATES:
        raise ValueError(f"search box has {size} candidates, more than the limit of {MAX_CANDIDATES}")
    box = _box(s, x_max)[1]
    if size * box > MAX_SEARCH_WORK:
        raise ValueError(f"search box has {size} candidates for a window x <= {x_max} with a bounding box of "
                         f"{number_text(box)} lattice points: more than the limit of {MAX_SEARCH_WORK} "
                         "candidate-points")
    coeff_cap = max(abs(v) for r in (bounds.d, bounds.e, bounds.f, *abc_ranges) for v in r)
    dtype = _window_dtype(s, x_max, coeff_cap)
    if dtype is object:
        raise ValueError("search bounds or the sector's forced A, B, C too large for exact 64-bit prescreening")
    if not abc_ranges:
        return []  # restricted, and no forced A, B, C: the sector has no packing polynomial
    xs, ys = lattice_window(s, x_max).T.astype(dtype, copy=False)
    found = []
    for *alpha, missing in _prescreen(abc_ranges, bounds, xs, ys):
        kind, _, threshold = _verdict(doubled(*alpha), 2, s, x_max, missing)  # of 2p
        if kind is None and threshold >= t_min:
            candidate = AlphaFormCoeffs(*alpha).to_poly()
            if packing_window_verify(candidate, s, x_max).ok:
                found.append(candidate)
    return found
