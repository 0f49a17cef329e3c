"""Shared test utilities and independent oracles.

The expansion helper here multiplies factored forms out with its own algebra,
so expected coefficient tuples in tests never flow through the code under
test.  ``reference_window_verify`` is the per-point ``Fraction`` form of the
window check on its own enumeration of the window (``reference_window``), the
reference that the array certificate is compared with.
``reference_value_floor`` is the exact tail floor as a ``Fraction`` case
analysis, the reference for the integer ``value_floor``; the window reference
bounds its tail with it, so it shares no floor code with the certificate it
checks.  ``reference_search`` certifies every candidate of a search box, the
reference for the prescreened ``brute_force_search``.  ``reference_prescreen``
is the search's prescreen in the window's integer dtype, with one sort per
candidate and each survivor's first missing value found in a set, the
reference for the blocked ``_prescreen``.  ``atlas_rows`` expands an atlas
class table into the rows it implies, with polynomials from
``packing_polynomial``; from those rows
``reference_atlas_json`` is the atlas JSON as ``json.dumps(indent=2)`` writes
it, the reference for the directly written text of ``atlas_to_json``, and
``reference_atlas_csv`` is the atlas CSV as ``csv.writer`` writes it, with a
summary line counted from the rows, the reference for ``atlas_to_csv``.  ``parse_poly`` reads the text of ``format_poly``
back, the oracle of its round-trip test.

The paper's proof objects are small oracles here, built from their defining
formulas: ``in_sector(s, x, y)`` is the sector's defining inequality,
``skew(s)`` straightens the sector's staircases, ``flip(n)`` swaps
the two boundary rays of the slope-n sector, ``staircase(s, i)`` lists the
steps of staircase i up from the record's ``bottom(i)``, and ``skewed_form(s, k, F)`` is
a packing polynomial in skewed coordinates.  The maps are ``UnimodularMap``s, 2x2 matrices of
determinant +-1, and ``conjugate(p, m)`` carries a polynomial through one; ``unimodular_maps``
draws products of shears, flips and reflections for their property tests.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from fractions import Fraction
from itertools import count, product
from math import floor, gcd
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from qpacking.classify import classify, forced_quadratic_coeffs, sector_arithmetic
from qpacking.geometry import SectorSpec, make_sector
from qpacking.poly import AlphaFormCoeffs, QuadPoly, packing_polynomial
from qpacking.verify import Failure, SearchBounds, WindowCertificate, packing_window_verify


def product_poly(scale, factor1, factor2, lin_x, lin_y, const) -> QuadPoly:
    """Independent expansion of scale*(x + a1 y + b1)(x + a2 y + b2) + lin_x x + lin_y y + const."""
    scale, lin_x, lin_y, const = map(Fraction, (scale, lin_x, lin_y, const))
    a1, b1 = map(Fraction, factor1)
    a2, b2 = map(Fraction, factor2)
    return QuadPoly(
        scale,
        scale * (a1 + a2),
        scale * a1 * a2,
        scale * (b1 + b2) + lin_x,
        scale * (a1 * b2 + a2 * b1) + lin_y,
        scale * b1 * b2 + const,
    )


def coprime_sectors(n_max: int, m_max: int, include_quadrant: bool = True) -> list[SectorSpec]:
    out = [make_sector(1, 0)] if include_quadrant else []
    out.extend(
        make_sector(n, m)
        for n in range(1, n_max + 1)
        for m in range(1, m_max + 1)
        if gcd(n, m) == 1
    )
    return out


def all_classified(n_max: int, m_max: int):
    for s in coprime_sectors(n_max, m_max):
        yield from classify(s)


def window_for_threshold(s: SectorSpec, polys, t_target: int, x_start: int = 8) -> int:
    """Smallest tried window size certifying every polynomial to at least t_target."""
    x = x_start
    for _ in range(40):
        certs = [packing_window_verify(p, s, x) for p in polys]
        if all(c.ok and c.threshold >= t_target for c in certs):
            return x
        x = max(x + 1, x * 14 // 10)
    raise AssertionError(f"no window reached threshold {t_target} on {s}")


# -- the paper's proof objects --------------------------------------------------


class UnimodularMap(tuple):
    """The matrix [[a, b], [c, d]] of determinant +-1, stored as (a, b, c, d), with int or Fraction entries.

    Its inverse multiplies by the determinant, its own reciprocal, so integer entries stay integers.
    """

    def __new__(cls, a, b, c, d):
        if not all(isinstance(entry, (int, Fraction)) for entry in (a, b, c, d)):
            raise TypeError(f"matrix entries {(a, b, c, d)} are not all int or Fraction")
        if a * d - b * c not in (1, -1):
            raise ValueError(f"matrix determinant {a * d - b * c} is not +-1")
        return super().__new__(cls, (a, b, c, d))

    @property
    def determinant(self):
        a, b, c, d = self
        return a * d - b * c

    def apply(self, point):
        a, b, c, d = self
        x, y = point
        return (a * x + b * y, c * x + d * y)

    def __matmul__(self, other: "UnimodularMap") -> "UnimodularMap":
        """The matrix product, which applies ``other`` first."""
        (a, c), (b, d) = self.apply(other[0::2]), self.apply(other[1::2])
        return UnimodularMap(a, b, c, d)

    def inverse(self) -> "UnimodularMap":
        a, b, c, d = self
        det = self.determinant
        return UnimodularMap(d * det, -b * det, -c * det, a * det)


def conjugate(p: QuadPoly, m: UnimodularMap) -> QuadPoly:
    """The polynomial q with q(m(v)) = p(v) for all v, i.e. p composed with m^-1."""
    a, b, c, d = m.inverse()
    return QuadPoly(
        p.c_xx * a * a + p.c_xy * a * c + p.c_yy * c * c,
        2 * p.c_xx * a * b + p.c_xy * (a * d + b * c) + 2 * p.c_yy * c * d,
        p.c_xx * b * b + p.c_xy * b * d + p.c_yy * d * d,
        p.c_x * a + p.c_y * c,
        p.c_x * b + p.c_y * d,
        p.c_0,
    )


def skew(s: SectorSpec) -> UnimodularMap:
    """The shear (x, y) -> (x - ((m-1)/n) y, y), which carries the sector of slope n/m onto the sector of slope n."""
    return UnimodularMap(1, Fraction(1 - s.m, s.n), 0, 1)


def in_sector(s: SectorSpec, x, y) -> bool:
    """Whether (x, y) lies in the closed sector 0 <= y <= (n/m) x; for the quadrant (m = 0), x, y >= 0."""
    return y >= 0 and (x >= 0 if s.m == 0 else s.m * y <= s.n * x)


def flip(n: int) -> UnimodularMap:
    """The involution (x, y) -> (x, n x - y), which swaps the two boundary rays of the sector of slope n."""
    return UnimodularMap(1, 0, n, -1)


def staircase(s: SectorSpec, i: int) -> list[tuple[int, int]]:
    """The lattice points (x, y) with (m-1) y = n x - l i in the sector, in ascending y.

    The steps start at y = ``bottom(i)`` of the sector's record, lie v = n/l apart and end at or below
    y = l i, where the line meets the sector's second ray; each x is (l i + (m-1) y)/n.
    """
    st = sector_arithmetic(s)
    out = []
    for y in range(st.bottom(i), st.l * i + 1, st.v):
        x, rem = divmod(st.l * i + (s.m - 1) * y, s.n)
        assert rem == 0, "every step is a lattice point"
        out.append((x, y))
    return out


def skewed_form(s: SectorSpec, k: int, f_const) -> QuadPoly:
    """(n/2) x (x - k/(n/l)) + x + (k/(n/l)) y + F, the packing polynomial with step constant k in skewed coordinates."""
    kl = k * sector_arithmetic(s).l
    return QuadPoly(Fraction(s.n, 2), 0, 0, 1 - Fraction(kl, 2), Fraction(kl, s.n), f_const)


def _unimodular_product(steps) -> UnimodularMap:
    m = UnimodularMap(1, 0, 0, 1)
    for kind, arg in steps:
        m = m @ (UnimodularMap(1, arg, 0, 1), flip(abs(arg) + 1), UnimodularMap(1, 0, 0, -1))[kind]
    return m


unimodular_maps = st.builds(
    _unimodular_product,
    st.lists(st.tuples(st.integers(0, 2), st.integers(-4, 4)), min_size=0, max_size=5),
)


# -- the parser of the canonical text rendering ---------------------------------


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<coeff>\d+(?:/\d+)?)(?:\*(?P<mono1>x\^2|x\*y|y\^2|x|y))?"
    r"|(?P<mono2>x\^2|x\*y|y\^2|x|y))$"
)
_FIELD_BY_MONO = {"x^2": "c_xx", "x*y": "c_xy", "y^2": "c_yy", "x": "c_x", "y": "c_y", "": "c_0"}


def parse_poly(text: str) -> QuadPoly:
    """Parse the canonical rendering back into a QuadPoly."""
    compact = text.replace(" ", "")
    if not compact:
        raise ValueError("empty polynomial string")
    if compact == "0":
        return QuadPoly(0, 0, 0, 0, 0, 0)
    coeffs = {field: Fraction(0) for field in QuadPoly._fields}
    seen = set()
    for match in re.finditer(r"[+-]?[^+-]+", compact):
        term = match.group(0)
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse term {term!r} at position {match.start()}")
        mono = m.group("mono1") or m.group("mono2") or ""
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("sign") == "-":
            coeff = -coeff
        field = _FIELD_BY_MONO[mono]
        if field in seen:
            raise ValueError(f"monomial {mono or '1'} appears twice (term {term!r})")
        seen.add(field)
        coeffs[field] = coeff
    return QuadPoly(**coeffs)


# -- the Fraction form of the exact tail floor ----------------------------------


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


def reference_value_floor(p: QuadPoly, s: SectorSpec, x_min) -> Fraction | None:
    """Exact infimum of p over the points of the sector region with x >= x_min.

    The region is the real cone 0 <= y <= (n/m) x, the first quadrant when
    m = 0; it holds no point with x < 0, so any x_min <= 0 gives the infimum
    over the whole region.  Returns None when the infimum is -infinity.  The
    region is a 2-D truncated cone, so the infimum is found by exact case
    analysis: the directions inside the recession cone first (to detect the
    unboundedness that the boundary never sees), then the boundary rays (which
    decide the boundary directions), the truncation edge, and any interior
    stationary point.
    """
    p, x_min = QuadPoly(*map(Fraction, p)), Fraction(x_min)  # int coefficients would divide into floats
    d0 = (Fraction(1), Fraction(0))
    d1 = (Fraction(0), Fraction(1)) if s.m == 0 else (Fraction(s.m), Fraction(s.n))

    # Unboundedness inside the recession cone spanned by d0 and d1.
    qa, qc = _qform(p, d0), _qform(p, d1)
    qb = 2 * _qbil(p, d0, d1)
    if qb < 0 and qb * qb > 4 * qa * qc:
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
        inside = x_star >= x_lo and y_star >= 0 and (s.m == 0 or s.m * y_star <= s.n * x_star)
        if inside:
            candidates.append(p(x_star, y_star))

    return min(candidates)


def reference_tail_floor(p: QuadPoly, s: SectorSpec, x_max: int) -> Fraction | None:
    """Exact lower bound for p outside the window x <= x_max, from ``reference_value_floor``.

    On the first quadrant the window is a box, and the strip y > x_max is
    bounded through the polynomial with x and y swapped.
    """
    bound = reference_value_floor(p, s, x_max + 1)
    if s.m != 0 or bound is None:
        return bound
    swapped = QuadPoly(p.c_yy, p.c_xy, p.c_xx, p.c_y, p.c_x, p.c_0)
    other = reference_value_floor(swapped, s, x_max + 1)
    return None if other is None else min(bound, other)


def reference_window(s: SectorSpec, x_max: int) -> list[tuple[int, int]]:
    """The lattice points (x, y) of the sector with x <= x_max (the box y <= x_max on the
    quadrant), enumerated column by column in lexicographic order."""
    pts = []
    for x in range(x_max + 1):
        y = 0
        while y <= x_max if s.m == 0 else s.m * y <= s.n * x:
            pts.append((x, y))
            y += 1
    return pts


def reference_window_verify(p: QuadPoly, s: SectorSpec, x_max: int) -> WindowCertificate:
    """``packing_window_verify`` evaluated point by point in ``Fraction`` arithmetic."""
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    seen: dict[int, tuple[int, int]] = {}
    for pt in reference_window(s, x_max):
        value = p(*pt)
        if value.denominator != 1:
            return WindowCertificate(x_max, None, None, Failure(
                "non_integral_value", f"value {value} at {pt} is not an integer",
                witnesses=(pt,), value=value))
        v = int(value)
        if v < 0:
            return WindowCertificate(x_max, None, None, Failure(
                "negative_value", f"value {v} at {pt} is negative",
                witnesses=(pt,), value=value))
        if v in seen:
            return WindowCertificate(x_max, None, None, Failure(
                "collision", f"value {v} taken at both {seen[v]} and {pt}",
                witnesses=(seen[v], pt), value=value))
        seen[v] = pt

    bound = reference_tail_floor(p, s, x_max)
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


def reference_search(s: SectorSpec, bounds: SearchBounds, mode: str, x_max: int, t_min: int = 0) -> list[QuadPoly]:
    """Every alpha-form candidate of the box whose window certificate passes
    with threshold >= t_min, sorted by coefficients; no prescreen."""
    if mode == "restricted":
        fixed = forced_quadratic_coeffs(sector_arithmetic(s))
        if fixed is None:
            return []
        abc_ranges = [(c, c) for c in fixed]
    else:
        abc_ranges = [bounds.a, bounds.b, bounds.c]
    found = []
    for coeffs in product(*(range(lo, hi + 1) for lo, hi in (*abc_ranges, bounds.d, bounds.e, bounds.f))):
        p = AlphaFormCoeffs(*coeffs).to_poly()
        cert = packing_window_verify(p, s, x_max)
        if cert.ok and cert.threshold >= t_min:
            found.append(p)
    return sorted(found, key=QuadPoly.coefficients)


def reference_prescreen(abc_ranges, bounds: SearchBounds, xs, ys):
    """Each (A, B, C, D, E, F) that survives the prescreen, in integer arithmetic of the
    window's dtype with one sort per candidate, with the first value >= 0 that its window does
    not take."""
    half_x = (xs * (xs - 1)) // 2
    half_y = (ys * (ys - 1)) // 2
    xy = xs * ys
    for A, B, C in product(*(range(lo, hi + 1) for lo, hi in abc_ranges)):
        base = A * half_x + B * xy + C * half_y
        for D in range(bounds.d[0], bounds.d[1] + 1):
            base_d = base + D * xs
            for E in range(bounds.e[0], bounds.e[1] + 1):
                vals = np.sort(base_d + E * ys)
                F = -int(vals[0])
                if not bounds.f[0] <= F <= bounds.f[1] or (np.diff(vals) == 0).any():
                    continue
                present = set((vals + F).tolist())
                yield A, B, C, D, E, F, next(t for t in count() if t not in present)


def _rational_payload(q: Fraction) -> dict[str, str]:
    return {"num": str(q.numerator), "den": str(q.denominator)}


class AtlasRow(NamedTuple):
    n: int
    m: int
    columns: tuple[int, int, Fraction]  # the printed (l, n/l, l^2/n) of the row's class
    ks: tuple[int, ...]
    polynomials: tuple[tuple[Fraction, ...], ...]


def atlas_rows(atlas, mmax: int) -> list[AtlasRow]:
    """The rows that a class table implies, in (n, m) order: each m <= mmax whose class m mod n is in n's table.

    Each row's polynomials are ``packing_polynomial`` of its own sector for the ks of its class.
    """
    rows = []
    for n in sorted(atlas):
        for m in range(mmax + 1):
            if m % n in atlas[n]:
                columns, ks = atlas[n][m % n]
                polys = tuple(packing_polynomial(SectorSpec(n, m), k).coefficients() for k in ks)
                rows.append(AtlasRow(n, m, columns, ks, polys))
    return rows


def reference_summary_line(rows: list[AtlasRow]) -> str:
    counts = sorted(Counter(len(row.ks) for row in rows).items())
    return f"sectors={len(rows)} " + " ".join(f"qpp{c}={n}" for c, n in counts)


def reference_atlas_payload(atlas, nmax: int, mmax: int) -> dict:
    """The atlas as the JSON value that ``atlas_to_json`` must encode."""
    rows = atlas_rows(atlas, mmax)
    counts = sorted(Counter(len(row.ks) for row in rows).items())
    return {
        "nmax": nmax,
        "mmax": mmax,
        "rows": [
            {
                "n": row.n,
                "m": row.m,
                "l": row.columns[0],
                "n_over_l": row.columns[1],
                "l2_over_n": _rational_payload(row.columns[2]),
                "qpp_count": len(row.ks),
                "ks": list(row.ks),
                "polynomials": [[_rational_payload(c) for c in poly] for poly in row.polynomials],
                "canonical_sector": [row.n, row.m % row.n],
            }
            for row in rows
        ],
        "summary": {"total": len(rows), "by_count": {str(c): n for c, n in counts}},
    }


def reference_atlas_json(atlas, nmax: int, mmax: int) -> str:
    """``atlas_to_json`` as ``json.dumps(payload, indent=2)`` plus a newline."""
    return json.dumps(reference_atlas_payload(atlas, nmax, mmax), indent=2) + "\n"


CSV_HEADER = ["n", "m", "l", "n_over_l", "l2_over_n", "qpp_count", "ks", "canonical_n", "canonical_m", "polynomials"]


def reference_atlas_csv(atlas, mmax: int) -> str:
    """``atlas_to_csv`` as ``csv.writer`` writes it."""
    rows = atlas_rows(atlas, mmax)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        polys = ";".join(" ".join(str(c) for c in poly) for poly in row.polynomials)
        writer.writerow([
            row.n, row.m, *row.columns[:2], str(row.columns[2]),
            len(row.ks), " ".join(str(k) for k in row.ks),
            row.n, row.m % row.n, polys,
        ])
    buffer.write(f"# {reference_summary_line(rows)}\n")
    return buffer.getvalue()
