"""Shared test utilities and independent oracles.

The expansion helper here multiplies factored forms out with its own algebra,
so expected coefficient tuples in tests never flow through the code under
test.  ``reference_window_verify`` is the per-point ``Fraction`` form of the
window check, the reference that the integer evaluation path is compared with.
``reference_atlas_json`` is the atlas JSON as ``json.dumps(indent=2)`` writes
it, the reference for the directly written text of ``atlas_to_json``.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from math import floor, gcd

from qpacking import QuadPoly, SectorSpec, classify, lattice_window, make_sector, packing_window_verify
from qpacking.verify import Failure, WindowCertificate, _window_tail_floor


def frac(value) -> Fraction:
    return Fraction(value)


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


def reference_window_verify(p: QuadPoly, s: SectorSpec, x_max: int) -> WindowCertificate:
    """``packing_window_verify`` evaluated point by point in ``Fraction`` arithmetic."""
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    seen: dict[int, tuple[int, int]] = {}
    for pt in lattice_window(s, x_max):
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


def _rational_payload(q: Fraction) -> dict[str, str]:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def reference_atlas_payload(rows, nmax: int, mmax: int) -> dict:
    """The atlas as the JSON value that ``atlas_to_json`` must encode."""
    counts = sorted(Counter(row.qpp_count for row in rows).items())
    return {
        "nmax": nmax,
        "mmax": mmax,
        "rows": [
            {
                "n": row.n,
                "m": row.m,
                "l": row.l,
                "n_over_l": row.n_over_l,
                "l2_over_n": _rational_payload(row.l2_over_n),
                "qpp_count": row.qpp_count,
                "ks": list(row.ks),
                "polynomials": [[_rational_payload(c) for c in poly] for poly in row.polynomials],
                "canonical_sector": list(row.canonical),
            }
            for row in rows
        ],
        "summary": {"total": len(rows), "by_count": {str(c): n for c, n in counts}},
    }


def reference_atlas_json(rows, nmax: int, mmax: int) -> str:
    """``atlas_to_json`` as ``json.dumps(payload, indent=2)`` plus a newline."""
    return json.dumps(reference_atlas_payload(rows, nmax, mmax), indent=2) + "\n"
