"""Figures of labeled sector lattices, as deterministic SVG or ASCII text.

A figure shows the sector's boundary rays, the staircase lines, and every
lattice point of the window labeled with its polynomial value (up to a label
cutoff).  Output is byte-stable: no timestamps, fixed element order, and all
coordinates computed in exact arithmetic before formatting.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .classify import classify, no_qpp_reason
from .geometry import SectorSpec
from .poly import QuadPoly
from .verify import window_values

SVG_SCALE = 40  # drawing units per lattice step
SVG_MARGIN = 30


def _classified_poly(s: SectorSpec, k: int) -> QuadPoly:
    entries = classify(s)
    if not entries:
        raise ValueError(f"no QPPs on sector {s}: {no_qpp_reason(s)}")
    for e in entries:
        if e.k == k:
            return e.poly
    # classify lists k in K_ORDER, which is the (|k|, -k) order of the message
    raise ValueError(f"k={k} is not admissible for sector {s}; admissible: {[e.k for e in entries]}")


def render_figure(s: SectorSpec, k: int, x_max: int = 6, value_max: int = 40, fmt: str = "ascii") -> str:
    """Figure of the classified polynomial with step constant k on the sector."""
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    if value_max < 0:
        raise ValueError(f"value_max must be >= 0, got {value_max}")
    poly = _classified_poly(s, k)
    if fmt == "ascii":
        return _render_ascii(s, poly, x_max, value_max)
    if fmt == "svg":
        return _render_svg(s, poly, x_max, value_max)
    raise ValueError(f"unknown figure format {fmt!r}")


def _window_values(s: SectorSpec, poly: QuadPoly, x_max: int) -> dict[tuple[int, int], int]:
    pts, scale, vals = window_values(poly, s, x_max)
    scaled = vals.tolist()
    assert all(v >= 0 and v % scale == 0 for v in scaled)
    return {pt: v // scale for pt, v in zip(pts, scaled)}


def _render_ascii(s: SectorSpec, poly: QuadPoly, x_max: int, value_max: int) -> str:
    values = _window_values(s, poly, x_max)
    y_top = max(y for _, y in values)
    labeled = [v for v in values.values() if v <= value_max]
    width = max(2, max((len(str(v)) for v in labeled), default=1) + 1)
    lines = []
    for y in range(y_top, -1, -1):
        row = f"{y:>3} |"
        for x in range(x_max + 1):
            if (x, y) in values:
                v = values[(x, y)]
                cell = str(v) if v <= value_max else "."
            else:
                cell = ""
            row += cell.rjust(width)
        lines.append(row.rstrip())
    lines.append("    +" + "-" * ((x_max + 1) * width))
    lines.append("     " + "".join(str(x).rjust(width) for x in range(x_max + 1)))
    return "\n".join(lines) + "\n"


def _fmt_len(q: Fraction) -> str:
    """Exact two-decimal rendering of a rational length."""
    cents = round(q * 100)
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


def _render_svg(s: SectorSpec, poly: QuadPoly, x_max: int, value_max: int) -> str:
    values = _window_values(s, poly, x_max)
    y_top = max(y for _, y in values)
    width = 2 * SVG_MARGIN + SVG_SCALE * x_max + 30
    height = 2 * SVG_MARGIN + SVG_SCALE * y_top

    def sx(x: Fraction) -> str:
        return _fmt_len(SVG_MARGIN + SVG_SCALE * Fraction(x))

    def sy(y: Fraction) -> str:
        return _fmt_len(height - SVG_MARGIN - SVG_SCALE * Fraction(y))

    def line(p0, p1, stroke: str, w: str) -> str:
        return (f'<line x1="{sx(p0[0])}" y1="{sy(p0[1])}" x2="{sx(p1[0])}" y2="{sy(p1[1])}" '
                f'stroke="{stroke}" stroke-width="{w}"/>')

    x_edge = Fraction(x_max) + Fraction(1, 2)
    y_edge = Fraction(y_top) + Fraction(1, 2)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<g font-family="monospace" font-size="11">',
    ]

    # Staircase lines: staircase i starts on the x-axis at x = l i / n and
    # climbs in direction (m - 1, n) (anti-diagonal for the quadrant).
    l = gcd(s.m - 1, s.n)
    direction = (Fraction(s.m - 1), Fraction(s.n))
    i = 0
    while Fraction(l * i, s.n) <= x_edge:
        base = (Fraction(l * i, s.n), Fraction(0))
        limits = [(y_edge - base[1]) / direction[1]]
        if direction[0] > 0:
            limits.append((x_edge - base[0]) / direction[0])
        elif direction[0] < 0:
            limits.append((Fraction(-1, 4) - base[0]) / direction[0])
        t_top = min(limits)
        if t_top > 0:
            tip = (base[0] + t_top * direction[0], base[1] + t_top * direction[1])
            parts.append(line(base, tip, "#bbbbbb", "0.75"))
        i += 1

    # Boundary rays.
    parts.append(line((Fraction(0), Fraction(0)), (x_edge, Fraction(0)), "#000000", "1.5"))
    if s.m == 0:
        parts.append(line((Fraction(0), Fraction(0)), (Fraction(0), y_edge), "#000000", "1.5"))
    else:
        t_ray = min(x_edge / s.m, y_edge / s.n)
        parts.append(line((Fraction(0), Fraction(0)), (t_ray * s.m, t_ray * s.n), "#000000", "1.5"))

    # Lattice points with labels.
    for (x, y), v in sorted(values.items()):
        parts.append(f'<circle cx="{sx(x)}" cy="{sy(y)}" r="3" fill="#000000"/>')
        if v <= value_max:
            label_x = _fmt_len(SVG_MARGIN + SVG_SCALE * Fraction(x) + 6)
            label_y = _fmt_len(height - SVG_MARGIN - SVG_SCALE * Fraction(y) + 4)
            parts.append(f'<text x="{label_x}" y="{label_y}">{v}</text>')

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
