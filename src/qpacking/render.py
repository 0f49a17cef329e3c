"""Figures of labeled sector lattices, as deterministic SVG or ASCII text.

A figure shows the sector's boundary rays, the staircase lines, and every
lattice point of the window labeled with its polynomial value (up to a label
cutoff).  Output is byte-stable: no timestamps, fixed element order, and all
coordinates computed in exact arithmetic before formatting.
"""

from __future__ import annotations

from fractions import Fraction

from .classify import admissible_ks, no_qpp_reason, sector_arithmetic
from .geometry import SectorSpec, Staircases
from .poly import QuadPoly, packing_polynomial
from .staircase import column_heights
from .verify import window_values

SVG_SCALE = 40  # drawing units per lattice step
SVG_MARGIN = 30
MAX_FIGURE_POINTS = 10_000  # lattice points of the window a figure draws


def render_figure(s: SectorSpec, k: int, x_max: int, value_max: int, fmt: str) -> str:
    """Figure of the classified polynomial with step constant k on the sector.

    It takes x_max >= 1, value_max >= 0 and fmt "ascii" or "svg" as the CLI parses them.  A window of
    more than ``MAX_FIGURE_POINTS`` lattice points, or an SVG figure of more than ``MAX_FIGURE_POINTS``
    staircase lines, is refused with ``ValueError`` before the polynomial is looked up or any value
    computed.
    """
    _check_figure_size(s, x_max)
    st = sector_arithmetic(s)
    if fmt == "svg" and _staircase_lines(st, x_max) > MAX_FIGURE_POINTS:
        raise ValueError(f"figure x <= {x_max} has more than {MAX_FIGURE_POINTS} staircase lines")
    ks = admissible_ks(st)
    if not ks:
        raise ValueError(f"no QPPs on sector {s}: {no_qpp_reason(s, st)}")
    if k not in ks:
        # admissible_ks lists k in K_ORDER, which is the (|k|, -k) order of the message
        raise ValueError(f"k={k} is not admissible for sector {s}; admissible: {ks}")
    poly = packing_polynomial(s, k)
    return _render_ascii(s, poly, x_max, value_max) if fmt == "ascii" else _render_svg(s, st, poly, x_max, value_max)


def _check_figure_size(s: SectorSpec, x_max: int) -> None:
    """Refuse with ``ValueError`` a window x <= x_max of more than ``MAX_FIGURE_POINTS`` lattice points.

    Columns are counted until the limit is passed, so at most ``MAX_FIGURE_POINTS + 1`` of them.
    """
    points = 0
    for height in column_heights(s, x_max):
        points += height
        if points > MAX_FIGURE_POINTS:
            raise ValueError(f"figure x <= {x_max} has more than {MAX_FIGURE_POINTS} lattice points")


def _staircase_lines(st: Staircases, x_max: int) -> int:
    """How many staircases the SVG figure draws: the i >= 0 that start at i / v <= x_max + 1/2."""
    return (2 * x_max + 1) * st.v // 2 + 1


def _window_values(s: SectorSpec, poly: QuadPoly, x_max: int) -> tuple[list[int], list[int], list[int]]:
    """The x, y and value lists of the window x <= x_max, in ``lattice_window`` order."""
    xs, ys, scale, vals, _ = window_values(poly, s, x_max)
    assert (vals >= 0).all() and not (vals % scale).any()
    return xs.tolist(), ys.tolist(), (vals // scale).tolist()


def _render_ascii(s: SectorSpec, poly: QuadPoly, x_max: int, value_max: int) -> str:
    xs, ys, vals = _window_values(s, poly, x_max)
    width = max(2, max((len(str(v)) for v in vals if v <= value_max), default=1) + 1)
    y_top = max(ys)
    rows = [[""] * (x_max + 1) for _ in range(y_top + 1)]
    for x, y, v in zip(xs, ys, vals):
        rows[y][x] = str(v) if v <= value_max else "."
    lines = [f"{y:>3} |{''.join(cell.rjust(width) for cell in rows[y])}".rstrip() for y in range(y_top, -1, -1)]
    lines.append("    +" + "-" * ((x_max + 1) * width))
    lines.append("     " + "".join(str(x).rjust(width) for x in range(x_max + 1)))
    return "\n".join(lines) + "\n"


def _fmt_len(q: int | Fraction) -> str:
    """Exact two-decimal rendering of a rational length."""
    cents = round(q * 100)
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


def _render_svg(s: SectorSpec, st: Staircases, poly: QuadPoly, x_max: int, value_max: int) -> str:
    xs, ys, vals = _window_values(s, poly, x_max)
    y_top = max(ys)
    width = 2 * SVG_MARGIN + SVG_SCALE * x_max + 30
    height = 2 * SVG_MARGIN + SVG_SCALE * y_top

    def sx(x: int | Fraction) -> str:
        return _fmt_len(SVG_MARGIN + SVG_SCALE * x)

    def sy(y: int | Fraction) -> str:
        return _fmt_len(height - SVG_MARGIN - SVG_SCALE * y)

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

    # Staircase lines: staircase i starts on the x-axis at x = l i / n = i / v and
    # climbs in its step direction (u, v) (anti-diagonal for the quadrant).
    for i in range(_staircase_lines(st, x_max)):
        x0 = Fraction(i, st.v)
        limits = [y_edge / st.v]
        if st.u > 0:
            limits.append((x_edge - x0) / st.u)
        elif st.u < 0:
            limits.append((Fraction(-1, 4) - x0) / st.u)
        t_top = min(limits)
        if t_top > 0:
            parts.append(line((x0, 0), (x0 + t_top * st.u, t_top * st.v), "#bbbbbb", "0.75"))

    # Boundary rays.
    parts.append(line((Fraction(0), Fraction(0)), (x_edge, Fraction(0)), "#000000", "1.5"))
    if s.m == 0:
        parts.append(line((Fraction(0), Fraction(0)), (Fraction(0), y_edge), "#000000", "1.5"))
    else:
        t_ray = min(x_edge / s.m, y_edge / s.n)
        parts.append(line((Fraction(0), Fraction(0)), (t_ray * s.m, t_ray * s.n), "#000000", "1.5"))

    # Lattice points with labels; their coordinates are ints, which _fmt_len prints as "<int>.00".
    # Each column's and row's coordinates are formatted once, then looked up per point.
    cxs = [sx(x) for x in range(x_max + 1)]
    cys = [sy(y) for y in range(y_top + 1)]
    label_xs = [_fmt_len(SVG_MARGIN + SVG_SCALE * x + 6) for x in range(x_max + 1)]
    label_ys = [_fmt_len(height - SVG_MARGIN - SVG_SCALE * y + 4) for y in range(y_top + 1)]
    for x, y, v in zip(xs, ys, vals):
        parts.append(f'<circle cx="{cxs[x]}" cy="{cys[y]}" r="3" fill="#000000"/>')
        if v <= value_max:
            parts.append(f'<text x="{label_xs[x]}" y="{label_ys[y]}">{v}</text>')

    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
