"""Tabulating classifications over ranges of rational slopes: the atlas is its class table.

A sector n/m depends on m only through its class r = m mod n: l = gcd(m-1, n), n/l, l^2/n, the admissible
step constants k and the canonical shear representative (n, r) are those of every m of the class; only the
closed-form polynomial coefficients change with m.  So ``build_atlas`` keeps, for each n, the classes r that
hold a coprime m <= mmax, each with its printed columns (l, n/l, l^2/n) and its ks, and builds no row.  The
rows are implied: row (n, m) exists for each 0 <= m <= mmax whose class m mod n is in n's table (every coprime
m >= 1, and the first-quadrant row m = 0 on n = 1), and class r of n holds (mmax - r)//n + 1 of them.

The writers lay a row's text out once for all classes of n with the same l and ks, and ``_rows`` takes the texts
of m and r from one table of str(0..mmax).  Each row, in (n, m) order, adds these shared pieces to one list; only
a row with ks adds a new string, its polynomials: the integer (num, den) pairs of ``poly.packing_coefficients`` of
its own (n, m).  Each text is then the one text-sized string made, joined once from that list: the JSON as
``json.dumps(indent=2)`` lays it out, rationals as numerator/denominator strings; the CSV with rationals as
``str(Fraction)`` prints them and numbers joined by " " and ";", so no field holds ",", '"' or a newline to quote.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .classify import admissible_ks, sector_arithmetic
from .geometry import SectorSpec
from .poly import packing_coefficients


MAX_ATLAS_CELLS = 250_000  # nmax * mmax: the (n, m) pairs an atlas scans

Columns = tuple[int, int, Fraction]  # the printed (l, n/l, l^2/n) of a class
Atlas = dict[int, dict[int, tuple[Columns, tuple[int, ...]]]]  # n -> {r: (columns, ks)}, keys ascending


def check_atlas_size(nmax: int, mmax: int) -> None:
    """Refuse with ``ValueError`` a range of more than ``MAX_ATLAS_CELLS`` pairs (n, m); nmax, mmax >= 1."""
    if nmax * mmax > MAX_ATLAS_CELLS:
        raise ValueError(f"atlas of nmax {nmax} by mmax {mmax} has more than {MAX_ATLAS_CELLS} cells")


def build_atlas(nmax: int, mmax: int) -> Atlas:
    """The class table of the coprime (n, m) with n <= nmax, 1 <= m <= mmax, plus (1, 0); n and r ascending.

    A class's first m is its residue r, so n's classes are the r < min(n, mmax + 1) coprime to n; r = 0 only
    for n = 1.  The classes of n with the same l = gcd(r-1, n) share the columns and n | l^2 of the
    ``sector_arithmetic`` record of the first of them.  When n | l^2, ``admissible_ks`` reads each class's own
    record, for its own u = (r-1)/l; the other classes have no ks.  The caller sizes the range first with
    ``check_atlas_size``.
    """
    atlas = {}
    for n in range(1, nmax + 1):
        shared = {}  # l -> (columns, n | l^2) of this n's classes with gcd(r-1, n) = l
        classes = atlas[n] = {}
        for r in range(min(n, mmax + 1)):
            if gcd(n, r) == 1:
                l = gcd(r - 1, n)
                if l not in shared:
                    st = sector_arithmetic(SectorSpec(n, r))
                    shared[l] = (st.l, st.v, st.l2_over_n), st.divides_n_l2
                elif shared[l][1]:
                    st = sector_arithmetic(SectorSpec(n, r))
                columns, divides = shared[l]  # when divides, st is the record of this class
                classes[r] = (columns, tuple(admissible_ks(st)) if divides else ())
    return atlas


def summary_counts(atlas: Atlas, mmax: int) -> dict[int, int]:
    """Rows per number of packing polynomials, ascending: class r of n holds (mmax - r)//n + 1 rows."""
    counts = [0] * 7  # a row has 0, 1, 2 or 4 of the six ks
    for n, classes in atlas.items():
        for r, (_, ks) in classes.items():
            counts[len(ks)] += (mmax - r) // n + 1
    return {c: rows for c, rows in enumerate(counts) if rows}


def summary_line(atlas: Atlas, mmax: int) -> str:
    counts = summary_counts(atlas, mmax)
    by_count = " ".join(f"qpp{c}={n}" for c, n in counts.items())
    return f"sectors={sum(counts.values())} {by_count}"


# -- serialization -------------------------------------------------------------


def _rows(atlas: Atlas, mmax: int, layout):
    """(n, m, ks, text of m, text of m mod n, layout(n, columns, ks)) of each row in (n, m) order.

    The layout runs once per (l, ks) of each n.  The number texts come from one table of str(0..mmax), as m and
    m mod n are at most mmax, so a row adds no new string: it only refers to texts shared with other rows.
    """
    numbers = [str(i) for i in range(mmax + 1)]
    for n, classes in atlas.items():
        texts = {}  # (l, ks) -> layout(n, columns, ks)
        laid = []  # (r, ks, text of r, text) of each class, r ascending
        for r, (columns, ks) in classes.items():
            text = texts.get((columns[0], ks))
            if text is None:
                text = texts[columns[0], ks] = layout(n, columns, ks)
            laid.append((r, ks, numbers[r], text))
        for base in range(0, mmax + 1, n):
            for r, ks, r_text, text in laid:
                m = base + r
                if m > mmax:
                    break
                yield n, m, ks, numbers[m], r_text, text


def _json_block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Laid-out items as the indent=2 list (or, with brackets "{}", dict) that opens at depth ``pad``."""
    inner = f",\n{pad}  "
    return f"{brackets[0]}\n{pad}  {inner.join(items)}\n{pad}{brackets[1]}" if items else brackets


def _json_class(n: int, columns: Columns, ks: tuple[int, ...]) -> tuple[str, str, str]:
    """(a row's text before m, after m up to the polynomials, after them up to r); without ks, after m up to r."""
    l, v, l2_over_n = columns
    after_m = f""",
      "l": {l},
      "n_over_l": {v},
      "l2_over_n": {{
        "num": "{l2_over_n.numerator}",
        "den": "{l2_over_n.denominator}"
      }},
      "qpp_count": {len(ks)},
      "ks": {_json_block([str(k) for k in ks], " " * 6)},
      "polynomials": """
    after_polys = f',\n      "canonical_sector": [\n        {n},\n        '
    head = f',\n    {{\n      "n": {n},\n      "m": '
    return (head, after_m, after_polys) if ks else (head, f"{after_m}[]{after_polys}", "")


def _json_polynomials(n: int, m: int, ks: tuple[int, ...]) -> str:
    pad = " " * 10
    return _json_block([_json_block([f'{{\n{pad}  "num": "{num}",\n{pad}  "den": "{den}"\n{pad}}}'
                                     for num, den in packing_coefficients(n, m, k)], " " * 8) for k in ks], " " * 6)


_JSON_ROW_END = "\n      ]\n    }"  # after r: the close of canonical_sector and of the row


def atlas_to_json(atlas: Atlas, nmax: int, mmax: int) -> str:
    """The atlas as ``json.dumps(indent=2)`` lays it out, joined once from a head, each row's pieces and a tail."""
    parts = [f'{{\n  "nmax": {nmax},\n  "mmax": {mmax},\n  "rows": [']
    for n, m, ks, m_text, r_text, (head, after_m, after_polys) in _rows(atlas, mmax, _json_class):
        if ks:
            parts.extend((head, m_text, after_m, _json_polynomials(n, m, ks), after_polys, r_text, _JSON_ROW_END))
        else:
            parts.extend((head, m_text, after_m, r_text, _JSON_ROW_END))
    close = "\n  ]" if len(parts) > 1 else "]"
    if len(parts) > 1:
        parts[1] = parts[1][1:]  # each row opens with the comma that follows the row before it
    counts = summary_counts(atlas, mmax)
    by_count = _json_block([f'"{c}": {n}' for c, n in counts.items()], "    ", "{}")
    parts.append(f"""{close},
  "summary": {{
    "total": {sum(counts.values())},
    "by_count": {by_count}
  }}
}}
""")
    return "".join(parts)


def _rational_csv(num: int, den: int) -> str:
    """num/den as ``str(Fraction)`` prints it: "p" for an integer, else "p/q"."""
    return f"{num}" if den == 1 else f"{num}/{den}"


def _csv_class(n: int, columns: Columns, ks: tuple[int, ...]) -> tuple[str, str]:
    """(a row's text before m, after m up to r); a row ends with r, a comma and its polynomials."""
    l, v, l2_over_n = columns  # str(Fraction) prints l^2/n as _rational_csv does
    return f"{n},", f",{l},{v},{l2_over_n},{len(ks)},{' '.join(map(str, ks))},{n},"


def atlas_to_csv(atlas: Atlas, mmax: int) -> str:
    """The atlas as CSV, joined once: the header, each row's pieces, the summary comment."""
    parts = ["n,m,l,n_over_l,l2_over_n,qpp_count,ks,canonical_n,canonical_m,polynomials\n"]
    for n, m, ks, m_text, r_text, (head, after_m) in _rows(atlas, mmax, _csv_class):
        if ks:
            polys = ";".join(" ".join(_rational_csv(*c) for c in packing_coefficients(n, m, k)) for k in ks)
            parts.extend((head, m_text, after_m, r_text, f",{polys}\n"))
        else:
            parts.extend((head, m_text, after_m, r_text, ",\n"))
    parts.append(f"# {summary_line(atlas, mmax)}\n")
    return "".join(parts)
