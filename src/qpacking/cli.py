"""Command-line front end: classify, verify, search, atlas and render.

Exit codes: 0 success (or a passing verdict), 1 negative verdict (failed
verification, inadmissible figure request, unwritable file, or a standard output
that cannot be written, whatever the reason: one ``error writing standard
output:`` line, or none when its reader has closed it, and no traceback),
2 usage error.  Exit 2 is decided in ``main`` alone: a ``ValueError`` from the
sector or from any command, the atlas range among them, becomes one ``error:``
line; only ``render`` catches its own, for exit 1.  Work limits, each checked
before the work starts: ``MAX_DIGITS`` per sector number and coefficient part
(exit 2), ``verify.MAX_WINDOW_POINTS`` per window (exit 2), ``verify.MAX_WINDOW_BITS``
for a Python-int window's points times the bits of its values (exit 2),
``verify.MAX_CANDIDATES`` per search box and ``verify.MAX_SEARCH_WORK`` for its
candidates times its window's box points (exit 2), a search whose prescreen
would need a Python-int window (exit 2), ``atlas.MAX_ATLAS_CELLS`` for
nmax * mmax (exit 2) and ``render.MAX_FIGURE_POINTS`` per figure, which bounds
its lattice points and, for SVG, its staircase lines (exit 1).  Each range has one
check, where its value enters: the parser (``_int_at_least``, ``choices=`` and
``_parse_bounds``) for options, ``make_sector`` for the sector and
``admissible_ks`` for k; the library takes what they accept unchecked.  Each default, like
each range, has one home in ``cli``: the parser, or ``_parse_bounds`` for ``--bounds``.

``main`` may be called any number of times in one process. The parser is built
once, on the first call, and shared by every later call.

Only the commands that evaluate a window (``verify``, ``search`` and
``render``) need numpy, through ``verify`` and ``render``. Those two modules are
imported inside the command functions, so ``classify`` and ``atlas``, which
compute in integers and ``Fraction``s, start without numpy's import cost. A
function-level import reads the defining module at each call, so a function
replaced there (as the bench tracer's wrappers are) is the one called.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .atlas import atlas_to_csv, atlas_to_json, build_atlas, check_atlas_size, summary_line
from .classify import classify, no_qpp_reason, sector_arithmetic
from .geometry import make_sector
from .poly import QuadPoly, format_factored, format_poly

if TYPE_CHECKING:
    from .verify import SearchBounds


JOBS_HELP = "accepted for compatibility (>= 1); the work runs in one process"
UNCLASSIFIED_HIT = "  [window-certified to x <= {} only; not a classified packing polynomial]"


def _int_at_least(lo: int):
    """argparse type for an integer option that must be >= lo."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return integer


MAX_DIGITS = 1000  # per sector number, and per numerator or denominator of a coefficient


def _sector_number(text: str) -> int:
    """argparse type for a sector's n or m: an integer of at most ``MAX_DIGITS`` digits.

    The longest number the CLI derives from a sector is (m-1)^2, which then has at most 2,000
    digits, well under the 4,300 that Python converts to text.
    """
    if sum(ch.isdigit() for ch in text) > MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"has more than {MAX_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_coeffs(spec: str) -> QuadPoly:
    """Parse six comma-separated rationals in the order x^2, xy, y^2, x, y, 1."""
    items = [part.strip() for part in spec.split(",")]
    if len(items) != 6:
        raise ValueError(f"need 6 coefficients, got {len(items)}")
    coeffs = []
    for pos, item in enumerate(items, start=1):
        # an exponent makes Fraction build (or print) a number of any size
        if "e" in item.lower():
            raise ValueError(f"coefficient {pos}: exponent notation is not accepted ({item!r})")
        try:
            coeffs.append(Fraction(item))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"coefficient {pos}: invalid rational {item!r} ({exc})") from exc
        if max(abs(coeffs[-1].numerator), coeffs[-1].denominator) >= 10 ** MAX_DIGITS:
            raise ValueError(f"coefficient {pos}: numerator or denominator has more than {MAX_DIGITS} digits")
    return QuadPoly(*coeffs)


WRITE_SLICE = 1 << 16  # characters per write: an ASCII slice's bytes stay under glibc's 128 KiB mmap threshold


def _write(path: str, make) -> int:
    """Open path, then write the text of make() -> (text, note) and print the note: exit 0, or 1 with an error line.

    The text is written in slices of ``WRITE_SLICE`` characters, so no UTF-8 copy of the whole text is
    ever made; a slice of a ``str`` never splits a character, so the file holds exactly its encoding.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            text, note = make()
            for start in range(0, len(text), WRITE_SLICE):
                handle.write(text[start:start + WRITE_SLICE])
    except OSError as exc:
        print(f"error writing {path}: {exc}", file=sys.stderr)
        return 1
    print(note)
    return 0


def rational_json(q: Fraction) -> dict[str, str]:
    return {"num": str(q.numerator), "den": str(q.denominator)}


def _cmd_classify(args) -> int:
    s = args.sector
    st = sector_arithmetic(s)
    entries = classify(s)
    if args.format == "json":
        payload = {
            "sector": s._asdict(),
            "arithmetic": {
                "l": st.l,
                "n_over_l": st.v,
                "l2_over_n": rational_json(st.l2_over_n),
                "divides_n_l2": st.divides_n_l2,
            },
            "qpps": [
                {
                    "k": e.k,
                    "constant_F": e.alpha_form.F,
                    "coefficients": [rational_json(c) for c in e.poly.coefficients()],
                    "alpha_form": e.alpha_form._asdict(),
                    "factored": format_factored(st, e.k),
                    "expanded": format_poly(e.poly),
                }
                for e in entries
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"sector {s}" + (" (first quadrant)" if s.m == 0 else ""))
    print(f"l = {st.l}, n/l = {st.v}, l^2/n = {st.l2_over_n}")
    print(f"n | (m-1)^2: {'yes' if st.divides_n_l2 else 'no'}")
    if not entries:
        print(f"no QPPs: {no_qpp_reason(s, st)}")
        return 0
    print(f"admissible k: {', '.join(str(e.k) for e in entries)}")
    for e in entries:
        print(f"k = {e.k} (F = {e.alpha_form.F}):")
        print(f"  factored: {format_factored(st, e.k)}")
        print(f"  expanded: {format_poly(e.poly)}")
        a = e.alpha_form
        print(f"  alpha form: A={a.A} B={a.B} C={a.C} D={a.D} E={a.E} F={a.F}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import number_text, packing_window_verify

    s = args.sector
    poly = _parse_coeffs(args.coefficients)
    cert = packing_window_verify(poly, s, args.xmax)
    print(f"polynomial: {format_poly(poly)}")
    print(f"window: x <= {cert.x_max}")
    if cert.floor_bound is not None:
        print(f"tail floor (x > {cert.x_max}): {number_text(cert.floor_bound)}")
    if cert.threshold is not None:
        print(f"threshold T: {number_text(cert.threshold)}")
    if cert.ok:
        print(f"verdict: PASS (values 0..{cert.threshold} all packed exactly once)")
        return 0
    print(f"verdict: FAIL [{cert.failure.kind}] {cert.failure.message}")
    return 1


def _parse_bounds(text: str | None, mode: str) -> SearchBounds:
    """The search box of ``--bounds``; only restricted mode has a default box when it is left out."""
    from .verify import SearchBounds

    if text is None and mode == "full":
        raise ValueError("--mode full needs --bounds A:B:C:D:E:F")
    try:
        values = [int(p) for p in ("12:12:12" if text is None else text).split(":")]
    except ValueError:
        raise ValueError(f"bounds must be integers separated by ':', got {text!r}") from None
    if any(v < 0 for v in values):
        raise ValueError(f"bounds must be non-negative, got {text}")
    if mode == "restricted" and len(values) == 3:
        d, e, f = values
        return SearchBounds(d=(-d, d), e=(-e, e), f=(0, f))
    if mode == "full" and len(values) == 6:
        a, b, c, d, e, f = values
        return SearchBounds(d=(-d, d), e=(-e, e), f=(0, f), a=(1, max(1, a)), b=(-b, b), c=(0, c))
    raise ValueError("bounds must be D:E:F in restricted mode (D,E in [-D,D] etc., F in [0,F]) "
                     "or A:B:C:D:E:F in full mode")


def _cmd_search(args) -> int:
    from .verify import brute_force_search

    s = args.sector
    bounds = _parse_bounds(args.bounds, args.mode)
    found = brute_force_search(s, bounds, mode=args.mode, x_max=args.xmax, t_min=args.tmin, jobs=args.jobs)
    classified = {e.poly for e in classify(s)}
    count = sum(p in classified for p in found)
    if args.format == "json":
        payload = {
            "sector": s._asdict(),
            "mode": args.mode,
            "x_max": args.xmax,
            "count": count,
            "polynomials": [[rational_json(c) for c in p.coefficients()] for p in found if p in classified],
            "window_certified_only": [[rational_json(c) for c in p.coefficients()]
                                      for p in found if p not in classified],
        }
        print(json.dumps(payload, indent=2))
        return 0
    for p in found:
        print(format_poly(p) + ("" if p in classified else UNCLASSIFIED_HIT.format(args.xmax)))
    print(f"found {count} packing polynomial(s) on sector {s}")
    return 0


def _cmd_atlas(args) -> int:
    check_atlas_size(args.nmax, args.mmax)

    def make():
        atlas = build_atlas(args.nmax, args.mmax)
        text = atlas_to_json(atlas, args.nmax, args.mmax) if args.format == "json" else atlas_to_csv(atlas, args.mmax)
        return text, f"{summary_line(atlas, args.mmax)} -> {out}"
    out = f"atlas.{args.format}" if args.out is None else args.out
    return _write(out, make)


def _cmd_render(args) -> int:
    from .render import render_figure

    s = args.sector
    try:
        text = render_figure(s, args.k, x_max=args.xmax, value_max=args.value_max, fmt=args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        return _write(args.out, lambda: (text, f"wrote {args.out}"))
    sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qpacking`` parser, built on the first call and returned by every later one.

    Callers must not modify the returned parser: it is shared by every call of ``main``.
    """
    parser = argparse.ArgumentParser(
        prog="qpacking",
        description="Quadratic packing polynomials on rational sectors: "
                    "classification, certified verification, search, atlas and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sector = argparse.ArgumentParser(add_help=False)
    sector.add_argument("n", type=_sector_number)
    sector.add_argument("m", type=_sector_number)

    p = sub.add_parser("classify", parents=[sector], help="list all packing polynomials of a sector")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", parents=[sector], help="certify a polynomial on a finite window")
    p.add_argument("coefficients", help="six rationals 'x^2,xy,y^2,x,y,1', e.g. '2,-2,1/2,0,1/2,0'")
    p.add_argument("--xmax", type=_int_at_least(1), default=30)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", parents=[sector], help="exhaustive coefficient search with certified acceptance")
    p.add_argument("--mode", choices=("restricted", "full"), default="restricted")
    p.add_argument("--bounds", help="D:E:F (restricted, which alone has a default box) or A:B:C:D:E:F (full, "
                                    "required); D,E,B span [-X,X], F,C span [0,X], A spans [1,X]")
    p.add_argument("--xmax", type=_int_at_least(1), default=25)
    p.add_argument("--tmin", type=_int_at_least(0), default=0,
                   help="only accept candidates certified to threshold at least this")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=JOBS_HELP)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("atlas", help="classification table over a sector range")
    p.add_argument("--nmax", type=_int_at_least(1), required=True)
    p.add_argument("--mmax", type=_int_at_least(1), required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help=JOBS_HELP)
    p.set_defaults(func=_cmd_atlas)

    p = sub.add_parser("render", parents=[sector], help="labeled lattice figure for a classified polynomial")
    p.add_argument("k", type=int)
    p.add_argument("--xmax", type=_int_at_least(1), default=6)
    p.add_argument("--value-max", type=_int_at_least(0), default=40)
    p.add_argument("--format", choices=("svg", "ascii"), default="ascii")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            if "n" in args:  # every command but atlas works on one sector: refuse a bad one before any work
                args.sector = make_sector(args.n, args.m)
            return args.func(args)
        finally:  # also after argparse's help, so that an unwritable output shows here, not in the flush at exit
            sys.stdout.flush()
    except ValueError as exc:  # a usage error, from the sector or from any command
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # standard output cannot be written; _write reports the files it opens itself
        if not isinstance(exc, BrokenPipeError):  # a closed reader needs no message
            print(f"error writing standard output: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the flush at exit is silent
        return 1


if __name__ == "__main__":
    sys.exit(main())
