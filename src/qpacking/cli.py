"""Command-line front end: classify, verify, search, atlas and render.

Exit codes: 0 success (or a passing verdict), 1 negative verdict (failed
verification, inadmissible figure request), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .atlas import atlas_to_csv, atlas_to_json, build_atlas, rational_json, summary_line
from .classify import classify, no_qpp_reason, sector_arithmetic
from .geometry import make_sector
from .poly import QuadPoly, format_factored, format_poly
from .render import render_figure
from .verify import SearchBounds, brute_force_search, packing_window_verify


JOBS_HELP = "accepted for compatibility (>= 1); the work runs in one process"


def _int_at_least(lo: int):
    """argparse type for an integer option that must be >= lo."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    return integer


def _parse_coeffs(spec: str) -> QuadPoly:
    """Parse six comma-separated rationals in the order x^2, xy, y^2, x, y, 1."""
    items = [part.strip() for part in spec.split(",")]
    if len(items) != 6:
        raise ValueError(f"need 6 coefficients, got {len(items)}")
    coeffs = []
    for pos, item in enumerate(items, start=1):
        try:
            coeffs.append(Fraction(item))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"coefficient {pos}: invalid rational {item!r} ({exc})") from exc
    return QuadPoly(*coeffs)


def _sector_or_usage(n: int, m: int):
    try:
        return make_sector(n, m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_classify(args) -> int:
    s = _sector_or_usage(args.n, args.m)
    if s is None:
        return 2
    ar = sector_arithmetic(s)
    entries = classify(s)
    if args.format == "json":
        payload = {
            "sector": {"n": s.n, "m": s.m},
            "arithmetic": {
                "l": ar.l,
                "n_over_l": ar.n_over_l,
                "l2_over_n": rational_json(ar.l2_over_n),
                "divides_n_l2": ar.divides_n_l2,
            },
            "qpps": [
                {
                    "k": e.k,
                    "constant_F": e.constant_F,
                    "coefficients": [rational_json(c) for c in e.poly.coefficients()],
                    "alpha_form": {"A": e.alpha_form.A, "B": e.alpha_form.B, "C": e.alpha_form.C,
                                   "D": e.alpha_form.D, "E": e.alpha_form.E, "F": e.alpha_form.F},
                    "factored": format_factored(s, e.k),
                    "expanded": format_poly(e.poly),
                }
                for e in entries
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    title = f"sector {s.n}/{s.m}" + (" (first quadrant)" if s.is_quadrant else "")
    print(title)
    print(f"l = {ar.l}, n/l = {ar.n_over_l}, l^2/n = {ar.l2_over_n}")
    print(f"n | (m-1)^2: {'yes' if ar.divides_n_l2 else 'no'}")
    reason = no_qpp_reason(s)
    if reason is not None:
        print(f"no QPPs: {reason}")
        return 0
    print(f"admissible k: {', '.join(str(e.k) for e in entries)}")
    for e in entries:
        print(f"k = {e.k} (F = {e.constant_F}):")
        print(f"  factored: {format_factored(s, e.k)}")
        print(f"  expanded: {format_poly(e.poly)}")
        a = e.alpha_form
        print(f"  alpha form: A={a.A} B={a.B} C={a.C} D={a.D} E={a.E} F={a.F}")
    return 0


def _cmd_verify(args) -> int:
    s = _sector_or_usage(args.n, args.m)
    if s is None:
        return 2
    try:
        poly = _parse_coeffs(args.coefficients)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cert = packing_window_verify(poly, s, args.xmax)
    print(f"polynomial: {format_poly(poly)}")
    print(f"window: x <= {cert.x_max}")
    if cert.floor_bound is not None:
        print(f"tail floor (x > {cert.x_max}): {cert.floor_bound}")
    if cert.threshold is not None:
        print(f"threshold T: {cert.threshold}")
    if cert.ok:
        print(f"verdict: PASS (values 0..{cert.threshold} all packed exactly once)")
        return 0
    print(f"verdict: FAIL [{cert.failure.kind}] {cert.failure.message}")
    return 1


def _parse_bounds(text: str, mode: str) -> SearchBounds:
    values = [int(p) for p in text.split(":")]
    if any(v < 0 for v in values):
        raise ValueError(f"bounds must be non-negative, got {text}")
    if mode == "restricted" and len(values) == 3:
        d, e, f = values
        return SearchBounds(d=(-d, d), e=(-e, e), f=(0, f))
    if mode == "full" and len(values) == 6:
        a, b, c, d, e, f = values
        return SearchBounds(d=(-d, d), e=(-e, e), f=(0, f), a=(1, max(1, a)), b=(-b, b), c=(0, c))
    raise ValueError(
        "bounds must be D:E:F in restricted mode (D,E in [-D,D] etc., F in [0,F]) "
        "or A:B:C:D:E:F in full mode"
    )


def _cmd_search(args) -> int:
    s = _sector_or_usage(args.n, args.m)
    if s is None:
        return 2
    try:
        bounds = _parse_bounds(args.bounds, args.mode)
        found = brute_force_search(s, bounds, mode=args.mode, x_max=args.xmax,
                                   t_min=args.tmin, jobs=args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "sector": {"n": s.n, "m": s.m},
            "mode": args.mode,
            "x_max": args.xmax,
            "count": len(found),
            "polynomials": [[rational_json(c) for c in p.coefficients()] for p in found],
        }
        print(json.dumps(payload, indent=2))
        return 0
    for p in found:
        print(format_poly(p))
    print(f"found {len(found)} packing polynomial(s) on sector {s.n}/{s.m}")
    return 0


def _cmd_atlas(args) -> int:
    rows = build_atlas(args.nmax, args.mmax)
    text = atlas_to_json(rows, args.nmax, args.mmax) if args.format == "json" else atlas_to_csv(rows)
    out = args.out or f"atlas.{args.format}"
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error writing {out}: {exc}", file=sys.stderr)
        return 1
    print(f"{summary_line(rows)} -> {out}")
    return 0


def _cmd_render(args) -> int:
    s = _sector_or_usage(args.n, args.m)
    if s is None:
        return 2
    try:
        text = render_figure(s, args.k, x_max=args.xmax, value_max=args.value_max, fmt=args.format)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error writing {args.out}: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpacking",
        description="Quadratic packing polynomials on rational sectors: "
                    "classification, certified verification, search, atlas and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="list all packing polynomials of a sector")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="certify a polynomial on a finite window")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("coefficients", help="six rationals 'x^2,xy,y^2,x,y,1', e.g. '2,-2,1/2,0,1/2,0'")
    p.add_argument("--xmax", type=_int_at_least(1), default=30)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive coefficient search with certified acceptance")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--mode", choices=("restricted", "full"), default="restricted")
    p.add_argument("--bounds", default="12:12:12",
                   help="D:E:F (restricted) or A:B:C:D:E:F (full); D,E,B span [-X,X], F,C span [0,X], A spans [1,X]")
    p.add_argument("--xmax", type=_int_at_least(1), default=25)
    p.add_argument("--tmin", type=_int_at_least(0), default=None,
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

    p = sub.add_parser("render", help="labeled lattice figure for a classified polynomial")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--xmax", type=_int_at_least(1), default=6)
    p.add_argument("--value-max", type=_int_at_least(0), default=40)
    p.add_argument("--format", choices=("svg", "ascii"), default="ascii")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
