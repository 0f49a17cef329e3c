"""The three benchmark workloads as lists of CLI operations, with the check for each.

Every operation is one call of ``qpacking.cli.main(argv)``.  The inputs are
fixed enumerations; the run's seed only fixes the order in which a pass runs
them.  Each operation also carries its amount of work in the workload's unit
(lattice points, scanned candidates or atlas rows), computed here from the
inputs alone, so that throughput never depends on the program's own counts.

Checks never trust the code under test for the answer:

- ``search`` output is compared with an oracle built from ``classify()``,
  which does not use the search code;
- ``verify`` output is checked by exit code, verdict kind and a SHA-256
  golden;
- atlas files and figures are checked against SHA-256 goldens recorded from
  the seed commit (``record_goldens.py``), because these outputs must stay
  byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from math import gcd

from qpacking.classify import classify
from qpacking.geometry import make_sector
from qpacking.poly import QuadPoly, format_poly

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDENS_PATH = os.path.join(BENCH_DIR, "goldens.json")
WORK_DIR = ".bench_work"  # relative to the checkout root, which is the working directory

WORKLOADS = ("verify-large", "search", "atlas-render")
WORK_UNITS = {"verify-large": "lattice points", "search": "candidates", "atlas-render": "atlas rows"}

# Classified polynomials of 12/7, the quadrant 1/0, 9/4 and 4/1 as (n, m, k,
# coefficients x^2,xy,y^2,x,y,1).  They are written out rather than taken from
# classify(), so that the verify inputs stay fixed whatever the program does.
VERIFY_CASES = (
    (12, 7, 1, "6,-6,3/2,-2,3/2,0"),
    (12, 7, -1, "6,-6,3/2,4,-5/2,0"),
    (12, 7, 3, "6,-6,3/2,-8,11/2,2"),
    (12, 7, -3, "6,-6,3/2,10,-13/2,2"),
    (1, 0, 1, "1/2,1,1/2,1/2,3/2,0"),
    (1, 0, -1, "1/2,1,1/2,3/2,1/2,0"),
    (9, 4, 1, "9/2,-3,1/2,-1/2,1/2,0"),
    (4, 1, 1, "2,0,0,-1,1,0"),
    (4, 1, -1, "2,0,0,3,-1,0"),
    (4, 1, 2, "2,0,0,-3,2,1"),
    (4, 1, -2, "2,0,0,5,-2,1"),
)
# The 12/7, k = 1 polynomial shifted by +1: it misses the value 0, which the
# verifier can only report after the whole window and the tail floor.
VERIFY_NEGATIVE = (12, 7, "6,-6,3/2,-2,3/2,1")

# Window sizes: 12k to 17k lattice points per op at full size.
VERIFY_XMAX = {(12, 7): 120, (1, 0): 120, (9, 4): 120, (4, 1): 90}
VERIFY_XMAX_TINY = 12

# 25/11 has forced A, B, C but no polynomial, so every survivor is rejected;
# 5/2 has no forced A, B, C, so the op returns at once.
SEARCH_RESTRICTED = ((12, 7), (9, 4), (1, 1), (25, 11), (5, 2))
SEARCH_FULL = ((1, 1), (2, 1), (1, 0))
SEARCH_SIZES = {
    # size -> (restricted D:E:F, restricted x_max, full A:B:C:D:E:F, full x_max)
    "full": ((16, 16, 10), 16, (3, 3, 3, 3, 3, 3), 12),
    "tiny": ((4, 4, 4), 8, (2, 2, 2, 2, 2, 2), 6),
}

RENDER_CASES = ((12, 7, 1), (1, 0, 1), (4, 1, 2), (9, 4, 1))
ATLAS_SIZES = {"full": (300, 40), "tiny": (30, 6)}  # size -> (nmax = mmax, render x_max)


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must be."""

    name: str
    argv: tuple[str, ...]
    kind: str  # "verify", "search" or "golden"
    work: int = 0
    expect_rc: int = 0
    verdict: str = ""  # verify: the verdict text its output must contain
    out: str | None = None  # file the op writes, relative to the checkout root
    search: tuple = ()  # search: (n, m, mode, box)


def window_points(n: int, m: int, x_max: int) -> int:
    """Lattice points of the window x <= x_max (a box for the quadrant)."""
    if m == 0:
        return (x_max + 1) ** 2
    return sum((n * x) // m + 1 for x in range(x_max + 1))


def search_candidates(n: int, m: int, mode: str, box: tuple[int, ...]) -> int:
    """|ABC| * |D| * |E| * |F| for the box as the CLI reads it."""
    if mode == "restricted":
        d, e, f = box
        abc = 1 if (m - 1) ** 2 % n == 0 else 0
    else:
        a, b, c, d, e, f = box
        abc = max(1, a) * (2 * b + 1) * (c + 1)
    return abc * (2 * d + 1) * (2 * e + 1) * (f + 1)


def atlas_rows(nmax: int, mmax: int) -> int:
    """Coprime (n, m) with n <= nmax, 1 <= m <= mmax, plus the quadrant row."""
    return 1 + sum(1 for n in range(1, nmax + 1) for m in range(1, mmax + 1) if gcd(n, m) == 1)


def _in_box(alpha, mode: str, box: tuple[int, ...]) -> bool:
    if mode == "restricted":
        d, e, f = box
        abc_ok = True
    else:
        a, b, c, d, e, f = box
        abc_ok = 1 <= alpha.A <= max(1, a) and -b <= alpha.B <= b and 0 <= alpha.C <= c
    return abc_ok and -d <= alpha.D <= d and -e <= alpha.E <= e and 0 <= alpha.F <= f


def search_oracle(n: int, m: int, mode: str, box: tuple[int, ...]) -> list[QuadPoly]:
    """The classified polynomials whose alpha form lies in the box, in the search's output order."""
    found = [e.poly for e in classify(make_sector(n, m)) if _in_box(e.alpha_form, mode, box)]
    return sorted(found, key=QuadPoly.coefficients)


def _verify_ops(size: str) -> list[Op]:
    ops = []
    cases = [(n, m, f"k={k}", c, 0, "verdict: PASS") for n, m, k, c in VERIFY_CASES]
    n, m, c = VERIFY_NEGATIVE
    cases.append((n, m, "k=1+1", c, 1, "verdict: FAIL [coverage_gap]"))
    for n, m, label, coeffs, rc, verdict in cases:
        x_max = VERIFY_XMAX[(n, m)] if size == "full" else VERIFY_XMAX_TINY
        ops.append(Op(
            name=f"verify {n}/{m} {label} xmax={x_max}",
            argv=("verify", str(n), str(m), coeffs, "--xmax", str(x_max)),
            kind="verify", work=window_points(n, m, x_max), expect_rc=rc, verdict=verdict,
        ))
    return ops


def _search_ops(size: str) -> list[Op]:
    r_box, r_xmax, f_box, f_xmax = SEARCH_SIZES[size]
    runs = [(n, m, "restricted", r_box, r_xmax, 1) for n, m in SEARCH_RESTRICTED]
    runs += [(n, m, "full", f_box, f_xmax, 2) for n, m in SEARCH_FULL]
    ops = []
    for n, m, mode, box, x_max, jobs in runs:
        bounds = ":".join(map(str, box))
        ops.append(Op(
            name=f"search {n}/{m} {mode} {bounds} xmax={x_max} jobs={jobs}",
            argv=("search", str(n), str(m), "--mode", mode, "--bounds", bounds,
                  "--xmax", str(x_max), "--jobs", str(jobs)),
            kind="search", work=search_candidates(n, m, mode, box), search=(n, m, mode, box),
        ))
    return ops


def _atlas_render_ops(size: str) -> list[Op]:
    nmax, render_xmax = ATLAS_SIZES[size]
    ops = []
    for fmt, jobs in (("json", 1), ("csv", 2)):
        out = f"{WORK_DIR}/atlas-{nmax}.{fmt}"
        ops.append(Op(
            name=f"atlas {nmax}x{nmax} {fmt} jobs={jobs}",
            argv=("atlas", "--nmax", str(nmax), "--mmax", str(nmax), "--format", fmt,
                  "--jobs", str(jobs), "--out", out),
            kind="golden", work=atlas_rows(nmax, nmax), out=out,
        ))
    for n, m, k in RENDER_CASES:
        for fmt in ("svg", "ascii"):
            ops.append(Op(
                name=f"render {n}/{m} k={k} {fmt} xmax={render_xmax}",
                argv=("render", str(n), str(m), str(k), "--xmax", str(render_xmax), "--format", fmt),
                kind="golden",
            ))
    return ops


def build_ops(workload: str, size: str = "full") -> list[Op]:
    """The operations of one pass of a workload, in their canonical order."""
    builders = {"verify-large": _verify_ops, "search": _search_ops, "atlas-render": _atlas_render_ops}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    return builders[workload](size)


# -- checks ----------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_goldens(path: str = GOLDENS_PATH) -> dict[str, dict[str, str]]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def output_digests(op: Op, stdout: str) -> dict[str, str]:
    """SHA-256 of an op's stdout and, if it writes one, of its output file."""
    digests = {"stdout": sha256(stdout.encode("utf-8"))}
    if op.out is not None:
        with open(op.out, "rb") as handle:
            digests["file"] = sha256(handle.read())
    return digests


def check_op(op: Op, rc, stdout: str, goldens: dict) -> str | None:
    """Why the op's result is wrong, or None when it is right."""
    if rc != op.expect_rc:
        return f"exit code {rc}, expected {op.expect_rc}"
    if op.kind == "search":
        n, m, mode, box = op.search
        expected = search_oracle(n, m, mode, box)
        lines = [format_poly(p) for p in expected]
        lines.append(f"found {len(expected)} packing polynomial(s) on sector {n}/{m}")
        if stdout != "\n".join(lines) + "\n":
            return f"search output differs from the classify() oracle ({len(expected)} expected)"
        return None
    if op.kind == "verify" and op.verdict not in stdout:
        return f"verdict {op.verdict!r} not in output"
    golden = goldens.get(op.name)
    if golden is None:
        return "no golden recorded for this op"
    digests = output_digests(op, stdout)
    for key, value in golden.items():
        if digests.get(key) != value:
            return f"{key} SHA-256 differs from the golden"
    return None
