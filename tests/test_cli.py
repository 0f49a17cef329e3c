import errno
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, strategies as st

import qpacking
from qpacking import atlas, cli, render, verify
from qpacking.atlas import build_atlas
from qpacking.classify import classify, no_qpp_reason, sector_arithmetic
from qpacking.cli import main
from qpacking.geometry import make_sector
from qpacking.poly import K_ORDER, QuadPoly, format_poly
from qpacking.render import _fmt_len

from helpers import coprime_sectors

BENCH_GOLDENS = Path(__file__).resolve().parent.parent / "bench" / "goldens.json"

EX1 = "2,-2,1/2,0,1/2,0"  # the 4/3 packing polynomial with k = 1
EX1_SHIFTED = "2,-2,1/2,0,1/2,1"


def run(argv):
    """Exit code of the CLI; any exception other than SystemExit fails the test."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# the one line printed for bounds that int() does not accept, and for a full-mode search without bounds
ERROR_LINES = {("search", "4", "3", "--bounds", b): f"error: bounds must be integers separated by ':', got {b!r}"
               for b in ("1.5:1:1", "a:1:1", "1::1")}
ERROR_LINES["search", "4", "3", "--mode", "full"] = "error: --mode full needs --bounds A:B:C:D:E:F"


@pytest.mark.parametrize("argv", [
    ["search", "4", "3", "--jobs", "0"],
    ["atlas", "--nmax", "3", "--mmax", "3", "--jobs", "0"],
    ["search", "4", "3", "--bounds", f"1:{2**62}:1"],
    ["search", "4", "3", "--bounds", f"0:0:{2**62}"],
    ["search", "4", "3", "--bounds=-2:-2:-2"],
    ["verify", "4", "3", EX1, "--xmax", "0"],
    ["verify", "4", "3", EX1, "--xmax", "9" * 20],
    ["render", "4", "3", "1", "--value-max", "-1"],
    ["search", "4", "3", "--bounds", "6:6:6", "--xmax", "12", "--tmin", "-1"],
    ["verify", "4", "3", "1e5000,0,0,0,0,0", "--xmax", "2"],
    ["verify", "4", "3", "1e-10000000,0,0,0,0,0", "--xmax", "2"],
    # a coefficient part of 4,299 digits, more than MAX_DIGITS
    ["verify", "1", "1", "9" * 4299 + ",0,0,0,1,0", "--xmax", "30"],
    ["classify", "4", "x"],
    ["verify", "4", "3", "1,2,3"],
    ["verify", "4", "3", "1/0,0,0,0,0,0"],
    ["search", "4", "3", "--bounds", "1:1"],
    *map(list, ERROR_LINES),
    ["search", "4", "3", "--xmax", "0"],
    ["render", "4", "3", "1", "--xmax", "0"],
    ["atlas", "--nmax", "0", "--mmax", "3"],
    ["atlas", "--nmax", "3", "--mmax", "0"],
    ["search", "4", "3", "--mode", "other"],
    ["render", "4", "3", "1", "--format", "pdf"],
], ids=["search-jobs-0", "atlas-jobs-0", "search-bounds-too-large", "search-f-beyond-int64", "search-bounds-negative",
        "verify-xmax-0", "verify-xmax-huge", "render-value-max-negative", "search-tmin-negative",
        "verify-exponent-huge", "verify-exponent-tiny", "verify-coefficient-huge",
        "classify-m-not-int", "verify-three-coefficients", "verify-zero-denominator", "search-two-bounds",
        "search-bounds-not-int-decimal", "search-bounds-not-int-letter", "search-bounds-not-int-empty",
        "search-full-without-bounds",
        "search-xmax-0", "render-xmax-0", "atlas-nmax-0", "atlas-mmax-0", "search-mode-other", "render-format-pdf"])
def test_usage_error_exits_2(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert sum("error:" in line for line in err.splitlines()) == 1 and "Traceback" not in err
    if tuple(argv) in ERROR_LINES:
        assert err == ERROR_LINES[tuple(argv)] + "\n"


M_1000_DIGITS = "1" + "0" * 998 + "1"  # 3 does not divide (m-1)^2 = 10^1998
M_1001_DIGITS = "1" + "0" * 999 + "1"


@pytest.mark.parametrize("argv", [
    ["classify", "3", M_1001_DIGITS],
    ["verify", "3", M_1001_DIGITS, EX1],
    ["search", "3", M_1001_DIGITS],
    ["render", "3", M_1001_DIGITS, "1"],
    ["classify", M_1001_DIGITS, "1"],
], ids=["classify", "verify", "search", "render", "classify-n"])
def test_sector_number_over_1000_digits_exits_2(argv, capsys):
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"qpacking {argv[0]}: error: argument {'n' if argv[1] == M_1001_DIGITS else 'm'}: has more than 1000 digits"]


def test_sector_number_of_1000_digits_classifies(capsys):
    # (m-1)^2 has 1,999 digits and is printed in the "no QPPs" line
    assert run(["classify", "3", M_1000_DIGITS]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == f"no QPPs: 3 does not divide ({M_1000_DIGITS}-1)^2 = {10 ** 1998}" and err == ""


def test_search_forced_abc_beyond_int64_exits_2(capsys):
    # a window of 26 points and bounds 1:1:1, but the forced B = 1 - m and C = (m-1)^2 overflow int64
    assert run(["search", "1", M_1000_DIGITS, "--bounds", "1:1:1"]) == 2
    assert capsys.readouterr() == (
        "", "error: search bounds or the sector's forced A, B, C too large for exact 64-bit prescreening\n")


def test_search_beyond_int64_exits_2_before_any_window(monkeypatch, capsys):
    # F up to 10^15 on the 2,001,000-point window x <= 1999 of 1/1 needs Python ints: refused from its size alone
    def refuse(s, x_max):
        raise AssertionError(f"a window x <= {x_max} was built")

    monkeypatch.setattr(verify, "lattice_window", refuse)
    assert run(["search", "1", "1", "--mode", "full", "--bounds", "1:0:0:1:1:1000000000000000", "--xmax", "1999"]) == 2
    assert capsys.readouterr() == (
        "", "error: search bounds or the sector's forced A, B, C too large for exact 64-bit prescreening\n")


def test_search_candidate_limit(monkeypatch, capsys):
    # 2:2:0 is D and E in [-2, 2]: 25 candidates; F is derived and not counted
    argv = ["search", "4", "3", "--bounds", "2:2:0"]
    monkeypatch.setattr(verify, "MAX_CANDIDATES", 25)
    assert run(argv) == 0
    assert capsys.readouterr() == (
        "2*x^2 - 2*x*y + 1/2*y^2 + 1/2*y\nfound 1 packing polynomial(s) on sector 4/3\n", "")
    monkeypatch.setattr(verify, "MAX_CANDIDATES", 24)
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: search box has 25 candidates, more than the limit of 24\n")


def test_search_refuses_huge_box_at_once(capsys):
    # 5/2 has no forced A, B, C, and its box is refused all the same
    for sector in (["4", "3"], ["5", "2"]):
        start = perf_counter()
        assert run(["search", *sector, "--bounds", "99999999:1:1"]) == 2
        assert perf_counter() - start < 1
        assert capsys.readouterr().err == "error: search box has 599999997 candidates, more than the limit of 1000000\n"


def test_search_over_many_prescreen_blocks(capsys):
    # 4,001 x 3 (D, E) candidates: the prescreen runs in many blocks
    polys = sorted((e.poly for e in classify(make_sector(4, 3))), key=QuadPoly.coefficients)
    assert len(polys) == 2
    assert run(["search", "4", "3", "--bounds", "2000:1:1", "--xmax", "12"]) == 0
    assert capsys.readouterr() == (
        "".join(format_poly(p) + "\n" for p in polys) + "found 2 packing polynomial(s) on sector 4/3\n", "")


def test_search_over_work_limit_is_refused_at_once(capsys):
    # 999,999 candidates, each within MAX_CANDIDATES, on the 2,000 x 2,000 window, which is within
    # MAX_WINDOW_POINTS and int64: scanned, it would take hours
    start = perf_counter()
    assert run(["search", "1", "1", "--mode", "full", "--bounds", "1:0:0:500:499:0", "--xmax", "1999"]) == 2
    assert perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: search box has 999999 candidates for a window x <= 1999 with a "
                                       "bounding box of 4000000 lattice points: more than the limit of 1000000000 "
                                       "candidate-points\n")


def test_search_of_one_candidate_on_a_large_window_runs(capsys):
    # the one candidate, x(x - 1)/2, takes 0 at (0, 0) and (1, 0) in the 1,000 x 1,000 window
    assert run(["search", "1", "1", "--mode", "full", "--bounds", "1:0:0:0:0:0", "--xmax", "999"]) == 0
    assert capsys.readouterr() == ("found 0 packing polynomial(s) on sector 1/1\n", "")


WINDOW_REFUSED = "error: window x <= {} has a bounding box of {} lattice points, more than the limit of 4000000\n"
FIGURE_REFUSED = "error: figure x <= 2000 has more than 10000 lattice points\n"


@pytest.mark.parametrize("argv, code, err", [
    (["verify", "1", "0", "1/2,1,1/2,1/2,3/2,0", "--xmax", "2000"], 2, WINDOW_REFUSED.format(2000, 4004001)),
    (["search", "1", "0", "--bounds", "1:1:1", "--xmax", "2000"], 2, WINDOW_REFUSED.format(2000, 4004001)),
    # 3/2 has no forced A, B, C; its 9 candidates times 4,003,300 points are within MAX_SEARCH_WORK
    (["search", "3", "2", "--bounds", "1:1:1", "--xmax", "1633"], 2, WINDOW_REFUSED.format(1633, 4003300)),
    # render's own limit of 10,000 points comes first
    (["render", "1", "0", "1", "--xmax", "2000"], 1, FIGURE_REFUSED),
], ids=["verify", "search", "search-no-forced-abc", "render"])
def test_window_one_step_above_limit_is_refused_at_once(argv, code, err, capsys):
    # the quadrant's window at x_max 2000 is the box 2001 x 2001: 4,004,001 points;
    # 3/2's at x_max 1633 is 1,634 x 2,450: 4,003,300 points
    start = perf_counter()
    assert run(argv) == code
    assert perf_counter() - start < 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("argv, points", [
    (["render", "1", "0", "1", "--xmax", "99"], 100 * 100),
    (["render", "4", "1", "2", "--xmax", "70"], 71 + 4 * 70 * 71 // 2),
], ids=["quadrant", "4-1"])
def test_render_at_figure_limit_runs(argv, points, monkeypatch, capsys):
    # the quadrant at x_max 99 has exactly MAX_FIGURE_POINTS; 4/1 at x_max 70 has 10,011
    monkeypatch.setattr(render, "MAX_FIGURE_POINTS", points)
    assert run(argv) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(render, "MAX_FIGURE_POINTS", points - 1)
    assert run(argv) == 1
    assert capsys.readouterr() == ("", f"error: figure x <= {argv[-1]} has more than {points - 1} lattice points\n")


def test_render_thin_sector_over_figure_limit_is_refused_at_once(capsys):
    # one point per column: the count passes the limit at column 10,000 of 4,000,000
    start = perf_counter()
    assert run(["render", "1", "4000000", "1", "--xmax", "3999999"]) == 1
    assert perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: figure x <= 3999999 has more than 10000 lattice points\n")


def _staircase_sector(n: int) -> list[str]:
    """render argv for N/(N + sqrt(N) + 1): l = sqrt(N), k = 1 admissible and 22 points at x_max 6."""
    return ["render", str(n), str(n + isqrt(n) + 1), "1"]


def test_render_svg_over_staircase_line_limit_is_refused_at_once(capsys):
    # the SVG of 10^8 would draw (2 x_max + 1) N / (2 l) + 1 = 65,001 staircase lines; its ASCII draws none
    argv = _staircase_sector(10**8)
    start = perf_counter()
    assert run(argv + ["--format", "svg"]) == 1
    assert perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: figure x <= 6 has more than 10000 staircase lines\n")
    assert run(argv) == 0
    out, err = capsys.readouterr()
    assert out.count("\n") == 8 and err == ""


def test_render_svg_under_staircase_line_limit_runs(capsys):
    # 10^6 counts 6,501 staircases; the last starts at x = x_max + 1/2 and has no length inside the window
    assert run(_staircase_sector(10**6) + ["--format", "svg"]) == 0
    out, err = capsys.readouterr()
    assert out.count('stroke="#bbbbbb"') == 6500 and err == ""


def test_window_at_limit_runs(monkeypatch, capsys):
    # 12/7 at x_max 120, the largest benchmark window, has a box of 121 x 206 = 24,926 points
    monkeypatch.setattr(verify, "MAX_WINDOW_POINTS", 121 * 206)
    argv = ["verify", "12", "7", "6,-6,3/2,-2,3/2,0"]
    assert run(argv + ["--xmax", "120"]) == 0
    assert capsys.readouterr().out.endswith("verdict: PASS (values 0..1860 all packed exactly once)\n")
    assert run(argv + ["--xmax", "121"]) == 2
    assert capsys.readouterr().err == (
        "error: window x <= 121 has a bounding box of 25376 lattice points, more than the limit of 24926\n")


# 1/(10^999 + d): the lcm of the six denominators makes every window of these a Python-int window
HUGE_DENOMINATORS = ",".join(f"1/{10**999 + d}" for d in (7, 9, 13, 19, 21, 27))


def test_object_window_over_bit_limit_is_refused_at_once(capsys):
    # 2,000 x 2,000 points of values up to 19,936 bits: the window would have needed about 9 GB
    start = perf_counter()
    assert run(["verify", "1", "1", HUGE_DENOMINATORS, "--xmax", "1999"]) == 2
    assert perf_counter() - start < 1
    assert capsys.readouterr() == ("", "error: window x <= 1999 has 4000000 lattice points in its bounding box and "
                                       "values of up to 19936 bits: more than the limit of 4000000000 point-bits\n")


def test_object_window_under_bit_limit_runs(capsys):
    assert run(["verify", "1", "1", HUGE_DENOMINATORS, "--xmax", "100"]) == 1
    assert "verdict: FAIL [non_integral_value] " in capsys.readouterr().out


def test_verify_prints_a_tail_floor_too_long_for_str(capsys):
    # each coefficient is under the 1,000-digit limit, but the tail floor's numerator and
    # denominator grow with the lcm of all four denominators, past what str() converts
    rng = random.Random(50)
    big = lambda: rng.randrange(10**996, 10**997)
    A, B, C = (Fraction(rng.randrange(1, 10**996), big()) for _ in range(3))
    E = Fraction(-rng.randrange(1, 10**996), big())
    assert run(["verify", "1", "100", ",".join(map(str, (A, B, C, -60 - A, E, 400))), "--xmax", "1"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == [
        "window: x <= 1",
        "tail floor (x > 1): -10433.6670850 (rounded)",
        "threshold T: -10435",
        "verdict: FAIL [tail_below_zero] tail lower bound -10433.6670850 (rounded) certifies no threshold; "
        "enlarge the window",
    ]
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["render", "4", "3", "2"],
    ["verify", "4", "3", EX1_SHIFTED],
], ids=["render-inadmissible-k", "verify-shifted"])
def test_negative_verdict_exits_1(argv, capsys):
    assert run(argv) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, line", [
    (["render", "9", "4", "-1"], "error: k=-1 is not admissible for sector 9/4; admissible: [1]"),
    (["render", "5", "2", "1"], "error: no QPPs on sector 5/2: 5 does not divide (2-1)^2 = 1"),
    (["render", "25", "11", "1"],
     "error: no QPPs on sector 25/11: no admissible k: the congruence and l^2/n conditions all fail"),
    (["render", "4", "1", "3"], "error: k=3 is not admissible for sector 4/1; admissible: [1, -1, 2, -2]"),
    (["render", "1", "0", "2"], "error: k=2 is not admissible for sector 1/0; admissible: [1, -1]"),
], ids=["9-4-inadmissible-k", "5-2-no-divisor", "25-11-no-k", "4-1-inadmissible-k", "1-0-inadmissible-k"])
def test_render_refusal_lines(argv, line, capsys):
    assert run(argv) == 1
    assert capsys.readouterr() == ("", line + "\n")


def test_render_takes_each_polynomial_and_refusal_from_the_classification():
    # every coprime sector with n, m <= 12 and the quadrant, and every k with 0 and 4 besides: an
    # admissible k draws classify's polynomial, and any other k is refused as classify's list implies
    got, want = {}, {}
    for s in coprime_sectors(12, 12):
        entries = classify(s)
        polys = {e.k: e.poly for e in entries}
        for k in (*K_ORDER, 0, 4):
            if k in polys:
                want[s, k] = render._render_ascii(s, polys[k], 3, 40)
            elif entries:
                want[s, k] = f"k={k} is not admissible for sector {s}; admissible: {list(polys)}"
            else:
                want[s, k] = f"no QPPs on sector {s}: {no_qpp_reason(s, sector_arithmetic(s))}"
            try:
                got[s, k] = render.render_figure(s, k, x_max=3, value_max=40, fmt="ascii")
            except ValueError as exc:
                got[s, k] = str(exc)
    assert got == want


# SHA-256 of the 30x30 atlas files, recorded before the JSON writer was
# replaced; the same digests as the "atlas 30x30" benchmark goldens.
ATLAS_30_SHA256 = {
    "json": "2cae7f94c4aaae1decc8f81b685c0f0dd0876c5a5a2abfc18c9c29488f7b2bbf",
    "csv": "9c279f99ef88f7c27df0171bf16c93bd589d8e44115bc0922cad017554860cdf",
}


@pytest.mark.parametrize("fmt, jobs", [("json", "1"), ("csv", "1"), ("json", "2"), ("csv", "2")],
                         ids=["json", "csv", "json-jobs2", "csv-jobs2"])
def test_atlas_files_match_goldens(fmt, jobs, tmp_path, capsys):
    # --jobs is still accepted and leaves the bytes unchanged
    out = tmp_path / f"atlas.{fmt}"
    assert run(["atlas", "--nmax", "30", "--mmax", "30", "--format", fmt, "--jobs", jobs, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ATLAS_30_SHA256[fmt]
    assert capsys.readouterr().out == f"sectors=556 qpp0=387 qpp1=17 qpp2=132 qpp4=20 -> {out}\n"


@pytest.mark.parametrize("nmax, mmax", [("1", "100000000"), (str(10 ** 999), "1")], ids=["mmax", "nmax-1000-digits"])
def test_atlas_over_cell_limit_is_refused_at_once(nmax, mmax, tmp_path, capsys):
    out = tmp_path / "atlas.json"
    start = perf_counter()
    assert run(["atlas", "--nmax", nmax, "--mmax", mmax, "--out", str(out)]) == 2
    assert perf_counter() - start < 1
    assert capsys.readouterr() == (
        "", f"error: atlas of nmax {nmax} by mmax {mmax} has more than 250000 cells\n")
    assert not out.exists()


def test_atlas_at_cell_limit_runs(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(atlas, "MAX_ATLAS_CELLS", 30 * 30)
    out = tmp_path / "atlas.json"
    assert run(["atlas", "--nmax", "30", "--mmax", "30", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ATLAS_30_SHA256["json"]
    capsys.readouterr()
    assert run(["atlas", "--nmax", "30", "--mmax", "31", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: atlas of nmax 30 by mmax 31 has more than 900 cells\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_atlas_unwritable_out_fails_before_the_build(fmt, monkeypatch, tmp_path, capsys):
    def no_build(nmax, mmax):
        raise AssertionError("the atlas was built before --out was opened")
    monkeypatch.setattr(cli, "build_atlas", no_build)
    out = tmp_path / "missing-dir" / f"x.{fmt}"
    assert run(["atlas", "--nmax", "300", "--mmax", "300", "--format", fmt, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error writing {out}: [Errno 2] No such file or directory: '{out}'\n")
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", [["atlas", "--nmax", "2", "--mmax", "2"],
                                  ["atlas", "--nmax", "2", "--mmax", "2", "--format", "csv"],
                                  ["render", "4", "1", "1"]], ids=["atlas-json", "atlas-csv", "render"])
def test_empty_out_is_an_unwritable_path(argv, monkeypatch, tmp_path, capsys):
    # an empty --out names no file: not the default atlas file, and not standard output
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--out", ""]) == 1
    assert capsys.readouterr() == ("", "error writing : [Errno 2] No such file or directory: ''\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt, golden", [("json", "atlas 300x300 json jobs=1"), ("csv", "atlas 300x300 csv jobs=2")],
                         ids=["json", "csv"])
def test_atlas_300_matches_bench_goldens(fmt, golden, tmp_path, capsys):
    # the file as the CLI writes it to --out
    goldens = json.loads(BENCH_GOLDENS.read_text(encoding="utf-8"))
    out = tmp_path / f"atlas.{fmt}"
    assert run(["atlas", "--nmax", "300", "--mmax", "300", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == goldens[golden]["file"]
    assert capsys.readouterr().err == ""


def test_atlas_out_holds_the_text_at_most_twice(tmp_path, capsys):
    # the rows refer to shared pieces, so the one join makes the only text-sized string, and the write
    # encodes it one slice at a time: beyond the class table the peak is the text, the list of pieces and
    # the polynomial texts, about 1.5 times the file's size.  A new string per row (about 1.95 times)
    # or a whole-text UTF-8 copy in the write (2.3 times with both) passes 1.75 times it
    out = tmp_path / "atlas.json"
    tracemalloc.start()
    try:
        build_atlas(120, 120)
        table_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert run(["atlas", "--nmax", "120", "--mmax", "120", "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.stat().st_size > 3_000_000
    assert peak - table_peak < 1.75 * out.stat().st_size
    capsys.readouterr()


# 2.5 slices with "é€😀" from character WRITE_SLICE - 1: the first slice ends with "é", whose two bytes
# straddle byte WRITE_SLICE of the file; then a text of exactly one slice, and an empty one
@pytest.mark.parametrize("text", [
    "a" * (cli.WRITE_SLICE - 1) + "é€😀" + "b" * (cli.WRITE_SLICE // 2 + cli.WRITE_SLICE - 2),
    "c" * cli.WRITE_SLICE,
    "",
], ids=["2.5-slices-multibyte", "one-slice", "empty"])
def test_write_writes_the_texts_utf8_bytes(text, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert cli._write(str(out), lambda: (text, "note")) == 0
    assert out.read_bytes() == text.encode("utf-8")
    assert capsys.readouterr() == ("note\n", "")


UNCLASSIFIED = "  [window-certified to x <= {} only; not a classified packing polynomial]"


@pytest.mark.parametrize("argv, out", [
    # collides at --xmax 40: value 9 at (6, 1) and at (9, 2)
    (["search", "1", "4", "--mode", "full", "--bounds", "3:3:3:3:3:3", "--xmax", "8"],
     "1/2*x^2 - 2*x*y + 1/2*x" + UNCLASSIFIED.format(8) + "\n"
     "found 0 packing polynomial(s) on sector 1/4\n"),
    (["search", "1", "2", "--mode", "full", "--bounds", "2:2:2:2:2:2", "--xmax", "4"],
     "1/2*x^2 - x*y + 1/2*y^2 + 1/2*x + 1/2*y\n"
     "1/2*x^2 - x*y + 1/2*y^2 + 3/2*x - 5/2*y\n"
     "x^2 - 2*x*y + 1/2*y^2 + x - 3/2*y" + UNCLASSIFIED.format(4) + "\n"
     "found 2 packing polynomial(s) on sector 1/2\n"),
    (["search", "4", "3", "--bounds", "6:6:6", "--xmax", "12"],
     "2*x^2 - 2*x*y + 1/2*y^2 + 1/2*y\n"
     "2*x^2 - 2*x*y + 1/2*y^2 + 2*x - 3/2*y\n"
     "found 2 packing polynomial(s) on sector 4/3\n"),
], ids=["1-4-unclassified-only", "1-2-mixed", "4-3-all-classified"])
def test_search_marks_unclassified_hits(argv, out, capsys):
    assert run(argv) == 0
    assert capsys.readouterr() == (out, "")


def _rationals(*texts):
    """Coefficients as ``rational_json`` writes them, from their texts."""
    return [{"num": num, "den": den} for num, _, den in (text.partition("/") for text in texts)]


# "count" and "polynomials" hold the classified hits only, as "found N" of the text
# form counts them; the 1/4 hit is window-certified but not classified, so it is
# listed under "window_certified_only".
@pytest.mark.parametrize("argv, payload", [
    (["search", "4", "3", "--bounds", "6:6:6", "--xmax", "12", "--format", "json"],
     {"sector": {"n": 4, "m": 3}, "mode": "restricted", "x_max": 12, "count": 2, "polynomials": [
         _rationals("2/1", "-2/1", "1/2", "0/1", "1/2", "0/1"),
         _rationals("2/1", "-2/1", "1/2", "2/1", "-3/2", "0/1")], "window_certified_only": []}),
    (["search", "1", "4", "--mode", "full", "--bounds", "3:3:3:3:3:3", "--xmax", "8", "--format", "json"],
     {"sector": {"n": 1, "m": 4}, "mode": "full", "x_max": 8, "count": 0, "polynomials": [],
      "window_certified_only": [_rationals("1/2", "-2/1", "0/1", "1/2", "0/1", "0/1")]}),
], ids=["4-3-restricted", "1-4-full-unclassified"])
def test_search_json_matches_goldens(argv, payload, capsys):
    assert run(argv) == 0
    assert capsys.readouterr() == (json.dumps(payload, indent=2) + "\n", "")


# SHA-256 of render stdout at --xmax 6; the same digests as the
# "render ... xmax=6" benchmark goldens.
RENDER_6_SHA256 = {
    ("12", "7", "1", "svg"): "576cf372511b1dafa66992b01e7c00f14837d52c70bd91316ea734623ff4ef09",
    ("12", "7", "1", "ascii"): "0ad07dfa7d04efc9632c4ac9c729af7c9e02856be4581a43dd390996f5d05b95",
    ("1", "0", "1", "svg"): "2ccb6677f932bf1f14dc684f9753771c8fa64c23da4bde0b44d0b0baa4d8e63f",
    ("1", "0", "1", "ascii"): "d85174e77948bc1cbe5edf6c853ff134ea9703bfb06caba6cc462f027b440124",
    ("4", "1", "2", "svg"): "5d0041ef5417fcfb0b4e2078f724ec4db549783b0aa56165b753fb26c0df4d08",
    ("4", "1", "2", "ascii"): "d50c2c96c5ef080ac887539ba9fcaa3a2b31775d462e6b58c3f51745d064860c",
    ("9", "4", "1", "svg"): "6cfc5fafe850326c88a0ec17aa881d4eee259015c563b85bce06de6591e8c7fc",
    ("9", "4", "1", "ascii"): "c79d3cfbb156db0272a35cfe35d4caf9a6a7db1a30ea240b948b35c654195c1f",
}


@pytest.mark.parametrize("n, m, k, fmt", list(RENDER_6_SHA256))
def test_render_matches_goldens(n, m, k, fmt, capsys):
    assert run(["render", n, m, k, "--xmax", "6", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RENDER_6_SHA256[(n, m, k, fmt)]


@pytest.mark.parametrize("n, m, k, fmt", list(RENDER_6_SHA256))
def test_render_at_bench_size_matches_bench_goldens(n, m, k, fmt, capsys):
    goldens = json.loads(BENCH_GOLDENS.read_text(encoding="utf-8"))
    assert run(["render", n, m, k, "--xmax", "40", "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == goldens[f"render {n}/{m} k={k} {fmt} xmax=40"]["stdout"]


def test_render_out_writes_the_stdout_figure(tmp_path, capsys):
    argv = ["render", "4", "1", "2", "--xmax", "6", "--format", "svg"]
    assert run(argv) == 0
    figure = capsys.readouterr().out
    out = tmp_path / "fig.svg"
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr() == (f"wrote {out}\n", "")
    assert out.read_bytes() == figure.encode("utf-8")


@given(st.integers(-10**6, 10**6))
@example(0)
@example(-1)
def test_fmt_len_of_int_equals_fmt_len_of_fraction(v):
    # the SVG lattice points pass ints to _fmt_len, the staircase and rays pass Fractions
    assert _fmt_len(v) == _fmt_len(Fraction(v))


# SHA-256 of classify stdout: 0, 1, 2 and 4 polynomials, both reasons for
# having none (3/2 and 25/11), and the first quadrant.
CLASSIFY_SHA256 = {
    ("4", "3", "text"): "7c4c4d85c31d3346a681b44ce7abcaa62fc98fc61a047a2880eb3b17dc45beba",
    ("4", "3", "json"): "4515a55b9baa3d221e500cdc64bcaebc4008b9f44d5e43f637d3dc154dd09980",
    ("12", "7", "text"): "66c0618491227c93d400cbd7e7fbc0a8a5377d7ec2f7f9113447f3b8fe0350f9",
    ("12", "7", "json"): "4630510827175824d65def954cbf0a073e937ed1683c9122d9673746434a18af",
    ("9", "4", "text"): "a0127e72e0fe8fa4acc52787c39ca89f4d40ce8b5483c4a9e6e18a30a12ae604",
    ("9", "4", "json"): "6cca9fc889b7a2ef48bb0021501b395d0f3fef2ce1e85e432cf9e62974009837",
    ("1", "0", "text"): "2f0483fc2115ab968dc7d88f15ebbd2a80a6cc9f86821161d981624adfb482b9",
    ("1", "0", "json"): "aa28f8bba37e1828fecf4189383de73a4a2ccef265e6b03a8666e88e8d918b47",
    ("36", "13", "text"): "01cc98c45f42b5d22f0eed76a454f4530184f6ce468bb67c799549bcdddec526",
    ("36", "13", "json"): "f0f8e7b3180fd551d9ae36916f23079b44f49cc70e65839f63dd5d1974fa123b",
    ("3", "2", "text"): "8897bec86528d613cefbfd4fd0dd357cfe4c5f10c8a8a3bf4f3ba698f3837e26",
    ("3", "2", "json"): "1bd8d03923852faeda9c0b6c57fba5656b899f834b87f356176933eeeca87541",
    ("25", "11", "text"): "273552ba3c921a7d3d1883d4c5ecfc1523ff22cf7f1247ed4f0edd6f80603d18",
    ("25", "11", "json"): "aa5f747d812e26b372e3a5d4637c007a668fb1be2af1eaaa99bda2f17fb38d0c",
}


@pytest.mark.parametrize("n, m, fmt", list(CLASSIFY_SHA256))
def test_classify_matches_goldens(n, m, fmt, capsys):
    assert run(["classify", n, m, "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CLASSIFY_SHA256[(n, m, fmt)]
    assert err == ""


@pytest.mark.parametrize("argv, code, out", [
    (["verify", "4", "3", EX1], 0,
     "polynomial: 2*x^2 - 2*x*y + 1/2*y^2 + 1/2*y\n"
     "window: x <= 30\n"
     "tail floor (x > 30): 2108/9\n"
     "threshold T: 233\n"
     "verdict: PASS (values 0..233 all packed exactly once)\n"),
    (["verify", "4", "3", EX1_SHIFTED], 1,
     "polynomial: 2*x^2 - 2*x*y + 1/2*y^2 + 1/2*y + 1\n"
     "window: x <= 30\n"
     "tail floor (x > 30): 2117/9\n"
     "threshold T: 234\n"
     "verdict: FAIL [coverage_gap] value 0 is not attained on the window\n"),
    (["verify", "1", "0", "1/2,1,1/2,1/2,3/2,0", "--xmax", "3"], 0,
     "polynomial: 1/2*x^2 + x*y + 1/2*y^2 + 1/2*x + 3/2*y\n"
     "window: x <= 3\n"
     "tail floor (x > 3): 10\n"
     "threshold T: 9\n"
     "verdict: PASS (values 0..9 all packed exactly once)\n"),
], ids=["4-3-pass", "4-3-shifted-fail", "quadrant-pass"])
def test_verify_output(argv, code, out, capsys):
    assert run(argv) == code
    assert capsys.readouterr() == (out, "")


def run_fresh(*args, stdout=subprocess.PIPE):
    """Run a fresh interpreter with ``args`` on the package that the tests import; stdout is captured by default."""
    src = str(Path(qpacking.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=60)


def run_module(*args):
    """Run ``python -m qpacking`` on the package that the tests import."""
    return run_fresh("-m", "qpacking", *args)


def test_module_entry_point(capsys):
    done = run_module("classify", "4", "3")
    assert done.returncode == 0
    assert run(["classify", "4", "3"]) == 0
    assert done.stdout == capsys.readouterr().out
    assert run_module("verify", "4", "3", EX1_SHIFTED).returncode == 1
    usage = run_module("classify", "0", "0")
    assert usage.returncode == 2
    assert "error:" in usage.stderr and "Traceback" not in usage.stderr


OUTPUTS = [
    pytest.param(["classify", "4", "3"], id="small"),
    # 90 kB, more than a pipe or a buffer holds
    pytest.param(["render", "12", "7", "1", "--xmax", "40", "--format", "svg"], id="large"),
]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    *OUTPUTS,
    pytest.param(["--help"], id="help"),
    pytest.param(["classify", "--help"], id="classify-help"),
])
def test_closed_stdout_exits_1_without_traceback(argv, unbuffered, monkeypatch):
    # a buffered small output, argparse's help among them, fails in main's flush, every other one inside
    # the command; neither may leave a traceback or an "Exception ignored" line from the flush at exit
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_fresh(*(["-u"] if unbuffered else []), "-m", "qpacking", *argv, stdout=write)
    finally:
        os.close(write)
    # unbuffered, argparse drops the failed write of its help itself, and the help exits 0
    assert (done.returncode, done.stderr) == (0 if unbuffered and "--help" in argv else 1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", OUTPUTS)
def test_full_stdout_exits_1_with_one_error_line(argv, unbuffered, monkeypatch):
    # a write to /dev/full fails with ENOSPC, in main's flush or inside the command
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    with open("/dev/full", "w") as full:
        done = run_fresh(*(["-u"] if unbuffered else []), "-m", "qpacking", *argv, stdout=full)
    error = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert (done.returncode, done.stderr) == (1, f"error writing standard output: {error}\n")


# the modules that only a command evaluating a window needs
WINDOW_MODULES = ("numpy", "qpacking.staircase", "qpacking.verify", "qpacking.render")
LOADED_AFTER = """
import json, sys
from qpacking.cli import main
names = json.loads(sys.argv[1])
loaded = [[name for name in names if name in sys.modules]]
for argv in json.loads(sys.argv[2]):
    assert main(argv) == 0, argv
    loaded.append([name for name in names if name in sys.modules])
print(json.dumps(loaded))
"""


def modules_loaded_after(names, *argvs) -> list[list[str]]:
    """Which of ``names`` a fresh interpreter holds after importing the CLI, then after ``cli.main`` on each argv."""
    done = run_fresh("-c", LOADED_AFTER, json.dumps(names), json.dumps(argvs))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def window_modules_loaded_after(*argvs) -> list[str]:
    """The ``WINDOW_MODULES`` that a fresh interpreter holds after ``cli.main`` on each argv in turn."""
    return modules_loaded_after(WINDOW_MODULES, *argvs)[-1]


def test_cli_loads_no_dataclasses_or_inspect(tmp_path):
    # their import costs every process; numpy imports inspect itself, so the window commands are not checked
    assert modules_loaded_after(
        ("dataclasses", "inspect"),
        ["classify", "9", "4"],
        ["atlas", "--nmax", "5", "--mmax", "5", "--out", str(tmp_path / "a.json")],
    ) == [[], [], []]


def test_classify_and_atlas_load_no_numpy(tmp_path):
    assert window_modules_loaded_after(
        ["classify", "9", "4"],
        ["classify", "9", "4", "--format", "json"],
        ["atlas", "--nmax", "5", "--mmax", "5", "--out", str(tmp_path / "a.json")],
        ["atlas", "--nmax", "5", "--mmax", "5", "--format", "csv", "--out", str(tmp_path / "a.csv")],
    ) == []
    assert (tmp_path / "a.json").exists() and (tmp_path / "a.csv").exists()


@pytest.mark.parametrize("argv, loaded", [
    (["verify", "4", "3", EX1], ["numpy", "qpacking.staircase", "qpacking.verify"]),
    (["search", "4", "3", "--bounds", "6:6:6", "--xmax", "12"], ["numpy", "qpacking.staircase", "qpacking.verify"]),
    (["render", "4", "1", "2"], list(WINDOW_MODULES)),
], ids=["verify", "search", "render"])
def test_window_commands_load_numpy(argv, loaded):
    assert window_modules_loaded_after(argv) == loaded


@pytest.mark.parametrize("module, name, argv", [
    (verify, "packing_window_verify", ["verify", "4", "3", EX1]),
    (verify, "brute_force_search", ["search", "4", "3", "--bounds", "6:6:6", "--xmax", "12"]),
    (render, "render_figure", ["render", "4", "1", "2"]),
], ids=["verify", "search", "render"])
def test_cli_looks_up_window_functions_when_called(module, name, argv, monkeypatch, capsys):
    # a replacement on the defining module is what the command calls, as the bench tracer's wrappers are
    assert run(argv) == 0
    expected = capsys.readouterr()
    original, calls = getattr(module, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    assert run(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr() == expected


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # every subcommand, a usage error, a negative verdict and --help through one parser,
    # each call as it runs alone on a parser of its own
    out = tmp_path / "atlas.json"
    usage_error = ["verify", "4", "3", EX1, "--xmax", "0"]
    sequence = [
        usage_error,
        ["verify", "4", "3", EX1],
        ["verify", "4", "3", EX1_SHIFTED],
        ["search", "4", "3", "--bounds", "6:6:6", "--xmax", "12", "--format", "json"],
        ["classify", "12", "7", "--format", "json"],
        ["render", "4", "1", "2", "--xmax", "6", "--format", "svg"],
        ["atlas", "--nmax", "5", "--mmax", "5", "--out", str(out)],
        ["--help"],
        usage_error,
    ]

    def call(argv):
        out.unlink(missing_ok=True)
        code = run(argv)
        stdout, stderr = capsys.readouterr()
        return code, stdout, stderr, out.read_bytes() if out.exists() else None

    alone = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        alone.append(call(argv))
    cli.build_parser.cache_clear()
    shared = [call(argv) for argv in sequence]
    assert shared == alone
    assert [code for code, *_ in shared] == [2, 0, 1, 0, 0, 0, 0, 0, 2]
    assert "qpacking verify: error: argument --xmax: must be >= 1, got 0\n" in shared[0][2]
    assert shared[6][3] is not None


def test_search_defaults_are_the_restricted_box_and_window(capsys):
    # the search of the strict xfail below, whose defaults no passing test would run otherwise
    assert run(["search", "3", "16"]) == 0
    default = capsys.readouterr()
    assert run(["search", "3", "16", "--mode", "restricted", "--bounds", "12:12:12", "--xmax", "25", "--tmin", "0"]) == 0
    assert capsys.readouterr() == default


@pytest.mark.xfail(strict=True, reason="ROADMAP Defect 1: a window FAIL is not a refutation")
@pytest.mark.parametrize("argv, poly", [
    # k = -3 on 3/16, at the default bounds and window
    (["search", "3", "16"], "3/2*x^2 - 15*x*y + 75/2*y^2 + 11/2*x - 61/2*y + 2"),
    # k = -1 on 3/4
    (["search", "3", "4", "--mode", "full", "--bounds", "4:4:4:4:4:4", "--xmax", "2"],
     "3/2*x^2 - 3*x*y + 3/2*y^2 + 5/2*x - 7/2*y"),
], ids=["3-16-k-3", "3-4-k-1"])
def test_search_finds_negative_k_polynomial(argv, poly, capsys):
    assert run(argv) == 0
    assert poly in capsys.readouterr().out.splitlines()
