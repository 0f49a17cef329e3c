import hashlib

import pytest

from qpacking.cli import main

EX1 = "2,-2,1/2,0,1/2,0"  # the 4/3 packing polynomial with k = 1
EX1_SHIFTED = "2,-2,1/2,0,1/2,1"


def run(argv):
    """Exit code of the CLI; any exception other than SystemExit fails the test."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["search", "4", "3", "--jobs", "0"],
    ["atlas", "--nmax", "3", "--mmax", "3", "--jobs", "0"],
    ["search", "4", "3", "--bounds", f"1:{2**62}:1"],
    ["search", "4", "3", "--bounds=-2:-2:-2"],
    ["verify", "4", "3", EX1, "--xmax", "0"],
    ["render", "4", "3", "1", "--value-max", "-1"],
    ["search", "4", "3", "--bounds", "6:6:6", "--xmax", "12", "--tmin", "-1"],
], ids=["search-jobs-0", "atlas-jobs-0", "search-bounds-too-large", "search-bounds-negative",
        "verify-xmax-0", "render-value-max-negative", "search-tmin-negative"])
def test_usage_error_exits_2(argv, capsys):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


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
