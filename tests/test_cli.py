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


# SHA-256 of the 30x30 atlas files, recorded before the JSON writer was
# replaced; the same digests as the "atlas 30x30" benchmark goldens.
ATLAS_30_SHA256 = {
    "json": "2cae7f94c4aaae1decc8f81b685c0f0dd0876c5a5a2abfc18c9c29488f7b2bbf",
    "csv": "9c279f99ef88f7c27df0171bf16c93bd589d8e44115bc0922cad017554860cdf",
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_atlas_files_match_goldens(fmt, tmp_path, capsys):
    out = tmp_path / f"atlas.{fmt}"
    assert run(["atlas", "--nmax", "30", "--mmax", "30", "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ATLAS_30_SHA256[fmt]
    assert capsys.readouterr().out == f"sectors=556 qpp0=387 qpp1=17 qpp2=132 qpp4=20 -> {out}\n"
