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
], ids=["search-jobs-0", "atlas-jobs-0", "search-bounds-too-large", "search-bounds-negative",
        "verify-xmax-0", "render-value-max-negative"])
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
