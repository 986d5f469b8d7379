"""Golden CLI outputs: the exact bytes of a window-mode ``varadhan`` run (a
seeded three-state cocycle plus a potential stencil on a d=1 window of
radius 3) and of an ``expand`` run (five three-state sites, non-uniform
measure), as produced when tables still carried Fraction values between
calls.  Exact outputs must not change with the scalar representation."""

from pathlib import Path

import pytest

from colocal.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("subcommand, name", [("varadhan", "varadhan-window"),
                                              ("expand", "expand")])
def test_output_bytes_match_golden(tmp_path, subcommand, name):
    out = tmp_path / f"{name}.out.json"
    assert main([subcommand, "--input", str(GOLDEN / f"{name}.json"),
                 "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.out.json").read_bytes()
