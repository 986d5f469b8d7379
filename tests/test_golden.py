"""Golden CLI outputs, byte for byte: a window-mode ``varadhan`` run (a
seeded three-state cocycle plus a potential stencil on a d=1 window of
radius 3) and an ``expand`` run (five three-state sites, non-uniform
measure), as produced when tables still carried Fraction values between
calls; and two ``closed`` runs, as produced when every potential came from
a breadth-first search: an exact form without a measure (three-state
exclusion on four sites, so the potential's zeros show each component's
root) and a form that is not closed under a one-way hopping rule (the
witness cycle follows the search tree).  Exact outputs must not change
with the scalar representation or the way the potential is found."""

import json
from pathlib import Path

import pytest

from colocal.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("subcommand, name", [("varadhan", "varadhan-window"),
                                              ("expand", "expand"),
                                              ("closed", "closed-potential"),
                                              ("closed", "closed-not-closed")])
def test_output_bytes_match_golden(tmp_path, subcommand, name):
    out = tmp_path / f"{name}.out.json"
    expected = (GOLDEN / f"{name}.out.json").read_bytes()
    code = 0 if json.loads(expected)["ok"] else 1
    assert main([subcommand, "--input", str(GOLDEN / f"{name}.json"),
                 "--output", str(out)]) == code
    assert out.read_bytes() == expected
