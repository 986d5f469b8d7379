"""Golden CLI outputs, byte for byte: a window-mode ``varadhan`` run (a
seeded three-state cocycle plus a potential stencil on a d=1 window of
radius 3) and an ``expand`` run (five three-state sites, non-uniform
measure), as produced when tables still carried Fraction values between
calls; and two ``closed`` runs, as produced when every potential came from
a breadth-first search: an exact form without a measure (three-state
exclusion on four sites, so the potential's zeros show each component's
root) and a form that is not closed under a one-way hopping rule (the
witness cycle follows the search tree).  Exact outputs must not change
with the scalar representation or the way the potential is found.

``varadhan-window-float`` is the same ``varadhan`` input written with JSON
floats and run with ``--mode float``: every number it prints is float() of
the exact golden's value.

The other runs were captured while configuration indices were still
decoded one configuration at a time, before every table went through the
mixed-radix kernel of :mod:`colocal.statespace`: ``iq`` with witnesses
(the three-state identity rule on a d=1 window) and without (three-state
exclusion on a path, a window, a ring and the 3x3 box), ``dims`` on part
of the 3x3 box, ``project`` of a function and of a form under window
measures (the form's measure is exchangeable, hence edge compatible), and
``conserved``.

The last two were captured while every JSON scalar was still read into a
``Fraction`` and written from one: ``martingale`` on a 12-site chain (two
states, windows growing outward from the middle, each table projected
from the full function), and ``expand`` on a three-state table whose
entries repeat and are written in non-canonical ways (``"2/4"``, ``"3"``,
``"-0/5"``, ``"+1/3"``, ``"1.5"``, ``" 7/14 "``, ``"1e-1"``, a JSON int),
under a measure written the same way.

The last two ``varadhan`` runs were captured while window mode still read
its residual form off the dense differential of the residual potential:
a three-state window of radius 4 under a seeded cocycle plus a potential
stencil of radius 2, with the margin set to 2, below its default of 3 (so
the printed residual edges reach the stencil's boundary effects), and a
local-mode d=2 run on the box of radius 3 (a cocycle plus the stencil of a
two-site potential core given by its anchor edges only).  The local-mode
run's ``checks`` name the closedness check that ran: ``"closedness":
"local_cycles"`` replaced ``"closedness_window_radius": 1`` when local
mode stopped solving on a box; every other byte is as captured."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from colocal import varadhan
from colocal.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("subcommand, name",
                         [("varadhan", "varadhan-window"),
                          ("varadhan", "varadhan-window-float"),
                          ("expand", "expand"),
                          ("closed", "closed-potential"),
                          ("closed", "closed-not-closed"),
                          ("iq", "iq"),
                          ("iq", "iq-witness"),
                          ("dims", "dims"),
                          ("project", "project-fn-window"),
                          ("project", "project-form-window"),
                          ("conserved", "conserved"),
                          ("martingale", "martingale-chain12"),
                          ("expand", "expand-scalars"),
                          ("varadhan", "varadhan-window-margin"),
                          ("varadhan", "varadhan-local-d2")])
def test_output_bytes_match_golden(tmp_path, subcommand, name):
    out = tmp_path / f"{name}.out.json"
    expected = (GOLDEN / f"{name}.out.json").read_bytes()
    code = 0 if json.loads(expected)["ok"] else 1
    mode = "float" if name.endswith("-float") else "exact"
    assert main([subcommand, "--input", str(GOLDEN / f"{name}.json"),
                 "--output", str(out), "--mode", mode]) == code
    assert out.read_bytes() == expected


def test_window_varadhan_output_does_not_build_the_residual_potential(
        tmp_path, monkeypatch):
    """The CLI prints no residual potential, so a window-mode run never
    builds theta_rho: with theta_from_cocycle raising, the golden bytes are
    still written."""
    def raising(*args, **kwargs):
        raise AssertionError("theta_from_cocycle called")
    monkeypatch.setattr(varadhan, "theta_from_cocycle", raising)
    out = tmp_path / "varadhan-window.out.json"
    assert main(["varadhan", "--input", str(GOLDEN / "varadhan-window.json"),
                 "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "varadhan-window.out.json"
                                ).read_bytes()


def floated(value):
    """Every "p/q" string of a report replaced by its float."""
    if isinstance(value, dict):
        return {k: floated(v) for k, v in value.items()}
    if isinstance(value, list):
        return [floated(v) for v in value]
    if isinstance(value, str) and re.fullmatch(r"-?\d+/\d+", value):
        return float(Fraction(value))
    return value


def test_float_golden_is_the_exact_golden_as_floats():
    exact = json.loads((GOLDEN / "varadhan-window.out.json").read_text())
    floats = json.loads((GOLDEN / "varadhan-window-float.out.json")
                        .read_text())
    assert floats == floated(exact)
