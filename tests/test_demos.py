"""The demos' printed text, byte for byte: each script under ``demos/``
runs in a fresh interpreter and must print what it printed when its
golden copy under ``tests/golden/demos/`` was captured."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden_text():
    assert sorted(p.stem for p in DEMOS) == sorted(
        p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_its_golden_text(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    printed = subprocess.run([sys.executable, str(demo)], env=env,
                             capture_output=True, check=True).stdout
    assert printed == (GOLDEN / f"{demo.stem}.txt").read_bytes()
