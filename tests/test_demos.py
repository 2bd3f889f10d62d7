"""Each demo's output pinned to a golden file.

Every script in ``demos/`` runs in a fresh interpreter against the package
under test, and its stdout must equal ``demos/expected/<name>.txt``. The
demos are deterministic, so a change meant to keep outputs fails here when
it does not; a change meant to alter a demo's output regenerates its golden
file and declares the change in CHANGES.md.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import glpstar

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("demo", sorted(DEMOS.glob("*.py")), ids=lambda path: path.stem)
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(Path(glpstar.__file__).parents[1]))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (DEMOS / "expected" / f"{demo.stem}.txt").read_text()
