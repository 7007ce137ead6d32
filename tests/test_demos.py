"""Every demo script runs to completion without a numpy warning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prodsums

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    # the demos import the package under test, wherever it was imported from
    src = str(Path(prodsums.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
