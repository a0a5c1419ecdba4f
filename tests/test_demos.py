"""Every demo script runs cleanly against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import simplexlattice

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
# Child interpreters import the same simplexlattice package as this test run.
CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(simplexlattice.__file__).resolve().parents[1])}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # cwd is a scratch directory: the files-and-pictures demo writes there
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=CHILD_ENV,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
