"""Every script under ``examples/`` runs to completion.

Each example runs in its own interpreter, the way its docstring says to
run it, with the package under test on ``PYTHONPATH``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = os.path.dirname(os.path.dirname(repro.__file__))
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script, tmp_path):
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
