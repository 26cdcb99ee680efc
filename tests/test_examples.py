"""Every script under examples/ runs to completion and prints something.

The examples are library callers like any other: each runs in a fresh
interpreter against this checkout's ``src``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(repro.__file__).resolve().parents[1])
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES, "no scripts under examples/"


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, cwd=str(ROOT), timeout=300,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
