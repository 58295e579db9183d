"""Each demo script, and the README's library quick start, runs to
completion against the package in ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def _run(argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    _run([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    """The README's first python block, the library quick start."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert block is not None
    _run(["-c", block.group(1)], tmp_path)
