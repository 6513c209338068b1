"""The demos and the README's library quick start run to completion.

Each runs in a fresh interpreter against this checkout's package, so a
name they import that moved or vanished fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgesample

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(edgesample.__file__).resolve().parent.parent)


def run_python(args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=300, cwd=ROOT, env=env)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    assert block, "README has no python block under 'Library quick start'"
    proc = run_python(["-c", block.group(1)])
    assert proc.returncode == 0, proc.stderr
