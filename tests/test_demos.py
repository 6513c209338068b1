"""The demos, the README's library quick start and its command-line examples run to completion.

The demos and the quick start each run in a fresh interpreter against this
checkout's package, so a name they import that moved or vanished fails
here. The command-line examples run in-process through ``cli.main``.
"""

import csv
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import edgesample
from edgesample.cli import main

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


def test_readme_command_line_examples_run(capsys, monkeypatch, tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```bash\n(.*?)^```", readme, re.M | re.S)
    assert block, "README has no bash block under 'Command line'"
    lines = block.group(1).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("edgesample ")]
    assert {argv[0] for argv in commands} == {"sample", "estimate", "verify", "bench", "lb", "gen"}
    monkeypatch.chdir(tmp_path)  # gen's --out file lands here
    for argv in commands:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        if argv[0] in ("bench", "lb"):
            rows = list(csv.DictReader(io.StringIO(out)))
            assert rows and all(None not in row and None not in row.values() for row in rows), (argv, out)
        if argv[0] == "lb":
            cells = [(row["strategy"], row["budget"]) for row in rows]
            assert len(set(cells)) == len(cells), out
