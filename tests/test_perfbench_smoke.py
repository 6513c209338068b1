"""The benchmark still runs against the library: its checks and the names it wraps.

``perfbench/run.py --smoke`` runs every workload, untraced and traced, on
tiny graphs in one process (a few seconds) and prints one line per run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    correct = [line for line in proc.stdout.splitlines() if "correct=True" in line]
    assert len(correct) == 6, proc.stdout
