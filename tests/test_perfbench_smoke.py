"""Keeps the benchmark runnable: its smoke mode runs every workload at a
tiny size in both trace modes, checks the stored smoke signal digests, and
checks that a perturbed signal file trips the digest gate."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    result = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
    assert "smoke ok" in result.stdout
