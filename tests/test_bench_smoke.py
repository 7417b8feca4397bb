"""The benchmark's own smoke run: every workload tiny, traced and untraced,
with every round checked against its oracle."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SMOKE = Path(__file__).resolve().parent.parent / "bench" / "smoke.py"


def test_bench_smoke_passes():
    proc = subprocess.run([sys.executable, str(SMOKE)], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
