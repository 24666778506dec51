"""The benchmark harness keeps working: perfbench/smoke.py runs every
workload at tiny shapes (untraced and traced) and checks the result schema
against BENCHMARK.json. No timing is asserted; timings are noisy."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
