"""The benchmark harness keeps working: perfbench/smoke.py runs every
workload at tiny shapes (untraced and traced) and checks the result schema
against BENCHMARK.json. No timing is asserted; timings are noisy.

The smoke run works in a copy of perfbench/ and BENCHMARK.json, with src/
linked in, so its tiny results never overwrite the full-size ones in
perfbench/out/."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    done = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
