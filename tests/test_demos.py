"""The library demos and the CLI walkthrough run to the end against the
current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["pretrain_tiny.py", "finetune_tagger.py",
                                  "check_gradients.py", "cli_pipeline.sh"])
def test_demo_exits_cleanly(demo):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # the shell demo's python3 is this interpreter
    path = os.pathsep.join(filter(None, [os.path.dirname(sys.executable), os.environ.get("PATH")]))
    runner = "bash" if demo.endswith(".sh") else sys.executable
    done = subprocess.run(
        [runner, str(ROOT / "demos" / demo)], cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath, "PATH": path}, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
