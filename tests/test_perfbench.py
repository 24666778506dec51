"""The benchmark harness keeps working: perfbench/smoke.py runs every
workload at tiny shapes (untraced and traced) and checks the result schema
against BENCHMARK.json. No timing is asserted; timings are noisy. Traced
tiny pretrain and tag runs must also time the per-part model calls, which
perfbench patches where pretrain.py and ner.py look them up: a schema check
alone would pass with those spans silently at zero.

The smoke run works in a copy of perfbench/ and BENCHMARK.json, with src/
linked in, so its tiny results never overwrite the full-size ones in
perfbench/out/."""

import json
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

    for workload, spans in (("pretrain", ("pretrain_loss_and_grads", "pack_pretrain_batch")),
                            ("tag", ("ner_loss_and_grads", "token_logits"))):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
             "--seconds", "0.5", "--trace", "1", "--tiny"],
            cwd=tmp_path, capture_output=True, text=True, timeout=600,
        )
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        for name in [f"model.{span}.s" for span in spans] + ["model.positions"]:
            assert metrics[name]["value"] > 0, (workload, name)
