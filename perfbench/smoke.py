"""Smoke check of the benchmark itself, at tiny shapes; takes under a minute.

    python3 perfbench/smoke.py

Exits 1 naming the first problem it finds. It checks that:
- BENCHMARK.json agrees with the units and directions run.py defines;
- every workload, untraced and traced, prints a correct result line with
  exactly the keys correct, attempted, failed and metrics, and every
  BENCHMARK.json metric with its unit;
- the readable report names every end-to-end metric of the workload with
  its unit and direction;
- a deliberately corrupted copy of a resumed checkpoint fails the resume
  check;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def fail(message: str) -> None:
    print(f"smoke: FAIL: {message}")
    sys.exit(1)


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_spec(spec: dict) -> None:
    from run import END_TO_END, layer_unit

    for metric in spec["end_to_end"]:
        unit, better, where = END_TO_END[metric["name"]]
        if (metric["unit"], metric["better"], where) != (unit, better, "all"):
            fail(f"BENCHMARK.json end_to_end {metric['name']} disagrees with run.py")
    for metric in spec["per_layer"]:
        if (metric["unit"], metric["better"]) != layer_unit(metric["name"]):
            fail(f"BENCHMARK.json per_layer {metric['name']} disagrees with run.py")


def check_workload(spec: dict, workload: str, trace: int) -> None:
    from run import END_TO_END

    done = run_bench(ROOT, "--workload", workload, "--seed", 7, "--seconds", 0.5,
                     "--trace", trace, "--tiny")
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        fail(f"{where} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: not correct: {lines[-1][:300]}\n{done.stdout}\n{done.stderr}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail(f"{where}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(got) ^ set(wanted)) or 'units'}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], float):
            fail(f"{where}: {name} value is not a number")
    for name, (unit, better, runs_on) in END_TO_END.items():
        if runs_on not in ("all", workload):
            continue
        if not any(line.split()[:1] == [name] and f" {unit} " in line
                   and f"({better} is better)" in line for line in lines):
            fail(f"{where}: report lacks {name} with unit {unit} and direction {better}")
    print(f"smoke: {where}: ok ({result['attempted']} operations)")


def check_corrupted_resume() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from layers import work_targets
    from spans import Recorder
    from workloads import TINY, Pretrain

    work = BENCH / "work" / "smoke-corrupt"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Pretrain(7, TINY, work)
        run.prepare(Recorder())
        run.iteration(Recorder(), work_targets(), work / "it0")
        if run.failed:
            fail(f"tiny pretrain iteration failed: {run.failures}")
        resumed = work / "it0" / "pt" / f"checkpoint-{TINY.pretrain_steps:06d}.ckpt"
        corrupted = work / "corrupted.ckpt"
        data = bytearray(resumed.read_bytes())
        data[len(data) // 2] ^= 0x01
        corrupted.write_bytes(bytes(data))
        if run.check_resumed(work / "it0" / "uninterrupted.ckpt", corrupted):
            fail("a corrupted resumed checkpoint passed the resume check")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("smoke: corrupted resumed checkpoint is caught: ok")


def check_bare_directory() -> None:
    bare = BENCH / "work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        done = run_bench(bare, "--workload", "vocab", "--seed", 7, "--seconds", 1, "--trace", 0)
        if done.returncode == 0 or '"correct"' in done.stdout:
            fail("without src/ the benchmark must fail and print no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: without the program it fails and prints no result: ok")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for workload in ("pretrain", "tag", "vocab"):
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_corrupted_resume()
    check_bare_directory()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
