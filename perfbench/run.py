"""Benchmark for nanoalbert: one workload at one seed, end to end or traced.

    python3 perfbench/run.py --workload pretrain|tag|vocab --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout; it imports `nanoalbert` from
`src/` and builds every input from the seed under `perfbench/work/`.

The run prepares its inputs (untimed), then repeats the workload's commands
until S seconds have passed, at least once, and reports medians over those
iterations. With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 the iterations alternate untraced and traced (at
least one of each) and it holds the per-layer metrics of the traced ones,
plus the tracing overhead. Lines before it are a readable report; the full
result, run metadata and spans go to `perfbench/out/`.

End-to-end metrics in BENCHMARK.json, each a median over iterations:
- wall_s: the workload's commands, from the first start to the last end.
- setup_s: the program's import time (median of three fresh interpreters)
  plus command time outside the top-level work calls (pretrain.train,
  ner.finetune, ner.predict_labels, bpe.train_vocab).
- peak_rss_mb: maximum resident set size of this process (getrusage).
The report adds work_s, failed_fraction and each workload's own throughput
and quality figures. They stay out of BENCHMARK.json, where every metric
must be reported, and be nonzero, on every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics: name -> (unit, better, workloads). Those reported by
# every workload are in BENCHMARK.json; the rest are in the report only.
END_TO_END = {
    "wall_s": ("s", "lower", "all"),
    "setup_s": ("s", "lower", "all"),
    "work_s": ("s", "lower", "all"),
    "peak_rss_mb": ("MiB", "lower", "all"),
    "failed_fraction": ("ratio", "lower", "all"),
    "pretrain_tokens_per_s": ("tokens/s", "higher", "pretrain"),
    "pretrain_final_loss": ("nats", "lower", "pretrain"),
    "finetune_tokens_per_s": ("tokens/s", "higher", "tag"),
    "predict_sentences_per_s": ("sentences/s", "higher", "tag"),
    "tag_f1": ("ratio", "higher", "tag"),
    "build_vocab_s": ("s", "lower", "vocab"),
}


def layer_unit(name: str) -> tuple[str, str]:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith(("_fraction", "_ratio")):
        return "ratio", "higher"
    if name == "bpe.merges":  # a merge list cut short is the failure to avoid
        return "count", "higher"
    if name.endswith(".flops"):
        return "flop", "lower"
    if name.endswith("bytes"):
        return "B", "lower"
    if name.endswith((".calls", ".positions")):
        return "count", "lower"
    return "s", "lower"


def pin_blas_threads() -> int:
    """One BLAS thread per CPU this process may run on; before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def metadata(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


# The program's imports, as each command run in a fresh process pays them.
_IMPORT = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import nanoalbert.cli, nanoalbert.ner, nanoalbert.pretrain
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", _IMPORT, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pretrain", "tag", "vocab"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny shapes, for the smoke check only")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nanoalbert" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'nanoalbert'} not found; run from a source checkout",
              file=sys.stderr)
        return 2

    threads = pin_blas_threads()
    import_s = statistics.median(import_seconds() for _ in range(3))
    sys.path.insert(0, str(ROOT / "src"))
    from layers import layer_metrics, self_time_by_layer, trace_targets, work_targets
    from spans import Recorder
    from workloads import DESK, TINY, WORKLOADS, CommandFailed

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = WORKLOADS[args.workload](args.seed, TINY if args.tiny else DESK, work)
    samples, traced, spans = [], [], []
    try:
        run.prepare(Recorder())
        begin = time.perf_counter()
        while True:
            trace_this = bool(args.trace) and len(samples) > len(traced)
            rec = Recorder()
            it_dir = work / f"it{len(samples) + len(traced)}"
            sample = run.iteration(rec, trace_targets() if trace_this else work_targets(), it_dir)
            shutil.rmtree(it_dir)
            if trace_this:
                traced.append((sample["wall_s"], layer_metrics(rec), self_time_by_layer(rec)))
                spans = rec.dump()
            else:
                samples.append(sample)
            if time.perf_counter() - begin >= args.seconds and len(traced) >= args.trace:
                break
    except CommandFailed:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {}
    if samples:
        report = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
        report["setup_s"] += import_s
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["failed_fraction"] = run.failed / max(1, run.attempted)
    layer, self_by_layer = {}, {}
    if traced:
        layer = {key: statistics.median(t[1][key] for t in traced) for key in traced[0][1]}
        layer["trace.overhead_s"] = (statistics.median(t[0] for t in traced)
                                     - report.get("wall_s", 0.0))
        self_by_layer = {key: statistics.median(t[2].get(key, 0.0) for t in traced)
                         for key in traced[0][2]}
        # the iteration span's own time is what no layer's span covers
        layer["trace.unattributed_s"] = self_by_layer.pop("iteration")

    meta = metadata(threads)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(samples)} untraced, {len(traced)} traced; import_s={import_s:.4f}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (unit, better, _) in END_TO_END.items():
        if name in report:
            print(f"  {name:26s} {report[name]:14.6g} {unit:12s} ({better} is better)")
    if run.failures:
        print("  failed: " + "; ".join(run.failures))
    if traced:
        print(f"  self time by layer, median over {len(traced)} traced iteration(s):")
        for name, value in sorted(self_by_layer.items()):
            print(f"    {name:12s} {value:10.4f} s")
        print(f"    {'unattributed':12s} {layer['trace.unattributed_s']:10.4f} s")
        print(f"    {'overhead':12s} {layer['trace.overhead_s']:10.4f} s "
              f"(traced wall minus untraced median)")
        for name in sorted(layer):
            print(f"    {name:42s} {layer[name]:14.6g} {layer_unit(name)[0]}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted, values = (spec["per_layer"], layer) if args.trace else (spec["end_to_end"], report)
    result = {
        "correct": run.failed == 0 and bool(samples) and len(traced) >= args.trace,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(
        {"meta": meta, "report": report, "layers": layer, "samples": samples,
         "result": result}, indent=1, sort_keys=True))
    if traced:
        (out / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
