"""Command-line pipeline: golden outputs, locking, resume, determinism.

Commands run in-process through main(argv). A module-scoped fixture builds
one shared prep-corpus -> build-vocab -> pretrain chain; each test writes its
own fresh --out directory.
"""

import fcntl
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nanoalbert.checkpoint import save_checkpoint
from nanoalbert.cli import main
from nanoalbert.config import model_config_from, parse_config
from nanoalbert.model import init_parameters
from nanoalbert.rng import RngStream

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"
RAW = [str(FIXTURES / "raw" / name) for name in ("doc_a.txt", "doc_b.txt", "doc_c.txt")]

TINY_OVERRIDES = [
    "vocab_size=261", "embedding_size=8", "hidden_size=16", "num_layers=1",
    "num_heads=2", "max_positions=32", "max_seq_length=24", "dup_factor=2",
    "train_batch_size=4", "training_steps=4", "warmup_steps=1",
    "save_checkpoint=2", "learning_rate=0.001", "seed=3",
]

CONLL_TRAIN = """aspirin B-Drug
lowers O
fever O

give O
aspirin B-Drug

fever O
fades O
slowly O
"""

CONLL_DEV = """aspirin B-Drug
helps O

nothing O
here O
"""


def run_cli(*argv):
    return main([str(a) for a in argv])


def read(path):
    return Path(path).read_text(encoding="utf-8")


def assert_unlocked(out):
    """The run left its .lock file and released it: it can be taken at once."""
    with open(Path(out) / ".lock", "rb") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Shared prep/vocab/pretrain outputs plus CoNLL files."""
    root = tmp_path_factory.mktemp("pipeline")
    assert run_cli("prep-corpus", "--out", root / "prep", "--inputs", *RAW) == 0
    corpus = root / "prep" / "corpus.txt"
    assert run_cli("build-vocab", "--out", root / "vocab", "--corpus", corpus,
                   "vocab_size=261") == 0
    assert run_cli("pretrain", "--out", root / "pt", "--corpus", corpus,
                   "--vocab", root / "vocab", *TINY_OVERRIDES) == 0
    (root / "train.conll").write_text(CONLL_TRAIN)
    (root / "dev.conll").write_text(CONLL_DEV)
    return root


# ---------------------------------------------------------------------------
# prep-corpus
# ---------------------------------------------------------------------------

def test_prep_corpus_matches_golden_bytes(pipeline):
    got = (pipeline / "prep" / "corpus.txt").read_bytes()
    assert got == (FIXTURES / "corpus.golden.txt").read_bytes()


def test_prep_corpus_reports_stats(tmp_path, capsys):
    assert run_cli("prep-corpus", "--out", tmp_path / "p", "--inputs", *RAW) == 0
    out = capsys.readouterr().out
    # 2 surviving documents, 4 sentences, 10+8+3+8 words
    assert "documents=2 sentences=4 words=29" in out


def test_run_dir_bookkeeping(pipeline):
    prep = pipeline / "prep"
    assert (prep / "effective.cfg").exists()
    assert not (prep / "INCOMPLETE").exists()
    assert_unlocked(prep)


def test_prep_corpus_never_mutates_inputs(tmp_path):
    before = [Path(p).read_bytes() for p in RAW]
    assert run_cli("prep-corpus", "--out", tmp_path / "p", "--inputs", *RAW) == 0
    assert [Path(p).read_bytes() for p in RAW] == before


def test_lock_blocks_concurrent_use(tmp_path, capsys):
    out = tmp_path / "busy"
    out.mkdir()
    holder = open(out / ".lock", "w")
    fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
    try:
        assert run_cli("prep-corpus", "--out", out, "--inputs", RAW[0]) == 1
    finally:
        holder.close()
    err = capsys.readouterr().err
    assert "in use" in err and ".lock" in err
    # once its holder is gone, the leftover file no longer blocks
    assert (out / ".lock").exists()
    assert run_cli("prep-corpus", "--out", out, "--inputs", RAW[0]) == 0
    assert_unlocked(out)


def test_failure_leaves_incomplete_marker(tmp_path, capsys):
    out = tmp_path / "broken"
    code = run_cli("prep-corpus", "--out", out, "--inputs", tmp_path / "missing.txt")
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert (out / "INCOMPLETE").exists()
    assert_unlocked(out)  # lock always released


def test_unknown_override_fails_cleanly(tmp_path, capsys):
    # positional overrides must precede --inputs or argparse folds them in
    assert run_cli("prep-corpus", "no_such_key=5", "--out", tmp_path / "x",
                   "--inputs", RAW[0]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_seed_flag_lands_in_effective_config(tmp_path):
    assert run_cli("prep-corpus", "--out", tmp_path / "s", "--inputs", RAW[0],
                   "--seed", "42") == 0
    assert "seed=42" in read(tmp_path / "s" / "effective.cfg")


# ---------------------------------------------------------------------------
# build-vocab
# ---------------------------------------------------------------------------

def test_build_vocab_outputs(pipeline, capsys):
    vocab_dir = pipeline / "vocab"
    assert (vocab_dir / "vocab.txt").exists()
    assert (vocab_dir / "merges.txt").exists()
    first = read(vocab_dir / "vocab.txt").splitlines()[0]
    assert first == "[PAD]\t0"


def test_build_vocab_rejects_too_small_vocab_size(pipeline, tmp_path, capsys):
    assert run_cli("build-vocab", "--out", tmp_path / "v", "--corpus",
                   pipeline / "prep" / "corpus.txt", "vocab_size=100") == 1
    assert capsys.readouterr().err == "error: vocab_size must be >= 261\n"


def test_build_vocab_names_an_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty.txt"
    corpus.write_text(" \n\n")
    assert run_cli("build-vocab", "--out", tmp_path / "v", "--corpus", corpus) == 1
    assert capsys.readouterr().err == f"error: {corpus} is an empty corpus\n"


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def test_pretrain_outputs(pipeline):
    pt = pipeline / "pt"
    names = {p.name for p in pt.iterdir()}
    assert {"checkpoint-000002.ckpt", "checkpoint-000004.ckpt",
            "train.log", "examples.bin", "effective.cfg"} <= names
    log = read(pt / "train.log").splitlines()
    assert len(log) == 16  # 4 steps x 4 metrics
    assert log[0].split("\t")[:2] == ["1", "lr"]


def test_pretrain_is_deterministic_at_file_level(pipeline, tmp_path):
    corpus = pipeline / "prep" / "corpus.txt"
    for name in ("a", "b"):
        assert run_cli("pretrain", "--out", tmp_path / name, "--corpus", corpus,
                       "--vocab", pipeline / "vocab", *TINY_OVERRIDES) == 0
    assert read(tmp_path / "a" / "train.log") == read(tmp_path / "b" / "train.log")
    assert (tmp_path / "a" / "checkpoint-000004.ckpt").read_bytes() == \
        (tmp_path / "b" / "checkpoint-000004.ckpt").read_bytes()
    # and identical to the fixture run
    assert (tmp_path / "a" / "checkpoint-000004.ckpt").read_bytes() == \
        (pipeline / "pt" / "checkpoint-000004.ckpt").read_bytes()


def test_pretrain_rerun_is_a_no_op(pipeline, capsys):
    corpus = pipeline / "prep" / "corpus.txt"
    assert run_cli("pretrain", "--out", pipeline / "pt", "--corpus", corpus,
                   "--vocab", pipeline / "vocab", *TINY_OVERRIDES) == 0
    assert "nothing to do" in capsys.readouterr().out


def test_pretrain_resumes_after_simulated_crash(pipeline, tmp_path, capsys):
    corpus = pipeline / "prep" / "corpus.txt"
    crash = tmp_path / "crash"
    crash.mkdir()
    # reconstruct the state a killed run leaves behind: the config it
    # recorded, an intermediate checkpoint, a partial log, the INCOMPLETE
    # marker, and its unlocked .lock file
    shutil.copy(pipeline / "pt" / "effective.cfg", crash)
    shutil.copy(pipeline / "pt" / "checkpoint-000002.ckpt", crash)
    full_log = read(pipeline / "pt" / "train.log").splitlines(keepends=True)
    (crash / "train.log").write_text("".join(full_log[:8]))
    (crash / "INCOMPLETE").write_text("run started\n")
    (crash / ".lock").write_text("12345\n")

    assert run_cli("pretrain", "--out", crash, "--corpus", corpus,
                   "--vocab", pipeline / "vocab", *TINY_OVERRIDES) == 0
    assert "resuming from step 2" in capsys.readouterr().out
    assert read(crash / "train.log") == read(pipeline / "pt" / "train.log")
    assert (crash / "checkpoint-000004.ckpt").read_bytes() == \
        (pipeline / "pt" / "checkpoint-000004.ckpt").read_bytes()
    assert not (crash / "INCOMPLETE").exists()


def test_pretrain_rerun_after_sigkill_matches_uninterrupted_run(pipeline, tmp_path, capsys):
    # long enough that the kill lands hundreds of steps before the end
    args = ["--corpus", pipeline / "prep" / "corpus.txt", "--vocab", pipeline / "vocab",
            *TINY_OVERRIDES, "training_steps=600", "save_checkpoint=50"]
    killed = tmp_path / "killed"
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nanoalbert", "pretrain", "--out", str(killed),
         *map(str, args)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120
    while not (killed / "checkpoint-000050.ckpt").exists() and proc.poll() is None:
        assert time.monotonic() < deadline, "no first checkpoint"
        time.sleep(0.001)
    proc.kill()
    assert proc.wait(timeout=60) == -signal.SIGKILL
    assert (killed / ".lock").exists() and (killed / "INCOMPLETE").exists()

    assert run_cli("pretrain", "--out", killed, *args) == 0
    assert "resuming from step" in capsys.readouterr().out
    assert run_cli("pretrain", "--out", tmp_path / "straight", *args) == 0
    final = "checkpoint-000600.ckpt"
    assert (killed / final).read_bytes() == (tmp_path / "straight" / final).read_bytes()
    assert (killed / "train.log").read_bytes() == \
        (tmp_path / "straight" / "train.log").read_bytes()
    assert_unlocked(killed)


def test_pretrain_resume_cuts_log_back_to_checkpoint_step(pipeline, tmp_path, capsys):
    # the final checkpoint is gone but the log ran on past step 2 and ends
    # in a torn line: the rerun resumes from step 2 and logs steps 3-4 once
    corpus = pipeline / "prep" / "corpus.txt"
    run = tmp_path / "run"
    shutil.copytree(pipeline / "pt", run)
    (run / "checkpoint-000004.ckpt").unlink()
    with open(run / "train.log", "a", encoding="utf-8") as log:
        log.write("5\tlr\t0.0")
    assert run_cli("pretrain", "--out", run, "--corpus", corpus,
                   "--vocab", pipeline / "vocab", *TINY_OVERRIDES) == 0
    assert "resuming from step 2" in capsys.readouterr().out
    assert read(run / "train.log") == read(pipeline / "pt" / "train.log")


def test_pretrain_refuses_to_resume_a_checkpoint_of_another_architecture(pipeline, tmp_path, capsys):
    # the shared block's shapes do not depend on num_layers, so only the
    # recorded config can tell a 1-layer run from a 5-layer one
    corpus = pipeline / "prep" / "corpus.txt"
    run = tmp_path / "run"
    shutil.copytree(pipeline / "pt", run)
    (run / "checkpoint-000004.ckpt").unlink()
    log = read(run / "train.log")
    effective = (run / "effective.cfg").read_bytes()
    assert run_cli("pretrain", "--out", run, "--corpus", corpus, "--vocab", pipeline / "vocab",
                   *TINY_OVERRIDES, "num_layers=5") == 1
    assert capsys.readouterr().err == (
        f"error: {run / 'checkpoint-000002.ckpt'} was made with num_layers=1, as "
        f"{run / 'effective.cfg'} records, but the config says num_layers=5; "
        "cannot continue that run\n")
    assert not (run / "checkpoint-000004.ckpt").exists()
    assert read(run / "train.log") == log
    assert (run / "effective.cfg").read_bytes() == effective


def test_pretrain_rebuilds_example_cache_after_failed_write(pipeline, tmp_path, monkeypatch, capsys):
    from nanoalbert import rundir

    class FailingFile:
        """Writes its first chunk, half of the second, then fails."""

        def __init__(self, path):
            self.file = open(path, "wb")
            self.writes = 0

        def write(self, data):
            self.writes += 1
            if self.writes == 2:
                self.file.write(data[: len(data) // 2])
                raise OSError("No space left on device")
            return self.file.write(data)

        def writelines(self, chunks):
            for data in chunks:
                self.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

    corpus = pipeline / "prep" / "corpus.txt"
    out = tmp_path / "pt"
    args = ["pretrain", "--out", out, "--corpus", corpus, "--vocab", pipeline / "vocab",
            *TINY_OVERRIDES]

    def failing_open(path, *args, **kwargs):
        if str(path).endswith("examples.bin.tmp"):
            return FailingFile(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(rundir, "open", failing_open, raising=False)
    assert run_cli(*args) == 1
    assert "No space left" in capsys.readouterr().err
    assert not (out / "examples.bin").exists()

    monkeypatch.undo()
    assert run_cli(*args) == 0
    for name in ("examples.bin", "checkpoint-000004.ckpt", "train.log"):
        assert (out / name).read_bytes() == (pipeline / "pt" / name).read_bytes(), name


def test_pretrain_refuses_example_cache_of_other_shape(pipeline, tmp_path, capsys):
    # the shared run cached T=24 P=20 records, as its effective.cfg records
    corpus = pipeline / "prep" / "corpus.txt"
    for override, recorded in (("max_seq_length=16", "max_seq_length=24"),
                               ("max_predictions_per_seq=10", "max_predictions_per_seq=20")):
        out = tmp_path / override.split("=")[0]
        out.mkdir()
        shutil.copy(pipeline / "pt" / "examples.bin", out)
        shutil.copy(pipeline / "pt" / "effective.cfg", out)
        assert run_cli("pretrain", "--out", out, "--corpus", corpus,
                       "--vocab", pipeline / "vocab", *TINY_OVERRIDES, override) == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'examples.bin'} was made with {recorded}, as "
            f"{out / 'effective.cfg'} records, but the config says {override}; "
            "cannot continue that run\n")
        assert not list(out.glob("checkpoint-*")) and not (out / "train.log").exists()


@pytest.mark.parametrize("field, value, what", [
    ("sop_label", 2, "a sop_label outside {0, 1}"),
    ("mlm_labels", 100000, "an MLM label outside the vocabulary [0, 261)"),
    ("mlm_labels", -5, "an MLM label below 0 other than -100"),
    ("token_ids", 261, "a token id outside the vocabulary [0, 261)"),
], ids=["sop_label_2", "mlm_label_100000", "mlm_label_-5", "token_id_261"])
def test_pretrain_refuses_an_example_cache_value_in_one_line(pipeline, tmp_path, capsys,
                                                             field, value, what):
    from nanoalbert.corpus import read_examples, write_examples

    out = tmp_path / "run"
    out.mkdir()
    shutil.copy(pipeline / "pt" / "effective.cfg", out)
    examples = np.array(read_examples(pipeline / "pt" / "examples.bin"))
    if field == "token_ids":
        examples["input"]["token_ids"][3, 1] = value
    elif field == "mlm_labels":
        examples["mlm_labels"][3, 0] = value  # a used slot: every example masks one
    else:
        examples["sop_label"][3] = value
    write_examples(out / "examples.bin", examples)
    assert run_cli("pretrain", "--out", out, "--corpus", pipeline / "prep" / "corpus.txt",
                   "--vocab", pipeline / "vocab", *TINY_OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err == f"error: {out / 'examples.bin'}: example 3 has {what}\n"
    assert not list(out.glob("checkpoint-*")) and not (out / "train.log").exists()


def test_pretrain_resumes_a_run_whose_effective_cfg_holds_a_retired_key(pipeline, tmp_path):
    # effective.cfg as written while finetune_eval_batch_size was a key: the
    # run resumes from its checkpoint to the bytes of one that never stopped
    run = shutil.copytree(pipeline / "pt", tmp_path / "run")
    (run / "checkpoint-000004.ckpt").unlink()
    text = read(run / "effective.cfg")
    old = "".join(sorted(text.splitlines(keepends=True) + ["finetune_eval_batch_size=16\n"]))
    assert old.index("finetune_batch_size=") < old.index("finetune_eval_batch_size=16") \
        < old.index("finetune_learning_rate=")
    (run / "effective.cfg").write_text(old)
    assert run_cli("pretrain", "--out", run, "--corpus", pipeline / "prep" / "corpus.txt",
                   "--vocab", pipeline / "vocab", *TINY_OVERRIDES) == 0
    for name in ("checkpoint-000004.ckpt", "train.log", "effective.cfg"):
        assert (run / name).read_bytes() == (pipeline / "pt" / name).read_bytes(), name


@pytest.mark.parametrize("override, recorded", [
    ("learning_rate=0.5", "learning_rate=0.001"), ("seed=9", "seed=3"),
    ("train_batch_size=3", "train_batch_size=4"), ("mask_rate=0.3", "mask_rate=0.15"),
])
def test_pretrain_refuses_to_resume_under_another_config(pipeline, tmp_path, capsys,
                                                         override, recorded):
    # keys the checkpoint header does not hold: only effective.cfg knows them
    run = shutil.copytree(pipeline / "pt", tmp_path / "run")
    (run / "checkpoint-000004.ckpt").unlink()
    before = {path.name: path.read_bytes() for path in run.iterdir()}
    assert run_cli("pretrain", "--out", run, "--corpus", pipeline / "prep" / "corpus.txt",
                   "--vocab", pipeline / "vocab", *TINY_OVERRIDES, override) == 1
    assert capsys.readouterr().err == (
        f"error: {run / 'checkpoint-000002.ckpt'} was made with {recorded}, as "
        f"{run / 'effective.cfg'} records, but the config says {override}; "
        "cannot continue that run\n")
    assert not (run / "INCOMPLETE").exists()
    assert {path.name: path.read_bytes() for path in run.iterdir()} == before


def test_pretrain_refuses_state_without_effective_cfg(pipeline, tmp_path, capsys):
    # every command writes effective.cfg before any state, so only a
    # directory built by hand holds a checkpoint without one
    out = tmp_path / "bare"
    out.mkdir()
    shutil.copy(pipeline / "pt" / "checkpoint-000002.ckpt", out)
    assert run_cli("pretrain", "--out", out, "--corpus", pipeline / "prep" / "corpus.txt",
                   "--vocab", pipeline / "vocab", *TINY_OVERRIDES) == 1
    assert capsys.readouterr().err == (
        f"error: {out / 'checkpoint-000002.ckpt'} has no {out / 'effective.cfg'} to say "
        "which config made it; cannot continue that run\n")
    assert sorted(path.name for path in out.iterdir()) == [".lock", "checkpoint-000002.ckpt"]


def test_pretrain_that_failed_before_any_state_reruns_under_another_config(pipeline, tmp_path):
    out = tmp_path / "pt"
    args = ["pretrain", "--out", out, "--corpus", pipeline / "prep" / "corpus.txt",
            "--vocab", pipeline / "vocab", *TINY_OVERRIDES]
    assert run_cli(*args, "max_seq_length=40") == 1  # past max_positions: refused
    assert "max_seq_length=40" in read(out / "effective.cfg")
    assert run_cli(*args) == 0
    for name in ("effective.cfg", "checkpoint-000004.ckpt", "train.log"):
        assert (out / name).read_bytes() == (pipeline / "pt" / name).read_bytes(), name


def test_effective_cfg_is_written_once_and_not_again_by_an_identical_rerun(tmp_path, monkeypatch):
    from nanoalbert import cli, rundir

    written = []
    real = rundir.write_file

    def recording(path, content):
        written.append(Path(path).name)
        real(path, content)

    monkeypatch.setattr(rundir, "write_file", recording)
    monkeypatch.setattr(cli, "write_file", recording)
    for expected in (["INCOMPLETE", "effective.cfg", "corpus.txt"], ["INCOMPLETE", "corpus.txt"]):
        written.clear()
        assert run_cli("prep-corpus", "--out", tmp_path / "p", "--inputs", *RAW) == 0
        assert written == expected


def run_until(argv, out, kill_at=None) -> int:
    """Run the command argv[0] with --out `out` and the rest of argv. The
    points where a crash can land are before and after each write_file
    rename and after each train.log line; the process SIGKILLs itself when
    it reaches point number kill_at. Returns the points passed."""
    from nanoalbert import pretrain, rundir

    passed = 0

    def boundary():
        nonlocal passed
        if passed == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        passed += 1

    class Log:
        def __init__(self, log):
            self.log = log

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.log.close()

        def write(self, text):
            self.log.write(text)
            if text.endswith("\n"):
                boundary()

    def replace(src, dst):
        boundary()
        real_replace(src, dst)
        boundary()

    real_replace, real_open_log = os.replace, pretrain.open_log
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rundir.os, "replace", replace)
        patch.setattr(pretrain, "open_log", lambda path, step: Log(real_open_log(path, step)))
        assert run_cli(argv[0], "--out", out, *argv[1:]) == 0
    return passed


def killed_at_each_point(argv, outs, points):
    """For each crash point k below `points`, a forked child runs argv into
    outs(k) from the start and SIGKILLs itself at k; yields (k, outs(k))
    once it is dead. Tests fork only between runs, when no lane thread is
    alive."""
    for kill_at in range(points):
        out = outs(kill_at)
        pid = os.fork()
        if pid == 0:
            try:
                run_until(argv, out, kill_at)
            finally:
                os._exit(1)  # only if the point was never reached
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == -signal.SIGKILL, kill_at
        yield kill_at, out


def run_files(out):
    return {path.name: path.read_bytes() for path in out.iterdir() if path.name != ".lock"}


def test_pretrain_killed_at_any_boundary_reruns_to_the_uninterrupted_bytes(pipeline, tmp_path):
    """A kill -9 wherever a pretrain run can stop, then a plain rerun, gives
    the files of a run that never stopped."""
    argv = ["pretrain", "--corpus", pipeline / "prep" / "corpus.txt",
            "--vocab", pipeline / "vocab", *TINY_OVERRIDES]  # checkpoints at steps 2 and 4
    points = run_until(argv, tmp_path / "straight")
    # INCOMPLETE, effective.cfg, examples.bin and two checkpoints, then 4 x 4 log lines
    assert points == 5 * 2 + 16
    expected = run_files(tmp_path / "straight")
    for kill_at, out in killed_at_each_point(argv, lambda k: tmp_path / f"killed{k}", points):
        assert run_cli(argv[0], "--out", out, *argv[1:]) == 0, kill_at
        assert not list(out.glob("*.tmp")), kill_at
        assert run_files(out) == expected, kill_at


def test_prep_corpus_and_build_vocab_killed_at_any_boundary_rerun_to_the_uninterrupted_bytes(
        pipeline, tmp_path):
    from nanoalbert.bpe import load_vocab

    prep = ["prep-corpus", "--inputs", *RAW]
    points = run_until(prep, tmp_path / "prep")
    assert points == 3 * 2  # INCOMPLETE, effective.cfg, corpus.txt
    expected = run_files(tmp_path / "prep")
    for kill_at, out in killed_at_each_point(prep, lambda k: tmp_path / f"prep{k}", points):
        assert run_cli(prep[0], "--out", out, *prep[1:]) == 0, kill_at
        assert not list(out.glob("*.tmp")), kill_at
        assert run_files(out) == expected, kill_at

    # a 280-piece rebuild over a 270-piece vocabulary, killed anywhere
    build = ["build-vocab", "--corpus", pipeline / "prep" / "corpus.txt"]
    old, new = tmp_path / "vocab270", tmp_path / "vocab280"
    assert run_cli(build[0], "--out", old, *build[1:], "vocab_size=270") == 0
    build.append("vocab_size=280")
    # INCOMPLETE, effective.cfg (the config changed), vocab.txt, merges.txt
    assert run_until(build, new) == 4 * 2
    expected = run_files(new)
    pairs = [load_vocab(vocab / "vocab.txt", vocab / "merges.txt").merges
             for vocab in (old, new)]
    assert pairs[0] != pairs[1]

    def over_old(k):
        return shutil.copytree(old, tmp_path / f"build{k}")

    for kill_at, out in killed_at_each_point(build, over_old, 4 * 2):
        if kill_at in (5, 6):  # between the vocab.txt and merges.txt renames
            with pytest.raises(ValueError, match="the two files are not one vocabulary"):
                load_vocab(out / "vocab.txt", out / "merges.txt")
        else:
            assert load_vocab(out / "vocab.txt", out / "merges.txt").merges in pairs, kill_at
        assert run_cli(build[0], "--out", out, *build[1:]) == 0, kill_at
        assert not list(out.glob("*.tmp")), kill_at
        assert run_files(out) == expected, kill_at


def test_pretrain_rejects_vocab_size_mismatch(pipeline, tmp_path, capsys):
    corpus = pipeline / "prep" / "corpus.txt"
    overrides = [o if not o.startswith("vocab_size") else "vocab_size=300"
                 for o in TINY_OVERRIDES]
    assert run_cli("pretrain", "--out", tmp_path / "m", "--corpus", corpus,
                   "--vocab", pipeline / "vocab", *overrides) == 1
    assert capsys.readouterr().err == (
        f"error: {pipeline / 'vocab' / 'vocab.txt'} has 261 pieces but the config "
        "has vocab_size=300\n")


def test_pretrain_rejects_sequences_past_max_positions(pipeline, tmp_path, capsys):
    assert run_cli("pretrain", "--out", tmp_path / "m",
                   "--corpus", pipeline / "prep" / "corpus.txt", "--vocab", pipeline / "vocab",
                   *TINY_OVERRIDES, "max_seq_length=40") == 1
    assert capsys.readouterr().err == "error: max_seq_length=40 exceeds max_positions=32\n"


def test_pretrain_refuses_a_zero_head_count_in_one_line(pipeline, tmp_path, capsys):
    assert run_cli("pretrain", "--out", tmp_path / "m",
                   "--corpus", pipeline / "prep" / "corpus.txt", "--vocab", pipeline / "vocab",
                   *TINY_OVERRIDES, "num_heads=0") == 1
    assert capsys.readouterr().err == "error: num_heads must be >= 1\n"


@pytest.mark.parametrize("command, setting, least", [
    ("pretrain", "train_batch_size=0", 1),
    ("pretrain", "train_batch_size=-3", 1),
    ("pretrain", "max_predictions_per_seq=0", 1),
    ("pretrain", "save_checkpoint=-1", 0),
    ("pretrain", "max_seq_length=4", 5),
    ("finetune", "save_checkpoint=-2", 0),
    ("finetune", "finetune_batch_size=0", 1),
    ("finetune", "finetune_max_seq_length=2", 3),
])
def test_a_setting_no_run_can_use_is_refused_before_out_is_made(
        pipeline, tmp_path, capsys, command, setting, least):
    inputs = {"pretrain": ["--corpus", pipeline / "prep" / "corpus.txt",
                           "--vocab", pipeline / "vocab"],
              "finetune": ["--checkpoint", pipeline / "pt" / "checkpoint-000004.ckpt",
                           "--vocab", pipeline / "vocab", "--train", pipeline / "train.conll",
                           "--dev", pipeline / "dev.conll"]}[command]
    key, value = setting.split("=")
    overrides = [o for o in TINY_OVERRIDES + FT_OVERRIDES if not o.startswith(f"{key}=")]
    config = tmp_path / "run.cfg"
    config.write_text(f"# a run config\nseed=3\n{setting}\n")
    for where, argv in (("override", [setting]), (f"{config}:3", ["--config", config])):
        out = tmp_path / "out"
        assert run_cli(command, "--out", out, *inputs, *argv, *overrides) == 1
        assert capsys.readouterr().err == (
            f"error: {where}: invalid value {value} for {key} (expected at least {least})\n")
        assert not out.exists()


def test_effective_cfg_with_a_setting_no_run_can_use_is_refused_naming_its_line(
        pipeline, tmp_path, capsys):
    out = shutil.copytree(pipeline / "pt", tmp_path / "pt")
    effective = out / "effective.cfg"
    lines = read(effective).splitlines()
    n = next(i for i, line in enumerate(lines, 1) if line.startswith("train_batch_size="))
    lines[n - 1] = "train_batch_size=0"
    effective.write_text("\n".join(lines) + "\n")
    assert run_cli("pretrain", "--out", out, "--corpus", pipeline / "prep" / "corpus.txt",
                   "--vocab", pipeline / "vocab", *TINY_OVERRIDES) == 1
    assert capsys.readouterr().err == (
        f"error: {effective}:{n}: invalid value 0 for train_batch_size (expected at least 1)\n")


@pytest.mark.parametrize("setting, message", [
    ("warmup_steps=4", "need 0 < warmup_steps < total_steps"),
    ("learning_rate=0", "peak_lr must be positive"),
])
def test_pretrain_refuses_a_schedule_before_writing_the_example_cache(
        pipeline, tmp_path, capsys, setting, message):
    out = tmp_path / "pt"
    args = ["pretrain", "--out", out, "--corpus", pipeline / "prep" / "corpus.txt",
            "--vocab", pipeline / "vocab", *TINY_OVERRIDES]
    assert run_cli(*args, setting) == 1  # training_steps=4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "examples.bin").exists()
    assert run_cli(*args) == 0  # the corrected rerun, into the same --out
    for name in ("examples.bin", "checkpoint-000004.ckpt", "train.log"):
        assert (out / name).read_bytes() == (pipeline / "pt" / name).read_bytes(), name


def test_pretrain_refuses_an_unknown_optimizer_before_resuming(pipeline, tmp_path, capsys):
    # one directory a run can resume, one already trained to the last step
    midway = tmp_path / "midway"
    midway.mkdir()
    shutil.copy(pipeline / "pt" / "checkpoint-000002.ckpt", midway)
    finished = shutil.copytree(pipeline / "pt", tmp_path / "finished")
    for out in (midway, finished):
        for optimizer in ("sgd", "adamw"):
            before = sorted(p.name for p in out.iterdir())
            assert run_cli("pretrain", "--out", out, "--corpus", pipeline / "prep" / "corpus.txt",
                           "--vocab", pipeline / "vocab", *TINY_OVERRIDES,
                           f"optimizer={optimizer}") == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: override: invalid value '{optimizer}' for optimizer "
                                    "(expected lamb)\n")
            assert sorted(p.name for p in out.iterdir()) == before
    # the retired key still parses as lamb, the optimizer pretraining always uses
    assert run_cli("pretrain", "--out", finished, "--corpus", pipeline / "prep" / "corpus.txt",
                   "--vocab", pipeline / "vocab", *TINY_OVERRIDES, "optimizer=lamb") == 0
    assert capsys.readouterr().out == "already trained to step 4; nothing to do\n"


def test_pretrain_refuses_merge_of_unknown_pieces(pipeline, tmp_path, capsys):
    vocab = shutil.copytree(pipeline / "vocab", tmp_path / "vocab")
    with open(vocab / "merges.txt", "a", encoding="utf-8") as f:
        f.write("x\ty\n")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("xy " + read(pipeline / "prep" / "corpus.txt"), encoding="utf-8")
    assert run_cli("pretrain", "--out", tmp_path / "m", "--corpus", corpus,
                   "--vocab", vocab, *TINY_OVERRIDES) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "merges.txt:1: piece 'xy' is not in the vocabulary" in err


# ---------------------------------------------------------------------------
# finetune / predict / evaluate
# ---------------------------------------------------------------------------

FT_OVERRIDES = [
    "finetune_steps=6", "finetune_batch_size=4", "finetune_warmup_steps=2",
    "save_checkpoint=3", "finetune_max_seq_length=32",
    "finetune_learning_rate=0.001", "seed=3",
]


@pytest.fixture(scope="module")
def finetuned(pipeline, tmp_path_factory):
    out = tmp_path_factory.mktemp("ft")
    code = main([
        "finetune", "--out", str(out),
        "--checkpoint", str(pipeline / "pt" / "checkpoint-000004.ckpt"),
        "--vocab", str(pipeline / "vocab"),
        "--train", str(pipeline / "train.conll"),
        "--dev", str(pipeline / "dev.conll"),
        "--test", str(pipeline / "dev.conll"),
        *FT_OVERRIDES,
    ])
    assert code == 0
    return out


def test_finetune_outputs(finetuned, capsys):
    names = {p.name for p in finetuned.iterdir()}
    assert {"best.ckpt", "train.log", "metrics.txt", "metrics.kv",
            "effective.cfg"} <= names
    kv = read(finetuned / "metrics.kv")
    assert "averaging=micro" in kv
    assert any(line.startswith("f1=") for line in kv.splitlines())
    log = read(finetuned / "train.log").splitlines()
    assert sum(1 for l in log if "\tdev_f1\t" in l) == 2  # steps 3 and 6


def test_finetune_rerun_into_same_out_logs_each_step_once(pipeline, finetuned, tmp_path):
    out = tmp_path / "again"
    for _ in range(2):
        assert run_cli("finetune", "--out", out,
                       "--checkpoint", pipeline / "pt" / "checkpoint-000004.ckpt",
                       "--vocab", pipeline / "vocab",
                       "--train", pipeline / "train.conll", "--dev", pipeline / "dev.conll",
                       "--test", pipeline / "dev.conll", *FT_OVERRIDES) == 0
    assert read(out / "train.log") == read(finetuned / "train.log")


def test_finetune_predict_and_evaluate_killed_at_any_boundary_rerun_to_the_uninterrupted_bytes(
        pipeline, tmp_path):
    """A kill -9 wherever finetune --test, predict or evaluate can stop, then
    a plain rerun, gives the files of a run that never stopped. finetune has
    no resume, so its rerun starts over."""
    source = tmp_path / "input.txt"
    source.write_text("aspirin helps\nnothing here\n")  # dev.conll's words
    commands = [
        # INCOMPLETE, effective.cfg, best.ckpt, metrics.txt, metrics.kv;
        # 6 ner_loss and 2 dev_f1 lines
        (["finetune", "--checkpoint", pipeline / "pt" / "checkpoint-000004.ckpt",
          "--vocab", pipeline / "vocab", "--train", pipeline / "train.conll",
          "--dev", pipeline / "dev.conll", "--test", pipeline / "dev.conll", *FT_OVERRIDES],
         5 * 2 + 8),
        # INCOMPLETE, effective.cfg, predictions.conll
        (["predict", "--checkpoint", tmp_path / "finetune" / "best.ckpt",
          "--vocab", pipeline / "vocab", "--input", source, "finetune_max_seq_length=32"],
         3 * 2),
        # INCOMPLETE, effective.cfg, metrics.txt, metrics.kv
        (["evaluate", "--gold", pipeline / "dev.conll",
          "--pred", tmp_path / "predict" / "predictions.conll"], 4 * 2),
    ]
    for argv, want_points in commands:
        points = run_until(argv, tmp_path / argv[0])
        assert points == want_points, argv[0]
        expected = run_files(tmp_path / argv[0])
        for kill_at, out in killed_at_each_point(
                argv, lambda k: tmp_path / f"{argv[0]}{k}", points):
            assert run_cli(argv[0], "--out", out, *argv[1:]) == 0, (argv[0], kill_at)
            assert not list(out.glob("*.tmp")), (argv[0], kill_at)
            assert run_files(out) == expected, (argv[0], kill_at)


def test_finetune_refuses_an_out_holding_pretraining_state(pipeline, tmp_path, capsys):
    # one config for both commands, so only the state tells them apart
    overrides = [*TINY_OVERRIDES, *FT_OVERRIDES]
    out = tmp_path / "pt"
    assert run_cli("pretrain", "--out", out, "--corpus", pipeline / "prep" / "corpus.txt",
                   "--vocab", pipeline / "vocab", *overrides) == 0
    capsys.readouterr()
    for state in ("checkpoint-000004.ckpt", "examples.bin"):
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run_cli("finetune", "--out", out,
                       "--checkpoint", pipeline / "pt" / "checkpoint-000004.ckpt",
                       "--vocab", pipeline / "vocab", "--train", pipeline / "train.conll",
                       "--dev", pipeline / "dev.conll", *overrides) == 1
        assert capsys.readouterr().err == (
            f"error: {out / state} belongs to a run this command does not continue; "
            "give it another --out\n")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        for checkpoint in out.glob("checkpoint-*.ckpt"):
            checkpoint.unlink()  # examples.bin alone is state too


def test_finetune_without_periodic_eval_scores_dev_at_last_step(pipeline, tmp_path):
    out = tmp_path / "ft0"
    overrides = [o for o in FT_OVERRIDES if not o.startswith("save_checkpoint=")]
    assert run_cli("finetune", "--out", out,
                   "--checkpoint", pipeline / "pt" / "checkpoint-000004.ckpt",
                   "--vocab", pipeline / "vocab",
                   "--train", pipeline / "train.conll", "--dev", pipeline / "dev.conll",
                   *overrides, "save_checkpoint=0") == 0
    dev = [l for l in read(out / "train.log").splitlines() if "\tdev_f1\t" in l]
    assert len(dev) == 1 and dev[0].startswith("6\t")  # finetune_steps=6


def test_finetune_batch_without_a_labelled_word_fails_with_located_error(
        pipeline, tmp_path, capsys):
    long_word = "Pneumonoultramicroscopicsilicovolcanoconiosis"  # > 14 byte pieces
    train = tmp_path / "long.conll"
    train.write_text(f"{long_word} B-Drug\nlowers O\n\n{long_word} B-Drug\nfades O\n")
    overrides = [o for o in FT_OVERRIDES
                 if not o.startswith(("finetune_batch_size=", "finetune_max_seq_length="))]
    assert run_cli("finetune", "--out", tmp_path / "ft",
                   "--checkpoint", pipeline / "pt" / "checkpoint-000004.ckpt",
                   "--vocab", pipeline / "vocab",
                   "--train", train, "--dev", pipeline / "dev.conll",
                   *overrides, "finetune_batch_size=2", "finetune_max_seq_length=16") == 1
    err = capsys.readouterr().err.strip()
    assert err.count("\n") == 0
    assert err == ("error: step 1: training sentences 1, 2 keep no word within "
                   "finetune_max_seq_length=16, so the batch has no label to learn")


def test_a_diverging_finetune_names_the_step_of_its_non_finite_gradient(
        pipeline, tmp_path, capsys):
    assert run_cli("finetune", "--out", tmp_path / "ft",
                   "--checkpoint", pipeline / "pt" / "checkpoint-000004.ckpt",
                   "--vocab", pipeline / "vocab",
                   "--train", pipeline / "train.conll", "--dev", pipeline / "dev.conll",
                   *FT_OVERRIDES, "finetune_learning_rate=1e30") == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert re.fullmatch(r"error: step \d+: non-finite values in grad\[\w+\]", last), last


def test_finetune_refuses_a_label_the_checkpoint_cannot_store_before_step_1(
        pipeline, tmp_path, capsys):
    train = tmp_path / "comma.conll"
    train.write_text(CONLL_TRAIN.replace("B-Drug", "B-Dr,ug"))
    out = tmp_path / "ft"
    assert run_cli("finetune", "--out", out,
                   "--checkpoint", pipeline / "pt" / "checkpoint-000004.ckpt",
                   "--vocab", pipeline / "vocab",
                   "--train", train, "--dev", pipeline / "dev.conll", *FT_OVERRIDES) == 1
    assert capsys.readouterr().err == "error: label 'B-Dr,ug' may not contain ',' or newline\n"
    log = out / "train.log"
    assert not log.exists() or read(log) == ""
    assert not (out / "best.ckpt").exists()


def test_finetune_refuses_a_vocabulary_of_another_size(pipeline, tmp_path, capsys):
    vocab = tmp_path / "vocab273"
    assert run_cli("build-vocab", "--out", vocab, "--corpus",
                   pipeline / "prep" / "corpus.txt", "vocab_size=273") == 0
    capsys.readouterr()
    checkpoint = pipeline / "pt" / "checkpoint-000004.ckpt"
    assert run_cli("finetune", "--out", tmp_path / "ft", "--checkpoint", checkpoint,
                   "--vocab", vocab, "--train", pipeline / "train.conll",
                   "--dev", pipeline / "dev.conll", *FT_OVERRIDES) == 1
    assert capsys.readouterr().err == (
        f"error: {vocab / 'vocab.txt'} has 273 pieces but {checkpoint} has vocab_size=261\n")
    assert not (tmp_path / "ft" / "train.log").exists()


def test_finetune_refuses_a_sequence_length_past_the_checkpoint_positions(
        pipeline, tmp_path, capsys):
    checkpoint = pipeline / "pt" / "checkpoint-000004.ckpt"
    assert run_cli("finetune", "--out", tmp_path / "ft", "--checkpoint", checkpoint,
                   "--vocab", pipeline / "vocab", "--train", pipeline / "train.conll",
                   "--dev", pipeline / "dev.conll", *FT_OVERRIDES,
                   "finetune_max_seq_length=64") == 1
    assert capsys.readouterr().err == (
        f"error: finetune_max_seq_length=64 exceeds {checkpoint} max_positions=32\n")


def test_predict_writes_conll_blocks(pipeline, finetuned, tmp_path, capsys):
    source = tmp_path / "input.txt"
    source.write_text("aspirin lowers fever\n\ngive aspirin\n")
    out = tmp_path / "pred"
    assert run_cli("predict", "--out", out,
                   "--checkpoint", finetuned / "best.ckpt",
                   "--vocab", pipeline / "vocab",
                   "--input", source, "finetune_max_seq_length=32") == 0
    assert "sentences=2" in capsys.readouterr().out
    blocks = read(out / "predictions.conll").strip().split("\n\n")
    assert len(blocks) == 2
    first = [line.split("\t") for line in blocks[0].splitlines()]
    assert [w for w, _ in first] == ["aspirin", "lowers", "fever"]
    assert all(label in ("O", "B-Drug") for _, label in first)


def test_predict_tags_a_sentence_whose_first_word_does_not_fit(pipeline, finetuned, tmp_path):
    source = tmp_path / "input.txt"
    long_word = "Pneumonoultramicroscopicsilicovolcanoconiosis"  # > 14 byte pieces
    source.write_text(f"{long_word} lowers fever\ngive aspirin\n")
    out = tmp_path / "pred"
    assert run_cli("predict", "--out", out,
                   "--checkpoint", finetuned / "best.ckpt",
                   "--vocab", pipeline / "vocab",
                   "--input", source, "finetune_max_seq_length=16") == 0
    blocks = read(out / "predictions.conll").strip().split("\n\n")
    rows = [[line.split("\t") for line in block.splitlines()] for block in blocks]
    assert [[w for w, _ in block] for block in rows] == [
        [long_word, "lowers", "fever"], ["give", "aspirin"]]
    assert rows[0] == [[long_word, "O"], ["lowers", "O"], ["fever", "O"]]


def test_predict_refuses_a_vocabulary_of_another_size(pipeline, finetuned, tmp_path, capsys):
    vocab = tmp_path / "vocab273"
    assert run_cli("build-vocab", "--out", vocab, "--corpus",
                   pipeline / "prep" / "corpus.txt", "vocab_size=273") == 0
    assert "vocab_size=273" in capsys.readouterr().out
    source = tmp_path / "input.txt"
    source.write_text("aspirin lowers fever\n")
    assert run_cli("predict", "--out", tmp_path / "pred", "--checkpoint", finetuned / "best.ckpt",
                   "--vocab", vocab, "--input", source, "finetune_max_seq_length=32") == 1
    assert capsys.readouterr().err == (
        f"error: {vocab / 'vocab.txt'} has 273 pieces but {finetuned / 'best.ckpt'} "
        "has vocab_size=261\n")
    assert not (tmp_path / "pred" / "predictions.conll").exists()


def test_predict_refuses_a_sequence_length_past_the_checkpoint_positions(
        pipeline, finetuned, tmp_path, capsys):
    checkpoint = finetuned / "best.ckpt"
    out = tmp_path / "pred"
    # the input is never read: the refusal comes first
    assert run_cli("predict", "--out", out, "--checkpoint", checkpoint,
                   "--vocab", pipeline / "vocab", "--input", tmp_path / "missing.txt",
                   "finetune_max_seq_length=64") == 1
    assert capsys.readouterr().err == (
        f"error: finetune_max_seq_length=64 exceeds {checkpoint} max_positions=32\n")
    assert not (out / "predictions.conll").exists()


def test_predict_names_a_garbage_or_truncated_checkpoint(pipeline, finetuned, tmp_path, capsys):
    source = tmp_path / "input.txt"
    source.write_text("some words\n")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"this is not a checkpoint at all")
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((finetuned / "best.ckpt").read_bytes()[:100])
    for n, checkpoint in enumerate((bad, cut)):
        assert run_cli("predict", "--out", tmp_path / f"p{n}", "--checkpoint", checkpoint,
                       "--vocab", pipeline / "vocab", "--input", source) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error: {bad}: bad magic: not a checkpoint file"
    assert err[1].startswith(f"error: {cut}: truncated: wanted ")
    assert err[1].endswith(", file has 100") and len(err) == 2


def test_predict_requires_tagging_head(pipeline, tmp_path, capsys):
    source = tmp_path / "input.txt"
    source.write_text("some words\n")
    pretrained = pipeline / "pt" / "checkpoint-000004.ckpt"
    assert run_cli("predict", "--out", tmp_path / "nope", "--checkpoint", pretrained,
                   "--vocab", pipeline / "vocab", "--input", source) == 1
    assert capsys.readouterr().err == f"error: {pretrained} has no tagging head; fine-tune first\n"


def _hand_saved_tagger(path, labels):
    """A tagger for the pipeline's model with `labels` stored as given."""
    config = model_config_from(parse_config(None, TINY_OVERRIDES))
    params = init_parameters(config, RngStream(1).child("init"), num_labels=len(labels))
    save_checkpoint(path, config, params, labels=labels)
    return path


@pytest.mark.parametrize("labels, why", [
    (["O", "I-X"], "label 'I-X' has no matching B label"),
    (["O", "B-X", "B-X"], "labels O,B-X,B-X are not in tag id order O,B-X"),
    # id 2 trained as B-X: LabelSet would re-sort it to I-X and tag it so
    (["O", "I-X", "B-X"], "labels O,I-X,B-X are not in tag id order O,B-X,I-X"),
], ids=["orphan", "repeated", "unsorted"])
def test_predict_refuses_a_label_list_it_would_misread(pipeline, tmp_path, capsys, labels, why):
    checkpoint = _hand_saved_tagger(tmp_path / "tagger.ckpt", labels)
    source = tmp_path / "input.txt"
    source.write_text("aspirin lowers fever\n")
    assert run_cli("predict", "--out", tmp_path / "pred", "--checkpoint", checkpoint,
                   "--vocab", pipeline / "vocab", "--input", source,
                   "finetune_max_seq_length=32") == 1
    assert capsys.readouterr().err == f"error: {checkpoint}: {why}\n"
    assert not (tmp_path / "pred" / "predictions.conll").exists()


def test_predict_refuses_a_config_with_the_other_lowercase_rule(
        pipeline, finetuned, tmp_path, capsys):
    checkpoint = finetuned / "best.ckpt"
    assert b"\nlowercase=false\n" in checkpoint.read_bytes()
    source = tmp_path / "input.txt"
    source.write_text("Aspirin lowers fever\n")
    argv = ["predict", "--checkpoint", checkpoint, "--vocab", pipeline / "vocab",
            "--input", source, "finetune_max_seq_length=32"]
    assert run_cli(*argv[:1], "--out", tmp_path / "p0", *argv[1:], "lowercase=true") == 1
    assert capsys.readouterr().err == (f"error: {checkpoint} was fine-tuned with "
                                       "lowercase=false, but the config says lowercase=true\n")
    assert run_cli(*argv[:1], "--out", tmp_path / "p1", *argv[1:], "lowercase=false") == 0
    # a tagger whose header does not record the rule predicts under either
    argv[2] = _hand_saved_tagger(tmp_path / "older.ckpt", ["O", "B-Drug"])
    assert run_cli(*argv[:1], "--out", tmp_path / "p2", *argv[1:], "lowercase=true") == 0


_NON_UTF8_INPUTS = {
    "build-vocab --corpus": ["build-vocab", "--corpus", "BAD"],
    "pretrain --corpus": ["pretrain", "--corpus", "BAD", "--vocab", "VOCAB", *TINY_OVERRIDES],
    "vocab.txt": ["pretrain", "--corpus", "CORPUS", "--vocab", "VOCAB", *TINY_OVERRIDES],
    "merges.txt": ["pretrain", "--corpus", "CORPUS", "--vocab", "VOCAB", *TINY_OVERRIDES],
    "finetune --train": ["finetune", "--checkpoint", "PRETRAINED", "--vocab", "VOCAB",
                         "--train", "BAD", "--dev", "GOLD", *FT_OVERRIDES],
    "predict --input": ["predict", "--checkpoint", "TAGGER", "--vocab", "VOCAB",
                        "--input", "BAD", "finetune_max_seq_length=32"],
    "evaluate --gold": ["evaluate", "--gold", "BAD", "--pred", "GOLD"],
    "evaluate --pred": ["evaluate", "--gold", "GOLD", "--pred", "BAD"],
    "stats --corpus": ["stats", "--corpus", "BAD"],
    "stats --conll": ["stats", "--conll", "BAD"],
    "--config": ["stats", "--conll", "GOLD", "--config", "BAD"],
    "effective.cfg": ["stats", "--conll", "GOLD"],
}


@pytest.mark.parametrize("source", _NON_UTF8_INPUTS)
def test_a_non_utf8_text_input_is_refused_naming_the_file(
        pipeline, finetuned, tmp_path, capsys, source):
    vocab, out = tmp_path / "vocab", tmp_path / "out"
    shutil.copytree(pipeline / "vocab", vocab)
    out.mkdir()
    bad = {"vocab.txt": vocab / "vocab.txt", "merges.txt": vocab / "merges.txt",
           "effective.cfg": out / "effective.cfg"}.get(source, tmp_path / "bad.txt")
    bad.write_bytes(b"fine\r\nstart \xff fine end\n")  # the offset counts the file's bytes
    paths = {"BAD": bad, "VOCAB": vocab, "CORPUS": pipeline / "prep" / "corpus.txt",
             "GOLD": pipeline / "dev.conll", "TAGGER": finetuned / "best.ckpt",
             "PRETRAINED": pipeline / "pt" / "checkpoint-000004.ckpt"}
    command, *rest = (paths.get(word, word) for word in _NON_UTF8_INPUTS[source])
    assert run_cli(command, "--out", out, *rest) == 1
    assert capsys.readouterr().err == f"error: {bad}: invalid UTF-8 at byte offset 12\n"


def test_threads_1_and_2_write_byte_identical_runs(pipeline, tmp_path):
    """The BLAS thread count the environment sets is how many of a step's
    parts run at once; BLAS runs on one thread either way, so pretraining
    (resume included), fine-tuning and prediction write the same bytes at 1
    and 2. The batches are large enough to be cut into several parts."""
    words = ["aspirin", "lowers", "fever", "quickly", "in", "most", "adults", "today"]
    lines = [" ".join(words[(i + j) % 8] for j in range(3 + i % 4)) for i in range(12)]
    (tmp_path / "train.conll").write_text("\n\n".join(
        "\n".join(f"{w} {'B-Drug' if w == 'aspirin' else 'O'}" for w in line.split())
        for line in lines) + "\n")
    (tmp_path / "input.txt").write_text("\n".join(lines) + "\n")
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def nanoalbert(threads, *argv):
        done = subprocess.run(
            [sys.executable, "-m", "nanoalbert", *map(str, argv)],
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": str(threads),
                 "OMP_NUM_THREADS": str(threads)},
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    for threads in (1, 2):
        run = tmp_path / f"threads{threads}"
        pt = run / "pt"
        pt_args = ["--corpus", pipeline / "prep" / "corpus.txt", "--vocab", pipeline / "vocab",
                   *TINY_OVERRIDES, "train_batch_size=16"]
        nanoalbert(threads, "pretrain", "--out", pt, *pt_args)
        os.replace(pt / "checkpoint-000004.ckpt", run / "uninterrupted.ckpt")
        nanoalbert(threads, "pretrain", "--out", pt, *pt_args)  # resumes from step 2
        assert (pt / "checkpoint-000004.ckpt").read_bytes() == \
            (run / "uninterrupted.ckpt").read_bytes()
        nanoalbert(threads, "finetune", "--out", run / "ft",
                   "--checkpoint", pt / "checkpoint-000004.ckpt", "--vocab", pipeline / "vocab",
                   "--train", tmp_path / "train.conll", "--dev", tmp_path / "train.conll",
                   "--test", tmp_path / "train.conll", *FT_OVERRIDES, "finetune_batch_size=8")
        nanoalbert(threads, "predict", "--out", run / "pred",
                   "--checkpoint", run / "ft" / "best.ckpt", "--vocab", pipeline / "vocab",
                   "--input", tmp_path / "input.txt", "finetune_max_seq_length=32")

    files = sorted(path.relative_to(tmp_path / "threads1")
                   for path in (tmp_path / "threads1").rglob("*")
                   if path.is_file() and path.name != ".lock")
    assert {"pt/checkpoint-000002.ckpt", "pt/checkpoint-000004.ckpt", "pt/train.log",
            "ft/best.ckpt", "ft/train.log", "pred/predictions.conll"} <= set(map(str, files))
    for name in files:
        assert (tmp_path / "threads1" / name).read_bytes() == \
            (tmp_path / "threads2" / name).read_bytes(), name


def test_evaluate_perfect_predictions(pipeline, tmp_path, capsys):
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--out", out,
                   "--gold", pipeline / "train.conll",
                   "--pred", pipeline / "train.conll") == 0
    assert "precision=1.0000 recall=1.0000 f1=1.0000" in capsys.readouterr().out
    assert (out / "metrics.txt").exists()
    assert "f1=1.0000" in read(out / "metrics.kv")


def test_evaluate_scores_orphan_inside_predictions(tmp_path, capsys):
    gold = tmp_path / "gold.conll"
    gold.write_text("Ada B-PER\nwrote O\n\nBob B-PER\nSmith I-PER\n")
    pred = tmp_path / "pred.conll"
    pred.write_text("Ada I-PER\nwrote O\n\nBob O\nSmith I-PER\n")
    assert run_cli("evaluate", "--out", tmp_path / "eval",
                   "--gold", gold, "--pred", pred) == 0
    # the orphan "Ada" span matches gold; the orphan "Smith" span does not
    assert "precision=0.5000 recall=0.5000 f1=0.5000" in capsys.readouterr().out

    # gold files keep the strict check
    assert run_cli("evaluate", "--out", tmp_path / "strict",
                   "--gold", pred, "--pred", gold) == 1
    assert "pred.conll:1: label 'I-PER' has no matching B" in capsys.readouterr().err


def test_evaluate_names_both_files_when_they_disagree(tmp_path, capsys):
    gold = tmp_path / "gold.conll"
    gold.write_text("Ada B-PER\nwrote O\n\nBob B-PER\n")
    pred = tmp_path / "pred.conll"
    pred.write_text("Ada B-PER\nwrote O\n")
    assert run_cli("evaluate", "--out", tmp_path / "e", "--gold", gold, "--pred", pred) == 1
    assert capsys.readouterr().err == (
        f"error: --gold {gold} and --pred {pred} disagree: gold has 2 sentences, pred has 1\n")

    pred.write_text("Ada B-PER\n\nBob B-PER\n")
    assert run_cli("evaluate", "--out", tmp_path / "e2", "--gold", gold, "--pred", pred) == 1
    assert capsys.readouterr().err == (
        f"error: --gold {gold} and --pred {pred} disagree: "
        "sentence 0: gold length 2 != pred length 1\n")


def test_evaluate_refuses_predictions_for_other_words(tmp_path, capsys):
    # the labels alone agree, so scoring them would give F1 1.0
    gold = tmp_path / "gold.conll"
    gold.write_text("Ada B-PER\nwrote O\n\nBob B-PER\nsang O\n")
    pred = tmp_path / "pred.conll"
    pred.write_text("Ada B-PER\nwrote O\n\nBob B-PER\nran O\n")
    assert run_cli("evaluate", "--out", tmp_path / "e", "--gold", gold, "--pred", pred) == 1
    assert capsys.readouterr().err == (
        f"error: --gold {gold} and --pred {pred} disagree: "
        "sentence 1 word 1: gold 'sang', pred 'ran'\n")
    assert not (tmp_path / "e" / "metrics.kv").exists()


def test_text_outputs_are_utf8_under_an_ascii_locale(pipeline, tmp_path):
    """The CoNLL files are read as UTF-8, so the metrics that name their
    labels are written as UTF-8 too, whatever the locale."""
    conll = tmp_path / "protein.conll"
    conll.write_text("kinase B-Protéine\nbinds O\n\nthe O\nkinase B-Protéine\n",
                     encoding="utf-8")
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "LC_ALL": "C",
           "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    for argv in (["evaluate", "--gold", conll, "--pred", conll],
                 ["finetune", "--checkpoint", pipeline / "pt" / "checkpoint-000004.ckpt",
                  "--vocab", pipeline / "vocab", "--train", conll, "--dev", conll,
                  "--test", conll, *FT_OVERRIDES]):
        out = tmp_path / argv[0]
        done = subprocess.run(
            [sys.executable, "-m", "nanoalbert", *map(str, argv), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "type.Protéine.f1=" in read(out / "metrics.kv")
        assert "Protéine" in read(out / "metrics.txt")


def test_evaluate_leaves_inputs_untouched(pipeline, tmp_path):
    gold = pipeline / "train.conll"
    before = gold.read_bytes()
    assert run_cli("evaluate", "--out", tmp_path / "e2",
                   "--gold", gold, "--pred", gold) == 0
    assert gold.read_bytes() == before


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_corpus(pipeline, tmp_path, capsys):
    out = tmp_path / "sc"
    assert run_cli("stats", "--out", out,
                   "--corpus", pipeline / "prep" / "corpus.txt") == 0
    assert "documents=2 sentences=4 words=29" in capsys.readouterr().out
    assert read(out / "stats.txt") == "documents=2\nsentences=4\nwords=29\n"


def test_stats_conll(tmp_path, capsys):
    out = tmp_path / "sd"
    assert run_cli("stats", "--out", out, "--conll", FIXTURES / "tiny.conll") == 0
    assert "sentences=3 tokens=13 annotations=4" in capsys.readouterr().out


def test_stats_requires_exactly_one_source(tmp_path, capsys):
    assert run_cli("stats", "--out", tmp_path / "s0") == 1
    assert "exactly one" in capsys.readouterr().err
    assert run_cli("stats", "--out", tmp_path / "s1",
                   "--corpus", "a", "--conll", "b") == 1
