"""Command-line pipeline: golden outputs, locking, resume, determinism.

Commands run in-process through main(argv). A module-scoped fixture builds
one shared prep-corpus -> build-vocab -> pretrain chain; each test writes its
own fresh --out directory.
"""

import fcntl
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nanoalbert.cli import main

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
    assert not (prep / ".lock").exists()


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
    assert not (out / ".lock").exists()


def test_failure_leaves_incomplete_marker(tmp_path, capsys):
    out = tmp_path / "broken"
    code = run_cli("prep-corpus", "--out", out, "--inputs", tmp_path / "missing.txt")
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert (out / "INCOMPLETE").exists()
    assert not (out / ".lock").exists()  # lock always released


def test_unknown_override_fails_cleanly(tmp_path, capsys):
    # positional overrides must precede --inputs or argparse folds them in
    assert run_cli("prep-corpus", "no_such_key=5", "--out", tmp_path / "x",
                   "--inputs", RAW[0]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_seed_flag_lands_in_effective_config(tmp_path):
    assert run_cli("prep-corpus", "--out", tmp_path / "s", "--inputs", RAW[0],
                   "--seed", "42") == 0
    assert "seed=42" in read(tmp_path / "s" / "effective.cfg")


def test_threads_flag_validated(tmp_path, capsys):
    assert run_cli("prep-corpus", "--out", tmp_path / "t", "--inputs", RAW[0],
                   "--threads", "0") == 1
    assert "--threads" in capsys.readouterr().err


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
    # reconstruct the state a killed run leaves behind: an intermediate
    # checkpoint, a partial log, the INCOMPLETE marker, and its unlocked
    # .lock file
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
    assert not (killed / ".lock").exists()


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
    # checkpoint header can tell a 1-layer run from a 5-layer one
    corpus = pipeline / "prep" / "corpus.txt"
    run = tmp_path / "run"
    shutil.copytree(pipeline / "pt", run)
    (run / "checkpoint-000004.ckpt").unlink()
    log = read(run / "train.log")
    effective = (run / "effective.cfg").read_bytes()
    assert run_cli("pretrain", "--out", run, "--corpus", corpus, "--vocab", pipeline / "vocab",
                   *TINY_OVERRIDES, "num_layers=5", "dropout_rate=0.3") == 1
    assert capsys.readouterr().err == (
        f"error: {run / 'checkpoint-000002.ckpt'} was trained with num_layers=1, "
        "but the config says num_layers=5; cannot resume\n")
    assert not (run / "checkpoint-000004.ckpt").exists()
    assert read(run / "train.log") == log
    assert (run / "effective.cfg").read_bytes() == effective


def test_pretrain_rebuilds_example_cache_after_failed_write(pipeline, tmp_path, monkeypatch, capsys):
    from nanoalbert import corpus as corpus_module

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

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

    corpus = pipeline / "prep" / "corpus.txt"
    out = tmp_path / "pt"
    args = ["pretrain", "--out", out, "--corpus", corpus, "--vocab", pipeline / "vocab",
            *TINY_OVERRIDES]
    monkeypatch.setattr(corpus_module, "open", lambda path, mode: FailingFile(path),
                        raising=False)
    assert run_cli(*args) == 1
    assert "No space left" in capsys.readouterr().err
    assert not (out / "examples.bin").exists()

    monkeypatch.undo()
    assert run_cli(*args) == 0
    for name in ("examples.bin", "checkpoint-000004.ckpt", "train.log"):
        assert (out / name).read_bytes() == (pipeline / "pt" / name).read_bytes(), name


def test_pretrain_refuses_example_cache_of_other_shape(pipeline, tmp_path, capsys):
    # the shared run cached T=24 P=20 records
    corpus = pipeline / "prep" / "corpus.txt"
    for override, message in (("max_seq_length=16", "max_seq_length=24"),
                              ("max_predictions_per_seq=10", "max_predictions_per_seq=20")):
        out = tmp_path / override.split("=")[0]
        out.mkdir()
        shutil.copy(pipeline / "pt" / "examples.bin", out)
        assert run_cli("pretrain", "--out", out, "--corpus", corpus,
                       "--vocab", pipeline / "vocab", *TINY_OVERRIDES, override) == 1
        err = capsys.readouterr().err
        assert str(out / "examples.bin") in err and message in err
        assert len(err.strip().splitlines()) == 1
        assert not list(out.glob("checkpoint-*"))


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


def test_pretrain_refuses_an_unknown_optimizer_before_resuming(pipeline, tmp_path, capsys):
    # one directory a run can resume, one already trained to the last step
    midway = tmp_path / "midway"
    midway.mkdir()
    shutil.copy(pipeline / "pt" / "checkpoint-000002.ckpt", midway)
    finished = shutil.copytree(pipeline / "pt", tmp_path / "finished")
    for out in (midway, finished):
        before = sorted(p.name for p in out.iterdir())
        assert run_cli("pretrain", "--out", out, "--corpus", pipeline / "prep" / "corpus.txt",
                       "--vocab", pipeline / "vocab", *TINY_OVERRIDES, "optimizer=sgd") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: override: invalid value 'sgd' for optimizer "
                                "(expected lamb/adamw)\n")
        assert sorted(p.name for p in out.iterdir()) == before


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


def test_predict_requires_tagging_head(pipeline, tmp_path, capsys):
    source = tmp_path / "input.txt"
    source.write_text("some words\n")
    assert run_cli("predict", "--out", tmp_path / "nope",
                   "--checkpoint", pipeline / "pt" / "checkpoint-000004.ckpt",
                   "--vocab", pipeline / "vocab", "--input", source) == 1
    assert "fine-tune first" in capsys.readouterr().err


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
