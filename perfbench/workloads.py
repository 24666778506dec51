"""The three workloads, run through the real `nanoalbert` command path.

Each workload has a prepare step, run once per process outside any timing,
and an iteration: the sequence of commands that is timed, followed by the
output checks. Commands run in this process through `nanoalbert.cli.main`,
one after another (a closed loop with a single caller).
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import sys
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import nanoalbert.cli as cli
from nanoalbert.bpe import load_vocab
from nanoalbert.corpus import read_examples
from nanoalbert.ner import LabelSet, pack_ner_examples, read_conll
from nanoalbert.pretrain import batch_indices

import gen
from layers import WORK_CALLS
from spans import Recorder, patched


@dataclass(frozen=True)
class Shapes:
    # encoder, shared by every workload
    embedding_size: int = 128
    hidden_size: int = 256
    num_layers: int = 6
    num_heads: int = 4
    seq_len: int = 128
    # pretrain and tag inputs
    corpus_words: int = 8000
    lexicon: int = 3000
    model_vocab: int = 600
    pretrain_batch: int = 32
    pretrain_steps: int = 2  # checkpoint at the halfway step, resume from it
    finetune_batch: int = 16
    # fewer steps or no warmup leave some seeds with an entity type unlearned
    finetune_steps: int = 10
    finetune_warmup: int = 3
    finetune_lr: float = 2e-3
    eval_batch: int = 32  # above the training batch, so inference sets peak memory
    ner_train: int = 256
    ner_dev: int = 32
    ner_predict: int = 64
    # vocab inputs
    vocab_words: int = 30000
    vocab_lexicon: int = 10000
    vocab_target: int = 1000


DESK = Shapes()
# Tiny shapes for the smoke check: every command and metric, in seconds.
TINY = replace(
    DESK, embedding_size=16, hidden_size=32, num_layers=2, num_heads=2, seq_len=64,
    corpus_words=1500, lexicon=600, model_vocab=300, pretrain_batch=4,
    finetune_batch=4, finetune_steps=30, eval_batch=8, ner_train=16, ner_dev=4,
    ner_predict=6, vocab_words=2000, vocab_lexicon=800, vocab_target=300,
)


class CommandFailed(Exception):
    pass


def digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def same_bytes(a, b) -> bool:
    return Path(a).read_bytes() == Path(b).read_bytes()


def log_values(path, suffix="loss") -> list[float]:
    """Values of the `step<TAB>metric<TAB>value` lines whose metric ends in suffix."""
    values = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        _, metric, value = line.split("\t")
        if metric.endswith(suffix):
            values.append(float(value))
    return values


def tags_match_words(predictions, words_file) -> bool:
    """One predicted tag per input word, words unchanged, sentences in order."""
    blocks = Path(predictions).read_text(encoding="utf-8").strip("\n").split("\n\n")
    sentences = [line.split() for line in Path(words_file).read_text(encoding="utf-8").splitlines()
                 if line.split()]
    if len(blocks) != len(sentences):
        return False
    for block, words in zip(blocks, sentences):
        rows = [row.split("\t") for row in block.split("\n")]
        if [row[0] for row in rows] != words or any(len(row) != 2 or not row[1] for row in rows):
            return False
    return True


class Run:
    """One workload at one seed: its directories, commands and check tally."""

    def __init__(self, seed: int, shapes: Shapes, work_dir: Path):
        self.seed, self.shapes, self.work = seed, shapes, work_dir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    # -- bookkeeping -------------------------------------------------------

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def check_repeat(self, name: str, value: str) -> None:
        """Every iteration at one seed must give the same digest."""
        if name in self.digests:
            self.check(f"{name} repeats", value == self.digests[name])
        else:
            self.digests[name] = value

    def command(self, rec: Recorder, *argv) -> None:
        argv = [str(a) for a in argv]
        self.attempted += 1
        captured = io.StringIO()
        try:
            with rec.span(f"cli.{argv[0]}"), redirect_stdout(captured), redirect_stderr(captured):
                code = cli.main(argv)
        except Exception:  # a crash is one failed command; the run reports it
            captured.write(traceback.format_exc())
            code = "exception"
        if code != 0:
            self.failed += 1
            self.failures.append(f"command {argv[0]}")
            sys.stderr.write(f"nanoalbert {' '.join(argv)} failed ({code}):\n{captured.getvalue()}")
            raise CommandFailed(argv[0])

    @contextmanager
    def timed(self, rec: Recorder, targets):
        """The timed part of an iteration: commands only, with the wrappers
        installed; output checks run after it, untraced."""
        with patched(rec, targets), rec.span("iteration"):
            yield

    def model_overrides(self, vocab_size: int) -> list[str]:
        s = self.shapes
        return [
            f"vocab_size={vocab_size}", f"embedding_size={s.embedding_size}",
            f"hidden_size={s.hidden_size}", f"num_layers={s.num_layers}",
            f"num_heads={s.num_heads}", f"max_positions={s.seq_len}",
            "dropout_rate=0.0", f"max_seq_length={s.seq_len}",
            f"finetune_max_seq_length={s.seq_len}",
            f"finetune_eval_batch_size={s.eval_batch}",
        ]

    def prepare_corpus_and_vocab(self, rec: Recorder, words: int, lexicon: int,
                                 target: int) -> tuple[Path, Path, int]:
        raw = gen.write_raw_documents(self.work / "raw", self.seed,
                                      num_words=words, lexicon_size=lexicon)
        prep, vocab = self.work / "prep", self.work / "vocab"
        self.command(rec, "prep-corpus", "--out", prep, "--inputs", *raw)
        self.command(rec, "build-vocab", "--out", vocab, "--corpus", prep / "corpus.txt",
                     f"vocab_size={target}")
        size = len((vocab / "vocab.txt").read_text(encoding="utf-8").splitlines())
        return prep / "corpus.txt", vocab, size


def iteration_times(rec: Recorder) -> dict[str, float]:
    """Wall, work and set-up seconds of one recorded iteration."""
    totals = rec.totals()
    commands = sum(t[0] for name, t in totals.items() if name.startswith("cli."))
    work = rec.outermost(WORK_CALLS)
    return {"wall_s": totals["iteration"][0], "work_s": work, "setup_s": commands - work}


class Pretrain(Run):
    """LAMB pretraining with a halfway checkpoint, then a resume from it."""

    def prepare(self, rec: Recorder) -> None:
        s = self.shapes
        self.corpus, self.vocab, vocab_size = self.prepare_corpus_and_vocab(
            rec, s.corpus_words, s.lexicon, s.model_vocab)
        half = s.pretrain_steps // 2
        self.args = [
            "--corpus", self.corpus, "--vocab", self.vocab, "--seed", self.seed,
            *self.model_overrides(vocab_size), "optimizer=lamb",
            f"train_batch_size={s.pretrain_batch}", f"training_steps={s.pretrain_steps}",
            f"warmup_steps={half}", f"save_checkpoint={half}", "dup_factor=1",
        ]
        # steps the two commands train: all of them, then the resumed half
        self.steps_run = list(range(s.pretrain_steps)) + list(range(half, s.pretrain_steps))

    def check_resumed(self, uninterrupted: Path, resumed: Path) -> bool:
        return self.check("resumed checkpoint is byte-identical",
                          same_bytes(uninterrupted, resumed))

    def iteration(self, rec: Recorder, targets, it_dir: Path) -> dict[str, float]:
        out = it_dir / "pt"
        final = out / f"checkpoint-{self.shapes.pretrain_steps:06d}.ckpt"
        uninterrupted = it_dir / "uninterrupted.ckpt"
        with self.timed(rec, targets):
            self.command(rec, "pretrain", "--out", out, *self.args)
            os.replace(final, uninterrupted)  # the final checkpoint is gone ...
            self.command(rec, "pretrain", "--out", out, *self.args)  # ... so this resumes

        self.check_resumed(uninterrupted, final)
        self.check_repeat("final checkpoint", digest(final))
        losses = log_values(out / "train.log")
        self.check("train.log losses are finite", bool(losses) and all(map(math.isfinite, losses)))
        totals = rec.totals()

        examples = read_examples(out / "examples.bin")
        real = [sum(ex.input.attention_mask) for ex in examples]
        tokens = sum(
            real[i]
            for step in self.steps_run
            for i in batch_indices(self.seed, step, len(examples), self.shapes.pretrain_batch)
        )
        return {
            **iteration_times(rec),
            "pretrain_tokens_per_s": tokens / totals["pretrain.train"][0],
            "pretrain_final_loss": log_values(out / "train.log", "total_loss")[-1],
        }


class Tag(Run):
    """Fine-tune a prepared checkpoint, predict held-out sentences, evaluate."""

    def prepare(self, rec: Recorder) -> None:
        s = self.shapes
        corpus, self.vocab, vocab_size = self.prepare_corpus_and_vocab(
            rec, s.corpus_words, s.lexicon, s.model_vocab)
        pretrained = self.work / "pretrained"
        self.command(rec, "pretrain", "--out", pretrained, "--corpus", corpus,
                     "--vocab", self.vocab, "--seed", self.seed,
                     *self.model_overrides(vocab_size), "train_batch_size=4",
                     "training_steps=2", "warmup_steps=1", "save_checkpoint=0", "dup_factor=1")
        self.checkpoint = pretrained / "checkpoint-000002.ckpt"
        self.data = gen.write_tagging_data(
            self.work / "tagging", self.seed, train=s.ner_train, dev=s.ner_dev,
            predict=s.ner_predict, lexicon_size=s.lexicon)
        self.overrides = self.model_overrides(vocab_size)

        # real (non-pad) positions of the training batches finetune consumes
        train, _ = read_conll(self.data["train.conll"])
        dev, _ = read_conll(self.data["dev.conll"])
        labels = LabelSet(label for ex in train + dev for label in ex.labels)
        mask = pack_ner_examples(train, load_vocab(self.vocab / "vocab.txt", self.vocab / "merges.txt"),
                                 labels, s.seq_len)["attention_mask"]
        real = mask.sum(axis=1)
        self.train_tokens = int(sum(
            real[batch_indices(self.seed, step, len(train), s.finetune_batch)].sum()
            for step in range(s.finetune_steps)
        ))
        self.sentences = len(self.data["predict.txt"].read_text(encoding="utf-8").splitlines())

    def iteration(self, rec: Recorder, targets, it_dir: Path) -> dict[str, float]:
        s = self.shapes
        ft, pred, ev = it_dir / "ft", it_dir / "pred", it_dir / "eval"
        with self.timed(rec, targets):
            self.command(
                rec, "finetune", "--out", ft, "--checkpoint", self.checkpoint,
                "--vocab", self.vocab, "--train", self.data["train.conll"],
                "--dev", self.data["dev.conll"], "--seed", self.seed, *self.overrides,
                f"finetune_batch_size={s.finetune_batch}", f"finetune_steps={s.finetune_steps}",
                f"finetune_warmup_steps={s.finetune_warmup}", f"finetune_learning_rate={s.finetune_lr}",
                f"save_checkpoint={s.finetune_steps}",
            )
            self.command(rec, "predict", "--out", pred, "--checkpoint", ft / "best.ckpt",
                         "--vocab", self.vocab, "--input", self.data["predict.txt"],
                         *self.overrides)
            self.command(rec, "evaluate", "--out", ev, "--gold", self.data["predict.conll"],
                         "--pred", pred / "predictions.conll")

        losses = log_values(ft / "train.log")
        self.check("train.log losses are finite", bool(losses) and all(map(math.isfinite, losses)))
        self.check("one tag per input word",
                   tags_match_words(pred / "predictions.conll", self.data["predict.txt"]))
        self.check_repeat("best checkpoint", digest(ft / "best.ckpt"))
        kv = dict(line.split("=", 1) for line in
                  (ev / "metrics.kv").read_text(encoding="utf-8").splitlines())
        totals = rec.totals()
        return {
            **iteration_times(rec),
            "finetune_tokens_per_s": self.train_tokens / totals["ner.finetune"][0],
            "predict_sentences_per_s": self.sentences / totals["cli.predict"][0],
            "tag_f1": float(kv["f1"]),
        }


class Vocab(Run):
    """Corpus cleanup and BPE vocabulary training on raw Zipfian documents."""

    def prepare(self, rec: Recorder) -> None:
        self.raw = gen.write_raw_documents(self.work / "raw", self.seed,
                                           num_words=self.shapes.vocab_words,
                                           lexicon_size=self.shapes.vocab_lexicon)

    def iteration(self, rec: Recorder, targets, it_dir: Path) -> dict[str, float]:
        prep, vocab = it_dir / "prep", it_dir / "vocab"
        with self.timed(rec, targets):
            self.command(rec, "prep-corpus", "--out", prep, "--inputs", *self.raw)
            self.command(rec, "build-vocab", "--out", vocab, "--corpus", prep / "corpus.txt",
                         f"vocab_size={self.shapes.vocab_target}")

        files = (vocab / "vocab.txt", vocab / "merges.txt")
        first = not self.digests
        self.check_repeat("vocabulary", digest(*files))
        if first:  # later repeats are byte-identical, so one round trip covers them
            built = load_vocab(*files)
            lines = (prep / "corpus.txt").read_text(encoding="utf-8").splitlines()
            self.check("vocabulary round-trips the corpus",
                       all(built.decode(built.encode(line)) == line for line in lines))
        return {**iteration_times(rec), "build_vocab_s": rec.totals()["cli.build-vocab"][0]}


WORKLOADS = {"pretrain": Pretrain, "tag": Tag, "vocab": Vocab}
