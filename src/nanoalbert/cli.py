"""Command-line pipeline driver.

Subcommands: prep-corpus, build-vocab, pretrain, finetune, evaluate,
predict, stats. Every command writes only under its --out directory, which
is guarded by an flock on its .lock file (one run at a time; the lock dies
with its process) and an INCOMPLETE marker that is removed on success — if
a run dies, the marker stays behind.

Heavy imports happen inside the command handlers so that --threads can pin
BLAS/OpenMP thread counts via environment variables before numpy loads.
"""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import ConfigError, effective_text, format_pairs, model_config_from, parse_config


class CliError(Exception):
    """User-facing one-line failure."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanoalbert",
        description="Pretrain, fine-tune, and evaluate a small shared-block "
                    "transformer for masked-LM + sentence-order pretraining "
                    "and BIO-tag entity recognition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--out", required=True, help="output directory (created)")
        p.add_argument("--seed", type=int, help="override the seed key")
        p.add_argument("--threads", type=int,
                       help="BLAS/OpenMP thread count (set before numpy loads)")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="config overrides, highest precedence")
        return p

    p = add("prep-corpus", "clean raw text into sentence-per-line corpus form")
    p.add_argument("--inputs", nargs="+", required=True,
                   help="raw UTF-8 text files, one document per file")

    p = add("build-vocab", "train the byte-pair vocabulary")
    p.add_argument("--corpus", required=True, help="prepared corpus file")

    p = add("pretrain", "run masked-LM + sentence-order pretraining")
    p.add_argument("--corpus", required=True, help="prepared corpus file")
    p.add_argument("--vocab", required=True,
                   help="directory holding vocab.txt and merges.txt")

    p = add("finetune", "fine-tune a pretrained checkpoint for tagging")
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    p.add_argument("--vocab", required=True,
                   help="directory holding vocab.txt and merges.txt")
    p.add_argument("--train", required=True, help="CoNLL training file")
    p.add_argument("--dev", required=True, help="CoNLL development file")
    p.add_argument("--test", help="CoNLL test file")

    p = add("evaluate", "entity-level P/R/F1 of predictions against gold")
    p.add_argument("--gold", required=True, help="CoNLL gold file")
    p.add_argument("--pred", required=True, help="CoNLL predictions file")

    p = add("predict", "tag plain text with a fine-tuned checkpoint")
    p.add_argument("--checkpoint", required=True, help="fine-tuned checkpoint")
    p.add_argument("--vocab", required=True,
                   help="directory holding vocab.txt and merges.txt")
    p.add_argument("--input", required=True,
                   help="text file, one sentence per line, words space-separated")

    p = add("stats", "corpus or dataset statistics")
    p.add_argument("--corpus", help="prepared corpus file")
    p.add_argument("--conll", help="CoNLL dataset file")
    return parser


def _lock(lock: Path) -> int:
    """Open and flock the lock file; a killed run's lock is released with
    its process, so only a live run blocks."""
    while True:
        fd = os.open(lock, os.O_CREAT | os.O_WRONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise CliError(f"output directory {lock.parent} is in use by another run "
                           f"(it holds {lock})") from None
        # a finishing run unlinks the file before unlocking it: retry unless
        # the path still names the inode we locked
        try:
            if os.path.samestat(os.fstat(fd), os.stat(lock)):
                break
        except FileNotFoundError:
            pass
        os.close(fd)
    os.ftruncate(fd, 0)
    os.write(fd, f"{os.getpid()}\n".encode())
    return fd


@contextmanager
def _run_dir(out, config_text: str):
    """Lock the output directory and manage INCOMPLETE. effective.cfg is
    written up front only where there is none (a refused rerun keeps the
    old one) and again on success."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / ".lock"
    fd = _lock(lock)
    marker = out / "INCOMPLETE"
    effective = out / "effective.cfg"
    try:
        marker.write_text("run started; this marker is removed on success\n")
        if not effective.exists():
            effective.write_text(config_text)
        yield out
        effective.write_text(config_text)
        marker.unlink()
    finally:
        lock.unlink(missing_ok=True)
        os.close(fd)


def _load_vocab_dir(vocab_dir, vocab_size: int, expected_by):
    """The vocabulary in vocab_dir, refused unless it has the vocab_size
    pieces that `expected_by` (the config, or a checkpoint path) asks for."""
    from .bpe import load_vocab

    path = Path(vocab_dir) / "vocab.txt"
    vocab = load_vocab(path, path.with_name("merges.txt"))
    if vocab.size != vocab_size:
        raise CliError(f"{path} has {vocab.size} pieces but {expected_by} "
                       f"has vocab_size={vocab_size}")
    return vocab


def _cmd_prep_corpus(args, cfg, out: Path) -> None:
    from .corpus import corpus_stats, preprocess_files

    text = preprocess_files(args.inputs)
    (out / "corpus.txt").write_text(text, encoding="utf-8")
    stats = corpus_stats(text)
    print(f"documents={stats.documents} sentences={stats.sentences} words={stats.words}")


def _cmd_build_vocab(args, cfg, out: Path) -> None:
    from .bpe import save_vocab, train_vocab

    text = Path(args.corpus).read_text(encoding="utf-8")
    vocab = train_vocab(text, cfg.vocab_size)
    save_vocab(vocab, out / "vocab.txt", out / "merges.txt")
    print(f"vocab_size={vocab.size} merges={len(vocab.merges)}")


def _pretrain_examples(args, cfg, out: Path, vocab):
    from .corpus import build_pretrain_examples, read_examples, split_corpus, write_examples
    from .rng import RngStream

    cache = out / "examples.bin"
    if cache.exists():
        examples = read_examples(cache)
        have = (examples.dtype["input"]["token_ids"].shape[0],
                examples.dtype["mlm_positions"].shape[0])
        want = (cfg.max_seq_length, cfg.max_predictions_per_seq)
        if have != want:
            raise CliError(
                f"{cache} holds examples for max_seq_length={have[0]} max_predictions_per_seq="
                f"{have[1]}, but the config says {want[0]} and {want[1]}; delete it to rebuild"
            )
        return examples
    text = Path(args.corpus).read_text(encoding="utf-8")
    docs = split_corpus(text)
    examples = build_pretrain_examples(
        docs, vocab, RngStream(cfg.seed).child("examples"),
        max_len=cfg.max_seq_length,
        mask_rate=cfg.mask_rate,
        max_predictions=cfg.max_predictions_per_seq,
        dup_factor=cfg.dup_factor,
    )
    write_examples(cache, examples)
    return examples


def _cmd_pretrain(args, cfg, out: Path) -> None:
    from .optim import Schedule, rescaled_peak
    from .pretrain import train

    model_config = model_config_from(cfg)
    if cfg.max_seq_length > model_config.max_positions:
        raise CliError(f"max_seq_length={cfg.max_seq_length} exceeds "
                       f"max_positions={model_config.max_positions}")
    vocab = _load_vocab_dir(args.vocab, model_config.vocab_size, "the config")
    examples = _pretrain_examples(args, cfg, out, vocab)

    peak = cfg.learning_rate
    if cfg.rescale_learning_rate:
        peak = rescaled_peak(peak)
    result = train(
        examples, model_config,
        seed=cfg.seed,
        num_steps=cfg.training_steps,
        batch_size=cfg.train_batch_size,
        schedule=Schedule(peak, cfg.warmup_steps, cfg.training_steps),
        optimizer=cfg.optimizer,
        weight_decay=cfg.weight_decay,
        out_dir=out,
        checkpoint_every=cfg.save_checkpoint,
    )
    last = result.last
    if last is None:
        print(f"already trained to step {result.step}; nothing to do")
        return
    print(f"steps={result.step} mlm_loss={last.mlm_loss:.6f} sop_loss={last.sop_loss:.6f}")


def _cmd_finetune(args, cfg, out: Path) -> None:
    from .checkpoint import load_checkpoint
    from .ner import finetune, metrics_keyvalues, metrics_report, read_conll

    snapshot = load_checkpoint(args.checkpoint)
    if cfg.finetune_max_seq_length > snapshot.config.max_positions:
        raise CliError(f"finetune_max_seq_length={cfg.finetune_max_seq_length} exceeds "
                       f"{args.checkpoint} max_positions={snapshot.config.max_positions}")
    vocab = _load_vocab_dir(args.vocab, snapshot.config.vocab_size, args.checkpoint)
    train_examples, _ = read_conll(args.train)
    dev_examples, _ = read_conll(args.dev)
    test_examples = read_conll(args.test)[0] if args.test else None

    result = finetune(snapshot, vocab, train_examples, dev_examples, test_examples, cfg,
                      out_dir=out)
    print(f"best_step={result.best_step} dev_f1={result.best_dev_f1:.4f}")
    if result.test_metrics is not None:
        (out / "metrics.txt").write_text(metrics_report(result.test_metrics))
        (out / "metrics.kv").write_text(metrics_keyvalues(result.test_metrics))
        print(f"test_f1={result.test_metrics.overall.f1:.4f}")


def _cmd_evaluate(args, cfg, out: Path) -> None:
    from .ner import evaluate_entities, metrics_keyvalues, metrics_report, read_conll

    gold_examples, _ = read_conll(args.gold)
    pred_examples, _ = read_conll(args.pred, predicted=True)
    metrics = evaluate_entities(
        [example.labels for example in gold_examples],
        [example.labels for example in pred_examples],
    )
    (out / "metrics.txt").write_text(metrics_report(metrics))
    (out / "metrics.kv").write_text(metrics_keyvalues(metrics))
    overall = metrics.overall
    print(f"precision={overall.precision:.4f} recall={overall.recall:.4f} "
          f"f1={overall.f1:.4f}")


def _cmd_predict(args, cfg, out: Path) -> None:
    from .checkpoint import load_checkpoint
    from .ner import LabelSet, NerExample, pack_ner_examples, predict_labels

    snapshot = load_checkpoint(args.checkpoint)
    if snapshot.labels is None or "ner_weight" not in snapshot.params:
        raise CliError("checkpoint has no tagging head; fine-tune first")
    label_set = LabelSet(snapshot.labels)
    vocab = _load_vocab_dir(args.vocab, snapshot.config.vocab_size, args.checkpoint)

    examples = []
    with open(args.input, encoding="utf-8") as fh:
        for line in fh:
            words = line.split()
            if words:
                examples.append(NerExample(words=words, labels=["O"] * len(words)))
    if not examples:
        raise CliError(f"{args.input} contains no sentences")

    packed = pack_ner_examples(
        examples, vocab, label_set, cfg.finetune_max_seq_length,
        lowercase=cfg.lowercase,
    )
    predictions = predict_labels(
        snapshot.params, snapshot.config, label_set, packed,
        cfg.finetune_eval_batch_size,
    )
    blocks = [
        "\n".join(f"{word}\t{label}" for word, label in zip(example.words, labels))
        for example, labels in zip(examples, predictions)
    ]
    (out / "predictions.conll").write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    print(f"sentences={len(examples)}")


def _cmd_stats(args, cfg, out: Path) -> None:
    if bool(args.corpus) == bool(args.conll):
        raise CliError("pass exactly one of --corpus or --conll")
    if args.corpus:
        from .corpus import corpus_stats

        stats = corpus_stats(Path(args.corpus).read_text(encoding="utf-8"))
    else:
        from .ner import dataset_stats

        stats = dataset_stats(args.conll)
    text = format_pairs(dataclasses.asdict(stats).items())
    (out / "stats.txt").write_text(text)
    print(" ".join(text.splitlines()))


_HANDLERS = {
    "prep-corpus": _cmd_prep_corpus,
    "build-vocab": _cmd_build_vocab,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        if args.threads < 1:
            print("error: --threads must be >= 1", file=sys.stderr)
            return 1
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    try:
        overrides = list(args.overrides)
        if args.seed is not None:
            overrides.append(f"seed={args.seed}")
        cfg = parse_config(args.config, overrides)
        with _run_dir(args.out, effective_text(cfg)) as out:
            _HANDLERS[args.command](args, cfg, out)
        return 0
    except (CliError, ConfigError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
