"""Command-line pipeline driver.

Subcommands: prep-corpus, build-vocab, pretrain, finetune, evaluate,
predict, stats. Each runs in rundir.run_dir, which locks its --out directory
and refuses a config other than the one its resumable state was made under,
and finetune wherever there is such state;
every file is written through rundir.write_file.

Heavy imports happen inside the command handlers, so build-vocab, which
needs no numpy, never loads it and starts that much sooner.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .config import format_pairs, model_config_from, parse_config, read_text
from .rundir import EXAMPLES, run_dir, write_file


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


def _model_inputs(cfg, length_key: str, model_config, checkpoint, vocab_dir):
    """The vocabulary in vocab_dir, once cfg's row length `length_key` fits
    the model's max_positions and the vocabulary has its vocab_size pieces.
    model_config comes from `checkpoint`, or from the config when None."""
    from .bpe import load_vocab

    length, positions = getattr(cfg, length_key), model_config.max_positions
    if length > positions:
        where = f"{checkpoint} " if checkpoint else ""
        raise CliError(f"{length_key}={length} exceeds {where}max_positions={positions}")
    path = Path(vocab_dir) / "vocab.txt"
    vocab = load_vocab(path, path.with_name("merges.txt"))
    if vocab.size != model_config.vocab_size:
        raise CliError(f"{path} has {vocab.size} pieces but {checkpoint or 'the config'} "
                       f"has vocab_size={model_config.vocab_size}")
    return vocab


def _write_metrics(out: Path, metrics) -> None:
    from .ner import metrics_keyvalues, metrics_report

    write_file(out / "metrics.txt", metrics_report(metrics))
    write_file(out / "metrics.kv", metrics_keyvalues(metrics))


def _cmd_prep_corpus(args, cfg, out: Path) -> None:
    from .corpus import corpus_stats, preprocess_files

    text = preprocess_files(args.inputs)
    write_file(out / "corpus.txt", text)
    stats = corpus_stats(text)
    print(f"documents={stats.documents} sentences={stats.sentences} words={stats.words}")


def _cmd_build_vocab(args, cfg, out: Path) -> None:
    from .bpe import save_vocab, train_vocab

    text = read_text(args.corpus)
    if not text or text.isspace():
        raise CliError(f"{args.corpus} is an empty corpus")
    vocab = train_vocab(text, cfg.vocab_size)
    save_vocab(vocab, out / "vocab.txt", out / "merges.txt")
    print(f"vocab_size={vocab.size} merges={len(vocab.merges)}")


def _pretrain_examples(args, cfg, out: Path, vocab):
    from .corpus import build_pretrain_examples, read_examples, split_corpus, write_examples
    from .rng import RngStream

    cache = out / EXAMPLES
    if cache.exists():  # run_dir refused it unless the config that made it is this one
        examples = read_examples(cache)
        ids, labels = examples["input"]["token_ids"], examples["mlm_labels"]
        for what, bad in (("a token id", (ids < 0) | (ids >= vocab.size)),
                          ("an MLM label", labels >= vocab.size)):  # read_examples refused < 0
            if bad.any():
                raise CliError(f"{cache}: example {int(bad.any(axis=1).argmax())} has {what} "
                               f"outside the vocabulary [0, {vocab.size})")
        return examples
    docs = split_corpus(read_text(args.corpus))
    examples = build_pretrain_examples(
        docs, vocab, RngStream(cfg.seed).child("examples"), max_len=cfg.max_seq_length,
        mask_rate=cfg.mask_rate, max_predictions=cfg.max_predictions_per_seq,
        dup_factor=cfg.dup_factor)
    write_examples(cache, examples)
    return examples


def _cmd_pretrain(args, cfg, out: Path) -> None:
    from .optim import Schedule, rescaled_peak
    from .pretrain import train

    model_config = model_config_from(cfg)
    vocab = _model_inputs(cfg, "max_seq_length", model_config, None, args.vocab)
    peak = cfg.learning_rate
    if cfg.rescale_learning_rate:
        peak = rescaled_peak(peak)
    # checked before the example cache exists: a cache would block the corrected rerun
    schedule = Schedule(peak, cfg.warmup_steps, cfg.training_steps)
    examples = _pretrain_examples(args, cfg, out, vocab)

    result = train(
        examples, model_config,
        seed=cfg.seed,
        num_steps=cfg.training_steps,
        batch_size=cfg.train_batch_size,
        schedule=schedule,
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
    from .ner import finetune, read_conll

    snapshot = load_checkpoint(args.checkpoint)
    snapshot.optim = None  # fine-tuning starts fresh AdamW moments: free the LAMB ones
    vocab = _model_inputs(cfg, "finetune_max_seq_length", snapshot.config, args.checkpoint,
                          args.vocab)
    train_examples, _ = read_conll(args.train)
    dev_examples, _ = read_conll(args.dev)
    test_examples = read_conll(args.test)[0] if args.test else None

    result = finetune(snapshot, vocab, train_examples, dev_examples, test_examples, cfg,
                      out_dir=out)
    print(f"best_step={result.best_step} dev_f1={result.best_dev_f1:.4f}")
    if result.test_metrics is not None:
        _write_metrics(out, result.test_metrics)
        print(f"test_f1={result.test_metrics.overall.f1:.4f}")


def _cmd_evaluate(args, cfg, out: Path) -> None:
    from .ner import evaluate_entities, read_conll

    gold_examples, _ = read_conll(args.gold)
    pred_examples, _ = read_conll(args.pred, predicted=True)
    try:
        metrics = evaluate_entities(
            [example.labels for example in gold_examples],
            [example.labels for example in pred_examples],
        )
        for n, (gold, pred) in enumerate(zip(gold_examples, pred_examples)):
            for m, (gold_word, pred_word) in enumerate(zip(gold.words, pred.words)):
                if gold_word != pred_word:
                    raise ValueError(f"sentence {n} word {m}: gold {gold_word!r}, "
                                     f"pred {pred_word!r}")
    except ValueError as exc:
        raise CliError(f"--gold {args.gold} and --pred {args.pred} disagree: {exc}") from None
    _write_metrics(out, metrics)
    overall = metrics.overall
    print(f"precision={overall.precision:.4f} recall={overall.recall:.4f} "
          f"f1={overall.f1:.4f}")


def _cmd_predict(args, cfg, out: Path) -> None:
    from .checkpoint import load_checkpoint
    from .ner import LabelSet, NerExample, pack_ner_examples, predict_labels

    snapshot = load_checkpoint(args.checkpoint)
    if snapshot.labels is None:
        raise CliError(f"{args.checkpoint} has no tagging head; fine-tune first")
    try:
        label_set = LabelSet(snapshot.labels)
    except ValueError as exc:
        raise CliError(f"{args.checkpoint}: {exc}") from None
    if list(label_set.labels) != snapshot.labels:  # the ids the head was trained on
        raise CliError(f"{args.checkpoint}: labels {','.join(snapshot.labels)} are not in "
                       f"tag id order {','.join(label_set.labels)}")
    if snapshot.lowercase not in (None, cfg.lowercase):
        have, want = (str(value).lower() for value in (snapshot.lowercase, cfg.lowercase))
        raise CliError(f"{args.checkpoint} was fine-tuned with lowercase={have}, but the "
                       f"config says lowercase={want}")
    vocab = _model_inputs(cfg, "finetune_max_seq_length", snapshot.config, args.checkpoint,
                          args.vocab)

    examples = [NerExample(words=words, labels=["O"] * len(words))
                for words in map(str.split, read_text(args.input).split("\n")) if words]
    if not examples:
        raise CliError(f"{args.input} contains no sentences")

    packed = pack_ner_examples(
        examples, vocab, label_set, cfg.finetune_max_seq_length,
        lowercase=cfg.lowercase,
    )
    predictions = predict_labels(snapshot.params, snapshot.config, label_set, packed)
    blocks = [
        "\n".join(f"{word}\t{label}" for word, label in zip(example.words, labels))
        for example, labels in zip(examples, predictions)
    ]
    write_file(out / "predictions.conll", "\n\n".join(blocks) + "\n")
    print(f"sentences={len(examples)}")


def _cmd_stats(args, cfg, out: Path) -> None:
    if bool(args.corpus) == bool(args.conll):
        raise CliError("pass exactly one of --corpus or --conll")
    if args.corpus:
        from .corpus import corpus_stats

        stats = corpus_stats(read_text(args.corpus))
    else:
        from .ner import dataset_stats

        stats = dataset_stats(args.conll)
    text = format_pairs(dataclasses.asdict(stats).items())
    write_file(out / "stats.txt", text)
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
    try:
        overrides = list(args.overrides)
        if args.seed is not None:
            overrides.append(f"seed={args.seed}")
        cfg = parse_config(args.config, overrides)
        with run_dir(args.out, cfg, fresh=args.command == "finetune") as out:
            _HANDLERS[args.command](args, cfg, out)
        return 0
    except (CliError, ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
