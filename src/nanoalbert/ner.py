"""Named-entity fine-tuning and entity-level evaluation.

Covers the full tagging path: CoNLL-style file ingestion, word-to-subword
label alignment (first piece carries the word's label, the rest are ignored
by the loss), AdamW fine-tuning with periodic dev evaluation and best-model
selection, BIO span decoding with lenient orphan-"I" repair, and exact-match
precision/recall/F1 micro-averaged over decoded spans.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ops
from .bpe import CLS_ID, SEP_ID, Vocab
from .checkpoint import Checkpoint, save_checkpoint
from .config import RunConfig, format_pairs
from .model import (
    ModelConfig,
    length_parts,
    ner_loss_and_grads,
    token_logits,
    truncated_normal,
)
from .optim import OptimizerState, Schedule, adamw_step
from .pretrain import batch_indices  # unused here; perfbench traces it at ner.batch_indices
from .pretrain import fit, open_log
from .rng import RngStream


class ConllError(ValueError):
    """Malformed CoNLL input; message carries file and line number."""


@dataclass
class NerExample:
    words: list[str]
    labels: list[str]

    def __post_init__(self):
        if len(self.words) != len(self.labels):
            raise ValueError("words and labels must have equal length")


@dataclass(frozen=True)
class EntitySpan:
    start: int  # word index, inclusive
    end: int    # word index, exclusive
    type: str = ""

    def __post_init__(self):
        if not 0 <= self.start < self.end:
            raise ValueError("need 0 <= start < end")


def _parse_label(label: str) -> tuple[str, str]:
    """Split "B-Chem" -> ("B", "Chem"); bare "B"/"I" -> empty type."""
    if label == "O":
        return "O", ""
    head, dash, entity_type = label.partition("-")
    if head in ("B", "I") and (not dash or entity_type):
        return head, entity_type
    raise ValueError(f"unrecognized label {label!r}")


class LabelSet:
    """Contiguous label ids with "O" fixed at id 0, the rest sorted."""

    def __init__(self, labels):
        # first-seen order, so an orphan "I-" error names the first orphan
        observed = dict.fromkeys(labels)
        observed.setdefault("O")
        for label in observed:
            head, entity_type = _parse_label(label)
            if head == "I":
                required = f"B-{entity_type}" if entity_type else "B"
                if required not in observed:
                    raise ValueError(f"label {label!r} has no matching B label")
        self.labels = ("O",) + tuple(sorted(observed.keys() - {"O"}))
        self._ids = {label: i for i, label in enumerate(self.labels)}

    def id_of(self, label: str) -> int:
        return self._ids[label]

    def label_of(self, label_id: int) -> str:
        return self.labels[label_id]

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelSet) and self.labels == other.labels

    def __repr__(self) -> str:
        return f"LabelSet({list(self.labels)!r})"


def read_conll(path, *, predicted=False) -> tuple[list[NerExample], LabelSet | None]:
    """Parse token-per-line files: first column is the word, last the label,
    blank lines separate sentences, -DOCSTART- lines are skipped.

    Gold and training files must give every "I-X" a "B-X". A file of
    predicted tags (predicted=True) may hold an orphan "I-X", which an
    undertrained tagger emits and decode_spans repairs; no LabelSet is built
    for it, so the second item is None."""
    path = Path(path)
    examples: list[NerExample] = []
    words: list[str] = []
    labels: list[str] = []
    first_line_of: dict[str, int] = {}

    def flush():
        if words:
            examples.append(NerExample(words=list(words), labels=list(labels)))
            words.clear()
            labels.clear()

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped:
                flush()
                continue
            if stripped.startswith("-DOCSTART-"):
                continue
            columns = stripped.split()
            if len(columns) < 2:
                raise ConllError(f"{path}:{lineno}: missing label column")
            word, label = columns[0], columns[-1]
            try:
                _parse_label(label)
            except ValueError as exc:
                raise ConllError(f"{path}:{lineno}: {exc}")
            first_line_of.setdefault(label, lineno)
            words.append(word)
            labels.append(label)
    flush()
    if predicted:
        return examples, None

    try:
        label_set = LabelSet(first_line_of)
    except ValueError as exc:
        bad = next(
            (lab for lab in sorted(first_line_of) if str(exc).startswith(f"label {lab!r}")),
            None,
        )
        where = f":{first_line_of[bad]}" if bad else ""
        raise ConllError(f"{path}{where}: {exc}")
    return examples, label_set


# ---------------------------------------------------------------------------
# subword alignment
# ---------------------------------------------------------------------------

ROW_FIELDS = ("token_ids", "type_ids", "attention_mask", "label_ids")


def example_dtype(max_len: int) -> np.dtype:
    """Record layout of one tagged sentence: the model input row of length
    max_len, per-position label ids (IGNORE_INDEX off word-initial pieces),
    and the sentence's word count, truncated words included."""
    return np.dtype([(name, "<i4", (max_len,)) for name in ROW_FIELDS] + [("words", "<i4")])


def align_subwords(
    example: NerExample,
    vocab: Vocab,
    label_set: LabelSet,
    max_len: int,
    lowercase: bool = False,
) -> tuple[list[int], list[int]]:
    """Encode words to pieces and label only each word's first piece.

    Returns the unpadded token ids of [CLS] pieces [SEP] and their label
    ids, where continuation pieces, [CLS] and [SEP] carry the ignored id.
    Over-length sentences keep whole leading words only, so a sentence whose
    first word alone does not fit keeps none and becomes [CLS] [SEP].
    """
    if not example.words:
        raise ValueError("example has no words")
    budget = max_len - 2  # [CLS] ... [SEP]
    if budget < 1:
        raise ValueError("max_len leaves no room for content")

    token_ids = [CLS_ID]
    label_ids = [ops.IGNORE_INDEX]
    used = 0
    for word, label in zip(example.words, example.labels):
        text = word.lower() if lowercase else word
        pieces = vocab.encode(text)
        if not pieces:
            raise ValueError(f"word {word!r} produced no tokens")
        if used + len(pieces) > budget:
            break
        token_ids.extend(pieces)
        label_ids.append(label_set.id_of(label))
        label_ids.extend([ops.IGNORE_INDEX] * (len(pieces) - 1))
        used += len(pieces)
    token_ids.append(SEP_ID)
    label_ids.append(ops.IGNORE_INDEX)
    return token_ids, label_ids


def pack_ner_examples(examples, vocab, label_set, max_len, lowercase=False) -> np.ndarray:
    """Align a whole split into one record (example_dtype) per sentence;
    each row fills its leading positions and the zeros after them are
    padding."""
    packed = np.zeros(len(examples), example_dtype(max_len))
    packed["label_ids"] = ops.IGNORE_INDEX
    for row, example in zip(packed, examples):
        token_ids, label_ids = align_subwords(example, vocab, label_set, max_len, lowercase)
        n = len(token_ids)
        row["token_ids"][:n] = token_ids
        row["attention_mask"][:n] = 1
        row["label_ids"][:n] = label_ids
        row["words"] = len(example.words)
    return packed


# ---------------------------------------------------------------------------
# spans and metrics
# ---------------------------------------------------------------------------

def decode_spans(labels) -> set[EntitySpan]:
    """Maximal B(,I..) runs of one type; an orphan "I" (after O, at the
    start, or after a different type) opens a new span."""
    labels = list(labels)
    spans: set[EntitySpan] = set()
    start = None
    current_type = ""
    for i, label in enumerate(labels):
        head, entity_type = _parse_label(label)
        if head == "O":
            if start is not None:
                spans.add(EntitySpan(start, i, current_type))
                start = None
        elif head == "B" or start is None or entity_type != current_type:
            if start is not None:
                spans.add(EntitySpan(start, i, current_type))
            start = i
            current_type = entity_type
    if start is not None:
        spans.add(EntitySpan(start, len(labels), current_type))
    return spans


def spans_to_bio(spans, length: int) -> list[str]:
    """Inverse of decode_spans for non-overlapping spans."""
    labels = ["O"] * length
    for span in sorted(spans, key=lambda s: s.start):
        if span.end > length:
            raise ValueError(f"span {span} exceeds sentence length {length}")
        for i in range(span.start, span.end):
            if labels[i] != "O":
                raise ValueError("overlapping spans")
        suffix = f"-{span.type}" if span.type else ""
        labels[span.start] = "B" + suffix
        for i in range(span.start + 1, span.end):
            labels[i] = "I" + suffix
    return labels


@dataclass
class MetricTriple:
    precision: float
    recall: float
    f1: float
    tp: int
    gold: int
    pred: int


@dataclass
class EntityMetrics:
    overall: MetricTriple
    per_type: dict[str, MetricTriple]


def _triple(tp: int, gold: int, pred: int) -> MetricTriple:
    precision = tp / pred if pred else 0.0
    recall = tp / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricTriple(precision, recall, f1, tp, gold, pred)


def evaluate_entities(gold, pred) -> EntityMetrics:
    """Exact-match span scoring, micro-averaged; inputs are parallel lists of
    per-sentence label sequences."""
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} sentences, pred has {len(pred)}")
    counts: dict[str, list[int]] = {}  # type -> [tp, gold, pred]
    for i, (g, p) in enumerate(zip(gold, pred)):
        if len(g) != len(p):
            raise ValueError(
                f"sentence {i}: gold length {len(g)} != pred length {len(p)}"
            )
        gold_spans = decode_spans(g)
        pred_spans = decode_spans(p)
        matched = gold_spans & pred_spans
        for span in gold_spans:
            counts.setdefault(span.type, [0, 0, 0])[1] += 1
        for span in pred_spans:
            counts.setdefault(span.type, [0, 0, 0])[2] += 1
        for span in matched:
            counts[span.type][0] += 1
    tp = sum(c[0] for c in counts.values())
    gold_n = sum(c[1] for c in counts.values())
    pred_n = sum(c[2] for c in counts.values())
    per_type = {t: _triple(*counts[t]) for t in sorted(counts)}
    return EntityMetrics(overall=_triple(tp, gold_n, pred_n), per_type=per_type)


def metrics_report(metrics: EntityMetrics) -> str:
    """Human-readable table; all scores micro-averaged over spans."""
    lines = [
        "entity-level exact match (micro-averaged)",
        f"{'':12s} {'precision':>9s} {'recall':>9s} {'f1':>9s} {'gold':>6s} {'pred':>6s}",
    ]

    def row(name, t):
        return (f"{name:12s} {t.precision:9.4f} {t.recall:9.4f} {t.f1:9.4f} "
                f"{t.gold:6d} {t.pred:6d}")

    lines.append(row("overall", metrics.overall))
    for entity_type, triple in metrics.per_type.items():
        lines.append(row(entity_type or "(untyped)", triple))
    return "\n".join(lines) + "\n"


def metrics_keyvalues(metrics: EntityMetrics) -> str:
    """Machine-readable key=value lines with 4-decimal values."""
    overall = metrics.overall
    pairs = [("precision", f"{overall.precision:.4f}"), ("recall", f"{overall.recall:.4f}"),
             ("f1", f"{overall.f1:.4f}"), ("averaging", "micro")]
    for entity_type, triple in metrics.per_type.items():
        for field in ("precision", "recall", "f1"):
            pairs.append((f"type.{entity_type}.{field}", f"{getattr(triple, field):.4f}"))
    return format_pairs(pairs)


# ---------------------------------------------------------------------------
# prediction and fine-tuning
# ---------------------------------------------------------------------------

def predict_labels(params, config, label_set, packed, batch_size=16) -> list[list[str]]:
    """Argmax tags at word-initial positions, one tag per word of each
    sentence, in input order; words truncated away during alignment are
    tagged "O". Sentences run in the length-sorted, trimmed parts of
    length_parts, at most batch_size to a part."""
    out: list[list[str]] = [[] for _ in range(len(packed))]
    for rows, t in length_parts(packed["attention_mask"], batch_size):
        token_ids, type_ids, mask, label_ids = (packed[name][rows, :t] for name in ROW_FIELDS)
        logits = token_logits(params, config, token_ids, type_ids, mask)
        for i, labels, scores in zip(rows, label_ids, logits):
            best = scores[labels != ops.IGNORE_INDEX].argmax(axis=1)
            tags = [label_set.label_of(int(b)) for b in best]
            out[i] = tags + ["O"] * (int(packed["words"][i]) - len(tags))
    return out


def ner_step(params, config, batch, dropout_rng=None):
    """Loss and gradients of one fine-tuning step over tagged-sentence
    records: the mean over their labelled words, run as the length-sorted,
    trimmed parts of length_parts, whose losses and gradients add up to the
    step's; dropout masks are drawn part by part."""
    count = int((batch["label_ids"] != ops.IGNORE_INDEX).sum())
    loss, grads = 0.0, {}
    for rows, t in length_parts(batch["attention_mask"]):
        part_loss, _ = ner_loss_and_grads(
            params, config, *(batch[name][rows, :t] for name in ROW_FIELDS),
            dropout_rng=dropout_rng, count=count, grads=grads,
        )
        loss += part_loss
    return loss, grads


def evaluate_split(params, config, label_set, packed, examples,
                   batch_size=16) -> EntityMetrics:
    """Predictions vs gold; words truncated away during alignment count as
    unpredicted ("O")."""
    preds = predict_labels(params, config, label_set, packed, batch_size)
    return evaluate_entities([example.labels for example in examples], preds)


@dataclass
class FinetuneResult:
    params: dict
    config: ModelConfig
    label_set: LabelSet
    best_step: int
    best_dev_f1: float
    history: list[tuple[int, float]]
    test_metrics: EntityMetrics | None


def finetune(
    pretrained: Checkpoint,
    vocab: Vocab,
    train_examples,
    dev_examples,
    test_examples,
    cfg: RunConfig,
    out_dir=None,
) -> FinetuneResult:
    """AdamW fine-tuning with cfg's finetune_* values, seed, weight_decay and
    lowercase; dev F1 every save_checkpoint steps and at the last step (0:
    last step only). The best-dev parameter snapshot is kept and scored on
    test_examples (None: no test split). With an out_dir, train.log gets
    each step's lines, started afresh, and best.ckpt the snapshot. The
    pretrained checkpoint is never modified."""
    if vocab.size != pretrained.config.vocab_size:
        raise ValueError(
            f"vocabulary size {vocab.size} does not match checkpoint "
            f"vocab_size {pretrained.config.vocab_size}"
        )
    if not train_examples or not dev_examples:
        raise ValueError("need nonempty train and dev example lists")
    config = pretrained.config
    label_set = LabelSet(
        label
        for split in (train_examples, dev_examples, test_examples or [])
        for example in split
        for label in example.labels
    )

    # fresh head on top of copied encoder weights; mlm/sop/pooler are dropped
    params = {
        name: arr.copy()
        for name, arr in pretrained.params.items()
        if not name.startswith(("mlm_", "sop_", "pooler_"))
    }
    head_rng = RngStream(cfg.seed).child("ner-init")
    dtype = params["token_embedding"].dtype
    params["ner_weight"] = truncated_normal(
        head_rng, (config.hidden_size, len(label_set)), 0.02, dtype=dtype
    )
    params["ner_bias"] = np.zeros(len(label_set), dtype=dtype)

    max_len, lowercase = cfg.finetune_max_seq_length, cfg.lowercase
    train_packed = pack_ner_examples(train_examples, vocab, label_set, max_len, lowercase)
    dev_packed = pack_ner_examples(dev_examples, vocab, label_set, max_len, lowercase)

    state = OptimizerState.for_params(params)
    history: list[tuple[int, float]] = []
    best_f1 = -1.0
    best_step = 0
    best_params = {name: arr.copy() for name, arr in params.items()}

    def loss_fn(idx, dropout_rng):
        batch = train_packed[idx]
        if (batch["label_ids"] == ops.IGNORE_INDEX).all():
            numbers = ", ".join(str(i + 1) for i in sorted(set(idx)))
            raise ValueError(
                f"training sentences {numbers} keep no word within "
                f"finetune_max_seq_length={max_len}, so the batch has no label to learn"
            )
        return ner_step(params, config, batch, dropout_rng=dropout_rng)

    def evaluate_dev(done):
        nonlocal best_f1, best_step, best_params
        f1 = evaluate_split(
            params, config, label_set, dev_packed, dev_examples, cfg.finetune_eval_batch_size
        ).overall.f1
        history.append((done, f1))
        if log is not None:
            print(f"{done}\tdev_f1\t{f1:.4f}", file=log)
        if f1 > best_f1:
            best_f1 = f1
            best_step = done
            best_params = {name: arr.copy() for name, arr in params.items()}

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    # fine-tuning has no resume: a rerun starts over, and so does its log
    with nullcontext() if out_dir is None else open_log(out_dir / "train.log", 0) as log:
        fit(loss_fn, params, state, step_fn=adamw_step,
            schedule=Schedule(cfg.finetune_learning_rate, cfg.finetune_warmup_steps,
                              cfg.finetune_steps),
            seed=cfg.seed, num_examples=len(train_examples),
            batch_size=cfg.finetune_batch_size, num_steps=cfg.finetune_steps,
            weight_decay=cfg.weight_decay, dropout=config.dropout_rate > 0,
            log=log, log_lines=lambda loss, lr: (f"ner_loss\t{loss:.6f}",),
            hook=evaluate_dev, every=cfg.save_checkpoint)

    test_metrics = None
    if test_examples:
        test_packed = pack_ner_examples(test_examples, vocab, label_set, max_len, lowercase)
        test_metrics = evaluate_split(
            best_params, config, label_set, test_packed, test_examples,
            cfg.finetune_eval_batch_size,
        )
    if out_dir is not None:
        save_checkpoint(out_dir / "best.ckpt", config, best_params,
                        step=best_step, labels=list(label_set.labels))
    return FinetuneResult(
        params=best_params,
        config=config,
        label_set=label_set,
        best_step=best_step,
        best_dev_f1=best_f1,
        history=history,
        test_metrics=test_metrics,
    )


@dataclass
class DatasetStats:
    sentences: int
    tokens: int
    annotations: int


def dataset_stats(path) -> DatasetStats:
    """Sentence/token counts plus gold span count (the annotation total)."""
    examples, _ = read_conll(path)
    return DatasetStats(
        sentences=len(examples),
        tokens=sum(len(example.words) for example in examples),
        annotations=sum(len(decode_spans(example.labels)) for example in examples),
    )
