"""Where each traced layer is looked up, and the per-layer metrics derived
from the spans and counters of one traced workload iteration."""

from __future__ import annotations

import os

import nanoalbert.bpe as bpe
import nanoalbert.checkpoint as checkpoint
import nanoalbert.corpus as corpus
import nanoalbert.ner as ner
import nanoalbert.ops as ops
import nanoalbert.pretrain as pretrain

from spans import Recorder

OPS = [
    f"{kind}_{direction}"
    for kind in ("gelu", "linear", "layer_norm", "softmax", "embedding", "tanh")
    for direction in ("forward", "backward")
] + ["softmax_cross_entropy_with_grad"]

# Top-level work call of each command; set-up is command time outside them.
WORK_CALLS = ("pretrain.train", "ner.finetune", "ner.predict_labels", "bpe.train_vocab")

CLI_COMMANDS = ("prep-corpus", "build-vocab", "pretrain", "finetune", "predict", "evaluate")


def _count_flops(rec, args, result):
    x, w = args[0], args[1]
    rec.counters["ops.linear_forward.flops"] += 2 * (x.size // x.shape[-1]) * w.shape[0] * w.shape[1]


def _count_positions(mask):
    def count(rec, args, result):
        attention_mask = mask(args)
        rec.counters["model.positions"] += attention_mask.size
        rec.counters["model.real_positions"] += int(attention_mask.sum())
    return count


def _count_checkpoint_bytes(rec, args, result):
    rec.counters["checkpoint.save_checkpoint.bytes"] += os.path.getsize(args[0])


def _count_examples_bytes(rec, args, result):
    rec.counters["corpus.examples_bytes"] += os.path.getsize(args[0])


def _count_merges(rec, args, result):
    rec.counters["bpe.merges"] += len(result.merges)


def _encode_counter():
    seen = set()

    def count(rec, args, result):
        seen.add(args[1])
        rec.counters["bpe.encode_distinct"] = len(seen)
    return count


def work_targets():
    """Spans needed by every run: the top-level work calls."""
    return [
        ("pretrain.train", [(pretrain, "train")], None),
        ("ner.finetune", [(ner, "finetune")], None),
        ("ner.predict_labels", [(ner, "predict_labels")], None),
        ("bpe.train_vocab", [(bpe, "train_vocab")], _count_merges),
    ]


def trace_targets():
    """Every traced function, patched where its callers look it up."""
    targets = [
        (f"ops.{name}", [(ops, name)], _count_flops if name == "linear_forward" else None)
        for name in OPS
    ]
    targets += [
        ("model.pretrain_loss_and_grads", [(pretrain, "pretrain_loss_and_grads")],
         _count_positions(lambda args: args[2]["attention_mask"])),
        ("model.ner_loss_and_grads", [(ner, "ner_loss_and_grads")],
         _count_positions(lambda args: args[4])),
        ("model.token_logits", [(ner, "token_logits")],
         _count_positions(lambda args: args[4])),
        ("model.pack_pretrain_batch", [(pretrain, "pack_pretrain_batch")], None),
        ("optim.lamb_step", [(pretrain, "lamb_step")], None),
        ("optim.adamw_step", [(pretrain, "adamw_step"), (ner, "adamw_step")], None),
        ("pretrain.batch_indices", [(pretrain, "batch_indices"), (ner, "batch_indices")], None),
        ("checkpoint.save_checkpoint",
         [(checkpoint, "save_checkpoint"), (pretrain, "save_checkpoint"),
          (ner, "save_checkpoint")], _count_checkpoint_bytes),
        ("checkpoint.load_checkpoint", [(checkpoint, "load_checkpoint")], None),
        ("corpus.preprocess_files", [(corpus, "preprocess_files")], None),
        ("corpus.build_pretrain_examples", [(corpus, "build_pretrain_examples")], None),
        ("corpus.write_examples", [(corpus, "write_examples")], _count_examples_bytes),
        ("corpus.read_examples", [(corpus, "read_examples")], _count_examples_bytes),
        ("bpe.Vocab.encode", [(bpe.Vocab, "encode")], _encode_counter()),
        ("bpe.load_vocab", [(bpe, "load_vocab")], None),
        ("ner.read_conll", [(ner, "read_conll")], None),
        ("ner.pack_ner_examples", [(ner, "pack_ner_examples")], None),
        ("ner.evaluate_split", [(ner, "evaluate_split")], None),
        ("ner.evaluate_entities", [(ner, "evaluate_entities")], None),
    ]
    return work_targets() + targets


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metric values of one traced iteration; 0 where a layer did
    not run in this workload."""
    totals = rec.totals()

    def total(name, field):
        return totals.get(name, (0.0, 0.0, 0))[field]

    values: dict[str, float] = {}
    for name in OPS:
        values[f"ops.{name}.s"] = total(f"ops.{name}", 0)
        values[f"ops.{name}.calls"] = total(f"ops.{name}", 2)
    for name in ("pretrain_loss_and_grads", "ner_loss_and_grads", "token_logits"):
        values[f"model.{name}.s"] = total(f"model.{name}", 0)
        values[f"model.{name}.self_s"] = total(f"model.{name}", 1)
    values["model.pack_pretrain_batch.s"] = total("model.pack_pretrain_batch", 0)
    for name in ("lamb_step", "adamw_step"):
        values[f"optim.{name}.s"] = total(f"optim.{name}", 0)
        values[f"optim.{name}.calls"] = total(f"optim.{name}", 2)
    values["pretrain.train.self_s"] = total("pretrain.train", 1)
    values["pretrain.batch_indices.s"] = total("pretrain.batch_indices", 0)
    for name in ("save_checkpoint", "load_checkpoint"):
        values[f"checkpoint.{name}.s"] = total(f"checkpoint.{name}", 0)
        values[f"checkpoint.{name}.calls"] = total(f"checkpoint.{name}", 2)
    for name in ("preprocess_files", "build_pretrain_examples", "write_examples", "read_examples"):
        values[f"corpus.{name}.s"] = total(f"corpus.{name}", 0)
    values["bpe.train_vocab.s"] = total("bpe.train_vocab", 0)
    values["bpe.Vocab.encode.s"] = total("bpe.Vocab.encode", 0)
    values["bpe.Vocab.encode.calls"] = total("bpe.Vocab.encode", 2)
    values["bpe.load_vocab.s"] = total("bpe.load_vocab", 0)
    for name in ("read_conll", "pack_ner_examples", "evaluate_split", "evaluate_entities"):
        values[f"ner.{name}.s"] = total(f"ner.{name}", 0)
    for name in ("finetune", "predict_labels"):
        values[f"ner.{name}.self_s"] = total(f"ner.{name}", 1)
    for command in CLI_COMMANDS:
        values[f"cli.{command}.self_s"] = total(f"cli.{command}", 1)

    c = rec.counters
    values["ops.linear_forward.flops"] = c["ops.linear_forward.flops"]
    values["model.positions"] = c["model.positions"]
    values["model.real_token_fraction"] = (
        c["model.real_positions"] / c["model.positions"] if c["model.positions"] else 0.0
    )
    values["checkpoint.save_checkpoint.bytes"] = c["checkpoint.save_checkpoint.bytes"]
    values["corpus.examples_bytes"] = c["corpus.examples_bytes"]
    values["bpe.merges"] = c["bpe.merges"]
    calls = values["bpe.Vocab.encode.calls"]
    values["bpe.encode_distinct_ratio"] = c["bpe.encode_distinct"] / calls if calls else 0.0
    return values


def self_time_by_layer(rec: Recorder) -> dict[str, float]:
    """Module name -> summed self time of its spans."""
    out: dict[str, float] = {}
    for name, (_, self_s, _) in rec.totals().items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + self_s
    return out
