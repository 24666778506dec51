"""Fine-tune a token tagger on a synthetic drug-mention task.

Sentences mix six drug names into clinical filler text; every drug word is
a one-word entity. The encoder starts from random weights — the lexical
cue is strong enough that a few hundred steps reach F1 > 0.95 — and the
script ends by tagging a sentence the model has never seen.

Run:  python3 demos/finetune_tagger.py
"""

import tempfile
import time

from nanoalbert.bpe import train_vocab
from nanoalbert.checkpoint import Checkpoint
from nanoalbert.config import RunConfig
from nanoalbert.model import ModelConfig, init_parameters
from nanoalbert.ner import (
    NerExample,
    finetune,
    metrics_report,
    pack_ner_examples,
    predict_labels,
)
from nanoalbert.rng import RngStream

DRUGS = ["aspirin", "ibuprofen", "heparin", "warfarin", "insulin", "morphine"]
CONTEXT = ("the patient received daily dose of oral tablet after surgery was "
           "given with discharged on continued low high therapy started "
           "stopped due to bleeding risk noted chart review morning evening").split()


def make_sentences(count, rng):
    out = []
    for _ in range(count):
        words, labels = [], []
        for _ in range(5 + rng.randint(4)):
            if rng.coin(0.3):
                words.append(DRUGS[rng.randint(len(DRUGS))])
                labels.append("B-Drug")
            else:
                words.append(CONTEXT[rng.randint(len(CONTEXT))])
                labels.append("O")
        out.append(NerExample(words=words, labels=labels))
    return out


r = RngStream(1)
train_ex = make_sentences(120, r.child("train"))
dev_ex = make_sentences(40, r.child("dev"))
test_ex = make_sentences(40, r.child("test"))
print(f"data: {len(train_ex)} train / {len(dev_ex)} dev / {len(test_ex)} test sentences")

vocab = train_vocab("\n".join(" ".join(e.words) for e in train_ex), 300)
config = ModelConfig(vocab_size=vocab.size, embedding_size=16, hidden_size=32,
                     num_layers=2, num_heads=2, max_positions=48)
snapshot = Checkpoint(config=config,
                      params=init_parameters(config, RngStream(1).child("init")))

started = time.perf_counter()
cfg = RunConfig(seed=1, finetune_steps=300, finetune_batch_size=16, finetune_learning_rate=1e-3,
                finetune_warmup_steps=30, save_checkpoint=75, finetune_max_seq_length=48)
with tempfile.TemporaryDirectory() as run_dir:
    # the run directory gets train.log and best.ckpt, the best-dev snapshot
    result = finetune(snapshot, vocab, train_ex, dev_ex, test_ex, cfg, run_dir)
elapsed = time.perf_counter() - started

for step, f1 in result.history:
    print(f"  step {step:>3}  dev f1 {f1:.4f}")
print(f"best step {result.best_step} ({elapsed:.1f}s)")
print()
print(metrics_report(result.test_metrics))

# tag a sentence that appears in no split
sample = NerExample(
    words="the patient was discharged on warfarin and aspirin".split(),
    labels=["O"] * 8,
)
packed = pack_ner_examples([sample], vocab, result.label_set, max_len=48)
tags = predict_labels(result.params, result.config, result.label_set, packed)[0]
print("sample:", " ".join(f"{w}/{t}" for w, t in zip(sample.words, tags)))
