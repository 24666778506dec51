"""Pretrain a pocket-sized encoder on an in-memory corpus.

Builds a byte-level BPE vocabulary from a dozen short documents, packs
masked sentence pairs, runs a few hundred optimizer steps, and prints the
before/after losses for both objectives. Everything is seeded, so the
numbers printed here are the numbers you will get.

Run:  python3 demos/pretrain_tiny.py
"""

import tempfile
import time
from pathlib import Path

from nanoalbert.bpe import train_vocab
from nanoalbert.corpus import build_pretrain_examples
from nanoalbert.model import ModelConfig
from nanoalbert.optim import Schedule
from nanoalbert.pretrain import evaluate_pretrain, sop_accuracy, train
from nanoalbert.rng import RngStream

# Each document is a list of sentences; order within a document is the
# sentence-order signal the model has to pick up.
DOCS = [
    ["the assay began with a buffered substrate solution",
     "enzyme was added and the mixture turned cloudy",
     "activity fell sharply after the tenth minute"],
    ["patients received the tablet form twice daily",
     "plasma levels peaked within ninety minutes",
     "no adverse reactions were recorded that week"],
    ["the culture plates were incubated overnight",
     "colonies appeared along the streak lines",
     "resistant strains grew inside the inhibition zone"],
    ["tissue samples were fixed and sectioned thinly",
     "staining revealed dense clusters of marked cells",
     "the margins of the lesion remained sharply defined"],
    ["the trial enrolled adults with chronic symptoms",
     "half the cohort received the active compound",
     "follow-up visits continued for six months"],
    ["protein folding depends on the local solvent",
     "misfolded chains aggregate into insoluble fibrils",
     "chaperones rescue a fraction of the aggregates"],
]

STEPS = 600
BATCH = 16

corpus_text = "\n".join(s for doc in DOCS for s in doc)
vocab = train_vocab(corpus_text, 320)
print(f"vocabulary: {vocab.size} pieces, {len(vocab.merges)} merges")

root = RngStream(0)
examples = build_pretrain_examples(
    DOCS, vocab, root.child("examples"), max_len=48, dup_factor=8,
)
print(f"examples: {len(examples)} masked sentence pairs")

config = ModelConfig(
    vocab_size=vocab.size, embedding_size=16, hidden_size=32,
    num_layers=2, num_heads=2, max_positions=48,
)

started = time.perf_counter()
with tempfile.TemporaryDirectory() as run_dir:
    # the run directory gets train.log ("step<TAB>metric<TAB>value" lines)
    # and the final checkpoint
    result = train(
        examples, config, seed=0, num_steps=STEPS, batch_size=BATCH,
        schedule=Schedule(peak_lr=0.02, warmup_steps=30, total_steps=STEPS),
        out_dir=run_dir,
    )
    log = (Path(run_dir) / "train.log").read_text(encoding="utf-8")
elapsed = time.perf_counter() - started

milestones = []
for line in log.splitlines():
    step, key, value = line.split("\t")
    if key == "total_loss" and int(step) % 100 == 0:
        milestones.append(f"  step {step:>3}  total {value}")

final = evaluate_pretrain(result.params, config, examples)
acc = sop_accuracy(result.params, config, examples)

print("loss trajectory:")
print("\n".join(milestones))
print(f"final: mlm {final.mlm_loss:.4f}  sop {final.sop_loss:.4f}  "
      f"order accuracy {acc:.3f}  ({elapsed:.1f}s, {STEPS} steps)")
