#!/usr/bin/env bash
# Full pipeline through the command-line interface: raw text -> cleaned
# corpus -> vocabulary -> pretrained checkpoint -> fine-tuned tagger ->
# predictions on new sentences. Everything runs in a throwaway directory
# and takes well under a minute.
#
# Run:  bash demos/cli_pipeline.sh
set -euo pipefail

# without the installed console script, run the package from this checkout
if ! command -v nanoalbert >/dev/null; then
    export PYTHONPATH="$(cd "$(dirname "$0")/../src" && pwd)${PYTHONPATH:+:$PYTHONPATH}"
    nanoalbert() { python3 -m nanoalbert "$@"; }
fi

OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT
mkdir "$OUT/raw"

# each drug name appears a few times so the vocabulary learns to merge it
cat > "$OUT/raw/trial_notes.txt" <<'TXT'
The enrolled patients received heparin infusions overnight.
A nurse recorded the heparin rate at every handover.

Ward protocol moved stable patients from heparin to warfarin.
Doses of warfarin were adjusted against the measured ratios.
TXT

cat > "$OUT/raw/ward_notes.txt" <<'TXT'
Most charts kept aspirin at the previous maintenance dose.
One reaction forced an early switch away from aspirin.

The discharge summary listed insulin twice daily.
Teaching sessions covered insulin injection technique.
TXT

cat > "$OUT/raw/discharge_notes.txt" <<'TXT'
Breakthrough pain was managed with morphine as needed.
The morphine drip was weaned over the final two days.

Counselling about warfarin happened before every discharge.
Assessment noted aspirin and insulin on the home list.
TXT

# drug names must appear at varied positions or the tagger memorizes
# offsets instead of words
python3 - "$OUT/train.conll" "$OUT/dev.conll" <<'PY'
import sys
from nanoalbert.rng import RngStream

drugs = ["heparin", "warfarin", "aspirin", "insulin", "morphine"]
fill = ("the patient was continued on daily dose after review held "
        "overnight stable discharged morning chart").split()
r = RngStream(12)
rows = []
for _ in range(100):
    lines = []
    for _ in range(5 + r.randint(4)):
        if r.coin(0.3):
            lines.append(drugs[r.randint(len(drugs))] + "\tB-Drug")
        else:
            lines.append(fill[r.randint(len(fill))] + "\tO")
    rows.append("\n".join(lines))
open(sys.argv[1], "w").write("\n\n".join(rows[:80]) + "\n")
open(sys.argv[2], "w").write("\n\n".join(rows[80:]) + "\n")
PY

nanoalbert prep-corpus --out "$OUT/prep" --inputs "$OUT/raw"/*.txt

# merging stops once no byte pair repeats, so the vocabulary can come up
# short of the requested size; read back what was actually built
VOCAB_LINE=$(nanoalbert build-vocab --out "$OUT/vocab" \
    --corpus "$OUT/prep/corpus.txt" vocab_size=400)
echo "$VOCAB_LINE"
SIZE="${VOCAB_LINE%% *} embedding_size=16 hidden_size=32 num_layers=2
      num_heads=2 max_positions=48"
nanoalbert pretrain --out "$OUT/pt" \
    --corpus "$OUT/prep/corpus.txt" --vocab "$OUT/vocab" \
    $SIZE max_seq_length=48 dup_factor=8 train_batch_size=16 \
    training_steps=80 warmup_steps=10 save_checkpoint=40 learning_rate=0.005
nanoalbert finetune --out "$OUT/ft" \
    --checkpoint "$OUT/pt/checkpoint-000080.ckpt" --vocab "$OUT/vocab" \
    --train "$OUT/train.conll" --dev "$OUT/dev.conll" --test "$OUT/dev.conll" \
    $SIZE finetune_max_seq_length=48 finetune_steps=400 \
    finetune_batch_size=16 finetune_warmup_steps=40 save_checkpoint=100 \
    finetune_learning_rate=0.001

printf 'the patient was discharged on warfarin\nmorphine was held overnight\n' \
    > "$OUT/new_sentences.txt"
nanoalbert predict --out "$OUT/pred" \
    --checkpoint "$OUT/ft/best.ckpt" --vocab "$OUT/vocab" \
    --input "$OUT/new_sentences.txt" $SIZE finetune_max_seq_length=48

echo
echo "predictions:"
cat "$OUT/pred/predictions.conll"
echo
nanoalbert stats --out "$OUT/stats" --conll "$OUT/train.conll"
