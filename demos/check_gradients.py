"""Verify analytic gradients against central finite differences.

Every backward rule in the package is hand-derived, so this script is the
sanity ritual: perturb each input of each primitive, compare the numeric
slope to the analytic one, then do the same through the entire pretraining
loss with a dollhouse-sized model. Relative errors land around 1e-8; the
loop fails loudly above 1e-4 (1e-3 for the composite loss).

Training cuts each step into length-sorted parts of at most half of
model.PART_POSITIONS positions (rows x trimmed length), each trimmed to its
longest row. The last check shrinks that budget so its 8 short rows make
several parts, and compares such a step with one padded pass over the
whole batch, for MLM+SOP pretraining and for NER, in float32: it prints the
part count and the largest loss and gradient differences, and fails above
1e-6 (loss) or 1e-5 of the tensor's scale (gradients).

Run:  python3 demos/check_gradients.py
"""

import numpy as np

from nanoalbert import model, ops
from nanoalbert.corpus import example_dtype
from nanoalbert.gradcheck import max_grad_error
from nanoalbert.model import (
    ModelConfig,
    init_parameters,
    length_parts,
    ner_loss_and_grads,
    pretrain_loss_and_grads,
)
from nanoalbert.ner import example_dtype as ner_example_dtype
from nanoalbert.ner import ner_step
from nanoalbert.pretrain import pretrain_step
from nanoalbert.rng import RngStream


def randn(rng, *shape):
    n = int(np.prod(shape, dtype=int))
    u1, u2 = rng.uniform_block(n), rng.uniform_block(n)
    z = np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)
    return z.reshape(shape)


def sum_of_squares(y):
    return 0.5 * float((y * y).sum()), y  # loss and d_loss/d_y


r = RngStream(2024)
x = randn(r, 3, 5)
w, b = randn(r, 5, 4), randn(r, 4)
gain, bias = 1.0 + 0.1 * randn(r, 5), 0.1 * randn(r, 5)
table, ids = randn(r, 8, 3), np.array([[1, 4, 4], [7, 0, 2]])
logits = randn(r, 4, 6)
targets = np.array([2, ops.IGNORE_INDEX, 5, 0])
proj = randn(r, 3, 5)  # fixed readout for softmax


def linear_case(inputs):
    y, cache = ops.linear_forward(*inputs)
    loss, d_y = sum_of_squares(y)
    return loss, list(ops.linear_backward(cache, d_y))


def gelu_case(inputs):
    y, cache = ops.gelu_forward(inputs[0])
    loss, d_y = sum_of_squares(y)
    return loss, [ops.gelu_backward(cache, d_y)]


def layer_norm_case(inputs):
    y, cache = ops.layer_norm_forward(*inputs)
    loss, d_y = sum_of_squares(y)
    return loss, list(ops.layer_norm_backward(cache, d_y))


def softmax_case(inputs):
    p, cache = ops.softmax_forward(inputs[0])
    return float((proj * p).sum()), [ops.softmax_backward(cache, proj)]


def embedding_case(inputs):
    y, cache = ops.embedding_forward(inputs[0], ids)
    loss, d_y = sum_of_squares(y)
    return loss, [ops.embedding_backward(cache, d_y)]


def cross_entropy_case(inputs):
    loss, grad = ops.softmax_cross_entropy_with_grad(inputs[0], targets)
    return loss, [grad]


CASES = [
    ("linear", linear_case, [x, w, b]),
    ("gelu", gelu_case, [x]),
    ("layer_norm", layer_norm_case, [x, gain, bias]),
    ("softmax", softmax_case, [x]),
    ("embedding", embedding_case, [table]),
    ("cross_entropy", cross_entropy_case, [logits]),
]

print("primitive ops (tolerance 1e-4):")
for name, fn, inputs in CASES:
    err = max_grad_error(fn, inputs)
    verdict = "ok" if err < 1e-4 else "FAIL"
    print(f"  {name:<14} max relative error {err:.2e}  {verdict}")
    assert err < 1e-4, name

config = ModelConfig(vocab_size=40, embedding_size=6, hidden_size=8,
                     num_layers=2, num_heads=2, intermediate_size=16,
                     max_positions=12)
params = {k: v.astype(np.float64)
          for k, v in init_parameters(config, RngStream(5).child("init")).items()}
names = sorted(params)

br = RngStream(5)
batch = {
    "token_ids": np.array([[2] + [5 + br.randint(35) for _ in range(9)]
                           for _ in range(2)], dtype=np.int32),
    "type_ids": np.array([[0] * 5 + [1] * 5] * 2, dtype=np.int32),
    "attention_mask": np.array([[1] * 10, [1] * 8 + [0, 0]], dtype=np.int32),
    "mlm_rows": np.array([1, 6, 13], dtype=np.int64),
    "mlm_labels": np.array([7, 22, 9], dtype=np.int64),
    "sop_labels": np.array([0, 1], dtype=np.int64),
}


def whole_model(inputs):
    p = dict(zip(names, inputs))
    losses, grads = pretrain_loss_and_grads(p, config, batch)
    return losses.total, [grads[n] for n in names]


err = max_grad_error(whole_model, [params[n] for n in names])
n_floats = sum(p.size for p in params.values())
print(f"full pretraining loss over {n_floats} parameters: "
      f"max relative error {err:.2e}  {'ok' if err < 1e-3 else 'FAIL'}")
assert err < 1e-3


# length-sorted, trimmed parts against one padded pass
config = ModelConfig(vocab_size=40, embedding_size=6, hidden_size=8,
                     num_layers=2, num_heads=2, intermediate_size=16,
                     max_positions=24)
sr = RngStream(6)
lengths = [6 + sr.randint(12) for _ in range(8)]  # every row shorter than T=24

records = np.zeros(len(lengths), example_dtype(24, 3))
tagged = np.zeros(len(lengths), ner_example_dtype(24))
tagged["label_ids"] = ops.IGNORE_INDEX
for row, rec, tag in zip(lengths, records, tagged):
    ids = [2] + [5 + sr.randint(35) for _ in range(row - 2)] + [3]
    for inputs in (rec["input"], tag):
        inputs["token_ids"][:row] = ids
        inputs["attention_mask"][:row] = 1
    rec["input"]["type_ids"][row // 2:row] = 1
    rec["mlm_positions"] = sorted(sr.sample(row - 2, 3))
    rec["mlm_positions"] += 1
    rec["mlm_labels"] = [5 + sr.randint(35) for _ in range(3)]
    rec["sop_label"] = sr.randint(2)
    tag["label_ids"][1:row - 1] = [sr.randint(3) for _ in range(row - 2)]

inputs = records["input"]
t = inputs["token_ids"].shape[1]
padded_batch = {
    "token_ids": inputs["token_ids"],
    "type_ids": inputs["type_ids"],
    "attention_mask": inputs["attention_mask"],
    "mlm_rows": (np.arange(len(records))[:, None] * t + records["mlm_positions"]).ravel(),
    "mlm_labels": records["mlm_labels"].ravel().astype(np.int64),
    "sop_labels": records["sop_label"].astype(np.int64),
}
# at the default budget these 8 rows of at most 17 positions make 2 parts, one per lane
model.PART_POSITIONS = 48
parts = len(length_parts(tagged["attention_mask"]))
assert parts >= 2, parts
pretrain_params = init_parameters(config, RngStream(6).child("init"))
split_losses, split_grads = pretrain_step(pretrain_params, config, records)
padded_losses, padded_grads = pretrain_loss_and_grads(pretrain_params, config, padded_batch)

ner_params = init_parameters(config, RngStream(7).child("init"), heads=("ner",), num_labels=3)
ner_padded = ner_loss_and_grads(ner_params, config, tagged["token_ids"], tagged["type_ids"],
                                tagged["attention_mask"], tagged["label_ids"])

print(f"{parts} trimmed parts vs one padded pass "
      "(float32; tolerance 1e-6 loss, 1e-5 gradient):")
for name, (loss, grads), (want_loss, want_grads) in (
    ("mlm+sop", (split_losses.total, split_grads), (padded_losses.total, padded_grads)),
    ("ner", ner_step(ner_params, config, tagged), ner_padded),
):
    loss_diff = abs(loss - want_loss)
    # the key bias gradient is zero up to round-off (softmax ignores a
    # per-row shift), so it is measured against the key weight gradient
    grad_diff = max(
        float(np.abs(grads[n] - want).max()
              / np.abs(want_grads["block_key_weight" if n == "block_key_bias" else n]).max())
        for n, want in want_grads.items()
    )
    beyond = float(np.abs(grads["position_embedding"][max(lengths):]).max())
    ok = loss_diff < 1e-6 and grad_diff < 1e-5 and beyond == 0.0
    print(f"  {name:<8} loss diff {loss_diff:.2e}  worst gradient diff {grad_diff:.2e} of "
          f"scale  position gradient past the longest row {beyond:.1e}  "
          f"{'ok' if ok else 'FAIL'}")
    assert ok, name
