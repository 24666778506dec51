"""Top-level acceptance checks, one test per release gate.

Each test is self-contained pass/fail evidence for one property of the
pipeline: gradient correctness, parameter accounting, learning-rate
rescaling, corpus preprocessing, pretraining and fine-tuning learnability
on synthetic tasks, metric correctness against a brute-force oracle,
bitwise run-to-run determinism, masking/pair statistics, and dataset
bookkeeping. Wall-clock budgets are asserted where a check could silently
become unusably slow. Run with -v for one verdict line per gate; each test
also prints the numbers it measured.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import synthdata
import test_model
import test_ner
from test_ops import quadratic_readout, randn

from nanoalbert import ops
from nanoalbert.bpe import CLS_ID, SEP_ID, MASK_ID, NUM_SPECIALS
from nanoalbert.checkpoint import Checkpoint
from nanoalbert.cli import main as cli_main
from nanoalbert.config import RunConfig
from nanoalbert.corpus import SOP_IN_ORDER, apply_mlm_mask, make_sop_pairs
from nanoalbert.gradcheck import max_grad_error
from nanoalbert.model import ModelConfig, count_parameters, pretrain_loss_and_grads
from nanoalbert.ner import (
    DatasetStats,
    dataset_stats,
    evaluate_entities,
    finetune,
)
from nanoalbert.optim import Schedule, rescaled_peak
from nanoalbert.pretrain import train
from nanoalbert.rng import RngStream

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# 1. every differentiable building block matches finite differences
# ---------------------------------------------------------------------------

def _primitive_checks(seed):
    """One (fn, inputs) pair per differentiable primitive, fresh per seed."""
    r = RngStream(seed)
    x3 = randn(r, 3, 4)
    w, b = randn(r, 4, 5), randn(r, 5)
    ln_x, gain, bias = randn(r, 2, 6), 1.0 + 0.1 * randn(r, 6), 0.1 * randn(r, 6)
    proj = randn(r, 2, 7)
    sm_x = randn(r, 2, 7)
    table = randn(r, 9, 4)
    ids = np.array([[0, 3, 3], [8, 0, 5]])
    logits = randn(r, 4, 6)
    targets = np.array([1, ops.IGNORE_INDEX, 5, 0])

    def linear_fn(inputs):
        y, cache = ops.linear_forward(*inputs)
        loss, d_y = quadratic_readout(y)
        return loss, list(ops.linear_backward(cache, d_y))

    def gelu_fn(inputs):
        y, cache = ops.gelu_forward(inputs[0])
        loss, d_y = quadratic_readout(y)
        return loss, [ops.gelu_backward(cache, d_y)]

    def tanh_fn(inputs):
        y, cache = ops.tanh_forward(inputs[0])
        loss, d_y = quadratic_readout(y)
        return loss, [ops.tanh_backward(cache, d_y)]

    def layer_norm_fn(inputs):
        y, cache = ops.layer_norm_forward(*inputs)
        loss, d_y = quadratic_readout(y)
        return loss, list(ops.layer_norm_backward(cache, d_y))

    def softmax_fn(inputs):
        # fixed linear readout; a quadratic one has a vanishing direction
        p, cache = ops.softmax_forward(inputs[0])
        return float((proj * p).sum()), [ops.softmax_backward(cache, proj)]

    def embedding_fn(inputs):
        y, cache = ops.embedding_forward(inputs[0], ids)
        loss, d_y = quadratic_readout(y)
        return loss, [ops.embedding_backward(cache, d_y)]

    def cross_entropy_fn(inputs):
        loss, grad = ops.softmax_cross_entropy_with_grad(inputs[0], targets)
        return loss, [grad]

    return [
        ("linear", linear_fn, [x3, w, b]),
        ("gelu", gelu_fn, [x3]),
        ("tanh", tanh_fn, [x3]),
        ("layer_norm", layer_norm_fn, [ln_x, gain, bias]),
        ("softmax", softmax_fn, [sm_x]),
        ("embedding", embedding_fn, [table]),
        ("cross_entropy", cross_entropy_fn, [logits]),
    ]


def test_gate_gradients_match_finite_differences():
    started = time.monotonic()
    worst_primitive = 0.0
    for seed in range(20):
        for name, fn, inputs in _primitive_checks(seed):
            err = max_grad_error(fn, inputs)
            assert err < 1e-4, f"{name} seed {seed}: relative error {err:.2e}"
            worst_primitive = max(worst_primitive, err)

    worst_model = 0.0
    for seed in range(20):
        params = test_model.f64_params(test_model.GRAD_CONFIG, seed)
        names = sorted(params)
        batch = test_model.grad_batch(test_model.GRAD_CONFIG, seed)

        def fn(inputs):
            p = dict(zip(names, inputs))
            losses, grads = pretrain_loss_and_grads(p, test_model.GRAD_CONFIG, batch)
            return losses.total, [grads[n] for n in names]

        err = max_grad_error(fn, [params[n] for n in names])
        assert err < 1e-3, f"model seed {seed}: relative error {err:.2e}"
        worst_model = max(worst_model, err)

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"
    print(f"primitives worst {worst_primitive:.2e} (20 seeds, tol 1e-4); "
          f"full loss worst {worst_model:.2e} (20 seeds, tol 1e-3); {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. shared-parameter accounting at production scale
# ---------------------------------------------------------------------------

def test_gate_parameter_count_is_depth_invariant():
    base = ModelConfig(
        vocab_size=30000, embedding_size=128, hidden_size=768, num_layers=12,
        num_heads=12, intermediate_size=3072, max_positions=512,
    )
    n = count_parameters(base)
    assert n == 11_813_810
    assert 11_000_000 <= n <= 12_500_000
    by_depth = {d: count_parameters(replace(base, num_layers=d)) for d in (6, 12, 24)}
    assert set(by_depth.values()) == {n}, by_depth
    print(f"parameters={n:,}; identical at depths 6/12/24")


# ---------------------------------------------------------------------------
# 3. batch-size learning-rate rescaling
# ---------------------------------------------------------------------------

def test_gate_learning_rate_rescaling():
    scaled = rescaled_peak(0.00176)
    assert abs(scaled - 0.00062) < 5e-6
    assert round(scaled, 5) == 0.00062
    assert abs(rescaled_peak(1.0) - 0.353553) < 1e-6
    print(f"rescaled_peak(0.00176)={scaled:.8f} -> rounds to 0.00062")


# ---------------------------------------------------------------------------
# 4. corpus preprocessing reproduces the frozen golden file
# ---------------------------------------------------------------------------

def test_gate_preprocessing_matches_golden_output(tmp_path):
    raw = sorted(str(p) for p in (FIXTURES / "raw").iterdir())
    out = tmp_path / "prep"
    assert cli_main(["prep-corpus", "--out", str(out), "--inputs", *raw]) == 0
    got = (out / "corpus.txt").read_bytes()
    want = (FIXTURES / "corpus.golden.txt").read_bytes()
    assert got == want
    print(f"corpus.txt byte-identical to golden ({len(got)} bytes)")


# ---------------------------------------------------------------------------
# 5. pretraining learns both objectives on the synthetic ordered corpus
# ---------------------------------------------------------------------------

def test_gate_pretraining_learns_synthetic_corpus(tiny_pretrained):
    fx = tiny_pretrained
    init_mlm = fx.init_losses.mlm_loss
    init_sop = fx.init_losses.sop_loss
    # a fresh model should start at chance for both objectives
    assert abs(init_mlm - math.log(200)) < 0.3
    assert abs(init_sop - math.log(2)) < 0.1
    assert fx.final_losses.mlm_loss < 0.7 * init_mlm
    assert fx.heldout_sop >= 0.70
    assert fx.elapsed < 300.0, f"pretraining fixture took {fx.elapsed:.1f}s"
    print(f"mlm {init_mlm:.3f} -> {fx.final_losses.mlm_loss:.3f} "
          f"(need < {0.7 * init_mlm:.3f}); heldout sop acc {fx.heldout_sop:.3f} "
          f"(need >= 0.70); {fx.elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. fine-tuning beats the majority baseline on a gazetteer task
# ---------------------------------------------------------------------------

def test_gate_finetuning_beats_majority_baseline(tiny_pretrained):
    started = time.monotonic()
    fx = tiny_pretrained
    snapshot = Checkpoint(config=fx.config, params=fx.result.params, step=fx.result.step)
    train_ex = synthdata.gazetteer_examples(200, RngStream(31))
    dev_ex = synthdata.gazetteer_examples(60, RngStream(32))
    test_ex = synthdata.gazetteer_examples(60, RngStream(33))

    all_o = [["O"] * len(e.labels) for e in dev_ex]
    baseline = evaluate_entities([e.labels for e in dev_ex], all_o)
    assert baseline.overall.f1 == 0.0  # majority class predicts no entities

    result = finetune(
        snapshot, synthdata.WordVocab(), train_ex, dev_ex, test_ex,
        RunConfig(seed=7, finetune_steps=500, finetune_batch_size=16,
                  finetune_learning_rate=1e-3, finetune_warmup_steps=50, save_checkpoint=100,
                  finetune_max_seq_length=16),
    )
    elapsed = time.monotonic() - started
    assert result.best_dev_f1 >= 0.9, f"best dev F1 {result.best_dev_f1:.4f}"
    assert result.test_metrics.overall.f1 >= 0.9
    assert elapsed < 300.0, f"fine-tune gate took {elapsed:.1f}s"
    print(f"baseline f1 0.0; dev f1 {result.best_dev_f1:.4f} at step "
          f"{result.best_step}; test f1 {result.test_metrics.overall.f1:.4f}; "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. entity metrics agree exactly with a brute-force oracle
# ---------------------------------------------------------------------------

def test_gate_metrics_match_bruteforce_oracle():
    r = RngStream(1234)
    gold_rows, pred_rows = [], []
    for _ in range(1000):
        n = 1 + r.randint(10)
        gold_rows.append([test_ner.LABEL_CHOICES[r.randint(5)] for _ in range(n)])
        pred_rows.append([test_ner.LABEL_CHOICES[r.randint(5)] for _ in range(n)])
    got = evaluate_entities(gold_rows, pred_rows).overall

    tp = gold_total = pred_total = 0
    for g, p in zip(gold_rows, pred_rows):
        gs = test_ner.enumerated_spans(g)
        ps = test_ner.enumerated_spans(p)
        tp += len(gs & ps)
        gold_total += len(gs)
        pred_total += len(ps)
    precision = tp / pred_total if pred_total else 0.0
    recall = tp / gold_total if gold_total else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0

    assert (got.tp, got.gold, got.pred) == (tp, gold_total, pred_total)
    assert (got.precision, got.recall, got.f1) == (precision, recall, f1)

    # worked half-credit example: one of two spans on each side agrees
    half = evaluate_entities([["B", "O", "B"]], [["B", "B", "O"]]).overall
    assert (half.precision, half.recall, half.f1) == (0.5, 0.5, 0.5)
    assert (half.tp, half.gold, half.pred) == (1, 2, 2)
    print(f"1000 random sentence pairs agree exactly: tp={tp} gold={gold_total} "
          f"pred={pred_total} f1={f1:.4f}")


# ---------------------------------------------------------------------------
# 8. identical seeds give byte-identical checkpoints and logs
# ---------------------------------------------------------------------------

def test_gate_runs_are_bitwise_reproducible(tiny_pretrained, tmp_path):
    fx = tiny_pretrained
    schedule = Schedule(peak_lr=0.02, warmup_steps=10, total_steps=100)
    pretrain_blobs = []
    for tag in ("a", "b"):
        d = tmp_path / f"pt_{tag}"
        train(fx.examples, fx.config, seed=11, num_steps=50, batch_size=16,
              schedule=schedule, out_dir=d, checkpoint_every=50)
        pretrain_blobs.append(
            ((d / "checkpoint-000050.ckpt").read_bytes(), (d / "train.log").read_bytes())
        )
    assert pretrain_blobs[0] == pretrain_blobs[1]

    snapshot = Checkpoint(config=fx.config, params=fx.result.params, step=fx.result.step)
    train_ex = synthdata.gazetteer_examples(40, RngStream(41))
    dev_ex = synthdata.gazetteer_examples(16, RngStream(42))
    finetune_blobs = []
    for tag in ("a", "b"):
        d = tmp_path / f"ft_{tag}"
        finetune(
            snapshot, synthdata.WordVocab(), train_ex, dev_ex, None,
            RunConfig(seed=5, finetune_steps=50, finetune_batch_size=8,
                      finetune_learning_rate=1e-3, finetune_warmup_steps=10, save_checkpoint=25,
                      finetune_max_seq_length=16),
            out_dir=d,
        )
        finetune_blobs.append(((d / "best.ckpt").read_bytes(), (d / "train.log").read_bytes()))
    assert finetune_blobs[0] == finetune_blobs[1]
    ckpt_bytes = len(pretrain_blobs[0][0])
    print(f"pretrain and finetune reruns byte-identical "
          f"(checkpoint {ckpt_bytes} bytes, logs compared)")


# ---------------------------------------------------------------------------
# 9. pair/mask sampling hits the documented rates
# ---------------------------------------------------------------------------

def test_gate_sampling_rates():
    vocab = synthdata.WordVocab()
    r = RngStream(77)

    docs = synthdata.ordered_docs(2500, r.child("docs"))
    pairs = make_sop_pairs(docs, r.child("sop"), dup_factor=4)
    assert len(pairs) == 10_000
    in_order = sum(1 for _, _, label in pairs if label == SOP_IN_ORDER)
    order_frac = in_order / len(pairs)
    assert abs(order_frac - 0.5) <= 0.02

    ids_rng = r.child("ids")
    mask_rng = r.child("mask")
    masked = kept = randomized = 0
    for i in range(1700):
        content = [NUM_SPECIALS + ids_rng.randint(vocab.size - NUM_SPECIALS)
                   for _ in range(40)]
        token_ids = [CLS_ID] + content + [SEP_ID]
        positions, labels, new_ids = apply_mlm_mask(token_ids, vocab, mask_rng.child(f"s{i}"))
        assert len(positions) <= 20
        for pos, original in zip(positions, labels):
            new = new_ids[pos]
            if new == MASK_ID:
                masked += 1
            elif new == original:
                kept += 1
            else:
                randomized += 1
    total = masked + kept + randomized
    assert total == 1700 * 6  # floor(0.15 * 40) targets per sequence
    rates = (masked / total, kept / total, randomized / total)
    assert abs(rates[0] - 0.8) <= 0.02
    assert abs(rates[1] - 0.1) <= 0.02
    assert abs(rates[2] - 0.1) <= 0.02

    long_content = [NUM_SPECIALS + ids_rng.randint(vocab.size - NUM_SPECIALS)
                    for _ in range(200)]
    long_ids = [CLS_ID] + long_content + [SEP_ID]
    positions, _, _ = apply_mlm_mask(long_ids, vocab, mask_rng.child("long"))
    assert len(positions) == 20  # cap binds: floor(0.15 * 200) = 30 -> 20
    print(f"in-order fraction {order_frac:.4f}; mask/keep/random "
          f"{rates[0]:.4f}/{rates[1]:.4f}/{rates[2]:.4f}; cap at 20 holds")


# ---------------------------------------------------------------------------
# 10. dataset bookkeeping matches hand counts
# ---------------------------------------------------------------------------

def test_gate_dataset_stats_match_hand_counts():
    """The committed fixture was tallied by hand: 3 sentences, 13 tokens,
    4 entity spans. The same walk over a full public corpus reproduces its
    published totals (e.g. 6,881 disease mentions across the NCBI Disease
    splits), so this small exact check guards the counting rules that the
    large number relies on."""
    stats = dataset_stats(FIXTURES / "tiny.conll")
    assert stats == DatasetStats(sentences=3, tokens=13, annotations=4)
    print(f"tiny.conll: sentences={stats.sentences} tokens={stats.tokens} "
          f"annotations={stats.annotations} (hand-tallied)")
