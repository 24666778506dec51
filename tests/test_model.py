"""Encoder wiring: parameter accounting, init, forward invariants, gradients.

The 5070-parameter oracle for the small config (V=100, E=8, H=16, A=2, L=3,
I=64, P=32) was added up by hand:

  embeddings 800+256+16, embed norm 16, projection 144   -> 1232
  block: qkv 816, attn out 272, attn norm 32,
         ffn 1088+1040, ffn norm 32                      -> 3280
  sop head 272+34, mlm head 136+16+100                   ->  558
                                                   total    5070

The production-shape config (V=30000, E=128, H=768, L=12, A=12, I=3072,
P=512) comes to 11,813,810 by the same accounting.
"""

import tracemalloc

import numpy as np
import pytest

import synthdata
from nanoalbert import ops
from nanoalbert.corpus import build_pretrain_examples, read_examples, write_examples
from nanoalbert.gradcheck import max_grad_error
from nanoalbert.model import (
    NEG_INF,
    ModelConfig,
    _block_backward,
    _block_forward,
    PretrainLosses,
    block_shapes,
    count_parameters,
    encode_forward,
    init_parameters,
    length_parts,
    ner_loss_and_grads,
    pack_pretrain_batch,
    parameter_shapes,
    pretrain_loss,
    pretrain_loss_and_grads,
    sop_logits,
    token_logits,
    truncated_normal,
)
from nanoalbert.ner import LabelSet, NerExample, ner_step, pack_ner_examples
from nanoalbert.pretrain import pretrain_step
from nanoalbert.rng import RngStream

TINY = ModelConfig(
    vocab_size=100, embedding_size=8, hidden_size=16, num_layers=3,
    num_heads=2, intermediate_size=64, max_positions=32,
)
BASE = ModelConfig(
    vocab_size=30000, embedding_size=128, hidden_size=768, num_layers=12,
    num_heads=12, intermediate_size=3072, max_positions=512,
)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, embedding_size=4, hidden_size=10, num_layers=1, num_heads=3)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, embedding_size=32, hidden_size=16, num_layers=1, num_heads=2)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, embedding_size=4, hidden_size=8, num_layers=-1, num_heads=2)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, embedding_size=4, hidden_size=8, num_layers=1, num_heads=2,
                    dropout_rate=1.0)


def test_intermediate_size_defaults_to_4h():
    cfg = ModelConfig(vocab_size=10, embedding_size=4, hidden_size=8, num_layers=1, num_heads=2)
    assert cfg.intermediate_size == 32
    assert TINY.intermediate_size == 64  # explicit value wins


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def test_small_config_count_is_5070():
    assert count_parameters(TINY) == 5070


def test_base_config_count_is_11813810():
    n = count_parameters(BASE)
    assert n == 11_813_810
    assert 11_000_000 <= n <= 12_500_000


def test_shared_count_ignores_depth():
    for layers in (2, 6, 24):
        cfg = ModelConfig(
            vocab_size=100, embedding_size=8, hidden_size=16, num_layers=layers,
            num_heads=2, intermediate_size=64, max_positions=32,
        )
        assert count_parameters(cfg) == 5070


def test_factorized_embeddings_beat_direct_lookup():
    shapes = parameter_shapes(BASE)
    lookup = sum(
        int(np.prod(shapes[k]))
        for k in ("token_embedding", "position_embedding", "type_embedding")
    )
    projection = sum(
        int(np.prod(shapes[k]))
        for k in ("embedding_projection_weight", "embedding_projection_bias")
    )
    assert lookup == 3_905_792   # 30000*128 + 512*128 + 2*128
    assert projection == 99_072  # 128*768 + 768
    # an unfactorized V x H table alone would dwarf both
    assert lookup + projection < 30000 * 768 == 23_040_000


def test_ner_head_shapes_need_num_labels():
    shapes = parameter_shapes(TINY, heads=("ner",), num_labels=3)
    assert shapes["ner_weight"] == (16, 3)
    assert shapes["ner_bias"] == (3,)
    with pytest.raises(ValueError, match="num_labels"):
        parameter_shapes(TINY, heads=("ner",))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_is_deterministic():
    a = init_parameters(TINY, RngStream(5))
    b = init_parameters(TINY, RngStream(5))
    assert sorted(a) == sorted(b)
    for name in a:
        assert np.array_equal(a[name], b[name]), name
        assert a[name].dtype == np.float32


def test_init_gains_ones_biases_zero_weights_clipped():
    params = init_parameters(TINY, RngStream(6))
    assert np.all(params["embedding_norm_gain"] == 1.0)
    assert np.all(params["block_ffn_norm_gain"] == 1.0)
    assert np.all(params["block_query_bias"] == 0.0)
    assert np.all(params["mlm_output_bias"] == 0.0)
    for name, value in params.items():
        if not (name.endswith("_gain") or name.endswith("_bias")):
            assert np.abs(value).max() <= 0.04 + 1e-6, name  # 2 sigma * 0.02


def test_truncated_normal_moments():
    # clipping at 2 sigma shrinks the sd by sqrt(1 - 4 phi(2)/(2 Phi(2) - 1))
    # = 0.8796, so sd = 0.0175925 for sigma = 0.02
    draws = truncated_normal(RngStream(12), (240_000,), 0.02).astype(np.float64)
    assert abs(draws.mean()) < 2e-4
    assert abs(draws.std() - 0.0175925) < 4e-4
    assert np.abs(draws).max() <= 0.04


def test_truncated_normal_consumes_one_word_per_element():
    r = RngStream(9)
    truncated_normal(r, (7, 3), 0.02)
    assert r.position == 21


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_model():
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(0).child("init"))
    return config, params


def batch_for(config, rng, batch=2, seq=8):
    ids = np.array(
        [[2] + [5 + rng.randint(config.vocab_size - 5) for _ in range(seq - 2)] + [3]
         for _ in range(batch)],
        dtype=np.int32,
    )
    types = np.zeros_like(ids)
    mask = np.ones_like(ids)
    return ids, types, mask


def test_encode_shape_and_dtype(tiny_model):
    config, params = tiny_model
    ids, types, mask = batch_for(config, RngStream(1))
    hidden = encode_forward(params, config, ids, types, mask)
    assert hidden.shape == (2, 8, config.hidden_size)
    assert hidden.dtype == np.float32


def test_encode_rejects_bad_inputs(tiny_model):
    config, params = tiny_model
    ids, types, mask = batch_for(config, RngStream(2), seq=8)
    with pytest.raises(ValueError, match="max_positions"):
        long_ids = np.tile(ids, (1, 3))  # 24 > 16
        encode_forward(params, config, long_ids, np.zeros_like(long_ids), np.ones_like(long_ids))
    with pytest.raises(ValueError, match="vocabulary"):
        encode_forward(params, config, ids + config.vocab_size, types, mask)
    with pytest.raises(ValueError, match="mask"):
        encode_forward(params, config, ids, types, mask[:, :4])


def test_trailing_pad_does_not_change_content_positions(tiny_model):
    config, params = tiny_model
    content = [2, 9, 10, 11, 3]
    short = np.array([content + [0]], dtype=np.int32)
    longer = np.array([content + [0, 0]], dtype=np.int32)
    mask_s = np.array([[1, 1, 1, 1, 1, 0]], dtype=np.int32)
    mask_l = np.array([[1, 1, 1, 1, 1, 0, 0]], dtype=np.int32)
    h_short = encode_forward(params, config, short, np.zeros_like(short), mask_s)
    h_long = encode_forward(params, config, longer, np.zeros_like(longer), mask_l)
    assert np.allclose(h_short[0, :5], h_long[0, :5], atol=1e-5)


def test_pad_content_is_ignored_entirely(tiny_model):
    config, params = tiny_model
    ids_a = np.array([[2, 9, 10, 3, 0, 0]], dtype=np.int32)
    ids_b = np.array([[2, 9, 10, 3, 77, 154]], dtype=np.int32)  # junk under the mask
    mask = np.array([[1, 1, 1, 1, 0, 0]], dtype=np.int32)
    h_a = encode_forward(params, config, ids_a, np.zeros_like(ids_a), mask)
    h_b = encode_forward(params, config, ids_b, np.zeros_like(ids_b), mask)
    assert np.allclose(h_a[0, :4], h_b[0, :4], atol=1e-6)


def test_batch_permutation_equivariance(tiny_model):
    config, params = tiny_model
    ids, types, mask = batch_for(config, RngStream(3), batch=3)
    perm = [2, 0, 1]
    h = encode_forward(params, config, ids, types, mask)
    h_perm = encode_forward(params, config, ids[perm], types[perm], mask[perm])
    assert np.allclose(h_perm, h[perm], atol=1e-6)


def test_depth_changes_output(tiny_model):
    config, params = tiny_model
    ids, types, mask = batch_for(config, RngStream(4))
    shallow = ModelConfig(
        vocab_size=config.vocab_size, embedding_size=config.embedding_size,
        hidden_size=config.hidden_size, num_layers=1, num_heads=config.num_heads,
        max_positions=config.max_positions,
    )
    h2 = encode_forward(params, config, ids, types, mask)
    h1 = encode_forward(params, shallow, ids, types, mask)
    assert not np.allclose(h1, h2, atol=1e-3)


def test_dropout_paths(tiny_model):
    config, params = tiny_model
    dropped_cfg = synthdata.tiny_config(dropout_rate=0.3)
    ids, types, mask = batch_for(config, RngStream(5))
    clean = encode_forward(params, config, ids, types, mask)

    noisy1 = encode_forward(params, dropped_cfg, ids, types, mask, dropout_rng=RngStream(70))
    noisy2 = encode_forward(params, dropped_cfg, ids, types, mask, dropout_rng=RngStream(70))
    assert np.array_equal(noisy1, noisy2)  # same stream, same masks
    assert not np.allclose(noisy1, clean, atol=1e-4)

    # keeping the backward caches changes no bit of the forward
    caches = []
    kept = encode_forward(params, dropped_cfg, ids, types, mask,
                          dropout_rng=RngStream(70), caches=caches)
    assert np.array_equal(kept, noisy1)
    assert len(caches) == dropped_cfg.num_layers + 1
    caches = []
    assert np.array_equal(encode_forward(params, config, ids, types, mask, caches=caches), clean)
    assert len(caches) == config.num_layers + 1

    # without a dropout stream the configured rate is ignored
    eval_out = encode_forward(params, dropped_cfg, ids, types, mask)
    assert np.array_equal(eval_out, clean)


# ---------------------------------------------------------------------------
# heads and losses
# ---------------------------------------------------------------------------

def test_pretrain_losses_near_theoretical_start():
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(21).child("init"))
    examples = synthdata.ordered_examples(40, RngStream(21))
    losses = pretrain_loss(params, config, pack_pretrain_batch(examples))
    assert abs(losses.mlm_loss - np.log(config.vocab_size)) < 0.3
    assert abs(losses.sop_loss - np.log(2.0)) < 0.1
    assert losses.total == losses.mlm_loss + losses.sop_loss
    # the cache-free inference pass gives the training pass's losses exactly
    trained, _ = pretrain_loss_and_grads(params, config, pack_pretrain_batch(examples))
    assert trained == losses


def test_pretrain_losses_total_is_derived():
    losses = PretrainLosses(mlm_loss=1.25, sop_loss=0.5)
    assert losses.total == 1.75


def test_pack_pretrain_batch_layout():
    examples = synthdata.ordered_examples(3, RngStream(31), dup_factor=1)
    batch = pack_pretrain_batch(examples)
    t = batch["token_ids"].shape[1]
    assert batch["token_ids"].dtype == np.int32
    assert batch["mlm_rows"].dtype == np.int64
    used = examples.mlm_labels != ops.IGNORE_INDEX
    want_rows = [
        b * t + pos
        for b, ex in enumerate(examples)
        for pos in ex.mlm_positions[used[b]].tolist()
    ]
    assert batch["mlm_rows"].tolist() == want_rows
    assert batch["sop_labels"].tolist() == examples.sop_label.tolist()


def _reference_pack(examples, trim=True):
    """The per-example packing loop, one list row per example, cut to the
    longest row's real length (trim=True) or kept at full length."""
    token_ids, type_ids, mask, rows, labels, sop = [], [], [], [], [], []
    longest = max(sum(ex.input.attention_mask.tolist()) for ex in examples)
    for b, ex in enumerate(examples):
        t = longest if trim else len(ex.input.token_ids)
        token_ids.append(ex.input.token_ids.tolist()[:t])
        type_ids.append(ex.input.type_ids.tolist()[:t])
        mask.append(ex.input.attention_mask.tolist()[:t])
        for pos, label in zip(ex.mlm_positions.tolist(), ex.mlm_labels.tolist()):
            if label != ops.IGNORE_INDEX:
                rows.append(b * t + pos)
                labels.append(label)
        sop.append(int(ex.sop_label))
    return {
        "token_ids": np.array(token_ids, dtype=np.int32),
        "type_ids": np.array(type_ids, dtype=np.int32),
        "attention_mask": np.array(mask, dtype=np.int32),
        "mlm_rows": np.array(rows, dtype=np.int64),
        "mlm_labels": np.array(labels, dtype=np.int64),
        "sop_labels": np.array(sop, dtype=np.int64),
    }


def test_pack_pretrain_batch_matches_per_example_reference(tmp_path):
    # sentences of 2..11 words at mask rate 0.3 give 1..6 masked slots of 6
    words = synthdata.FILLER
    r = RngStream(12)
    docs = [[" ".join(words[r.randint(len(words))] for _ in range(2 + r.randint(10)))
             for _ in range(2)] for _ in range(24)]
    examples = build_pretrain_examples(docs, synthdata.WordVocab(), RngStream(3),
                                       max_len=24, mask_rate=0.3, max_predictions=6)
    counts = (examples.mlm_labels != ops.IGNORE_INDEX).sum(axis=1)
    assert len(set(counts.tolist())) >= 3
    write_examples(tmp_path / "examples.bin", examples)
    cached = read_examples(tmp_path / "examples.bin")
    for batch in (examples, examples[[5, 0, 17, 3, 3]], cached[7:15]):
        longest = int(batch["input"]["attention_mask"].sum(axis=1).max())
        for got, want in ((pack_pretrain_batch(batch, longest), _reference_pack(batch)),
                          (pack_pretrain_batch(batch), _reference_pack(batch, trim=False))):
            assert got.keys() == want.keys()
            for key in want:
                assert got[key].dtype == want[key].dtype, key
                assert np.array_equal(got[key], want[key]), key


def test_empty_and_unmasked_batches_rejected(tiny_model):
    config, params = tiny_model
    examples = synthdata.ordered_examples(2, RngStream(1), dup_factor=1)
    with pytest.raises(ValueError, match="empty batch"):
        pretrain_loss(params, config, pack_pretrain_batch(examples[:0]))
    examples["mlm_labels"] = ops.IGNORE_INDEX
    with pytest.raises(ValueError, match="no masked positions"):
        pretrain_loss(params, config, pack_pretrain_batch(examples))


def test_sop_and_token_logit_shapes():
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(2).child("init"), heads=("mlm", "sop", "ner"),
                             num_labels=3)
    ids, types, mask = batch_for(config, RngStream(6))
    assert sop_logits(params, config, ids, types, mask).shape == (2, 2)
    assert token_logits(params, config, ids, types, mask).shape == (2, 8, 3)


def test_inference_memory_does_not_grow_with_depth():
    ids, types, mask = batch_for(TINY, RngStream(8), batch=8, seq=64)
    peaks = []
    for depth in (2, 8):
        config = ModelConfig(
            vocab_size=100, embedding_size=16, hidden_size=32, num_layers=depth,
            num_heads=2, max_positions=64,
        )
        params = init_parameters(config, RngStream(9).child("init"),
                                 heads=("ner",), num_labels=3)
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            base = tracemalloc.get_traced_memory()[0]
            token_logits(params, config, ids, types, mask)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_token_logits_require_ner_head(tiny_model):
    config, params = tiny_model
    ids, types, mask = batch_for(config, RngStream(7))
    with pytest.raises(ValueError, match="no ner head"):
        token_logits(params, config, ids, types, mask)


# ---------------------------------------------------------------------------
# length-sorted, trimmed parts
# ---------------------------------------------------------------------------

def test_length_parts_sort_split_and_trim(monkeypatch):
    monkeypatch.setattr("nanoalbert.model.PART_POSITIONS", 12)
    mask = np.zeros((6, 16), dtype=np.int32)
    for row, length in enumerate((7, 3, 13, 3, 5, 2)):
        mask[row, :length] = 1

    def cut(mask, max_rows=None):
        return [(rows.tolist(), t) for rows, t in length_parts(mask, max_rows)]

    # stable by length; a part closes before it would pass 12 positions, and
    # the 13-position row, longer than the budget, makes a part of its own
    assert cut(mask) == [([5, 1, 3], 3), ([4], 5), ([0], 7), ([2], 13)]
    # the row cap closes parts the budget would have kept open
    assert cut(mask, max_rows=2) == [([5, 1], 3), ([3, 4], 5), ([0], 7), ([2], 13)]
    assert cut(mask, max_rows=1) == [([5], 2), ([1], 3), ([3], 3), ([4], 5), ([0], 7), ([2], 13)]
    monkeypatch.setattr("nanoalbert.model.PART_POSITIONS", 1000)
    assert cut(mask) == [([5, 1, 3, 4, 0, 2], 13)]
    # a length is one past the last real position, and at least 1
    assert cut(np.array([[1, 0, 1, 0], [0, 0, 0, 0]])) == [([1, 0], 3)]
    assert length_parts(mask[:0]) == []
    with pytest.raises(ValueError, match="empty batch"):
        pack_pretrain_batch(synthdata.ordered_examples(2, RngStream(1))[:0])


def mixed_length_pretrain_examples(seed, count=12):
    """Pair examples of 2..8-word sentences at max_len 32: every row is
    shorter than T, and lengths differ across the batch."""
    words = synthdata.FILLER
    r = RngStream(seed)
    docs = [[" ".join(words[r.randint(len(words))] for _ in range(2 + r.randint(7)))
             for _ in range(2)] for _ in range(count)]
    return build_pretrain_examples(docs, synthdata.WordVocab(), r.child("mask"),
                                   max_len=32, mask_rate=0.3, max_predictions=6)[:count]


def mixed_length_ner_batch(seed, label_set, count=10):
    r = RngStream(seed)
    examples = []
    for _ in range(count):
        n = 2 + r.randint(9)
        words = [synthdata.FILLER[r.randint(40)] if r.uniform() < 0.7
                 else synthdata.MARKERS[r.randint(4)] for _ in range(n)]
        examples.append(NerExample(words, ["B" if w in synthdata.MARKERS else "O"
                                           for w in words]))
    return pack_ner_examples(examples, synthdata.WordVocab(), label_set, max_len=16)


def assert_split_step_matches_padded(split, padded, mask):
    """Loss within 1e-6, each gradient within 1e-5 of its tensor's scale, and
    no gradient at all for positions past the batch's longest row."""
    (loss, grads), (want_loss, want_grads) = split, padded
    assert abs(loss - want_loss) < 1e-6, (loss, want_loss)
    assert list(grads) == list(want_grads)
    for name, want in want_grads.items():
        # the key bias gradient is zero up to round-off (softmax ignores a
        # per-row shift), so measure it against the key weight gradient
        scale = want_grads["block_key_weight"] if name == "block_key_bias" else want
        assert np.abs(grads[name] - want).max() <= 1e-5 * np.abs(scale).max(), name
    longest = int(mask.sum(axis=1).max())
    assert longest < mask.shape[1]
    assert not grads["position_embedding"][longest:].any()
    assert grads["position_embedding"][longest - 1].any()


@pytest.fixture
def small_parts(monkeypatch):
    """A part budget small enough to cut the batches below into 3+ parts."""
    monkeypatch.setattr("nanoalbert.model.PART_POSITIONS", 40)


def test_split_trimmed_pretrain_step_equals_padded_step(small_parts):
    config = synthdata.tiny_config(max_positions=32)
    params = init_parameters(config, RngStream(61).child("init"))
    examples = mixed_length_pretrain_examples(62)
    padded = _reference_pack(examples, trim=False)
    assert len(set(padded["attention_mask"].sum(axis=1).tolist())) >= 4
    assert len(length_parts(padded["attention_mask"])) >= 3
    losses, grads = pretrain_step(params, config, examples)
    want, want_grads = pretrain_loss_and_grads(params, config, padded)
    assert abs(losses.mlm_loss - want.mlm_loss) < 1e-6
    assert abs(losses.sop_loss - want.sop_loss) < 1e-6
    assert_split_step_matches_padded((losses.total, grads), (want.total, want_grads),
                                     padded["attention_mask"])


def test_split_trimmed_ner_step_equals_padded_step(small_parts):
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(63).child("init"), heads=("ner",), num_labels=2)
    batch = mixed_length_ner_batch(64, LabelSet(["B"]))
    assert len(set(batch["attention_mask"].sum(axis=1).tolist())) >= 4
    assert len(length_parts(batch["attention_mask"])) >= 3
    padded = ner_loss_and_grads(params, config, batch["token_ids"], batch["type_ids"],
                                batch["attention_mask"], batch["label_ids"])
    assert_split_step_matches_padded(ner_step(params, config, batch), padded,
                                     batch["attention_mask"])


def test_pretrain_part_without_masked_slot_trains(small_parts):
    config = synthdata.tiny_config(max_positions=32)
    params = init_parameters(config, RngStream(65).child("init"))
    examples = mixed_length_pretrain_examples(66)
    parts = length_parts(examples["input"]["attention_mask"])
    assert len(parts) >= 3
    shortest = parts[0][0]
    examples["mlm_labels"][shortest] = ops.IGNORE_INDEX  # the first part has no masked slot
    losses, grads = pretrain_step(params, config, examples)
    want, want_grads = pretrain_loss_and_grads(params, config, _reference_pack(examples, False))
    assert np.isfinite(losses.mlm_loss) and losses.mlm_loss > 0
    assert_split_step_matches_padded((losses.total, grads), (want.total, want_grads),
                                     examples["input"]["attention_mask"])


def test_pretrain_step_memory_does_not_grow_with_batch_size(monkeypatch):
    monkeypatch.setattr("nanoalbert.model.PART_POSITIONS", 64)
    config = synthdata.tiny_config(max_positions=32)
    params = init_parameters(config, RngStream(67).child("init"))
    examples = mixed_length_pretrain_examples(68, count=32)
    peaks = []
    for batch in (8, 32):
        tracemalloc.start()  # numpy reports its buffers to tracemalloc
        try:
            base = tracemalloc.get_traced_memory()[0]
            pretrain_step(params, config, examples[:batch])
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], peaks


# ---------------------------------------------------------------------------
# end-to-end gradients (the acceptance test runs these over 20 seeds)
# ---------------------------------------------------------------------------

GRAD_CONFIG = ModelConfig(
    vocab_size=40, embedding_size=6, hidden_size=8, num_layers=2,
    num_heads=2, intermediate_size=16, max_positions=12,
)


def f64_params(config, seed, **kwargs):
    params = init_parameters(config, RngStream(seed).child("init"), **kwargs)
    return {k: v.astype(np.float64) for k, v in params.items()}


def grad_batch(config, seed, batch=2, seq=10, n_masked=3):
    r = RngStream(seed)
    ids, types, mask = batch_for(config, r, batch=batch, seq=seq)
    mask[-1, -2:] = 0  # exercise the padding path
    rows = sorted(r.sample(batch * seq, n_masked))
    return {
        "token_ids": ids,
        "type_ids": types,
        "attention_mask": mask,
        "mlm_rows": np.array(rows, dtype=np.int64),
        "mlm_labels": np.array([5 + r.randint(35) for _ in rows], dtype=np.int64),
        "sop_labels": np.array([r.randint(2) for _ in range(batch)], dtype=np.int64),
    }


def test_full_pretrain_gradients_match_finite_differences():
    for seed in (0, 1):
        params = f64_params(GRAD_CONFIG, seed)
        names = sorted(params)
        batch = grad_batch(GRAD_CONFIG, seed)

        def fn(inputs):
            p = dict(zip(names, inputs))
            losses, grads = pretrain_loss_and_grads(p, GRAD_CONFIG, batch)
            return losses.total, [grads[n] for n in names]

        err = max_grad_error(fn, [params[n] for n in names])
        assert err < 1e-3, f"seed {seed}: worst relative error {err:.2e}"


def test_ner_gradients_match_finite_differences():
    params = f64_params(GRAD_CONFIG, 3, heads=("ner",), num_labels=3)
    names = sorted(params)
    r = RngStream(3)
    ids, types, mask = batch_for(GRAD_CONFIG, r, batch=2, seq=6)
    labels = np.array([[-100, 0, 1, 2, 0, -100], [-100, 2, 1, -100, 0, -100]])

    def fn(inputs):
        p = dict(zip(names, inputs))
        loss, grads = ner_loss_and_grads(p, GRAD_CONFIG, ids, types, mask, labels)
        return loss, [grads[n] for n in names]

    err = max_grad_error(fn, [params[n] for n in names])
    assert err < 1e-3, f"worst relative error {err:.2e}"


# ---------------------------------------------------------------------------
# shared block against an einsum reference
# ---------------------------------------------------------------------------

def einsum_block(p, num_heads, x, neg_mask, d_out):
    """The shared block written with einsum attention products: returns the
    output, the input gradient and the parameter gradients for d_out."""
    b, t, h = x.shape
    dh = h // num_heads
    scale = dh ** -0.5

    def split(z):
        return z.reshape(b, t, num_heads, dh).transpose(0, 2, 1, 3)

    def join(z):
        return z.transpose(0, 2, 1, 3).reshape(b, t, h)

    lin, grads = {}, {}

    def linear(name, z):
        y, lin[name] = ops.linear_forward(z, p[f"block_{name}_weight"], p[f"block_{name}_bias"])
        return y

    def linear_back(name, d):
        d_in, grads[f"block_{name}_weight"], grads[f"block_{name}_bias"] = (
            ops.linear_backward(lin[name], d)
        )
        return d_in

    q, k, v = (split(linear(name, x)) for name in ("query", "key", "value"))
    probs, probs_cache = ops.softmax_forward(
        np.einsum("bhqd,bhkd->bhqk", q, k) * scale + neg_mask
    )
    attn = linear("attn_output", join(np.einsum("bhqk,bhkd->bhqd", probs, v)))
    x1, norm1 = ops.layer_norm_forward(
        x + attn, p["block_attn_norm_gain"], p["block_attn_norm_bias"]
    )
    act, act_cache = ops.gelu_forward(linear("ffn_in", x1))
    out, norm2 = ops.layer_norm_forward(
        x1 + linear("ffn_out", act), p["block_ffn_norm_gain"], p["block_ffn_norm_bias"]
    )

    d_sum2, grads["block_ffn_norm_gain"], grads["block_ffn_norm_bias"] = (
        ops.layer_norm_backward(norm2, d_out)
    )
    d_inner = ops.gelu_backward(act_cache, linear_back("ffn_out", d_sum2))
    d_x1 = d_sum2 + linear_back("ffn_in", d_inner)
    d_sum1, grads["block_attn_norm_gain"], grads["block_attn_norm_bias"] = (
        ops.layer_norm_backward(norm1, d_x1)
    )
    d_ctx = split(linear_back("attn_output", d_sum1))
    d_scores = ops.softmax_backward(probs_cache, np.einsum("bhqd,bhkd->bhqk", d_ctx, v))
    d_q = np.einsum("bhqk,bhkd->bhqd", d_scores, k) * scale
    d_k = np.einsum("bhqk,bhqd->bhkd", d_scores, q) * scale
    d_v = np.einsum("bhqk,bhqd->bhkd", probs, d_ctx)
    d_x = d_sum1
    for name, d in (("query", d_q), ("key", d_k), ("value", d_v)):
        d_x = d_x + linear_back(name, join(d))
    return out, d_x, grads


def test_block_matches_einsum_reference():
    config = ModelConfig(
        vocab_size=40, embedding_size=8, hidden_size=12, num_layers=1,
        num_heads=3, intermediate_size=20, max_positions=16,
    )
    r = RngStream(21)
    params = {
        name: truncated_normal(r, shape, 0.5, dtype=np.float64)
        for name, shape in block_shapes(config).items()
    }
    x = truncated_normal(r, (3, 7, 12), 1.0, dtype=np.float64)
    d_out = truncated_normal(r, (3, 7, 12), 1.0, dtype=np.float64)
    mask = np.ones((3, 7), dtype=np.int32)
    mask[1, 4:] = 0
    mask[2, 2:] = 0
    neg_mask = ((1 - mask) * NEG_INF).astype(np.float64)[:, None, None, :]

    out, cache = _block_forward(params, config, x, neg_mask, 0.0, None)
    grads = {}
    d_x = _block_backward(params, config, cache, d_out, grads)
    want_out, want_d_x, want_grads = einsum_block(params, config.num_heads, x, neg_mask, d_out)

    def rel_err(got, want, scale=None):
        return np.abs(got - want).max() / np.abs(want if scale is None else scale).max()

    assert rel_err(out, want_out) < 1e-12
    assert rel_err(d_x, want_d_x) < 1e-12
    assert sorted(grads) == sorted(want_grads)
    for name, want in want_grads.items():
        # the key bias gradient is zero up to round-off (softmax ignores a
        # per-row shift), so measure it against the key weight gradient
        scale = want_grads["block_key_weight"] if name == "block_key_bias" else None
        assert rel_err(grads[name], want, scale) < 1e-12, name
