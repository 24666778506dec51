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

import ast
import hashlib
import re
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import synthdata
from nanoalbert import model, ops
from nanoalbert.corpus import (
    build_pretrain_examples,
    example_dtype,
    read_examples,
    write_examples,
)
from nanoalbert.gradcheck import max_grad_error
from nanoalbert.model import (
    INIT_CLIP_SIGMA,
    INIT_STD,
    NEG_INF,
    ModelConfig,
    _block_backward,
    _block_forward,
    _pooler_forward,
    PretrainLosses,
    count_parameters,
    encode_forward,
    encoder_shapes,
    init_parameters,
    length_parts,
    map_parts,
    ner_loss_and_grads,
    pack_pretrain_batch,
    parameter_shapes,
    pretrain_loss,
    pretrain_loss_and_grads,
    step_parts,
    token_logits,
    truncated_normal,
    zero_grads,
)
from nanoalbert.ner import LabelSet, NerExample, ner_step, pack_ner_examples
from nanoalbert.optim import Schedule
from nanoalbert.pretrain import evaluate_pretrain, fit, pretrain_step
from nanoalbert.rng import RngStream

TINY = ModelConfig(
    vocab_size=100, embedding_size=8, hidden_size=16, num_layers=3,
    num_heads=2, intermediate_size=64, max_positions=32,
)
BASE = ModelConfig(
    vocab_size=30000, embedding_size=128, hidden_size=768, num_layers=12,
    num_heads=12, intermediate_size=3072, max_positions=512,
)
# the encoder of perfbench's pretrain and tag workloads, at 1000 pieces
BENCH_SHAPE = ModelConfig(
    vocab_size=1000, embedding_size=128, hidden_size=256, num_layers=6,
    num_heads=4, max_positions=128,
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


LEAST_SIZES = dict(vocab_size=1, embedding_size=1, hidden_size=1, num_layers=0, num_heads=1,
                   intermediate_size=0, max_positions=1, type_vocab_size=1)


@pytest.mark.parametrize("name", LEAST_SIZES)
def test_config_refuses_a_size_below_its_least_naming_the_field(name):
    ModelConfig(**LEAST_SIZES)  # a zero intermediate_size means 4 * hidden_size
    least = LEAST_SIZES[name]
    with pytest.raises(ValueError) as refused:
        ModelConfig(**{**LEAST_SIZES, name: least - 1})
    assert str(refused.value) == f"{name} must be >= {least}"


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
    shapes = parameter_shapes(TINY, num_labels=3)
    assert shapes["ner_weight"] == (16, 3)
    assert shapes["ner_bias"] == (3,)
    with pytest.raises(ValueError, match="num_labels"):
        parameter_shapes(TINY, num_labels=0)


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


@pytest.mark.parametrize("num_labels, digest", [
    (None, "4932a0fd69ecd19f255549c76e8f86943a706ab235eb7933bb33d1febdf780f1"),
    (3, "792e9f251385059cd90bf5578df5fda8061bf16845f41af6ad228a4100f05fd3"),
])
def test_initial_weights_keep_their_bytes(num_labels, digest):
    # init_parameters draws one stream in inventory order, so these digests
    # pin that order and every weight of both model kinds; the SOP gate and
    # every checkpoint depend on them
    h = hashlib.sha256()
    for name, value in init_parameters(TINY, RngStream(5).child("init"), num_labels).items():
        h.update(name.encode() + b"\0" + value.tobytes())
    assert h.hexdigest() == digest


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


def test_chunked_draw_has_the_bits_of_one_whole_draw():
    n = 3 * model._NDTRI_CHUNK + 1234  # several chunks and a ragged tail
    got = truncated_normal(RngStream(5), (n,), INIT_STD)
    u = model._NDTR_LO + (model._NDTR_HI - model._NDTR_LO) * RngStream(5).uniform_block(n)
    want = (model._ndtri(u) * INIT_STD).astype(np.float32)
    assert got.tobytes() == want.tobytes()


def test_ndtri_port_draws_scipys_weights(monkeypatch):
    """The numpy port of cephes ndtri against scipy.special: the clip points
    are scipy's, every float32 weight is scipy's to the bit, and float64
    draws stay within a few ulps."""
    assert model._NDTR_LO == special.ndtr(-INIT_CLIP_SIGMA)
    assert model._NDTR_HI == special.ndtr(INIT_CLIP_SIGMA)

    def draws():
        inits = [init_parameters(config, RngStream(seed), num_labels)  # both model kinds
                 for config, seed in ((BENCH_SHAPE, 1), (TINY, 2)) for num_labels in (None, 9)]
        more = truncated_normal(RngStream(3), (1_000_000,), INIT_STD)
        wide = truncated_normal(RngStream(4), (1_000_000,), INIT_STD, dtype=np.float64)
        return inits, more, wide

    inits, more, wide = draws()
    monkeypatch.setattr(model, "_ndtri", special.ndtri)
    want_inits, want_more, want_wide = draws()
    for got, want in zip(inits, want_inits):
        assert got.keys() == want.keys()
        for name in got:
            assert got[name].tobytes() == want[name].tobytes(), name
    assert more.tobytes() == want_more.tobytes()
    ulps = np.abs(wide.view(np.int64) - want_wide.view(np.int64))
    assert ulps.max() <= 8, ulps.max()


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
    # numpy would wrap a negative id to the last rows, or raise IndexError
    # for a type id past the table, which the CLI does not report
    v = config.vocab_size
    for token, typ, message in ((-1, 0, f"token id -1 is outside the token vocabulary [0, {v})"),
                                (5, -1, "type id -1 is outside the type vocabulary [0, 2)"),
                                (5, 2, "type id 2 is outside the type vocabulary [0, 2)")):
        bad_ids, bad_types = ids.copy(), types.copy()
        bad_ids[1, 3], bad_types[1, 3] = token, typ
        with pytest.raises(ValueError, match=re.escape(message)):
            encode_forward(params, config, bad_ids, bad_types, mask)
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


def test_token_logits_give_the_training_forward_bits():
    """Inference keeps no cache and builds no GELU slope; neither moves a bit
    of the tag scores (test_pretrain_losses_near_theoretical_start checks the
    same for the pretraining losses)."""
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(22).child("init"), num_labels=5)
    ids, types, mask = batch_for(config, RngStream(23), batch=3, seq=10)
    mask[1, 6:] = 0
    hidden = encode_forward(params, config, ids, types, mask, caches=[])
    trained, _ = ops.linear_forward(hidden, params["ner_weight"], params["ner_bias"])
    logits = token_logits(params, config, ids, types, mask)
    assert logits.dtype == trained.dtype and logits.tobytes() == trained.tobytes()


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
    losses = PretrainLosses(mlm_loss=1.25, sop_loss=0.5, sop_hits=1)
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


def test_sop_and_token_logit_shapes(monkeypatch):
    config = synthdata.tiny_config(max_positions=32)
    params = init_parameters(config, RngStream(2).child("init"))
    tagger = init_parameters(config, RngStream(2).child("init"), num_labels=3)
    ids, types, mask = batch_for(config, RngStream(6))
    assert token_logits(tagger, config, ids, types, mask).shape == (2, 8, 3)
    # SOP hits, counted part by part in the pretraining pass, equal those of
    # one full-width padded pass through the pooler and the SOP classifier
    examples = mixed_length_pretrain_examples(67)
    padded = _reference_pack(examples, trim=False)
    hidden = encode_forward(params, config, padded["token_ids"], padded["type_ids"],
                            padded["attention_mask"])
    sop = ops.linear(_pooler_forward(params, hidden)[0], params["sop_weight"], params["sop_bias"])
    hits = int((sop.argmax(axis=1) == padded["sop_labels"]).sum())
    assert 0 < hits < len(examples)
    for budget in (1, model.PART_ACTIVATIONS):  # one row a part, and the default budget
        monkeypatch.setattr(model, "PART_ACTIVATIONS", budget)
        assert evaluate_pretrain(params, config, examples).sop_hits == hits
    assert pretrain_step(params, config, examples)[0].sop_hits == hits


def test_inference_memory_does_not_grow_with_depth():
    ids, types, mask = batch_for(TINY, RngStream(8), batch=8, seq=64)
    peaks = []
    for depth in (2, 8):
        config = ModelConfig(
            vocab_size=100, embedding_size=16, hidden_size=32, num_layers=depth,
            num_heads=2, max_positions=64,
        )
        params = init_parameters(config, RngStream(9).child("init"), num_labels=3)
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
    # positions x width to the two parts in flight: 12 positions to a part at
    # H=256, and twice as many at each halving of the width
    monkeypatch.setattr("nanoalbert.model.PART_ACTIVATIONS", 24 * 256)
    mask = np.zeros((6, 16), dtype=np.int32)
    for row, length in enumerate((7, 3, 13, 3, 5, 2)):
        mask[row, :length] = 1

    def cut(mask, width=256):
        return [(rows.tolist(), t) for rows, t in length_parts(mask, width)]

    # stable by length; a part closes before it would pass 12 positions, and
    # the 13-position row, longer than the budget, makes a part of its own
    assert cut(mask) == [([5, 1, 3], 3), ([4], 5), ([0], 7), ([2], 13)]
    # narrower widths close fewer parts: 24, 48 and 96 positions to a part
    assert cut(mask, 128) == [([5, 1, 3, 4], 5), ([0], 7), ([2], 13)]
    assert cut(mask, 64) == [([5, 1, 3, 4, 0], 7), ([2], 13)]
    assert cut(mask, 32) == [([5, 1, 3, 4, 0, 2], 13)]
    # the runner calls part_fn once per part, in that order, on the part's
    # records and trimmed length, so it visits every record exactly once
    records = np.arange(6) * 10
    for width in (256, 128):
        got = map_parts(lambda part, t: (part.tolist(), t), records, mask, width)
        assert [(rows.tolist(), part) for rows, part in got] == [
            (rows, ([10 * row for row in rows], t)) for rows, t in cut(mask, width)]
        assert sorted(row for rows, _ in got for row in rows.tolist()) == list(range(6))
    assert map_parts(lambda part, t: pytest.fail("no part to run"),
                     records[:0], mask[:0], 256) == []
    # a length is one past the last real position, and at least 1
    assert cut(np.array([[1, 0, 1, 0], [0, 0, 0, 0]])) == [([1, 0], 3)]
    assert length_parts(mask[:0], 256) == []
    with pytest.raises(ValueError, match="empty batch"):
        pack_pretrain_batch(synthdata.ordered_examples(2, RngStream(1))[:0])


# ---------------------------------------------------------------------------
# lanes
# ---------------------------------------------------------------------------

@pytest.fixture
def two_lanes(monkeypatch):
    """The runners run their two lanes at once, on any machine."""
    blas = model._find_openblas()
    if blas is None:
        monkeypatch.setattr(model, "_find_openblas", lambda: (lambda: 2, lambda threads: None))
        yield
        return
    get, set_ = blas
    configured = get()
    set_(2)  # as OPENBLAS_NUM_THREADS=2 or a 2-core machine configures it
    try:
        yield
    finally:
        set_(configured)


def one_row_parts(monkeypatch, rows):
    """A mask whose length_parts at width 1 are its rows in order, one row
    a part."""
    monkeypatch.setattr("nanoalbert.model.PART_ACTIVATIONS", 4)
    return np.ones((rows, 4), dtype=np.int32)


def lane_of_this_thread():
    """0 on the test's own thread, which calls the runner and so runs lane
    0; 1 on lane 1's worker thread."""
    return int(threading.get_ident() != threading.main_thread().ident)


def test_map_parts_runs_part_i_on_lane_i_mod_2_and_returns_part_order(two_lanes, monkeypatch):
    monkeypatch.setattr("nanoalbert.model.PART_ACTIVATIONS", 4)  # 2 positions to a part at width 1
    mask = np.zeros((7, 8), dtype=np.int32)
    for row, length in enumerate((3, 1, 4, 2, 4, 1, 3)):
        mask[row, :length] = 1
    parts = length_parts(mask, 1)
    assert len(parts) == 6
    number = {tuple(rows.tolist()): i for i, (rows, _) in enumerate(parts)}
    threads, calls = {0: set(), 1: set()}, {0: [], 1: []}

    def part_fn(part, t):
        lane = lane_of_this_thread()
        threads[lane].add(threading.get_ident())
        calls[lane].append(number[tuple((part // 10).tolist())])
        time.sleep(0.001)  # lets the lanes interleave
        return part.tolist(), t

    got = map_parts(part_fn, np.arange(7) * 10, mask, 1)
    assert [(rows.tolist(), result) for rows, result in got] == [
        (rows.tolist(), ((rows * 10).tolist(), t)) for rows, t in parts]
    # lane 0 is the calling thread, in part order; lane 1 is one other
    # thread, part 1 first and then its others longest first
    assert calls == {0: [0, 2, 4], 1: [1, 5, 3]}
    assert threads[0] == {threading.get_ident()}
    assert len(threads[1]) == 1 and threads[1] != threads[0]


def test_step_parts_gives_each_lane_its_own_grads_and_returns_their_sum(
        two_lanes, monkeypatch):
    mask = one_row_parts(monkeypatch, 5)
    params = {"w": np.zeros(3), "b": np.zeros(2)}
    dicts = {0: set(), 1: set()}  # by the thread that ran the part
    dict_of = {}  # part -> its grads

    def part_fn(part, t, grads, hold):
        i = int(part[0])
        dicts[lane_of_this_thread()].add(id(grads))
        dict_of[i] = id(grads)
        assert grads.keys() == params.keys()
        grads["w"][i % 3] += 10.0 ** i
        grads["b"] += i
        return i

    results, grads = step_parts(part_fn, params, np.arange(5), mask, 1)
    assert [(rows.tolist(), i) for rows, i in results] == [([i], i) for i in range(5)]
    # one dict per lane, part i's that of lane i % 2; lane 1's is added into lane 0's
    assert dicts == {0: {dict_of[0], dict_of[2], dict_of[4]}, 1: {dict_of[1], dict_of[3]}}
    assert dict_of[0] != dict_of[1] and id(grads) == dict_of[0]
    assert grads["w"].tolist() == [1.0 + 1000.0, 10.0 + 10000.0, 100.0]
    assert grads["b"].tolist() == [10.0, 10.0]
    assert not params["w"].any() and not params["b"].any()


def test_hold_keeps_the_lanes_first_parts_in_flight_together(two_lanes, monkeypatch):
    mask = one_row_parts(monkeypatch, 4)
    params = {"w": np.zeros(1)}
    events = []

    def part_fn(part, t, grads, hold):
        i = int(part[0])
        if i in (1, 3):
            time.sleep(0.1 * i)  # lane 1's forwards end well after lane 0's
        events.append(("forward", i))
        hold()
        events.append(("backward", i))
        return i

    results, _ = step_parts(part_fn, params, np.arange(4), mask, 1)
    assert [i for _, i in results] == [0, 1, 2, 3]
    assert events.index(("backward", 0)) > events.index(("forward", 1))
    assert events.index(("backward", 2)) < events.index(("forward", 3))  # only first parts wait

    # a part that never holds, as in inference, releases the other lane when it ends
    def lane_1_never_holds(part, t, grads, hold):
        if lane_of_this_thread() == 1:
            time.sleep(0.1)
            events.append(("end", int(part[0])))
        else:
            hold()
            events.append(("backward", int(part[0])))

    events.clear()
    step_parts(lane_1_never_holds, params, np.arange(2), mask[:2], 1)
    assert events == [("end", 1), ("backward", 0)]


def test_map_parts_raises_the_lowest_failing_part_after_joining_its_worker(
        two_lanes, monkeypatch, tmp_path):
    mask = one_row_parts(monkeypatch, 6)
    ran = []

    def part_fn(part, t):
        i = int(part[0])
        ran.append(i)
        if i == 1:
            time.sleep(0.2)  # part 2, on lane 0, fails first
        if i in (1, 2):
            raise ValueError(f"part {i} failed")
        return i

    before = threading.active_count()
    with pytest.raises(ValueError, match="^part 1 failed$"):
        map_parts(part_fn, np.arange(6), mask, 1)
    assert threading.active_count() == before
    # lane 0 skips part 4 after its own failure; lane 1 still runs part 1
    assert {0, 1, 2} <= set(ran) and 4 not in ran

    # lane 1 skips its parts numbered above lane 0's failure, in a training step too
    def first_fails(part, t, *grads_and_hold):
        i = int(part[0])
        ran.append(i)
        if i == 0:
            raise ValueError("part 0 failed")
        time.sleep(0.2)
        return i

    for run in (lambda: map_parts(first_fails, np.arange(6), mask, 1),
                lambda: step_parts(first_fails, {}, np.arange(6), mask, 1)):
        ran.clear()
        with pytest.raises(ValueError, match="^part 0 failed$"):
            run()
        assert threading.active_count() == before
        assert set(ran) <= {0, 1}

    # fit still puts the step number in front
    with pytest.raises(ValueError, match="^step 1: part 1 failed$"):
        fit(lambda idx, lr: map_parts(part_fn, np.arange(6), mask, 1),
            schedule=Schedule(1e-3, 1, 10), seed=0, num_examples=6, batch_size=2,
            num_steps=1, out_dir=tmp_path, first=0, hook=lambda done: ())
    assert threading.active_count() == before


def test_map_parts_lets_an_interrupt_through_and_stops_lane_1(two_lanes, monkeypatch):
    mask = one_row_parts(monkeypatch, 6)
    before = threading.active_count()
    for part_1_fails in (True, False):
        ran = []

        def part_fn(part, t):
            i = int(part[0])
            ran.append(i)
            if i == 1:
                time.sleep(0.2)  # still running when part 2 is interrupted
                if part_1_fails:
                    raise ValueError("part 1 failed")
            if i == 2:
                raise KeyboardInterrupt
            return i

        with pytest.raises(KeyboardInterrupt):  # not part 1's lower-numbered error
            map_parts(part_fn, np.arange(6), mask, 1)
        assert threading.active_count() == before
        assert sorted(ran) == [0, 1, 2]  # lane 1 ran no part after the interrupt


def test_map_parts_pins_blas_to_one_thread_while_its_lanes_run(monkeypatch):
    blas = model._find_openblas()
    if blas is None:
        pytest.skip("numpy carries no scipy-openblas library")
    get, set_ = blas
    mask = one_row_parts(monkeypatch, 3)
    trims = []
    monkeypatch.setattr(model, "_malloc_trim", lambda: trims.append)
    configured = get()
    try:
        set_(2)  # as OPENBLAS_NUM_THREADS=2 or a 2-core machine configures it
        seen = {}
        map_parts(lambda part, t: seen.setdefault(lane_of_this_thread(), get()),
                  np.arange(3), mask, 1)
        assert seen == {0: 1, 1: 1}
        assert get() == 2  # the caller's count is back
        assert trims == [0]  # lane 1's freed memory went back to the system
        set_(1)  # as OPENBLAS_NUM_THREADS=1 configures it: the lanes run in turn
        threads = set()
        map_parts(lambda part, t: threads.add(threading.get_ident()), np.arange(3), mask, 1)
        assert threads == {threading.get_ident()}
        assert get() == 1 and trims == [0]
    finally:
        set_(configured)


def _lane_code(source: str) -> list[str]:
    """Each place in `source` that knows how a step's parts run: an import
    of threading or ctypes, a call of zero_grads, or the name add_lanes or
    Lane (imported, read or an attribute)."""
    modules, names = ("threading", "ctypes"), ("add_lanes", "Lane")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] in modules]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in modules:
                found.append(f"line {node.lineno}: from {node.module}")
            found += [f"line {node.lineno}: {alias.name}" for alias in node.names
                      if alias.name in names]
        elif isinstance(node, ast.Call) and "zero_grads" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(f"line {node.lineno}: zero_grads()")
        elif (isinstance(node, ast.Name) and node.id in names
              or isinstance(node, ast.Attribute) and node.attr in names):
            found.append(f"line {node.lineno}: {getattr(node, 'id', None) or node.attr}")
    return found


@pytest.mark.parametrize("source", [
    "import threading", "import ctypes.util", "from threading import Thread",
    "from ctypes import CDLL", "zero_grads(params)", "model.zero_grads(params)",
    "add_lanes(grads)", "from .model import add_lanes", "model.Lane(0)",
    "from .model import Lane as L",
])
def test_the_lane_guard_finds_each_form(source):
    assert len(_lane_code(source)) == 1


def test_no_module_but_model_knows_about_the_lanes():
    """Threads, BLAS pinning, each lane's gradient dict and the hold stay
    in model.py: training code hands step_parts a part_fn and gets the
    step's gradient back."""
    assert _lane_code("from .model import zero_grads, step_parts\nlanes = 2\nx.lane") == []
    package = Path(model.__file__).parent
    assert len(_lane_code(Path(model.__file__).read_text(encoding="utf-8"))) >= 3
    found = {path.name: _lane_code(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "model.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_lanes_run_one_after_the_other_without_openblas_with_the_same_bits(
        two_lanes, small_parts, monkeypatch):
    from nanoalbert import ner, pretrain

    config = synthdata.tiny_config(max_positions=32)
    pretrain_params = init_parameters(config, RngStream(71).child("init"))
    examples = mixed_length_pretrain_examples(72)
    ner_params = init_parameters(config, RngStream(73).child("init"), num_labels=2)
    batch = mixed_length_ner_batch(74, LabelSet(["B"]))
    assert len(length_parts(examples["input"]["attention_mask"], config.hidden_size)) >= 3
    assert len(length_parts(batch["attention_mask"], config.hidden_size)) >= 3
    threads = set()
    for module, name in ((pretrain, "pretrain_loss_and_grads"), (ner, "ner_loss_and_grads")):
        def on_thread(*args, _fn=getattr(module, name), **kwargs):
            threads.add(threading.get_ident())
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, on_thread)

    def steps():
        return (pretrain_step(pretrain_params, config, examples),
                ner_step(ner_params, config, batch))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the lanes trade the interpreter often
    try:
        at_once = steps()
    finally:
        sys.setswitchinterval(interval)
    assert threading.get_ident() in threads and len(threads) > 1  # a new worker per step
    threads.clear()
    blas = model._find_openblas()
    monkeypatch.setattr(model, "_find_openblas", lambda: None)
    if blas is not None:
        blas[1](1)  # BLAS on one thread, as the lanes had it; two_lanes restores the count
    in_turn = steps()
    assert threads == {threading.get_ident()}
    for (loss, grads), (want_loss, want_grads) in zip(in_turn, at_once):
        assert loss == want_loss
        assert list(grads) == list(want_grads)
        for name, want in want_grads.items():
            assert np.array_equal(grads[name], want), name


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
    """A part budget small enough to cut the batches below into 3+ parts:
    20 positions to a part at tiny_config's width, 32."""
    monkeypatch.setattr("nanoalbert.model.PART_ACTIVATIONS", 40 * 32)


def test_split_trimmed_pretrain_step_equals_padded_step(small_parts):
    config = synthdata.tiny_config(max_positions=32)
    params = init_parameters(config, RngStream(61).child("init"))
    examples = mixed_length_pretrain_examples(62)
    padded = _reference_pack(examples, trim=False)
    assert len(set(padded["attention_mask"].sum(axis=1).tolist())) >= 4
    assert len(length_parts(padded["attention_mask"], config.hidden_size)) >= 3
    losses, grads = pretrain_step(params, config, examples)
    want, want_grads = pretrain_loss_and_grads(params, config, padded)
    assert abs(losses.mlm_loss - want.mlm_loss) < 1e-6
    assert abs(losses.sop_loss - want.sop_loss) < 1e-6
    assert_split_step_matches_padded((losses.total, grads), (want.total, want_grads),
                                     padded["attention_mask"])


def test_split_trimmed_ner_step_equals_padded_step(small_parts):
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(63).child("init"), num_labels=2)
    batch = mixed_length_ner_batch(64, LabelSet(["B"]))
    assert len(set(batch["attention_mask"].sum(axis=1).tolist())) >= 4
    assert len(length_parts(batch["attention_mask"], config.hidden_size)) >= 3
    padded = ner_loss_and_grads(params, config, batch["token_ids"], batch["type_ids"],
                                batch["attention_mask"], batch["label_ids"])
    assert_split_step_matches_padded(ner_step(params, config, batch), padded,
                                     batch["attention_mask"])


def test_pretrain_part_without_masked_slot_trains(small_parts):
    config = synthdata.tiny_config(max_positions=32)
    params = init_parameters(config, RngStream(65).child("init"))
    examples = mixed_length_pretrain_examples(66)
    parts = length_parts(examples["input"]["attention_mask"], config.hidden_size)
    assert len(parts) >= 3
    shortest = parts[0][0]
    examples["mlm_labels"][shortest] = ops.IGNORE_INDEX  # the first part has no masked slot
    losses, grads = pretrain_step(params, config, examples)
    want, want_grads = pretrain_loss_and_grads(params, config, _reference_pack(examples, False))
    assert np.isfinite(losses.mlm_loss) and losses.mlm_loss > 0
    assert_split_step_matches_padded((losses.total, grads), (want.total, want_grads),
                                     examples["input"]["attention_mask"])


def test_pretrain_step_memory_does_not_grow_with_batch_size(monkeypatch):
    config = synthdata.tiny_config(max_positions=32)
    # 32 positions to a part
    monkeypatch.setattr("nanoalbert.model.PART_ACTIVATIONS", 64 * config.hidden_size)
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


def benchmark_shape_examples(seed, count=32, max_len=128, slots=20):
    """Pretraining records at the benchmark's shape: real lengths uniform in
    20..127, 15% of the positions after [CLS] masked, up to `slots`."""
    r = RngStream(seed)
    examples = np.zeros(count, dtype=example_dtype(max_len, slots))
    examples["mlm_labels"] = ops.IGNORE_INDEX
    inputs = examples["input"]
    for i in range(count):
        n = 20 + r.randint(108)
        inputs["token_ids"][i, :n] = 5 + r.uint64_block(n) % (BENCH_SHAPE.vocab_size - 5)
        inputs["type_ids"][i, n // 2:n] = 1
        inputs["attention_mask"][i, :n] = 1
        k = min(slots, n * 15 // 100)
        examples["mlm_positions"][i, :k] = sorted(1 + p for p in r.sample(n - 1, k))
        examples["mlm_labels"][i, :k] = inputs["token_ids"][i, examples["mlm_positions"][i, :k]]
        examples["sop_label"][i] = r.randint(2)
    return examples


def test_pretrain_step_memory_at_benchmark_shape():
    """The lean block caches: one B=32 step's tracemalloc peak stays below
    0.8 x 35.7 MiB, the peak when each layer also cached its input, its
    attention norm's output and its GELU's output and slope (35.0 MiB on
    this batch; 24.9 MiB with the lean caches)."""
    params = init_parameters(BENCH_SHAPE, RngStream(69).child("init"))
    examples = benchmark_shape_examples(70)
    assert len(length_parts(examples["input"]["attention_mask"], BENCH_SHAPE.hidden_size)) >= 10
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pretrain_step(params, BENCH_SHAPE, examples)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.8 * 35.7 * 2**20, peak / 2**20


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

        def loss_only(inputs):
            return pretrain_loss(dict(zip(names, inputs)), GRAD_CONFIG, batch).total

        err = max_grad_error(fn, [params[n] for n in names], loss=loss_only)
        assert err < 1e-3, f"seed {seed}: worst relative error {err:.2e}"


def test_ner_gradients_match_finite_differences():
    params = f64_params(GRAD_CONFIG, 3, num_labels=3)
    names = sorted(params)
    r = RngStream(3)
    ids, types, mask = batch_for(GRAD_CONFIG, r, batch=2, seq=6)
    labels = np.array([[-100, 0, 1, 2, 0, -100], [-100, 2, 1, -100, 0, -100]])

    def fn(inputs):
        p = dict(zip(names, inputs))
        loss, grads = ner_loss_and_grads(p, GRAD_CONFIG, ids, types, mask, labels)
        return loss, [grads[n] for n in names]

    def loss_only(inputs):  # through the inference forward, which runs no backward
        logits = token_logits(dict(zip(names, inputs)), GRAD_CONFIG, ids, types, mask)
        return ops.softmax_cross_entropy_with_grad(logits.reshape(-1, 3), labels.reshape(-1))[0]

    err = max_grad_error(fn, [params[n] for n in names], loss=loss_only)
    assert err < 1e-3, f"worst relative error {err:.2e}"


def test_each_loss_returns_a_gradient_for_exactly_its_parameters():
    # the finite-difference checks read only params' names, so a stray key passes them
    r = RngStream(4)
    ids, types, mask = batch_for(GRAD_CONFIG, r, batch=2, seq=6)
    labels = np.array([[-100, 0, 1, 2, 0, -100], [-100, 2, 1, -100, 0, -100]])
    pretrain_params = init_parameters(GRAD_CONFIG, r.child("pretrain"))
    ner_params = init_parameters(GRAD_CONFIG, r.child("ner"), num_labels=3)
    _, pretrain_grads = pretrain_loss_and_grads(
        pretrain_params, GRAD_CONFIG, grad_batch(GRAD_CONFIG, 4))
    _, ner_grads = ner_loss_and_grads(ner_params, GRAD_CONFIG, ids, types, mask, labels)
    for params, grads in ((pretrain_params, pretrain_grads), (ner_params, ner_grads)):
        assert grads.keys() == params.keys()
        for name, p in params.items():
            assert grads[name].shape == p.shape and grads[name].dtype == p.dtype, name


def test_float32_steps_match_a_float64_reference():
    """One pretrain_step and one ner_step on float32 params against the same
    params cast to float64, at seeds 71, 81 and 91. The bounds are about 3x
    the worst case over seeds 200, 205, ..., 1000: a relative loss error of
    1.8e-7; a relative L2 gradient error of 1.1e-6 for most tensors and
    2.9e-4 for the pooler and SOP head, whose gradients sum terms that
    nearly cancel over the rows; and 1.1e-12 absolute for block_key_bias,
    whose float64 gradient is ~1e-21 because softmax ignores a per-row
    constant."""
    config = synthdata.tiny_config(max_positions=32)
    for seed in (71, 81, 91):
        examples = mixed_length_pretrain_examples(seed + 1)
        batch = mixed_length_ner_batch(seed + 1, LabelSet(["B"]))

        def pretrain_total(params):
            losses, grads = pretrain_step(params, config, examples)
            return losses.total, grads

        for step, params in (
                (pretrain_total, init_parameters(config, RngStream(seed).child("init"))),
                (lambda ps: ner_step(ps, config, batch),
                 init_parameters(config, RngStream(seed).child("init"), num_labels=2))):
            loss, grads = step(params)
            want_loss, want_grads = step({n: p.astype(np.float64) for n, p in params.items()})
            assert abs(loss - want_loss) < 1e-6 * abs(want_loss), seed
            for name, want in want_grads.items():
                assert want.dtype == np.float64, name
                err, norm = np.linalg.norm(grads[name] - want), np.linalg.norm(want)
                if norm < 1e-12:
                    assert name == "block_key_bias" and err < 1e-11, (seed, name, err)
                else:
                    bound = 1e-3 if name.startswith(("pooler_", "sop_")) else 3e-6
                    assert err < bound * norm, (seed, name, err / norm)


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
        for name, shape in encoder_shapes(config).items() if name.startswith("block_")
    }
    x = truncated_normal(r, (3, 7, 12), 1.0, dtype=np.float64)
    d_out = truncated_normal(r, (3, 7, 12), 1.0, dtype=np.float64)
    mask = np.ones((3, 7), dtype=np.int32)
    mask[1, 4:] = 0
    mask[2, 2:] = 0
    neg_mask = ((1 - mask) * NEG_INF).astype(np.float64)[:, None, None, :]

    out, cache = _block_forward(params, config, x, neg_mask)
    grads = zero_grads(params)
    d_x = _block_backward(params, config, cache, x, d_out, grads)
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
