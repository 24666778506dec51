"""CoNLL parsing, subword alignment, span scoring, and fine-tuning.

Span decoding is checked two ways: hand-worked sequences, and an independent
oracle (`enumerated_spans`) that tests every (start, end, type) candidate in
O(n^2) instead of scanning. The worked metric example is
gold [B, O, B] vs pred [B, B, O]: one span matches out of two on each side,
so precision = recall = F1 = 0.5.
"""

import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import synthdata
from nanoalbert import ner
from nanoalbert.bpe import CLS_ID, PAD_ID, SEP_ID, train_vocab
from nanoalbert.checkpoint import Checkpoint, load_checkpoint
from nanoalbert.config import RunConfig
from nanoalbert.model import init_parameters
from nanoalbert.ner import (
    ConllError,
    DatasetStats,
    EntitySpan,
    LabelSet,
    NerExample,
    align_subwords,
    dataset_stats,
    decode_spans,
    evaluate_entities,
    evaluate_split,
    example_dtype,
    finetune,
    metrics_keyvalues,
    metrics_report,
    pack_ner_examples,
    predict_labels,
    read_conll,
)
from nanoalbert.ops import IGNORE_INDEX
from nanoalbert.optim import adamw_step
from nanoalbert.rng import RngStream

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


# ---------------------------------------------------------------------------
# label sets and parsing
# ---------------------------------------------------------------------------

def test_label_set_layout():
    ls = LabelSet(["B-Dis", "I-Dis", "B-Chem"])
    assert ls.labels == ("O", "B-Chem", "B-Dis", "I-Dis")
    assert ls.id_of("O") == 0
    assert ls.label_of(ls.id_of("I-Dis")) == "I-Dis"
    assert len(ls) == 4
    assert ls.labels == LabelSet(["B-Chem", "B-Dis", "I-Dis"]).labels  # order-insensitive


def test_label_set_rejects_orphan_i():
    with pytest.raises(ValueError, match="no matching B"):
        LabelSet(["I-Dis"])
    with pytest.raises(ValueError, match="no matching B"):
        LabelSet(["I"])  # untyped I needs untyped B
    LabelSet(["B", "I"])  # fine


def test_ner_example_length_check():
    with pytest.raises(ValueError):
        NerExample(words=["a", "b"], labels=["O"])


def test_entity_span_validation():
    EntitySpan(0, 1)
    with pytest.raises(ValueError):
        EntitySpan(2, 2)
    with pytest.raises(ValueError):
        EntitySpan(-1, 3)


def test_read_conll_basic(tmp_path):
    path = tmp_path / "train.conll"
    path.write_text(
        "-DOCSTART- O\n"
        "\n"
        "aspirin B-Chem\n"
        "works O\n"
        "\n"
        "slowly O\n"
    )
    examples, label_set = read_conll(path)
    assert len(examples) == 2
    assert examples[0].words == ["aspirin", "works"]
    assert examples[0].labels == ["B-Chem", "O"]
    assert examples[1].words == ["slowly"]
    assert label_set.labels == ("O", "B-Chem")


def test_read_conll_takes_first_and_last_columns(tmp_path):
    path = tmp_path / "cols.conll"
    path.write_text("word POS chunk B-Dis\n")
    examples, _ = read_conll(path)
    assert examples[0].words == ["word"]
    assert examples[0].labels == ["B-Dis"]


def test_read_conll_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("fine O\nlonely\n")
    with pytest.raises(ConllError, match=r"bad\.conll:2: missing label"):
        read_conll(path)

    path.write_text("fine O\nweird X-Chem\n")
    with pytest.raises(ConllError, match=r"bad\.conll:2: unrecognized"):
        read_conll(path)

    path.write_text("one O\ntwo I-Dis\n")
    with pytest.raises(ConllError, match=r"bad\.conll:2: .*no matching B"):
        read_conll(path)


def test_read_conll_names_the_first_orphan_whatever_the_hash_seed(tmp_path):
    # labels were once scanned as a set, so the named orphan followed
    # PYTHONHASHSEED
    path = tmp_path / "orphans.conll"
    path.write_text("a I-X\nb I-Y\n")
    script = ("import sys\nfrom nanoalbert.ner import read_conll\n"
              "try:\n    read_conll(sys.argv[1])\nexcept ValueError as exc:\n    print(exc)\n")
    src = str(Path(__file__).parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    errors = {
        subprocess.run([sys.executable, "-c", script, str(path)], capture_output=True, text=True,
                       check=True, timeout=60,
                       env={**os.environ, "PYTHONPATH": pythonpath,
                            "PYTHONHASHSEED": str(seed)}).stdout
        for seed in range(8)
    }
    assert errors == {f"{path}:1: label 'I-X' has no matching B label\n"}


# ---------------------------------------------------------------------------
# subword alignment
# ---------------------------------------------------------------------------

PIECE_MAP = {"multi": [10, 11, 12], "two": [13, 14], "one": [15]}


class PieceVocab(synthdata.WordVocab):
    """Word vocabulary whose words split into the pieces of PIECE_MAP."""

    def encode(self, text):
        return list(PIECE_MAP[text])


def test_align_labels_first_piece_only():
    example = NerExample(words=["multi", "one"], labels=["B", "O"])
    ls = LabelSet(["B", "I"])
    token_ids, label_ids = align_subwords(example, PieceVocab(), ls, max_len=8)
    assert token_ids == [CLS_ID, 10, 11, 12, 15, SEP_ID]
    ign = IGNORE_INDEX
    assert label_ids == [ign, ls.id_of("B"), ign, ign, ls.id_of("O"), ign]


def test_align_truncates_whole_words():
    example = NerExample(words=["two"] * 5, labels=["O"] * 5)
    ls = LabelSet([])
    # budget 6 fits three 2-piece words; the fourth would straddle the edge
    token_ids, label_ids = align_subwords(example, PieceVocab(), ls, max_len=8)
    assert token_ids == [CLS_ID, 13, 14, 13, 14, 13, 14, SEP_ID]
    assert sum(1 for lid in label_ids if lid != IGNORE_INDEX) == 3


def test_align_rejects_unworkable_inputs():
    ls = LabelSet([])
    vocab = PieceVocab()
    # a first word that alone overflows keeps no words: [CLS] [SEP], all ignored
    assert align_subwords(NerExample(["multi", "one"], ["O", "O"]), vocab, ls, max_len=4) == (
        [CLS_ID, SEP_ID], [IGNORE_INDEX, IGNORE_INDEX])
    with pytest.raises(ValueError, match="no words"):
        align_subwords(NerExample([], []), vocab, ls, max_len=8)


def test_align_lowercase_applies_before_encoding():
    seen = []

    class RecordingVocab(synthdata.WordVocab):
        def encode(self, text):
            seen.append(text)
            return [20]

    example = NerExample(words=["Aspirin"], labels=["O"])
    align_subwords(example, RecordingVocab(), LabelSet([]), max_len=6, lowercase=True)
    assert seen == ["aspirin"]


def test_align_with_learned_bpe_pieces():
    vocab = train_vocab("myocardial infarction myocardial infarction scan", 280)
    example = NerExample(words=["myocardial", "infarction"], labels=["B-Dis", "I-Dis"])
    ls = LabelSet(["B-Dis", "I-Dis"])
    token_ids, label_ids = align_subwords(example, vocab, ls, max_len=32)
    labeled = [lid for lid in label_ids if lid != IGNORE_INDEX]
    assert labeled == [ls.id_of("B-Dis"), ls.id_of("I-Dis")]
    assert token_ids[0] == CLS_ID and token_ids[-1] == SEP_ID
    assert vocab.decode(token_ids[1:-1]) == "myocardialinfarction"


def test_pack_ner_examples_shapes():
    examples = synthdata.gazetteer_examples(6, RngStream(1))
    ls = LabelSet(["B"])
    packed = pack_ner_examples(examples, synthdata.WordVocab(), ls, max_len=16)
    assert packed.dtype == example_dtype(16)
    assert packed["token_ids"].shape == (6, 16)
    assert packed["label_ids"].dtype == np.int32
    assert (packed["label_ids"] != IGNORE_INDEX).sum(1).tolist() == [8] * 6
    assert packed["words"].tolist() == [8] * 6


def test_pack_ner_examples_match_alignment_per_row():
    # each record is align_subwords' row padded by hand: [PAD] ids, segment
    # 0, mask 0 and ignored labels after it, and every word counted
    vocab = train_vocab("aspirin lowers fever in acute myocardial infarction " * 3, 275)
    words = ["Aspirin", "lowers", "fever", "in", "acute", "myocardial", "infarction"]
    r = RngStream(6)
    examples = []
    for _ in range(12):
        sentence = [words[r.randint(len(words))] for _ in range(1 + r.randint(9))]
        examples.append(NerExample(sentence, [("O", "B-Dis")[r.randint(2)] for _ in sentence]))
    ls = LabelSet(["B-Dis"])
    packed = pack_ner_examples(examples, vocab, ls, max_len=16, lowercase=True)
    kept = (packed["label_ids"] != IGNORE_INDEX).sum(1)
    assert (kept < packed["words"]).any() and (kept == packed["words"]).any()
    for row, example in zip(packed, examples):
        token_ids, label_ids = align_subwords(example, vocab, ls, 16, lowercase=True)
        n, pad = len(token_ids), 16 - len(token_ids)
        assert row["token_ids"].tolist() == token_ids + [PAD_ID] * pad
        assert row["type_ids"].tolist() == [0] * 16
        assert row["attention_mask"].tolist() == [1] * n + [0] * pad
        assert row["label_ids"].tolist() == label_ids + [IGNORE_INDEX] * pad
        assert row["words"] == len(example.words)


# ---------------------------------------------------------------------------
# span decoding: worked cases, then the independent oracle
# ---------------------------------------------------------------------------

def spans(*triples):
    return {EntitySpan(s, e, t) for s, e, t in triples}


def test_decode_spans_worked_cases():
    assert decode_spans(["B", "I", "O", "B"]) == spans((0, 2, ""), (3, 4, ""))
    assert decode_spans(["O", "O", "O"]) == set()
    assert decode_spans([]) == set()
    # orphan I opens a span (lenient repair)
    assert decode_spans(["O", "I", "I"]) == spans((1, 3, ""))
    assert decode_spans(["I"]) == spans((0, 1, ""))
    # type change without O splits the run
    assert decode_spans(["B-Chem", "I-Dis"]) == spans((0, 1, "Chem"), (1, 2, "Dis"))
    # B immediately after an entity starts a new one
    assert decode_spans(["B", "B"]) == spans((0, 1, ""), (1, 2, ""))
    # trailing entity is closed at the end
    assert decode_spans(["O", "B-Chem", "I-Chem"]) == spans((1, 3, "Chem"))


def split_label(label):
    if label == "O":
        return "O", ""
    head, _, t = label.partition("-")
    return head, t


def enumerated_spans(labels):
    """O(n^2) candidate enumeration; deliberately not a linear scan."""
    n = len(labels)
    heads = [split_label(l) for l in labels]
    found = set()
    for start in range(n):
        if heads[start][0] == "O":
            continue
        t = heads[start][1]
        if heads[start][0] == "I" and start > 0:
            prev = heads[start - 1]
            if prev[0] != "O" and prev[1] == t:
                continue  # attaches to the left, not a span start
        for end in range(start + 1, n + 1):
            if any(heads[k] != ("I", t) for k in range(start + 1, end)):
                break
            if end < n and heads[end] == ("I", t):
                continue  # not maximal on the right
            found.add(EntitySpan(start, end, t))
    return found


LABEL_CHOICES = ["O", "B-Chem", "I-Chem", "B-Dis", "I-Dis"]


def random_labels(rng, max_len=12):
    return [LABEL_CHOICES[rng.randint(len(LABEL_CHOICES))]
            for _ in range(1 + rng.randint(max_len))]


def test_decoder_matches_enumeration_oracle():
    rng = RngStream(123)
    for _ in range(500):
        labels = random_labels(rng)
        assert decode_spans(labels) == enumerated_spans(labels), labels


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_metrics_worked_example_half():
    metrics = evaluate_entities([["B", "O", "B"]], [["B", "B", "O"]])
    assert metrics.overall.precision == 0.5
    assert metrics.overall.recall == 0.5
    assert metrics.overall.f1 == 0.5
    assert (metrics.overall.tp, metrics.overall.gold, metrics.overall.pred) == (1, 2, 2)


def test_metrics_exact_match_required():
    # partial overlap scores zero: pred span (0,2) != gold span (0,3)
    metrics = evaluate_entities([["B", "I", "I"]], [["B", "I", "O"]])
    assert metrics.overall.f1 == 0.0


def test_metrics_perfect_and_empty():
    gold = [["B-Chem", "I-Chem", "O"], ["O"]]
    assert evaluate_entities(gold, gold).overall.f1 == 1.0
    allo = [["O", "O", "O"], ["O"]]
    m = evaluate_entities(gold, allo)
    assert m.overall.recall == 0.0 and m.overall.precision == 0.0 and m.overall.f1 == 0.0
    # no gold and no pred spans at all: all three stay 0.0 by convention
    z = evaluate_entities(allo, allo).overall
    assert (z.precision, z.recall, z.f1) == (0.0, 0.0, 0.0)


def test_metrics_micro_average_pools_spans():
    # sentence 1: spans match exactly (1 tp / 1 gold / 1 pred). sentence 2:
    # gold {(0,1),(1,2)}; pred ["O","I"] repairs to {(1,2)} -> 1 tp / 2 / 1.
    gold = [["B", "O"], ["B", "B"]]
    pred = [["B", "O"], ["O", "I"]]
    m = evaluate_entities(gold, pred)
    assert (m.overall.tp, m.overall.gold, m.overall.pred) == (2, 3, 2)


def test_metrics_per_type_breakdown():
    gold = [["B-Chem", "B-Dis"]]
    pred = [["B-Chem", "O"]]
    m = evaluate_entities(gold, pred)
    assert set(m.per_type) == {"Chem", "Dis"}
    assert m.per_type["Chem"].f1 == 1.0
    assert m.per_type["Dis"].recall == 0.0


def test_swapping_gold_and_pred_swaps_precision_recall():
    rng = RngStream(777)
    gold = [random_labels(rng) for _ in range(30)]
    pred = [random_labels(rng, len(g)) for g in gold]
    pred = [p[:len(g)] + ["O"] * (len(g) - len(p)) for g, p in zip(gold, pred)]
    fwd = evaluate_entities(gold, pred)
    rev = evaluate_entities(pred, gold)
    assert fwd.overall.precision == rev.overall.recall
    assert fwd.overall.recall == rev.overall.precision
    assert abs(fwd.overall.f1 - rev.overall.f1) < 1e-12


def test_metrics_shape_validation():
    with pytest.raises(ValueError, match="sentences"):
        evaluate_entities([["O"]], [["O"], ["O"]])
    with pytest.raises(ValueError, match="length"):
        evaluate_entities([["O", "O"]], [["O"]])


def test_metrics_report_and_keyvalues():
    m = evaluate_entities([["B", "O", "B-Chem"]], [["B", "B", "O"]])
    report = metrics_report(m)
    assert "micro" in report
    assert "(untyped)" in report and "Chem" in report
    kv = metrics_keyvalues(m)
    lines = dict(l.split("=", 1) for l in kv.strip().split("\n"))
    assert lines["averaging"] == "micro"
    assert lines["precision"] == "0.5000"
    assert lines["type.Chem.recall"] == "0.0000"
    assert len(lines["f1"].split(".")[1]) == 4


# ---------------------------------------------------------------------------
# fine-tuning on the gazetteer task
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quick_setup():
    config = synthdata.tiny_config()
    params = init_parameters(config, RngStream(40).child("init"))
    ck = Checkpoint(config=config, params=params, step=0)
    train_ex = synthdata.gazetteer_examples(60, RngStream(41))
    dev_ex = synthdata.gazetteer_examples(20, RngStream(42))
    return ck, train_ex, dev_ex


QUICK = RunConfig(seed=9, finetune_steps=20, finetune_batch_size=8, finetune_learning_rate=1e-3,
                  finetune_warmup_steps=5, save_checkpoint=10, finetune_max_seq_length=16)


def run_quick(ck, train_ex, dev_ex, out_dir, **changes):
    return finetune(ck, synthdata.WordVocab(), train_ex, dev_ex, None, replace(QUICK, **changes),
                    out_dir)


def test_finetune_result_structure(quick_setup, tmp_path):
    ck, train_ex, dev_ex = quick_setup
    result = run_quick(ck, train_ex, dev_ex, tmp_path)
    assert result.label_set.labels == ("O", "B")
    assert [step for step, _ in result.history] == [10, 20]
    assert result.best_step in (10, 20)
    assert 0.0 <= result.best_dev_f1 <= 1.0
    assert result.test_metrics is None
    assert "ner_weight" in result.params
    assert not any(n.startswith(("mlm_", "sop_", "pooler_")) for n in result.params)


def test_finetune_never_touches_the_checkpoint(quick_setup, tmp_path):
    ck, train_ex, dev_ex = quick_setup
    before = {n: a.copy() for n, a in ck.params.items()}
    run_quick(ck, train_ex, dev_ex, tmp_path)
    for name in before:
        assert np.array_equal(ck.params[name], before[name]), name


def test_finetune_is_deterministic(quick_setup, tmp_path):
    ck, train_ex, dev_ex = quick_setup
    results = [run_quick(ck, train_ex, dev_ex, tmp_path / str(i)) for i in range(2)]
    logs = [(tmp_path / str(i) / "train.log").read_text() for i in range(2)]
    assert logs[0] == logs[1]
    assert results[0].history == results[1].history
    for name in results[0].params:
        assert np.array_equal(results[0].params[name], results[1].params[name])


def test_finetune_writes_best_checkpoint(quick_setup, tmp_path):
    ck, train_ex, dev_ex = quick_setup
    result = run_quick(ck, train_ex, dev_ex, out_dir=tmp_path)
    saved = load_checkpoint(tmp_path / "best.ckpt")
    assert saved.labels == ["O", "B"]
    assert saved.step == result.best_step
    assert np.array_equal(saved.params["ner_weight"], result.params["ner_weight"])


def test_finetune_log_puts_dev_f1_after_its_step_loss(quick_setup, tmp_path):
    ck, train_ex, dev_ex = quick_setup
    result = run_quick(ck, train_ex, dev_ex, tmp_path)
    rows = [line.split("\t") for line in (tmp_path / "train.log").read_text().splitlines()]
    expected = []
    for step in range(1, QUICK.finetune_steps + 1):
        expected.append((str(step), "ner_loss"))
        if step % QUICK.save_checkpoint == 0:
            expected.append((str(step), "dev_f1"))
    assert [(step, metric) for step, metric, _ in rows] == expected
    assert [value for _, metric, value in rows if metric == "dev_f1"] == [
        f"{f1:.4f}" for _, f1 in result.history]


def test_finetune_frees_each_steps_gradients_before_the_next_update(
        quick_setup, tmp_path, monkeypatch):
    refs = []

    def recording_adamw_step(state, params, grads, *args):
        assert all(ref() is None for step in refs for ref in step), \
            "a finished step's gradients are alive"
        refs.append([weakref.ref(g) for g in grads.values()])
        adamw_step(state, params, grads, *args)

    monkeypatch.setattr(ner, "adamw_step", recording_adamw_step)
    ck, train_ex, dev_ex = quick_setup
    run_quick(ck, train_ex, dev_ex, tmp_path, finetune_steps=3, finetune_warmup_steps=1)
    assert len(refs) == 3 and all(ref() is None for step in refs for ref in step)


def test_finetune_validates_inputs(quick_setup, tmp_path):
    ck, train_ex, dev_ex = quick_setup
    base = train_vocab("tiny corpus for the test", 261)  # 261 != 200
    cfg = RunConfig(finetune_steps=4, finetune_warmup_steps=1)
    with pytest.raises(ValueError, match="vocab"):
        finetune(ck, base, train_ex, dev_ex, None, cfg, tmp_path)
    with pytest.raises(ValueError, match="nonempty"):
        finetune(ck, synthdata.WordVocab(), [], dev_ex, None, cfg, tmp_path)


def test_predict_and_evaluate_split_pad_truncated_words(quick_setup, tmp_path):
    ck, train_ex, dev_ex = quick_setup
    result = run_quick(ck, train_ex, dev_ex, tmp_path)
    # max_len 8 keeps 6 of 8 words per sentence; the tail is tagged "O"
    ls = result.label_set
    packed = pack_ner_examples(dev_ex, synthdata.WordVocab(), ls, max_len=8)
    assert (packed["label_ids"] != IGNORE_INDEX).sum(1).tolist() == [6] * len(dev_ex)
    preds = predict_labels(result.params, result.config, ls, packed)
    assert [len(p) for p in preds] == [8] * len(dev_ex)
    assert all(p[6:] == ["O", "O"] for p in preds)
    assert all(label in ls.labels for pred in preds for label in pred)
    metrics = evaluate_split(result.params, result.config, ls, packed, dev_ex)
    assert metrics == evaluate_entities([e.labels for e in dev_ex], preds)
    assert 0.0 <= metrics.overall.f1 <= 1.0


def test_predict_labels_in_sorted_groups_keep_input_order(quick_setup, tmp_path, monkeypatch):
    ck, train_ex, dev_ex = quick_setup
    result = run_quick(ck, train_ex, dev_ex, tmp_path)
    r = RngStream(43)
    # mixed lengths in no sorted order, some cut at max_len
    sentences = [synthdata.gazetteer_examples(1, r.child(str(i)), length=1 + r.randint(16))[0]
                 for i in range(11)]
    packed = pack_ner_examples(sentences, synthdata.WordVocab(), result.label_set, max_len=16)
    lengths = packed["attention_mask"].sum(axis=1).tolist()
    assert len(set(lengths)) >= 5 and lengths != sorted(lengths)
    predicted = []
    # one row a part, then parts of at least 3 rows (2 lanes x 3 rows x 16 positions)
    for budget in (1, 2 * 3 * 16 * result.config.hidden_size):
        monkeypatch.setattr("nanoalbert.model.PART_ACTIVATIONS", budget)
        predicted.append(predict_labels(result.params, result.config, result.label_set, packed))
    one, three = predicted
    assert three == one
    assert [len(tags) for tags in three] == [len(s.words) for s in sentences]
    assert predict_labels(result.params, result.config, result.label_set, packed[:0]) == []


def test_finetune_at_batch_size_one(quick_setup, tmp_path):
    # the step's one row makes one part
    ck, train_ex, dev_ex = quick_setup
    logs = []
    for i in range(2):
        result = run_quick(ck, train_ex, dev_ex, tmp_path / str(i), finetune_batch_size=1,
                           finetune_steps=4, finetune_warmup_steps=2, save_checkpoint=0)
        logs.append((tmp_path / str(i) / "train.log").read_text().splitlines())
    assert logs[0] == logs[1]
    losses = [float(line.split("\t")[2]) for line in logs[0] if "\tner_loss\t" in line]
    assert len(losses) == 4 and all(np.isfinite(losses)) and min(losses) > 0
    assert result.history and result.history[-1][0] == 4


# ---------------------------------------------------------------------------
# dataset statistics
# ---------------------------------------------------------------------------

def test_dataset_stats_hand_counted_fixture():
    # tiny.conll: 3 sentences; 4 + 6 + 3 tokens; spans Chem, Enz, Dis, Chem
    stats = dataset_stats(f"{FIXTURES}/tiny.conll")
    assert stats == DatasetStats(sentences=3, tokens=13, annotations=4)


def test_dataset_stats_empty_file(tmp_path):
    empty = tmp_path / "empty.conll"
    empty.write_text("")
    assert dataset_stats(empty) == DatasetStats(0, 0, 0)
