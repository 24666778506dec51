"""Corpus cleanup rules, sentence-order pairing, masking, and the cache file.

The cleanup contract: trailing whitespace trimmed, lines under 20 characters
dropped, empty documents omitted, one blank line between surviving documents,
trailing newline at the end. Character counts in these fixtures were done by
hand.
"""

import re
import struct

import numpy as np
import pytest

import synthdata
from nanoalbert.bpe import MASK_ID, NUM_SPECIALS, PAD_ID, build_input_pair, train_vocab
from nanoalbert.corpus import (
    EXAMPLES_MAGIC,
    SOP_IN_ORDER,
    SOP_SWAPPED,
    CorpusError,
    CorpusStats,
    apply_mlm_mask,
    build_pretrain_examples,
    clean_document,
    corpus_stats,
    example_dtype,
    make_sop_pairs,
    preprocess_documents,
    preprocess_files,
    read_examples,
    split_corpus,
    write_examples,
)
from nanoalbert.ops import IGNORE_INDEX
from nanoalbert.rng import RngStream

LONG_A = "This sentence is longer than twenty characters."  # 47 chars
LONG_B = "Another line that easily clears the length bar."  # 47 chars
EXACT_20 = "Exactly twenty chars"  # 20 chars, kept (only < 20 is dropped)


# ---------------------------------------------------------------------------
# cleanup
# ---------------------------------------------------------------------------

def test_clean_document_drops_short_and_blank_lines():
    doc = f"Too short.\n\n{LONG_A}\nTiny.\n{LONG_B}"
    assert clean_document(doc) == [LONG_A, LONG_B]


def test_length_boundary_is_twenty_after_trimming():
    assert clean_document(EXACT_20) == [EXACT_20]
    assert clean_document("Nineteen chars line") == []
    # 19 visible chars padded with spaces still dies after rstrip
    assert clean_document("Nineteen chars line   ") == []
    assert clean_document(EXACT_20 + "   \t") == [EXACT_20]


def test_preprocess_joins_documents_with_blank_lines():
    out = preprocess_documents([f"{LONG_A}\nskip me\n{LONG_B}", "all short", EXACT_20])
    assert out == f"{LONG_A}\n{LONG_B}\n\n{EXACT_20}\n"


def test_preprocess_empty_result_is_empty_string():
    assert preprocess_documents(["nope", "also no"]) == ""
    assert preprocess_documents([]) == ""


def test_preprocess_is_idempotent():
    out = preprocess_documents([f"{LONG_A}\nx\n{LONG_B}", EXACT_20])
    again = preprocess_documents(["\n".join(d) for d in split_corpus(out)])
    assert again == out


def test_preprocess_files_reads_one_document_per_file(tmp_path):
    (tmp_path / "a.txt").write_text(f"{LONG_A}\nshort\n")
    (tmp_path / "b.txt").write_text(f"{LONG_B}\n")
    out = preprocess_files([tmp_path / "a.txt", tmp_path / "b.txt"])
    assert out == f"{LONG_A}\n\n{LONG_B}\n"


def test_preprocess_files_rejects_bad_utf8(tmp_path):
    bad = tmp_path / "broken.txt"
    bad.write_bytes(b"fine start " + b"\xff\xfe" + b" fine end\n")
    with pytest.raises(CorpusError, match=r"broken\.txt.*byte offset 11"):
        preprocess_files([bad])


# ---------------------------------------------------------------------------
# parsing and stats
# ---------------------------------------------------------------------------

def test_split_corpus_round_trips_documents():
    text = f"{LONG_A}\n{LONG_B}\n\n{EXACT_20}\n"
    assert split_corpus(text) == [[LONG_A, LONG_B], [EXACT_20]]
    assert split_corpus("") == []


def test_split_corpus_tolerates_extra_blank_lines():
    assert split_corpus("aa bb\n\n\n\ncc\n") == [["aa bb"], ["cc"]]


def test_corpus_stats_counts_by_hand():
    # 2 documents; 3 sentences; 2 + 2 + 1 = 5 whitespace words
    stats = corpus_stats("aa bb\ncc dd\n\nee\n")
    assert stats == CorpusStats(documents=2, sentences=3, words=5)
    assert corpus_stats("") == CorpusStats(0, 0, 0)


def test_corpus_stats_on_constructed_grid():
    # 3 documents x 2 sentences x 10 words
    doc = "\n".join(" ".join(f"w{i}" for i in range(10)) for _ in range(2))
    stats = corpus_stats("\n\n".join([doc] * 3) + "\n")
    assert (stats.documents, stats.sentences, stats.words) == (3, 6, 60)


# ---------------------------------------------------------------------------
# sentence-order pairs
# ---------------------------------------------------------------------------

def test_sop_pair_count_and_duplication():
    docs = [["s1", "s2", "s3"], ["t1", "t2"], ["only one"]]
    pairs = make_sop_pairs(docs, RngStream(3), dup_factor=5)
    # (2 + 1 + 0) adjacent pairs per pass, five passes
    assert len(pairs) == 15


def test_sop_labels_match_orientation():
    follows = {("s1", "s2"), ("s2", "s3"), ("t1", "t2")}
    pairs = make_sop_pairs([["s1", "s2", "s3"], ["t1", "t2"]], RngStream(11), 50)
    for a, b, label in pairs:
        if label == SOP_IN_ORDER:
            assert (a, b) in follows
        else:
            assert label == SOP_SWAPPED and (b, a) in follows


def test_sop_swap_rate_is_about_half():
    pairs = make_sop_pairs([["a", "b"]], RngStream(8), 2000)
    swapped = sum(1 for _, _, label in pairs if label == SOP_SWAPPED)
    assert abs(swapped / 2000 - 0.5) < 0.04


def test_sop_dup_factor_validated():
    with pytest.raises(ValueError):
        make_sop_pairs([["a", "b"]], RngStream(0), 0)


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def plain_sequence(n_content):
    return [2, *range(NUM_SPECIALS, NUM_SPECIALS + n_content), 3]


@pytest.fixture(scope="module")
def mask_vocab():
    return synthdata.WordVocab()


def test_mask_count_follows_rate(mask_vocab):
    # floor(0.15 * 10) = 1; floor(0.15 * 40) = 6
    seq10, seq40 = plain_sequence(10), plain_sequence(40)
    assert len(apply_mlm_mask(seq10, mask_vocab, RngStream(1))[0]) == 1
    assert len(apply_mlm_mask(seq40, mask_vocab, RngStream(1))[0]) == 6


def test_mask_count_capped_at_max_predictions(mask_vocab):
    seq = plain_sequence(180)  # floor(0.15 * 180) = 27, capped at 20
    positions, labels, _ = apply_mlm_mask(seq, mask_vocab, RngStream(2))
    assert len(positions) == 20 and len(labels) == 20
    assert len(apply_mlm_mask(seq, mask_vocab, RngStream(2), max_predictions=5)[0]) == 5


def test_mask_targets_only_content_positions(mask_vocab):
    token_ids = [2, 30, 31, 3, 32, 33, 3, 0, 0]
    for seed in range(30):
        positions, labels, new_ids = apply_mlm_mask(token_ids, mask_vocab, RngStream(seed))
        assert positions == sorted(positions)
        for pos, label in zip(positions, labels):
            assert pos in (1, 2, 4, 5)  # never [CLS]/[SEP]/[PAD]
            assert label == token_ids[pos]
        changed = [i for i, (a, b) in enumerate(zip(token_ids, new_ids)) if a != b]
        assert set(changed) <= set(positions)


def test_mask_replacements_are_legal_ids(mask_vocab):
    seq = plain_sequence(60)
    for seed in range(20):
        positions, _, new_ids = apply_mlm_mask(seq, mask_vocab, RngStream(seed))
        for pos in positions:
            assert new_ids[pos] == MASK_ID or new_ids[pos] >= NUM_SPECIALS
            assert new_ids[pos] < mask_vocab.size


def test_mask_keep_branch_leaves_token_predicted(mask_vocab):
    # with enough draws some chosen position must keep its original id
    seq = plain_sequence(60)
    kept = 0
    for seed in range(40):
        positions, labels, new_ids = apply_mlm_mask(seq, mask_vocab, RngStream(seed))
        kept += sum(1 for p, l in zip(positions, labels) if new_ids[p] == l)
    assert kept > 0


def test_mask_input_validation(mask_vocab):
    with pytest.raises(ValueError, match="maskable"):
        apply_mlm_mask([2, 3], mask_vocab, RngStream(0))
    with pytest.raises(ValueError, match="mask_rate"):
        apply_mlm_mask(plain_sequence(5), mask_vocab, RngStream(0), mask_rate=0.0)
    with pytest.raises(ValueError, match="mask_rate"):
        apply_mlm_mask(plain_sequence(5), mask_vocab, RngStream(0), mask_rate=1.0)


# ---------------------------------------------------------------------------
# full pipeline and cache file
# ---------------------------------------------------------------------------

def test_build_pretrain_examples_invariants():
    rng = RngStream(55)
    examples = synthdata.ordered_examples(40, rng)
    assert isinstance(examples, np.recarray)
    assert examples.dtype == example_dtype(16, 20)
    assert len(examples) == 80  # 40 docs x 1 pair x dup_factor 2
    assert {SOP_IN_ORDER, SOP_SWAPPED} >= set(examples.sop_label.tolist())
    for ex in examples:
        used = ex.mlm_labels != IGNORE_INDEX
        n = int(used.sum())
        assert n >= 1 and used[:n].all()  # used slots first, then padding
        positions = ex.mlm_positions[:n]
        assert (np.diff(positions) > 0).all()
        assert (ex.mlm_positions[n:] == 0).all()
        assert (ex.input.attention_mask[positions] == 1).all()


def test_build_pretrain_examples_with_byte_vocab():
    vocab = train_vocab("alpha beta gamma delta " * 5, 280)
    docs = [["alpha beta gamma delta alpha beta", "delta gamma beta alpha delta gamma"]]
    examples = build_pretrain_examples(docs, vocab, RngStream(9), max_len=48)
    assert len(examples) == 1
    assert all(tok < vocab.size for tok in examples[0].input.token_ids)


def test_build_pretrain_examples_match_masking_per_pair():
    # the records hold exactly what pairing then masking produce, pair by pair
    docs = synthdata.ordered_docs(6, RngStream(4))
    vocab = synthdata.WordVocab()
    examples = build_pretrain_examples(docs, vocab, RngStream(8), max_len=16,
                                       max_predictions=3)
    rng = RngStream(8)
    pairs = make_sop_pairs(docs, rng, 1)
    assert len(examples) == len(pairs)
    for ex, (seg_a, seg_b, sop_label) in zip(examples, pairs):
        token_ids, type_ids = build_input_pair(vocab.encode(seg_a), vocab.encode(seg_b), 16)
        positions, labels, new_ids = apply_mlm_mask(token_ids, vocab, rng, max_predictions=3)
        n, pad = len(token_ids), 3 - len(positions)
        assert ex.input.token_ids.tolist() == new_ids + [PAD_ID] * (16 - n)
        assert ex.input.type_ids.tolist() == type_ids + [0] * (16 - n)
        assert ex.input.attention_mask.tolist() == [1] * n + [0] * (16 - n)
        assert ex.mlm_positions.tolist() == positions + [0] * pad
        assert ex.mlm_labels.tolist() == labels + [IGNORE_INDEX] * pad
        assert ex.sop_label == sop_label


def test_example_cache_round_trip(tmp_path):
    examples = synthdata.ordered_examples(10, RngStream(77))
    for name, batch in (("all.bin", examples), ("none.bin", examples[:0])):
        path = tmp_path / name
        write_examples(path, batch)
        assert path.stat().st_size == len(EXAMPLES_MAGIC) + 12 + len(batch) * batch.dtype.itemsize
        loaded = read_examples(path)
        assert isinstance(loaded, np.recarray)
        assert loaded.dtype == batch.dtype and len(loaded) == len(batch)
        for field in ("token_ids", "type_ids", "attention_mask"):
            assert np.array_equal(loaded.input[field], batch.input[field])
        for field in ("mlm_positions", "mlm_labels", "sop_label"):
            assert np.array_equal(loaded[field], batch[field])
    assert loaded.input.token_ids.shape == (0, 16)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["all.bin", "none.bin"]


def _v1_cache(examples) -> bytes:
    """The retired per-record struct format: magic, u32 count, then per record
    a u32 byte length and u32 fields T, tokens, types, mask, n, positions,
    labels, sop."""
    out = [b"ABPT\x001", struct.pack("<I", len(examples))]
    for ex in examples:
        n = int((ex.mlm_labels != IGNORE_INDEX).sum())
        fields = [len(ex.input.token_ids), *ex.input.token_ids.tolist(),
                  *ex.input.type_ids.tolist(), *ex.input.attention_mask.tolist(), n,
                  *ex.mlm_positions[:n].tolist(), *ex.mlm_labels[:n].tolist(),
                  int(ex.sop_label)]
        body = struct.pack(f"<{len(fields)}I", *fields)
        out += [struct.pack("<I", len(body)), body]
    return b"".join(out)


def test_example_cache_rejects_corruption(tmp_path):
    examples = synthdata.ordered_examples(4, RngStream(42))
    path = tmp_path / "examples.bin"
    write_examples(path, examples)
    raw = path.read_bytes()
    assert raw.startswith(EXAMPLES_MAGIC)
    head = len(EXAMPLES_MAGIC) + 12
    assert struct.unpack_from("<3I", raw, len(EXAMPLES_MAGIC)) == (8, 16, 20)
    body = raw[head:]

    def header(n, t, p):
        return EXAMPLES_MAGIC + struct.pack("<3I", n, t, p)

    cases = {
        "truncated.bin": (raw[:-7], "needs"),
        "truncated_header.bin": (raw[:head - 1], "truncated"),
        "trailing.bin": (raw + b"\0", "needs"),
        "badmagic.bin": (b"XXXX" + raw[4:], "magic"),
        "wrong_t.bin": (header(8, 17, 20) + body, "T=17"),
        "wrong_p.bin": (header(8, 16, 19) + body, "P=19"),
        "v1.bin": (_v1_cache(examples), "magic"),
    }
    for name, (data, reason) in cases.items():
        bad = tmp_path / name
        bad.write_bytes(data)
        with pytest.raises(CorpusError) as err:
            read_examples(bad)
        message = str(err.value)
        assert message.startswith(f"{bad}: ") and reason in message, name
        assert "\n" not in message


def test_example_cache_rejects_values_no_builder_writes(tmp_path):
    examples = synthdata.ordered_examples(4, RngStream(43))
    n = int(examples[2]["input"]["attention_mask"].sum())
    assert examples[2]["mlm_labels"][0] != IGNORE_INDEX

    def type_id(ex):
        ex["input"]["type_ids"][0] = 2

    def mask_gap(ex):
        ex["input"]["attention_mask"][1] = 0  # a zero before the last real position

    def mask_value(ex):
        ex["input"]["attention_mask"][0] = 2

    def position(ex):
        ex["mlm_positions"][0] = n  # one past the real length

    def label(ex):
        ex["mlm_labels"][0] = -5

    def sop(ex):
        ex["sop_label"] = 2

    cases = [(type_id, "a type id outside {0, 1}"),
             (mask_gap, "an attention mask that is not a prefix of ones"),
             (mask_value, "an attention mask that is not a prefix of ones"),
             (position, "an MLM position outside its real length"),
             (label, f"an MLM label below 0 other than {IGNORE_INDEX}"),
             (sop, "a sop_label outside {0, 1}")]
    for edit_example, what in cases:
        bad = np.array(examples)
        edit_example(bad[2])
        path = tmp_path / f"{edit_example.__name__}.bin"
        write_examples(path, bad)
        with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}: example 2 has "
                                              rf"{re.escape(what)}$"):
            read_examples(path)
    # an unused slot's position is never read, and IGNORE_INDEX is its label
    fine = np.array(examples)
    fine["mlm_positions"][fine["mlm_labels"] == IGNORE_INDEX] = 99
    write_examples(tmp_path / "fine.bin", fine)
    assert np.array_equal(read_examples(tmp_path / "fine.bin")["mlm_positions"],
                          fine["mlm_positions"])
