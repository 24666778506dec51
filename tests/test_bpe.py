"""Byte-level BPE: training, greedy encoding, serialization, pair layout.

Merge arithmetic for the small corpora is worked out by hand in each test;
ids are NUM_SPECIALS + piece index, so the first learned merge always gets
id 261 (5 specials + 256 byte pieces).
"""

from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanoalbert.bpe import (
    CLS_ID,
    MASK_ID,
    MIN_VOCAB_SIZE,
    NUM_SPECIALS,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Vocab,
    _merge_pair,
    build_input_pair,
    load_vocab,
    save_vocab,
    train_vocab,
)
from nanoalbert.rng import RngStream


def test_special_token_layout():
    assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID) == (0, 1, 2, 3, 4)
    assert NUM_SPECIALS == 5
    assert MIN_VOCAB_SIZE == 261


def test_base_vocab_covers_every_byte():
    vocab = train_vocab("anything at all here", MIN_VOCAB_SIZE)
    assert vocab.size == 261
    data = bytes(range(256))
    assert vocab.decode_bytes(vocab.encode(data)) == data


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_first_merge_is_most_frequent_pair():
    # "abab" x2: pair (a,b) occurs 4 times, (b,a) twice
    vocab = train_vocab("abab abab", 262)
    assert vocab.merges == [(b"a", b"b")]
    assert vocab.encode("abab") == [261, 261]


def test_tied_pairs_break_lexicographically():
    # (a,a) and (b,b) both occur twice; (a,a) sorts first
    vocab = train_vocab("aa bb aa bb", 262)
    assert vocab.merges == [(b"a", b"a")]


def test_training_stops_when_no_pair_repeats():
    # every word unique, every pair count 1 -> no merges despite big target
    vocab = train_vocab("abc def ghi", 300)
    assert vocab.merges == []
    assert vocab.size == 261


def test_target_size_validation():
    with pytest.raises(ValueError, match="261"):
        train_vocab("some words here", 260)
    with pytest.raises(ValueError, match="empty"):
        train_vocab("   \n  ", 300)


def test_training_is_deterministic():
    corpus = "thermal theme the thesis there therefore "
    a = train_vocab(corpus * 3, 270)
    b = train_vocab(corpus * 3, 270)
    assert a.merges == b.merges
    assert a.encode("therefore") == b.encode("therefore")


def test_merges_compose_transitively():
    corpus = "abc abc abc"
    vocab = train_vocab(corpus, 263)
    # (a,b) wins round one (tie with (b,c), lexicographic), then (ab,c)
    assert vocab.merges == [(b"a", b"b"), (b"ab", b"c")]
    assert vocab.encode("abc") == [vocab.piece_id(b"abc")]


# ---------------------------------------------------------------------------
# exactness against a full recount per merge
# ---------------------------------------------------------------------------

def reference_train_vocab(corpus: str, target_size: int) -> Vocab:
    """The trainer before incremental counts: recount every pair each merge."""
    word_freqs: dict[bytes, int] = {}
    for word in corpus.split():
        w = word.encode("utf-8")
        word_freqs[w] = word_freqs.get(w, 0) + 1
    words = [
        ([w[i : i + 1] for i in range(len(w))], freq)
        for w, freq in sorted(word_freqs.items())
    ]
    pieces = [bytes([b]) for b in range(256)]
    known = set(pieces)
    merges: list[tuple[bytes, bytes]] = []

    while len(known) + NUM_SPECIALS < target_size:
        counts: dict[tuple[bytes, bytes], int] = {}
        for symbols, freq in words:
            for pair in zip(symbols, symbols[1:]):
                counts[pair] = counts.get(pair, 0) + freq
        if not counts:
            break
        top = max(counts.values())
        if top < 2:
            break
        best = min(pair for pair, c in counts.items() if c == top)
        merges.append(best)
        merged = best[0] + best[1]
        if merged not in known:
            known.add(merged)
            pieces.append(merged)
        words = [
            (_merge_pair(symbols, *best) if merged in b"".join(symbols) else symbols, freq)
            for symbols, freq in words
        ]
    return Vocab(pieces, merges)


def assert_same_as_reference(corpus: str, target_size: int) -> Vocab:
    got = train_vocab(corpus, target_size)
    want = reference_train_vocab(corpus, target_size)
    assert got.merges == want.merges
    assert got._id_pieces == want._id_pieces
    return got


@pytest.mark.parametrize("corpus, target_size", [
    ("abab abab", 262),
    ("aa bb aa bb", 262),
    ("abc def ghi", 300),
    ("thermal theme the thesis there therefore " * 3, 270),
    ("abc abc abc", 263),
    ("the theme thermal there " * 4, 270),
    ("plain ascii training text", 265),
    ("receptor receptors reception " * 3, 268),
    ("anything at all here", MIN_VOCAB_SIZE),
])
def test_training_matches_full_recount_on_worked_corpora(corpus, target_size):
    assert_same_as_reference(corpus, target_size)


# Repeat-prone symbols give ties and overlapping runs such as "aaaa"; the
# multi-byte letters give merges inside a character.
_SYMBOLS = ["a", "aa", "ab", "b", "c", "é", "α"]
_WORDS = st.lists(st.sampled_from(_SYMBOLS), min_size=1, max_size=6).map("".join)


@settings(max_examples=300, deadline=None, database=None)
@given(words=st.lists(_WORDS, min_size=1, max_size=30),
       target_size=st.integers(MIN_VOCAB_SIZE, 340))
def test_training_matches_full_recount_on_random_corpora(words, target_size):
    assert_same_as_reference(" ".join(words), target_size)


def test_training_matches_full_recount_on_zipfian_corpus():
    rng = RngStream(2024)
    syllables = ["ka", "ro", "mi", "the", "ase", "in", "ol", "yl", "é", "α"]
    lexicon = ["".join(syllables[rng.randint(len(syllables))]
                       for _ in range(1 + rng.randint(4))) for _ in range(400)]
    bounds = list(accumulate(1 / rank for rank in range(1, len(lexicon) + 1)))
    corpus = " ".join(lexicon[bisect_right(bounds, rng.uniform() * bounds[-1])]
                      for _ in range(3000))
    vocab = assert_same_as_reference(corpus, 600)
    assert len(vocab.merges) > 100


# ---------------------------------------------------------------------------
# encoding / decoding
# ---------------------------------------------------------------------------

def test_encode_applies_merges_by_rank():
    base = train_vocab("x", MIN_VOCAB_SIZE)
    vocab = Vocab(base._id_pieces + [b"bc", b"ab"], [(b"b", b"c"), (b"a", b"b")])
    # rank 0 fires first, leaving (a, bc) which is not a merge
    assert vocab.encode("abc") == [vocab.piece_id(b"a"), vocab.piece_id(b"bc")]


def test_encode_empty_and_decode_drop_specials():
    vocab = train_vocab("x y", MIN_VOCAB_SIZE)
    assert vocab.encode("") == []
    ids = [CLS_ID, *vocab.encode("xy"), SEP_ID, PAD_ID]
    assert vocab.decode(ids) == "xy"


def test_duplicate_pieces_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Vocab([b"a", b"a"], [])


def test_byte_string_round_trip():
    vocab = train_vocab("the theme thermal there " * 4, 270)
    rng = RngStream(606)
    for _ in range(1000):
        data = bytes(rng.randint(256) for _ in range(rng.randint(24)))
        assert vocab.decode_bytes(vocab.encode(data)) == data


def test_utf8_round_trip():
    vocab = train_vocab("plain ascii training text", 265)
    for text in ["héllo", "α-β blocker", "naïve", ""]:
        assert vocab.decode(vocab.encode(text)) == text


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    vocab = train_vocab("receptor receptors reception " * 3, 268)
    assert vocab.merges  # the corpus must actually produce merges
    save_vocab(vocab, tmp_path / "vocab.txt", tmp_path / "merges.txt")
    loaded = load_vocab(tmp_path / "vocab.txt", tmp_path / "merges.txt")
    assert loaded.size == vocab.size
    assert loaded.merges == vocab.merges
    assert loaded.encode("receptors") == vocab.encode("receptors")
    data = bytes(range(256))  # non-printable pieces survive the text format
    assert loaded.decode_bytes(loaded.encode(data)) == data


def test_load_rejects_malformed_vocab(tmp_path):
    bad = tmp_path / "vocab.txt"
    merges = tmp_path / "merges.txt"
    merges.write_text("")
    bad.write_text("justonefield\n")
    with pytest.raises(ValueError, match="vocab.txt:1"):
        load_vocab(bad, merges)
    bad.write_text("[PAD]\t0\n[UNK]\t5\n")
    with pytest.raises(ValueError, match="dense"):
        load_vocab(bad, merges)
    bad.write_text("[PAD]\t0\n[WRONG]\t1\n")
    with pytest.raises(ValueError, match="special"):
        load_vocab(bad, merges)


def test_load_rejects_malformed_merges(tmp_path):
    vocab = train_vocab("x", MIN_VOCAB_SIZE)
    save_vocab(vocab, tmp_path / "vocab.txt", tmp_path / "merges.txt")
    (tmp_path / "merges.txt").write_text("a\tb\tc\n")
    with pytest.raises(ValueError, match="merges.txt:1"):
        load_vocab(tmp_path / "vocab.txt", tmp_path / "merges.txt")


def test_load_rejects_merge_of_unknown_pieces(tmp_path):
    vocab = train_vocab("abab abab", 262)
    save_vocab(vocab, tmp_path / "vocab.txt", tmp_path / "merges.txt")
    good = (tmp_path / "merges.txt").read_text()
    (tmp_path / "merges.txt").write_text(good + "x\ty\n")
    with pytest.raises(ValueError, match=r"merges.txt:2: piece 'xy' is not in the vocabulary"):
        load_vocab(tmp_path / "vocab.txt", tmp_path / "merges.txt")
    (tmp_path / "merges.txt").write_text(good + "abc\td\n")
    with pytest.raises(ValueError, match=r"merges.txt:2: piece 'abc' is not"):
        load_vocab(tmp_path / "vocab.txt", tmp_path / "merges.txt")


def test_load_names_line_of_undecodable_piece(tmp_path):
    vocab = train_vocab("x", MIN_VOCAB_SIZE)
    save_vocab(vocab, tmp_path / "vocab.txt", tmp_path / "merges.txt")
    lines = (tmp_path / "vocab.txt").read_text().splitlines(keepends=True)
    (tmp_path / "vocab.txt").write_text("".join(lines) + "\x01\t261\n")
    with pytest.raises(ValueError, match=r"vocab.txt:262: invalid piece character '\\x01'"):
        load_vocab(tmp_path / "vocab.txt", tmp_path / "merges.txt")
    (tmp_path / "vocab.txt").write_text("".join(lines))
    (tmp_path / "merges.txt").write_text("a\t\x01\n")
    with pytest.raises(ValueError, match=r"merges.txt:1: invalid piece character"):
        load_vocab(tmp_path / "vocab.txt", tmp_path / "merges.txt")


# ---------------------------------------------------------------------------
# input-pair assembly
# ---------------------------------------------------------------------------

def test_single_segment_layout():
    assert build_input_pair([7, 8], [], max_len=6) == ([CLS_ID, 7, 8, SEP_ID], [0, 0, 0, 0])


def test_pair_layout_and_type_ids():
    token_ids, type_ids = build_input_pair([7], [8, 9], max_len=6)
    assert token_ids == [CLS_ID, 7, SEP_ID, 8, 9, SEP_ID]
    assert type_ids == [0, 0, 0, 1, 1, 1]


def test_exact_fit_needs_no_padding():
    token_ids, _ = build_input_pair([5], [6], max_len=5)
    assert token_ids == [CLS_ID, 5, SEP_ID, 6, SEP_ID]


def test_truncation_trims_longer_segment_ties_to_b():
    # 400 + 300 tokens into 512 slots: budget 509, longest-first popping
    # lands on 255 A tokens and 254 B tokens
    token_ids, type_ids = build_input_pair([10] * 400, [11] * 300, max_len=512)
    assert len(token_ids) == len(type_ids) == 512
    assert token_ids.count(10) == 255
    assert token_ids.count(11) == 254
    assert token_ids.count(SEP_ID) == 2


def test_truncation_never_empties_a_segment():
    token_ids, _ = build_input_pair([5] * 10, [6], max_len=5)
    assert token_ids == [CLS_ID, 5, SEP_ID, 6, SEP_ID]


def test_max_len_too_small_rejected():
    with pytest.raises(ValueError, match="too small"):
        build_input_pair([5], [6], max_len=4)
    with pytest.raises(ValueError, match="too small"):
        build_input_pair([5], [], max_len=2)

