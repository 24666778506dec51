"""Byte-level BPE: training, greedy encoding, serialization, pair layout.

Merge arithmetic for the small corpora is worked out by hand in each test;
ids are NUM_SPECIALS + piece index, so the first learned merge always gets
id 261 (5 specials + 256 byte pieces).
"""

import hashlib
import signal
import tracemalloc
from bisect import bisect_right
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanoalbert import bpe
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
    piece_to_text,
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


@pytest.mark.parametrize("corpus, target_size, merges", [
    # adjacent sites: ababab -> ab ab ab, so (ab,ab) counts 2 there + 1 in abab
    ("ababab abab", 265, [(b"a", b"b"), (b"ab", b"ab")]),
    # odd runs of (a,a): aaaaa -> aa aa a and aaa -> aa a, so (aa,a) counts 2
    ("aaaaa aaa", 265, [(b"a", b"a"), (b"aa", b"a")]),
    # after (a,b), "bc" straddles ab|c in abc but is a site in bcd, so (b,c)
    # counts 3 and beats (ab,c) at 1, tying (c,d) at 3
    ("ab ab ab ab abc bcd bcd bcd", 264,
     [(b"a", b"b"), (b"b", b"c"), (b"bc", b"d")]),
    # (ab,a) is made at the first site of abab and removed at the second, so
    # it counts only aba's 3 and loses to (c,d) at 4
    ("abab abab aba aba aba cd cd cd cd", 263, [(b"a", b"b"), (b"c", b"d")]),
    # a stale heap entry: (a,b) at 7 makes (ab,z) at 5, pushed; (z,y) at 6
    # then cuts it to 2. Its entry at 5 tops the heap and is pushed again at
    # 2, below (c,d) at 4 and (ab,zy) at 3
    ("abzy abzy abzy abz abz zy zy zy ab ab cd cd cd cd", 266,
     [(b"a", b"b"), (b"z", b"y"), (b"c", b"d"), (b"ab", b"zy"), (b"ab", b"z")]),
    # a heap tie: (a,b) at 5 makes (ab,c) at 3, pushed, tying (d,e) at 3
    # from the first heap; (ab,c) sorts first
    ("abc abc abc ab ab de de de", 264, [(b"a", b"b"), (b"ab", b"c"), (b"d", b"e")]),
    # the same tie against (a,c), which sorts before (ab,c)
    ("abc abc abc ab ab ac ac ac", 264, [(b"a", b"b"), (b"a", b"c"), (b"ab", b"c")]),
])
def test_merge_sites_worked_by_hand(corpus, target_size, merges):
    assert assert_same_as_reference(corpus, target_size).merges == merges


def test_pair_counts_out_of_step_with_the_words_raise(monkeypatch):
    # One dropped decrement leaves (a,b) counted after its merge. Unchecked,
    # the trainer picks it again forever, so an alarm bounds the run.
    add_count, dropped = bpe._add_count, []

    def dropping_first_decrement(counts, where, pair, freq, word):
        if freq < 0 and not dropped:
            dropped.append(pair)
        else:
            add_count(counts, where, pair, freq, word)

    def out_of_time(signum, frame):
        raise TimeoutError("train_vocab did not end within 10 s")

    monkeypatch.setattr(bpe, "_add_count", dropping_first_decrement)
    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 10)
    try:
        with pytest.raises(RuntimeError, match=r"^pair \(b'a', b'b'\) is still counted after "
                                               r"its merge: the pair counts are out of step"):
            train_vocab("ab ab ab", 263)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert dropped == [ord("a") * 263 + ord("b")]  # the key of (a, b) at vocab_size 263


# Repeat-prone symbols give ties and overlapping runs such as "aaaa"; the
# multi-byte letters give merges inside a character.
_SYMBOLS = ["a", "aa", "ab", "b", "c", "é", "α"]
_WORDS = st.lists(st.sampled_from(_SYMBOLS), min_size=1, max_size=6).map("".join)


@settings(max_examples=300, deadline=None, database=None)
@given(words=st.lists(_WORDS, min_size=1, max_size=30),
       target_size=st.integers(MIN_VOCAB_SIZE, 340))
def test_training_matches_full_recount_on_random_corpora(words, target_size):
    assert_same_as_reference(" ".join(words), target_size)


def zipfian_corpus(seed: int, syllables: list[str], lexicon_size: int, num_words: int) -> str:
    """num_words words drawn with p(rank) ~ 1/rank from a lexicon of words
    of one to four syllables."""
    rng = RngStream(seed)
    lexicon = ["".join(syllables[rng.randint(len(syllables))]
                       for _ in range(1 + rng.randint(4))) for _ in range(lexicon_size)]
    bounds = list(accumulate(1 / rank for rank in range(1, len(lexicon) + 1)))
    return " ".join(lexicon[bisect_right(bounds, rng.uniform() * bounds[-1])]
                    for _ in range(num_words))


def test_training_matches_full_recount_on_zipfian_corpus():
    syllables = ["ka", "ro", "mi", "the", "ase", "in", "ol", "yl", "é", "α"]
    vocab = assert_same_as_reference(zipfian_corpus(2024, syllables, 400, 3000), 600)
    assert len(vocab.merges) > 100


@pytest.fixture(scope="module")
def benchmark_scale_corpus() -> str:
    """About the `vocab` benchmark's corpus size: 30,000 words, 1,000 pieces
    wanted. The recount reference is too slow here."""
    syllables = [onset + vowel + coda for onset in ["", *"bdgklmnprstvz", "th"]
                 for vowel in "aeiou" for coda in ["", "n", "r", "s"]] + ["é", "α"]
    return zipfian_corpus(33, syllables, 10_000, 30_000)


# sha256 of merges.txt for benchmark_scale_corpus at 1,000 pieces, as the
# trainer that found the top count by rescanning every pair count wrote it.
BENCHMARK_SCALE_MERGES_SHA256 = "87040e05c6e5698a4790396146771d6e2ffeb5a1ee2d4dae0a00fce73ff4aace"
# The same at 3,000 pieces, as the trainer that found each merge's words by
# a substring search over the space-joined words wrote it: late merges are
# where stale and dropped pair -> word index entries would show.
BENCHMARK_SCALE_DEEP_MERGES_SHA256 = (
    "aa0b2df61b66cf74add470587e2c2375b08776cb9071d5576006a746d3255046")
# tracemalloc peak of train_vocab(benchmark_scale_corpus, 1000) under that
# trainer: 2,419,378 B (Python 3.11.7). The lazy heap of pair counts took it
# to 3,129,730 B (1.29x). A pair -> word index that keeps each pair's list
# only while the pair can still be merged reads 3,083,042 B (1.27x).
BENCHMARK_SCALE_PEAK_BOUND = 1.5 * 2_419_378


def test_merges_pinned_at_benchmark_scale(benchmark_scale_corpus, tmp_path):
    for size, merges, pinned in [(1000, 739, BENCHMARK_SCALE_MERGES_SHA256),
                                 (3000, 2739, BENCHMARK_SCALE_DEEP_MERGES_SHA256)]:
        vocab = train_vocab(benchmark_scale_corpus, size)
        assert len(vocab.merges) == merges
        save_vocab(vocab, tmp_path / "vocab.txt", tmp_path / "merges.txt")
        digest = hashlib.sha256((tmp_path / "merges.txt").read_bytes()).hexdigest()
        assert digest == pinned, size


def test_training_memory_at_benchmark_scale(benchmark_scale_corpus):
    tracemalloc.start()
    try:
        train_vocab(benchmark_scale_corpus, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BENCHMARK_SCALE_PEAK_BOUND, peak


# ---------------------------------------------------------------------------
# encoding / decoding
# ---------------------------------------------------------------------------

def reference_encode(vocab: Vocab, text: str | bytes) -> list[int]:
    """The encoder before per-chunk caching: greedy merging over the whole
    byte sequence, rescanning every pair at every merge."""
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    if not data:
        return []
    symbols = [data[i : i + 1] for i in range(len(data))]
    while len(symbols) > 1:
        best_rank = None
        for pair in zip(symbols, symbols[1:]):
            rank = vocab._merge_rank.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
        if best_rank is None:
            break
        left, right = vocab.merges[best_rank]
        symbols = _merge_pair(symbols, left, right)
    return [vocab.piece_id(s) for s in symbols]


# Every ASCII whitespace byte, the Unicode spaces that str.split() cuts at
# but that encode to bytes >= 0x80, and repeat-prone and multi-byte letters.
_ASCII_SPACES = [chr(b) for b in [*range(0x09, 0x0E), *range(0x1C, 0x21)]]
_TEXT_SYMBOLS = _SYMBOLS + [" ", "\u0085", "\u3000"]
_TEXTS = st.lists(
    st.one_of(st.sampled_from(_TEXT_SYMBOLS),
              st.lists(st.sampled_from(_ASCII_SPACES), min_size=1, max_size=3).map("".join)),
    max_size=40,
).map("".join)


@settings(max_examples=300, deadline=None, database=None)
@given(words=st.lists(_WORDS, min_size=1, max_size=30),
       target_size=st.integers(MIN_VOCAB_SIZE, 320),
       texts=st.lists(_TEXTS, min_size=1, max_size=5))
def test_encode_matches_whole_text_reference(words, target_size, texts):
    vocab = train_vocab(" ".join(words), target_size)
    for text in texts + words:
        want = reference_encode(vocab, text)
        got = vocab.encode(text)
        assert got == want
        got[:] = [-1]  # a caller's list is its own: the cache keeps its ids
        assert vocab.encode(text.encode("utf-8")) == want


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


def test_load_rejects_merge_holding_whitespace(tmp_path):
    vocab = train_vocab("abab abab", 262)
    save_vocab(Vocab(vocab._id_pieces + [b"a "], vocab.merges),
               tmp_path / "vocab.txt", tmp_path / "merges.txt")
    good = (tmp_path / "merges.txt").read_text()
    (tmp_path / "merges.txt").write_text(good + f"a\t{piece_to_text(b' ')}\n")
    with pytest.raises(ValueError, match=r"merges.txt:2: merge 'a.' holds a whitespace byte"):
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


def test_load_refuses_vocab_and_merges_from_two_runs(tmp_path, monkeypatch):
    # a bigger vocabulary saved over a smaller one, with the merges.txt
    # write failing: the old merges are a prefix of the new ones and the new
    # vocab.txt holds all their pieces, so every per-line check passes
    corpus = "receptor receptors reception recess " * 3
    small, big = train_vocab(corpus, 264), train_vocab(corpus, 270)
    assert big.merges[: len(small.merges)] == small.merges != big.merges
    vocab_path, merges_path = tmp_path / "vocab.txt", tmp_path / "merges.txt"
    save_vocab(small, vocab_path, merges_path)
    real = bpe.write_file

    def failing(path, content):
        if path == merges_path:
            raise OSError(f"cannot write {path}: [Errno 28] No space left on device")
        real(path, content)

    monkeypatch.setattr(bpe, "write_file", failing)
    with pytest.raises(OSError, match="No space left"):
        save_vocab(big, vocab_path, merges_path)
    first_extra = 256 + len(small.merges)
    with pytest.raises(ValueError) as refused:
        load_vocab(vocab_path, merges_path)
    assert str(refused.value) == (
        f"{vocab_path}:{NUM_SPECIALS + first_extra + 1}: "
        f"{piece_to_text(big._id_pieces[first_extra])!r} where {merges_path} implies no piece; "
        "the two files are not one vocabulary")


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

