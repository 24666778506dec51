"""Byte-level BPE vocabulary plus model-input assembly.

Pieces are byte strings: the base alphabet is all 256 single bytes, so any
text (or arbitrary byte string) encodes losslessly and decodes back exactly.
Training greedily merges the most frequent adjacent pair, ties broken by
lexicographically smallest pair. Five special tokens occupy fixed ids.

On disk a vocabulary is two text files: ``piece<TAB>id`` lines (specials
first) and an ordered ``left<TAB>right`` merge list. Raw bytes are mapped to
printable characters for serialization so the files stay valid UTF-8.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heapify, heappop, heappush
from itertools import accumulate, compress

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
MASK_ID = 4
SPECIAL_NAMES = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
NUM_SPECIALS = len(SPECIAL_NAMES)
MIN_VOCAB_SIZE = 256 + NUM_SPECIALS


def _byte_char_tables() -> tuple[dict[int, str], dict[str, int]]:
    # Printable bytes map to themselves, the rest to U+0100.. in order.
    visible = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(0xA1, 0xAC + 1))
        + list(range(0xAE, 0xFF + 1))
    )
    chars = {b: chr(b) for b in visible}
    offset = 0
    for b in range(256):
        if b not in chars:
            chars[b] = chr(256 + offset)
            offset += 1
    return chars, {c: b for b, c in chars.items()}


_BYTE_TO_CHAR, _CHAR_TO_BYTE = _byte_char_tables()


def piece_to_text(piece: bytes) -> str:
    return "".join(_BYTE_TO_CHAR[b] for b in piece)


def text_to_piece(text: str) -> bytes:
    try:
        return bytes(_CHAR_TO_BYTE[c] for c in text)
    except KeyError as exc:
        raise ValueError(f"invalid piece character {exc.args[0]!r}") from None


class Vocab:
    """Immutable subword vocabulary: piece table plus ordered merge list."""

    def __init__(self, content_pieces: list[bytes], merges: list[tuple[bytes, bytes]]):
        if len(set(content_pieces)) != len(content_pieces):
            raise ValueError("duplicate pieces")
        self.merges = list(merges)
        self._merge_rank = {pair: i for i, pair in enumerate(merges)}
        self._piece_ids = {
            p: NUM_SPECIALS + i for i, p in enumerate(content_pieces)
        }
        self._id_pieces = list(content_pieces)
        self.size = NUM_SPECIALS + len(content_pieces)

    def piece_id(self, piece: bytes) -> int:
        return self._piece_ids[piece]

    def encode(self, text: str | bytes) -> list[int]:
        """Greedy merge application over the byte sequence; no specials added."""
        data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        if not data:
            return []
        symbols = [data[i : i + 1] for i in range(len(data))]
        while len(symbols) > 1:
            best_rank = None
            for pair in zip(symbols, symbols[1:]):
                rank = self._merge_rank.get(pair)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
            if best_rank is None:
                break
            left, right = self.merges[best_rank]
            symbols = _merge_pair(symbols, left, right)
        return [self._piece_ids[s] for s in symbols]

    def decode_bytes(self, ids) -> bytes:
        """Concatenate piece bytes; special ids are dropped."""
        return b"".join(
            self._id_pieces[i - NUM_SPECIALS] for i in ids if i >= NUM_SPECIALS
        )

    def decode(self, ids) -> str:
        return self.decode_bytes(ids).decode("utf-8")


def _merge_pair(symbols: list[bytes], left: bytes, right: bytes) -> list[bytes]:
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def _add_pairs(counts: dict, symbols: list[bytes], freq: int) -> None:
    """Add freq to the count of each adjacent pair; a count of 0 is deleted."""
    for pair in zip(symbols, symbols[1:]):
        count = counts.get(pair, 0) + freq
        if count:
            counts[pair] = count
        else:
            del counts[pair]


def train_vocab(corpus: str, vocab_size: int) -> Vocab:
    """Learn merges from whitespace-split words until vocab_size pieces exist.

    Each round merges the most frequent adjacent pair, ties broken by the
    lexicographically smallest pair, and training stops early once no pair
    occurs twice. vocab_size counts distinct pieces including specials and
    the 256-byte base alphabet, so the smallest legal value is 261 (zero
    merges).

    Pair counts are taken once. A merge rewrites only the words that hold its
    bytes and moves their counts from the old split to the new one (Sennrich
    et al., arXiv 1508.07909), so each round sees exactly the counts a full
    recount would give, and the merges are the same. A merge lowers or keeps
    every count except those of pairs holding the merged piece, so the top
    count and the pairs tied at it are carried between rounds; all counts
    are scanned again only when the tied pairs run out.
    """
    if vocab_size < MIN_VOCAB_SIZE:
        raise ValueError(f"vocab_size must be >= {MIN_VOCAB_SIZE}")
    word_freqs: dict[bytes, int] = {}
    for word in corpus.split():
        w = word.encode("utf-8")
        word_freqs[w] = word_freqs.get(w, 0) + 1
    if not word_freqs:
        raise ValueError("empty corpus")

    distinct = sorted(word_freqs)
    freqs = [word_freqs[w] for w in distinct]
    words = [[w[i : i + 1] for i in range(len(w))] for w in distinct]
    # Words hold no space byte, so a match in the joined text lies in one word.
    text = b" ".join(distinct)
    starts = list(accumulate((len(w) + 1 for w in distinct[:-1]), initial=0))
    counts: dict[tuple[bytes, bytes], int] = {}
    for symbols, freq in zip(words, freqs):
        _add_pairs(counts, symbols, freq)
    pieces = [bytes([b]) for b in range(256)]
    known = set(pieces)
    merges: list[tuple[bytes, bytes]] = []
    top, tied = 0, []  # a heap of pairs; every pair whose count is top is in it

    while len(known) + NUM_SPECIALS < vocab_size:
        while tied and counts.get(tied[0]) != top:
            heappop(tied)
        if not tied:
            top = max(counts.values(), default=0)
            if top < 2:
                break
            tied = list(compress(counts, map(top.__eq__, counts.values())))
            heapify(tied)
        best = heappop(tied)
        merges.append(best)
        merged = best[0] + best[1]
        if merged not in known:
            known.add(merged)
            pieces.append(merged)
        grown = set()
        pos = text.find(merged)
        while pos >= 0:
            i = bisect_right(starts, pos) - 1
            symbols = words[i]
            new = _merge_pair(symbols, *best)
            if len(new) < len(symbols):  # else the match straddled symbols
                _add_pairs(counts, symbols, -freqs[i])
                _add_pairs(counts, new, freqs[i])
                words[i] = new
                grown.update(p for p in zip(new, new[1:]) if merged in p)
            pos = text.find(merged, starts[i] + len(distinct[i]))
        # Only pairs holding the merged piece gain. None passes top unless
        # that piece was already known, so a new top resets the tied heap.
        for pair in grown:
            count = counts[pair]
            if count > top:
                top, tied = count, []
            if count == top:
                heappush(tied, pair)
    return Vocab(pieces, merges)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_vocab(vocab: Vocab, vocab_path, merges_path) -> None:
    with open(vocab_path, "w", encoding="utf-8", newline="\n") as f:
        for i, name in enumerate(SPECIAL_NAMES):
            f.write(f"{name}\t{i}\n")
        for i, piece in enumerate(vocab._id_pieces):
            f.write(f"{piece_to_text(piece)}\t{NUM_SPECIALS + i}\n")
    with open(merges_path, "w", encoding="utf-8", newline="\n") as f:
        for left, right in vocab.merges:
            f.write(f"{piece_to_text(left)}\t{piece_to_text(right)}\n")


def _piece_at(path, lineno: int, text: str) -> bytes:
    try:
        return text_to_piece(text)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno + 1}: {exc}") from None


def load_vocab(vocab_path, merges_path) -> Vocab:
    """Read a saved vocabulary; each error names its file and line."""
    pieces = []
    with open(vocab_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                text, id_text = line.split("\t")
                idx = int(id_text)
            except ValueError:
                raise ValueError(f"{vocab_path}:{lineno + 1}: malformed vocab line")
            if idx != lineno:
                raise ValueError(f"{vocab_path}:{lineno + 1}: ids must be dense")
            if lineno < NUM_SPECIALS:
                if text != SPECIAL_NAMES[lineno]:
                    raise ValueError(f"{vocab_path}:{lineno + 1}: bad special token")
            else:
                pieces.append(_piece_at(vocab_path, lineno, text))
    known = set(pieces)
    merges = []
    with open(merges_path, encoding="utf-8") as f:
        for lineno, line in enumerate(f):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{merges_path}:{lineno + 1}: malformed merge line")
            left, right = (_piece_at(merges_path, lineno, text) for text in parts)
            for piece in (left, right, left + right):
                if piece not in known:
                    raise ValueError(f"{merges_path}:{lineno + 1}: piece "
                                     f"{piece_to_text(piece)!r} is not in the vocabulary")
            merges.append((left, right))
    return Vocab(pieces, merges)


# ---------------------------------------------------------------------------
# model-input assembly
# ---------------------------------------------------------------------------

def build_input_pair(seg_a, seg_b, max_len: int) -> tuple[list[int], list[int]]:
    """Token and segment ids of [CLS] A [SEP] (B [SEP]), unpadded.

    Over-length inputs lose tokens from the tail of whichever segment is
    currently longer (ties truncate B) until the pair fits in max_len; a
    non-empty segment is never truncated away entirely.
    """
    a = list(seg_a)
    b = list(seg_b) if seg_b else []
    overhead = 3 if b else 2
    if max_len < overhead + (2 if b else 1):
        raise ValueError(f"max_len {max_len} too small for special tokens")
    budget = max_len - overhead
    while len(a) + len(b) > budget:
        if len(a) > len(b):
            a.pop()
        else:
            b.pop()

    ids = [CLS_ID, *a, SEP_ID]
    types = [0] * len(ids)
    if b:
        ids += [*b, SEP_ID]
        types += [1] * (len(b) + 1)
    return ids, types
