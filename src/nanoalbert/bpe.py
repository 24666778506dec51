"""Byte-level BPE vocabulary plus model-input assembly.

Pieces are byte strings: the base alphabet is all 256 single bytes, so any
text (or arbitrary byte string) encodes losslessly and decodes back exactly.
Training greedily merges the most frequent adjacent pair, ties broken by
lexicographically smallest pair. Five special tokens occupy fixed ids.

No merge holds an ASCII whitespace byte, so encoding merges each chunk
between whitespace once, through a cache on the vocabulary.

On disk a vocabulary is two text files: ``piece<TAB>id`` lines (specials
first) and an ordered ``left<TAB>right`` merge list. Raw bytes are mapped to
printable characters for serialization so the files stay valid UTF-8.
"""

from __future__ import annotations

import re
from heapq import heapify, heappop, heappush

from .rundir import write_file

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SEP_ID = 3
MASK_ID = 4
SPECIAL_NAMES = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"]
NUM_SPECIALS = len(SPECIAL_NAMES)
MIN_VOCAB_SIZE = 256 + NUM_SPECIALS
# ASCII whitespace (0x09-0x0D, 0x1C-0x20) as a regex class: str.split()
# strips these bytes from every training word. Other Unicode spaces encode
# to bytes >= 0x80 and stay inside a chunk.
_SPACE_CLASS = rb"\t-\r\x1c-\x20"
_SPACE = re.compile(rb"[%b]" % _SPACE_CLASS)
_CHUNKS = re.compile(rb"[^%b]+|[%b]+" % (_SPACE_CLASS, _SPACE_CLASS))


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
        self._chunk_ids: dict[bytes, tuple[int, ...]] = {}

    def piece_id(self, piece: bytes) -> int:
        return self._piece_ids[piece]

    def encode(self, text: str | bytes) -> list[int]:
        """Greedy merge application per chunk; no specials added.

        Chunks are runs of ASCII whitespace and runs of other bytes. No merge
        holds a whitespace byte, so none crosses a chunk edge and the ids are
        those of greedy merging over the whole text. Each distinct chunk is
        merged once and its ids are cached as a tuple.
        """
        data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        ids: list[int] = []
        for chunk in _CHUNKS.findall(data):
            chunk_ids = self._chunk_ids.get(chunk)
            if chunk_ids is None:
                chunk_ids = self._chunk_ids[chunk] = self._merge_chunk(chunk)
            ids.extend(chunk_ids)
        return ids

    def _merge_chunk(self, chunk: bytes) -> tuple[int, ...]:
        """Apply the lowest-ranked merge present until none is."""
        symbols = [chunk[i : i + 1] for i in range(len(chunk))]
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
        return tuple(self._piece_ids[s] for s in symbols)

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


def _add_count(counts: dict, where: dict, pair: int, freq: int, word: int) -> None:
    """Add freq, the count change of one site in `word`, to the count of
    pair. A gain lists the word under the pair unless it is listed last
    already; a count of 0 is deleted with the pair's word list."""
    count = counts.get(pair, 0) + freq
    if not count:
        del counts[pair]
        where.pop(pair, None)
        return
    counts[pair] = count
    if freq > 0:
        held = where.get(pair)
        if held is None:
            where[pair] = [word]
        elif held[-1] != word:
            held.append(word)


def train_vocab(corpus: str, vocab_size: int) -> Vocab:
    """Learn merges from whitespace-split words until vocab_size pieces exist.

    Each round merges the most frequent adjacent pair, ties broken by the
    lexicographically smallest pair, and training stops early once no pair
    occurs twice. vocab_size counts distinct pieces including specials and
    the 256-byte base alphabet, so the smallest legal value is 261 (zero
    merges).

    Words are lists of piece ids (the 256 bytes, then one per merge), and
    the pair (left, right) is keyed left * vocab_size + right, unique since
    every id is below vocab_size. Pair counts are taken once. A merge edits
    in place only the words that hold its pair, and at each merge site moves
    the word's count off the pairs it breaks and onto the two it makes
    (Sennrich et al., arXiv 1508.07909), so each round sees exactly the
    counts a full recount would give, and the merges are the same.

    The words that hold a pair are listed under its key: a word is listed
    when the first count or a merge site gives it the pair, so a listed word
    may since have lost it, and the walk then finds no site there. A pair's
    count grows only in the first count or in the merge that makes its newer
    piece, so a pair then left below 2 is never merged and its list is
    dropped, as is the list of a pair whose count reaches 0.

    The best pair is popped from a lazy max-heap of (-count, left, right)
    entries over piece bytes, in which every pair counted at least twice has
    an entry storing at least its count; an entry storing another count is
    stale, and is pushed again at the pair's count or dropped.
    """
    if vocab_size < MIN_VOCAB_SIZE:
        raise ValueError(f"vocab_size must be >= {MIN_VOCAB_SIZE}")
    word_freqs: dict[bytes, int] = {}
    for word in corpus.split():
        w = word.encode("utf-8")
        word_freqs[w] = word_freqs.get(w, 0) + 1
    if not word_freqs:
        raise ValueError("empty corpus")

    words = [list(w) for w in word_freqs]
    freqs = list(word_freqs.values())
    del word_freqs
    counts: dict[int, int] = {}
    where: dict[int, list[int]] = {}
    for i, (symbols, freq) in enumerate(zip(words, freqs)):
        for left, right in zip(symbols, symbols[1:]):
            _add_count(counts, where, left * vocab_size + right, freq, i)
    pieces = [bytes([b]) for b in range(256)]
    ids = {piece: i for i, piece in enumerate(pieces)}
    merges: list[tuple[bytes, bytes]] = []
    heap = []
    for pair, count in counts.items():
        if count > 1:
            heap.append((-count, pieces[pair // vocab_size], pieces[pair % vocab_size]))
        else:  # its count only falls from here on, so it is never merged
            del where[pair]
    heapify(heap)

    while heap and len(pieces) + NUM_SPECIALS < vocab_size:
        stored, left_piece, right_piece = heappop(heap)
        left, right = ids[left_piece], ids[right_piece]
        best = left * vocab_size + right
        count = counts.get(best, 0)
        if count != -stored:
            if count > 1:
                heappush(heap, (-count, left_piece, right_piece))
            continue
        merges.append((left_piece, right_piece))
        # Always new: symbols [left, right] in a word are the encoding of
        # their bytes alone, and a known piece's bytes encode to that piece.
        new = len(pieces)
        merged = left_piece + right_piece
        pieces.append(merged)
        ids[merged] = new
        grown = set()
        for i in where.pop(best):
            symbols, freq = words[i], freqs[i]
            # A site is `left` followed by `right`. The walk edits the list
            # as it goes, so a site's neighbours are those left by the sites
            # before it.
            j = 0
            while True:
                try:
                    j = symbols.index(left, j, len(symbols) - 1)
                except ValueError:  # no `left` before the last symbol
                    break
                if symbols[j + 1] != right:
                    j += 1
                    continue
                _add_count(counts, where, best, -freq, i)
                if j:
                    prev = symbols[j - 1]
                    _add_count(counts, where, prev * vocab_size + left, -freq, i)
                    pair = prev * vocab_size + new
                    _add_count(counts, where, pair, freq, i)
                    grown.add(pair)
                if j + 2 < len(symbols):
                    after = symbols[j + 2]
                    _add_count(counts, where, right * vocab_size + after, -freq, i)
                    pair = new * vocab_size + after
                    _add_count(counts, where, pair, freq, i)
                    grown.add(pair)
                symbols[j : j + 2] = [new]
                j += 1
        if best in counts:  # left in, it would be picked again forever
            raise RuntimeError(f"pair {(left_piece, right_piece)!r} is still counted after "
                               "its merge: the pair counts are out of step with the words")
        for pair in grown:  # a pair made at one site may be gone at the next
            count = counts.get(pair, 0)
            if count > 1:
                heappush(heap, (-count, pieces[pair // vocab_size], pieces[pair % vocab_size]))
            else:  # its count only falls from here on, so it is never merged
                where.pop(pair, None)
    return Vocab(pieces, merges)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_vocab(vocab: Vocab, vocab_path, merges_path) -> None:
    names = [*SPECIAL_NAMES, *map(piece_to_text, vocab._id_pieces)]
    write_file(vocab_path, "".join(f"{name}\t{i}\n" for i, name in enumerate(names)))
    write_file(merges_path, "".join(f"{piece_to_text(left)}\t{piece_to_text(right)}\n"
                                    for left, right in vocab.merges))


def _piece_at(path, lineno: int, text: str) -> bytes:
    try:
        return text_to_piece(text)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno + 1}: {exc}") from None


def load_vocab(vocab_path, merges_path) -> Vocab:
    """Read a saved vocabulary, refused unless vocab.txt holds the pieces
    merges.txt implies; each error names its file and line."""
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
            if _SPACE.search(left + right):
                raise ValueError(f"{merges_path}:{lineno + 1}: merge "
                                 f"{piece_to_text(left + right)!r} holds a whitespace byte")
            merges.append((left, right))
    # train_vocab's pieces are the 256 bytes, then one per merge in merge
    # order: any other list means the two files come from different runs
    implied = [bytes([b]) for b in range(256)] + [left + right for left, right in merges]
    if pieces != implied:
        i = next((i for i, (have, want) in enumerate(zip(pieces, implied)) if have != want),
                 min(len(pieces), len(implied)))
        have, want = (repr(piece_to_text(p[i])) if i < len(p) else "no piece"
                      for p in (pieces, implied))
        raise ValueError(f"{vocab_path}:{NUM_SPECIALS + i + 1}: {have} where {merges_path} "
                         f"implies {want}; the two files are not one vocabulary")
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
