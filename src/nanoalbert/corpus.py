"""Raw-text cleanup and pretraining example construction.

Corpus format: UTF-8 text, one sentence per line, exactly one blank line
between documents, LF endings. Cleanup drops blank lines and lines shorter
than 20 characters (Unicode scalars, after trimming trailing whitespace);
documents left empty disappear entirely.

Pretraining examples pair adjacent sentences for sentence-order prediction
(half are emitted swapped) and mask tokens for masked-LM with the usual
80/10/10 replace/random/keep split.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .bpe import MASK_ID, NUM_SPECIALS, Vocab, build_input_pair
from .ops import IGNORE_INDEX
from .rng import RngStream

MIN_SENTENCE_CHARS = 20
SOP_IN_ORDER = 0
SOP_SWAPPED = 1

MASK_RATE = 0.15
MASK_PROB = 0.8
RANDOM_PROB = 0.1


class CorpusError(ValueError):
    pass


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def clean_document(text: str) -> list[str]:
    """Surviving sentences of one document, in order."""
    kept = []
    for line in text.split("\n"):
        line = line.rstrip()
        if len(line) >= MIN_SENTENCE_CHARS:
            kept.append(line)
    return kept


def preprocess_documents(docs) -> str:
    """Clean each document and join with single blank-line separators."""
    cleaned = [lines for lines in (clean_document(d) for d in docs) if lines]
    if not cleaned:
        return ""
    return "\n\n".join("\n".join(lines) for lines in cleaned) + "\n"


def preprocess_files(paths) -> str:
    """One document per input file; bad UTF-8 is an error naming the file."""
    docs = []
    for path in paths:
        with open(path, "rb") as f:
            raw = f.read()
        try:
            docs.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorpusError(
                f"{path}: invalid UTF-8 at byte offset {exc.start}"
            ) from None
    return preprocess_documents(docs)


def split_corpus(text: str) -> list[list[str]]:
    """Parse corpus text back into documents (lists of sentences)."""
    docs = []
    current: list[str] = []
    for line in text.split("\n"):
        if line:
            current.append(line)
        elif current:
            docs.append(current)
            current = []
    if current:
        docs.append(current)
    return docs


@dataclass
class CorpusStats:
    documents: int = 0
    sentences: int = 0
    words: int = 0


def corpus_stats(text: str) -> CorpusStats:
    docs = split_corpus(text)
    sentences = sum(len(d) for d in docs)
    words = sum(len(s.split()) for d in docs for s in d)
    return CorpusStats(documents=len(docs), sentences=sentences, words=words)


# ---------------------------------------------------------------------------
# example construction
# ---------------------------------------------------------------------------

def example_dtype(max_len: int, max_predictions: int) -> np.dtype:
    """Record layout of one pretraining example: the input row of length
    max_len, masked positions and their original ids padded to
    max_predictions (unused slots: position 0, label IGNORE_INDEX), and the
    sentence-order label."""
    row = ("<i4", (max_len,))
    slots = ("<i4", (max_predictions,))
    return np.dtype([
        ("input", [("token_ids", *row), ("type_ids", *row), ("attention_mask", *row)]),
        ("mlm_positions", *slots),
        ("mlm_labels", *slots),
        ("sop_label", "<i4"),
    ])


def make_sop_pairs(docs, rng: RngStream, dup_factor: int):
    """(seg_a, seg_b, label) triples over adjacent sentence pairs.

    Each pass keeps corpus order for a pair with probability 1/2, otherwise
    swaps it; documents with fewer than two sentences are skipped. The whole
    corpus is visited dup_factor times with fresh randomness.
    """
    if dup_factor < 1:
        raise ValueError("dup_factor must be >= 1")
    pairs = []
    for _ in range(dup_factor):
        for doc in docs:
            for first, second in zip(doc, doc[1:]):
                if rng.coin():
                    pairs.append((first, second, SOP_IN_ORDER))
                else:
                    pairs.append((second, first, SOP_SWAPPED))
    return pairs


def apply_mlm_mask(
    token_ids,
    vocab: Vocab,
    rng: RngStream,
    mask_rate: float = MASK_RATE,
    max_predictions: int = 20,
):
    """Pick masked-LM targets and return (positions, labels, new token ids).

    Candidates are the non-special positions of the unpadded token ids. The
    draw count is min(max_predictions, max(1, floor(mask_rate * candidates))).
    Each chosen position becomes [MASK] with probability 0.8, a random
    non-special id with 0.1, or stays unchanged with 0.1; labels record the
    original ids.
    """
    if not 0.0 < mask_rate < 1.0:
        raise ValueError("mask_rate must be in (0, 1)")
    candidates = [i for i, tok in enumerate(token_ids) if tok >= NUM_SPECIALS]
    if not candidates:
        raise ValueError("no maskable positions")
    num = min(max_predictions, max(1, int(mask_rate * len(candidates))))
    positions = sorted(candidates[i] for i in rng.sample(len(candidates), num))

    new_ids = list(token_ids)
    labels = []
    for pos in positions:
        labels.append(token_ids[pos])
        u = rng.uniform()
        if u < MASK_PROB:
            new_ids[pos] = MASK_ID
        elif u < MASK_PROB + RANDOM_PROB:
            new_ids[pos] = NUM_SPECIALS + rng.randint(vocab.size - NUM_SPECIALS)
        # else: keep the original token, position still predicted
    return positions, labels, new_ids


def build_pretrain_examples(
    docs,
    vocab: Vocab,
    rng: RngStream,
    max_len: int,
    mask_rate: float = MASK_RATE,
    max_predictions: int = 20,
    dup_factor: int = 1,
) -> np.recarray:
    """Full pipeline: SOP pairing, packing, and MLM masking, one record
    (example_dtype) per sentence pair; each row fills its leading positions
    and the zeros after them are padding."""
    id_cache: dict[str, list[int]] = {}

    def ids_of(sentence: str) -> list[int]:
        if sentence not in id_cache:
            id_cache[sentence] = vocab.encode(sentence)
        return id_cache[sentence]

    pairs = make_sop_pairs(docs, rng, dup_factor)
    examples = np.zeros(len(pairs), example_dtype(max_len, max_predictions))
    examples["mlm_labels"] = IGNORE_INDEX
    for ex, (seg_a, seg_b, sop_label) in zip(examples, pairs):
        token_ids, type_ids = build_input_pair(ids_of(seg_a), ids_of(seg_b), max_len)
        positions, labels, new_ids = apply_mlm_mask(
            token_ids, vocab, rng, mask_rate, max_predictions
        )
        row, n = ex["input"], len(token_ids)
        row["token_ids"][:n] = new_ids
        row["type_ids"][:n] = type_ids
        row["attention_mask"][:n] = 1
        ex["mlm_positions"][:len(positions)] = positions
        ex["mlm_labels"][:len(labels)] = labels
        ex["sop_label"] = sop_label
    return examples.view(np.recarray)


# ---------------------------------------------------------------------------
# example cache file
# ---------------------------------------------------------------------------

# Layout: magic, then N, T and P as little-endian u32, then N raw records of
# example_dtype(T, P).
EXAMPLES_MAGIC = b"ABPT\x002"
_HEADER_BYTES = len(EXAMPLES_MAGIC) + 12


def write_examples(path, examples) -> None:
    """Write atomically (temp file + rename), so a killed write leaves no cache."""
    max_len = examples.dtype["input"]["token_ids"].shape[0]
    max_predictions = examples.dtype["mlm_positions"].shape[0]
    header = np.array([len(examples), max_len, max_predictions], dtype="<u4")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(EXAMPLES_MAGIC + header.tobytes())
        f.write(np.ascontiguousarray(examples).tobytes())
    os.replace(tmp, path)


def read_examples(path) -> np.recarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[: len(EXAMPLES_MAGIC)] != EXAMPLES_MAGIC:
        raise CorpusError(f"{path}: bad example-cache magic")
    if len(data) < _HEADER_BYTES:
        raise CorpusError(f"{path}: truncated example-cache header")
    count, max_len, max_predictions = (
        int(v) for v in np.frombuffer(data, "<u4", 3, len(EXAMPLES_MAGIC))
    )
    # record bytes of example_dtype(T, P), computed before numpy sees a
    # header that may be corrupt
    want = _HEADER_BYTES + count * 4 * (3 * max_len + 2 * max_predictions + 1)
    if len(data) != want:
        raise CorpusError(
            f"{path}: example cache is {len(data)} bytes but its header "
            f"(N={count} T={max_len} P={max_predictions}) needs {want}"
        )
    dtype = example_dtype(max_len, max_predictions)
    return np.frombuffer(data, dtype, count, _HEADER_BYTES).view(np.recarray)
