"""Synthetic word-level corpora for the training-loop tests.

Byte-pair vocabularies cannot go below 261 pieces (256 bytes plus the
specials), which is too wide a softmax for second-scale training runs.
These helpers instead build a fixed 200-piece word vocabulary (five
specials, twenty marker words, 175 filler words) whose encode is a
whitespace lookup, which the corpus/NER builders use in place of real BPE.

The ordered-pair corpus is constructed so sentence order is decidable
from content alone: the first sentence of every document interleaves an
"opener" marker with a topic filler word, the second interleaves a
"closer" marker with the same topic.  A model that learns which marker
family it is looking at can classify swapped pairs perfectly, and the
heavy word repetition keeps masked-token prediction easy.
"""

from __future__ import annotations

import numpy as np

from nanoalbert import bpe
from nanoalbert.corpus import build_pretrain_examples
from nanoalbert.model import ModelConfig
from nanoalbert.ner import NerExample
from nanoalbert.rng import RngStream

MARKERS = [
    "alfa", "bravo", "charlie", "delta", "echo",
    "foxtrot", "golf", "hotel", "india", "juliett",
    "kilo", "lima", "mike", "november", "oscar",
    "papa", "quebec", "romeo", "sierra", "tango",
]
OPENERS = MARKERS[:10]
CLOSERS = MARKERS[10:]
FILLER = [f"word{i:03d}" for i in range(175)]
PIECES = MARKERS + FILLER

WORD_ID = {word: bpe.NUM_SPECIALS + i for i, word in enumerate(PIECES)}


class WordVocab(bpe.Vocab):
    """200-piece vocabulary whose content pieces are whole words."""

    def __init__(self):
        super().__init__([word.encode() for word in PIECES], [])

    def encode(self, text: str) -> list[int]:
        """Whitespace lookup; every word must be a vocabulary piece."""
        return [WORD_ID[word] for word in text.split()]


def tiny_config(**overrides) -> ModelConfig:
    """Two-layer desk-scale model matching WordVocab()."""
    settings = dict(
        vocab_size=200,
        embedding_size=16,
        hidden_size=32,
        num_layers=2,
        num_heads=2,
        max_positions=16,
    )
    settings.update(overrides)
    return ModelConfig(**settings)


def ordered_docs(count: int, rng: RngStream) -> list[list[str]]:
    """Two-sentence documents with an opener-marked then closer-marked line.

    Both sentences interleave their marker with the same "topic" filler;
    the shared word ties the pair together and keeps masked fillers
    recoverable from the other segment."""
    docs = []
    for _ in range(count):
        topic = FILLER[rng.randint(len(FILLER))]
        opener = OPENERS[rng.randint(len(OPENERS))]
        closer = CLOSERS[rng.randint(len(CLOSERS))]
        first = " ".join([opener, topic, opener, topic, opener])
        second = " ".join([closer, topic, closer, topic, closer])
        docs.append([first, second])
    return docs


def ordered_examples(
    count: int,
    rng: RngStream,
    *,
    dup_factor: int = 2,
    max_len: int = 16,
) -> np.recarray:
    """Masked ordered-pair examples over a fresh synthetic corpus."""
    docs = ordered_docs(count, rng.child("docs"))
    return build_pretrain_examples(
        docs,
        WordVocab(),
        rng.child("examples"),
        max_len=max_len,
        dup_factor=dup_factor,
    )


def gazetteer_examples(
    count: int,
    rng: RngStream,
    *,
    length: int = 8,
    marker_rate: float = 0.3,
) -> list[NerExample]:
    """Tagging sentences where every marker word is a one-token entity."""
    examples = []
    for _ in range(count):
        words, labels = [], []
        for _ in range(length):
            if rng.uniform() < marker_rate:
                words.append(MARKERS[rng.randint(len(MARKERS))])
                labels.append("B")
            else:
                words.append(FILLER[rng.randint(len(FILLER))])
                labels.append("O")
        examples.append(NerExample(words=words, labels=labels))
    return examples
