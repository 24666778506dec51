"""Seeded input generator for the benchmark workloads.

Everything here is a pure function of the seed and the size arguments, so
one seed always gives byte-identical inputs. The program under test only
ever sees the files these functions write.

- Raw documents draw words from a Zipfian lexicon of pseudo-words, with a
  mix of short, medium and long sentences and some noise lines that corpus
  cleanup must drop.
- Tagging data places entity mentions from a fixed gazetteer (the same for
  every seed) into sentences of lexicon words, so the entities are
  learnable; held-out predict sentences come with their gold tags.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

_ONSETS = "b d f g k l m n p r s t v z".split()
_VOWELS = "a e i o u".split()
_CODAS = ["", "", "", "n", "r", "s"]
# Entity names use letters the lexicon never uses. Each type, and the first
# versus later words of a name, has its own initials, so an entity's type
# and its B/I position are learnable from spelling within a few steps.
_NAME_ONSETS = {  # type -> (initials of a first word, of later words)
    "LOC": ("w", "x"),
    "ORG": ("y", "qu"),
    "PER": ("h", "j"),
}
_NAME_VOWELS = "ae ei ou y".split()
_ENTITY_TYPES = tuple(sorted(_NAME_ONSETS))
_GAZETTEER_SEED = "perfbench-gazetteer"


def _word(rng: random.Random, onsets, vowels, syllables: int) -> str:
    return "".join(
        rng.choice(onsets) + rng.choice(vowels) + rng.choice(_CODAS)
        for _ in range(syllables)
    )


def make_lexicon(rng: random.Random, size: int) -> list[str]:
    """Distinct lowercase pseudo-words, most frequent first."""
    words, seen = [], set()
    while len(words) < size:
        # frequent words are short, as in natural text
        syllables = max(1, min(4, int(len(words) ** 0.25) + rng.randrange(2)))
        word = _word(rng, _ONSETS, _VOWELS, syllables)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Zipf:
    """Draws lexicon words with probability proportional to 1 / rank**exponent."""

    def __init__(self, lexicon: list[str], exponent: float = 1.07):
        self.lexicon = lexicon
        self.cum = list(itertools.accumulate(
            1.0 / (rank + 1) ** exponent for rank in range(len(lexicon))
        ))

    def words(self, rng: random.Random, n: int) -> list[str]:
        return rng.choices(self.lexicon, cum_weights=self.cum, k=n)


def _sentence_length(rng: random.Random, mix) -> int:
    """Words in one sentence, from a mixture of (weight, lo, hi) bands."""
    u = rng.random()
    for weight, lo, hi in mix:
        if u < weight:
            return rng.randint(lo, hi)
        u -= weight
    _, lo, hi = mix[-1]
    return rng.randint(lo, hi)


# Sentence-length mix for raw documents: mostly short and medium sentences
# with a long tail, so that most pretraining pairs are shorter than the pad
# length and about half of all positions are padding.
DOC_LENGTH_MIX = ((0.40, 3, 7), (0.45, 8, 14), (0.15, 15, 28))


def write_raw_documents(out_dir: Path, seed: int, *, num_words: int,
                        lexicon_size: int, sentences_per_doc=(6, 14)) -> list[Path]:
    """Raw text files, one document each, holding about num_words words."""
    rng = random.Random(f"{seed}-raw")
    zipf = _Zipf(make_lexicon(rng, lexicon_size))
    out_dir.mkdir(parents=True, exist_ok=True)
    paths, written, index = [], 0, 0
    while written < num_words:
        lines = []
        for _ in range(rng.randint(*sentences_per_doc)):
            words = zipf.words(rng, _sentence_length(rng, DOC_LENGTH_MIX))
            written += len(words)
            text = " ".join(words)
            lines.append(text[0].upper() + text[1:] + ".")
            if rng.random() < 0.08:
                lines.append(f"page {rng.randint(1, 99)}   ")  # dropped by cleanup
        path = out_dir / f"doc{index:05d}.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        paths.append(path)
        index += 1
    return paths


def _name_word(rng: random.Random, initial: str) -> str:
    tail = _word(rng, "hjwxy", _NAME_VOWELS, rng.randint(0, 1))
    return (initial + rng.choice(_NAME_VOWELS) + rng.choice(_CODAS) + tail).capitalize()


def gazetteer() -> dict[str, list[list[str]]]:
    """Fixed entity names per type, each one to three capitalised words."""
    rng = random.Random(_GAZETTEER_SEED)
    names: dict[str, list[list[str]]] = {}
    seen = set()
    for entity_type in _ENTITY_TYPES:
        entries = []
        first, later = _NAME_ONSETS[entity_type]
        while len(entries) < 24:
            name = [
                _name_word(rng, later if i else first)
                for i in range(rng.choice((1, 1, 2, 2, 3)))
            ]
            key = " ".join(name)
            if key not in seen:
                seen.add(key)
                entries.append(name)
        names[entity_type] = entries
    return names


def tagged_sentences(seed: int, tag: str, count: int, length, lexicon_size: int) -> list[list[tuple[str, str]]]:
    """Sentences of (word, BIO tag) with one to three gazetteer entities."""
    rng = random.Random(f"{seed}-{tag}")
    zipf = _Zipf(make_lexicon(random.Random(f"{seed}-raw"), lexicon_size))
    names = gazetteer()
    sentences = []
    for _ in range(count):
        target = rng.randint(*length)
        mentions = []
        for _ in range(rng.randint(1, 3)):
            entity_type = rng.choice(_ENTITY_TYPES)
            name = rng.choice(names[entity_type])
            mentions.append([(word, ("B-" if i == 0 else "I-") + entity_type)
                             for i, word in enumerate(name)])
        filler = max(1, target - sum(len(m) for m in mentions))
        tokens = [[(word, "O")] for word in zipf.words(rng, filler)]
        for mention in mentions:
            # never split another mention: insert between whole items
            tokens.insert(rng.randint(0, len(tokens)), mention)
        sentences.append([pair for item in tokens for pair in item])
    return sentences


def write_conll(path: Path, sentences) -> None:
    blocks = ["\n".join(f"{word}\t{tag}" for word, tag in sentence)
              for sentence in sentences]
    path.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")


def write_tagging_data(out_dir: Path, seed: int, *, train: int, dev: int,
                       predict: int, lexicon_size: int, train_length=(4, 14),
                       predict_length=(10, 40)) -> dict[str, Path]:
    """train.conll, dev.conll, predict.txt and its gold tags predict.conll."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / name for name in
             ("train.conll", "dev.conll", "predict.txt", "predict.conll")}
    write_conll(paths["train.conll"],
                tagged_sentences(seed, "train", train, train_length, lexicon_size))
    write_conll(paths["dev.conll"],
                tagged_sentences(seed, "dev", dev, train_length, lexicon_size))
    held_out = tagged_sentences(seed, "predict", predict, predict_length, lexicon_size)
    write_conll(paths["predict.conll"], held_out)
    paths["predict.txt"].write_text(
        "".join(" ".join(word for word, _ in s) + "\n" for s in held_out),
        encoding="utf-8",
    )
    return paths
