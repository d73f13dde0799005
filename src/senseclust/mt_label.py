"""Translation-based sense labeling.

Contexts are grouped by the majority translation of their target word,
optionally normalized with the Porter stemmer, from an offline sidecar file
``context_id<TAB>translation[,translation...]``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import read_lines, split_fields
from .evaluate import Labeling
from .porter import porter_stem

STEMMER_ALGORITHMS = ("identity", "porter")


@dataclass
class TranslationRecord:
    context_id: str
    translations: list[str]

    def __post_init__(self):
        if not self.translations:
            raise ValueError(f"record {self.context_id!r} has no translations")


@dataclass
class Stemmer:
    algorithm: str = "identity"

    def __post_init__(self):
        if self.algorithm not in STEMMER_ALGORITHMS:
            raise ValueError(f"unknown stemmer {self.algorithm!r}")

    def stem(self, word: str) -> str:
        if self.algorithm == "identity":
            return word
        return porter_stem(word)


def normalize_translation(text: str, stemmer: Stemmer) -> str:
    """Lowercase, then stem token-wise; spacing is preserved verbatim."""
    return " ".join(stemmer.stem(part) for part in text.lower().split(" "))


def label_by_translation(records: Sequence[TranslationRecord],
                         stemmer: Stemmer) -> Labeling:
    """Label each context with its most frequent normalized translation.

    Frequency ties break to the lexicographically smallest form. Contexts
    sharing a label form one induced sense cluster.
    """
    assignments: dict[str, str] = {}
    for rec in records:
        counts = Counter(normalize_translation(t, stemmer) for t in rec.translations)
        top = max(counts.values())
        assignments[rec.context_id] = min(f for f, c in counts.items() if c == top)
    return Labeling(assignments=assignments)


def read_translations(path: str | Path) -> list[TranslationRecord]:
    """Parse the sidecar TSV; translations are comma-separated in column 2."""
    records = []
    with read_lines(path) as lines:
        for _, line in lines:
            context_id, raw = split_fields(line, "context_id", "translations")
            records.append(TranslationRecord(
                context_id, [t.strip() for t in raw.split(",") if t.strip()]))
    return records
