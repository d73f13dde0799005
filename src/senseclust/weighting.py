"""Token weighting: tf-idf, per-target chi-square, and power combination.

The weight of a context token is tfidf^p1 * chi2^p2 with exponents tuned on
a train set. A zero exponent disables its factor entirely (x^0 = 1 for all
x >= 0), so the (0, 0) configuration reduces to plain unweighted averaging.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, AbstractSet, Iterable, Sequence

from .errors import DataError, read_lines, split_fields, write_text
from .text import normalize_token

if TYPE_CHECKING:
    from .dataset import Dataset

POWER_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)


@dataclass
class WeightingConfig:
    """Power exponents applied to the tf-idf and chi-square factors."""

    p_tfidf: float = 1.0
    p_chi2: float = 1.0

    def __post_init__(self):
        for name in ("p_tfidf", "p_chi2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not 0.0 <= v <= 2.5:  # NaN fails too
                raise ValueError(f"{name} must be in [0, 2.5], got {v}")
            setattr(self, name, float(v) + 0.0)  # one spelling; + 0.0 turns -0.0 into 0.0


@dataclass
class IdfTable:
    """Document frequencies from a background corpus, with smoothing."""

    n_docs: int
    df: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_docs <= 0:
            raise ValueError(f"n_docs must be positive, got {self.n_docs}")
        for word, d in self.df.items():
            self.check_df(word, d)

    def check_df(self, word: str, d: int) -> None:
        """Raise ValueError unless ``0 <= d <= n_docs``."""
        if not 0 <= d <= self.n_docs:
            raise ValueError(f"df[{word!r}]={d} outside [0, {self.n_docs}]")

    def idf(self, word: str) -> float:
        """Smoothed idf; strictly positive even for unseen words."""
        return math.log((self.n_docs + 1) / (self.df.get(word, 0) + 1)) + 1.0


def build_idf(doc_stream: Iterable[Sequence[str]]) -> IdfTable:
    """Count document frequencies over an iterator of token lists."""
    df: Counter[str] = Counter()
    n_docs = 0
    for doc in doc_stream:
        n_docs += 1
        df.update(set(doc))
    if n_docs == 0:
        raise ValueError("document stream is empty")
    return IdfTable(n_docs=n_docs, df=dict(df))


@dataclass
class Chi2Table:
    """chi2(target, context word) association scores over a dataset.

    Only pairs observed together are stored; lookups for any other pair
    return 0. ``single_target`` flags the degenerate all-zero table built
    from a dataset with fewer than two distinct targets.
    """

    values: dict[tuple[str, str], float] = field(default_factory=dict)
    single_target: bool = False

    def __post_init__(self):
        for pair, v in self.values.items():
            self.check(pair, v)

    @staticmethod
    def check(pair: tuple[str, str], v: float) -> None:
        """Raise ValueError unless ``v`` is finite and nonnegative."""
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(f"chi2 for {pair} must be finite and nonnegative, got {v}")

    def value(self, target: str, word: str) -> float:
        return self.values.get((target, word), 0.0)


def chi2_statistic(a: int, b: int, c: int, d: int) -> float:
    """Chi-square over the 2x2 table [[a, b], [c, d]]; 0 on any zero margin."""
    n = a + b + c + d
    denom = (a + b) * (c + d) * (a + c) * (b + d)
    if denom == 0:
        return 0.0
    return n * (a * d - b * c) ** 2 / denom


def build_chi2(dataset: Dataset) -> Chi2Table:
    """Presence/absence chi-square of context words against target words.

    A context counts once per word it contains (after excluding its own
    target's forms). With a single distinct target no context lies outside
    it, so every statistic is 0 and the table is flagged.
    """
    n_total = len(dataset.instances)
    word_totals: Counter[str] = Counter()
    values: dict[tuple[str, str], float] = {}
    for target, idxs in dataset.by_target.items():
        counts: Counter[str] = Counter()
        for i in idxs:
            counts.update(set(dataset.instances[i].kept))
        word_totals.update(counts)
        for word, a in counts.items():
            values[(target, word)] = a
    for (target, word), a in values.items():  # counts become statistics in place
        n_t = len(dataset.by_target[target])
        b = word_totals[word] - a
        c = n_t - a
        d = n_total - n_t - b
        values[(target, word)] = chi2_statistic(a, b, c, d)
    return Chi2Table(values=values, single_target=len(dataset.by_target) < 2)


def power(values: Sequence[float], p: float) -> list[float]:
    """Each x^p with x^0 = 1, by Python's ``**``: ``np.power`` can differ in the last bit."""
    return [1.0] * len(values) if p == 0 else [x ** p for x in values]


# --- TSV caching ----------------------------------------------------------

def write_idf_tsv(table: IdfTable, path: str | Path) -> None:
    write_text(path, chain([f"# n_docs={table.n_docs}\n"],
                           (f"{word}\t{table.df[word]}\n" for word in sorted(table.df))))


def read_idf_tsv(path: str | Path, vocabulary: AbstractSet[str] | None = None) -> IdfTable:
    """Read one ``# n_docs=N`` header, then ``word<TAB>df`` rows.

    Every row is read and checked; with a ``vocabulary`` (a set of
    normalized words), only its words' rows are kept. ``n_docs``, and so
    the idf of a word without a row, are the same either way.
    """
    table = None
    with read_lines(path) as lines:
        for _, line in lines:
            if line.startswith("#"):
                key, _, val = line[1:].strip().partition("=")
                if key.strip() == "n_docs":
                    if table is not None:
                        raise ValueError("repeated n_docs header")
                    table = IdfTable(n_docs=int(val))
                continue
            word, raw = split_fields(line, "word", "df")
            if table is None:
                raise ValueError("df row before the '# n_docs=...' header")
            word, d = normalize_token(word), int(raw)
            table.check_df(word, d)
            if vocabulary is None or word in vocabulary:
                table.df[word] = d
    if table is None:
        raise DataError(f"{path}: missing '# n_docs=...' header")
    return table


def write_chi2_tsv(table: Chi2Table, path: str | Path) -> None:
    header = ["# single_target=true\n"] if table.single_target else []
    write_text(path, chain(header, (f"{target}\t{word}\t{table.values[(target, word)]!r}\n"
                                    for target, word in sorted(table.values))))


def read_chi2_tsv(path: str | Path) -> Chi2Table:
    table = Chi2Table()
    with read_lines(path) as lines:
        for _, line in lines:
            if line.startswith("#"):
                table.single_target |= "single_target=true" in line
                continue
            target, word, raw = split_fields(line, "target", "word", "chi2")
            pair, value = (normalize_token(target), normalize_token(word)), float(raw)
            table.check(pair, value)
            table.values[pair] = value
    return table
