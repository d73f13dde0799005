"""Adjusted Rand Index scoring, per-word reports, and confusion matrices."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .dataset import Dataset


@dataclass
class Labeling:
    """Total map from context_id to a sense label string."""

    assignments: dict[str, str] = field(default_factory=dict)


def _canonical_partition(labels: Sequence[Hashable]) -> list[int]:
    seen: dict[Hashable, int] = {}
    return [seen.setdefault(lab, len(seen)) for lab in labels]


def ari_codes(gold: np.ndarray, pred: np.ndarray) -> float:
    """Adjusted Rand Index of two non-empty, equally long integer labelings.

    Labels are non-negative integers; they need not be contiguous.
    """
    return ari_rows(gold, pred[None, :])[0]


def ari_rows(gold: np.ndarray, preds: np.ndarray) -> list[float]:
    """``[ari_codes(gold, pred) for pred in preds]`` for a 2-D ``preds``.

    The contingency tables of all rows are one ``np.bincount``; the pair
    sums are exact integers, so each row's score is that of its own table.
    """
    rows, n = preds.shape
    n_gold, n_pred = int(gold.max()) + 1, int(preds.max()) + 1
    cells = (np.arange(rows)[:, None] * n_gold + gold) * n_pred + preds
    table = np.bincount(cells.ravel(), minlength=rows * n_gold * n_pred
                        ).reshape(rows, n_gold, n_pred)
    sum_a = _pair_sums(table[0].sum(axis=1)).item()
    pairs = n * (n - 1) // 2
    scores = []
    for index, sum_b in zip(_pair_sums(table, axis=(1, 2)).tolist(),
                            _pair_sums(table.sum(axis=1), axis=1).tolist()):
        # Exact integer test for Max == Expected: (sum_a+sum_b)/2 == sum_a*sum_b/pairs.
        # It holds only when both partitions are all singletons (both sums 0) or
        # both one cluster (both sums == pairs), so the partitions are identical.
        if (sum_a + sum_b) * pairs == 2 * sum_a * sum_b:
            scores.append(1.0)
            continue
        expected = sum_a * sum_b / pairs
        max_index = (sum_a + sum_b) / 2
        scores.append((index - expected) / (max_index - expected))
    return scores


def _pair_sums(counts: np.ndarray, axis=None) -> np.ndarray:
    """Sums of c*(c-1)/2 over the counts."""
    return (counts * (counts - 1) // 2).sum(axis=axis)


def ari(gold: Sequence[Hashable], pred: Sequence[Hashable]) -> float:
    """Adjusted Rand Index between two labelings of the same items.

    Computed from the pair-counting contingency table. The correction
    denominator degenerates only for identical trivial partitions (all
    singletons, or one cluster), which score 1.0.
    """
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} vs {len(pred)}")
    if len(gold) == 0:
        raise ValueError("empty labelings")
    return ari_codes(np.array(_canonical_partition(gold)),
                     np.array(_canonical_partition(pred)))


@dataclass
class EvalReport:
    """Per-target ARI with context counts plus the two aggregates."""

    per_word: dict[str, tuple[float, int]]
    aggregate_weighted: float
    aggregate_macro: float
    n_excluded: int = 0

    def to_tsv(self) -> str:
        lines = ["word\tn\tari"]
        for word in sorted(self.per_word):
            score, n = self.per_word[word]
            lines.append(f"{word}\t{n}\t{score:.6f}")
        lines.append(f"aggregate_weighted\t\t{self.aggregate_weighted:.6f}")
        lines.append(f"aggregate_macro\t\t{self.aggregate_macro:.6f}")
        return "\n".join(lines) + "\n"


def evaluate(dataset: Dataset, labels: Labeling) -> EvalReport:
    """Score a labeling against gold senses, per target word and aggregated.

    Instances without a gold sense are excluded from scoring and counted;
    a gold-labeled instance missing from the labeling is an error.
    """
    per_word: dict[str, tuple[float, int]] = {}
    for target, (keep, codes) in gold_codes(dataset).items():
        pred = []
        for j in keep:
            cid = dataset.instances[dataset.by_target[target][j]].context_id
            if cid not in labels.assignments:
                raise ValueError(f"gold-labeled context {cid!r} has no prediction")
            pred.append(labels.assignments[cid])
        per_word[target] = (ari_codes(codes, np.array(_canonical_partition(pred))),
                            len(codes))
    if not per_word:
        raise ValueError("dataset has no gold senses to evaluate against")
    macro = sum(score for score, _ in per_word.values()) / len(per_word)
    n_excluded = sum(map(len, dataset.by_target.values())) - sum(
        n for _, n in per_word.values())
    return EvalReport(per_word=per_word,
                      aggregate_weighted=weighted_ari(per_word.values()),
                      aggregate_macro=macro, n_excluded=n_excluded)


def weighted_ari(per_word: Iterable[tuple[float, int]]) -> float:
    """Mean of per-word ``(ari, n_contexts)`` scores, weighted by context count."""
    per_word = list(per_word)
    return sum(score * n for score, n in per_word) / sum(n for _, n in per_word)


def gold_codes(dataset: Dataset) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per target word with gold senses: the positions of its gold-labeled
    contexts among the word's contexts, and those senses as integer codes."""
    out = {}
    for target, idxs in dataset.by_target.items():
        senses = [dataset.instances[i].gold_sense for i in idxs]
        keep = [j for j, sense in enumerate(senses) if sense is not None]
        if keep:
            out[target] = (np.array(keep),
                           np.array(_canonical_partition([senses[j] for j in keep])))
    return out


def confusion_matrix(gold: Sequence[Hashable], pred: Sequence[Hashable]
                     ) -> tuple[list, list, np.ndarray]:
    """Co-occurrence counts: rows are sorted gold senses, columns sorted predictions."""
    if len(gold) != len(pred):
        raise ValueError(f"length mismatch: {len(gold)} vs {len(pred)}")
    row_labels = sorted(set(gold), key=str)
    col_labels = sorted(set(pred), key=str)
    row_idx = {lab: i for i, lab in enumerate(row_labels)}
    col_idx = {lab: j for j, lab in enumerate(col_labels)}
    counts = np.zeros((len(row_labels), len(col_labels)), dtype=np.int64)
    for g, p in zip(gold, pred):
        counts[row_idx[g], col_idx[p]] += 1
    return row_labels, col_labels, counts


def confusion_csv(row_labels: list, col_labels: list, counts: np.ndarray) -> str:
    lines = ["gold\\pred," + ",".join(str(c) for c in col_labels)]
    for lab, row in zip(row_labels, counts):
        lines.append(str(lab) + "," + ",".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"
