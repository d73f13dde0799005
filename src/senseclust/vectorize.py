"""Context vectors: exclude target forms, weight tokens, average, normalize.

A context becomes a single dense vector: the target word and its inflected
forms are dropped, each remaining token with an embedding gets a tf-idf x
chi-square power weight, the weight vector is L2-normalized, the weighted
sum of (unnormalized) embeddings is taken, and the result is L2-normalized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ContextInstance
from .embeddings import EmbeddingModel
from .text import exclude_target, normalize_token
from .weighting import Chi2Table, IdfTable, WeightingConfig, combine, tfidf_weight


@dataclass
class ContextVector:
    """Unit vector for one context; the zero vector when nothing contributed."""

    context_id: str
    v: np.ndarray
    n_contributing: int


def weighted_unit_average(vectors: Sequence[np.ndarray], weights: Sequence[float],
                          dim: int) -> np.ndarray:
    """L2-normalized weighted sum with an L2-normalized weight vector.

    Returns the zero vector when all weights are zero or the weighted sum
    cancels exactly.
    """
    if len(vectors) == 0:
        return np.zeros(dim)
    w = np.asarray(weights, dtype=np.float64)
    wnorm = float(np.linalg.norm(w))
    if wnorm == 0.0:
        return np.zeros(dim)
    w = w / wnorm
    v = w @ np.asarray(vectors, dtype=np.float64)
    vnorm = float(np.linalg.norm(v))
    if vnorm == 0.0:
        return np.zeros(dim)
    return v / vnorm


def vectorize(
    instance: ContextInstance,
    model: EmbeddingModel,
    idf: IdfTable,
    chi2: Chi2Table,
    cfg: WeightingConfig,
) -> ContextVector:
    """Build the context vector for one instance.

    Tokens surviving target exclusion and present in the embedding model
    contribute once per occurrence, each occurrence carrying the token's
    tf-idf/chi-square combined weight. An all-OOV, all-excluded, or exactly
    cancelling context yields the zero vector with n_contributing = 0.
    """
    kept = exclude_target(instance.tokens, instance.target)
    rows: list[int] = []
    weights: list[float] = []
    weight_cache: dict[str, float] = {}
    for tok in kept:
        row = model.index.get(normalize_token(tok))
        if row is None:
            continue
        if tok not in weight_cache:
            weight_cache[tok] = combine(
                tfidf_weight(tok, kept, idf),
                chi2.value(instance.target, tok),
                cfg,
            )
        rows.append(row)
        weights.append(weight_cache[tok])

    n_contributing = sum(1 for w in weights if w > 0)
    v = weighted_unit_average(model.vectors[rows], weights, model.dim)
    if n_contributing > 0 and not v.any():
        # Exact cancellation: treat like an empty context.
        n_contributing = 0
    if n_contributing == 0:
        warnings.warn(
            f"context {instance.context_id!r}: no contributing tokens, zero vector",
            stacklevel=2,
        )
        return ContextVector(instance.context_id, np.zeros(model.dim), 0)
    return ContextVector(instance.context_id, v, n_contributing)


def vectorize_dataset(dataset, model: EmbeddingModel, idf: IdfTable,
                      chi2: Chi2Table, cfg: WeightingConfig
                      ) -> dict[str, tuple[list[str], np.ndarray]]:
    """Vectorize every instance, grouped per target word.

    Returns word -> (context ids, stacked vectors), rows in dataset order.
    """
    out = {}
    for word, idxs in dataset.by_target.items():
        ids = [dataset.instances[i].context_id for i in idxs]
        vecs = [vectorize(dataset.instances[i], model, idf, chi2, cfg).v
                for i in idxs]
        out[word] = (ids, np.vstack(vecs))
    return out


def dump_vectors(rows, path) -> None:
    """Write TSV rows ``context_id<TAB>v1 v2 ... vd``.

    ``rows`` yields (context_id, vector) pairs or ContextVector objects.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            cid, vec = (row.context_id, row.v) if isinstance(row, ContextVector) else row
            comps = " ".join(repr(float(x)) for x in vec)
            fh.write(f"{cid}\t{comps}\n")
