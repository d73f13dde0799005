"""Context vectors: exclude target forms, weight tokens, average, normalize.

A context becomes a single dense vector: the target word and its inflected
forms are dropped, each remaining token with an embedding gets a tf-idf x
chi-square power weight, the weight vector is L2-normalized, the weighted
sum of (unnormalized) embeddings is taken, and the result is L2-normalized.

Only the power weight depends on the weighting config, so vectorizing is
split in two: ``context_terms`` (target exclusion, embedding rows, tf-idf
and chi-square, built once per context) and ``apply_powers`` (the power
step, run once per config).
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


@dataclass
class ContextTerms:
    """The power-independent part of one context vector.

    One entry per kept occurrence that has an embedding, in token order:
    its embedding row, tf-idf and chi-square value.
    """

    context_id: str
    rows: np.ndarray
    tfidf: np.ndarray
    chi2: np.ndarray


def context_terms(instance: ContextInstance, model: EmbeddingModel, idf: IdfTable,
                  chi2: Chi2Table) -> ContextTerms:
    """Exclude the target's forms, look tokens up, and weigh each occurrence."""
    kept = exclude_target(instance.tokens, instance.target)
    rows: list[int] = []
    tfidf_w: list[float] = []
    chi2_w: list[float] = []
    cache: dict[str, tuple[float, float]] = {}
    for tok in kept:
        row = model.index.get(normalize_token(tok))
        if row is None:
            continue
        if tok not in cache:
            cache[tok] = (tfidf_weight(tok, kept, idf), chi2.value(instance.target, tok))
        rows.append(row)
        tfidf_w.append(cache[tok][0])
        chi2_w.append(cache[tok][1])
    return ContextTerms(instance.context_id, np.array(rows, dtype=np.intp),
                        np.array(tfidf_w, dtype=np.float64),
                        np.array(chi2_w, dtype=np.float64))


def apply_powers(terms: ContextTerms, model: EmbeddingModel,
                 cfg: WeightingConfig) -> ContextVector:
    """The power step: weigh each occurrence by ``combine`` and average.

    An all-OOV, all-excluded, or exactly cancelling context yields the zero
    vector with n_contributing = 0.
    """
    # ``combine`` on Python floats: its ``**`` is libm's pow, which
    # ``np.power`` does not match to the last bit on every host.
    weights = [combine(t, c, cfg)
               for t, c in zip(terms.tfidf.tolist(), terms.chi2.tolist())]
    n_contributing = sum(1 for w in weights if w > 0)
    v = weighted_unit_average(model.vectors[terms.rows], weights, model.dim)
    if n_contributing > 0 and not v.any():
        # Exact cancellation: treat like an empty context.
        n_contributing = 0
    if n_contributing == 0:
        warnings.warn(
            f"context {terms.context_id!r}: no contributing tokens, zero vector",
            stacklevel=2,
        )
        return ContextVector(terms.context_id, np.zeros(model.dim), 0)
    return ContextVector(terms.context_id, v, n_contributing)


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
    tf-idf/chi-square combined weight.
    """
    return apply_powers(context_terms(instance, model, idf, chi2), model, cfg)


def vectorize_configs(dataset, model: EmbeddingModel, idf: IdfTable, chi2: Chi2Table,
                      cfgs: Sequence[WeightingConfig]
                      ) -> list[dict[str, tuple[list[str], np.ndarray]]]:
    """``vectorize_dataset`` for each config, building every context's terms once.

    Terms are built one target word at a time, every config's power step is
    applied to them, and they are dropped before the next word.
    """
    out: list[dict] = [{} for _ in cfgs]
    for word, idxs in dataset.by_target.items():
        terms = [context_terms(dataset.instances[i], model, idf, chi2) for i in idxs]
        ids = [t.context_id for t in terms]
        for by_word, cfg in zip(out, cfgs):
            by_word[word] = (ids, np.vstack([apply_powers(t, model, cfg).v
                                             for t in terms]))
    return out


def vectorize_dataset(dataset, model: EmbeddingModel, idf: IdfTable,
                      chi2: Chi2Table, cfg: WeightingConfig
                      ) -> dict[str, tuple[list[str], np.ndarray]]:
    """Vectorize every instance, grouped per target word.

    Returns word -> (context ids, stacked vectors), rows in dataset order.
    """
    return vectorize_configs(dataset, model, idf, chi2, [cfg])[0]


def dump_vectors(rows, path) -> None:
    """Write TSV rows ``context_id<TAB>v1 v2 ... vd``.

    ``rows`` yields (context_id, vector) pairs or ContextVector objects.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            cid, vec = (row.context_id, row.v) if isinstance(row, ContextVector) else row
            comps = " ".join(repr(float(x)) for x in vec)
            fh.write(f"{cid}\t{comps}\n")
