"""Context vectors: exclude target forms, weight tokens, average, normalize.

A context becomes a single dense vector: the target word and its inflected
forms are dropped, each remaining token with an embedding gets a tf-idf x
chi-square power weight, the weight vector is L2-normalized, the weighted
sum of (unnormalized) embeddings is taken, and the result is L2-normalized.

Only the power weight depends on the weighting config, so vectorizing is
split in two: ``context_terms`` (target exclusion, embedding rows, tf-idf
and chi-square, built once per context) and ``power_step`` (each value
raised once per distinct exponent, then one weight product and average per
config). ``vectorize``, ``vectorize_dataset`` and ``vectorize_configs`` all
take this one path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ContextInstance
from .embeddings import EmbeddingModel
from .text import exclude_target, normalize_token
from .weighting import Chi2Table, IdfTable, WeightingConfig, power


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
    tfidf: list[float]
    chi2: list[float]


def context_terms(instance: ContextInstance, model: EmbeddingModel, idf: IdfTable,
                  chi2: Chi2Table) -> ContextTerms:
    """Exclude the target's forms, look tokens up, and weigh each occurrence."""
    kept = exclude_target(instance.tokens, instance.target)
    tf = Counter(kept)
    rows, tfidf_w, chi2_w = [], [], []
    for tok in kept:
        row = model.index.get(normalize_token(tok))
        if row is not None:
            rows.append(row)
            tfidf_w.append(tf[tok] * idf.idf(tok))
            chi2_w.append(chi2.value(instance.target, tok))
    return ContextTerms(instance.context_id, np.array(rows, dtype=np.intp), tfidf_w, chi2_w)


def power_step(terms: ContextTerms, model: EmbeddingModel,
               cfgs: Sequence[WeightingConfig]) -> list[ContextVector]:
    """One context's vector under each config.

    Each tf-idf and chi-square value is raised once per distinct exponent;
    a config's weights are then one product. An all-OOV, all-excluded, or
    exactly cancelling context yields the zero vector with n_contributing = 0.
    """
    tfidf = {p: np.array([power(x, p) for x in terms.tfidf])
             for p in {cfg.p_tfidf for cfg in cfgs}}
    chi2 = {p: np.array([power(x, p) for x in terms.chi2])
            for p in {cfg.p_chi2 for cfg in cfgs}}
    X = model.vectors[terms.rows].astype(np.float64)
    out = []
    for cfg in cfgs:
        weights = tfidf[cfg.p_tfidf] * chi2[cfg.p_chi2]
        v = weighted_unit_average(X, weights, model.dim)
        # An exactly cancelling sum counts like an empty context.
        n_contributing = int(np.count_nonzero(weights > 0)) if v.any() else 0
        out.append(ContextVector(terms.context_id, v, n_contributing))
    return out


def vectorize(instance: ContextInstance, model: EmbeddingModel, idf: IdfTable,
              chi2: Chi2Table, cfg: WeightingConfig) -> ContextVector:
    """Build the context vector for one instance.

    Tokens surviving target exclusion and present in the embedding model
    contribute once per occurrence, each occurrence carrying the token's
    tf-idf/chi-square combined weight.
    """
    return power_step(context_terms(instance, model, idf, chi2), model, [cfg])[0]


def vectorize_configs(dataset, model: EmbeddingModel, idf: IdfTable, chi2: Chi2Table,
                      cfgs: Sequence[WeightingConfig]
                      ) -> list[dict[str, tuple[list[str], np.ndarray]]]:
    """``vectorize_dataset`` for each config, building every context's terms once.

    Terms are built one context at a time and every config's power step is
    applied to them before the next context.
    """
    out: list[dict] = [{} for _ in cfgs]
    for word, idxs in dataset.by_target.items():
        ids = [dataset.instances[i].context_id for i in idxs]
        mats = [np.empty((len(idxs), model.dim)) for _ in cfgs]
        for r, i in enumerate(idxs):
            terms = context_terms(dataset.instances[i], model, idf, chi2)
            for X, cv in zip(mats, power_step(terms, model, cfgs)):
                X[r] = cv.v
        for by_word, X in zip(out, mats):
            by_word[word] = (ids, X)
    return out


def vectorize_dataset(dataset, model: EmbeddingModel, idf: IdfTable,
                      chi2: Chi2Table, cfg: WeightingConfig
                      ) -> dict[str, tuple[list[str], np.ndarray]]:
    """Vectorize every instance, grouped per target word.

    Returns word -> (context ids, stacked vectors), rows in dataset order.
    """
    return vectorize_configs(dataset, model, idf, chi2, [cfg])[0]


def dump_vectors(rows, path) -> None:
    """Write TSV rows ``context_id<TAB>v1 v2 ... vd`` from (context_id, vector) pairs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for cid, vec in rows:
            comps = " ".join(repr(float(x)) for x in vec)
            fh.write(f"{cid}\t{comps}\n")
