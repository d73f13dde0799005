"""Context vectors: exclude target forms, weight tokens, average, normalize.

A context becomes a single dense vector: the target word and its inflected
forms are dropped, each remaining token with an embedding gets a tf-idf x
chi-square power weight, the weight vector is L2-normalized, the weighted
sum of (unnormalized) embeddings is taken, and the result is L2-normalized.

Only the power weight depends on the weighting config, so vectorizing is
split in two: ``context_terms`` (embedding rows, tf-idf and chi-square of
``ContextInstance.kept``, built once per context) and ``power_step`` (each
value raised once per distinct exponent, then the weighted averages of all
configs as stacked matmuls). ``vectorize``, ``vectorize_word`` and
``vectorize_dataset`` all take this one path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ContextInstance
from .embeddings import EmbeddingModel
from .text import exclude_target  # noqa: F401  (re-exported)
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
    """Look up each kept token (``instance.kept``) and weigh each occurrence."""
    tf = Counter(instance.kept)
    rows, tfidf_w, chi2_w = [], [], []
    for tok in instance.kept:
        row = model.index.get(tok)
        if row is not None:
            rows.append(row)
            tfidf_w.append(tf[tok] * idf.idf(tok))
            chi2_w.append(chi2.value(instance.target, tok))
    return ContextTerms(instance.context_id, np.array(rows, dtype=np.intp), tfidf_w, chi2_w)


def power_step(terms: ContextTerms, model: EmbeddingModel,
               cfgs: Sequence[WeightingConfig]) -> np.ndarray:
    """One context's vector under each config, as the rows of a
    ``(len(cfgs), dim)`` array.

    Each tf-idf and chi-square value is raised once per distinct exponent;
    a config's weights are then one product. Row b is
    ``weighted_unit_average(X, weights_b, dim)`` bit for bit: the stacked
    matmuls run one ddot per norm and one gemv per average, as the
    single-config calls do. An all-OOV, all-excluded, or exactly cancelling
    context yields the zero vector.
    """
    tfidf = {p: np.array(power(terms.tfidf, p)) for p in {cfg.p_tfidf for cfg in cfgs}}
    chi2 = {p: np.array(power(terms.chi2, p)) for p in {cfg.p_chi2 for cfg in cfgs}}
    W = np.array([tfidf[cfg.p_tfidf] * chi2[cfg.p_chi2] for cfg in cfgs]
                 ).reshape(len(cfgs), 1, len(terms.rows))
    X = model.vectors[terms.rows].astype(np.float64)
    # A zero norm (all weights 0, or so small that their squares underflow)
    # leaves its row +0.0, and so does an average that cancels exactly.
    wnorm = np.sqrt(W @ W.transpose(0, 2, 1))
    V = np.divide(W, wnorm, out=np.zeros_like(W), where=wnorm > 0.0) @ X
    vnorm = np.sqrt(V @ V.transpose(0, 2, 1))
    V = np.divide(V, vnorm, out=np.zeros_like(V), where=vnorm > 0.0)
    return V.reshape(len(cfgs), model.dim)


def vectorize(instance: ContextInstance, model: EmbeddingModel, idf: IdfTable,
              chi2: Chi2Table, cfg: WeightingConfig) -> ContextVector:
    """Build the context vector for one instance.

    Tokens surviving target exclusion and present in the embedding model
    contribute once per occurrence, each occurrence carrying the token's
    tf-idf/chi-square combined weight.
    """
    terms = context_terms(instance, model, idf, chi2)
    v = power_step(terms, model, [cfg])[0]
    # An exactly cancelling sum counts like an empty context.
    weights = np.multiply(power(terms.tfidf, cfg.p_tfidf), power(terms.chi2, cfg.p_chi2))
    n_contributing = int(np.count_nonzero(weights > 0)) if v.any() else 0
    return ContextVector(instance.context_id, v, n_contributing)


def vectorize_word(dataset, word: str, model: EmbeddingModel, idf: IdfTable,
                   chi2: Chi2Table, cfgs: Sequence[WeightingConfig]) -> np.ndarray:
    """The word's context vectors under each config, ``(len(cfgs), n, dim)``,
    rows in dataset order; each context's terms are built once."""
    idxs = dataset.by_target[word]
    out = np.empty((len(cfgs), len(idxs), model.dim))
    for r, i in enumerate(idxs):
        out[:, r] = power_step(context_terms(dataset.instances[i], model, idf, chi2),
                               model, cfgs)
    return out


def vectorize_dataset(dataset, model: EmbeddingModel, idf: IdfTable,
                      chi2: Chi2Table, cfg: WeightingConfig
                      ) -> dict[str, tuple[list[str], np.ndarray]]:
    """Vectorize every instance, grouped per target word.

    Returns word -> (context ids, stacked vectors), rows in dataset order.
    """
    return {word: ([dataset.instances[i].context_id for i in idxs],
                   vectorize_word(dataset, word, model, idf, chi2, [cfg])[0])
            for word, idxs in dataset.by_target.items()}


def dump_vectors(rows, path) -> None:
    """Write TSV rows ``context_id<TAB>v1 v2 ... vd`` from (context_id, vector) pairs."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for cid, vec in rows:
            comps = " ".join(repr(float(x)) for x in vec)
            fh.write(f"{cid}\t{comps}\n")
