"""Synthetic two-sense induction fixture shared by search and acceptance tests.

Two ambiguous targets, two senses each. Sense vocabularies are disjoint and
their embeddings sit near opposite ends of one axis per target (+u/-u for the
first target, +u'/-u' for the second), with a pool of shared noise tokens
placed near the remaining orthogonal axes. Contexts and the background corpus
are written as real files so tests exercise the full parsing pipeline.
"""

from __future__ import annotations

import numpy as np

from senseclust.dataset import parse_dataset
from senseclust.embeddings import EmbeddingModel
from senseclust.weighting import build_idf

def model_from_entries(entries: dict) -> EmbeddingModel:
    """EmbeddingModel holding ``entries`` (word -> vector) in insertion order."""
    return EmbeddingModel(np.array(list(entries.values()), dtype=np.float32),
                          {w: i for i, w in enumerate(entries)})


HEADER = "context_id\tword\tgold_sense_id\tpredict_sense_id\tpositions\tcontext"

SENSE_VOCABS = {
    ("alphaword", "senseA"): [f"aw{i:02d}" for i in range(30)],
    ("alphaword", "senseB"): [f"bw{i:02d}" for i in range(30)],
    ("betaword", "senseC"): [f"cw{i:02d}" for i in range(30)],
    ("betaword", "senseD"): [f"dw{i:02d}" for i in range(30)],
}
NOISE_VOCAB = [f"nz{i:02d}" for i in range(20)]
AXES = {"senseA": (0, +1.0), "senseB": (0, -1.0),
        "senseC": (1, +1.0), "senseD": (1, -1.0)}


def build_model(dim=8, seed=0) -> EmbeddingModel:
    rng = np.random.default_rng(seed)
    entries = {}
    for (_, sense), words in SENSE_VOCABS.items():
        axis, sign = AXES[sense]
        for w in words:
            vec = np.zeros(dim)
            vec[axis] = sign * rng.uniform(0.8, 1.2)
            vec += rng.normal(scale=0.03, size=dim)
            entries[w] = vec.astype(np.float32)
    for i, w in enumerate(NOISE_VOCAB):
        vec = np.zeros(dim)
        vec[2 + i % (dim - 2)] = rng.uniform(0.8, 1.2)
        vec += rng.normal(scale=0.03, size=dim)
        entries[w] = vec.astype(np.float32)
    return model_from_entries(entries)


def write_dataset(path, contexts_per_sense=40, sense_tokens=8, noise_tokens=3,
                  seed=0):
    rng = np.random.default_rng(seed)
    rows = [HEADER]
    cid = 0
    for (target, sense), vocab in SENSE_VOCABS.items():
        for _ in range(contexts_per_sense):
            toks = [target]
            toks += list(rng.choice(vocab, size=sense_tokens, replace=False))
            toks += list(rng.choice(NOISE_VOCAB, size=noise_tokens, replace=False))
            context = " ".join(toks)
            rows.append(f"c{cid:04d}\t{target}\t{sense}\t\t0-{len(target)}\t{context}")
            cid += 1
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return parse_dataset(path)


def build_background_idf(n_docs=200, seed=1):
    rng = np.random.default_rng(seed)
    vocab = sorted(set(w for ws in SENSE_VOCABS.values() for w in ws)
                   | set(NOISE_VOCAB))
    docs = [list(rng.choice(vocab, size=12, replace=False)) for _ in range(n_docs)]
    return build_idf(docs)
