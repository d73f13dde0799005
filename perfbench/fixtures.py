"""Seeded synthetic fixtures shaped like the RUSSE'2018 bts-rnc train split.

No RUSSE data ships with the repository, so the benchmark builds its inputs
from a seed: the same seed and spec always give byte-identical files.

- Vocabulary: pseudo-Russian words ranked by a Zipf-Mandelbrot law. The
  most frequent ``EMBEDDED`` words have embeddings; the rarer tail is
  out of vocabulary, as in a real word2vec model.
- Embeddings: random directions whose L2 norm grows with word frequency,
  which keeps the paper's unnormalized-embedding property. Components are
  rounded to 4 decimals so the text and binary files hold the same values.
- Dataset: per target word, 2-4 gold senses with skewed shares. Each sense
  has its own topic words that lean toward a shared direction, so sense
  clusters exist in embedding space and ARI is well above 0 but below 1.
  A small share of contexts is all out-of-vocabulary and vectorizes to the
  zero vector.
- idf: document frequencies of a notional 20,000-document corpus, taken
  from the same Zipf law.

Embedding files are written with a table-driven fixed-width formatter:
formatting each component separately, as the package's own writer does,
takes minutes for a 50k x 200 model.

Run as a script to write one fixture directory, with a ``manifest.json``::

    python3 perfbench/fixtures.py --workload search --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

EMBEDDED = 50_000
OOV_TAIL = 5_000
DIM = 200
N_DOCS = 20_000
TOKENS_PER_CONTEXT = (32, 48)
TOPIC_WORDS_PER_SENSE = 25
TOPIC_SHARE = 0.15
OOV_CONTEXT_SHARE = 0.01
SENSES_CYCLE = (2, 3, 4, 3)
SENSE_SHARES = (0.45, 0.25, 0.18, 0.12)  # skewed, as in bts-rnc
SCALE = 10_000  # components are stored as round(v * SCALE) / SCALE

CONSONANTS = "бвгдзклмнпрстфхцчш"
VOWELS = "аеиоуыэюя"
TARGET_ONSET = "ж"  # no vocabulary word starts with it, so no accidental target forms
TARGET_ENDINGS = ("", "а", "у", "ом", "е")


@dataclass(frozen=True)
class FixtureSpec:
    """Sizes of one workload's fixture."""

    words: int
    contexts_per_word: int
    embeddings_format: str  # "binary" or "text"


FIXTURES = {
    "search": FixtureSpec(words=2, contexts_per_word=120, embeddings_format="binary"),
    "induce": FixtureSpec(words=30, contexts_per_word=120, embeddings_format="text"),
    "large-n": FixtureSpec(words=3, contexts_per_word=500, embeddings_format="binary"),
}


def vocabulary(n: int) -> list[str]:
    """n distinct words: two syllables for the frequent ranks, three after."""
    syllables = [c + v for c in CONSONANTS for v in VOWELS]
    s = len(syllables)
    words = []
    for i in range(n):
        if i < s * s:
            words.append(syllables[i // s] + syllables[i % s])
        else:
            j = i - s * s
            words.append(syllables[j // (s * s)] + syllables[(j // s) % s]
                         + syllables[j % s])
    return words


def zipf_probabilities(n: int) -> np.ndarray:
    p = 1.0 / (np.arange(n) + 2.7) ** 1.07
    return p / p.sum()


def target_words(rng: np.random.Generator, n: int) -> list[str]:
    syllables = [c + v for c in CONSONANTS for v in VOWELS]
    picked = rng.choice(len(syllables) ** 2, size=n, replace=False)
    s = len(syllables)
    return [TARGET_ONSET + "а" + syllables[int(i) // s] + syllables[int(i) % s] + "к"
            for i in picked]


def build(spec: FixtureSpec, seed: int, out: Path) -> dict:
    """Write embeddings, dataset and idf files into ``out``; return a manifest."""
    rng = np.random.default_rng(seed)
    n_vocab = EMBEDDED + OOV_TAIL
    words = vocabulary(n_vocab)
    probs = zipf_probabilities(n_vocab)

    # Embeddings: random directions, norm growing with expected frequency.
    directions = rng.standard_normal((EMBEDDED, DIM))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    counts = probs[:EMBEDDED] * 1e7
    norms = 1.0 + 0.35 * np.log1p(counts)

    targets = target_words(rng, spec.words)
    # The sense inventory is fixed by word position, so that seeds vary the
    # sampled contexts but not how hard the words are: 2, 3, 4, 3, 2, ...
    n_senses = [SENSES_CYCLE[w % len(SENSES_CYCLE)] for w in range(spec.words)]
    # Topic words come from mid-frequency ranks, disjoint across all senses.
    pool = rng.permutation(np.arange(300, 20_000))
    topics: list[list[np.ndarray]] = []
    taken = 0
    for w in range(spec.words):
        per_sense = []
        for _ in range(n_senses[w]):
            ids = pool[taken: taken + TOPIC_WORDS_PER_SENSE]
            taken += TOPIC_WORDS_PER_SENSE
            sense_dir = rng.standard_normal(DIM)
            sense_dir /= np.linalg.norm(sense_dir)
            mixed = 0.6 * sense_dir + 0.8 * directions[ids]
            directions[ids] = mixed / np.linalg.norm(mixed, axis=1, keepdims=True)
            per_sense.append(ids)
        topics.append(per_sense)

    vectors = directions * norms[:, None]
    quantized = np.clip(np.rint(vectors * SCALE), -99_999, 99_999).astype(np.int32)

    rows = []
    context_id = 0
    n_tokens = 0
    n_oov_contexts = 0
    oov_ids = np.arange(EMBEDDED, n_vocab)
    for w, target in enumerate(targets):
        shares = np.array(SENSE_SHARES[: n_senses[w]])
        sizes = np.floor(shares / shares.sum() * spec.contexts_per_word).astype(int)
        sizes[0] += spec.contexts_per_word - sizes.sum()
        senses = rng.permutation(np.repeat(np.arange(n_senses[w]), sizes))
        n_oov = max(1, round(OOV_CONTEXT_SHARE * spec.contexts_per_word))
        all_oov = set(rng.choice(spec.contexts_per_word, size=n_oov, replace=False).tolist())
        for c, sense in enumerate(senses):
            length = int(rng.integers(*TOKENS_PER_CONTEXT, endpoint=True))
            if c in all_oov:
                ids = rng.choice(oov_ids, size=length)
                n_oov_contexts += 1
            else:
                ids = rng.choice(n_vocab, size=length, p=probs)
                topical = rng.random(length) < TOPIC_SHARE
                ids[topical] = rng.choice(topics[w][sense], size=int(topical.sum()))
            tokens = [words[i] for i in ids]
            for j in np.flatnonzero(rng.random(length) < 0.05):
                tokens[j] += ","
            pos = int(rng.integers(0, length + 1))
            form = target + TARGET_ENDINGS[int(rng.integers(len(TARGET_ENDINGS)))]
            before = " ".join(tokens[:pos])
            start = len(before) + 1 if before else 0
            context = " ".join(tokens[:pos] + [form] + tokens[pos:]) + "."
            context_id += 1
            n_tokens += length + 1
            rows.append(f"{context_id}\t{target}\t{sense + 1}\t\t"
                        f"{start}-{start + len(form)}\t{context}")

    out.mkdir(parents=True, exist_ok=True)
    dataset = out / "dataset.tsv"
    dataset.write_text(
        "context_id\tword\tgold_sense_id\tpredict_sense_id\tpositions\tcontext\n"
        + "\n".join(rows) + "\n", encoding="utf-8")

    df = np.clip(np.rint(N_DOCS * (1.0 - np.exp(-probs * 2e5))), 1, N_DOCS)
    idf = out / "idf.tsv"
    idf.write_text(f"# n_docs={N_DOCS}\n" + "".join(
        f"{word}\t{int(d)}\n" for word, d in sorted(zip(words, df))), encoding="utf-8")

    if spec.embeddings_format == "binary":
        embeddings = out / "embeddings.bin"
        _write_binary(embeddings, words[:EMBEDDED], quantized)
    else:
        embeddings = out / "embeddings.txt"
        _write_text(embeddings, words[:EMBEDDED], quantized)

    return {
        "spec": asdict(spec),
        "seed": seed,
        "dataset": str(dataset),
        "idf": str(idf),
        "embeddings": str(embeddings),
        "contexts": len(rows),
        "tokens": n_tokens,
        "oov_contexts": n_oov_contexts,
        "senses": n_senses,
    }


def _write_binary(path: Path, words: list[str], quantized: np.ndarray) -> None:
    values = (quantized / SCALE).astype("<f4")
    parts = [f"{len(words)} {quantized.shape[1]}\n".encode()]
    for word, row in zip(words, values):
        parts.append(word.encode() + b" " + row.tobytes() + b"\n")
    path.write_bytes(b"".join(parts))


def _write_text(path: Path, words: list[str], quantized: np.ndarray) -> None:
    # One 8-byte field (" " + "%7.4f") per possible rounded value, gathered
    # by index: the whole model is formatted by a single array lookup.
    table = "".join(f" {q / SCALE:7.4f}" for q in range(-99_999, 100_000))
    fields = np.frombuffer(table.encode("ascii"), dtype=np.uint8).reshape(-1, 8)
    body = fields[quantized + 99_999].reshape(len(words), -1)
    parts = [f"{len(words)} {quantized.shape[1]}\n".encode()]
    for word, row in zip(words, body):
        parts.append(word.encode() + row.tobytes() + b"\n")
    path.write_bytes(b"".join(parts))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(FIXTURES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    manifest = build(FIXTURES[args.workload], args.seed, args.out)
    (args.out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
