"""Loading word2vec files and checking the norm-vs-frequency relationship.

Embedding vectors are served exactly as stored -- no unit normalization.
Frequent words tend to have longer vectors, so inside a weighted average the
short vectors of rare (noisy) words matter less. This script builds a tiny
synthetic model with that property, round-trips it through both file
formats, and runs the sampling diagnostic.
"""

import tempfile
from pathlib import Path

import numpy as np

import senseclust as sc

rng = np.random.default_rng(0)

# synthetic vocabulary: norm grows like log(1 + frequency)
entries, counts = {}, {}
for i in range(1, 301):
    word = f"word{i:03d}"
    direction = rng.normal(size=10)
    direction /= np.linalg.norm(direction)
    entries[word] = (np.log1p(i) * direction).astype(np.float32)
    counts[word] = i

# one float32 (V, D) matrix plus a word -> row map
model = sc.EmbeddingModel(np.stack(list(entries.values())),
                          {w: row for row, w in enumerate(entries)})
with tempfile.TemporaryDirectory() as tmp:
    workdir = Path(tmp)
    sc.write_embeddings(model, workdir / "vectors.txt", fmt="text")
    sc.write_embeddings(model, workdir / "vectors.bin", fmt="binary")
    text_model = sc.load_embeddings(workdir / "vectors.txt", fmt="text")
    bin_model = sc.load_embeddings(workdir / "vectors.bin", fmt="binary")

word = "word037"
print("text == binary for", word, ":",
      np.array_equal(text_model.lookup(word), bin_model.lookup(word)))
print("lookup is case-insensitive:",
      np.array_equal(text_model.lookup("WORD037"), text_model.lookup(word)))
print("out-of-vocabulary lookup:", text_model.lookup("missing"))

rows = sc.norm_frequency_report(text_model, sc.FrequencyTable(counts),
                                sample_size=12, seed=0)
print("\nsampled (word, frequency, L2 norm):")
for row in sorted(rows, key=lambda r: r[1]):
    print(f"  {row[0]}  freq={row[1]:>3}  norm={row[2]:.3f}")
print("\nnorms rise with frequency, as expected for these vectors.")
