"""End-to-end sense induction on a synthetic two-sense corpus.

Two ambiguous words, two senses each; the sense vocabularies sit at opposite
ends of one embedding axis per word, with shared noise tokens near other
axes. The pipeline vectorizes every context, clusters per word, scores the
adjusted Rand index against the gold senses, and then lets the grid search
find the configuration on its own.
"""

import tempfile
from pathlib import Path

import numpy as np

import senseclust as sc
from senseclust.evaluate import evaluate
from senseclust.vectorize import vectorize

rng = np.random.default_rng(0)

# --- synthetic data --------------------------------------------------------
dim = 8
sense_axes = {("alphaword", "A"): (0, +1), ("alphaword", "B"): (0, -1),
              ("betaword", "C"): (1, +1), ("betaword", "D"): (1, -1)}
vocabs = {key: [f"{key[1].lower()}tok{i:02d}" for i in range(20)]
          for key in sense_axes}
noise = [f"noise{i:02d}" for i in range(15)]

entries = {}
for key, words in vocabs.items():
    axis, sign = sense_axes[key]
    for w in words:
        vec = np.zeros(dim)
        vec[axis] = sign * rng.uniform(0.8, 1.2)
        entries[w] = (vec + rng.normal(scale=0.05, size=dim)).astype(np.float32)
for i, w in enumerate(noise):
    vec = np.zeros(dim)
    vec[2 + i % (dim - 2)] = rng.uniform(0.8, 1.2)
    entries[w] = vec.astype(np.float32)
model = sc.EmbeddingModel(np.stack(list(entries.values())),
                          {w: row for row, w in enumerate(entries)})

rows = ["context_id\tword\tgold_sense_id\tpredict_sense_id\tpositions\tcontext"]
cid = 0
for (target, sense), words in vocabs.items():
    for _ in range(25):
        toks = [target] + list(rng.choice(words, size=6, replace=False)) \
            + list(rng.choice(noise, size=3, replace=False))
        rows.append(f"c{cid:03d}\t{target}\t{sense}\t\t0-{len(target)}\t"
                    + " ".join(toks))
        cid += 1

with tempfile.TemporaryDirectory() as tmp:
    train_path = Path(tmp) / "train.tsv"
    train_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    dataset = sc.parse_dataset(train_path)
print(f"dataset: {len(dataset.instances)} contexts, "
      f"{len(dataset.by_target)} target words")

# --- weights ---------------------------------------------------------------
vocab = sorted(entries)
background = [list(rng.choice(vocab, size=10, replace=False)) for _ in range(150)]
idf = sc.build_idf(background)
chi2 = sc.build_chi2(dataset)

# --- cluster and evaluate one configuration --------------------------------
wcfg = sc.WeightingConfig(p_tfidf=1.0, p_chi2=1.0)
ccfg = sc.ClusteringConfig(algorithm="agglomerative", n_clusters=2,
                           linkage="ward")
assignments = {}
for word, idxs in dataset.by_target.items():
    X = np.vstack([vectorize(dataset.instances[i], model, idf, chi2, wcfg).v
                   for i in idxs])
    labels = sc.agglomerative(X, ccfg).labels
    for i, lab in zip(idxs, labels):
        assignments[dataset.instances[i].context_id] = str(lab)

report = evaluate(dataset, sc.Labeling(assignments))
print("\nper-word ARI with tfidf^1 * chi2^1, ward, k=2:")
for word, (score, n) in sorted(report.per_word.items()):
    print(f"  {word:<10} ari={score:.3f}  (n={n})")
print(f"weighted={report.aggregate_weighted:.3f} "
      f"macro={report.aggregate_macro:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    pred_path = Path(tmp) / "pred.tsv"
    sc.write_predictions(dataset, sc.Labeling(assignments), pred_path)
    print("\nfirst rows of the predictions file:")
    print("\n".join(pred_path.read_text(encoding="utf-8").splitlines()[:3]))

# --- grid search -----------------------------------------------------------
space = sc.SearchSpace(power_grid=(0.0, 1.0, 2.0), k_grid=(1, 2, 3, 4),
                       linkages=("ward", "average"), metrics=("euclidean",),
                       algorithms=("agglomerative",))
result = sc.grid_search(dataset, model, idf, chi2, space)
best = result.best
print(f"\ngrid search over {len(result.ranked)} configurations")
print("best:", sc.serialize_config(best.clustering, best.weighting),
      f"train_ari={best.train_ari:.3f}")

heat = sc.export_power_heatmap(result)
print("\npower heatmap (ari maximized over clustering dimensions):")
print("p_tfidf  p_chi2  ari")
for pt, pc, a in heat:
    print(f"  {pt:<6} {pc:<6} {a:.3f}")
