"""From tokens to a single unit vector per context.

The target word and all of its inflected forms are removed first (a shared
prefix of at least max(4, len(target) - 2) characters, capped at the
target's length, counts as a form),
remaining tokens are weighted, the weight vector is L2-normalized, and the
weighted sum of raw embeddings is L2-normalized again. The double
normalization makes the result invariant to any common scaling of the
weights.
"""

import numpy as np

import senseclust as sc
from senseclust.dataset import ContextInstance
from senseclust.vectorize import vectorize

tokens = ["банках", "хранят", "банки", "огурцы", "бак"]
print("tokens:            ", tokens)
print("after exclusion:   ", sc.exclude_target(tokens, "банка"))
print("('бак' survives: common prefix is only 2 characters)\n")

words = ["хранят", "огурцы", "бак"]
vectors = np.array([[1.0, 0.0, 0.0],
                    [0.0, 2.0, 0.0],
                    [0.0, 0.0, 0.5]], dtype=np.float32)
model = sc.EmbeddingModel(vectors, {w: row for row, w in enumerate(words)})
idf = sc.IdfTable(n_docs=1, df={})
chi2 = sc.Chi2Table(values={("банка", "хранят"): 3.0, ("банка", "огурцы"): 4.0,
                            ("банка", "бак"): 1.0})

inst = ContextInstance(context_id="c1", target="банка", gold_sense=None,
                       target_spans=[], raw_context=" ".join(tokens))

cv = vectorize(inst, model, idf, chi2, sc.WeightingConfig(p_tfidf=1.0,
                                                          p_chi2=1.0))
print("context vector:", np.round(cv.v, 4))
print("unit norm:", round(float(np.linalg.norm(cv.v)), 12),
      "| contributing tokens:", cv.n_contributing)

scaled = sc.Chi2Table(values={k: 100.0 * v for k, v in chi2.values.items()})
cv_scaled = vectorize(inst, model, idf, scaled,
                      sc.WeightingConfig(p_tfidf=1.0, p_chi2=1.0))
print("\nscaling every weight by 100 changes nothing:",
      np.allclose(cv.v, cv_scaled.v, atol=1e-12))

plain = vectorize(inst, model, idf, chi2, sc.WeightingConfig(0.0, 0.0))
print("(0, 0) exponents reduce to the plain average direction:",
      np.round(plain.v, 4))
