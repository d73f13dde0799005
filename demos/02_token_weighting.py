"""tf-idf, chi-square, and the power combination that weights context tokens.

tf-idf damps ubiquitous words but cannot tell which of the rarer words
actually belong with a target. The chi-square table fills that gap: a word
that co-occurs almost exclusively with one target word gets a high score for
that pair. Raising both factors to tuned powers puts them on a common scale
before multiplying.
"""

import numpy as np

import senseclust as sc
from senseclust.dataset import ContextInstance, Dataset
from senseclust.vectorize import context_terms
from senseclust.weighting import power

# background corpus for idf: "the" is everywhere, "insurance" is rare
docs = [["the", "insurance", "policy"], ["the", "river", "bank"],
        ["the", "glass", "jar"], ["the", "first", "bank"],
        ["the", "second", "policy"], ["the", "deep", "river"]]
idf = sc.build_idf(docs)
print("idf('the')       =", round(idf.idf("the"), 3))
print("idf('insurance') =", round(idf.idf("insurance"), 3))
print("idf('unseen')    =", round(idf.idf("unseen"), 3), "(smoothed, never zero)")


def instance(cid, target, tokens):
    return ContextInstance(context_id=cid, target=target, gold_sense=None,
                           target_spans=[], raw_context=" ".join(tokens))


# The vectorizer weighs only tokens with an embedding; one-hot rows suffice here.
words = ["bank", "the", "insurance", "claim", "water", "slope"]
model = sc.EmbeddingModel(np.eye(len(words)), {w: i for i, w in enumerate(words)})


def tfidf_of(word, tokens):
    """The tf-idf the vectorizer gives ``word`` in a context of ``tokens``."""
    ctx = instance("c", "zzz", tokens)
    return context_terms(ctx, model, idf, sc.Chi2Table()).tfidf[ctx.kept.index(word)]


print("\ntf doubles the weight:", tfidf_of("bank", ["bank", "bank", "the"]), "vs",
      tfidf_of("bank", ["bank", "the"]))


# two targets; "insurance" appears only with "policy" contexts,
# "the" appears with everything
rows = [
    instance("p1", "policy", ["policy", "insurance", "the"]),
    instance("p2", "policy", ["policy", "insurance", "the"]),
    instance("p3", "policy", ["policy", "claim", "the"]),
    instance("r1", "river", ["river", "water", "the"]),
    instance("r2", "river", ["river", "water", "the"]),
    instance("r3", "river", ["river", "slope", "the"]),
]
by_target = {}
for i, inst in enumerate(rows):
    by_target.setdefault(inst.target, []).append(i)
dataset = Dataset(instances=rows, by_target=by_target)

chi2 = sc.build_chi2(dataset)
print("\nchi2(policy, insurance) =", round(chi2.value("policy", "insurance"), 3))
print("chi2(policy, the)       =", round(chi2.value("policy", "the"), 3))

print("\nraw 2x2 example: a=8 b=2 c=2 d=88 ->",
      round(sc.chi2_statistic(8, 2, 2, 88), 4))

# A token's weight is tfidf^p_tfidf * chi2^p_chi2, per kept occurrence (the
# target "policy" itself is excluded from its context).
terms = context_terms(rows[0], model, idf, chi2)
weights = np.multiply(power(terms.tfidf, 1.5), power(terms.chi2, 0.5))
w_ins, w_the = weights
print(f"\ncombined weight in a 'policy' context: insurance={w_ins:.3f}, "
      f"the={w_the:.3f}")
print("zero exponents disable a factor entirely:",
      power([123.0], 0.0)[0] * power([456.0], 0.0)[0], "(x^0 = 1)")
