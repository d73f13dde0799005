"""The two clustering algorithms, run on obvious geometry.

Agglomerative clustering merges the closest clusters bottom-up
(Lance-Williams updates; deterministic lowest-index tie-breaking) until the
requested count remains. Affinity propagation passes responsibility and
availability messages until an exemplar set stabilizes; the number of
clusters is not specified up front but emerges from the preference.
"""

import numpy as np

import senseclust as sc

rng = np.random.default_rng(42)
centers = np.array([[0, 0], [100, 0], [0, 100]], float)
X = np.vstack([c + rng.uniform(-0.1, 0.1, size=(10, 2)) for c in centers])

for linkage in ("ward", "average", "complete"):
    cfg = sc.ClusteringConfig(algorithm="agglomerative", n_clusters=3,
                              linkage=linkage)
    res = sc.agglomerative(X, cfg)
    sizes = np.bincount(res.labels)
    print(f"agglomerative {linkage:<8} -> cluster sizes {sizes.tolist()}")

# The first n - k merges are the k-cluster result.
print("\nward merge trace on 6 points (a, b, distance):")
for a, b, d in sc.dendrogram(X[:6], "ward"):
    print(f"  merged clusters {a} and {b} at {d:.4f}")

ap_cfg = sc.ClusteringConfig(algorithm="affinity_propagation", damping=0.5)
res = sc.affinity_propagation(X, ap_cfg)
print(f"\naffinity propagation: k={res.k}, exemplars={res.exemplars}, "
      f"converged={res.converged}")

print("\ncluster count grows with the preference:")
for pref in (-20.0, -5.0, 5.0):
    res = sc.affinity_propagation(
        X, sc.ClusteringConfig(algorithm="affinity_propagation",
                               preference=pref))
    print(f"  preference={pref:>6} -> k={res.k}")

print("\ncosine metric treats zero vectors as distance 1 from everything:")
pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
print(np.round(sc.pairwise_distances(pts, "cosine"), 3))
