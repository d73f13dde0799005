"""Independent reference implementations used only for verification.

Everything here is deliberately naive and shares no code with the package:
pair-by-pair ARI counting, an O(n^3) agglomerative clusterer that recomputes
cluster distances from member lists, a scalar-loop affinity propagation
straight from the message-passing equations, and a rank-based correlation.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def pair_counting_ari(gold, pred) -> float:
    """ARI from explicit agreement counts over all item pairs."""
    n = len(gold)
    n11 = n00 = n10 = n01 = 0
    for i, j in combinations(range(n), 2):
        same_g = gold[i] == gold[j]
        same_p = pred[i] == pred[j]
        if same_g and same_p:
            n11 += 1
        elif same_g:
            n10 += 1
        elif same_p:
            n01 += 1
        else:
            n00 += 1
    denominator = (n00 + n01) * (n01 + n11) + (n00 + n10) * (n10 + n11)
    if denominator == 0:
        first = {}
        second = {}
        canon_g = [first.setdefault(g, len(first)) for g in gold]
        canon_p = [second.setdefault(p, len(second)) for p in pred]
        return 1.0 if canon_g == canon_p else 0.0
    return 2.0 * (n00 * n11 - n01 * n10) / denominator


def _point_distance(a, b, metric: str) -> float:
    if metric == "euclidean":
        return math.sqrt(float(((a - b) ** 2).sum()))
    if metric == "manhattan":
        return float(np.abs(a - b).sum())
    if metric == "cosine":
        na = math.sqrt(float((a * a).sum()))
        nb = math.sqrt(float((b * b).sum()))
        if na == 0.0 or nb == 0.0:
            return 1.0
        return max(1.0 - float((a * b).sum()) / (na * nb), 0.0)
    raise ValueError(metric)


def naive_agglomerative(points, k: int, linkage: str, metric: str = "euclidean",
                        labels_at: int | None = None):
    """Reference bottom-up clustering recomputing distances from members:
    ``(labels, merges)`` for the merges down to k clusters, with the labels
    of the partition at k clusters, or at ``labels_at`` (at least k) when
    given, so that one run gives a dendrogram and one of its cuts.

    Cluster-to-cluster distances: average = mean of all cross pair
    distances, complete = max of them, ward = 2|A||B|/(|A|+|B|) times the
    squared euclidean distance between centroids (the closed form of the
    Lance-Williams ward recursion started from squared point distances).
    Ties break on the lowest (min index, second index) pair, as in the
    implementation under test.
    """
    X = np.asarray(points, dtype=np.float64)
    n = len(X)
    if linkage == "ward":
        D = None
    else:
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                D[i, j] = D[j, i] = _point_distance(X[i], X[j], metric)

    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}

    def cluster_distance(a: int, b: int) -> float:
        ia, ib = clusters[a], clusters[b]
        if linkage == "ward":
            ca = X[ia].mean(axis=0)
            cb = X[ib].mean(axis=0)
            return (2.0 * len(ia) * len(ib) / (len(ia) + len(ib))
                    * float(((ca - cb) ** 2).sum()))
        block = D[np.ix_(ia, ib)]
        return float(block.max()) if linkage == "complete" else float(block.mean())

    cache: dict[tuple[int, int], float] = {}
    reps = sorted(clusters)
    for a, b in combinations(reps, 2):
        cache[(a, b)] = cluster_distance(a, b)

    def partition() -> np.ndarray:
        labels = np.empty(n, dtype=np.int64)
        for label, rep in enumerate(sorted(clusters)):
            labels[clusters[rep]] = label
        return labels

    cut = k if labels_at is None else labels_at
    if cut < k:
        raise ValueError(f"labels_at {labels_at} is below k {k}")
    labels = partition() if n <= cut else None
    merges = []
    while len(clusters) > k:
        best_pair = min(cache, key=lambda p: (cache[p], p))
        a, b = best_pair
        merges.append((a, b, cache[best_pair]))
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
        for p in [p for p in cache if a in p or b in p]:
            del cache[p]
        for other in clusters:
            if other != a:
                pair = (min(a, other), max(a, other))
                cache[pair] = cluster_distance(*pair)
        if len(clusters) == cut:
            labels = partition()
    return labels, merges


def reference_affinity_propagation(points, damping=0.5, preference=None,
                                   max_iter=200, window=15):
    """Scalar-loop message passing following the published update equations."""
    X = np.asarray(points, dtype=np.float64)
    n = len(X)
    S = [[-float(((X[i] - X[j]) ** 2).sum()) for j in range(n)] for i in range(n)]
    if preference is None:
        off = sorted(S[i][j] for i in range(n) for j in range(n) if i != j)
        mid = len(off) // 2
        preference = (off[mid] if len(off) % 2 == 1
                      else 0.5 * (off[mid - 1] + off[mid]))
    for i in range(n):
        S[i][i] = preference

    R = [[0.0] * n for _ in range(n)]
    A = [[0.0] * n for _ in range(n)]
    last = None
    stable = 0
    converged = False
    for _ in range(max_iter):
        Rnew = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for kk in range(n):
                competing = max(A[i][kp] + S[i][kp] for kp in range(n) if kp != kk)
                Rnew[i][kk] = S[i][kk] - competing
        for i in range(n):
            for kk in range(n):
                R[i][kk] = damping * R[i][kk] + (1 - damping) * Rnew[i][kk]
        Anew = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for kk in range(n):
                if i == kk:
                    Anew[i][kk] = sum(max(0.0, R[ip][kk]) for ip in range(n) if ip != kk)
                else:
                    s = R[kk][kk] + sum(max(0.0, R[ip][kk])
                                        for ip in range(n) if ip not in (i, kk))
                    Anew[i][kk] = min(0.0, s)
        for i in range(n):
            for kk in range(n):
                A[i][kk] = damping * A[i][kk] + (1 - damping) * Anew[i][kk]
        indicator = tuple(A[i][i] + R[i][i] > 0 for i in range(n))
        if indicator == last:
            stable += 1
        else:
            stable = 1
            last = indicator
        if stable >= window:
            converged = True
            break

    exemplars = [i for i in range(n) if A[i][i] + R[i][i] > 0]
    if not exemplars:
        exemplars = [max(range(n), key=lambda i: (A[i][i] + R[i][i], -i))]
    labels = []
    for i in range(n):
        if i in exemplars:
            labels.append(exemplars.index(i))
        else:
            labels.append(max(range(len(exemplars)),
                              key=lambda e: (S[i][exemplars[e]], -e)))
    return np.array(labels), exemplars, converged


def spearman_rank_correlation(x, y) -> float:
    """Pearson correlation of average-tie ranks, computed from first principles."""
    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        r = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for t in range(i, j + 1):
                r[order[t]] = avg
            i = j + 1
        return r

    rx, ry = ranks(list(x)), ranks(list(y))
    n = len(rx)
    mx = sum(rx) / n
    my = sum(ry) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    if vx == 0 or vy == 0:
        raise ValueError("constant input has no rank correlation")
    return cov / math.sqrt(vx * vy)


def partitions_equal(labels_a, labels_b) -> bool:
    """Set-partition equality ignoring label names."""
    seen_a: dict = {}
    seen_b: dict = {}
    ca = [seen_a.setdefault(l, len(seen_a)) for l in labels_a]
    cb = [seen_b.setdefault(l, len(seen_b)) for l in labels_b]
    return ca == cb
