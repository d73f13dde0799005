"""From-scratch agglomerative clustering and affinity propagation.

Both algorithms are deterministic: merge ties break on the lowest original
point indices, affinity propagation uses no randomness, and the optional
oscillation-breaking jitter is a fixed function of the point indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

LINKAGES = ("ward", "average", "complete")
METRICS = ("euclidean", "manhattan", "cosine")
ALGORITHMS = ("agglomerative", "affinity_propagation")
# Below about 200 rows a rebuild costs more than the shorter scans save.
_REBUILD_FLOOR = 200


@dataclass
class ClusteringConfig:
    """Algorithm tag plus its hyperparameters.

    ``preference=None`` means the affinity-propagation preference is set to
    the median off-diagonal similarity; an explicit numeric preference must
    lie in [-20, 5].
    """

    algorithm: str = "agglomerative"
    n_clusters: int = 2
    linkage: str = "ward"
    metric: str = "euclidean"
    damping: float = 0.5
    preference: float | None = None
    max_iter: int = 200
    convergence_window: int = 15

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.linkage not in LINKAGES:
            raise ValueError(f"unknown linkage {self.linkage!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not 1 <= self.n_clusters <= 14:
            raise ValueError(f"n_clusters must be in 1..14, got {self.n_clusters}")
        if self.linkage == "ward" and self.metric != "euclidean":
            raise ValueError("ward linkage requires the euclidean metric")
        if not 0.5 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0.5, 1), got {self.damping}")
        if self.preference is not None and not -20.0 <= self.preference <= 5.0:
            raise ValueError(f"preference must be in [-20, 5], got {self.preference}")
        if self.max_iter <= 0 or self.convergence_window <= 0:
            raise ValueError("max_iter and convergence_window must be positive")


@dataclass
class ClusterResult:
    labels: np.ndarray
    k: int
    exemplars: list[int] | None = None
    converged: bool | None = None
    merge_trace: list[tuple[int, int, float]] | None = None
    jitter_applied: bool = False


def pairwise_distances(points: np.ndarray, metric: str) -> np.ndarray:
    """Dense symmetric distance matrix with a zero diagonal.

    ``metric`` is one of METRICS, or "sqeuclidean" for the squared euclidean
    distances that ward and affinity propagation use. Cosine distance is
    1 - cos(x, y); a zero vector is at distance 1 from every other point.
    """
    X = np.ascontiguousarray(points, dtype=np.float64)
    return gram_distances(X, None if metric == "manhattan" else gram_matrix(X), metric)


def gram_matrix(X: np.ndarray) -> np.ndarray:
    """``X @ X.T``, the one matrix product behind every metric but manhattan."""
    return X @ X.T


def gram_distances(X: np.ndarray, gram: np.ndarray | None, metric: str) -> np.ndarray:
    """``pairwise_distances(X, metric)`` for C-contiguous float64 X, from
    ``gram = gram_matrix(X)``, which is left as it is, so that one product
    serves every metric of a point set. Manhattan does not read it."""
    if metric == "manhattan":
        # Upper triangle row by row in one reused buffer, each row mirrored
        # into its column; |x - y| == |y - x| bit for bit.
        D = np.zeros((len(X), len(X)))
        buf = np.empty_like(X)
        for i in range(len(X) - 1):
            diff = np.subtract(X[i + 1:], X[i], out=buf[i + 1:])
            np.abs(diff, out=diff).sum(axis=1, out=D[i, i + 1:])
            D[i + 1:, i] = D[i, i + 1:]
        return D
    if metric == "cosine":
        norms = np.sqrt(np.diag(gram).copy())
        zero = norms == 0.0
        safe = np.where(zero, 1.0, norms)
        D = 1.0 - gram / np.outer(safe, safe)
        D[zero, :] = 1.0
        D[:, zero] = 1.0
        np.fill_diagonal(D, 0.0)
        return np.maximum(D, 0.0, out=D)
    if metric not in ("euclidean", "sqeuclidean"):
        raise ValueError(f"unknown metric {metric!r}")
    # Squared norms are row sums, not the Gram diagonal: a zero vector then
    # lies at exactly sq[j] from point j, as in the difference form, so ties
    # stay ties. Clamped at 0, zero diagonal.
    sq = (X * X).sum(axis=1)
    D = np.add.outer(sq, sq)
    D -= 2.0 * gram
    np.maximum(D, 0.0, out=D)
    np.fill_diagonal(D, 0.0)
    return np.sqrt(D, out=D) if metric == "euclidean" else D


def dendrogram(points, linkage: str, metric: str = "euclidean"
               ) -> list[tuple[int, int, float]]:
    """Full bottom-up merge sequence via Lance-Williams updates.

    Returns n-1 merges ``(a, b, distance)`` where a < b are the lowest
    original point indices of the two merged clusters. Among minimum-distance
    pairs the one with the lexicographically smallest (a, b) wins, which
    makes the sequence deterministic. For ward linkage the recorded distance
    is the Lance-Williams value on the squared-euclidean scale (initialized
    to ||x_i - x_j||^2 between singletons).

    A merge retires row b (inf row and column, size 0). Once a quarter of a
    matrix of at least ``_REBUILD_FLOOR`` rows is retired, the matrix is
    rebuilt from its active rows, so the scans cost about the active count
    squared. Rows stay in ascending original index (``slot``), every update
    sees the same operands as on the full matrix, and merges are recorded in
    original indices: the result is bitwise that of the full-matrix loop.
    """
    if linkage not in LINKAGES:
        raise ValueError(f"unknown linkage {linkage!r}")
    if linkage == "ward" and metric != "euclidean":
        raise ValueError("ward linkage requires the euclidean metric")
    return merge_sequence(pairwise_distances(
        points, "sqeuclidean" if linkage == "ward" else metric), linkage)


def merge_sequence(D: np.ndarray, linkage: str) -> list[tuple[int, int, float]]:
    """``dendrogram``'s merges from its distance matrix D, which is consumed:
    squared euclidean for ward, the linkage's metric otherwise."""
    n = D.shape[0]
    if n == 0:
        raise ValueError("no points to cluster")
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(n, dtype=np.int64)
    slot = list(range(n))  # original index of each row, ascending
    m = n
    merges: list[tuple[int, int, float]] = []
    for active in range(n, 1, -1):
        if m >= _REBUILD_FLOOR and 4 * (m - active) >= m:
            keep = np.flatnonzero(sizes)
            D, sizes, m = D[np.ix_(keep, keep)], sizes[keep], active
            slot = [slot[i] for i in keep]
        # Row-major argmin implements the lowest-(a, b) tie rule because rows
        # are in ascending slot order and each active slot is its cluster's
        # minimum original index.
        a, b = divmod(int(np.argmin(D)), m)
        if a > b:
            a, b = b, a
        dist = float(D[a, b])
        merges.append((slot[a], slot[b], dist))
        # Lance-Williams on the whole rows: each retired slot, and a and b
        # themselves, is inf in D[a] or D[b] and every coefficient is
        # positive, so it stays inf without a mask.
        Da, Db = D[a], D[b]
        sa, sb = sizes[a], sizes[b]
        if linkage == "complete":
            np.maximum(Da, Db, out=Da)
        elif linkage == "average":
            Da *= sa
            Db *= sb
            Da += Db
            Da /= sa + sb
        else:  # ward
            Da *= sa + sizes
            Db *= sb + sizes
            Da += Db
            Da -= sizes * dist
            Da /= sa + sb + sizes
        D[:, a] = Da
        sizes[a] += sb
        sizes[b] = 0
        D[b, :] = np.inf
        D[:, b] = np.inf
    return merges


def cut_merges(merges: list[tuple[int, int, float]], n: int, k: int) -> np.ndarray:
    """Labels after applying the first n-k merges.

    Clusters are numbered by ascending minimum original index.
    """
    return cut_merges_at(merges, n, [k])[0]


def cut_merges_at(merges: list[tuple[int, int, float]], n: int, ks: Sequence[int]
                  ) -> list[np.ndarray]:
    """``[cut_merges(merges, n, k) for k in ks]`` from one replay of the merges."""
    if not all(1 <= k <= n for k in ks):
        raise ValueError(f"cluster counts must be in 1..{n}, got {list(ks)}")
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    cuts: dict[int, np.ndarray] = {}
    done = 0
    for step in sorted({n - k for k in ks}):
        for a, b, _ in merges[done:step]:
            members[a].extend(members[b])
            del members[b]
        done = step
        labels = np.empty(n, dtype=np.int64)
        for label, rep in enumerate(sorted(members)):
            labels[members[rep]] = label
        cuts[n - step] = labels
    return [cuts[k] for k in ks]


def agglomerative(points, cfg: ClusteringConfig) -> ClusterResult:
    """Bottom-up clustering to cfg.n_clusters clusters (clamped to n)."""
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    n = X.shape[0]
    k = min(cfg.n_clusters, n)
    merges = dendrogram(X, cfg.linkage, cfg.metric)
    labels = cut_merges(merges, n, k)
    return ClusterResult(labels=labels, k=k, merge_trace=merges[: n - k])


def _ap_messages(S: np.ndarray, damping: float, max_iter: int, window: int
                 ) -> tuple[np.ndarray, bool]:
    """Responsibility/availability passing; returns (diag(A+R) criterion, converged).

    A, R and one scratch matrix are allocated once. Each damped update
    ``d*R + (1-d)*Rnew`` is done in place with the same products and the
    same sum; IEEE + and * are commutative, so the bits are unchanged.
    """
    n = S.shape[0]
    A = np.zeros((n, n))
    R = np.zeros((n, n))
    tmp = np.empty((n, n))
    rows = np.arange(n)
    diag = slice(None, None, n + 1)  # the diagonal, through .flat
    last_indicator = None
    stable = 0
    converged = False
    for _ in range(max_iter):
        # responsibilities: r(i,k) = s(i,k) - max_{k' != k} (a(i,k') + s(i,k'))
        np.add(A, S, out=tmp)
        best_idx = np.argmax(tmp, axis=1)
        best = tmp[rows, best_idx]
        tmp[rows, best_idx] = -np.inf
        second = np.max(tmp, axis=1)
        np.subtract(S, best[:, None], out=tmp)
        tmp[rows, best_idx] = S[rows, best_idx] - second
        tmp *= 1.0 - damping
        R *= damping
        R += tmp
        # availabilities: a(i,k) = min(0, r(k,k) + sum_{i' not in {i,k}} max(0, r(i',k)))
        np.maximum(R, 0.0, out=tmp)
        tmp.flat[diag] = R.flat[diag]
        colsum = tmp.sum(axis=0)
        np.subtract(colsum, tmp, out=tmp)
        self_avail = tmp.flat[diag]  # .flat indexing copies
        np.minimum(tmp, 0.0, out=tmp)
        tmp.flat[diag] = self_avail
        tmp *= 1.0 - damping
        A *= damping
        A += tmp
        indicator = (A.flat[diag] + R.flat[diag]) > 0
        if last_indicator is not None and np.array_equal(indicator, last_indicator):
            stable += 1
        else:
            stable = 1
            last_indicator = indicator
        if stable >= window:
            converged = True
            break
    return A.flat[diag] + R.flat[diag], converged


def _labels_from_exemplars(S: np.ndarray, criterion: np.ndarray
                           ) -> tuple[np.ndarray, list[int]]:
    n = S.shape[0]
    exemplars = np.flatnonzero(criterion > 0)
    if exemplars.size == 0:
        # Fully degenerate message fixed point (e.g. identical points): fall
        # back to the single best self-candidate, lowest index on ties.
        exemplars = np.array([int(np.argmax(criterion))])
    assign = np.argmax(S[:, exemplars], axis=1)
    assign[exemplars] = np.arange(exemplars.size)
    return assign.astype(np.int64), [int(e) for e in exemplars]


def _deterministic_jitter(n: int, scale: float) -> np.ndarray:
    grid = np.arange(n, dtype=np.float64)
    return scale * (grid[:, None] * n + grid[None, :]) / max(n * n - 1, 1)


def affinity_propagation(points, cfg: ClusteringConfig) -> ClusterResult:
    """Exemplar-based clustering by message passing.

    Similarity is negative squared euclidean distance; the preference (self
    similarity) is cfg.preference, or the median off-diagonal similarity when
    unset. If message passing fails to converge and the similarity matrix
    contains exact ties, one retry is made with a tiny deterministic
    index-dependent jitter added to break the symmetry; the retry is recorded
    on the result. Non-convergence still yields the final-iteration labeling.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    return propagate(-pairwise_distances(X, "sqeuclidean"), cfg)


def propagate(S: np.ndarray, cfg: ClusteringConfig) -> ClusterResult:
    """``affinity_propagation`` from the similarities S of its points.

    Only S's diagonal is written (the preference), so one S serves every
    config of a point set.
    """
    n = S.shape[0]
    if n == 1:
        return ClusterResult(labels=np.zeros(1, dtype=np.int64), k=1,
                             exemplars=[0], converged=True)
    pref = cfg.preference
    if pref is None:  # the median off-diagonal similarity
        pref = float(np.median(S[~np.eye(n, dtype=bool)]))
    np.fill_diagonal(S, pref)
    criterion, converged = _ap_messages(S, cfg.damping, cfg.max_iter,
                                        cfg.convergence_window)
    jitter_applied = False
    if not converged:
        upper = S[np.triu_indices(n, k=1)]
        has_ties = np.unique(upper).size < upper.size
        if has_ties:
            spread = float(S.max() - S.min())
            S = S + _deterministic_jitter(n, 1e-12 * max(spread, 1.0))
            criterion, converged = _ap_messages(S, cfg.damping, cfg.max_iter,
                                                cfg.convergence_window)
            jitter_applied = True
    labels, exemplars = _labels_from_exemplars(S, criterion)
    return ClusterResult(labels=labels, k=len(exemplars), exemplars=exemplars,
                         converged=converged, jitter_applied=jitter_applied)


def cluster(points, cfg: ClusteringConfig) -> ClusterResult:
    """Dispatch on cfg.algorithm."""
    if cfg.algorithm == "agglomerative":
        return agglomerative(points, cfg)
    return affinity_propagation(points, cfg)
