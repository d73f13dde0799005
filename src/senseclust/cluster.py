"""From-scratch agglomerative clustering and affinity propagation.

Both algorithms are deterministic: merge ties break on the lowest original
point indices, affinity propagation uses no randomness, and the optional
oscillation-breaking jitter is a fixed function of the point indices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Iterator, Sequence

import numpy as np

LINKAGES = ("ward", "average", "complete")
METRICS = ("euclidean", "manhattan", "cosine")
ALGORITHMS = ("agglomerative", "affinity_propagation")
# The (linkage, metric) pairs an agglomerative config takes: ward merges
# squared euclidean distances, so it takes the euclidean metric only.
AGGLOMERATIVE_PAIRS = frozenset((lk, m) for lk in LINKAGES for m in METRICS
                                if lk != "ward" or m == "euclidean")
# Below about 200 rows a rebuild costs more than the shorter scans save.
_REBUILD_FLOOR = 200
# From this many point sets in a chunk, their merge loops run as one stack;
# below it the per-set loop is faster.
_STACK_FLOOR = 8


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
        for name in ("n_clusters", "max_iter", "convergence_window"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # the cut calls int.bit_length
        if not 1 <= self.n_clusters <= 14:
            raise ValueError(f"n_clusters must be in 1..14, got {self.n_clusters}")
        if (self.algorithm == "agglomerative"
                and (self.linkage, self.metric) not in AGGLOMERATIVE_PAIRS):
            raise ValueError("ward linkage requires the euclidean metric")
        damping, pref = self.damping, self.preference  # a bool is no number, nor a numpy one
        if (isinstance(damping, bool) or not isinstance(damping, Real)
                or not 0.5 <= damping < 1.0):
            raise ValueError(f"damping must be in [0.5, 1), got {damping}")
        if pref is not None and (isinstance(pref, bool) or not isinstance(pref, Real)
                                 or not -20.0 <= pref <= 5.0):
            raise ValueError(f"preference must be in [-20, 5], got {pref}")
        self.damping = float(damping)  # one spelling; below, + 0.0 turns -0.0 into 0.0
        self.preference = None if pref is None else float(pref) + 0.0
        if self.max_iter <= 0 or self.convergence_window <= 0:
            raise ValueError("max_iter and convergence_window must be positive")


@dataclass
class ClusterResult:
    labels: np.ndarray
    k: int
    exemplars: list[int] | None = None
    converged: bool | None = None
    jitter_applied: bool = False


def pairwise_distances(points: np.ndarray, metric: str) -> np.ndarray:
    """Dense symmetric distance matrix with a zero diagonal.

    ``metric`` is one of METRICS, or "sqeuclidean" for the squared euclidean
    distances that ward and affinity propagation use. Cosine distance is
    1 - cos(x, y); a zero vector is at distance 1 from every other point.
    Equal non-zero points have equal rows and lie at exactly 0 from each
    other.
    """
    X = np.ascontiguousarray(points, dtype=np.float64)
    if metric != "manhattan":
        return gram_distances(gram_matrix(X), row_facts(X), metric)
    # Upper triangle row by row in one reused buffer, each row mirrored into
    # its column; |x - y| == |y - x| bit for bit.
    D = np.zeros((len(X), len(X)))
    buf = np.empty_like(X)
    for i in range(len(X) - 1):
        diff = np.subtract(X[i + 1:], X[i], out=buf[i + 1:])
        np.abs(diff, out=diff).sum(axis=1, out=D[i, i + 1:])
        D[i + 1:, i] = D[i, i + 1:]
    return D


def gram_matrix(X: np.ndarray) -> np.ndarray:
    """``X @ X.T`` of a point set, or of each point set of a stack: the one
    matrix product behind every metric but manhattan."""
    return X @ np.swapaxes(X, -1, -2)


def row_facts(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[list[int]]]:
    """What the Gram-form distances of a C-contiguous float64 point set read
    besides its Gram product: its squared norms, its zero rows as a mask,
    and each group of its equal non-zero rows, in ascending order.

    Squared norms are row sums, not the Gram diagonal: a zero vector then
    lies at exactly sq[j] from point j, as in the difference form, so ties
    stay ties. Equal rows have equal squared norms and row sums, so rows
    are compared only where both repeat.
    """
    sq = (X * X).sum(axis=1)
    sums = X.sum(axis=1)
    order = np.lexsort((sums, sq))
    a, b = sq[order], sums[order]
    repeats = (a[1:] == a[:-1]) & (b[1:] == b[:-1]) & (a[1:] > 0.0)
    groups: dict[bytes, list[int]] = {}
    for i in np.union1d(order[:-1][repeats], order[1:][repeats]):
        groups.setdefault(X[i].tobytes(), []).append(int(i))
    return sq, sq == 0.0, [g for g in groups.values() if len(g) > 1]


def gram_distances(gram: np.ndarray, facts: tuple, metric: str) -> np.ndarray:
    """``pairwise_distances(X, metric)`` for "sqeuclidean", "euclidean" or
    "cosine", from ``gram = gram_matrix(X)`` and ``facts = row_facts(X)``,
    which are left as they are, so that one product and one set of facts
    serve every metric of a point set."""
    if metric not in ("cosine", "euclidean", "sqeuclidean"):
        raise ValueError(f"unknown metric {metric!r}")
    sq, zero, groups = facts
    if metric == "cosine":
        safe = np.where(zero, 1.0, np.sqrt(np.diag(gram)))
        D = 1.0 - gram / np.outer(safe, safe)
        D[zero, :] = 1.0
        D[:, zero] = 1.0
    else:
        D = np.add.outer(sq, sq)
        D -= 2.0 * gram
    np.fill_diagonal(D, 0.0)
    np.maximum(D, 0.0, out=D)
    # The Gram form rounds the distances between equal rows apart: each
    # group takes its lowest member's row and column, and 0 within.
    for group in groups:
        first, rest = group[0], group[1:]
        D[rest] = D[first]
        D[:, rest] = D[:, [first]]
        D[np.ix_(group, group)] = 0.0
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
    """
    ClusteringConfig(linkage=linkage, metric=metric)  # checks the linkage and metric
    stack = _point_stack(np.asarray(points)[None])
    grams = facts = None
    if metric != "manhattan":
        grams, facts = gram_matrix(stack), [row_facts(stack[0])]
    return list(zip(*(m[:, 0].tolist()
                      for m in _merges(stack, grams, facts, linkage, metric))))


def _lance_williams(linkage: str, Da, Db, sa, sb, sizes, dist) -> None:
    """Overwrite Da, cluster a's distances, with those of the union of a and
    b (sizes sa and sb, at distance dist) under the linkage: the one update
    of both merge loops, so that their merges agree bit for bit."""
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


def merge_sequence(D: np.ndarray, linkage: str
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``dendrogram``'s merges from its distance matrix D, which is consumed:
    squared euclidean for ward, the linkage's metric otherwise. The merges
    come back as ``(n - 1,)`` arrays of a, b and distance.

    A merge retires row b (inf row and column, size 0). Once a quarter of a
    matrix of at least ``_REBUILD_FLOOR`` rows is retired, it is rebuilt from
    its active rows, in ascending original index (``slot``), so the scans
    cost about the active count squared. Every update sees the same operands
    as on the full matrix: the merges are bitwise the full-matrix loop's.
    """
    m = D.shape[0]
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(m, dtype=np.int64)
    slot = np.arange(m)  # original index of each row, ascending
    merged = (np.empty(m - 1, dtype=np.intp), np.empty(m - 1, dtype=np.intp),
              np.empty(m - 1))
    for step, active in enumerate(range(m, 1, -1)):
        if m >= _REBUILD_FLOOR and 4 * (m - active) >= m:
            keep = np.flatnonzero(sizes)
            D, sizes, slot, m = D[np.ix_(keep, keep)], sizes[keep], slot[keep], active
        # Row-major argmin implements the lowest-(a, b) tie rule because rows
        # are in ascending slot order and each active slot is its cluster's
        # minimum original index.
        a, b = divmod(int(np.argmin(D)), m)
        if a > b:
            a, b = b, a
        dist = float(D[a, b])
        merged[0][step], merged[1][step], merged[2][step] = slot[a], slot[b], dist
        # Lance-Williams on the whole rows: each retired slot, and a and b
        # themselves, is inf in D[a] or D[b] and every coefficient is
        # positive, so it stays inf without a mask.
        Da, Db = D[a], D[b]
        _lance_williams(linkage, Da, Db, sizes[a], sizes[b], sizes, dist)
        D[:, a] = Da
        sizes[a] += sizes[b]
        sizes[b] = 0
        D[b, :] = np.inf
        D[:, b] = np.inf
    return merged


def merge_sequences(D: np.ndarray, linkage: str
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``merge_sequence`` of each matrix of a ``(B, n, n)`` stack D, which is
    consumed, as ``(n - 1, B)`` arrays of a, b and distance, bit for bit.

    Each row caches the minimum of its upper triangle and that minimum's
    lowest column (the "generic" algorithm of Müllner 2011), so a step finds
    every set's lowest-(a, b) minimum pair in B * n cached values. Once a
    and b > a merge, row a and every row whose cached column was a or b are
    rescanned; any other row i < a takes the new ``D[i, a]`` if it is
    smaller, or equal with a lower column. Reducibility is not assumed: a
    rounded Lance-Williams value may fall below an old minimum.
    """
    count, n, _ = D.shape
    sets, index = np.arange(count), np.arange(n)
    D[:, index, index] = np.inf
    # Integral sizes as floats: the same bits as merge_sequence's int64 sizes,
    # without a cast per operation.
    sizes = np.ones((count, n))
    mins = np.full((count, n), np.inf)
    # Row i of ``left`` marks the columns left of i, of ``right`` those right.
    left, right = index < index[:, None], index > index[:, None]
    cols = np.full((count, n), -1)  # -1: the last row and retired rows
    for i in range(n - 1):
        cols[:, i] = i + 1 + D[:, i, i + 1:].argmin(axis=1)
        mins[:, i] = D[:, i, i + 1:].min(axis=1)
    merged = (np.empty((n - 1, count), dtype=np.intp),
              np.empty((n - 1, count), dtype=np.intp), np.empty((n - 1, count)))
    for step in range(n - 1):
        # Among equal minima argmin takes the lowest row, and a row caches
        # its lowest column: the lowest (a, b), as the full-matrix argmin.
        a = mins.argmin(axis=1)
        b = cols[sets, a]
        dist = mins[sets, a]
        merged[0][step], merged[1][step], merged[2][step] = a, b, dist
        Da, Db = D[sets, a], D[sets, b]
        _lance_williams(linkage, Da, Db, sizes[sets, a][:, None],
                        sizes[sets, b][:, None], sizes, dist[:, None])
        D[sets, a] = Da
        D[sets, :, a] = Da
        sizes[sets, a] += sizes[sets, b]
        sizes[sets, b] = 0
        D[sets, b] = np.inf
        D[sets, :, b] = np.inf
        stale = (cols == a[:, None]) | (cols == b[:, None])
        stale[sets, a] = True
        # Row i < a sees the new D[i, a] = Da[i] and an inf at b. A retired
        # row is inf at a and caches -1, so it never changes.
        lower = left[a] & ((Da < mins) | ((Da == mins) & (a[:, None] < cols)))
        np.copyto(mins, Da, where=lower)
        np.copyto(cols, a[:, None], where=lower)
        stale[sets, b] = False
        mins[sets, b] = np.inf
        cols[sets, b] = -1
        rs, ri = np.divmod(np.flatnonzero(stale), n)
        rows = np.where(right[ri], D[rs, ri], np.inf)
        cols[rs, ri] = rows.argmin(axis=1)
        mins[rs, ri] = rows[np.arange(len(rs)), cols[rs, ri]]
    return merged


def cut_sequences(merged: tuple[np.ndarray, np.ndarray, np.ndarray], n: int,
                  ks: Sequence[int]) -> list[np.ndarray]:
    """Every set's labels after its first n - k merges, for each k: one
    ``(B, n)`` array per k, from one pass over the ``(n - 1, B)`` merges
    that ``merge_sequences`` returns. Clusters are numbered by their lowest
    original index, ascending.

    ``rep`` maps each point to its root, its cluster's lowest index. A
    merge of roots a < b points b at a. After s more merges no point is
    more than s + 1 pointers from its root, so ``s.bit_length()`` pointer
    jumps reach every root.
    """
    if not all(1 <= k <= n for k in ks):
        raise ValueError(f"cluster counts must be in 1..{n}, got {list(ks)}")
    first, second, _ = merged
    sets = np.arange(first.shape[1])[:, None]
    rep = np.tile(np.arange(n), (len(sets), 1))
    cuts: dict[int, np.ndarray] = {}
    done = 0
    for step in sorted({n - k for k in ks}):
        rep[sets, second[done:step].T] = first[done:step].T
        for _ in range((step - done).bit_length()):
            rep = np.take_along_axis(rep, rep, axis=1)
        done = step
        ranks = np.cumsum(rep == np.arange(n), axis=1, dtype=np.int64) - 1
        cuts[n - step] = np.take_along_axis(ranks, rep, axis=1)
    return [cuts[k] for k in ks]


def _merges(part, grams, facts, linkage: str, metric: str) -> tuple:
    """A chunk's merges, as ``(n - 1, B)`` arrays: from its points for
    manhattan, else from its Gram products and row facts, and then ``part``
    may be None. Ward merges squared euclidean distances. From
    ``_STACK_FLOOR`` point sets, ``merge_sequences`` runs on a ``(B, n, n)``
    stack of their distances made here; fewer sets run the faster
    ``merge_sequence`` each."""
    kind = "sqeuclidean" if linkage == "ward" else metric

    def distances(s: int) -> np.ndarray:
        if kind == "manhattan":
            return pairwise_distances(part[s], kind)
        return gram_distances(grams[s], facts[s], kind)

    count, n = (part if kind == "manhattan" else grams).shape[:2]
    if count >= _STACK_FLOOR:
        D = np.empty((count, n, n))
        for s in range(count):
            D[s] = distances(s)
        return merge_sequences(D, linkage)
    # Unnamed, the distances do not outlive the merge sequence.
    return tuple(np.stack(m, axis=1) for m in zip(*(
        merge_sequence(distances(s), linkage) for s in range(count))))


def cut_merges(merges: list[tuple[int, int, float]], n: int, k: int) -> np.ndarray:
    """Labels after the first n - k merges of a ``dendrogram``, or of a
    prefix of at least n - k of them; clusters are numbered by their lowest
    original index, ascending. ValueError if fewer merges are given."""
    if len(merges) < n - k < n:  # a k outside 1..n is cut_sequences' error
        raise ValueError(f"k = {k} of {n} points takes {n - k} merges, got {len(merges)}")
    pairs = np.array([m[:2] for m in merges], dtype=np.intp).reshape(-1, 2)
    return cut_sequences((pairs[:, :1], pairs[:, 1:], None), n, [k])[0][0]


def agglomerative(points, cfg: ClusteringConfig) -> ClusterResult:
    """Bottom-up clustering to cfg.n_clusters clusters (clamped to n)."""
    return cluster(points, replace(cfg, algorithm="agglomerative"))


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
    return cluster(points, replace(cfg, algorithm="affinity_propagation"))


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
    """The points clustered by cfg.algorithm."""
    return next(cluster_points(np.asarray(points)[None], [cfg]))[0]


def _point_stack(stack) -> np.ndarray:
    stack = np.ascontiguousarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1] == 0:
        raise ValueError("each point set must be a non-empty 2-D array")
    return stack


def cluster_points(stack, cfgs: Sequence[ClusteringConfig]
                   ) -> Iterator[list[ClusterResult]]:
    """Yield ``[cluster(points, cfg) for cfg in cfgs]`` for each point set of
    a ``(B, n, d)`` stack, bit for bit: the one place that runs a clustering.

    Unless every config is manhattan, each chunk of ``max(1, B * d // n)``
    point sets takes its Gram products as one batched product, so that they
    hold no more floats than its points (numpy computes each item with the
    same BLAS call as ``X @ X.T``), then each set's ``row_facts``; every
    other metric is built from those two, which the chunk holds throughout.
    Without a manhattan config the points are not read again: the stack is
    let go once the last chunk's products and facts are taken, so a caller
    that keeps no reference to it frees it before any merge loop or AP.

    The agglomerative configs of a (linkage, metric) pair share one
    ``_merges`` call, which alone holds their distances, and one
    ``cut_sequences`` call per chunk; each k is clamped to n, and the merges
    are ``dendrogram(points, linkage, metric)[:n - k]``. AP's similarities
    are built in the Gram product's buffer after every merge sequence of
    its chunk, whatever the order of cfgs.
    """
    stack = _point_stack(stack)
    groups: dict[tuple[str, str] | None, list[int]] = {}
    for i, cfg in enumerate(cfgs):
        key = (cfg.linkage, cfg.metric) if cfg.algorithm == "agglomerative" else None
        groups.setdefault(key, []).append(i)
    ap_configs = groups.pop(None, [])
    reads_points = any(m == "manhattan" for _, m in groups)
    needs_gram = bool(ap_configs) or any(m != "manhattan" for _, m in groups)
    count, n, dim = stack.shape
    chunk = max(1, count * dim // n)
    for lo in range(0, count, chunk):
        part = stack[lo:lo + chunk]
        results = [[None] * len(cfgs) for _ in part]
        grams = facts = None
        if needs_gram:
            grams, facts = gram_matrix(part), [row_facts(X) for X in part]
        if not reads_points and lo + chunk >= count:
            part = stack = None
        for (linkage, metric), members in groups.items():
            ks = [min(cfgs[i].n_clusters, n) for i in members]
            merged = _merges(part, grams, facts, linkage, metric)
            for result, labels_at in zip(results, zip(*cut_sequences(merged, n, ks))):
                for i, k, labels in zip(members, ks, labels_at):
                    result[i] = ClusterResult(labels=labels, k=k)
        for s, result in enumerate(results):
            if ap_configs:  # similarity is negative squared euclidean distance
                similarities = np.negative(
                    gram_distances(grams[s], facts[s], "sqeuclidean"), out=grams[s])
                for i in ap_configs:
                    result[i] = propagate(similarities, cfgs[i])
            yield result
