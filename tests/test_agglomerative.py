import importlib
import warnings

import numpy as np
import pytest

from senseclust.cluster import (ClusteringConfig, agglomerative, cut_merges,
                                cut_merges_at, dendrogram, pairwise_distances)

from oracles import naive_agglomerative, partitions_equal

ALL_COMBOS = [("ward", "euclidean"),
              ("average", "euclidean"), ("average", "manhattan"), ("average", "cosine"),
              ("complete", "euclidean"), ("complete", "manhattan"), ("complete", "cosine")]


def cfg(k, linkage="ward", metric="euclidean"):
    return ClusteringConfig(algorithm="agglomerative", n_clusters=k,
                            linkage=linkage, metric=metric)


def test_well_separated_pairs_ward():
    pts = np.array([[0, 0], [0, 1], [10, 0], [10, 1]], float)
    res = agglomerative(pts, cfg(2))
    assert list(res.labels) == [0, 0, 1, 1]
    assert len(res.merge_trace) == 2


def test_boundary_k():
    pts = np.random.default_rng(0).normal(size=(7, 3))
    assert list(agglomerative(pts, cfg(1)).labels) == [0] * 7
    assert list(agglomerative(pts, cfg(7)).labels) == list(range(7))


def test_one_dimensional_average_matches_oracle():
    pts = np.array([[0.0], [1.0], [5.0]])
    res = agglomerative(pts, cfg(2, "average"))
    expected, _ = naive_agglomerative(pts, 2, "average")
    assert list(res.labels) == list(expected) == [0, 0, 1]


def test_ward_requires_euclidean():
    with pytest.raises(ValueError, match="ward"):
        cfg(2, "ward", "cosine")
    with pytest.raises(ValueError, match="ward"):
        dendrogram(np.zeros((3, 2)), "ward", "cosine")


def test_empty_input():
    with pytest.raises(ValueError):
        agglomerative(np.zeros((0, 2)), cfg(1))


def test_k_clamped_without_warning():
    # ClusterResult.k records the clamp; the CLI reports it.
    pts = np.random.default_rng(1).normal(size=(3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = agglomerative(pts, cfg(10))
    assert res.k == 3


def test_single_point():
    res = agglomerative(np.array([[1.0, 2.0]]), cfg(1))
    assert list(res.labels) == [0]
    assert res.merge_trace == []


@pytest.mark.parametrize("linkage,metric", ALL_COMBOS)
def test_matches_naive_oracle(linkage, metric):
    rng = np.random.default_rng(hash((linkage, metric)) % 2**32)
    for trial in range(12):
        n = int(rng.integers(2, 28))
        dim = int(rng.integers(1, 6))
        pts = rng.uniform(-5, 5, size=(n, dim))
        k = int(rng.integers(1, min(n, 8) + 1))
        res = agglomerative(pts, cfg(k, linkage, metric))
        expected, _ = naive_agglomerative(pts, k, linkage, metric)
        assert partitions_equal(res.labels, expected), (linkage, metric, trial)


def test_merge_trace_nondecreasing_complete():
    rng = np.random.default_rng(5)
    for metric in ("euclidean", "manhattan", "cosine"):
        pts = rng.uniform(size=(25, 4))
        res = agglomerative(pts, cfg(1, "complete", metric))
        dists = [d for _, _, d in res.merge_trace]
        assert dists == sorted(dists)


@pytest.mark.parametrize("linkage", ["ward", "average"])
def test_merge_trace_nondecreasing_on_oracle_instances(linkage):
    rng = np.random.default_rng(6)
    for _ in range(10):
        pts = rng.uniform(size=(20, 3))
        res = agglomerative(pts, cfg(1, linkage))
        dists = [d for _, _, d in res.merge_trace]
        assert dists == sorted(dists)


def test_trace_length_and_label_surjection():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(20, 3))
    for k in (1, 3, 7, 14):
        res = agglomerative(pts, cfg(k))
        assert len(res.merge_trace) == 20 - k
        assert set(res.labels) == set(range(k))


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(18, 3))
    base = agglomerative(pts, cfg(4, "average")).labels
    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(18)
        permuted = agglomerative(pts[perm], cfg(4, "average")).labels
        # undo the permutation and compare as set partitions
        unpermuted = np.empty(18, dtype=int)
        unpermuted[perm] = permuted
        assert partitions_equal(base, unpermuted)


def test_translation_invariance():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(20, 4))
    shift = np.full(4, 100.0)
    for linkage in ("ward", "average", "complete"):
        a = agglomerative(pts, cfg(3, linkage)).labels
        b = agglomerative(pts + shift, cfg(3, linkage)).labels
        assert partitions_equal(a, b)


def test_deterministic():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(15, 2))
    r1 = agglomerative(pts, cfg(4, "complete", "manhattan"))
    r2 = agglomerative(pts, cfg(4, "complete", "manhattan"))
    assert list(r1.labels) == list(r2.labels)
    assert r1.merge_trace == r2.merge_trace


def test_tie_break_lowest_index_pair():
    # four corners of a square: both diagonals of merges tie at distance 1
    pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float)
    merges = dendrogram(pts, "complete", "euclidean")
    assert merges[0][:2] == (0, 1)


def test_cut_merges_prefix_consistency():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(12, 3))
    merges = dendrogram(pts, "average", "euclidean")
    for k in range(1, 13):
        via_cut = cut_merges(merges, 12, k)
        direct = agglomerative(pts, cfg(k, "average")).labels
        assert list(via_cut) == list(direct)


def _replay_cut(merges, n, k):
    """One cut from a fresh replay, as cut_merges did before cut_merges_at."""
    members = {i: [i] for i in range(n)}
    for a, b, _ in merges[: n - k]:
        members[a].extend(members[b])
        del members[b]
    labels = np.empty(n, dtype=np.int64)
    for label, rep in enumerate(sorted(members)):
        labels[members[rep]] = label
    return labels


def test_cut_merges_at_replays_once_for_every_k():
    rng = np.random.default_rng(12)
    for trial in range(30):
        n = int(rng.integers(1, 40))
        pts = rng.normal(size=(n, 3))
        linkage = ("ward", "average", "complete")[trial % 3]
        merges = dendrogram(pts, linkage, "euclidean")
        ks = [int(k) for k in rng.integers(1, n + 1, size=int(rng.integers(1, 20)))]
        cuts = cut_merges_at(merges, n, ks)
        assert len(cuts) == len(ks)
        for k, labels in zip(ks, cuts):
            expected = _replay_cut(merges, n, k)
            assert labels.dtype == expected.dtype
            assert np.array_equal(labels, expected), (trial, k)
            assert np.array_equal(cut_merges(merges, n, k), expected)


def test_cut_merges_rejects_k_outside_one_to_n():
    merges = dendrogram(np.arange(8.0).reshape(4, 2), "average", "euclidean")
    for ks in ([0], [5], [2, 5]):
        with pytest.raises(ValueError, match="1..4"):
            cut_merges_at(merges, 4, ks)
    with pytest.raises(ValueError):
        cut_merges(merges, 4, 0)


def test_cosine_zero_vector_distance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    D = pairwise_distances(pts, "cosine")
    assert D[0, 1] == D[0, 2] == 1.0
    assert D[1, 2] == pytest.approx(0.0, abs=1e-12)


def masked_dendrogram(points, linkage, metric):
    """The merge loop with Lance-Williams updates gathered and scattered
    through an active mask, as ``dendrogram`` was first written; the
    whole-row kernel must give the same merges and distances bit for bit."""
    D = pairwise_distances(points, "sqeuclidean" if linkage == "ward" else metric)
    n = D.shape[0]
    np.fill_diagonal(D, np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    merges = []
    for _ in range(n - 1):
        a, b = divmod(int(np.argmin(D)), n)
        if a > b:
            a, b = b, a
        dist = float(D[a, b])
        merges.append((a, b, dist))
        others = active.copy()
        others[a] = others[b] = False
        idx = np.flatnonzero(others)
        if idx.size:
            if linkage == "complete":
                D[a, idx] = np.maximum(D[a, idx], D[b, idx])
            elif linkage == "average":
                sa, sb = sizes[a], sizes[b]
                D[a, idx] = (sa * D[a, idx] + sb * D[b, idx]) / (sa + sb)
            else:
                sa, sb, sk = sizes[a], sizes[b], sizes[idx]
                D[a, idx] = ((sa + sk) * D[a, idx] + (sb + sk) * D[b, idx]
                             - sk * dist) / (sa + sb + sk)
            D[idx, a] = D[a, idx]
        sizes[a] += sizes[b]
        active[b] = False
        D[b, :] = np.inf
        D[:, b] = np.inf
    return merges


def merge_fixtures(n):
    """Integer-grid points, which tie exactly and often, and normal points
    with every third row all-zero (all-OOV contexts)."""
    rng = np.random.default_rng(n)
    grid = rng.integers(0, 3, size=(n, 3)).astype(float)
    zeros = rng.normal(size=(n, 5))
    zeros[::3] = 0.0
    return {"grid": grid, "zero-rows": zeros}


def merge_bits(merges):
    return [(a, b, dist.hex()) for a, b, dist in merges]


def assert_merges_equal_masked(sizes, linkage, metric):
    for n in sizes:
        for name, X in merge_fixtures(n).items():
            assert merge_bits(dendrogram(X, linkage, metric)) == \
                merge_bits(masked_dendrogram(X, linkage, metric)), (name, n)


@pytest.mark.parametrize("linkage,metric", ALL_COMBOS)
def test_merges_equal_masked_update_loop_bitwise(linkage, metric):
    # 201, 260 and 520 lie above the rebuild floor, so rows are dropped.
    assert_merges_equal_masked([*range(1, 61), 201, 260, 520], linkage, metric)


@pytest.mark.parametrize("linkage,metric", ALL_COMBOS)
def test_merges_equal_masked_update_loop_when_rebuilding_at_every_size(
        linkage, metric, monkeypatch):
    # The package exports a function named ``cluster``, which hides the module.
    module = importlib.import_module("senseclust.cluster")
    monkeypatch.setattr(module, "_REBUILD_FLOOR", 2)
    assert_merges_equal_masked(range(1, 61), linkage, metric)
