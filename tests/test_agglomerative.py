import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import senseclust.cluster as cluster_module
from senseclust.cluster import (ClusteringConfig, agglomerative, cluster,
                                cluster_points, cut_merges, cut_sequences,
                                dendrogram, gram_matrix, merge_sequence,
                                merge_sequences, pairwise_distances)

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
    merges = dendrogram(pts, "ward")
    assert len(merges) == 3
    assert list(cut_merges(merges[:2], 4, 2)) == [0, 0, 1, 1]


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
    # Affinity propagation has no linkage, so the default ward binds no metric.
    ClusteringConfig(algorithm="affinity_propagation", linkage="ward", metric="cosine")


@pytest.mark.parametrize("field", ["n_clusters", "max_iter", "convergence_window"])
@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_counts_must_be_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ClusteringConfig(**{field: value})


def test_numpy_integer_counts_are_valid():
    config = ClusteringConfig(n_clusters=np.int64(3), max_iter=np.int32(5),
                              convergence_window=np.uint8(2))
    assert config == ClusteringConfig(n_clusters=3, max_iter=5, convergence_window=2)
    assert list(agglomerative(np.arange(8.0).reshape(4, 2), config).labels) == [0, 0, 1, 2]


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


def assert_same_results(got, want, where=None):
    """Every ``ClusterResult`` field of two result lists is equal."""
    assert len(got) == len(want), where
    for a, b in zip(got, want):
        assert a.labels.dtype == b.labels.dtype, where
        assert np.array_equal(a.labels, b.labels), where
        assert a.k == b.k, where
        assert a.exemplars == b.exemplars, where
        assert a.converged == b.converged, where
        assert a.jitter_applied == b.jitter_applied, where


# Two AP configs, the second stopping before it converges (and retrying with
# jitter on tied similarities), then every linkage/metric pair at k = 2 and
# k = 9, the linkages interleaved.
AP_CONFIGS = [ClusteringConfig(algorithm="affinity_propagation"),
              ClusteringConfig(algorithm="affinity_propagation", damping=0.9,
                               preference=-1.0, max_iter=3)]
EVERY_CONFIG = AP_CONFIGS + [cfg(k, linkage, metric) for k in (2, 9)
                             for linkage, metric in ALL_COMBOS[::2] + ALL_COMBOS[1::2]]


def test_cluster_points_equals_one_cluster_call_per_config():
    # AP configs come first, so AP's similarities must wait for every merge
    # sequence to have read the Gram product. k = 9 exceeds both point counts.
    X = np.random.default_rng(3).normal(size=(6, 4))
    X[2] = 0.0  # an all-OOV context
    X[4] = X[5] = X[1]
    for points in (X, X[2:3]):
        before = points.copy()
        [batch] = cluster_points(points[None], EVERY_CONFIG)
        assert np.array_equal(points, before)
        assert_same_results(batch, [cluster(points, c) for c in EVERY_CONFIG])
        assert batch[1].jitter_applied is (len(points) > 1)
        assert [r.k for r in batch[len(AP_CONFIGS):]] == [
            min(c.n_clusters, len(points)) for c in EVERY_CONFIG[len(AP_CONFIGS):]]


@st.composite
def point_stacks(draw, max_count=40, max_n=130):
    """A (B, n, d) stack of point sets with coarse values, so that distances
    tie, and with the same zero rows and duplicate rows in every set."""
    count = draw(st.integers(1, max_count))
    n, dim = draw(st.integers(1, max_n)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.round(rng.normal(size=(count, n, dim)), 1)
    row = st.integers(0, n - 1)
    stack[:, draw(st.lists(row, max_size=3))] = 0.0
    for source, copy in draw(st.lists(st.tuples(row, row), max_size=3)):
        stack[:, copy] = stack[:, source]
    return stack


@st.composite
def lattice_stacks(draw):
    """A (B, n, d) stack of points on a lattice {0, s}^d: many exact ties,
    and Lance-Williams averages of tied values that round."""
    count, n = draw(st.integers(1, 12)), draw(st.integers(1, 40))
    dim, step = draw(st.integers(1, 3)), draw(st.sampled_from([0.1, 0.3, 0.7, 1 / 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return step * rng.integers(0, 2, size=(count, n, dim))


# On this set, average linkage on euclidean and manhattan distances rounds a
# merged row's value to its cached minimum with a lower column.
LATTICE = 0.1 * np.array([[[0, 0], [1, 1], [1, 1], [0, 0], [1, 0], [1, 0], [0, 1], [1, 1],
                            [0, 0], [1, 1], [0, 0], [1, 0], [1, 0], [1, 0], [1, 1], [0, 0]]])
# n > d: max(1, 5 * 3 // 7) = 2 point sets per chunk, so chunks of 2, 2 and 1.
CHUNKED = np.round(np.random.default_rng(4).normal(size=(5, 7, 3)), 1)
CHUNKED[:, 6] = CHUNKED[:, 2]


def assert_stack_equals_one_call_per_point_set(stack):
    before = stack.copy()
    count, n, dim = stack.shape
    products = []

    def recording(part):
        gram = gram_matrix(part)
        products.append((part.copy(), gram.copy()))  # AP writes into the product
        return gram

    with mock.patch.object(cluster_module, "gram_matrix", recording):
        batch = list(cluster_points(stack, EVERY_CONFIG))
    assert np.array_equal(stack, before)
    chunk = max(1, count * dim // n)
    assert [len(part) for part, _ in products] == [
        min(chunk, count - lo) for lo in range(0, count, chunk)]
    for part, gram in products:
        for X, G in zip(part, gram):
            assert np.array_equal(G, X @ X.T)
    assert len(batch) == count
    for b, got in enumerate(batch):
        [want] = cluster_points(stack[b:b + 1], EVERY_CONFIG)
        assert_same_results(got, want, b)


@settings(max_examples=10, deadline=None)
@given(point_stacks())
@example(CHUNKED)
def test_a_stack_equals_one_call_per_point_set(stack):
    assert_stack_equals_one_call_per_point_set(stack)


@settings(max_examples=10, deadline=None)
@given(point_stacks(max_count=24, max_n=80))
@example(CHUNKED)
@example(np.repeat(LATTICE, 16, axis=0))  # chunks of 16 * 2 // 16 = 2 point sets
def test_a_stack_equals_one_call_per_point_set_when_every_chunk_is_stacked(stack):
    # A stack of one stays below the floor, so every chunk of two or more
    # point sets is compared with the per-set merge loop.
    with mock.patch.object(cluster_module, "_STACK_FLOOR", 2):
        assert_stack_equals_one_call_per_point_set(stack)


# (count, n, d): one chunk of 1, one chunk of 12, and chunks of
# max(1, 12 * 4 // 6) = 8 and 4 point sets.
@pytest.mark.parametrize("shape", [(1, 6, 4), (12, 6, 6), (12, 6, 4)])
def test_one_cut_per_group_and_chunk_whichever_merge_loop_ran(shape):
    count, n, dim = shape
    stack = np.round(np.random.default_rng(14).normal(size=shape), 1)
    calls = {"merge_sequence": [], "merge_sequences": [], "cut_sequences": []}

    def counting(name, depth):
        kernel = getattr(cluster_module, name)

        def wrapper(*args):
            calls[name].append(depth(args[0]))
            return kernel(*args)
        return wrapper

    with mock.patch.multiple(
            cluster_module,
            merge_sequence=counting("merge_sequence", lambda D: 1),
            merge_sequences=counting("merge_sequences", len),
            cut_sequences=counting("cut_sequences", lambda merged: merged[0].shape[1])):
        list(cluster_points(stack, EVERY_CONFIG))
    chunk = max(1, count * dim // n)
    depths = [min(chunk, count - lo) for lo in range(0, count, chunk)]
    groups = len(ALL_COMBOS)
    assert calls["cut_sequences"] == [d for d in depths for _ in range(groups)]
    assert calls["merge_sequences"] == [d for d in depths for _ in range(groups)
                                        if d >= cluster_module._STACK_FLOOR]
    assert len(calls["merge_sequence"]) == groups * sum(
        d for d in depths if d < cluster_module._STACK_FLOOR)


METRIC_KINDS = ("sqeuclidean", "euclidean", "manhattan", "cosine")


# n = 1, 2 and 3 with zero rows and equal rows, zero or not.
SMALL_STACKS = [np.zeros((3, 1, 2)),
                np.array([[[0.0], [0.0]], [[0.0], [1.0]], [[1.0], [1.0]]]),
                np.round(np.random.default_rng(13).normal(size=(4, 3, 2)), 0)]
SMALL_STACKS[2][:2, 1] = 0.0
SMALL_STACKS[2][1:, 2] = SMALL_STACKS[2][1:, 0]


@settings(max_examples=25, deadline=None)
@given(st.one_of(point_stacks(max_count=12, max_n=60), lattice_stacks()),
       st.lists(st.integers(0, 200), min_size=1, max_size=6))
@example(LATTICE, [3, 9, 3])
@example(SMALL_STACKS[0], [0, 3, 0])
@example(SMALL_STACKS[1], [1, 0, 1, 0])
@example(SMALL_STACKS[2], [2, 0, 1, 2])
def test_merge_sequences_equal_one_merge_sequence_per_matrix(stack, draws):
    count, n, _ = stack.shape
    ks = [1 + k % n for k in draws]  # unsorted, often with repeats
    for metric in METRIC_KINDS:
        D = np.stack([pairwise_distances(X, metric) for X in stack])
        for linkage in ("ward", "average", "complete"):
            arrays = [merge_sequence(d.copy(), linkage) for d in D]
            want = [list(zip(*(m.tolist() for m in a))) for a in arrays]
            merged = merge_sequences(D.copy(), linkage)
            assert [m.shape for m in merged] == [(n - 1, count)] * 3
            assert [m.dtype for m in merged] == [m.dtype for m in arrays[0]]
            for b in range(count):
                got = zip(*(m[:, b].tolist() for m in merged))
                assert merge_bits(got) == merge_bits(want[b]), (metric, linkage, b)
            cuts = cut_sequences(merged, n, ks)
            assert [c.shape for c in cuts] == [(count, n)] * len(ks)
            for b in range(count):
                for k, labels in zip(ks, cuts):
                    expected = _replay_cut(want[b], n, k)
                    assert labels.dtype == expected.dtype
                    assert np.array_equal(labels[b], expected), (metric, linkage, b)


DUPLICATED = np.random.default_rng(5).normal(size=(60, 200)) * np.linspace(0.5, 3, 60)[:, None]
DUPLICATED = np.vstack([DUPLICATED, DUPLICATED[:20]])  # row 60 + i copies row i
# DUPLICATED with every seventh row zero (an all-OOV context), and 260 rows,
# past the rebuild floor: 200 distinct rows, 40 copies and 20 zero rows,
# shuffled.
ZEROED = DUPLICATED.copy()
ZEROED[::7] = 0.0
MIXED = np.random.default_rng(15).normal(size=(260, 200)) * np.linspace(0.5, 3, 260)[:, None]
MIXED[200:240], MIXED[240:] = MIXED[:40], 0.0
MIXED = MIXED[np.random.default_rng(16).permutation(260)]


@pytest.mark.parametrize("linkage,metric", ALL_COMBOS)
def test_duplicates_merge_first_at_zero_in_index_order(linkage, metric):
    merges = dendrogram(DUPLICATED, linkage, metric)
    assert merges[:20] == [(i, 60 + i, 0.0) for i in range(20)]
    assert all(dist > 0.0 for _, _, dist in merges[20:])


def test_single_point():
    res = agglomerative(np.array([[1.0, 2.0]]), cfg(1))
    assert list(res.labels) == [0]
    assert dendrogram(np.array([[1.0, 2.0]]), "ward") == []


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
        dists = [d for _, _, d in dendrogram(pts, "complete", metric)]
        assert dists == sorted(dists)


@pytest.mark.parametrize("linkage", ["ward", "average"])
def test_merge_trace_nondecreasing_on_oracle_instances(linkage):
    rng = np.random.default_rng(6)
    for _ in range(10):
        pts = rng.uniform(size=(20, 3))
        dists = [d for _, _, d in dendrogram(pts, linkage)]
        assert dists == sorted(dists)


def test_trace_length_and_label_surjection():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(20, 3))
    merges = dendrogram(pts, "ward")
    assert len(merges) == 19
    for k in (1, 3, 7, 14):
        res = agglomerative(pts, cfg(k))
        assert np.array_equal(cut_merges(merges[:20 - k], 20, k), res.labels)
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
    assert dendrogram(pts, "complete", "manhattan") == dendrogram(pts, "complete", "manhattan")


def test_tie_break_lowest_index_pair():
    # four corners of a square: both diagonals of merges tie at distance 1
    pts = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float)
    merges = dendrogram(pts, "complete", "euclidean")
    assert merges[0][:2] == (0, 1)


def test_cut_merges_prefix_consistency():
    # A dendrogram cut at k equals agglomerative's labels and those of a
    # stack of 16 copies. At d = 200 that is one chunk of 16 at n = 80 (the
    # stacked merge loop), and chunks of 16 * 200 // 260 = 12 and 4 at
    # n = 260 (both loops).
    assert 4 < cluster_module._STACK_FLOOR <= 12
    small = np.random.default_rng(11).normal(size=(12, 3))
    cases = [(small, "average", "euclidean", range(1, 13))] + [
        (points, linkage, metric, (1, 2, 3, 7, 14))
        for points in (DUPLICATED, ZEROED, MIXED) for linkage, metric in ALL_COMBOS]
    for points, linkage, metric, ks in cases:
        merges = dendrogram(points, linkage, metric)
        cfgs = [cfg(k, linkage, metric) for k in ks]
        stacked = list(cluster_points(np.repeat(points[None], 16, axis=0), cfgs))
        for i, c in enumerate(cfgs):
            want = cut_merges(merges, len(points), c.n_clusters)
            where = (len(points), linkage, metric, c.n_clusters)
            assert np.array_equal(agglomerative(points, c).labels, want), where
            assert all(np.array_equal(r[i].labels, want) for r in stacked), where


def _replay_cut(merges, n, k):
    """One cut from a fresh replay of a list of merges: the reference for
    ``cut_sequences``."""
    members = {i: [i] for i in range(n)}
    for a, b, _ in merges[: n - k]:
        members[a].extend(members[b])
        del members[b]
    labels = np.empty(n, dtype=np.int64)
    for label, rep in enumerate(sorted(members)):
        labels[members[rep]] = label
    return labels


def test_cut_sequences_equals_a_fresh_replay_for_every_k():
    rng = np.random.default_rng(12)
    # Gaps that halve to the right merge leftwards in one chain, so that the
    # last point ends up n - 1 pointers from its root.
    chain = np.cumsum(0.5 ** np.arange(16))[:, None]
    for trial in range(31):
        pts = chain if trial == 30 else rng.normal(size=(int(rng.integers(1, 40)), 3))
        n = len(pts)
        # One set per linkage: a stack of three dendrograms of the same points.
        traces = [dendrogram(pts, linkage, "euclidean")
                  for linkage in ("ward", "average", "complete")]
        pairs = np.array([[m[:2] for m in t] for t in traces], dtype=np.intp)
        pairs = pairs.reshape(3, n - 1, 2).T  # (2, n - 1, 3): a and b, step, set
        merged = (pairs[0], pairs[1], None)  # the cut reads no distance
        ks = [int(k) for k in rng.integers(1, n + 1, size=int(rng.integers(1, 20)))]
        cuts = cut_sequences(merged, n, ks)
        assert len(cuts) == len(ks)
        for k, labels in zip(ks, cuts):
            for b, merges in enumerate(traces):
                expected = _replay_cut(merges, n, k)
                assert labels.dtype == expected.dtype
                assert np.array_equal(labels[b], expected), (trial, k, b)
                assert np.array_equal(cut_merges(merges, n, k), expected)


def test_cut_merges_rejects_k_outside_one_to_n():
    points = np.arange(8.0).reshape(4, 2)
    merges = dendrogram(points, "average", "euclidean")
    merged = merge_sequences(pairwise_distances(points, "euclidean")[None], "average")
    for ks in ([0], [5], [2, 5]):
        with pytest.raises(ValueError, match="1..4"):
            cut_sequences(merged, 4, ks)
    for k in (0, 5):
        with pytest.raises(ValueError, match="1..4"):
            cut_merges(merges, 4, k)


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
    monkeypatch.setattr(cluster_module, "_REBUILD_FLOOR", 2)
    assert_merges_equal_masked(range(1, 61), linkage, metric)
