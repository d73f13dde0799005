"""The distance kernel against the broadcast difference form, written here.

``pairwise_distances(X, "sqeuclidean")`` is the one squared-euclidean
kernel (euclidean distances, ward and affinity propagation); it works in
Gram form, so its values may differ from the difference form in the last
bits. ``cluster_points`` builds the same matrices from one item of a
chunk's batched Gram product and the set's row facts, bit for bit.
Manhattan fills the upper triangle one row at a time through one reused
buffer and mirrors each row into its column; it must equal the difference
form bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

import senseclust.cluster as cluster_module
from senseclust.cluster import (LINKAGES, METRICS, ClusteringConfig, cluster_points,
                                gram_distances, gram_matrix, pairwise_distances, row_facts)

SHAPES = [(1, 4), (2, 3), (7, 5), (40, 200), (120, 200)]


def broadcast_squared(X):
    diff = X[:, None, :] - X[None, :, :]
    return (diff * diff).sum(axis=-1)


def broadcast_manhattan(X):
    return np.abs(X[:, None, :] - X[None, :, :]).sum(axis=-1)


def unit_points(n, d, seed=0):
    """Unit rows, as the pipeline clusters, with every third row all-zero
    (an all-OOV context)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    X[::3] = 0.0
    return X


def layouts(X):
    """The same values C-ordered, Fortran-ordered and strided."""
    wide = np.zeros((2 * X.shape[0], 2 * X.shape[1]))
    wide[::2, ::2] = X
    return {"C": X, "F": np.asfortranarray(X), "strided": wide[::2, ::2]}


def facts_path(X, metric):
    """``metric`` as ``cluster_points`` builds it: from one item of a
    chunk's batched Gram product and that set's row facts, on the
    C-contiguous stack that ``cluster_points`` makes of any layout."""
    part = np.ascontiguousarray(np.stack([X, X[::-1]]))
    return gram_distances(gram_matrix(part)[0], row_facts(part[0]), metric)


def kernels(X):
    out = {"squared": pairwise_distances(X, "sqeuclidean"),
           "facts": facts_path(X, "sqeuclidean")}
    out.update((m, pairwise_distances(X, m)) for m in METRICS)
    return out


def point_sets(shape):
    """Points with repeated rows, far from the origin, and with zero rows."""
    duplicated = unit_points(*shape, seed=2) * 10.0
    duplicated[1::4] = duplicated[-1]
    # Far from the origin the Gram form cancels, and unclamped squared
    # distances would come out negative.
    far = 1e3 + 1e-6 * unit_points(*shape, seed=3)
    return {"duplicated": duplicated, "far": far, "zero-row": unit_points(*shape, seed=4)}


@pytest.mark.parametrize("shape", SHAPES)
def test_euclidean_and_ward_match_broadcast_reference(shape):
    # Distinct unit points: the Gram form's rounding is ~1e-16 on the squared
    # scale, which the square root would magnify for near-coincident points.
    X = unit_points(*shape)
    ref = broadcast_squared(X)
    for Y in layouts(X).values():
        np.testing.assert_allclose(pairwise_distances(Y, "sqeuclidean"), ref,
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(pairwise_distances(Y, "euclidean"),
                                   np.sqrt(ref), rtol=0, atol=1e-12)


@pytest.mark.parametrize("shape", SHAPES)
def test_manhattan_equals_broadcast_reference_bitwise(shape):
    X = unit_points(*shape) * 3.7
    ref = broadcast_manhattan(X)
    for Y in layouts(X).values():
        D = pairwise_distances(Y, "manhattan")
        assert np.array_equal(D, ref)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)


def test_manhattan_peak_memory_below_one_and_a_half_matrices():
    # One n x n result plus a row buffer; a transposed copy of the whole
    # matrix (say, to mirror the triangle) would push the peak past 2.
    n = 300
    X = unit_points(n, 20)
    tracemalloc.start()
    try:
        pairwise_distances(X, "manhattan")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * n * 8, peak / (n * n * 8)


def test_a_handed_over_stack_is_freed_before_its_merge_loops():
    # With no manhattan config, cluster_points lets a one-chunk stack go
    # once its Gram products and row facts are taken. Holding the points
    # through the merge loops would put the stack, its Gram stack and one
    # stacked distance matrix in memory at once.
    count, n, dim = 16, 30, 60  # 16 * 60 // 30 = 32 sets a chunk: one chunk, stacked merges
    assert count >= cluster_module._STACK_FLOOR
    cfgs = [ClusteringConfig(linkage=linkage, n_clusters=3) for linkage in LINKAGES]
    cfgs.append(ClusteringConfig(algorithm="affinity_propagation"))

    def stack():
        return np.random.default_rng(7).normal(size=(count, n, dim))

    list(cluster_points(stack(), cfgs))  # numpy imports some modules on first use
    tracemalloc.start()
    try:
        list(cluster_points(stack(), cfgs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points, grams = count * n * dim * 8, count * n * n * 8
    assert peak < points + 2 * grams, (peak, points, grams)


@pytest.mark.parametrize("shape", SHAPES)
def test_every_matrix_is_symmetric_nonnegative_with_zero_diagonal(shape):
    for name, X in point_sets(shape).items():
        for order, Y in layouts(X).items():
            for kernel, D in kernels(Y).items():
                where = f"{kernel} on {order}-ordered {name} points"
                assert D.shape == (len(X), len(X)), where
                assert np.array_equal(D, D.T), where
                assert np.all(np.diag(D) == 0.0), where
                assert np.all(D >= 0.0), where


@pytest.mark.parametrize("shape", SHAPES)
def test_the_facts_path_equals_pairwise_distances_bitwise(shape):
    for name, X in point_sets(shape).items():
        for order, Y in layouts(X).items():
            for metric in ("sqeuclidean", "euclidean", "cosine"):
                assert np.array_equal(facts_path(Y, metric), pairwise_distances(Y, metric)), (
                    f"{metric} on {order}-ordered {name} points")


def test_zero_vector_row_is_the_row_sum_bitwise():
    # An all-OOV context sits at exactly ||x_j||^2 from point j, as in the
    # difference form; these values tie across zero rows, and keeping them bit
    # for bit is what keeps the grid-search ranking unchanged.
    X = unit_points(60, 200, seed=2) * np.linspace(0.5, 2.0, 60)[:, None]
    row_sums = (X * X).sum(axis=1)
    ref = broadcast_squared(X)
    for Y in layouts(X).values():
        D = pairwise_distances(Y, "sqeuclidean")
        E = pairwise_distances(Y, "euclidean")
        for z in range(0, len(X), 3):
            assert np.array_equal(D[z], row_sums)
            assert np.array_equal(D[:, z], row_sums)
            assert np.array_equal(D[z], ref[z])
            assert np.array_equal(E[z], np.sqrt(row_sums))


def test_identical_points_get_identical_distance_rows():
    # The Gram form rounds the distance between equal rows apart (2e-16 to
    # 7e-16 on the squared scale for some pairs); every copy of a point takes
    # the lowest copy's row and column and lies at exactly 0 from it.
    # Non-zero rows: cosine puts zero vectors at 1 even from each other.
    X = np.random.default_rng(5).normal(size=(60, 200)) * np.linspace(0.5, 3.0, 60)[:, None]
    X = np.vstack([X, X[1:21], X[1:3]])  # rows 60.. copy rows 1..20, then 1, 2
    copies = {i: [i, 59 + i] + ([79 + i] if i <= 2 else []) for i in range(1, 21)}
    for kernel, D in kernels(X).items():
        for group in copies.values():
            for j in group[1:]:
                assert np.array_equal(D[j], D[group[0]]), kernel
                assert np.array_equal(D[:, j], D[:, group[0]]), kernel
            assert np.all(D[np.ix_(group, group)] == 0.0), kernel
        assert np.array_equal(D, D.T), kernel


def test_distinct_points_keep_their_gram_form_bits():
    # Only rows that repeat are tied: zero rows and rows of equal norm that
    # differ keep the values the Gram form gives them.
    X = unit_points(40, 200, seed=6)
    X[1] = -X[2]  # equal squared norms, distinct rows
    gram = X @ X.T
    sq = (X * X).sum(axis=1)
    want = np.maximum(np.add.outer(sq, sq) - 2.0 * gram, 0.0)
    np.fill_diagonal(want, 0.0)
    assert np.array_equal(pairwise_distances(X, "sqeuclidean"), want)
