import tracemalloc
from unittest import mock

import numpy as np
import pytest

import senseclust.cluster as cluster_module
from senseclust.cluster import (ClusteringConfig, _ap_messages, affinity_propagation,
                                pairwise_distances)

from oracles import partitions_equal, reference_affinity_propagation


def ap_cfg(**kw):
    return ClusteringConfig(algorithm="affinity_propagation", **kw)


def blob_fixture(seed=42, per_blob=10, jitter=0.1):
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [100, 0], [0, 100]], float)
    return np.vstack([c + rng.uniform(-jitter, jitter, size=(per_blob, 2))
                      for c in centers])


def test_identical_points_single_cluster():
    res = affinity_propagation(np.zeros((6, 3)), ap_cfg())
    assert res.k == 1
    assert res.converged
    assert len(set(res.labels)) == 1
    assert len(res.exemplars) == 1


def test_single_point():
    res = affinity_propagation(np.array([[3.0, 4.0]]), ap_cfg())
    assert res.k == 1 and res.exemplars == [0] and res.converged


def test_empty_input():
    with pytest.raises(ValueError):
        affinity_propagation(np.zeros((0, 2)), ap_cfg())


def test_three_blobs_recovered():
    X = blob_fixture()
    res = affinity_propagation(X, ap_cfg(damping=0.5))
    assert res.k == 3
    assert res.converged
    truth = [0] * 10 + [1] * 10 + [2] * 10
    assert partitions_equal(res.labels, truth)
    assert set(res.labels) == set(range(res.k))
    assert all(res.labels[e] == i for i, e in enumerate(res.exemplars))


def test_three_blobs_match_reference():
    X = blob_fixture(seed=7)
    res = affinity_propagation(X, ap_cfg(damping=0.5))
    ref_labels, ref_exemplars, ref_converged = reference_affinity_propagation(
        X, damping=0.5)
    assert ref_converged and res.converged
    assert partitions_equal(res.labels, ref_labels)
    assert res.exemplars == sorted(ref_exemplars)


def test_preference_monotonicity():
    X = blob_fixture(seed=3)
    ks = []
    for pref in (-20.0, -10.0, -5.0, 0.0, 5.0):
        res = affinity_propagation(X, ap_cfg(preference=pref))
        ks.append(res.k)
    assert ks == sorted(ks)


def test_high_preference_makes_singletons():
    X = blob_fixture(seed=1, per_blob=4)
    res = affinity_propagation(X, ap_cfg(preference=5.0))
    assert res.k == len(X)


def test_translation_invariance():
    X = blob_fixture(seed=9)
    a = affinity_propagation(X, ap_cfg())
    b = affinity_propagation(X + np.array([1000.0, -500.0]), ap_cfg())
    assert partitions_equal(a.labels, b.labels)
    assert a.k == b.k


def test_deterministic():
    X = blob_fixture(seed=11)
    a = affinity_propagation(X, ap_cfg(damping=0.7))
    b = affinity_propagation(X, ap_cfg(damping=0.7))
    assert list(a.labels) == list(b.labels)
    assert a.exemplars == b.exemplars


def test_nonconvergence_returns_labeling():
    X = blob_fixture(seed=13)
    res = affinity_propagation(X, ap_cfg(max_iter=2, convergence_window=15))
    assert res.converged is False
    assert len(res.labels) == len(X)
    assert res.k >= 1
    # continuous random data has no exact ties, so no jitter retry
    assert res.jitter_applied is False


def test_jitter_retry_on_tied_similarities():
    # exactly symmetric square: similarities are heavily tied
    X = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], float)
    res = affinity_propagation(X, ap_cfg(max_iter=3, convergence_window=15))
    if not res.converged:
        assert res.jitter_applied is True
    assert len(res.labels) == 4


def test_identical_points_get_identical_similarity_rows():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 200)) * rng.uniform(0.5, 3.0, size=(30, 1))
    X = np.vstack([X, X[:10]])  # row 30 + i copies row i
    propagate, seen = cluster_module.propagate, []

    def recording(S, cfg):
        seen.append(S.copy())  # before the preference fills the diagonal
        return propagate(S, cfg)

    with mock.patch.object(cluster_module, "propagate", recording):
        res = affinity_propagation(X, ap_cfg())
    [S] = seen
    assert np.array_equal(S[30:], S[:10])
    assert np.array_equal(S[:, 30:], S[:, :10])
    assert np.all(S[np.arange(10), np.arange(30, 40)] == 0.0)
    assert np.array_equal(res.labels[30:], res.labels[:10])


def test_damping_validation():
    with pytest.raises(ValueError):
        ap_cfg(damping=0.4)
    with pytest.raises(ValueError):
        ap_cfg(damping=1.0)
    with pytest.raises(ValueError):
        ap_cfg(preference=-30.0)


def out_of_place_ap_messages(S, damping, max_iter, window):
    """The message loop with a fresh array for every intermediate, as
    ``_ap_messages`` was first written; the in-place kernel must match it
    bit for bit."""
    n = S.shape[0]
    A = np.zeros((n, n))
    R = np.zeros((n, n))
    rows = np.arange(n)
    last_indicator = None
    stable = 0
    converged = False
    for _ in range(max_iter):
        AS = A + S
        best_idx = np.argmax(AS, axis=1)
        best = AS[rows, best_idx]
        AS[rows, best_idx] = -np.inf
        second = np.max(AS, axis=1)
        Rnew = S - best[:, None]
        Rnew[rows, best_idx] = S[rows, best_idx] - second
        R = damping * R + (1.0 - damping) * Rnew
        Rp = np.maximum(R, 0.0)
        Rp[rows, rows] = R[rows, rows]
        colsum = Rp.sum(axis=0)
        Anew = colsum[None, :] - Rp
        diag = Anew[rows, rows].copy()
        Anew = np.minimum(Anew, 0.0)
        Anew[rows, rows] = diag
        A = damping * A + (1.0 - damping) * Anew
        indicator = (A[rows, rows] + R[rows, rows]) > 0
        if last_indicator is not None and np.array_equal(indicator, last_indicator):
            stable += 1
        else:
            stable = 1
            last_indicator = indicator
        if stable >= window:
            converged = True
            break
    return A[rows, rows] + R[rows, rows], converged


def similarities(kind, n=40, seed=0):
    """Random similarities, or those of integer-grid points, which tie
    exactly; the preference is the median off-diagonal similarity."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        S = -rng.random((n, n)) * 10.0
    else:
        S = -pairwise_distances(rng.integers(0, 4, size=(n, 2)).astype(float),
                                "sqeuclidean")
    np.fill_diagonal(S, np.median(S[~np.eye(n, dtype=bool)]))
    return S


@pytest.mark.parametrize("kind", ["random", "grid"])
@pytest.mark.parametrize("max_iter", [1, 7, 200])
@pytest.mark.parametrize("damping", [0.5, 0.7, 0.9])
def test_messages_equal_out_of_place_loop_bitwise(kind, max_iter, damping):
    for seed in range(3):
        S = similarities(kind, seed=seed)
        criterion, converged = _ap_messages(S, damping, max_iter, 15)
        ref_criterion, ref_converged = out_of_place_ap_messages(
            S, damping, max_iter, 15)
        assert criterion.tobytes() == ref_criterion.tobytes()
        assert converged == ref_converged


def test_messages_peak_memory_below_four_matrices():
    n = 300
    S = similarities("random", n=n)
    tracemalloc.start()
    try:
        _ap_messages(S, 0.5, 5, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n * 8, peak / (n * n * 8)
