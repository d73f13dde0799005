import re
import warnings
from concurrent import futures

import numpy as np
import pytest

import senseclust.cluster as cluster_module
import senseclust.search as search_module
from senseclust.cluster import (ClusteringConfig, agglomerative, cluster, gram_matrix,
                                merge_sequences)
from senseclust.dataset import ContextInstance, Dataset, parse_dataset
from senseclust.errors import DataError
from senseclust.evaluate import Labeling, evaluate
from senseclust.search import (SearchSpace, export_k_linkage_sweep,
                               export_power_heatmap, grid_search, heatmap_csv,
                               parallel_map, parse_space_file, ranked_csv,
                               serialize_config, sweep_csv)
from senseclust.weighting import WeightingConfig, build_chi2

import synthetic


@pytest.fixture(scope="module")
def small_problem(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("search")
    model = synthetic.build_model(seed=0)
    dataset = synthetic.write_dataset(tmp / "train.tsv", contexts_per_sense=12,
                                      seed=0)
    idf = synthetic.build_background_idf(seed=1)
    chi2 = build_chi2(dataset)
    return dataset, model, idf, chi2


def test_space_size_counts_ward_exclusions():
    space = SearchSpace(power_grid=(0.0, 1.0), k_grid=(2, 3),
                        linkages=("ward", "average"),
                        metrics=("euclidean", "cosine"),
                        algorithms=("agglomerative",))
    # ward pairs only with euclidean: 1 + 2 = 3 linkage-metric pairs
    assert space.size() == 4 * 2 * 3


def test_space_leaves_ward_non_euclidean_pairs_out_without_warning():
    # No warning: the suite's filterwarnings turns one into an error. The
    # left-out pairs are read from clusterings(), and the CLI prints them.
    space = SearchSpace(linkages=("ward", "average"), metrics=("euclidean", "cosine"),
                        algorithms=("agglomerative",))
    pairs = {(c.linkage, c.metric) for c in space.clusterings()}
    assert pairs == {("ward", "euclidean"), ("average", "euclidean"),
                     ("average", "cosine")}


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(power_grid=())
    with pytest.raises(ValueError):
        SearchSpace(k_grid=(0,), algorithms=("agglomerative",))
    with pytest.raises(ValueError):
        SearchSpace(damping_grid=(0.3,), algorithms=("affinity_propagation",))
    with pytest.raises(ValueError):
        SearchSpace(preference_grid=(-25.0,), algorithms=("affinity_propagation",))
    with pytest.raises(ValueError, match="linkage"):
        SearchSpace(linkages=("single",), algorithms=("agglomerative",))
    with pytest.raises(ValueError, match="metric"):
        SearchSpace(linkages=("ward",), metrics=("chebyshev",),
                    algorithms=("agglomerative",))
    with pytest.raises(ValueError, match="algorithm"):
        SearchSpace(algorithms=("kmeans",))
    # Each grid is checked on its own, also one that no searched algorithm uses.
    with pytest.raises(ValueError, match="n_clusters"):
        SearchSpace(k_grid=(0,), algorithms=("affinity_propagation",))
    with pytest.raises(ValueError, match="damping"):
        SearchSpace(damping_grid=(1.0,), algorithms=("agglomerative",))
    with pytest.raises(ValueError, match="n_clusters must be an integer, got 2.0"):
        SearchSpace(k_grid=(2.0, 3))
    # A repeated grid value would score and rank the same config twice.
    for kwargs, message in (
            (dict(power_grid=(1.0, 1.0), k_grid=(2, 3)), "power_grid repeats 1.0"),
            (dict(power_grid=(0.0, -0.0)), "power_grid repeats 0.0"),
            (dict(k_grid=(2, 2, 3)), "k_grid repeats 2"),
            (dict(linkages=("ward", "average", "ward")), "linkages repeats 'ward'"),
            (dict(metrics=("euclidean", "euclidean")), "metrics repeats 'euclidean'"),
            (dict(damping_grid=(0.5, 0.9, 0.5)), "damping_grid repeats 0.5"),
            (dict(preference_grid=("auto", "auto")), "preference_grid repeats 'auto'"),
            (dict(preference_grid=(-5, -5.0)), "preference_grid repeats -5"),
            (dict(algorithms=("agglomerative", "agglomerative")),
             "algorithms repeats 'agglomerative'")):
        with pytest.raises(ValueError, match=re.escape(message)):
            SearchSpace(**kwargs)


def test_single_config_matches_direct_evaluate(small_problem):
    dataset, model, idf, chi2 = small_problem
    space = SearchSpace(power_grid=(1.0,), k_grid=(2,), linkages=("ward",),
                        metrics=("euclidean",), algorithms=("agglomerative",))
    result = grid_search(dataset, model, idf, chi2, space)
    assert len(result.ranked) == 1

    from senseclust.vectorize import vectorize_dataset
    wcfg = WeightingConfig(1.0, 1.0)
    ccfg = ClusteringConfig(algorithm="agglomerative", n_clusters=2)
    assignments = {}
    for word, (ids, X) in vectorize_dataset(dataset, model, idf, chi2, wcfg).items():
        labels = agglomerative(X, ccfg).labels
        assignments.update({cid: str(int(l)) for cid, l in zip(ids, labels)})
    direct = evaluate(dataset, Labeling(assignments)).aggregate_weighted
    assert result.ranked[0].train_ari == pytest.approx(direct, abs=1e-12)

    # Every config of a small mixed space scores exactly what vectorizing,
    # clustering and evaluate() give for it directly.
    space = SearchSpace(power_grid=(0.0, 1.5), k_grid=(1, 3, 2),
                        linkages=("ward", "average"), metrics=("euclidean", "cosine"),
                        preference_grid=("auto", -5.0))
    result = grid_search(dataset, model, idf, chi2, space)
    assert len(result.ranked) == space.size() == 4 * 3 * 3 + 4 * 2
    for entry in result.ranked:
        assignments = {}
        by_word = vectorize_dataset(dataset, model, idf, chi2, entry.weighting)
        for ids, X in by_word.values():
            labels = cluster(X, entry.clustering).labels
            assignments.update({cid: str(int(l)) for cid, l in zip(ids, labels)})
        direct = evaluate(dataset, Labeling(assignments)).aggregate_weighted
        assert entry.train_ari == direct, entry


def _unique_token_dataset():
    """Every context holds one unique token: weights are 1 after
    normalization under every power combo, so all 36 combos tie exactly."""
    rng = np.random.default_rng(0)
    instances, by_target = [], {}
    entries = {}
    cid = 0
    for target in ("zzzzz", "qqqqq"):
        for i in range(6):
            tok = f"{target[0]}tok{i:02d}"
            entries[tok] = rng.normal(size=4).astype(np.float32)
            by_target.setdefault(target, []).append(len(instances))
            instances.append(ContextInstance(
                context_id=f"c{cid}", target=target, gold_sense=str(i % 2),
                target_spans=[], raw_context=tok))
            cid += 1
    model = synthetic.model_from_entries(entries)
    return Dataset(instances=instances, by_target=by_target), model


def test_uniform_weights_tie_broken_lexicographically():
    dataset, model = _unique_token_dataset()
    idf = synthetic.build_background_idf(seed=2)
    chi2 = build_chi2(dataset)
    space = SearchSpace(k_grid=(2,), linkages=("ward",), metrics=("euclidean",),
                        algorithms=("agglomerative",))
    result = grid_search(dataset, model, idf, chi2, space)
    assert len(result.ranked) == 36
    # single-token contexts: every power combo yields identical vectors
    aris = {e.train_ari for e in result.ranked}
    assert len(aris) == 1
    serials = [serialize_config(e.clustering, e.weighting) for e in result.ranked]
    assert serials == sorted(serials)
    assert result.best.weighting == WeightingConfig(0.0, 0.0)


@pytest.mark.parametrize("change", [lambda s: s + [0.0], lambda s: s[:-1]],
                         ids=["one too many", "one too few"])
def test_a_word_with_the_wrong_score_count_stops_the_search(small_problem, monkeypatch,
                                                             change):
    dataset, model, idf, chi2 = small_problem
    calls, original = [], search_module.ari_rows

    def ari_rows(gold, preds):  # the first word's first power pair is off by one
        calls.append(None)
        scores = original(gold, preds)
        return change(scores) if len(calls) == 1 else scores

    monkeypatch.setattr(search_module, "ari_rows", ari_rows)
    space = SearchSpace(power_grid=(0.0, 1.0), k_grid=(2, 3), linkages=("average",),
                        algorithms=("agglomerative",))
    with pytest.raises(ValueError, match="zip"):
        grid_search(dataset, model, idf, chi2, space)


def test_exhaustive_and_deterministic(small_problem):
    dataset, model, idf, chi2 = small_problem
    space = SearchSpace(power_grid=(0.0, 1.0), k_grid=(1, 2, 3),
                        linkages=("ward", "complete"), metrics=("euclidean",),
                        damping_grid=(0.5,), preference_grid=("auto", -5.0))
    a = grid_search(dataset, model, idf, chi2, space)
    b = grid_search(dataset, model, idf, chi2, space)
    assert len(a.ranked) == space.size() == 4 * 3 * 2 + 4 * 1 * 2
    assert a.ranked == b.ranked


def test_jobs_do_not_change_output(small_problem):
    dataset, model, idf, chi2 = small_problem
    space = SearchSpace(power_grid=(0.0, 1.5), k_grid=(2, 4),
                        linkages=("ward",), metrics=("euclidean",),
                        algorithms=("agglomerative",))
    serial = grid_search(dataset, model, idf, chi2, space, jobs=1)
    parallel = grid_search(dataset, model, idf, chi2, space, jobs=4)
    assert serial.ranked == parallel.ranked


def _mixed_words_dataset(extra_words=True, words=None):
    """Two gold words of 6 contexts; with ``extra_words``, also a word of 5
    contexts without gold senses and a gold word of one context. ``words``,
    (target, contexts, has gold senses) triples, replaces them all."""
    rng = np.random.default_rng(6)
    model = synthetic.model_from_entries({f"w{i}": rng.normal(size=4) for i in range(10)})
    if words is None:
        words = [("замок", 6, True), ("банка", 6, True)]
        if extra_words:
            words += [("ключ", 5, False), ("лук", 1, True)]
    instances, by_target = [], {}
    for target, n, has_gold in words:
        for i in range(n):
            tokens = [f"w{int(j)}" for j in rng.integers(0, 10, size=5)]
            by_target.setdefault(target, []).append(len(instances))
            instances.append(ContextInstance(
                context_id=f"{target}{i}", target=target,
                gold_sense=str(i % 3) if has_gold else None, target_spans=[],
                raw_context=" ".join(tokens)))
    return Dataset(instances=instances, by_target=by_target), model


def _search_csvs(dataset, model, chi2, jobs):
    result = grid_search(dataset, model, synthetic.build_background_idf(seed=3), chi2,
                         SearchSpace(), jobs=jobs)
    return (ranked_csv(result), heatmap_csv(export_power_heatmap(result)),
            sweep_csv(export_k_linkage_sweep(result)))


@pytest.fixture()
def gram_sizes(monkeypatch):
    """``(point sets, points per set)`` of each batched Gram product the
    search takes."""
    sizes = []

    def counting(X):
        sizes.append(X.shape[:2])
        return gram_matrix(X)

    monkeypatch.setattr(cluster_module, "gram_matrix", counting)
    return sizes


def test_one_gram_product_per_gold_word_and_power_pair(gram_sizes):
    dataset, model = _mixed_words_dataset(extra_words=False)
    _search_csvs(dataset, model, build_chi2(dataset), jobs=1)
    # Each word's 36 power pairs in chunks of 36 * d // n = 36 * 4 // 6 = 24
    # point sets, so that a chunk's products hold no more floats than its
    # points: still one product per gold word and power pair.
    assert gram_sizes == [(24, 6), (12, 6)] * 2


def test_words_without_gold_senses_are_never_clustered(gram_sizes):
    dataset, model = _mixed_words_dataset()
    chi2 = build_chi2(dataset)
    with_extra = _search_csvs(dataset, model, chi2, jobs=1)
    # Never the 5 of "ключ"; the one context of "лук" fits in one chunk.
    assert sorted(gram_sizes) == [(12, 6), (12, 6), (24, 6), (24, 6), (36, 1)]
    # Dropping the word changes nothing; the same chi2 table isolates the search.
    del dataset.by_target["ключ"]
    assert _search_csvs(dataset, model, chi2, jobs=1)[0] == with_extra[0]


def test_jobs_do_not_change_output_with_ungraded_and_one_context_words():
    dataset, model = _mixed_words_dataset()
    chi2 = build_chi2(dataset)
    outputs = [_search_csvs(dataset, model, chi2, jobs) for jobs in (1, 2, 3)]
    assert outputs[0] == outputs[1] == outputs[2]


def test_one_and_two_context_words_rank_the_same_on_either_merge_loop(monkeypatch):
    # A word's 36 power pairs are one chunk, so at n = 1 and n = 2 each
    # (linkage, metric) group takes the stacked merge loop; a floor above 36
    # sends them through the per-set loop. No operation on the inf of a
    # retired row may warn or raise a floating-point error.
    dataset, model = _mixed_words_dataset(words=[("лук", 1, True), ("ключ", 2, True)])
    stacks = []

    def recording(D, linkage):
        stacks.append(D.shape)
        return merge_sequences(D, linkage)

    monkeypatch.setattr(cluster_module, "merge_sequences", recording)
    inputs = (dataset, model, synthetic.build_background_idf(seed=3), build_chi2(dataset),
              SearchSpace())
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        stacked = grid_search(*inputs).ranked
    assert stacks == [(36, 1, 1)] * 3 + [(36, 2, 2)] * 3
    monkeypatch.setattr(cluster_module, "_STACK_FLOOR", 37)
    assert grid_search(*inputs).ranked == stacked
    assert len(stacks) == 6


def test_concurrent_searches_leave_the_warning_filters_alone(small_problem):
    space = SearchSpace(power_grid=(0.0, 1.0), k_grid=(2,), linkages=("average",),
                        algorithms=("agglomerative",))
    before = list(warnings.filters)

    def rounds(_):
        for _ in range(50):
            grid_search(*small_problem, space)

    parallel_map(rounds, range(4), jobs=4)
    assert warnings.filters == before
    with pytest.warns(UserWarning) as caught:
        warnings.warn("still recorded")
    assert [str(w.message) for w in caught] == ["still recorded"]


def test_parallel_map_keeps_order_and_rejects_no_workers():
    items = list(range(50))
    for jobs in (1, 2, 8):
        assert parallel_map(lambda x: x * x, items, jobs) == [x * x for x in items]
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            parallel_map(lambda x: x, items, jobs)


def test_parallel_map_starts_no_more_threads_than_items(monkeypatch):
    started = []

    class RecordingPool(futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
    assert parallel_map(lambda x: -x, range(3), jobs=5000) == [0, -1, -2]
    assert parallel_map(lambda x: -x, [7], jobs=5000) == [-7]
    assert parallel_map(lambda x: -x, [], jobs=4) == []
    assert started == [3]


def test_monotone_dominance(small_problem):
    dataset, model, idf, chi2 = small_problem
    small = SearchSpace(power_grid=(0.0, 1.0), k_grid=(2,), linkages=("ward",),
                        metrics=("euclidean",), algorithms=("agglomerative",))
    big = SearchSpace(power_grid=(0.0, 1.0), k_grid=(2, 3, 5),
                      linkages=("ward", "average"), metrics=("euclidean",),
                      algorithms=("agglomerative",))
    assert (grid_search(dataset, model, idf, chi2, big).best.train_ari
            >= grid_search(dataset, model, idf, chi2, small).best.train_ari)


def test_requires_gold(tmp_path):
    path = tmp_path / "nogold.tsv"
    path.write_text(synthetic.HEADER + "\nc1\talphaword\t\t\t0-9\talphaword aw00\n",
                    encoding="utf-8")
    dataset = parse_dataset(path)
    model = synthetic.build_model()
    # Searching and scoring state the rule once, in ``gold_codes``.
    with pytest.raises(ValueError, match="^no context has a gold sense$"):
        grid_search(dataset, model, synthetic.build_background_idf(),
                    build_chi2(dataset), SearchSpace())
    with pytest.raises(ValueError, match="^no context has a gold sense$"):
        evaluate(dataset, Labeling({"c1": "a"}))


@pytest.fixture(scope="module")
def default_grid_result(small_problem):
    dataset, model, idf, chi2 = small_problem
    return grid_search(dataset, model, idf, chi2, SearchSpace(), jobs=2)


def test_heatmap_covers_power_product(default_grid_result):
    rows = export_power_heatmap(default_grid_result)
    assert len(rows) == 36
    assert len({(pt, pc) for pt, pc, _ in rows}) == 36
    assert max(a for _, _, a in rows) == pytest.approx(
        default_grid_result.best.train_ari)


def test_heatmap_fixed_config_view(default_grid_result):
    fixed = ClusteringConfig(algorithm="agglomerative", n_clusters=2,
                             linkage="ward", metric="euclidean")
    rows = export_power_heatmap(default_grid_result, fixed_clustering=fixed)
    assert len(rows) == 36
    maxed = dict(((pt, pc), a) for pt, pc, a in export_power_heatmap(default_grid_result))
    assert all(a <= maxed[(pt, pc)] + 1e-12 for pt, pc, a in rows)
    # A config the search did not run has no row at all, not an empty heatmap.
    with pytest.raises(ValueError, match="no configuration"):
        export_power_heatmap(default_grid_result, fixed_clustering=ClusteringConfig(
            algorithm="affinity_propagation", damping=0.9))


def test_k_linkage_sweep(default_grid_result):
    rows = export_k_linkage_sweep(default_grid_result)
    assert len(rows) == 14 * 3
    k1 = [a for k, _, a in rows if k == 1]
    assert all(a == 0.0 for a in k1)  # one cluster against two senses
    assert max(a for _, _, a in rows) <= default_grid_result.best.train_ari + 1e-12


def test_sweep_requires_agglomerative(small_problem):
    dataset, model, idf, chi2 = small_problem
    space = SearchSpace(power_grid=(1.0,), algorithms=("affinity_propagation",),
                        damping_grid=(0.5,), preference_grid=("auto",))
    result = grid_search(dataset, model, idf, chi2, space)
    with pytest.raises(ValueError):
        export_k_linkage_sweep(result)


def test_parse_space_file(tmp_path):
    path = tmp_path / "space.cfg"
    path.write_text(
        "power_grid = 0, 1.5\n"
        "k_grid = 1..3, 10\n"
        "linkages = ward, average\n"
        "metrics = euclidean\n"
        "damping_grid = 0.5, 0.9\n"
        "preference_grid = auto, -6.8\n"
        "algorithms = agglomerative, affinity_propagation  # both\n",
        encoding="utf-8")
    space = parse_space_file(path)
    assert space.power_grid == (0.0, 1.5)
    assert space.k_grid == (1, 2, 3, 10)
    assert space.preference_grid == ("auto", -6.8)
    assert space.size() == 4 * 4 * 2 + 4 * 2 * 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(DataError):
        parse_space_file(bad)
    for text in ("power_grid = x\n", "# k\n\nk_grid = 1..b\n",
                 "\n\ndamping_grid = 0.5, half\n", "\n\npreference_grid = low\n",
                 "k_grid = 2..99999999999\n"):
        lineno = text.count("\n")
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"bad.cfg: line {lineno}: "):
            parse_space_file(bad)
    # A grid's own rules are checked on the line that sets it. Values are
    # compared after parsing, so spellings of one value repeat it.
    for text, message in (("power_grid = 0.5, 0.50\n", "line 1: power_grid repeats 0.5"),
                          ("# k\nk_grid = 2..4, 3\n", "line 2: k_grid repeats 3"),
                          ("preference_grid = auto, -6.8, auto\n",
                           "line 1: preference_grid repeats 'auto'"),
                          ("preference_grid = -5, -5.0\n",
                           "line 1: preference_grid repeats -5.0"),
                          ("k_grid = 2\n\nlinkages = ward, wardd\n",
                           "line 3: unknown linkage 'wardd'"),
                          ("power_grid = 1, 3\n", "line 1: p_tfidf must be in [0, 2.5], got 3.0"),
                          ("damping_grid = 0.5, 1\n", "line 1: damping must be in [0.5, 1)"),
                          ("k_grid = 5..3, 7\n", "line 1: bad k_grid value '5..3, 7'"),
                          ("k_grid = 2\nlinkages = ward\nk_grid = 3\n",
                           "line 3: repeated key 'k_grid'"),
                          # rules across grids keep the file-level form
                          ("algorithms = agglomerative\nmetrics =\n",
                           "agglomerative grids must be non-empty")):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"bad.cfg: {message}")):
            parse_space_file(bad)
