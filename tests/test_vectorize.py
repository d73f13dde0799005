import importlib
import math
import random
import sys
import unicodedata
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import senseclust.text as text_module
from senseclust.dataset import ContextInstance, Dataset, parse_dataset
from senseclust.search import SearchSpace, grid_search
from senseclust.text import exclude_target, matches_target_form, normalize_token
from senseclust.vectorize import (vectorize, vectorize_dataset, vectorize_word,
                                  weighted_unit_average)
from senseclust.weighting import (POWER_GRID, Chi2Table, IdfTable, WeightingConfig,
                                  build_chi2, power, read_chi2_tsv, read_idf_tsv)

import synthetic


def make_instance(tokens, target="zzzzz", cid="c1"):
    return ContextInstance(context_id=cid, target=target, gold_sense=None,
                           target_spans=[], raw_context=" ".join(tokens))


def make_model(entries):
    return synthetic.model_from_entries(entries)


FLAT_IDF = IdfTable(n_docs=1, df={})


# --- target exclusion ------------------------------------------------------

def test_exact_match_removed():
    assert exclude_target(["берег", "банка", "воды"], "банка") == ["берег", "воды"]


def test_inflected_forms_removed():
    assert exclude_target(["банках", "банки"], "банка") == []


def test_short_common_prefix_kept():
    assert exclude_target(["бак"], "банка") == ["бак"]


def test_prefix_threshold_arithmetic():
    # threshold = max(4, len(target) - 2); for an 8-letter target that is 6
    assert matches_target_form("abcdefzz", "abcdefgh")
    assert not matches_target_form("abcdezzz", "abcdefgh")
    # short targets floor at 4
    assert matches_target_form("катер", "кате")
    assert not matches_target_form("кат", "кате")
    # ...but the threshold never exceeds the target's own length
    assert exclude_target(["лук", "лука", "стол"], "лук") == ["стол"]
    assert not matches_target_form("лес", "лук")


@given(st.data())
def test_exclude_target_is_the_form_filter(data):
    """Every target length, short ones included: the prefix is
    max(4, len - 2) characters, capped at the target's length."""
    target = data.draw(st.text(alphabet="абвгд", min_size=1, max_size=9))
    piece = st.text(alphabet="абвгд", max_size=4)
    token = st.one_of(piece, st.builds(lambda k, s: target[:k] + s,
                                       st.integers(0, len(target)), piece))
    tokens = data.draw(st.lists(token, max_size=12))
    threshold = min(len(target), max(4, len(target) - 2))
    expected = [t for t in tokens if not t.startswith(target[:threshold])]
    assert exclude_target(tokens, target) == expected
    assert expected == [t for t in tokens if not matches_target_form(t, target)]


# --- vectorize -------------------------------------------------------------

def test_two_token_arithmetic():
    model = make_model({"w1": (1, 0), "w2": (0, 1)})
    chi2 = Chi2Table(values={("zzzzz", "w1"): 3.0, ("zzzzz", "w2"): 4.0})
    cfg = WeightingConfig(p_tfidf=0.0, p_chi2=1.0)
    cv = vectorize(make_instance(["w1", "w2"]), model, FLAT_IDF, chi2, cfg)
    np.testing.assert_allclose(cv.v, [0.6, 0.8], atol=1e-12)
    assert cv.n_contributing == 2


def test_all_oov_yields_zero_vector():
    model = make_model({"w1": (1, 0)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cv = vectorize(make_instance(["oovword", "another"]), model, FLAT_IDF,
                       Chi2Table(), WeightingConfig(0.0, 0.0))
    assert cv.n_contributing == 0
    np.testing.assert_array_equal(cv.v, [0.0, 0.0])


def test_all_excluded_yields_zero_vector():
    model = make_model({"банка": (1, 0), "банки": (0, 1)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cv = vectorize(make_instance(["банка", "банки"], target="банка"),
                       model, FLAT_IDF, Chi2Table(), WeightingConfig(0.0, 0.0))
    assert cv.n_contributing == 0


def test_equal_weights_match_plain_mean_direction():
    rng = np.random.default_rng(0)
    vecs = {f"w{i}": rng.normal(size=4) for i in range(6)}
    model = make_model(vecs)
    tokens = sorted(vecs)
    cv = vectorize(make_instance(tokens), model, FLAT_IDF, Chi2Table(),
                   WeightingConfig(0.0, 0.0))
    mean = np.mean([model.lookup(t).astype(np.float64) for t in tokens], axis=0)
    np.testing.assert_allclose(cv.v, mean / np.linalg.norm(mean), atol=1e-12)


def test_weight_scale_invariance():
    rng = np.random.default_rng(1)
    model = make_model({f"w{i}": rng.normal(size=5) for i in range(8)})
    tokens = [f"w{i}" for i in range(8)]
    base_chi2 = {("zzzzz", t): float(rng.uniform(0.5, 4.0)) for t in tokens}
    cfg = WeightingConfig(p_tfidf=0.0, p_chi2=1.0)
    ref = vectorize(make_instance(tokens), model, FLAT_IDF,
                    Chi2Table(values=dict(base_chi2)), cfg)
    for c in (0.01, 1.0, 100.0):
        scaled = Chi2Table(values={k: c * v for k, v in base_chi2.items()})
        cv = vectorize(make_instance(tokens), model, FLAT_IDF, scaled, cfg)
        np.testing.assert_allclose(cv.v, ref.v, atol=1e-12)


def test_weighted_unit_average_scale_invariance():
    rng = np.random.default_rng(2)
    vecs = [rng.normal(size=6) for _ in range(5)]
    weights = rng.uniform(0.1, 3.0, size=5)
    ref = weighted_unit_average(vecs, weights, 6)
    for c in (0.01, 1.0, 100.0):
        np.testing.assert_allclose(
            weighted_unit_average(vecs, c * weights, 6), ref, atol=1e-12)


def test_output_unit_norm():
    rng = np.random.default_rng(3)
    model = make_model({f"w{i}": rng.normal(size=7) for i in range(30)})
    chi2 = Chi2Table(values={("zzzzz", f"w{i}"): float(rng.uniform(0, 2))
                             for i in range(30)})
    for trial in range(20):
        n = int(rng.integers(1, 12))
        tokens = [f"w{int(rng.integers(30))}" for _ in range(n)]
        cv = vectorize(make_instance(tokens), model, FLAT_IDF, chi2,
                       WeightingConfig(1.0, 0.5))
        if cv.n_contributing > 0:
            assert abs(np.linalg.norm(cv.v) - 1.0) < 1e-9
        else:
            assert not cv.v.any()


def test_token_order_irrelevant():
    rng = np.random.default_rng(4)
    model = make_model({f"w{i}": rng.normal(size=5) for i in range(6)})
    tokens = [f"w{i}" for i in range(6)] + ["w0", "w3"]
    cfg = WeightingConfig(1.0, 0.0)
    ref = vectorize(make_instance(tokens), model, FLAT_IDF, Chi2Table(), cfg)
    for seed in range(5):
        perm = list(np.random.default_rng(seed).permutation(tokens))
        cv = vectorize(make_instance(perm), model, FLAT_IDF, Chi2Table(), cfg)
        np.testing.assert_allclose(cv.v, ref.v, atol=1e-12)


def test_oov_token_removal_is_noop():
    rng = np.random.default_rng(5)
    model = make_model({f"w{i}": rng.normal(size=4) for i in range(4)})
    with_oov = ["w0", "missing", "w1", "w2"]
    without = ["w0", "w1", "w2"]
    cfg = WeightingConfig(1.0, 0.0)
    a = vectorize(make_instance(with_oov), model, FLAT_IDF, Chi2Table(), cfg)
    b = vectorize(make_instance(without), model, FLAT_IDF, Chi2Table(), cfg)
    np.testing.assert_array_equal(a.v, b.v)
    assert a.n_contributing == b.n_contributing


def test_duplicate_tokens_contribute_per_occurrence():
    model = make_model({"w1": (1.0, 0.0), "w2": (0.0, 1.0)})
    cfg = WeightingConfig(0.0, 0.0)
    cv = vectorize(make_instance(["w1", "w1", "w2"]), model, FLAT_IDF,
                   Chi2Table(), cfg)
    expected = np.array([2.0, 1.0]) / np.linalg.norm([2.0, 1.0])
    np.testing.assert_allclose(cv.v, expected, atol=1e-12)
    assert cv.n_contributing == 3


def test_exact_cancellation_treated_as_empty():
    model = make_model({"w1": (1.0, 0.0), "w2": (-1.0, 0.0)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cv = vectorize(make_instance(["w1", "w2"]), model, FLAT_IDF,
                       Chi2Table(), WeightingConfig(0.0, 0.0))
    assert cv.n_contributing == 0
    assert not cv.v.any()


def test_zero_chi2_with_positive_exponent_suppresses_token():
    model = make_model({"w1": (1.0, 0.0), "w2": (0.0, 1.0)})
    chi2 = Chi2Table(values={("zzzzz", "w1"): 2.0})  # w2 unseen -> 0
    cv = vectorize(make_instance(["w1", "w2"]), model, FLAT_IDF, chi2,
                   WeightingConfig(0.0, 1.0))
    np.testing.assert_allclose(cv.v, [1.0, 0.0], atol=1e-12)
    assert cv.n_contributing == 1


def test_nfd_token_gets_nfc_entries(tmp_path):
    """One normalization point: an NFD context token, target, idf key or chi2
    key finds the same entries as its NFC form."""
    def nfd(word):
        return unicodedata.normalize("NFD", word)

    assert nfd("йод") != "йод" and nfd("бой") != "бой"
    header = "context_id\tword\tgold_sense_id\tpredict_sense_id\tpositions\tcontext"
    (tmp_path / "ds.tsv").write_text(
        f"{header}\n"
        f"c1\t{nfd('бой')}\t\t\t0-4\t{nfd('бой')} {nfd('йод')} вода\n"
        f"c2\tбой\t\t\t0-3\tбой йод вода\n", encoding="utf-8")
    (tmp_path / "idf.tsv").write_text(f"# n_docs=10\n{nfd('йод')}\t1\nвода\t5\n",
                                      encoding="utf-8")
    (tmp_path / "chi2.tsv").write_text(
        f"{nfd('бой')}\tвода\t1.0\nбой\t{nfd('йод')}\t4.0\n", encoding="utf-8")
    dataset = parse_dataset(tmp_path / "ds.tsv")
    idf = read_idf_tsv(tmp_path / "idf.tsv")
    chi2 = read_chi2_tsv(tmp_path / "chi2.tsv")

    assert dataset.warnings == []
    assert list(dataset.by_target) == ["бой"]
    c1, c2 = dataset.instances
    assert c1.tokens == c2.tokens == ["бой", "йод", "вода"]
    assert idf.idf("йод") == math.log(11 / 2) + 1.0
    assert chi2.value("бой", "йод") == 4.0 and chi2.value("бой", "вода") == 1.0

    model = make_model({"йод": (1.0, 0.0), "вода": (0.0, 1.0)})
    cfg = WeightingConfig(1.0, 1.0)
    v1 = vectorize(c1, model, idf, chi2, cfg)
    v2 = vectorize(c2, model, idf, chi2, cfg)
    w = np.array([idf.idf("йод") * 4.0, idf.idf("вода") * 1.0])
    np.testing.assert_allclose(v1.v, w / np.linalg.norm(w), atol=1e-12)
    np.testing.assert_array_equal(v1.v, v2.v)
    assert v1.n_contributing == v2.n_contributing == 2


# --- terms built once, then the power step ----------------------------------

def reference_vector(instance, model, idf, chi2, cfg):
    """The per-context vectorizer as it was before the terms/power split:
    per distinct token, tf counted by a scan of the context and one product
    of the two powered factors; weights per occurrence."""
    kept = exclude_target(instance.tokens, instance.target)
    rows, weights, weight_cache = [], [], {}
    for tok in kept:
        row = model.index.get(normalize_token(tok))
        if row is None:
            continue
        if tok not in weight_cache:
            tf = sum(1 for t in kept if t == tok)
            weight_cache[tok] = (power([tf * idf.idf(tok)], cfg.p_tfidf)[0]
                                 * power([chi2.value(instance.target, tok)], cfg.p_chi2)[0])
        rows.append(row)
        weights.append(weight_cache[tok])
    n_contributing = sum(1 for w in weights if w > 0)
    v = weighted_unit_average(model.vectors[rows], weights, model.dim)
    if n_contributing == 0 or not v.any():
        return np.zeros(model.dim), 0
    return v, n_contributing


VOCAB = ("w0", "w1", "w2", "w3", "w4", "w5")
TARGETS = ("банка", "замок")
# Contexts every drawn dataset also holds: all-OOV, all-excluded (target
# forms only), repeats plus OOV, a token whose chi2 is 0, and two opposite
# vectors that cancel exactly when p_chi2 = 0 (equal tf-idf, chi2 1 and 2.75).
FIXED_CONTEXTS = (["oov0", "oov1"], ["банка", "банки", "банках"],
                  ["w0", "w0", "w1", "oov0", "w0"], ["w5", "w1"], [], ["u0", "u1"])


@st.composite
def vectorize_problems(draw):
    dim = draw(st.integers(1, 4))
    component = st.sampled_from([-2.5, -1.0, -0.25, 0.0, 0.5, 1.0, 3.0])
    vectors = draw(st.lists(st.lists(component, min_size=dim, max_size=dim),
                            min_size=len(VOCAB), max_size=len(VOCAB)))
    model = synthetic.model_from_entries(dict(zip(VOCAB, vectors),
                                              u0=[1.0] * dim, u1=[-1.0] * dim))
    n_docs = draw(st.integers(1, 50))
    idf = IdfTable(n_docs=n_docs, df={w: draw(st.integers(0, n_docs)) for w in VOCAB})
    # w5 is never given a chi2 value, so it reads 0 for every target.
    chi2 = Chi2Table(values={(t, w): draw(st.sampled_from([0.0, 0.5, 1.0, 2.75, 40.0]))
                             for t in TARGETS for w in VOCAB[:-1]}
                     | {("банка", "u0"): 1.0, ("банка", "u1"): 2.75})
    token = st.sampled_from(VOCAB + ("oov0", "oov1", "банка", "банки", "замка"))
    drawn = draw(st.lists(st.tuples(st.sampled_from(TARGETS),
                                    st.lists(token, max_size=9)), max_size=6))
    contexts = [("банка", list(toks)) for toks in FIXED_CONTEXTS] + drawn
    instances, by_target = [], {}
    for i, (target, tokens) in enumerate(contexts):
        by_target.setdefault(target, []).append(i)
        instances.append(ContextInstance(context_id=f"c{i}", target=target,
                                         gold_sense=None, target_spans=[],
                                         raw_context=" ".join(tokens)))
    return Dataset(instances=instances, by_target=by_target), model, idf, chi2


@settings(max_examples=60, deadline=None)
@given(vectorize_problems())
def test_split_vectorizer_is_bitwise_equal_to_reference(problem):
    dataset, model, idf, chi2 = problem
    for pt in POWER_GRID:
        for pc in POWER_GRID:
            cfg = WeightingConfig(p_tfidf=pt, p_chi2=pc)
            by_word = vectorize_dataset(dataset, model, idf, chi2, cfg)
            singles = [vectorize(inst, model, idf, chi2, cfg)
                       for inst in dataset.instances]
            assert list(by_word) == list(dataset.by_target)
            for word, idxs in dataset.by_target.items():
                ids, X = by_word[word]
                assert ids == [dataset.instances[i].context_id for i in idxs]
                for row, i in zip(X, idxs):
                    ref, n_ref = reference_vector(dataset.instances[i], model, idf,
                                                  chi2, cfg)
                    assert np.array_equal(row, ref), (cfg, i)
                    assert np.array_equal(singles[i].v, ref), (cfg, i)
                    assert singles[i].n_contributing == n_ref, (cfg, i)
    # All pairs in one call, shuffled and with a repeat: each config's
    # matrices equal the reference regardless of its neighbours.
    cfgs = [WeightingConfig(p_tfidf=pt, p_chi2=pc) for pt in POWER_GRID for pc in POWER_GRID]
    cfgs.append(WeightingConfig(p_tfidf=1.5, p_chi2=0.0))
    random.Random(len(dataset.instances)).shuffle(cfgs)
    cancelling = dataset.instances[len(FIXED_CONTEXTS) - 1]
    for cfg in cfgs:
        assert reference_vector(cancelling, model, idf, chi2, cfg)[1] == (2 if cfg.p_chi2 else 0)
    for word, idxs in dataset.by_target.items():
        stack = vectorize_word(dataset, word, model, idf, chi2, cfgs)
        assert stack.shape == (len(cfgs), len(idxs), model.dim)
        for cfg, X in zip(cfgs, stack):
            ref = [reference_vector(dataset.instances[i], model, idf, chi2, cfg)[0]
                   for i in idxs]
            assert np.array_equal(X, np.vstack(ref)), cfg


def test_grid_search_builds_each_contexts_terms_once(monkeypatch):
    rng = np.random.default_rng(6)
    entries = {f"w{i}": rng.normal(size=4) for i in range(10)}
    model = synthetic.model_from_entries(entries)
    instances, by_target = [], {}
    for i in range(12):
        target = ("замок", "банка")[i % 2]
        tokens = [f"w{int(j)}" for j in rng.integers(0, 10, size=5)]
        by_target.setdefault(target, []).append(i)
        instances.append(ContextInstance(context_id=f"c{i}", target=target,
                                         gold_sense=str(i % 3), target_spans=[],
                                         raw_context=" ".join(tokens)))
    dataset = Dataset(instances=instances, by_target=by_target)
    built = Counter()
    # The package's ``vectorize`` function shadows the submodule's name.
    vectorize_module = importlib.import_module("senseclust.vectorize")
    context_terms = vectorize_module.context_terms

    def counting(instance, *args):
        built[instance.context_id] += 1
        return context_terms(instance, *args)

    monkeypatch.setattr(vectorize_module, "context_terms", counting)
    space = SearchSpace()
    result = grid_search(dataset, model, synthetic.build_background_idf(seed=3),
                         build_chi2(dataset), space)
    assert len(result.ranked) == space.size() == 1548
    assert built == Counter({inst.context_id: 1 for inst in instances})


@pytest.mark.parametrize("consumer", ["vectorize_dataset", "grid_search"])
def test_each_context_is_tokenized_and_filtered_once(tmp_path, monkeypatch, consumer):
    """build_chi2 and then the vectorizer or the search read each context's
    kept tokens: one tokenize and one target exclusion per instance."""
    dataset = synthetic.write_dataset(tmp_path / "ds.tsv", contexts_per_sense=4)
    model = synthetic.build_model(seed=0)
    idf = synthetic.build_background_idf(seed=3)
    expected_tokenized = Counter(inst.raw_context for inst in dataset.instances)
    expected_excluded = Counter((tuple(text_module.tokenize(inst.raw_context)), inst.target)
                                for inst in dataset.instances)
    tokenized, excluded = Counter(), Counter()
    tokenize, exclude = text_module.tokenize, text_module.exclude_target

    def counting_tokenize(text):
        tokenized[text] += 1
        return tokenize(text)

    def counting_exclude(tokens, target):
        excluded[tuple(tokens), target] += 1
        return exclude(tokens, target)

    for name, module in list(sys.modules.items()):
        if name.startswith("senseclust"):
            for attr, fake in (("tokenize", counting_tokenize),
                               ("exclude_target", counting_exclude)):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, fake)
    chi2 = build_chi2(dataset)
    if consumer == "vectorize_dataset":
        vectorize_dataset(dataset, model, idf, chi2, WeightingConfig(1.0, 1.0))
    else:
        space = SearchSpace(power_grid=(0.0, 1.0), k_grid=(2,), linkages=("average",))
        grid_search(dataset, model, idf, chi2, space)
    assert tokenized == expected_tokenized
    assert excluded == expected_excluded
