import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from senseclust.dataset import Dataset, ContextInstance, parse_dataset
from senseclust.embeddings import load_embeddings, write_embeddings
from senseclust.errors import DataError
from senseclust.vectorize import ContextTerms, context_terms, power_step
from senseclust.weighting import (Chi2Table, IdfTable, WeightingConfig,
                                  build_chi2, build_idf, chi2_statistic, power,
                                  read_chi2_tsv, read_idf_tsv, write_chi2_tsv,
                                  write_idf_tsv)

import synthetic


def make_dataset(rows):
    """rows: list of (context_id, target, tokens)."""
    instances = []
    by_target = {}
    for cid, target, tokens in rows:
        by_target.setdefault(target, []).append(len(instances))
        instances.append(ContextInstance(
            context_id=cid, target=target, gold_sense=None, target_spans=[],
            raw_context=" ".join(tokens)))
    return Dataset(instances=instances, by_target=by_target)


# --- idf -------------------------------------------------------------------

def test_build_idf_document_level():
    table = build_idf([["a", "b"], ["a"]])
    assert table.n_docs == 2
    assert table.df == {"a": 2, "b": 1}


def test_build_idf_counts_once_per_doc():
    table = build_idf([["a", "a", "a"]])
    assert table.df == {"a": 1}


def test_build_idf_empty_stream():
    with pytest.raises(ValueError):
        build_idf([])


def test_build_idf_df_bounded():
    rng = np.random.default_rng(0)
    docs = [[f"w{rng.integers(30)}" for _ in range(rng.integers(1, 12))]
            for _ in range(1000)]
    table = build_idf(docs)
    assert table.n_docs == 1000
    assert all(0 < d <= 1000 for d in table.df.values())


def tfidf_terms(tokens, idf):
    """Each embedded token of one context with the tf-idf ``context_terms``
    gives it, as (token, tf-idf) pairs in token order."""
    model = synthetic.model_from_entries({t: (1.0,) for t in ("a", "b", "q", "z")})
    instance = make_dataset([("c1", "zzzzz", tokens)]).instances[0]
    terms = context_terms(instance, model, idf, Chi2Table())
    return list(zip([t for t in tokens if t in model.index], terms.tfidf))


def test_tfidf_smoothing_identity():
    table = IdfTable(n_docs=1, df={"a": 1})
    assert tfidf_terms(["a", "b"], table)[0] == ("a", pytest.approx(1.0))


def test_tfidf_oov_token():
    table = IdfTable(n_docs=1, df={})
    assert tfidf_terms(["z"], table) == [("z", pytest.approx(math.log(2) + 1, abs=1e-4))]


def test_tfidf_tf_doubles():
    table = IdfTable(n_docs=1, df={"a": 1})
    assert tfidf_terms(["a", "a", "b"], table)[:2] == [("a", pytest.approx(2.0))] * 2


def test_tfidf_requires_membership():
    # Only the context's own embedded tokens are weighed: not "q", which the
    # model holds, and not "r", which it does not.
    assert tfidf_terms(["a", "r"], IdfTable(n_docs=1, df={})) == [
        ("a", pytest.approx(math.log(2) + 1))]


# --- chi2 ------------------------------------------------------------------

def test_chi2_hand_case():
    assert chi2_statistic(8, 2, 2, 88) == pytest.approx(60.4938, abs=1e-3)


def test_chi2_independence():
    assert chi2_statistic(5, 45, 5, 45) == 0.0


def test_chi2_zero_margin():
    assert chi2_statistic(0, 0, 10, 90) == 0.0
    assert chi2_statistic(3, 7, 0, 0) == 0.0


def test_chi2_complement_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c, d = (int(x) for x in rng.integers(0, 50, size=4))
        assert chi2_statistic(a, b, c, d) == pytest.approx(
            chi2_statistic(b, a, d, c), rel=1e-12)


def test_chi2_doubling_cells_doubles_value():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b, c, d = (int(x) for x in rng.integers(1, 40, size=4))
        assert chi2_statistic(2 * a, 2 * b, 2 * c, 2 * d) == pytest.approx(
            2 * chi2_statistic(a, b, c, d), rel=1e-12)


def test_build_chi2_counts_match_hand_table():
    # word "x" occurs in 2 of t1's 3 contexts and 1 of t2's 2 contexts
    ds = make_dataset([
        ("c1", "zzzzz", ["x", "y"]),
        ("c2", "zzzzz", ["x"]),
        ("c3", "zzzzz", ["y"]),
        ("c4", "qqqqq", ["x"]),
        ("c5", "qqqqq", ["y"]),
    ])
    table = build_chi2(ds)
    assert table.value("zzzzz", "x") == pytest.approx(chi2_statistic(2, 1, 1, 1))
    assert table.value("qqqqq", "x") == pytest.approx(chi2_statistic(1, 2, 1, 1))
    assert table.value("zzzzz", "absent") == 0.0


def test_build_chi2_presence_not_counts():
    ds = make_dataset([
        ("c1", "zzzzz", ["x", "x", "x"]),
        ("c2", "qqqqq", ["y"]),
    ])
    table = build_chi2(ds)
    # one context containing x three times counts as a = 1
    assert table.value("zzzzz", "x") == pytest.approx(chi2_statistic(1, 0, 0, 1))


def test_build_chi2_excludes_target_forms():
    ds = make_dataset([
        ("c1", "банка", ["банка", "огурцы"]),
        ("c2", "берег", ["берег", "реки"]),
    ])
    table = build_chi2(ds)
    assert table.value("банка", "банка") == 0.0
    assert ("банка", "банка") not in table.values
    assert table.value("банка", "огурцы") > 0


def test_build_chi2_single_target_degenerates():
    ds = make_dataset([("c1", "zzzzz", ["x"]), ("c2", "zzzzz", ["y"])])
    table = build_chi2(ds)
    assert table.single_target
    assert all(v == 0.0 for v in table.values.values())
    # A word present in some contexts and absent from others: no context lies
    # outside the one target, so the statistic is 0 on the empty margin.
    ds = make_dataset([("c1", "zzzzz", ["x", "w"]), ("c2", "zzzzz", ["y", "w"]),
                       ("c3", "zzzzz", ["x"])])
    table = build_chi2(ds)
    assert table.single_target
    assert table.values == {("zzzzz", w): 0.0 for w in ("x", "w", "y")}


def test_exclusive_cooccurrence_dominates():
    # "only" appears solely with t1; "both" appears uniformly with t1 and t2
    rows = []
    for i in range(10):
        rows.append((f"a{i}", "zzzzz", ["only", "both"]))
    for i in range(10):
        rows.append((f"b{i}", "qqqqq", ["both"]))
    table = build_chi2(make_dataset(rows))
    assert table.value("zzzzz", "only") > table.value("zzzzz", "both")
    involving_only = [v for (t, w), v in table.values.items() if w == "only"]
    assert table.value("zzzzz", "only") == max(involving_only)


# Targets that are also context words, so the exclusion of a context's own
# target meets words that other targets keep.
CHI2_TARGETS = ("zzzzz", "qqqqq", "wwwww")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CHI2_TARGETS),
                          st.lists(st.sampled_from(("x", "y", "v") + CHI2_TARGETS[:2]),
                                   max_size=6)),
                min_size=1, max_size=12))
@example([("zzzzz", ["x"]), ("zzzzz", ["x", "y"])])
@example([("zzzzz", ["x", "qqqqq"]), ("qqqqq", ["x", "zzzzz"]), ("wwwww", ["x", "x"])])
def test_build_chi2_matches_naive_recount(rows):
    # Each (target, word) 2x2 table recounted from the contexts' word sets.
    ds = make_dataset([(f"c{i}", t, tokens) for i, (t, tokens) in enumerate(rows)])
    present = [(inst.target, set(inst.kept)) for inst in ds.instances]
    expected = {}
    for target in ds.by_target:
        inside = [words for t, words in present if t == target]
        outside = [words for t, words in present if t != target]
        for word in set().union(*inside):
            a = sum(word in words for words in inside)
            b = sum(word in words for words in outside)
            expected[(target, word)] = chi2_statistic(
                a, b, len(inside) - a, len(outside) - b).hex()
    table = build_chi2(ds)
    assert {pair: v.hex() for pair, v in table.values.items()} == expected
    assert table.single_target == (len(ds.by_target) < 2)


def test_build_chi2_peaks_near_its_table():
    """Counting holds one target's counts at a time, not a set per context."""
    rng = np.random.default_rng(0)
    vocab = [f"w{i}" for i in range(3000)]
    ds = make_dataset([(f"c{t}-{j}", f"target{t:02d}", list(rng.choice(vocab, size=40)))
                       for t in range(20) for j in range(60)])
    for inst in ds.instances:
        inst.kept
    tracemalloc.start()
    try:
        table = build_chi2(ds)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.values) > 30_000
    assert peak < 1.4 * retained


def test_each_word_is_one_object(tmp_path):
    # A word held by contexts, targets and every table is one object, however
    # many times and in whichever case the files spell it.
    word, target = "огурцы", "банка"
    write_embeddings(synthetic.model_from_entries({word: (1.0,), "реки": (0.5,)}),
                     tmp_path / "emb.txt")
    model = load_embeddings(tmp_path / "emb.txt")
    (tmp_path / "idf.tsv").write_text(f"# n_docs=3\n{word}\t2\n", encoding="utf-8")
    idf = read_idf_tsv(tmp_path / "idf.tsv")
    (tmp_path / "ds.tsv").write_text("\n".join([
        synthetic.HEADER,
        f"c1\t{target}\t\t\t0-5\t{target} {word}",
        f"c2\t{target.upper()}\t\t\t0-5\t{target.upper()} {word.upper()}",
        "c3\tберег\t\t\t0-5\tберег реки"]) + "\n", encoding="utf-8")
    ds = parse_dataset(tmp_path / "ds.tsv")
    chi2 = build_chi2(ds)
    words = ([t for inst in ds.instances for t in inst.kept if t == word]
             + [w for w in model.index if w == word] + [w for w in idf.df if w == word]
             + [w for _, w in chi2.values if w == word])
    targets = ([inst.target for inst in ds.instances if inst.target == target]
               + [t for t in ds.by_target if t == target]
               + [t for t, _ in chi2.values if t == target])
    assert len(words) == 5 and len(targets) == 4
    assert all(w is words[0] for w in words)
    assert all(t is targets[0] for t in targets)


# --- the combined weight tfidf^p_tfidf * chi2^p_chi2 ------------------------

# Two tokens with orthogonal unit embeddings: a context's vector is then its
# two weights, L2-normalized.
PAIR = synthetic.model_from_entries({"x": (1.0, 0.0), "y": (0.0, 1.0)})


def pair_vector(x, y, cfg):
    """``power_step``'s vector for tokens x and y, each a (tf-idf, chi2) pair."""
    terms = ContextTerms(np.array([0, 1], dtype=np.intp), [x[0], y[0]], [x[1], y[1]])
    return power_step(terms, PAIR, [cfg])[0]


def weight(x, cfg):
    """The combined weight of x, against a token whose weight is 1 under any
    exponents."""
    v = pair_vector(x, (1.0, 1.0), cfg)
    return v[0] / v[1]


def test_combine_zero_exponents_are_unit():
    assert power([0.0, 123.4, 1.0], 0.0) == [1.0, 1.0, 1.0]
    cfg = WeightingConfig(p_tfidf=0.0, p_chi2=0.0)
    assert weight((0.0, 0.0), cfg) == 1.0
    assert weight((123.4, 0.0), cfg) == 1.0


def test_combine_arithmetic():
    cfg = WeightingConfig(p_tfidf=1.5, p_chi2=0.5)
    assert weight((2.0, 4.0), cfg) == pytest.approx(5.6569, abs=1e-4)


def test_combine_absorbing_zero():
    assert power([0.0], 1.0) == [0.0]
    assert pair_vector((0.0, 7.0), (1.0, 1.0), WeightingConfig(1.0, 1.0))[0] == 0.0
    assert pair_vector((7.0, 0.0), (1.0, 1.0), WeightingConfig(1.0, 1.0))[0] == 0.0


def test_combine_monotone():
    rng = np.random.default_rng(3)
    cfg = WeightingConfig(p_tfidf=1.5, p_chi2=0.5)
    for _ in range(200):
        x, y = rng.uniform(0.01, 10, size=2)
        dx = rng.uniform(0.01, 5)
        assert weight((x + dx, y), cfg) >= weight((x, y), cfg)
        assert weight((x, y + dx), cfg) >= weight((x, y), cfg)


def test_combine_unit_second_factor_ignores_exponent():
    # Every chi2 is 1, so the vector is the same bits under any p_chi2.
    base = pair_vector((3.0, 1.0), (0.5, 1.0), WeightingConfig(1.5, 0.0))
    for q in (0.0, 0.5, 1.0, 2.5):
        assert power([1.0], q) == [1.0]
        assert np.array_equal(
            pair_vector((3.0, 1.0), (0.5, 1.0), WeightingConfig(1.5, q)), base)


def test_combine_rejects_bad_inputs():
    # The tables that supply the two factors reject what could not be raised:
    # a negative or infinite chi2, and a df outside [0, n_docs].
    for bad in (-1.0, float("inf")):
        with pytest.raises(ValueError):
            Chi2Table(values={("t", "w"): bad})
    with pytest.raises(ValueError):
        IdfTable(n_docs=1, df={"a": 2})


def test_weighting_config_range():
    with pytest.raises(ValueError):
        WeightingConfig(p_tfidf=-0.1)
    with pytest.raises(ValueError):
        WeightingConfig(p_chi2=2.6)


# --- serialization ---------------------------------------------------------

def test_idf_tsv_round_trip(tmp_path):
    table = IdfTable(n_docs=42, df={"a": 40, "банк": 3})
    path = tmp_path / "idf.tsv"
    write_idf_tsv(table, path)
    back = read_idf_tsv(path)
    assert back.n_docs == 42 and back.df == table.df
    kept = read_idf_tsv(path, vocabulary={"банк", "zz"})
    assert kept.n_docs == 42 and kept.df == {"банк": 3}
    for text, lineno in (("# n_docs=4\na\t1.5\n", 2),
                         ("# n_docs=many\na\t1\n", 1),
                         ("# n_docs=4\na\t5\n", 2),
                         ("# n_docs=4\n\na\t-1\n", 3),
                         ("# n_docs=0\n", 1),
                         ("a\t1\n# n_docs=4\n", 1),
                         ("# n_docs=4\n# n_docs=2\n", 2)):
        path.write_text(text, encoding="utf-8")
        messages = set()
        for vocabulary in (None, set(), {"b"}):  # the bad row's word is "a"
            with pytest.raises(DataError, match=f"idf.tsv: line {lineno}: ") as info:
                read_idf_tsv(path, vocabulary=vocabulary)
            messages.add(str(info.value))
        assert len(messages) == 1


def test_chi2_tsv_round_trip(tmp_path):
    table = Chi2Table(values={("t", "w"): 1.25, ("t", "другой"): 0.0})
    path = tmp_path / "chi2.tsv"
    write_chi2_tsv(table, path)
    back = read_chi2_tsv(path)
    assert back.values == table.values
    assert not back.single_target
    for value in ("high", "-0.5", "nan", "inf", "-inf"):
        path.write_text(f"t\tw\t1.0\nt\tv\t{value}\n", encoding="utf-8")
        with pytest.raises(DataError, match="chi2.tsv: line 2: "):
            read_chi2_tsv(path)
    for value in (-0.5, math.nan, math.inf, -math.inf):  # the reader's rule, stated once
        with pytest.raises(ValueError):
            Chi2Table(values={("t", "v"): value})
