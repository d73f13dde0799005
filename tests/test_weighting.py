import math

import numpy as np
import pytest

from senseclust.dataset import Dataset, ContextInstance
from senseclust.errors import DataError
from senseclust.weighting import (Chi2Table, IdfTable, WeightingConfig,
                                  build_chi2, build_idf, chi2_statistic,
                                  combine, read_chi2_tsv, read_idf_tsv,
                                  tfidf_weight, write_chi2_tsv, write_idf_tsv)


def make_dataset(rows):
    """rows: list of (context_id, target, tokens)."""
    instances = []
    by_target = {}
    for cid, target, tokens in rows:
        by_target.setdefault(target, []).append(len(instances))
        instances.append(ContextInstance(
            context_id=cid, target=target, gold_sense=None, target_spans=[],
            raw_context=" ".join(tokens), tokens=list(tokens)))
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


def test_tfidf_smoothing_identity():
    table = IdfTable(n_docs=1, df={"a": 1})
    assert tfidf_weight("a", ["a", "b"], table) == pytest.approx(1.0)


def test_tfidf_oov_token():
    table = IdfTable(n_docs=1, df={})
    assert tfidf_weight("z", ["z"], table) == pytest.approx(math.log(2) + 1, abs=1e-4)


def test_tfidf_tf_doubles():
    table = IdfTable(n_docs=1, df={"a": 1})
    assert tfidf_weight("a", ["a", "a", "b"], table) == pytest.approx(2.0)


def test_tfidf_requires_membership():
    with pytest.raises(ValueError):
        tfidf_weight("q", ["a"], IdfTable(n_docs=1, df={}))


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


# --- combine ---------------------------------------------------------------

def test_combine_zero_exponents_are_unit():
    cfg = WeightingConfig(p_tfidf=0.0, p_chi2=0.0)
    assert combine(0.0, 0.0, cfg) == 1.0
    assert combine(123.4, 0.0, cfg) == 1.0


def test_combine_arithmetic():
    cfg = WeightingConfig(p_tfidf=1.5, p_chi2=0.5)
    assert combine(2.0, 4.0, cfg) == pytest.approx(5.6569, abs=1e-4)


def test_combine_absorbing_zero():
    assert combine(0.0, 7.0, WeightingConfig(1.0, 1.0)) == 0.0


def test_combine_monotone():
    rng = np.random.default_rng(3)
    cfg = WeightingConfig(p_tfidf=1.5, p_chi2=0.5)
    for _ in range(200):
        x, y = rng.uniform(0.01, 10, size=2)
        dx = rng.uniform(0.01, 5)
        assert combine(x + dx, y, cfg) >= combine(x, y, cfg)
        assert combine(x, y + dx, cfg) >= combine(x, y, cfg)


def test_combine_unit_second_factor_ignores_exponent():
    for q in (0.0, 0.5, 1.0, 2.5):
        assert combine(3.0, 1.0, WeightingConfig(1.5, q)) == pytest.approx(
            combine(3.0, 1.0, WeightingConfig(1.5, 0.0)), rel=1e-12)


def test_combine_rejects_bad_inputs():
    with pytest.raises(ValueError):
        combine(-1.0, 1.0, WeightingConfig())
    with pytest.raises(ValueError):
        combine(float("inf"), 1.0, WeightingConfig())


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
    for text, lineno in (("# n_docs=4\na\t1.5\n", 2),
                         ("# n_docs=many\na\t1\n", 1),
                         ("# n_docs=4\na\t5\n", 2),
                         ("# n_docs=4\n\na\t-1\n", 3),
                         ("# n_docs=0\n", 1),
                         ("a\t1\n# n_docs=4\n", 1),
                         ("# n_docs=4\n# n_docs=2\n", 2)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"idf.tsv: line {lineno}: "):
            read_idf_tsv(path)


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
