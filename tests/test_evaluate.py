from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from senseclust.dataset import ContextInstance, Dataset
from senseclust.evaluate import (Labeling, ari, ari_codes, ari_rows, confusion_csv,
                                 confusion_matrix, evaluate)

from oracles import pair_counting_ari


def make_dataset(rows):
    """rows: (context_id, target, gold_sense or None)."""
    instances, by_target = [], {}
    for cid, target, gold in rows:
        by_target.setdefault(target, []).append(len(instances))
        instances.append(ContextInstance(context_id=cid, target=target,
                                         gold_sense=gold, target_spans=[],
                                         raw_context=""))
    return Dataset(instances=instances, by_target=by_target)


# --- ari -------------------------------------------------------------------

def test_relabeling_identity():
    assert ari([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0


def test_all_in_one_is_zero():
    assert ari([1, 1, 2, 2], [9, 9, 9, 9]) == 0.0


def test_hand_case():
    assert ari([1, 1, 1, 2, 2, 2], [1, 1, 2, 2, 3, 3]) == pytest.approx(0.8 / 3.3)


def test_degenerate_identical_partitions():
    assert ari([1, 1, 1], [7, 7, 7]) == 1.0
    assert ari([1, 2, 3], ["a", "b", "c"]) == 1.0
    assert ari([1], [5]) == 1.0


def test_degenerate_different_trivial_partitions():
    # all-one vs all-singletons: both sums of pair counts degenerate
    assert ari([1, 1, 1], [1, 2, 3]) == 0.0


def test_errors():
    with pytest.raises(ValueError):
        ari([1, 2], [1])
    with pytest.raises(ValueError):
        ari([], [])


def test_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 15))
        g = list(rng.integers(0, 4, size=n))
        p = list(rng.integers(0, 4, size=n))
        assert ari(g, p) == pytest.approx(ari(p, g), abs=1e-12)


def test_self_ari_is_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 15))
        x = list(rng.integers(0, 4, size=n))
        assert ari(x, x) == 1.0


@given(st.lists(st.integers(0, 3), min_size=2, max_size=12),
       st.permutations(["a", "b", "c", "d"]))
def test_relabeling_invariance(gold, mapping):
    pred = [mapping[g] for g in gold]
    assert ari(gold, pred) == 1.0


def test_matches_pair_counting_oracle():
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        g = list(rng.integers(0, 4, size=n))
        p = list(rng.integers(0, 4, size=n))
        assert ari(g, p) == pytest.approx(pair_counting_ari(g, p), abs=1e-12)


def counter_ari(gold, pred):
    """``ari`` as computed before the integer kernel: Counter contingency
    tables and the identical-partition rule for the degenerate case."""
    n = len(gold)
    canon = [{}, {}]
    identical = ([canon[0].setdefault(g, len(canon[0])) for g in gold]
                 == [canon[1].setdefault(p, len(canon[1])) for p in pred])
    if n == 1:
        return 1.0
    index = sum(c * (c - 1) // 2 for c in Counter(zip(gold, pred)).values())
    sum_a = sum(c * (c - 1) // 2 for c in Counter(gold).values())
    sum_b = sum(c * (c - 1) // 2 for c in Counter(pred).values())
    pairs = n * (n - 1) // 2
    if (sum_a + sum_b) * pairs == 2 * sum_a * sum_b:
        return 1.0 if identical else 0.0
    expected = sum_a * sum_b / pairs
    max_index = (sum_a + sum_b) / 2
    return (index - expected) / (max_index - expected)


LABELS = st.sampled_from([0, 1, 3, 17, 250, -4, "a", "b", "sense 2", "ж"])


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 30).flatmap(
    lambda n: st.tuples(st.lists(LABELS, min_size=n, max_size=n),
                        st.lists(LABELS, min_size=n, max_size=n))))
def test_integer_kernel_matches_counter_formula_and_oracle(pair):
    gold, pred = pair
    score = ari(gold, pred)
    assert score == counter_ari(gold, pred)
    assert abs(score - pair_counting_ari(gold, pred)) <= 1e-12


def test_integer_kernel_on_random_int_and_string_labelings():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 120))
        g = rng.choice([2, 9, 40, 1000], size=n)  # non-contiguous codes
        p = rng.integers(0, int(rng.integers(1, 15)), size=n)
        for gold, pred in ((list(g), list(p)), ([f"s{x}" for x in g], list(p))):
            assert ari(gold, pred) == counter_ari(gold, pred)
            assert abs(ari(gold, pred) - pair_counting_ari(gold, pred)) <= 1e-12
        # The kernel takes non-contiguous non-negative codes as they are.
        assert ari_codes(g, p) == ari(list(g), list(p))


def test_integer_kernel_degenerate_cases():
    cases = [([1], [5]), (["a", "a"], [3, 3]), ([1, 2], ["x", "y"]),
             ([1, 2], [1, 1]), ([7, 7, 7], [0, 1, 2]), ([0, 1, 2, 3], [9, 8, 7, 6]),
             (["a"] * 5, ["b"] * 5), ([0, 0, 1, 1], [0, 1, 0, 1])]
    for gold, pred in cases:
        assert ari(gold, pred) == counter_ari(gold, pred), (gold, pred)
        assert abs(ari(gold, pred) - pair_counting_ari(gold, pred)) <= 1e-12
    assert ari_codes(np.array([4, 4, 4]), np.array([0, 0, 0])) == 1.0
    assert ari_codes(np.array([0, 3, 6]), np.array([5, 1, 2])) == 1.0


CODES = st.sampled_from([0, 2, 9, 40])  # non-contiguous


@st.composite
def labeling_rows(draw):
    """Gold codes and a stack of predicted rows: arbitrary non-contiguous
    codes, all singletons, and one cluster."""
    n = draw(st.integers(1, 30))
    gold = draw(st.lists(CODES, min_size=n, max_size=n))
    kinds = st.sampled_from(["codes", "singletons", "one"])
    rows = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=6)):
        if kind == "codes":
            rows.append(draw(st.lists(CODES, min_size=n, max_size=n)))
        elif kind == "singletons":
            rows.append([3 * i + 1 for i in draw(st.permutations(range(n)))])
        else:
            rows.append([draw(CODES)] * n)
    return np.array(gold), np.array(rows)


@settings(max_examples=200, deadline=None)
@given(labeling_rows())
def test_batched_ari_equals_the_one_row_kernel_row_by_row(problem):
    gold, preds = problem
    scores = ari_rows(gold, preds)
    assert len(scores) == len(preds)
    for score, pred in zip(scores, preds):
        assert score == ari_codes(gold, pred) == counter_ari(list(gold), list(pred))


# --- evaluate --------------------------------------------------------------

def test_perfect_single_word():
    ds = make_dataset([("c1", "w", "1"), ("c2", "w", "1"), ("c3", "w", "2")])
    report = evaluate(ds, Labeling({"c1": "a", "c2": "a", "c3": "b"}))
    assert report.per_word["w"] == (1.0, 3)
    assert report.aggregate_weighted == 1.0
    assert report.aggregate_macro == 1.0


def test_aggregation_arithmetic():
    ds = make_dataset([
        ("a1", "w1", "1"), ("a2", "w1", "1"), ("a3", "w1", "2"),
        ("b1", "w2", "1"),
    ])
    labels = Labeling({"a1": "x", "a2": "x", "a3": "y", "b1": "x"})
    # w1 perfect (ari 1.0 over 3), w2 single instance but force ari 0 via
    # a two-instance word with a wrong split
    report = evaluate(ds, labels)
    assert report.per_word["w1"] == (1.0, 3)
    assert report.per_word["w2"] == (1.0, 1)

    ds2 = make_dataset([
        ("a1", "w1", "1"), ("a2", "w1", "1"), ("a3", "w1", "2"),
        ("b1", "w2", "1"), ("b2", "w2", "2"),
    ])
    labels2 = Labeling({"a1": "x", "a2": "x", "a3": "y",
                        "b1": "x", "b2": "x"})
    report2 = evaluate(ds2, labels2)
    assert report2.per_word["w2"][0] == 0.0
    # weighted = (1.0*3 + 0.0*2)/5, macro = (1.0 + 0.0)/2
    assert report2.aggregate_weighted == pytest.approx(0.6)
    assert report2.aggregate_macro == pytest.approx(0.5)


def test_spec_weighted_macro_example():
    ds = make_dataset([
        ("a1", "w1", "1"), ("a2", "w1", "1"), ("a3", "w1", "2"),
        ("b1", "w2", "1"), ("b2", "w2", "2"),
    ])
    # w1: ari 1.0 on 3 contexts; w2: ari 0.0 on 2 contexts
    labels = Labeling({"a1": "x", "a2": "x", "a3": "y", "b1": "z", "b2": "z"})
    report = evaluate(ds, labels)
    assert report.aggregate_weighted == pytest.approx((1.0 * 3 + 0.0 * 2) / 5)
    assert report.aggregate_macro == pytest.approx(0.5)


def test_instances_without_gold_are_excluded_and_counted():
    ds = make_dataset([("c1", "w", "1"), ("c2", "w", None), ("c3", "w", "2")])
    report = evaluate(ds, Labeling({"c1": "a", "c3": "b"}))
    assert report.n_excluded == 1
    assert report.per_word["w"][1] == 2


def test_no_gold_anywhere_errors():
    ds = make_dataset([("c1", "w", None)])
    with pytest.raises(ValueError, match="gold"):
        evaluate(ds, Labeling({"c1": "a"}))


def test_missing_prediction_errors():
    ds = make_dataset([("c1", "w", "1")])
    with pytest.raises(ValueError, match="c1"):
        evaluate(ds, Labeling({}))


def test_report_tsv_shape():
    ds = make_dataset([("c1", "w", "1"), ("c2", "w", "2")])
    report = evaluate(ds, Labeling({"c1": "a", "c2": "b"}))
    text = report.to_tsv()
    lines = text.strip().split("\n")
    assert lines[0] == "word\tn\tari"
    assert lines[-2].startswith("aggregate_weighted\t")
    assert lines[-1].startswith("aggregate_macro\t")


# --- confusion matrices ----------------------------------------------------

def test_confusion_basic():
    rows, cols, counts = confusion_matrix([1, 1, 2], ["a", "a", "b"])
    assert rows == [1, 2] and cols == ["a", "b"]
    np.testing.assert_array_equal(counts, [[2, 0], [0, 1]])


def test_confusion_single_predicted_column():
    rows, cols, counts = confusion_matrix([1, 2], ["a", "a"])
    assert cols == ["a"]
    np.testing.assert_array_equal(counts, [[1], [1]])


def test_confusion_row_sums_and_total():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 20))
        g = list(rng.integers(0, 4, size=n))
        p = list(rng.integers(0, 4, size=n))
        rows, _, counts = confusion_matrix(g, p)
        assert counts.sum() == n
        for lab, row in zip(rows, counts):
            assert row.sum() == g.count(lab)


def test_confusion_csv_headers():
    rows, cols, counts = confusion_matrix([1, 1, 2], ["a", "a", "b"])
    text = confusion_csv(rows, cols, counts)
    assert text.splitlines()[0] == "gold\\pred,a,b"
    assert text.splitlines()[1] == "1,2,0"
