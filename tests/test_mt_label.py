import unicodedata
from pathlib import Path

import pytest

from senseclust.errors import DataError
from senseclust.mt_label import (STEMMER_ALGORITHMS, Stemmer, TranslationRecord,
                                 label_by_translation, normalize_translation,
                                 read_translations)
from senseclust.porter import porter_stem

DATA = Path(__file__).parent / "data"

# Step-by-step cases from the classic algorithm description.
CLASSIC_CASES = {
    "caresses": "caress", "ponies": "poni", "ties": "ti", "caress": "caress",
    "cats": "cat", "feed": "feed", "agreed": "agre", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing", "conflated": "conflat",
    "troubled": "troubl", "sized": "size", "hopping": "hop", "tanned": "tan",
    "falling": "fall", "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file", "happy": "happi", "sky": "sky", "relational": "relat",
    "conditional": "condit", "rational": "ration", "valenci": "valenc",
    "digitizer": "digit", "conformabli": "conform", "radicalli": "radic",
    "differentli": "differ", "vileli": "vile", "analogousli": "analog",
    "vietnamization": "vietnam", "predication": "predic", "operator": "oper",
    "feudalism": "feudal", "decisiveness": "decis", "hopefulness": "hope",
    "callousness": "callous", "formaliti": "formal", "sensitiviti": "sensit",
    "sensibiliti": "sensibl", "triplicate": "triplic", "formative": "form",
    "formalize": "formal", "electriciti": "electr", "electrical": "electr",
    "hopeful": "hope", "goodness": "good", "revival": "reviv",
    "allowance": "allow", "inference": "infer", "airliner": "airlin",
    "gyroscopic": "gyroscop", "adjustable": "adjust", "defensible": "defens",
    "irritant": "irrit", "replacement": "replac", "adjustment": "adjust",
    "dependent": "depend", "adoption": "adopt", "communism": "commun",
    "activate": "activ", "angulariti": "angular", "homologi": "homolog",
    "effective": "effect", "bowdlerize": "bowdler", "probate": "probat",
    "rate": "rate", "cease": "ceas", "controll": "control", "roll": "roll",
    "banks": "bank", "jar": "jar",
}


@pytest.mark.parametrize("word,expected", sorted(CLASSIC_CASES.items()))
def test_classic_cases(word, expected):
    assert porter_stem(word) == expected


def test_short_and_non_ascii_pass_through():
    assert porter_stem("is") == "is"
    assert porter_stem("a") == "a"
    assert porter_stem("банк") == "банк"
    assert porter_stem("") == ""


def test_reference_fixture_sample():
    vocab = (DATA / "porter_vocabulary.txt").read_text().splitlines()
    stems = (DATA / "porter_stems.txt").read_text().splitlines()
    assert len(vocab) == len(stems)
    sample = list(zip(vocab, stems))[::50]
    bad = [(w, porter_stem(w), s) for w, s in sample if porter_stem(w) != s]
    assert not bad


def test_porter_deterministic_but_not_universally_idempotent():
    # the classic rules re-stem some of their own outputs; this is reference
    # behavior (see tests/data/porter_divergences.txt), so only determinism
    # and the known counterexample are pinned here
    assert porter_stem("abuse") == "abus"
    assert porter_stem("abus") == "abu"
    assert porter_stem("decision") == "decis"
    assert porter_stem("decis") == "deci"
    for w in ("jar", "bank", "caress", "hope"):
        assert porter_stem(w) == w  # fixed points stay fixed
        assert porter_stem(porter_stem(w)) == porter_stem(w)


def test_identity_stemmer_idempotent():
    s = Stemmer("identity")
    for w in ("banks", "Bank", "jar"):
        assert s.stem(s.stem(w)) == s.stem(w)


def test_stemmer_validation():
    with pytest.raises(ValueError):
        Stemmer("snowball")


# --- labeling --------------------------------------------------------------

def rec(cid, *translations):
    return TranslationRecord(context_id=cid, translations=list(translations))


def test_grouping_rule():
    labeling = label_by_translation(
        [rec("c1", "jar"), rec("c2", "jar"), rec("c3", "bank")],
        Stemmer("identity"))
    assert labeling.assignments == {"c1": "jar", "c2": "jar", "c3": "bank"}
    assert len(set(labeling.assignments.values())) == 2


def test_porter_merges_inflections():
    labeling = label_by_translation(
        [rec("c1", "banks"), rec("c2", "bank")], Stemmer("porter"))
    assert labeling.assignments["c1"] == labeling.assignments["c2"] == "bank"


def test_tie_breaks_lexicographically():
    labeling = label_by_translation([rec("c1", "jar", "bank")],
                                    Stemmer("identity"))
    assert labeling.assignments["c1"] == "bank"


def test_majority_wins():
    labeling = label_by_translation(
        [rec("c1", "jar", "bank", "jar")], Stemmer("identity"))
    assert labeling.assignments["c1"] == "jar"


def test_lowercased_before_grouping():
    labeling = label_by_translation(
        [rec("c1", "Bank"), rec("c2", "bank")], Stemmer("identity"))
    assert labeling.assignments["c1"] == labeling.assignments["c2"] == "bank"


@pytest.mark.parametrize("algorithm", STEMMER_ALGORITHMS)
def test_nfc_and_nfd_translations_share_a_label(algorithm):
    nfc = "café banks"
    nfd = unicodedata.normalize("NFD", nfc)
    assert nfd != nfc
    labeling = label_by_translation([rec("c1", nfc), rec("c2", nfd)], Stemmer(algorithm))
    assert labeling.assignments["c1"] == labeling.assignments["c2"]
    assert unicodedata.is_normalized("NFC", labeling.assignments["c1"])


def test_empty_translations_error():
    with pytest.raises(ValueError, match="c1"):
        label_by_translation([TranslationRecord("c1", [])], Stemmer("identity"))


def test_multiword_stemmed_tokenwise():
    s = Stemmer("porter")
    assert normalize_translation("Savings Banks", s) == "save bank"
    # spacing, including doubled spaces, survives verbatim
    assert normalize_translation("glass  jars", s) == "glass  jar"


def test_identity_single_occurrence_iff_equal():
    records = [rec("c1", "Jar"), rec("c2", "jar"), rec("c3", "jars"),
               rec("c4", "bank")]
    labeling = label_by_translation(records, Stemmer("identity"))
    a = labeling.assignments
    assert a["c1"] == a["c2"]          # equal after lowercasing
    assert a["c2"] != a["c3"]          # identity keeps inflection apart
    assert a["c3"] != a["c4"]


def test_porter_coarsens_identity_partition_single_occurrence():
    words = ["bank", "banks", "banking", "jar", "jars", "run", "running",
             "runs", "care", "caring", "cares"]
    records = [rec(f"c{i}", w) for i, w in enumerate(words)]
    ident = label_by_translation(records, Stemmer("identity")).assignments
    port = label_by_translation(records, Stemmer("porter")).assignments
    # every identity cluster maps into exactly one porter cluster
    mapping = {}
    for cid in ident:
        key = ident[cid]
        assert mapping.setdefault(key, port[cid]) == port[cid]


def test_labeling_total_and_deterministic():
    records = [rec(f"c{i}", w) for i, w in
               enumerate(["bank", "banks", "jar", "jars", "banking"])]
    a = label_by_translation(records, Stemmer("porter")).assignments
    b = label_by_translation(records, Stemmer("porter")).assignments
    assert a == b
    assert set(a) == {f"c{i}" for i in range(5)}


def test_read_translations(tmp_path):
    path = tmp_path / "tr.tsv"
    path.write_text("c1\tjar\nc2\tjar, bank\n", encoding="utf-8")
    records = read_translations(path)
    assert records[0].translations == ["jar"]
    assert records[1].translations == ["jar", "bank"]
    bad = tmp_path / "bad.tsv"
    bad.write_text("c1\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_translations(bad)
    empty = tmp_path / "empty.tsv"
    empty.write_text("c1\t ,\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_translations(empty)
    repeated = tmp_path / "repeated.tsv"
    repeated.write_text("c1\tjar\nc2\tbank\n\nc1\tbank\n", encoding="utf-8")
    with pytest.raises(DataError, match="repeated.tsv: line 4: duplicate context_id 'c1'"):
        read_translations(repeated)
