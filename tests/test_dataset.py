import re
import sys
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

import senseclust.dataset as dataset_module
import senseclust.text as text_module
from senseclust.dataset import parse_dataset, tokenize, write_predictions
from senseclust.errors import DataError
from senseclust.evaluate import Labeling
from senseclust.text import normalize_token, strip_punct

HEADER = "context_id\tword\tgold_sense_id\tpredict_sense_id\tpositions\tcontext"


def make_tsv(tmp_path, rows, header=HEADER, name="data.tsv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def test_parse_two_rows_one_target(tmp_path):
    path = make_tsv(tmp_path, [
        "c1\tбанк\t1\t\t0-4\tбанк выдал кредит",
        "c2\tбанк\t2\t\t10-14\tна берегу банк стоял",
    ])
    ds = parse_dataset(path)
    assert len(ds.instances) == 2
    assert list(ds.by_target) == ["банк"]
    assert ds.by_target["банк"] == [0, 1]


def test_positions_parsed(tmp_path):
    ctx = "x" * 54 + "банка" + " и прочее"
    path = make_tsv(tmp_path, [f"c1\tбанка\t\t\t54-59\t{ctx}"])
    ds = parse_dataset(path)
    assert ds.instances[0].target_spans == [(54, 59)]
    assert ds.instances[0].gold_sense is None


def test_multiple_positions(tmp_path):
    path = make_tsv(tmp_path, ["c1\tбанка\t1\t\t0-5,8-13\tбанка и банках нет"])
    ds = parse_dataset(path)
    assert ds.instances[0].target_spans == [(0, 5), (8, 13)]


def test_missing_field_names_row(tmp_path):
    path = make_tsv(tmp_path, ["c1\tбанк\t1\t\t0-4"])
    with pytest.raises(DataError, match="line 2"):
        parse_dataset(path)
    # an empty target would count every token as one of its forms
    path = make_tsv(tmp_path, ["c1\t\t1\t\t0-4\tбанк тут"], name="b.tsv")
    with pytest.raises(DataError, match="line 2: empty word"):
        parse_dataset(path)


def test_missing_column(tmp_path):
    path = make_tsv(tmp_path, ["c1\tбанк\t1\t0-4\tбанк тут"],
                    header="context_id\tword\tgold_sense_id\tpositions\tcontext")
    with pytest.raises(DataError, match="predict_sense_id"):
        parse_dataset(path)


def test_repeated_column_names_the_header_line(tmp_path):
    # A second, empty gold_sense_id column would silently drop the gold senses.
    path = make_tsv(tmp_path, ["c1\tбанк\t1\t\t0-4\tбанк тут\t"],
                    header=HEADER + "\tgold_sense_id")
    with pytest.raises(DataError,
                       match=re.escape(f"{path}: line 1: repeated column 'gold_sense_id'")):
        parse_dataset(path)


def test_duplicate_context_id(tmp_path):
    path = make_tsv(tmp_path, [
        "c1\tбанк\t1\t\t0-4\tбанк раз",
        "c1\tбанк\t1\t\t0-4\tбанк два",
    ])
    with pytest.raises(DataError, match="duplicate"):
        parse_dataset(path)


def test_malformed_positions(tmp_path):
    path = make_tsv(tmp_path, ["c1\tбанк\t1\t\tfoo\tбанк тут"])
    with pytest.raises(DataError, match="positions"):
        parse_dataset(path)
    path = make_tsv(tmp_path, ["c1\tбанк\t1\t\t0-400\tбанк тут"], name="b.tsv")
    with pytest.raises(DataError, match="bounds"):
        parse_dataset(path)


def test_span_mismatch_flagged_not_fatal(tmp_path, capsys):
    path = make_tsv(tmp_path, ["c1\tбанк\t1\t\t5-10\tбанк выдал кредит"])
    ds = parse_dataset(path)
    assert len(ds.instances) == 1
    assert len(ds.warnings) == 1
    assert "line 2" in ds.warnings[0]
    assert capsys.readouterr().err == ""  # the CLI prints ds.warnings


def test_tokenize_strips_punctuation():
    assert tokenize("Берег реки, крутой.") == ["берег", "реки", "крутой"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize(" ... — ") == []


def test_tokenize_keeps_inner_hyphen_and_digits():
    assert tokenize("3-литровая банка") == ["3-литровая", "банка"]
    assert tokenize("в 1990 году") == ["в", "1990", "году"]


def test_tokenize_quotes():
    assert tokenize("«банк» (रукой)") == ["банк", "रукой"]


@given(st.text(max_size=80))
def test_tokenize_properties(text):
    tokens = tokenize(text)
    for tok in tokens:
        assert tok == tok.lower()
        assert tok
        assert not tok[0].isspace() and not tok[-1].isspace()


# Letters, digits, punctuation, symbols, combining marks (NFC composes some
# of them) and whitespace.
CONTEXT_TEXT = st.text(st.one_of(
    st.characters(categories=("L", "N", "P", "M", "Zs", "S")),
    st.sampled_from(" \t\n-.,!?«»()'\"\u0301\u0308\u00a0банкБАНКё1")), max_size=80)


@given(CONTEXT_TEXT)
def test_tokenize_equals_strip_then_normalize(text):
    assert tokenize(text) == [t for w in text.split()
                              if (t := normalize_token(strip_punct(w)))]


def test_no_alphanumeric_character_is_punctuation():
    """tokenize skips strip_punct for a word with alphanumeric ends."""
    assert [hex(cp) for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")] == []


def test_parse_tokenizes_nothing_and_tokens_derive_from_raw_context(tmp_path,
                                                                   monkeypatch):
    path = make_tsv(tmp_path, ["c1\tбанк\t1\t\t1-5\t«Банк» выдал, кредит.",
                               "c2\tбанк\t\t\t4-9\tвот банки и Банкомат!"])

    def refuse(text):
        raise AssertionError("tokenize called")

    with monkeypatch.context() as patch:
        patch.setattr(text_module, "tokenize", refuse)
        patch.setattr(dataset_module, "tokenize", refuse)
        ds = parse_dataset(path)
    assert ds.warnings == []
    assert [inst.tokens for inst in ds.instances] == [
        tokenize(inst.raw_context) for inst in ds.instances]
    assert ds.instances[0].tokens == ["банк", "выдал", "кредит"]
    assert [inst.kept for inst in ds.instances] == [["выдал", "кредит"], ["вот", "и"]]


def test_write_predictions_round_trip(tmp_path):
    path = make_tsv(tmp_path, [
        "c1\tбанк\t1\t\t0-4\tбанк выдал кредит",
        "c2\tбанка\t\t\t0-5\tбанка с огурцами",
    ])
    ds = parse_dataset(path)
    out = tmp_path / "pred.tsv"
    write_predictions(ds, Labeling({"c1": "0", "c2": "1"}), out)
    text = out.read_text(encoding="utf-8")
    assert "c1\tбанк\t1\t0\t0-4\tбанк выдал кредит" in text
    back = parse_dataset(out)
    # An empty predict_sense_id reads as None, like an empty gold_sense_id.
    assert [inst.predicted_sense for inst in ds.instances] == [None, None]
    assert [inst.predicted_sense for inst in back.instances] == ["0", "1"]
    for orig, rt in zip(ds.raw_rows, back.raw_rows):
        for col, (a, b) in enumerate(zip(orig, rt)):
            if ds.header[col] != "predict_sense_id":
                assert a == b
    # second round trip is a fixed point including predictions
    out2 = tmp_path / "pred2.tsv"
    write_predictions(back, Labeling({"c1": "0", "c2": "1"}), out2)
    assert out2.read_text(encoding="utf-8") == text


def test_write_predictions_missing_label(tmp_path):
    path = make_tsv(tmp_path, [
        "c1\tбанк\t1\t\t0-4\tбанк выдал кредит",
        "c2\tбанк\t1\t\t0-4\tбанк на берегу",
    ])
    ds = parse_dataset(path)
    with pytest.raises(ValueError, match="c2"):
        write_predictions(ds, Labeling({"c1": "0"}), tmp_path / "x.tsv")
