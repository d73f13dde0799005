"""Fuzz every file parser: any input either parses or raises DataError.

Inputs are random edits of a valid file with fragments that carry the
formats' own structure (tabs, newlines, header keys, numbers, non-finite
spellings, combining marks), plus free text. Text inputs are encoded as
UTF-8 and written as bytes, so no newline translation happens on the way
in. Every parser is also fed raw bytes: its valid file with byte splices
(invalid UTF-8, a cp1251 word, CR and CRLF among them), and free bytes.
"""

import io
import re
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from senseclust.dataset import parse_dataset
from senseclust.embeddings import load_embeddings, load_frequency_table
from senseclust.errors import DataError
from senseclust.mt_label import read_translations
from senseclust.search import parse_space_file
from senseclust.weighting import read_chi2_tsv, read_idf_tsv

FRAGMENTS = ["\n", "\t", " ", "\r", " \t ", "\n\t", "\t\n", " \n", "\n ", "\r\n",
             "#", "=", "-", ",", ".", "..", "0", "1", "2",
             "-1", "1.5", "1e40", "nan", "inf", "-inf", "auto", "word", "банк",
             "е́", "n_docs", "single_target=true", "power_grid", "k_grid",
             "linkages", "metrics", "damping_grid", "preference_grid",
             "algorithms", "ward", "cosine", "affinity_propagation", "0-4",
             "99999999999", "\x00", "\u00a0", "\u2028"]

VALID = {
    "embeddings": "3 2\nбанк 0.5 -1\nword 1e-3 2\nБанк 1 1\n",
    "dataset": ("context_id\tword\tgold_sense_id\tpredict_sense_id\tpositions\tcontext\n"
                "c1\tбанк\t1\t\t0-4\tбанк выдал кредит\n"
                "c2\tбанк\t2\t\t6-11,13-17\tберег банка, банки\n"),
    "idf": "# n_docs=10\nбанк\t3\nword\t10\n",
    "chi2": "# single_target=true\nбанк\tберег\t1.25\nбанк\tword\t0.0\n",
    "freqs": "банк\t12\nword\t0\n",
    "translations": "c1\tbank, banks\nc2\tshore\n",
    "space": ("power_grid = 0, 1.5\nk_grid = 1..3, 10\nlinkages = ward, average\n"
              "metrics = euclidean\ndamping_grid = 0.5\npreference_grid = auto, -2\n"
              "algorithms = agglomerative  # comment\n"),
}

PARSERS = {
    "embeddings": lambda path: load_embeddings(path, fmt="text"),
    "dataset": lambda path: parse_dataset(path, report_to=io.StringIO()),
    "idf": read_idf_tsv,
    "chi2": read_chi2_tsv,
    "freqs": load_frequency_table,
    "translations": read_translations,
    "space": parse_space_file,
}

pieces = st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=4))
fragment = st.lists(pieces, max_size=12).map("".join)
short = st.one_of(st.lists(pieces, max_size=3).map("".join),
                  st.text(" \t\r\x0b\x0c\u00a0", min_size=1, max_size=3))


@st.composite
def mutated(draw, valid):
    """``valid`` with up to four edits: a fragment replaces up to eight
    characters, a short fragment is inserted as a line of its own, or a
    field between separators is replaced."""
    text = valid
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("splice", "line", "field")))
        if kind == "field":
            fields = re.split(r"([\t\n ,=])", text)
            i = draw(st.integers(0, len(fields) - 1))
            fields[i] = draw(short)
            text = "".join(fields)
            continue
        start = draw(st.integers(0, len(text)))
        if kind == "line":
            start = end = text.rfind("\n", 0, start) + 1
            insert = draw(short) + "\n"
        else:
            end = draw(st.integers(start, min(len(text), start + 8)))
            insert = draw(fragment)
        text = text[:start] + insert + text[end:]
    return text


def parses_or_data_error(parse, data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        try:
            parse(path)
        except DataError:
            pass


@pytest.mark.parametrize("kind", sorted(PARSERS))
def test_valid_fixture_parses(kind, tmp_path):
    path = tmp_path / kind
    path.write_text(VALID[kind], encoding="utf-8")
    PARSERS[kind](path)


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_text_parser_fuzz(kind, data):
    text = data.draw(st.one_of(mutated(VALID[kind]), fragment), label="input")
    parses_or_data_error(PARSERS[kind], text.encode("utf-8"))


def binary_embeddings() -> bytes:
    blob = b"2 3\n"
    for word, vec in (("банк", (0.5, -1.0, 2.0)), ("w", (1.0, 0.0, 3.5))):
        blob += word.encode("utf-8") + b" " + struct.pack("<3f", *vec) + b"\n"
    return blob


BYTE_FRAGMENTS = [b" ", b"\n", b"\t", b"\r", b"\r\n", b"\xff", b"\xd0", b"\xed\xa0\x80",
                  b"0 ", "банк".encode("cp1251"), struct.pack("<f", float("nan"))]


@st.composite
def mutated_bytes(draw, valid):
    blob = valid
    for _ in range(draw(st.integers(0, 4))):
        start = draw(st.integers(0, len(blob)))
        end = draw(st.integers(start, min(len(blob), start + 8)))
        insert = draw(st.one_of(st.binary(max_size=6), st.sampled_from(BYTE_FRAGMENTS)))
        blob = blob[:start] + insert + blob[end:]
    return blob


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(PARSERS))
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_text_parser_byte_fuzz(kind, data):
    valid = VALID[kind].encode("utf-8")
    blob = data.draw(st.one_of(mutated_bytes(valid), st.binary(max_size=40)), label="input")
    parses_or_data_error(PARSERS[kind], blob)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(mutated_bytes(binary_embeddings()), st.binary(max_size=40)))
def test_binary_embeddings_fuzz(blob):
    parses_or_data_error(lambda path: load_embeddings(path, fmt="binary"), blob)
