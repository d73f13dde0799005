import struct

import numpy as np
import pytest

from senseclust.embeddings import (FrequencyTable, load_embeddings,
                                   load_frequency_table, norm_frequency_report,
                                   write_embeddings)
from senseclust.errors import DataError

import synthetic
from oracles import spearman_rank_correlation

TEXT_FIXTURE = "2 3\na 1 0 0\nb 0 1 0\n"


def write_text(tmp_path, content, name="emb.txt"):
    path = tmp_path / name
    path.write_text(content, encoding="utf-8")
    return path


def test_load_text(tmp_path):
    model = load_embeddings(write_text(tmp_path, TEXT_FIXTURE))
    assert model.dim == 3
    assert len(model) == 2
    np.testing.assert_array_equal(model.lookup("a"), [1, 0, 0])
    np.testing.assert_array_equal(model.lookup("b"), [0, 1, 0])


def test_count_mismatch(tmp_path):
    with pytest.raises(DataError, match="declares 3"):
        load_embeddings(write_text(tmp_path, "3 2\na 1 0\nb 0 1\n"))
    with pytest.raises(DataError, match="declares 1 entries but file has 2"):
        load_embeddings(write_text(tmp_path, "1 2\na 1 0\nb 0 1\n"))
    # a count no file of this size can hold is rejected before allocating
    with pytest.raises(DataError, match="declares 1000000000000"):
        load_embeddings(write_text(tmp_path, "1000000000000 300\na 1 0\n"))


def test_malformed_header(tmp_path):
    with pytest.raises(DataError, match="header"):
        load_embeddings(write_text(tmp_path, "banana\na 1\n"))


def test_wrong_vector_length(tmp_path):
    with pytest.raises(DataError, match="line 3"):
        load_embeddings(write_text(tmp_path, "2 3\na 1 0 0\nb 0 1\n"))
    # a whitespace-only line has no word and no components
    with pytest.raises(DataError, match="emb.txt: line 3: "):
        load_embeddings(write_text(tmp_path, "2 3\na 1 0 0\n \t \nb 0 1 0\n"))


def test_non_finite_rejected(tmp_path):
    with pytest.raises(DataError, match="non-finite"):
        load_embeddings(write_text(tmp_path, "1 2\na nan 0\n"))


def test_duplicates_last_wins(tmp_path):
    model = load_embeddings(write_text(tmp_path, "3 2\na 1 0\nA 2 0\nb 0 1\n"))
    assert model.n_duplicates == 1
    np.testing.assert_array_equal(model.lookup("a"), [2, 0])


def test_binary_matches_text(tmp_path):
    """Byte-writer oracle: hand-pack the binary layout of the text fixture."""
    blob = b"2 3\n"
    for word, vec in (("a", (1.0, 0.0, 0.0)), ("b", (0.0, 1.0, 0.0))):
        blob += word.encode() + b" " + struct.pack("<3f", *vec) + b"\n"
    path = tmp_path / "emb.bin"
    path.write_bytes(blob)
    binary = load_embeddings(path, fmt="binary")
    text = load_embeddings(write_text(tmp_path, TEXT_FIXTURE))
    assert binary.dim == text.dim
    assert set(binary.index) == set(text.index)
    for word in text.index:
        np.testing.assert_allclose(binary.lookup(word), text.lookup(word), atol=1e-6)


def test_binary_without_trailing_newlines(tmp_path):
    blob = b"2 2\n" + b"x " + struct.pack("<2f", 0.5, -0.5) \
        + b"y " + struct.pack("<2f", 1.5, 2.5)
    path = tmp_path / "emb.bin"
    path.write_bytes(blob)
    model = load_embeddings(path, fmt="binary")
    np.testing.assert_allclose(model.lookup("y"), [1.5, 2.5])


def test_binary_truncated(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(b"2 2\nx " + struct.pack("<2f", 1, 2))
    with pytest.raises(DataError, match="declares 2"):
        load_embeddings(path, fmt="binary")
    path.write_bytes(b"1000000000000 300\nx " + struct.pack("<2f", 1, 2))
    with pytest.raises(DataError, match="declares 1000000000000"):
        load_embeddings(path, fmt="binary")


def test_binary_non_finite(tmp_path):
    path = tmp_path / "emb.bin"
    path.write_bytes(b"1 2\nx " + struct.pack("<2f", float("inf"), 0.0))
    with pytest.raises(DataError, match="non-finite"):
        load_embeddings(path, fmt="binary")


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_write_read_round_trip(tmp_path, fmt):
    rng = np.random.default_rng(7)
    entries = {f"w{i}": rng.normal(scale=10.0, size=5).astype(np.float32)
               for i in range(40)}
    model = synthetic.model_from_entries(entries)
    path = tmp_path / f"rt.{fmt}"
    write_embeddings(model, path, fmt=fmt)
    back = load_embeddings(path, fmt=fmt)
    for word, vec in entries.items():
        np.testing.assert_array_equal(back.lookup(word), vec)


def test_lookup_normalization(tmp_path):
    model = load_embeddings(write_text(tmp_path, TEXT_FIXTURE))
    np.testing.assert_array_equal(model.lookup("A"), [1, 0, 0])
    assert model.lookup("zz") is None


def test_lookup_does_not_mutate(tmp_path):
    model = load_embeddings(write_text(tmp_path, TEXT_FIXTURE))
    before = model.vectors.copy()
    for _ in range(3):
        model.lookup("a")
        model.lookup("zz")
    np.testing.assert_array_equal(model.vectors, before)


def test_frequency_table_defaults():
    table = FrequencyTable({"a": 3})
    assert table.count("a") == 3
    assert table.count("absent") == 0
    with pytest.raises(ValueError):
        FrequencyTable({"a": -1})


def test_load_frequency_table(tmp_path):
    path = tmp_path / "freq.tsv"
    path.write_text("Word\t10\nдруг\t5\n", encoding="utf-8")
    table = load_frequency_table(path)
    assert table.count("word") == 10
    assert table.count("друг") == 5
    bad = tmp_path / "bad.tsv"
    bad.write_text("word\tmany\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_frequency_table(bad)
    bad.write_text("word\t1\n\t2\n", encoding="utf-8")
    with pytest.raises(DataError, match="bad.tsv: line 2: empty word"):
        load_frequency_table(bad)


def _synthetic_model(n_words=100, dim=6):
    """Norm of word i is ln(1 + freq(i)) with freq(i) = i."""
    rng = np.random.default_rng(3)
    entries = {}
    counts = {}
    for i in range(1, n_words + 1):
        direction = rng.normal(size=dim)
        direction /= np.linalg.norm(direction)
        entries[f"w{i:03d}"] = (np.log1p(i) * direction).astype(np.float32)
        counts[f"w{i:03d}"] = i
    return synthetic.model_from_entries(entries), FrequencyTable(counts)


def test_report_clamps_to_vocabulary():
    model, freqs = _synthetic_model()
    rows = norm_frequency_report(model, freqs, sample_size=10**6, seed=0)
    assert len(rows) == 100
    assert len({w for w, _, _ in rows}) == 100


def test_report_deterministic():
    model, freqs = _synthetic_model()
    a = norm_frequency_report(model, freqs, sample_size=30, seed=5)
    b = norm_frequency_report(model, freqs, sample_size=30, seed=5)
    assert a == b
    c = norm_frequency_report(model, freqs, sample_size=30, seed=6)
    assert {w for w, _, _ in a} != {w for w, _, _ in c}


def test_report_size_is_min():
    model, freqs = _synthetic_model()
    rows = norm_frequency_report(model, freqs, sample_size=17, seed=0)
    assert len(rows) == 17


def test_report_norm_tracks_frequency():
    model, freqs = _synthetic_model()
    rows = norm_frequency_report(model, freqs, sample_size=10**6, seed=0)
    rho = spearman_rank_correlation([f for _, f, _ in rows],
                                    [n for _, _, n in rows])
    assert rho > 0.99


def test_report_empty_intersection():
    model, _ = _synthetic_model()
    with pytest.raises(ValueError, match="overlap"):
        norm_frequency_report(model, FrequencyTable({"other": 1}))
