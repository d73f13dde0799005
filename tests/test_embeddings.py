import re
import struct
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from senseclust import embeddings, errors
from senseclust.embeddings import (EmbeddingModel, FrequencyTable, load_embeddings,
                                   load_frequency_table, norm_frequency_report,
                                   write_embeddings)
from senseclust.errors import DataError, read_lines
from senseclust.text import normalize_token

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


@pytest.mark.parametrize("content, message", [
    ("3 2\na 1 0\n\nb 0 1\nc 1 nan\n", "line 5: non-finite component for 'c'"),
    ("3 2\na 1 0\nb 0 1\nC -inf 0\n", "line 4: non-finite component for 'c'"),
    ("2 3\na 1 0\nb 0 1 0\n", "line 2: vector has 2 components, expected 3"),
    ("3 3\na 1 0 0\nb 0 1\nc 0 0 1\n", "line 3: vector has 2 components, expected 3"),
    ("2 3\na 1 0 0\n\nb 0 1 0 1\n", "line 4: vector has 4 components, expected 3"),
    ("2 3\na\nbcd 0 1 0\n", "line 2: vector has 0 components, expected 3"),
    ("2 3\na 1 0 0\nb \t\n", "line 3: vector has 0 components, expected 3"),
    ("2 2\na 1 0\nb 1 x\n", "line 3: could not convert string 'x' to float32 (component 2)"),
    # components are ASCII decimal numbers as numpy parses them
    ("1 2\na 1_0 1\n", "line 2: could not convert string '1_0' to float32 (component 1)"),
    ("1 2\na 1 \uff11\n", "line 2: could not convert string '\uff11' to float32 (component 2)"),
])
def test_text_errors_name_their_line(tmp_path, content, message):
    path = write_text(tmp_path, content)
    for vocabulary in vocabularies(content, int(re.match(r"line (\d+)", message)[1])):
        with pytest.raises(DataError, match=re.escape(f"emb.txt: {message}") + "$"):
            load_embeddings(path, vocabulary=vocabulary)


def vocabularies(content, lineno):
    """Every row kept (None), none kept, and every word kept but line ``lineno``'s:
    a bad row is an error whether or not its word is kept."""
    lines = content.splitlines()[1:]
    others = {normalize_token(line.split()[0]) for n, line in enumerate(lines, start=2)
              if n != lineno and line.split()}
    return None, set(), others


def numbered_rows(n_words, bad_entry, bad_line):
    """A dim-2 text file of ``n_words`` entries, entry ``bad_entry`` replaced by
    ``bad_line``; returns the content and that entry's line number."""
    rows = [f"w{i} {i} 0.5" for i in range(n_words)]
    rows[bad_entry] = bad_line
    return f"{n_words} 2\n" + "\n".join(rows) + "\n", bad_entry + 2


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("bad_line, message", [
    ("x 1 y", "could not convert string 'y' to float32 (component 2)"),
    ("x 1", "vector has 1 components, expected 2"),
    ("x 1 0 1", "vector has 3 components, expected 2"),
    ("x 1 inf", "non-finite component for 'x'"),
    (" \t ", "whitespace-only line"),
])
def test_text_errors_in_later_blocks_name_their_line(tmp_path, monkeypatch, block,
                                                     bad_line, message):
    monkeypatch.setattr(embeddings, "BLOCK_ROWS", block)
    for bad_entry in range(7):  # first, middle and last rows of a block
        content, lineno = numbered_rows(7, bad_entry, bad_line)
        path = write_text(tmp_path, content)
        for vocabulary in vocabularies(content, lineno):
            with pytest.raises(DataError) as info:
                load_embeddings(path, vocabulary=vocabulary)
            assert str(info.value) == f"{path}: line {lineno}: {message}"


@pytest.mark.parametrize("block", [1, 2, 256])
def test_text_errors_keep_their_order(tmp_path, monkeypatch, block):
    monkeypatch.setattr(embeddings, "BLOCK_ROWS", block)
    for content, message in (
            # an earlier bad number beats a later wrong width or bad byte
            (b"4 2\na 1 0\nb 1 x\nc 1\nd 0 0\n",
             "line 3: could not convert string 'x' to float32 (component 2)"),
            (b"3 2\na 1 0\nb 1 x\nc\xff 0 0\n",
             "line 3: could not convert string 'x' to float32 (component 2)"),
            # a non-finite row, kept or dropped, is raised after every other check
            (b"3 2\na nan 0\nb 1 0\nc 1\n", "line 4: vector has 1 components, expected 2"),
            (b"2 2\na nan 0\nb 1 0\nc 1 1\n", "header declares 2 entries but file has 3")):
        path = tmp_path / "emb.txt"
        path.write_bytes(content)
        for vocabulary in (None, set(), {"b"}):
            with pytest.raises(DataError) as info:
                load_embeddings(path, vocabulary=vocabulary)
            assert str(info.value) == f"{path}: {message}"


def test_lone_cr_among_components_is_an_error(tmp_path):
    with pytest.raises(DataError, match=re.escape("emb.txt: line 3: ")):
        load_embeddings(write_text(tmp_path, "2 2\na 1 0\nb 1\r0\n"))


def test_header_only_file_warns_nothing(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=re.escape(
                "emb.txt: header declares 1 entries but file has 0")):
            load_embeddings(write_text(tmp_path, "1 1\n\n"))


FOUR_ROWS = "a 1.5 0.25\nb 0.25 1.5\nc 1.5 1.5\nd 0.25 0.25\n"  # two blocks of two


@pytest.mark.parametrize("content, message", [
    ("1 1\n", "header declares 1 entries but file has 0"),
    # the third block of two has no line, so loadtxt must not be called on it
    ("5 2\n" + FOUR_ROWS, "header declares 5 entries but file has 4"),
    # a final block of one line
    ("5 2\n" + FOUR_ROWS + "e 1\n", "line 6: vector has 1 components, expected 2"),
    ("5 2\n" + FOUR_ROWS + "e 1 y\n",
     "line 6: could not convert string 'y' to float32 (component 2)"),
    ("4 2\n" + FOUR_ROWS + "e 1.5 0.25\nf 0 1\n", "header declares 4 entries but file has 6"),
])
def test_text_errors_at_block_boundaries(tmp_path, monkeypatch, content, message):
    monkeypatch.setattr(embeddings, "BLOCK_ROWS", 2)
    path = write_text(tmp_path, content)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as info:
            load_embeddings(path)
    assert str(info.value) == f"{path}: {message}"


TEXT_DEFECTS = ["number", "narrow", "wide", "blank", "utf8", "non-finite", "missing",
                "extra"]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), defect=st.sampled_from(TEXT_DEFECTS + [None]))
def test_text_errors_do_not_depend_on_blocks_or_vocabulary(data, dim, defect):
    """One defect at a drawn line gives one message, whatever the block size
    and whichever words are kept; a clean file gives one model. Components of
    three characters or more keep a short file above the header's size check."""
    n_words = data.draw(st.integers(1 + (defect == "missing"), 8), label="n_words")
    values = st.sampled_from(["0.0", "1.5", "-2.", ".25", "3e-1"])
    entries = [[f"w{i}".encode()] + [data.draw(values).encode() for _ in range(dim)]
               for i in range(n_words)]
    at = data.draw(st.integers(0, n_words - 1), label="at")
    word = f"w{at}"
    component = data.draw(st.integers(1, dim), label="component")
    if defect == "number":
        entries[at][component] = b"x"
    elif defect == "narrow":
        del entries[at][component]
    elif defect == "wide":
        entries[at].append(b"1")
    elif defect == "blank":  # as long as the entry it replaces, for the size check
        entries[at] = [b" \t" * (dim + 1)]
    elif defect == "utf8":
        entries[at][0] += b"\xff"
    elif defect == "non-finite":
        entries[at][component] = data.draw(st.sampled_from([b"nan", b"inf", b"-inf"]))
    elif defect == "missing":
        del entries[at]
    elif defect == "extra":
        word = "extra"
        entries.insert(at, [b"extra"] + [b"1"] * dim)
    blanks = data.draw(st.lists(st.booleans(), min_size=len(entries), max_size=len(entries)))
    lines, linenos = [f"{n_words} {dim}".encode()], []
    for entry, blank in zip(entries, blanks):
        lines += [b""] * blank + [b" ".join(entry)]
        linenos.append(len(lines))
    lineno = linenos[at] if defect not in (None, "missing", "extra") else None
    expected = {
        "number": f"line {lineno}: could not convert string 'x' to float32 "
                  f"(component {component})",
        "narrow": f"line {lineno}: vector has {dim - 1} components, expected {dim}",
        "wide": f"line {lineno}: vector has {dim + 1} components, expected {dim}",
        "blank": f"line {lineno}: whitespace-only line",
        "utf8": f"line {lineno}: not valid UTF-8",
        "non-finite": f"line {lineno}: non-finite component for '{word}'",
        "missing": f"header declares {n_words} entries but file has {n_words - 1}",
        "extra": f"header declares {n_words} entries but file has {n_words + 1}",
    }.get(defect)
    others = {f"w{i}" for i in range(n_words)} - {word}
    messages, models = set(), []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "emb.txt"
        path.write_bytes(b"\n".join(lines) + b"\n")
        for block in (1, 2, 3, 256):
            mp.setattr(embeddings, "BLOCK_ROWS", block)
            if defect is None:
                models.append(load_embeddings(path))
                continue
            for vocabulary in (None, set(), others):
                with pytest.raises(DataError) as info:
                    load_embeddings(path, vocabulary=vocabulary)
                messages.add(str(info.value))
    if defect is None:
        assert {model.vectors.tobytes() for model in models} == {models[0].vectors.tobytes()}
        assert all(model.index == models[0].index for model in models)
        assert len(models[0]) == n_words
    else:
        assert messages == {f"{path}: {expected}"}


def reference_text_load(path):
    """The per-line text loader that the numeric pass replaced, for valid
    files: each line's strings are assigned into its float32 row."""
    with read_lines(path) as lines:
        rows = iter(lines)
        _, header = next(rows)
        n_words, dim = (int(part) for part in header.split())
        vectors = np.empty((n_words, dim), dtype=np.float32)
        index = {}
        for i, (_, line) in enumerate(rows):
            parts = line.split()
            vectors[i] = parts[1:]
            index[normalize_token(parts[0])] = i
    return vectors, index


NUMBER_FORMS = [
    lambda v: str(np.float32(v)),  # shortest float32 repr
    lambda v: repr(float(v)),
    lambda v: "%.4f" % v,
    lambda v: "%e" % v,
    lambda v: "%+g" % v,  # a leading '+'
    lambda v: re.sub(r"^(-?)0\.", r"\1.", "%.3f" % v),  # '.5'
    lambda v: "%.0f." % v,  # '5.'
]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_words=st.integers(1, 12), dim=st.integers(1, 6))
def test_text_loader_matches_per_line_reference(data, n_words, dim):
    values = data.draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                                min_size=n_words * dim, max_size=n_words * dim))
    gap = st.text(" \t", min_size=1, max_size=3)
    lines = [f"{n_words} {dim}"]
    for i in range(n_words):
        word = data.draw(st.text("abAБбё", min_size=1, max_size=3))
        comps = [data.draw(st.sampled_from(NUMBER_FORMS))(v)
                 for v in values[i * dim:(i + 1) * dim]]
        lines.append(word + "".join(data.draw(gap) + c for c in comps)
                     + data.draw(st.sampled_from(["", " ", "\t"])))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.txt"
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        vectors, index = reference_text_load(path)
        model = load_embeddings(path)
    assert model.vectors.dtype == np.float32
    assert np.array_equal(model.vectors, vectors)
    assert model.vectors.tobytes() == vectors.tobytes()
    assert model.index == index


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n_words=st.integers(1, 12), dim=st.integers(1, 6))
def test_binary_round_trip_is_bitwise(data, n_words, dim):
    values = data.draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                                min_size=n_words * dim, max_size=n_words * dim))
    model = EmbeddingModel(np.array(values, dtype=np.float32).reshape(n_words, dim),
                           {f"w{i}": i for i in range(n_words)})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emb.bin"
        write_embeddings(model, path, fmt="binary")
        back = load_embeddings(path, fmt="binary")
    assert back.vectors.tobytes() == model.vectors.tobytes()
    assert back.index == model.index


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
    blob = b"4 2\n" + b"".join(word + b" " + struct.pack("<2f", 1.0, value) + b"\n"
                                for word, value in ((b"w", 0.0), (b"x", 1.0), (b"Y", -np.inf),
                                                    (b"z", np.nan)))
    path.write_bytes(blob)
    for vocabulary in (None, set(), {"w", "x", "z"}):
        with pytest.raises(DataError, match=re.escape(
                "emb.bin: entry 2: non-finite component for 'y'") + "$"):
            load_embeddings(path, fmt="binary", vocabulary=vocabulary)
    # a dropped non-finite entry is raised after every other check
    path.write_bytes(blob[:-3])
    for vocabulary in (None, set(), {"w", "x", "z"}):
        with pytest.raises(DataError, match=re.escape(
                "emb.bin: header declares 4 entries but file has 3") + "$"):
            load_embeddings(path, fmt="binary", vocabulary=vocabulary)


VEC = struct.pack("<2f", 1.0, 2.0)
BINARY_ERRORS = [  # (file, its message after "<path>: ")
    pytest.param(b"2 2", "missing header line", id="no-header"),
    pytest.param(b"2 2\nx " + VEC + b"\ny " + VEC[:-1],
                 "header declares 2 entries but file has 1", id="short-vector"),
    pytest.param(b"2 2\nx " + VEC + b"\n\nyyyyyyyy",
                 "header declares 2 entries but file has 1", id="no-space"),
    pytest.param(b"2 2\nx " + VEC + b"\n\xd0\xb1\xff " + VEC,
                 "entry 1: undecodable word bytes", id="undecodable"),
    pytest.param(b"1 2\nx " + VEC + b"\n\n\nz\n",
                 "trailing data after 1 declared entries", id="trailing"),
]


def assert_binary_error(tmp_path, blob, message):
    path = tmp_path / "emb.bin"
    path.write_bytes(blob)
    for vocabulary in (None, set(), {"x"}):  # "x" is the one good entry's word
        with pytest.raises(DataError) as info:
            load_embeddings(path, fmt="binary", vocabulary=vocabulary)
        assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("blob, message", BINARY_ERRORS)
def test_binary_errors_are_exact(tmp_path, blob, message):
    assert_binary_error(tmp_path, blob, message)


@pytest.mark.parametrize("block", [1, 2, 3, 5])
@pytest.mark.parametrize("blob, message", BINARY_ERRORS)
def test_binary_errors_across_block_boundaries(tmp_path, monkeypatch, blob, message, block):
    monkeypatch.setattr(errors, "BLOCK_BYTES", block)
    assert_binary_error(tmp_path, blob, message)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 4))
def test_blocked_binary_read_equals_one_block_read(data, dim):
    """Words of 1- to 4-byte UTF-8 characters and newline runs between
    entries fall across block boundaries."""
    words = data.draw(st.lists(st.text("aбж€😀\n", min_size=1, max_size=4)
                               .filter(lambda w: w.strip("\n")), min_size=1, max_size=8))
    newlines = st.integers(0, 3).map(lambda n: b"\n" * n)
    blob = f"{len(words)} {dim}\n".encode() + data.draw(newlines)
    for word in words:
        values = data.draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                                    min_size=dim, max_size=dim))
        blob += (word.lstrip("\n").encode() + b" " + struct.pack(f"<{dim}f", *values)
                 + data.draw(newlines))
    block = data.draw(st.sampled_from([1, 3, 4 * dim - 1, 4 * dim + 1]), label="block")
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "emb.bin"
        path.write_bytes(blob)
        mp.setattr(errors, "BLOCK_BYTES", len(blob))
        whole = load_embeddings(path, fmt="binary")
        mp.setattr(errors, "BLOCK_BYTES", block)
        blocked = load_embeddings(path, fmt="binary")
    assert blocked.vectors.tobytes() == whole.vectors.tobytes()
    assert blocked.index == whole.index


def entry_file(path, fmt, words, vectors):
    """A text or binary file of one entry per word, duplicates included."""
    header = f"{len(words)} {vectors.shape[1]}\n".encode()
    if fmt == "text":
        path.write_bytes(header + "".join(
            word + "".join(f" {float(v)!r}" for v in vec) + "\n"
            for word, vec in zip(words, vectors)).encode())
    else:
        path.write_bytes(header + b"".join(word.encode() + b" " + vec.astype("<f4").tobytes()
                                           for word, vec in zip(words, vectors)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["text", "binary"]),
       block=st.sampled_from([1, 2, 3]), dim=st.integers(1, 3))
def test_pruned_load_keeps_the_full_rows(data, fmt, block, dim):
    """A vocabulary keeps the full model's rows of its words, however words
    repeat (as written or after normalization) and rows fall into blocks."""
    words = data.draw(st.lists(st.sampled_from(["a", "A", "b", "c", "d", "é", "É"]),
                               min_size=1, max_size=9))
    vocabulary = data.draw(st.sets(st.sampled_from(["a", "b", "c", "é", "zz"])))
    vectors = np.array(data.draw(st.lists(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        min_size=len(words) * dim, max_size=len(words) * dim)),
        dtype=np.float32).reshape(len(words), dim)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "emb"
        entry_file(path, fmt, words, vectors)
        mp.setattr(embeddings, "BLOCK_ROWS", block)
        full = load_embeddings(path, fmt)
        pruned = load_embeddings(path, fmt, vocabulary=vocabulary)
    assert list(pruned.index) == [word for word in full.index if word in vocabulary]
    for word, row in pruned.index.items():
        assert pruned.vectors[row].tobytes() == full.vectors[full.index[word]].tobytes()
        last = max(i for i, w in enumerate(words) if normalize_token(w) == word)
        assert pruned.vectors[row].tobytes() == vectors[last].tobytes()
    assert len(pruned.vectors) == len(pruned.index) <= min(len(words), len(vocabulary))
    assert pruned.n_duplicates == 0
    assert full.n_duplicates == len(words) - len(full.index)


def load_peak(path, fmt, vocabulary=None):
    """The model of a second load and that load's tracemalloc peak.

    A first load, kept alive, interns every word of the file. Interning them
    inside the trace could resize CPython's process-wide table of interned
    strings, or not, depending on how many strings earlier tests interned;
    the traced load finds them interned and peaks at the loader's own
    buffers alone.
    """
    first = load_embeddings(path, fmt)
    tracemalloc.start()
    try:
        model = load_embeddings(path, fmt, vocabulary=vocabulary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(first) == 10_000
    return model, peak


def big_file(tmp_path, fmt):
    """A 10,000 x 200 model file and the nbytes of its whole matrix."""
    n_words, dim = 10_000, 200
    vectors = np.random.default_rng(0).standard_normal((n_words, dim), dtype=np.float32)
    path = tmp_path / f"emb.{fmt}"
    if fmt == "binary":
        write_embeddings(EmbeddingModel(vectors, {f"w{i}": i for i in range(n_words)}), path,
                         fmt="binary")
    else:  # six decimals, written faster than by write_embeddings
        path.write_text(f"{n_words} {dim}\n" + "".join(
            f"w{i} " + " ".join(np.char.mod("%.6f", row)) + "\n"
            for i, row in enumerate(vectors)), encoding="utf-8")
    return path, vectors.nbytes


@pytest.mark.parametrize("fmt", ["text", "binary"])
def test_pruned_load_peaks_below_half_the_matrix(tmp_path, fmt):
    """Every row is read, but only the vocabulary's 10% are held."""
    path, nbytes = big_file(tmp_path, fmt)
    vocabulary = {f"w{i}" for i in range(0, 10_000, 10)}
    model, peak = load_peak(path, fmt, vocabulary)
    assert len(model) == 1_000
    assert peak < 0.5 * nbytes


def test_binary_load_peaks_near_the_matrix(tmp_path):
    """The file is read in blocks into the matrix, not whole beside it."""
    path, _ = big_file(tmp_path, "binary")
    assert path.stat().st_size > 8_000_000
    model, peak = load_peak(path, "binary")
    assert peak < 1.3 * model.vectors.nbytes


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
