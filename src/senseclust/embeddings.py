"""Word-embedding storage: word2vec file loading, lookup, norm diagnostics.

Vectors are kept exactly as read from disk -- deliberately *not* unit
normalized, since embedding length carries frequency information that the
downstream weighted averaging exploits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import AbstractSet

import numpy as np

from .errors import (DataError, line_message, read_blocks, read_lines, split_fields,
                     write_text)
from .text import normalize_token

FORMATS = ("text", "binary")
BLOCK_ROWS = 256  # entries per staged block: one np.loadtxt call or binary staging buffer


@dataclass
class EmbeddingModel:
    """Word vectors as one float32 ``(V, D)`` matrix plus a word -> row map.

    ``index`` is keyed by normalized word, and the last occurrence of a word
    (after normalization) wins. Without a vocabulary the loaders store one
    row per file entry, so a word that occurs twice leaves its earlier row
    unreferenced; ``n_duplicates`` counts those rows.
    """

    vectors: np.ndarray
    index: dict[str, int]

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or self.vectors.shape[1] <= 0:
            raise ValueError("embedding matrix must be (V, D) with D positive, "
                             f"got shape {self.vectors.shape}")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_duplicates(self) -> int:
        """Rows that the index leaves unreferenced. Under a vocabulary a
        repeated kept word overwrites its own row, so a loaded model has none."""
        return self.vectors.shape[0] - len(self.index)

    def __len__(self) -> int:
        return len(self.index)

    def lookup(self, token: str) -> np.ndarray | None:
        """Exact-match lookup after key normalization; None for OOV."""
        row = self.index.get(normalize_token(token))
        return None if row is None else self.vectors[row]


@dataclass
class FrequencyTable:
    """Word occurrence counts; absent words count as 0."""

    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for word, c in self.counts.items():
            self.check(word, c)

    @staticmethod
    def check(word: str, count: int) -> None:
        """Raise ValueError unless ``word`` is non-empty and ``count`` at least 0."""
        if not word:
            raise ValueError("empty word")
        if count < 0:
            raise ValueError(f"negative count for {word!r}: {count}")

    def count(self, word: str) -> int:
        return self.counts.get(word, 0)


def load_frequency_table(path: str | Path) -> FrequencyTable:
    """Read a two-column TSV ``word<TAB>count``; keys are normalized."""
    table = FrequencyTable()
    with read_lines(path) as lines:
        for _, line in lines:
            word, raw = split_fields(line, "word", "count")
            word, c = normalize_token(word), int(raw)
            table.check(word, c)
            table.counts[word] = c
    return table


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ValueError(f"unknown embedding format {fmt!r} (expected one of {FORMATS})")


def load_embeddings(path: str | Path, fmt: str = "text",
                    vocabulary: AbstractSet[str] | None = None) -> EmbeddingModel:
    """Load a word2vec-format embedding file.

    Both formats start with a header line ``"<n_words> <dim>"``. The text
    format then has one ``word v1 ... vD`` line per entry; the binary format
    has, per entry, a space-terminated word token followed by ``dim``
    little-endian float32 values (an optional trailing newline between
    entries is tolerated). Either is parsed ``BLOCK_ROWS`` entries at a time
    into one staged block (a binary file read ``errors.BLOCK_BYTES`` at a
    time) whose kept rows are copied into the matrix, so memory peaks near
    the matrix size, not twice the file size.

    Every entry is read and checked. With a ``vocabulary`` (a set of
    normalized words), only the rows of its words are kept, in a matrix of
    at most ``min(n_words, len(vocabulary))`` rows; a bad row outside it is
    still an error, with the same message.

    Raises DataError on a malformed header, wrong vector length, an entry
    count that disagrees with the header, or non-finite components.
    """
    _check_format(fmt)
    return (_load_text if fmt == "text" else _load_binary)(Path(path), vocabulary)


def _header(line: str, path: Path, file_bytes: int, component_bytes: int
            ) -> tuple[int, int]:
    """Parse the header line into ``(n_words, dim)``.

    Every entry takes at least a one-byte word, a separator and
    ``component_bytes`` per component, so a header that declares more
    entries than the file can hold is rejected before allocating.
    """
    try:
        n_words, dim = (int(part) for part in line.split())
    except ValueError:
        raise DataError(f"{path}: malformed header {line!r} "
                        "(expected '<count> <dim>')") from None
    if n_words <= 0 or dim <= 0:
        raise DataError(f"{path}: header counts must be positive, got {line!r}")
    if n_words * (2 + component_bytes * dim) > file_bytes:
        raise DataError(f"{path}: header declares {n_words} entries of dimension "
                        f"{dim}, more than {file_bytes} bytes can hold")
    return n_words, dim


class _Rows:
    """A loader's entries, added in file order a block at a time. Every row
    is checked finite (no float64 sum of finite float32 values overflows);
    ``model`` raises the first bad one after the loader's own checks. Without
    a vocabulary each entry has its own row; with one, each kept word has one
    row that a later occurrence overwrites, so ``min(n_words, len(vocabulary))``
    rows suffice."""

    def __init__(self, n_words: int, dim: int, vocabulary: AbstractSet[str] | None):
        self.vocabulary = vocabulary
        rows = n_words if vocabulary is None else min(n_words, len(vocabulary))
        self.vectors = np.empty((rows, dim), dtype="<f4")
        self.index: dict[str, int] = {}
        self.n = 0  # entries added
        self.bad = None  # (place, word) of the first non-finite entry

    def add(self, block: np.ndarray, words: list[str], places=None) -> None:
        """Add the next ``len(words)`` entries, whose rows are ``block``; an
        entry's place in a message is ``places[j]``, by default its number."""
        bad = np.flatnonzero(~np.isfinite(block.sum(axis=1, dtype=np.float64)))
        if bad.size and self.bad is None:
            j = bad[0]
            self.bad = (self.n + j if places is None else places[j], words[j])
        if self.vocabulary is None:
            rows = range(self.n, self.n + len(words))
            self.vectors[rows.start:rows.stop] = block
            self.index.update(zip(words, rows))
        else:
            keep = {}  # row -> the block's last entry for it
            for j, word in enumerate(words):
                if word in self.vocabulary:
                    keep[self.index.setdefault(word, len(self.index))] = j
            self.vectors[list(keep)] = block[list(keep.values())]
        self.n += len(words)

    def model(self, message) -> EmbeddingModel:
        """The kept rows; ``message(place, text)`` places a non-finite row."""
        if self.bad is not None:
            place, word = self.bad
            raise DataError(message(place, f"non-finite component for {word!r}"))
        used = self.n if self.vocabulary is None else len(self.index)
        return EmbeddingModel(self.vectors[:used], self.index)


def _count_error(path: Path, n_words: int, n_entries: int) -> DataError:
    return DataError(f"{path}: header declares {n_words} entries but file has {n_entries}")


def _load_text(path: Path, vocabulary: AbstractSet[str] | None) -> EmbeddingModel:
    with read_lines(path) as lines:
        rows = iter(lines)
        _, header = next(rows, (0, ""))
        n_words, dim = _header(header, path, path.stat().st_size, 2)
        kept = _Rows(n_words, dim, vocabulary)

        def block(size: int, words: list[str], linenos: list[int]):
            """The components of the next ``size`` lines, recording each word and
            line number. loadtxt parses each line as it pulls it, so a bad line
            fails while it is the line last read."""
            for lineno, line in islice(rows, size):
                parts = line.split(None, 1)
                if not parts:
                    raise ValueError("whitespace-only line")
                width = dim if words and len(parts) == 2 else len(line.split()) - 1
                if width != dim:  # a block's first row sets loadtxt's width
                    raise ValueError(f"vector has {width} components, expected {dim}")
                words.append(normalize_token(parts[0]))
                linenos.append(lineno)
                yield parts[1]
            if len(words) < size:  # before loadtxt sees a short or empty input
                raise _count_error(path, n_words, kept.n + len(words))

        while kept.n < n_words:
            words, linenos = [], []
            try:
                vectors = np.loadtxt(block(min(BLOCK_ROWS, n_words - kept.n), words, linenos),
                                     dtype=np.float32, comments=None, ndmin=2)
            except ValueError as exc:  # read_lines places it on the line last read
                text = re.sub(r" at row \d+, column (\d+)\.$", r" (component \1)", str(exc))
                raise ValueError(re.sub(r"^the number of columns changed from \d+ to (\d+) .*",
                                        rf"vector has \1 components, expected {dim}", text)
                                 ) from None
            kept.add(vectors, words, linenos)
        if extra := sum(1 for _ in rows):
            raise _count_error(path, n_words, n_words + extra)
    return kept.model(lambda lineno, text: line_message(path, lineno, text))


def _load_binary(path: Path, vocabulary: AbstractSet[str] | None) -> EmbeddingModel:
    blocks, data = read_blocks(path), bytearray()
    while (nl := data.find(b"\n")) < 0:
        if (block := next(blocks, None)) is None:
            raise DataError(f"{path}: missing header line")
        data += block
    n_words, dim = _header(data[:nl].decode("utf-8", errors="replace"), path,
                           path.stat().st_size, 4)
    kept = _Rows(n_words, dim, vocabulary)
    stage = np.empty((min(n_words, BLOCK_ROWS), dim), dtype="<f4")
    out, vec_bytes, pos = memoryview(stage).cast("B"), 4 * dim, nl + 1
    words: list[str] = []
    for i in range(n_words):  # blocks are appended until the entry is whole
        while (sp := data.find(b" ", pos)) < 0 or sp + 1 + vec_bytes > len(data):
            if (block := next(blocks, None)) is None:
                raise _count_error(path, n_words, i)
            del data[:pos]
            data += block
            pos = 0
        try:  # lstrip skips a newline run before an entry
            words.append(normalize_token(data[pos:sp].lstrip(b"\n").decode("utf-8")))
        except UnicodeDecodeError:
            raise DataError(f"{path}: entry {i}: undecodable word bytes") from None
        j, pos = len(words) - 1, sp + 1 + vec_bytes
        out[j * vec_bytes : (j + 1) * vec_bytes] = data[sp + 1 : pos]
        if len(words) == len(stage) or i == n_words - 1:
            kept.add(stage[:len(words)], words)
            words = []
    if data[pos:].strip(b"\n") or any(block.strip(b"\n") for block in blocks):
        raise DataError(f"{path}: trailing data after {n_words} declared entries")
    return kept.model(lambda i, text: f"{path}: entry {i}: {text}")


def write_embeddings(model: EmbeddingModel, path: str | Path, fmt: str = "text") -> None:
    """Write the model back out in word2vec text or binary format."""
    _check_format(fmt)
    path = Path(path)
    if fmt == "text":
        write_text(path, chain([f"{len(model)} {model.dim}\n"], (
            word + " " + " ".join(np.format_float_positional(v, unique=True, trim="0")
                                  for v in model.vectors[row]) + "\n"
            for word, row in model.index.items())))
    else:
        with open(path, "wb") as fh:
            fh.write(f"{len(model)} {model.dim}\n".encode("utf-8"))
            for word, row in model.index.items():
                fh.write(word.encode("utf-8") + b" ")
                fh.write(model.vectors[row].astype("<f4").tobytes())
                fh.write(b"\n")


def norm_frequency_report(
    model: EmbeddingModel,
    freqs: FrequencyTable,
    sample_size: int = 1000,
    seed: int = 0,
) -> list[tuple[str, int, float]]:
    """Sample words and report (word, frequency, L2 norm) rows.

    Samples min(sample_size, eligible) distinct words uniformly without
    replacement from the intersection of the model vocabulary and the
    frequency table, deterministically for a given seed. The report is the
    raw material for a norm-versus-frequency scatter diagnostic.
    """
    if sample_size <= 0:
        raise ValueError("sample_size must be positive")
    if not model.index:
        raise ValueError("embedding model is empty")
    eligible = sorted(set(model.index) & set(freqs.counts))
    if not eligible:
        raise ValueError("no overlap between model vocabulary and frequency table")
    k = min(sample_size, len(eligible))
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(eligible), size=k, replace=False)
    rows = []
    for idx in picked:
        word = eligible[int(idx)]
        norm = float(np.linalg.norm(model.vectors[model.index[word]].astype(np.float64)))
        rows.append((word, freqs.counts[word], norm))
    return rows


def norm_report_tsv(rows: list[tuple[str, int, float]]) -> str:
    """Render a norm_frequency_report as TSV with a header row."""
    lines = ["word\tfrequency\tnorm"]
    for word, freq, norm in rows:
        lines.append(f"{word}\t{freq}\t{norm!r}")
    return "\n".join(lines) + "\n"
