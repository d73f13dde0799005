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

import numpy as np

from .errors import (DataError, line_message, read_blocks, read_lines, split_fields,
                     write_text)
from .text import normalize_token

FORMATS = ("text", "binary")


@dataclass
class EmbeddingModel:
    """Word vectors as one float32 ``(V, D)`` matrix plus a word -> row map.

    ``index`` is keyed by normalized word. The loaders store one row per file
    entry, so a word that occurs twice (after normalization) leaves its
    earlier row unreferenced and the last occurrence wins; ``n_duplicates``
    counts those rows.
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


def load_embeddings(path: str | Path, fmt: str = "text") -> EmbeddingModel:
    """Load a word2vec-format embedding file.

    Both formats start with a header line ``"<n_words> <dim>"``. The text
    format then has one ``word v1 ... vD`` line per entry; the binary format
    has, per entry, a space-terminated word token followed by ``dim``
    little-endian float32 values (an optional trailing newline between
    entries is tolerated). A binary file is read in blocks straight into the
    matrix, so memory peaks near the matrix size, not twice the file size.

    Raises DataError on a malformed header, wrong vector length, an entry
    count that disagrees with the header, or non-finite components.
    """
    _check_format(fmt)
    return _model(*(_load_text if fmt == "text" else _load_binary)(Path(path)))


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


def _model(vectors: np.ndarray, words: list[str], message) -> EmbeddingModel:
    """The model of a loader's rows, checked finite: no float64 sum of finite
    float32 values overflows. ``message(i, text)`` places an error; last row wins."""
    bad = np.flatnonzero(~np.isfinite(vectors.sum(axis=1, dtype=np.float64)))
    if bad.size:
        raise DataError(message(bad[0], f"non-finite component for {words[bad[0]]!r}"))
    return EmbeddingModel(vectors, dict(zip(words, range(len(words)))))


def _load_text(path: Path) -> tuple:
    with read_lines(path) as lines:
        rows = iter(lines)
        _, header = next(rows, (0, ""))
        n_words, dim = _header(header, path, path.stat().st_size, 2)
        words, linenos = [], []

        def rests():
            for lineno, line in islice(rows, n_words):
                parts = line.split(None, 1)
                if not parts:
                    raise ValueError("whitespace-only line")
                width = dim if words and len(parts) == 2 else len(line.split()) - 1
                if width != dim:  # loadtxt skips an empty rest; row 1 sets its width
                    raise ValueError(f"vector has {width} components, expected {dim}")
                words.append(normalize_token(parts[0]))
                linenos.append(lineno)
                yield parts[1]
            n_rows = len(words) + sum(1 for _ in rows)
            if n_rows != n_words:
                raise DataError(f"{path}: header declares {n_words} entries "
                                f"but file has {n_rows}")

        try:
            vectors = np.loadtxt(rests(), dtype=np.float32, comments=None, ndmin=2)
        except ValueError as exc:  # loadtxt pulls lazily: read_lines adds the line
            text = re.sub(r" at row \d+, column (\d+)\.$", r" (component \1)", str(exc))
            changed = re.match(r"the number of columns changed from \d+ to (\d+)", text)
            raise ValueError(f"vector has {changed[1]} components, expected {dim}"
                             if changed else text) from None
    return vectors, words, lambda i, text: line_message(path, linenos[i], text)


def _load_binary(path: Path) -> tuple:
    blocks, data, pos = read_blocks(path), bytearray(), 0

    def find(sep: bytes, then: int = 0) -> int:
        """The next ``sep`` (one byte) from ``pos`` with ``then`` bytes after it,
        dropping ``data`` before ``pos`` and appending blocks; -1 at the end."""
        nonlocal pos
        hit = data.find(sep, pos)
        while hit < 0 or hit + 1 + then > len(data):
            start = (hit if hit >= 0 else len(data)) - pos
            del data[:pos]
            pos, block = 0, next(blocks, None)
            if block is None:
                return -1
            data.extend(block)
            hit = data.find(sep, start)
        return hit

    if (nl := find(b"\n")) < 0:
        raise DataError(f"{path}: missing header line")
    n_words, dim = _header(data[:nl].decode("utf-8", errors="replace"), path,
                           path.stat().st_size, 4)
    vectors = np.empty((n_words, dim), dtype="<f4")
    out, vec_bytes, pos = memoryview(vectors).cast("B"), 4 * dim, nl + 1
    words: list[str] = []
    for i in range(n_words):  # lstrip skips a newline run before an entry
        if (sp := find(b" ", vec_bytes)) < 0:
            raise DataError(f"{path}: header declares {n_words} entries but file has {i}")
        try:
            words.append(normalize_token(data[pos:sp].lstrip(b"\n").decode("utf-8")))
        except UnicodeDecodeError:
            raise DataError(f"{path}: entry {i}: undecodable word bytes") from None
        pos = sp + 1 + vec_bytes
        out[i * vec_bytes : (i + 1) * vec_bytes] = data[sp + 1 : pos]
    if data[pos:].strip(b"\n") or any(bytes(b).strip(b"\n") for b in blocks):
        raise DataError(f"{path}: trailing data after {n_words} declared entries")
    return vectors, words, lambda i, text: f"{path}: entry {i}: {text}"


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
