"""Word-embedding storage: word2vec file loading, lookup, norm diagnostics.

Vectors are kept exactly as read from disk -- deliberately *not* unit
normalized, since embedding length carries frequency information that the
downstream weighted averaging exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, read_lines, split_fields
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
    entries is tolerated).

    Raises DataError on a malformed header, wrong vector length, an entry
    count that disagrees with the header, or non-finite components.
    """
    _check_format(fmt)
    return (_load_text if fmt == "text" else _load_binary)(Path(path))


def _allocate(line: str, path: Path, file_bytes: int, component_bytes: int
              ) -> np.ndarray:
    """Parse the header line and preallocate its ``(n_words, dim)`` matrix.

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
    return np.empty((n_words, dim), dtype=np.float32)


def _load_text(path: Path) -> EmbeddingModel:
    with read_lines(path) as lines:
        rows = iter(lines)
        _, header = next(rows, (0, ""))
        vectors = _allocate(header, path, path.stat().st_size, 2)
        n_words, dim = vectors.shape
        index: dict[str, int] = {}
        n_rows = 0
        for _, line in rows:
            if n_rows == n_words:
                n_rows += 1 + sum(1 for _ in rows)
                break
            parts = line.split()
            if not parts:
                raise ValueError("whitespace-only line")
            word = normalize_token(parts[0])
            if len(parts) - 1 != dim:
                raise ValueError(f"vector has {len(parts) - 1} components, "
                                 f"expected {dim}")
            vectors[n_rows] = parts[1:]
            if not np.isfinite(vectors[n_rows]).all():
                raise ValueError(f"non-finite component for {word!r}")
            index[word] = n_rows
            n_rows += 1
    if n_rows != n_words:
        raise DataError(f"{path}: header declares {n_words} entries but file has {n_rows}")
    return EmbeddingModel(vectors, index)


def _load_binary(path: Path) -> EmbeddingModel:
    buf = path.read_bytes()
    nl = buf.find(b"\n")
    if nl < 0:
        raise DataError(f"{path}: missing header line")
    vectors = _allocate(buf[:nl].decode("utf-8", errors="replace"), path, len(buf), 4)
    n_words, dim = vectors.shape
    pos = nl + 1
    vec_bytes = 4 * dim
    index: dict[str, int] = {}
    for i in range(n_words):
        while pos < len(buf) and buf[pos : pos + 1] == b"\n":
            pos += 1
        sp = buf.find(b" ", pos)
        if sp < 0:
            raise DataError(f"{path}: header declares {n_words} entries but file has {i}")
        try:
            word = normalize_token(buf[pos:sp].decode("utf-8"))
        except UnicodeDecodeError:
            raise DataError(f"{path}: entry {i}: undecodable word bytes") from None
        pos = sp + 1
        if pos + vec_bytes > len(buf):
            raise DataError(f"{path}: header declares {n_words} entries but file has {i}")
        vectors[i] = np.frombuffer(buf, dtype="<f4", count=dim, offset=pos)
        pos += vec_bytes
        if not np.isfinite(vectors[i]).all():
            raise DataError(f"{path}: entry {i} ({word!r}): non-finite component")
        index[word] = i
    if buf[pos:].strip(b"\n") != b"":
        raise DataError(f"{path}: trailing data after {n_words} declared entries")
    return EmbeddingModel(vectors, index)


def write_embeddings(model: EmbeddingModel, path: str | Path, fmt: str = "text") -> None:
    """Write the model back out in word2vec text or binary format."""
    _check_format(fmt)
    path = Path(path)
    if fmt == "text":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{len(model)} {model.dim}\n")
            for word, row in model.index.items():
                comps = " ".join(
                    np.format_float_positional(v, unique=True, trim="0")
                    for v in model.vectors[row]
                )
                fh.write(f"{word} {comps}\n")
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
