"""Shared exception types, the one reader of text input files (``read_lines``)
and of binary ones (``read_blocks``), the one writer of text output files
(``write_text``), and the one form of a message about an input line
(``line_message``)."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

BLOCK_BYTES = 1 << 16  # the size of each block that read_blocks yields


class DataError(Exception):
    """Malformed or inconsistent input data (files, tables, records)."""


class MissingLabel(ValueError):
    """A labeling lacks a context that it must label."""


def line_message(path: str | Path, lineno: int, message: object) -> str:
    return f"{path}: line {lineno}: {message}"


class read_lines:
    """The non-empty lines of a UTF-8 text file, as ``(lineno, line)`` pairs.

    Lines are numbered from 1 and lose their ``\\n`` or ``\\r\\n`` ending; a
    lone ``\\r`` is not a line break. One byte-order mark (U+FEFF) at the
    start of line 1 is dropped; anywhere else it is data. The file is
    streamed in binary and decoded a line at a time, so memory stays flat
    and a byte sequence that is not UTF-8 is reported on its own line.

    Used as a context manager around the loop, it reports a ValueError
    raised inside -- a syntax error found by a reader or a value rule of a
    table type -- as a DataError about the line last yielded. That costs
    nothing per line, unlike a ``with`` block entered for each line.
    """

    def __init__(self, path: str | Path):
        self.path, self.lineno = path, 0

    def __iter__(self) -> Iterator[tuple[int, str]]:
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise DataError(line_message(self.path, lineno,
                                                 "not valid UTF-8")) from None
                if lineno == 1:
                    line = line.removeprefix("\ufeff")
                line = line.removesuffix("\n").removesuffix("\r")
                if line:
                    self.lineno = lineno
                    yield lineno, line

    def __enter__(self) -> read_lines:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if isinstance(exc, ValueError):
            raise DataError(line_message(self.path, self.lineno, exc)) from None


def read_blocks(path: str | Path) -> Iterator[bytes]:
    """The bytes of a binary file, in plain ``bytes`` blocks of ``BLOCK_BYTES``."""
    with open(path, "rb", buffering=0) as fh:
        while block := fh.read(BLOCK_BYTES):
            yield block


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order to a UTF-8 text file with ``\\n`` line ends."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def split_fields(line: str, *names: str) -> list[str]:
    """The tab-separated fields of ``line``, which must be one per name."""
    fields = line.split("\t")
    if len(fields) != len(names):
        raise ValueError("expected '" + "<TAB>".join(names) + "'")
    return fields
