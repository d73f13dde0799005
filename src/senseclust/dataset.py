"""Context dataset TSV parsing and prediction output.

The dataset format is a UTF-8 TSV with header columns context_id, word,
gold_sense_id, predict_sense_id, positions, context. ``positions`` holds
comma-separated ``start-end`` character ranges locating the target word
inside ``context``; sense-id columns may be empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DataError, MissingLabel, line_message, read_lines, write_text
from .text import exclude_target, matches_target_form, normalize_token, strip_punct, tokenize

if TYPE_CHECKING:
    from .evaluate import Labeling

REQUIRED_COLUMNS = ("context_id", "word", "gold_sense_id", "predict_sense_id",
                    "positions", "context")


@dataclass
class ContextInstance:
    """One occurrence set of an ambiguous target word in a text fragment."""

    context_id: str
    target: str
    gold_sense: str | None
    target_spans: list[tuple[int, int]]
    raw_context: str
    predicted_sense: str | None = None

    @property
    def tokens(self) -> list[str]:
        """``raw_context`` tokenized anew on each read."""
        return tokenize(self.raw_context)

    @cached_property
    def kept(self) -> list[str]:
        """The tokens without the target's forms, computed on first read."""
        return exclude_target(self.tokens, self.target)


@dataclass
class Dataset:
    """Parsed instances plus the raw rows needed to re-emit the file."""

    instances: list[ContextInstance]
    by_target: dict[str, list[int]]
    header: list[str] = field(default_factory=lambda: list(REQUIRED_COLUMNS))
    raw_rows: list[list[str]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instances)


def _parse_positions(raw: str, context: str) -> list[tuple[int, int]]:
    spans = []
    for piece in raw.split(","):
        head, _, tail = piece.strip().partition("-")
        try:
            start, end = int(head), int(tail)
        except ValueError:
            raise ValueError(f"malformed positions {raw!r}") from None
        if start < 0 or end > len(context) or start >= end:
            raise ValueError(f"span {start}-{end} outside context bounds")
        spans.append((start, end))
    return spans


def parse_dataset(path: str | Path, report_to=None) -> Dataset:
    """Parse a dataset TSV; rows with suspicious spans are kept but flagged.

    The first non-empty line is the header; it must name each required
    column exactly once. Flag messages are collected on the returned
    Dataset's ``warnings``, and also written to ``report_to`` when it is
    given.
    """
    path = Path(path)
    instances: list[ContextInstance] = []
    by_target: dict[str, list[int]] = {}
    raw_rows: list[list[str]] = []
    flags: list[str] = []
    seen_ids: set[str] = set()
    with read_lines(path) as lines:
        rows = iter(lines)
        _, first = next(rows, (0, None))
        if first is None:
            raise DataError(f"{path}: empty file")
        header = first.split("\t")
        col = {name: i for i, name in enumerate(header)}
        for name in REQUIRED_COLUMNS:
            if name not in col:
                raise ValueError(f"missing column {name!r}")
            if header.count(name) > 1:  # else the last copy would win unseen
                raise ValueError(f"repeated column {name!r}")
        for lineno, line in rows:
            row = line.split("\t")
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, expected {len(header)}")
            context_id = row[col["context_id"]]
            if context_id in seen_ids:
                raise ValueError(f"duplicate context_id {context_id!r}")
            seen_ids.add(context_id)
            target = normalize_token(row[col["word"]])
            if not target:
                raise ValueError("empty word")
            context = row[col["context"]]
            spans = _parse_positions(row[col["positions"]], context)
            for start, end in spans:
                snippet = normalize_token(strip_punct(context[start:end]))
                if not matches_target_form(snippet, target):
                    flags.append(line_message(
                        path, lineno, f"span {start}-{end} text {snippet!r} "
                        f"does not look like a form of target {target!r}"))
            by_target.setdefault(target, []).append(len(instances))
            instances.append(ContextInstance(
                context_id=context_id, target=target,
                gold_sense=row[col["gold_sense_id"]] or None, target_spans=spans,
                raw_context=context, predicted_sense=row[col["predict_sense_id"]] or None))
            raw_rows.append(row)
    if report_to is not None:
        for msg in flags:
            print(msg, file=report_to)
    return Dataset(instances=instances, by_target=by_target, header=header,
                   raw_rows=raw_rows, warnings=flags)


def write_predictions(dataset: Dataset, labels: Labeling, out: str | Path) -> None:
    """Re-emit the dataset TSV with predict_sense_id filled from ``labels``,
    which covers every instance; row order and all other columns are kept."""
    assignments = labels.assignments
    for inst in dataset.instances:
        if inst.context_id not in assignments:
            raise MissingLabel(f"no label for context_id {inst.context_id!r}")
    pred_col = dataset.header.index("predict_sense_id")
    id_col = dataset.header.index("context_id")
    rows = ([*row[:pred_col], str(assignments[row[id_col]]), *row[pred_col + 1:]]
            for row in dataset.raw_rows)
    write_text(out, ("\t".join(row) + "\n" for row in chain([dataset.header], rows)))
