"""Context dataset TSV parsing and prediction output.

The dataset format is a UTF-8 TSV with header columns context_id, word,
gold_sense_id, predict_sense_id, positions, context. ``positions`` holds
comma-separated ``start-end`` character ranges locating the target word
inside ``context``; sense-id columns may be empty.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import DataError, line_message, read_lines
from .text import matches_target_form, normalize_token, strip_punct, tokenize

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
    tokens: list[str]


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

    The first non-empty line is the header. Flag messages go to
    ``report_to`` (default: standard error) and are also collected on the
    returned Dataset.
    """
    path = Path(path)
    stream = sys.stderr if report_to is None else report_to
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
            gold = row[col["gold_sense_id"]] or None
            for start, end in spans:
                snippet = normalize_token(strip_punct(context[start:end]))
                if not matches_target_form(snippet, target):
                    flags.append(line_message(
                        path, lineno, f"span {start}-{end} text {snippet!r} "
                        f"does not look like a form of target {target!r}"))
            inst = ContextInstance(
                context_id=context_id,
                target=target,
                gold_sense=gold,
                target_spans=spans,
                raw_context=context,
                tokens=tokenize(context),
            )
            by_target.setdefault(target, []).append(len(instances))
            instances.append(inst)
            raw_rows.append(row)
    for msg in flags:
        print(msg, file=stream)
    return Dataset(instances=instances, by_target=by_target, header=header,
                   raw_rows=raw_rows, warnings=flags)


def write_predictions(dataset: Dataset, labels, out: str | Path) -> None:
    """Re-emit the dataset TSV with predict_sense_id filled from ``labels``.

    ``labels`` is a Labeling or a plain context_id -> label mapping covering
    every instance; row order and all other columns are preserved.
    """
    assignments: Mapping[str, str] = getattr(labels, "assignments", labels)
    for inst in dataset.instances:
        if inst.context_id not in assignments:
            raise ValueError(f"no label for context_id {inst.context_id!r}")
    pred_col = dataset.header.index("predict_sense_id")
    id_col = dataset.header.index("context_id")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\t".join(dataset.header) + "\n")
        for row in dataset.raw_rows:
            out_row = list(row)
            out_row[pred_col] = str(assignments[row[id_col]])
            fh.write("\t".join(out_row) + "\n")
