"""Deterministic report writers.

Machine reports are JSON (sorted keys, full float precision); human
summaries are aligned text tables whose numbers are the machine values
rounded to four decimals.  Identical inputs, configuration, and seeds
produce byte-identical files.  A report holding nan or inf is refused with
a ``ComputationError`` before anything is written, since JSON has no
literal for either.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from vibecheck.errors import ComputationError


def dumps_record(record: dict, indent: Optional[int] = None) -> str:
    try:
        return json.dumps(
            record, indent=indent, sort_keys=True, ensure_ascii=False, allow_nan=False
        )
    except ValueError as exc:
        raise ComputationError(f"report holds a non-finite number: {exc}") from exc


def write_json(path: Union[str, Path], record: dict) -> None:
    Path(path).write_text(dumps_record(record, indent=2) + "\n")


def write_jsonl(path: Union[str, Path], records: Iterable[dict]) -> None:
    Path(path).write_text("".join(dumps_record(record) + "\n" for record in records))


def _format_cell(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def human_table(records: Sequence[dict], columns: Sequence[str]) -> str:
    """Aligned table of the given record fields, floats at four decimals."""
    rows = [[_format_cell(rec.get(col)) for col in columns] for rec in records]
    widths = [
        max(len(col), *(len(row[i]) for row in rows)) if rows else len(col)
        for i, col in enumerate(columns)
    ]
    lines = [
        "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(columns))).rstrip(),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def write_columns(
    path: Union[str, Path], columns: Sequence[str], rows: Iterable[Sequence]
) -> None:
    """Plot-ready tab-separated column file with a header row."""
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")
