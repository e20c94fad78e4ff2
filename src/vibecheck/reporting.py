"""Deterministic report writers: every file the toolkit writes is written here.

Text is written as UTF-8 and as given, through ``write_text``: no platform
translates a newline, so each line ends at ``\n`` and a trap item keeps its
origin's line endings.  A JSON string holding U+0085, U+2028 or U+2029 is
written raw; the readers end a line at ``\n`` only, so they read it back whole.

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


def write_text(path: Union[str, Path], text: str) -> None:
    """``text`` as UTF-8, its line endings as given."""
    Path(path).write_text(text, encoding="utf-8", newline="")


def write_json(path: Union[str, Path], record: dict) -> None:
    write_text(path, dumps_record(record, indent=2) + "\n")


def write_jsonl(path: Union[str, Path], records: Iterable[dict]) -> None:
    write_text(path, "".join(dumps_record(record) + "\n" for record in records))


# From this magnitude on, a float is written in exponent form, which keeps a
# cell such as ``vcp power --d 1e300``'s effect size to a dozen characters.
# No committed summary holds a float past 1,000.
_EXPONENT_FROM = 1e9


def _format_cell(value) -> str:
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        return f"{value:.4e}" if abs(value) >= _EXPONENT_FROM else f"{value:.4f}"
    return str(value)


def human_table(records: Sequence[dict], columns: Sequence[str]) -> str:
    """Aligned table of the given record fields, floats at four decimals (in
    exponent form from 1e9 on)."""
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
    write_text(path, "\n".join(lines) + "\n")
