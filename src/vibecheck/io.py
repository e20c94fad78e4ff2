"""The input boundary: every file the toolkit reads is opened here.

Text is UTF-8; JSON refuses ``NaN``, ``Infinity`` and numbers that overflow
to inf, and each JSON document or JSONL line must be an object.  Failing to
read, decode, parse or convert an input raises a ``ValidationError`` naming
the path (and line), so bad input ends in exit code 1, never a traceback.
The scalar helpers convert JSON values without coercion.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, TypeVar, Union

from vibecheck.errors import ValidationError

PathLike = Union[str, Path]
T = TypeVar("T")


@contextlib.contextmanager
def _opened(
    path: PathLike, what: str = "file", newline: Optional[str] = None, encoding: str = "utf-8"
):
    """The file as UTF-8 text; open and decode failures name the path."""
    try:
        with open(path, encoding=encoding, newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: {what} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc


def read_text(path: PathLike, what: str = "file") -> str:
    with _opened(path, what) as fh:
        return fh.read()


def _refuse_constant(name: str) -> Any:
    raise ValueError(f"{name} is not a JSON number")


def _finite_literal(text: str) -> float:
    value = float(text)
    if math.isinf(value):
        raise ValueError(f"number {text} is out of range")
    return value


_loads = json.JSONDecoder(parse_constant=_refuse_constant, parse_float=_finite_literal).decode


def read_json(path: PathLike, fn: Callable[[dict], T], what: str) -> T:
    """``fn`` of the file's JSON object; a ``KeyError``, ``TypeError`` or
    ``ValueError`` from ``fn`` names the path, toolkit errors pass through."""
    try:
        data = _loads(read_text(path, what))
    except ValueError as exc:
        raise ValidationError(f"{path}: {what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: {what} must hold a JSON object")
    try:
        return fn(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed {what}: {exc}") from exc


def read_jsonl(path: PathLike, row_fn: Callable[[dict], T], what: str) -> list[T]:
    """``row_fn`` of each JSON object line, blank lines skipped.  A line that
    is not an object, or a ``KeyError``, ``TypeError`` or ``ValueError`` from
    ``row_fn``, names ``path:line``; toolkit errors pass through."""
    rows = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = _loads(line)
            if not isinstance(record, dict):
                raise TypeError("expected a JSON object")
            rows.append(row_fn(record))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"{path}:{lineno}: bad {what}: {exc}") from exc
    return rows


def csv_rows(
    path: PathLike, columns: tuple[str, ...], cast: Optional[Callable[[str], Any]] = None
) -> Iterator[tuple]:
    """One tuple of the named cells, as strings or ``cast`` of each cell, per
    data row of a headed CSV file, read as the file streams.

    A leading UTF-8 byte-order mark is not part of the first header name.
    Blank rows are skipped; a repeated header name means its last column.  A
    missing column, a short row, a bad cell, a malformed file and a file
    without data rows raise ``ValidationError`` naming ``path`` (and line).
    """
    with _opened(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            index = {name: i for i, name in enumerate(header)}
            if any(c not in index for c in columns):
                raise ValidationError(
                    f"{path}: expected CSV columns {', '.join(columns)}; got "
                    f"{', '.join(header) or 'none'}"
                )
            rows = filter(None, reader)
            first = next(rows, None)
            if first is None:
                raise ValidationError(f"{path}: no data rows")
            rows = itertools.chain((first,), rows)
            if cast is None:
                get = itemgetter(*(index[c] for c in columns))
                # One index makes ``itemgetter`` return the cell, not a 1-tuple.
                pick = get if len(columns) > 1 else lambda row: (get(row),)
                yield from map(pick, rows)
            else:
                targets = [(c, index[c]) for c in columns]
                for row in rows:
                    cells = []
                    try:
                        for c, i in targets:
                            cells.append(cast(row[i]))
                    except (TypeError, ValueError) as exc:
                        raise ValidationError(
                            f"{path}:{reader.line_num}: bad {c!r} value: {exc}"
                        ) from exc
                    yield tuple(cells)
        except IndexError:
            raise ValidationError(
                f"{path}:{reader.line_num}: expected {len(header)} fields"
            ) from None
        except csv.Error as exc:
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc


def read_csv(
    path: PathLike, columns: tuple[str, ...], cast: Optional[Callable[[str], Any]] = None
) -> dict[str, list]:
    """The named columns of ``csv_rows(path, columns, cast)``, one list each."""
    return dict(zip(columns, map(list, zip(*csv_rows(path, columns, cast)))))


def as_bool(value: Any) -> bool:
    """A JSON boolean only: ``"false"``, 0 and null are not coerced."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def as_str(value: Any) -> str:
    """A JSON string only: null and numbers are not coerced."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def as_list(value: Any) -> list:
    """A JSON array only: a string is not split into characters."""
    if not isinstance(value, list):
        raise TypeError(f"expected an array, got {value!r}")
    return value


def as_int(value: Any) -> int:
    """An integral number (``3`` or ``3.0``); booleans, strings and fractions
    are refused rather than truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def as_finite(value: Any) -> float:
    """A finite number as a float; booleans and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError("number is out of range") from None
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not finite")
    return number
