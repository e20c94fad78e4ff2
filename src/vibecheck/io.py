"""The input boundary: every file the toolkit reads is opened here.

Text is UTF-8; JSON refuses ``NaN``, ``Infinity``, numbers that overflow
to inf and nesting too deep to decode, and each JSON document or JSONL line
must be an object.  Failing to read, decode, parse, convert or check an input
raises a ``ValidationError`` naming the path (and line), so bad input ends in
exit code 1, never a traceback.
The field readers ``as_*(obj, key)`` never coerce: a bad value is refused as ``bad
value for 'k': expected ..., got ...``, an absent key as ``missing field 'k'``.
The record reader ``fields(obj, spec)`` reads a whole record from a table of
its keys, each with its field reader; a key the table does not name is refused
as ``unknown field 'k'; known fields: ...``, so a misspelt key is never dropped.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import sys
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Collection, Iterator, Optional, TypeVar, Union

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
    """``fn`` of the file's JSON object; a ``KeyError``, ``TypeError``,
    ``ValueError`` or ``ValidationError`` from ``fn`` names the path."""
    try:
        data = _loads(read_text(path, what))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValidationError(f"{path}: {what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: {what} must hold a JSON object")
    try:
        return fn(data)
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed {what}: {exc}") from exc


def read_jsonl(path: PathLike, row_fn: Callable[[dict], T], what: str) -> list[T]:
    """``row_fn`` of each JSON object line, blank lines skipped."""
    return [read_record(path, n, line, row_fn, what) for n, line in jsonl_lines(path)]


def jsonl_lines(path: PathLike) -> list[tuple[int, str]]:
    """Each line of the file that is not blank, with its 1-based number."""
    return [(n, line) for n, line in enumerate(read_text(path).splitlines(), 1) if line.strip()]


def read_record(path: PathLike, n: int, line: str, row_fn: Callable[[dict], T], what: str) -> T:
    """``row_fn`` of the JSON object on line ``n``.  A line that is not an object
    or nests too deep to decode, or a ``KeyError``, ``TypeError``, ``ValueError``
    or ``ValidationError`` from ``row_fn``, names ``path:n``."""
    try:
        record = _loads(line)
        if not isinstance(record, dict):
            raise TypeError("expected a JSON object")
        return row_fn(record)
    except (KeyError, TypeError, ValueError, RecursionError, ValidationError) as exc:
        raise ValidationError(f"{path}:{n}: bad {what}: {exc}") from exc


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


_MAX = sys.float_info.max
_MISSING: Any = object()


def _field(obj: Any, key: str, ok: Callable[[Any], bool], expected: str) -> Any:
    """``obj[key]`` if ``ok`` of it."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {obj!r}")
    if (value := obj.get(key, _MISSING)) is _MISSING:
        raise ValueError(f"missing field {key!r}")
    if not ok(value):
        raise TypeError(f"bad value for {key!r}: expected {expected}, got {value!r}")
    return value


def as_bool(obj: Any, key: str) -> bool:
    """A JSON boolean only: ``"false"``, 0 and null are not coerced."""
    return _field(obj, key, lambda v: isinstance(v, bool), "true or false")


def as_str(obj: Any, key: str) -> str:
    """A JSON string only: null and numbers are not coerced."""
    return _field(obj, key, lambda v: isinstance(v, str), "a string")


def as_list(obj: Any, key: str) -> list:
    """A JSON array only: a string is not split into characters."""
    return _field(obj, key, lambda v: isinstance(v, list), "an array")


def as_strings(obj: Any, key: str) -> tuple[str, ...]:
    """A JSON array of strings, as a tuple; each element is judged as ``as_str``."""
    return tuple(as_str({key: value}, key) for value in as_list(obj, key))


def as_int(obj: Any, key: str) -> int:
    """An integral number (``3`` or ``3.0``); fractions are refused, not truncated."""
    return int(_field(obj, key, lambda v: type(v) in (int, float) and v % 1 == 0, "an integer"))


def as_finite(obj: Any, key: str) -> float:
    """A number within the float range, as a float; booleans and strings are refused."""
    return float(_field(
        obj, key, lambda v: type(v) in (int, float) and abs(v) <= _MAX, "a finite number"
    ))


def fields(obj: Any, spec: dict[str, Callable], optional: Collection[str] = ()) -> dict:
    """Each key of ``spec`` read from ``obj`` by its field reader, in the table's
    order.  A key ``spec`` does not name is refused; a key in ``optional`` may be
    absent and is then left out, so the record's own default applies."""
    if not isinstance(obj, dict):
        raise TypeError(f"expected a JSON object, got {obj!r}")
    for key in obj:
        if key not in spec:
            raise ValueError(f"unknown field {key!r}; known fields: {', '.join(sorted(spec))}")
    return {k: read(obj, k) for k, read in spec.items() if k in obj or k not in optional}
