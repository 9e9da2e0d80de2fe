"""File helpers for every stream the package reads or writes.

All line-oriented outputs go through dump_jsonl and every JSON document
through dump_json, so that a given record always serializes to the same
bytes (sorted keys, fixed whitespace, "\\n" line ends).

Every CSV input stream is read through read_csv and every JSONL input
through load_jsonl. Both raise DataError, naming the file, when it cannot
be read, lacks a column, or holds a malformed row or line.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import DataError


def dumps_record(record: dict[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)


def dump_jsonl(records: Iterable[dict[str, Any]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(dumps_record(record))
            fh.write("\n")


def dump_json(obj: Any, path: str | Path) -> None:
    """One indented JSON document with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}, line {lineno}: not JSON ({exc})") from exc
                yield record
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_csv(path: str | Path, stream: str, columns: Sequence[str],
             parse: Callable[[dict], Any]) -> list:
    """`parse` applied to each row of a CSV input stream, in file order.

    The header must hold every name in `columns`. A KeyError, TypeError,
    ValueError, AttributeError or OverflowError raised by `parse` is
    reported as a bad row; a DataError it raises passes through.
    """
    where = f"stream {stream!r} ({path})"
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
                raise DataError(f"{where}: expected columns {','.join(columns)}")
            parsed = []
            for row in reader:
                try:
                    parsed.append(parse(row))
                except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
                    raise DataError(f"{where}: bad row {row!r}") from exc
            return parsed
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{where}: {exc}") from exc
