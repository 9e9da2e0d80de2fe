"""Every file format the package reads or writes.

Outputs go through dump_jsonl (records), dump_json (documents; both with
sorted keys, fixed whitespace, "\\n" line ends) and write_csv (the csv
default dialect, "\\r\\n" line ends), so a result always serializes to the
same bytes. They let OSError through; the CLI exits 2 on it.

Inputs: CSV and JSONL data streams are read through read_csv and
load_jsonl, which raise DataError, naming the file, when it cannot be read,
lacks a column, or holds a malformed row or line. Config and model files
are read through load_json, which raises ConfigError when the file cannot
be opened or is not UTF-8 JSON. The bundled defaults live under DATA.
"""

from __future__ import annotations

import csv
import json
import math
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import ConfigError, DataError

DATA = Path(__file__).parent / "data"


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


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def is_finite_number(value) -> bool:
    """True for a finite JSON number (booleans excluded)."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def load_json(path: str | Path, what: str) -> Any:
    """One JSON document; `what` names the file in the ConfigError message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ConfigError(f"{what} {path}: {exc}") from exc


def load_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise DataError(f"{path}, line {lineno}: not JSON ({exc})") from exc
                yield record
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_csv(path: str | Path, stream: str, columns: Sequence[str],
             parse: Callable[..., Any]) -> list:
    """`parse(*values)` for each row of a CSV input stream, in file order.

    `values` are the row's fields named by `columns`, as strings, in the
    order of `columns`: a stream with columns ("t_s", "rr_ms") calls
    `parse(t_s, rr_ms)`. The header must hold every name in `columns`; a
    name repeated in the header reads its last column. Blank lines are
    skipped and fields past the header are ignored. A row too short to hold
    every column in `columns`, or one on which `parse` raises KeyError,
    TypeError, ValueError, AttributeError or OverflowError, is reported as
    a bad row, shown as csv.DictReader would give it; a DataError raised by
    `parse` passes through.
    """
    where = f"stream {stream!r} ({path})"
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or not set(columns) <= set(header):
                raise DataError(f"{where}: expected columns {','.join(columns)}")
            index = {name: i for i, name in enumerate(header)}  # the last one wins
            indices = [index[name] for name in columns]
            pick = itemgetter(*indices) if len(indices) > 1 else lambda row: (row[indices[0]],)
            parsed = []
            for row in reader:
                if not row:
                    continue
                try:
                    parsed.append(parse(*pick(row)))
                except (IndexError, KeyError, TypeError, ValueError, AttributeError,
                        OverflowError) as exc:
                    raise DataError(f"{where}: bad row {_as_dict(header, row)!r}") from exc
            return parsed
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{where}: {exc}") from exc


def _as_dict(header: list, row: list) -> dict:
    """The row as csv.DictReader gives it: the fields past the header under
    the key None, a missing field as None."""
    record = dict(zip(header, row))
    if len(row) > len(header):
        record[None] = row[len(header):]
    for name in header[len(row):]:
        record[name] = None
    return record
