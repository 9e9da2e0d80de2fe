"""Every file format the package reads or writes.

Outputs go through dump_jsonl (records), dump_json (documents; both with
sorted keys, fixed whitespace, "\\n" line ends) and write_csv (the csv
default dialect, "\\r\\n" line ends), so a result always serializes to the
same bytes. Every JSONL record, whatever its kind, is one call of the one
JSON encoder (dumps_record): this module holds no record schema, and each
schema is written once, where its record is made. All three writers open
their path through _overwrite, the one place the package opens a file for
writing. Like open(path, "w") it follows a symlink and keeps the inode,
hard links and mode, but it does not truncate on open: it writes from
offset 0, then cuts a regular file to the bytes written, also when a
record raises. On ext4 with delayed allocation, the close of a non-empty
file truncated to zero starts writeback, and the next such rewrite of the
file waits on the disk. The writers let OSError through; the CLI exits 2
on it.

Inputs: CSV and JSONL data streams are read through read_csv and
load_jsonl, which raise DataError, naming the file, when it cannot be read,
lacks a column, or holds a malformed row or line. Config and model files
are read through load_json, which raises ConfigError when the file cannot
be opened or is not UTF-8 JSON. The bundled defaults live under DATA.

This module also owns the one rule that turns a malformed document or
argument into a ConfigError (exit 2): `config_errors`, around the code that
reads the document's objects, or checks a model's arguments. And the one
rule that reads a number, an int or a float and never a bool or a string:
`number`, `is_integer`, and `numeric_array` for an array argument: its
dtype, its number of dimensions and, if asked, its finiteness. And the
one rule that adds floats: `float_sum`, left to right from 0.0, which
builtin sum() is not from Python 3.12 on.
"""

from __future__ import annotations

import csv
import json
import os
import stat
from contextlib import contextmanager
from functools import reduce
from json.encoder import c_make_encoder, encode_basestring_ascii
from math import isfinite
from numbers import Integral, Real
from operator import add, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import ConfigError, DataError

DATA = Path(__file__).parent / "data"


_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
# The C encoder that _RECORD_ENCODER.encode builds anew for every call, built
# once. It keeps no circular-reference markers: they would outlive a record
# that raises, and flag the next record made at the same address.
_ITERENCODE = c_make_encoder and c_make_encoder(
    None, _RECORD_ENCODER.default, encode_basestring_ascii, None,
    _RECORD_ENCODER.key_separator, _RECORD_ENCODER.item_separator, True, False, False)
_SCAN_ONCE = json.JSONDecoder().scan_once


def dumps_record(record: dict[str, Any]) -> str:
    """One record as a JSON line: sorted keys, no spaces, NaN and infinity
    rejected (ValueError), a record that holds itself too (RecursionError)."""
    return "".join(_ITERENCODE(record, 0))


if _ITERENCODE is None:  # a Python without the json C accelerator
    dumps_record = _RECORD_ENCODER.encode  # noqa: F811


def _keep_contents(path, flags):
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextmanager
def _overwrite(path: str | Path, newline: str):
    """open(path, "w") without O_TRUNC: when the block ends, even by an
    exception, a regular file is cut to the bytes written so far."""
    with open(path, "w", encoding="utf-8", newline=newline, opener=_keep_contents) as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()


def dump_jsonl(records: Iterable[dict[str, Any]], path: str | Path) -> None:
    with _overwrite(path, "\n") as fh:
        for record in records:
            fh.write(dumps_record(record))
            fh.write("\n")


def dump_json(obj: Any, path: str | Path) -> None:
    """One indented JSON document with sorted keys and a final newline."""
    with _overwrite(path, "\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _overwrite(path, "") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def is_finite_number(value) -> bool:
    """True for a finite JSON number (booleans excluded)."""
    try:
        return not isinstance(value, bool) and isfinite(value)
    except (TypeError, OverflowError):
        return False


def number(value) -> float:
    """An int or a float (numpy's too) as a float; any other type is a TypeError."""
    if type(value) in (float, int) or isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"{value!r} is not a number")


def is_integer(value) -> bool:
    """True for an integer (a numpy one too) that is not a bool."""
    return type(value) is int or isinstance(value, Integral) and not isinstance(value, bool)


def float_sum(values) -> float:
    """The sum of `values`, added left to right from 0.0 by float addition.
    Builtin sum() compensates the rounding of float additions from Python
    3.12 on, so its bits depend on the Python version; this does not."""
    return reduce(add, values, 0.0)


def numeric_array(values, what: str, dtype: type = float, ndim: int | None = None,
                  finite: bool = False):
    """`values` as a numpy array of `dtype`, float or int, copied only when
    its own dtype differs. A DataError naming `what` refuses strings,
    objects, booleans, floats where `dtype` is int, any number of dimensions
    but `ndim` when given, and NaN or an infinity when `finite` is set."""
    import numpy as np  # here: loading this module loads no numpy

    try:
        array = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise DataError(f"{what}: {exc}") from exc
    if array.dtype.kind == "b" or array.size and not np.can_cast(array.dtype, dtype, "safe"):
        kind = "integers" if dtype is int else "numbers"
        raise DataError(f"{what} must be {kind}, got an array of {array.dtype}")
    if ndim is not None and array.ndim != ndim:
        shape = "a flat sequence (1-d)" if ndim == 1 else f"{ndim}-d"
        raise DataError(f"{what} must be {shape}, got {array.ndim}-d")
    array = array.astype(dtype, copy=False)
    if finite and not np.isfinite(array).all():
        raise DataError(f"{what} must be finite")
    return array


def load_json(path: str | Path, what: str) -> Any:
    """One JSON document; `what` names the file in the ConfigError message."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ConfigError(f"{what} {path}: {exc}") from exc


@contextmanager
def config_errors(what: str):
    """Inside the block, a KeyError becomes ConfigError("<what>: missing key
    'x'"), and a TypeError, ValueError, AttributeError, OverflowError or
    DataError becomes ConfigError("<what>: <message>"): a list where an
    object belongs, a number past the floats, an unhashable label. A
    ConfigError, itself a ValueError, passes through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"{what}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, OverflowError, DataError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def load_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record, end = _SCAN_ONCE(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = -1
                if end != len(line):
                    # not one JSON value; json.loads fails too, with the message
                    try:
                        record = json.loads(line)
                    except (ValueError, RecursionError) as exc:  # an int past the digit limit too
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
