"""Every file format the package reads or writes.

Outputs go through dump_jsonl (records), dump_json (documents; both with
sorted keys, fixed whitespace, "\\n" line ends) and write_csv (the csv
default dialect, "\\r\\n" line ends), so a result always serializes to the
same bytes. All three open their path through _overwrite, the one place
the package opens a file for writing. Like open(path, "w") it follows a
symlink and keeps the inode, hard links and mode, but it does not truncate
on open: it writes from offset 0, then cuts a regular file to the bytes
written, also when a record raises. On ext4 with delayed allocation, the
close of a non-empty file truncated to zero starts writeback, and the next
such rewrite of the file waits on the disk. The writers let OSError
through; the CLI exits 2 on it.

Inputs: CSV and JSONL data streams are read through read_csv and
load_jsonl, which raise DataError, naming the file, when it cannot be read,
lacks a column, or holds a malformed row or line. Config and model files
are read through load_json, which raises ConfigError when the file cannot
be opened or is not UTF-8 JSON. The bundled defaults live under DATA.
"""

from __future__ import annotations

import csv
import json
import os
import stat
from contextlib import contextmanager
from math import isfinite
from numbers import Integral
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import ConfigError, DataError

DATA = Path(__file__).parent / "data"


_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)
_SCAN_ONCE = json.JSONDecoder().scan_once

# Two record shapes are written once per second: the closed-loop tick
# record and the fused state of mwl.jsonl. Each has a %-template that writes
# the bytes _RECORD_ENCODER writes, used only when the record holds exactly
# the schema's keys and every slot holds a value whose encoding the template
# knows: an exact, finite float (written as float.__repr__, as json does), an
# exact int (never a bool), None or a bool where the schema allows it, and an
# ASCII identifier as the behaviour label, which needs no escaping. Anything
# else, an np.float64 included, goes through _RECORD_ENCODER.
_TICK_SLOTS = itemgetter(
    "behaviour", "cps", "entropy", "hrv_sdnn_ms", "hrv_warmup", "latent", "level", "n1",
    "n2", "nps", "perf", "posterior", "pupil_z", "record", "t", "td",
)
_TICK = ('{"behaviour":"%s","cps":%d,"entropy":%r,"hrv_sdnn_ms":%s,"hrv_warmup":%s,'
         '"latent":%r,"level":%d,"n1":%d,"n2":%d,"nps":%d,"perf":%r,'
         '"posterior":[%r,%r,%r,%r,%r],"pupil_z":%r,"record":"tick","t":%d,"td":%s}')
_STATE_SLOTS = itemgetter("level", "posterior", "t")
_STATE = '{"level":%d,"posterior":[%r,%r,%r,%r,%r],"t":%d}'


def _five_finite_floats(values) -> bool:
    if type(values) is not list or len(values) != 5:
        return False
    a, b, c, d, e = values
    return (type(a) is float and type(b) is float and type(c) is float
            and type(d) is float and type(e) is float
            and isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d) and isfinite(e))


def _tick_line(record: dict) -> str | None:
    try:
        (behaviour, cps, entropy, hrv, warmup, latent, level, n1, n2, nps, perf, post,
         pupil_z, kind, t, td) = _TICK_SLOTS(record)
    except KeyError:
        return None
    if (type(kind) is str and kind == "tick"
            and type(behaviour) is str and behaviour.isascii() and behaviour.isidentifier()
            and type(cps) is int and type(level) is int and type(n1) is int
            and type(n2) is int and type(nps) is int and type(t) is int
            and (td is None or type(td) is int)
            and (warmup is True or warmup is False)
            and type(entropy) is float and type(latent) is float
            and type(perf) is float and type(pupil_z) is float
            and isfinite(entropy) and isfinite(latent) and isfinite(perf) and isfinite(pupil_z)
            and (hrv is None or (type(hrv) is float and isfinite(hrv)))
            and _five_finite_floats(post)):
        return _TICK % (
            behaviour, cps, entropy, "null" if hrv is None else repr(hrv),
            "true" if warmup else "false", latent, level, n1, n2, nps, perf, *post,
            pupil_z, t, "null" if td is None else td,
        )
    return None


def _state_line(record: dict) -> str | None:
    try:
        level, post, t = _STATE_SLOTS(record)
    except KeyError:
        return None
    if type(level) is int and type(t) is int and _five_finite_floats(post):
        return _STATE % (level, *post, t)
    return None


# schema by key count; a record of that size missing one of the keys is
# not of the schema
_FIXED_SCHEMAS = {16: _tick_line, 3: _state_line}


def dumps_record(record: dict[str, Any]) -> str:
    """One record as a JSON line: sorted keys, no spaces, NaN and infinity
    rejected (ValueError), as _RECORD_ENCODER writes it."""
    if type(record) is dict:
        line_of = _FIXED_SCHEMAS.get(len(record))
        if line_of is not None:
            line = line_of(record)
            if line is not None:
                return line
    return _RECORD_ENCODER.encode(record)


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


def is_seed(value) -> bool:
    """True for an integer >= 0 (booleans excluded): a seed numpy's SeedSequence takes."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= 0


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
