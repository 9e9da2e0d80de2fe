"""The shared CSV reader against the csv.DictReader reader it replaced."""

import csv

import pytest

from oft.errors import DataError
from oft.jsonl import read_csv


def _dictreader_read_csv(path, stream, columns, parse):
    """The reader as it was, kept verbatim as the reference: `parse` takes
    the row dict."""
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


def _checked_level(level):
    value = float(level)
    if value < 0:
        raise DataError(f"negative level {level}")
    return value


# the same parser twice: positional for read_csv, by name for the reference
PARSERS = {
    "numbers": (("t_s", "level"),
                lambda t_s, level: (float(t_s), _checked_level(level)),
                lambda row: (float(row["t_s"]), _checked_level(row["level"]))),
    "text": (("name", "count"),
             lambda name, count: (name.strip(), int(count)),
             lambda row: (row["name"].strip(), int(row["count"]))),
}

FILES = {
    "plain": "t_s,level\n0,1.5\n1,2.5\n",
    "crlf": "t_s,level\r\n0,1.5\r\n1,2.5\r\n",
    "blank lines": "t_s,level\n\n0,1.5\n\r\n\n1,2.5\n\n\n",
    "blank first line": "\nt_s,level\n0,1.5\n",
    "whitespace line": "t_s,level\n0,1.5\n \n1,2.5\n",
    "short row": "t_s,level\n0,1.5\n1\n",
    "short row, unread column missing": "t_s,level,note\n0,1.5,x\n1,2.5\n",
    "long row": "t_s,level\n0,1.5,extra,more\n1,2.5\n",
    "repeated header": "level,t_s,level\n9,0,1.5\n8,1,2.5\n",
    "repeated header, short row": "t_s,level,level\n0,9,1.5\n1,8\n",
    "columns reordered": "level,note,t_s\n1.5,a,0\n2.5,b,1\n",
    "quoted commas": 'name,count,t_s,level\n"a, b",3,0,"1,5"\n',
    "quoted field": 'name,count\n"a, b",3\n" c ",4\n',
    "missing column": "t_s,lvl\n0,1.5\n",
    "header only": "t_s,level\n",
    "empty file": "",
    "bad value": "t_s,level\n0,1.5\n1,high\n",
    "parser DataError": "t_s,level\n0,1.5\n1,-2\n",
    "NUL byte": "t_s,level\n0,1\x005\n",
    "text": "name,count\n a ,1\nb,2\n",
    "text, bad count": "name,count\na,1\nb,2.5\n",
    "text, short": "name,count\na\n",
}


def outcome(reader, path, columns, parse):
    try:
        return reader(path, "s", columns, parse)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("kind", list(PARSERS))
@pytest.mark.parametrize("name", list(FILES))
def test_matches_dictreader(tmp_path, name, kind):
    path = tmp_path / "in.csv"
    path.write_bytes(FILES[name].encode())
    columns, positional, by_name = PARSERS[kind]
    assert outcome(read_csv, path, columns, positional) == \
        outcome(_dictreader_read_csv, path, columns, by_name)


@pytest.mark.parametrize("name,want", [
    ("plain", [(0.0, 1.5), (1.0, 2.5)]),
    ("blank lines", [(0.0, 1.5), (1.0, 2.5)]),
    ("repeated header", [(0.0, 1.5), (1.0, 2.5)]),
    ("short row", "stream 's' ({path}): bad row {{'t_s': '1', 'level': None}}"),
    ("long row", [(0.0, 1.5), (1.0, 2.5)]),
    ("missing column", "stream 's' ({path}): expected columns t_s,level"),
    ("empty file", "stream 's' ({path}): expected columns t_s,level"),
    ("header only", []),
    ("parser DataError", "negative level -2"),
])
def test_outcomes(tmp_path, name, want):
    """A few of the cases above spelled out, so that the reference cannot
    drift with them."""
    path = tmp_path / "in.csv"
    path.write_bytes(FILES[name].encode())
    columns, positional, _ = PARSERS["numbers"]
    if isinstance(want, str):
        want = want.format(path=path)
    assert outcome(read_csv, path, columns, positional) == want


def test_unreadable_file(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(b"t_s,level\n0,\xff\n")
    columns, positional, by_name = PARSERS["numbers"]
    for missing in (path, tmp_path / "missing.csv"):
        got = outcome(read_csv, missing, columns, positional)
        assert got == outcome(_dictreader_read_csv, missing, columns, by_name)
        assert got.startswith(f"stream 's' ({missing}): ")


def test_single_column(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("t_s,level\n0,1.5\n2,2.5\n")
    assert read_csv(path, "s", ("level",), float) == [1.5, 2.5]
