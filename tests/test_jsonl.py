"""The shared readers and record writer: the CSV reader against
csv.DictReader and load_jsonl against json.loads per line, the code they
replaced; the record writer on every record of the pinned runs. The three
file writers against open(path, "w"): how they treat an existing path."""

import ast
import csv
import io
import itertools
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oft
from conftest import src_env
from oft import cocom, dfaplan, effortclass, fusion, physio, pipeline, regulation, taskload
from oft.cli import main
from oft.errors import ConfigError, DataError
from oft.jsonl import (DATA, config_errors, dump_json, dump_jsonl, dumps_record, float_sum,
                       is_integer, load_jsonl, number, numeric_array, read_csv, write_csv)
from test_cli import (FULL_SESSION_SHA256, MONITOR_SHA256, SIMULATE_SHA256, json_slots,
                      write_fixed_recording)


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
    "bad long row": "t_s,level\n0,1.5\n1,high,extra\n",
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
    ("bad long row", "stream 's' ({path}): bad row {{'t_s': '1', 'level': 'high', None: ['extra']}}"),
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


# ---------------------------------------------------------------------------
# load_jsonl against the json.loads loader it replaced


def _loads_load_jsonl(path):
    """The loader as it was, kept verbatim as the reference."""
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


JSONL_FILES = {
    "records": '{"t": 0, "at": {"A": 1}}\n\n  {"t": 1, "x": [1.5, null, true]}  \r\n',
    "scalars": '1\n"text"\n[1, 2]\nnull\n-0.0\n1e400\nNaN\n-Infinity\n',
    "trailing data": '{"t": 0}\n{"t": 1} x\n',
    "two values": '{"t": 0}{"t": 1}\n',
    "trailing value after space": '[1] 2\n',
    "bare [": '{"t": 0}\n[\n',
    "bare word": 'nope\n',
    "unterminated string": '{"t": "0\n',
    "missing value": '{"t": }\n',
    "too deeply nested": '{"t": 0}\n' + "[" * 100_000 + "\n",
    "nested, closed": "[" * 50 + "]" * 50 + "\n",
    "byte order mark": '\ufeff{"t": 0}\n',
    "form feed inside": '{"t": 0}\x0c{"t": 1}\n',
    "form feed around": '\x0c{"t": 0}\x0c\n',
    "not UTF-8": b'{"t": "\xff"}\n',
    "huge integer": '{"t": 0}\n{"t": ' + "1" * 5000 + "}\n",
    "empty": "",
}


def read_all(loader, path):
    try:
        return list(loader(path))
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("name", list(JSONL_FILES))
def test_load_jsonl_matches_json_loads(tmp_path, name):
    path = tmp_path / "in.jsonl"
    text = JSONL_FILES[name]
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    got = read_all(load_jsonl, path)
    if name == "huge integer":
        # past the int digit limit json.loads raises a plain ValueError, which
        # the loader as it was let through; load_jsonl reports the line
        with pytest.raises(ValueError) as exc:
            list(_loads_load_jsonl(path))
        assert got == f"{path}, line 2: not JSON ({exc.value})"
        return
    assert got == read_all(_loads_load_jsonl, path)
    if name in ("trailing data", "bare [", "too deeply nested"):
        assert isinstance(got, str) and got.startswith(f"{path}, line 2: not JSON (")


# ---------------------------------------------------------------------------
# the record writer


def as_documented(record):
    """The record's line is the documented format: sorted keys, no spaces."""
    line = dumps_record(record)
    assert line == json.dumps(record, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return line


def recorded_writes(monkeypatch, module):
    """Every record that `module` passes to dump_jsonl, in order."""
    written = []
    monkeypatch.setattr(module, "dump_jsonl", lambda records, _path: written.extend(records))
    return written


def test_every_record_of_the_pinned_sessions(tmp_path, monkeypatch):
    records = recorded_writes(monkeypatch, pipeline)
    log = str(tmp_path / "run.jsonl")
    for seed, dfa in SIMULATE_SHA256:
        assert main(["simulate", "--operator", "degrading-overload", "--seed", str(seed),
                     "--dfa", dfa, "--duration", "240", "--log", log]) == 0
    for operator, seed in FULL_SESSION_SHA256:
        assert main(["simulate", "--operator", operator, "--seed", str(seed),
                     "--dfa", "on", "--duration", "1200", "--log", log]) == 0
    for record in records:
        as_documented(record)
    ticks = sum(1 for record in records if record["record"] == "tick")
    assert ticks == 4 * 240 + 3 * 1200


def test_every_record_of_the_pinned_monitor_outputs(tmp_path, monkeypatch):
    states = recorded_writes(monkeypatch, fusion)
    events = recorded_writes(monkeypatch, regulation)
    beats, pupil, ticks, demand = write_fixed_recording(tmp_path)
    for normalization, with_demand in MONITOR_SHA256:
        argv = ["monitor", "--beats", beats, "--pupil", pupil, "--ticks", ticks,
                "--out-dir", str(tmp_path / "mon"), "--normalization", normalization]
        if normalization == "reference":
            argv += ["--reference", "3.2", "0.3"]
        if with_demand:
            argv += ["--demand", demand]
        assert main(argv) == 0
    assert len(states) == 4 * 300 and events
    for record in states:
        as_documented(record)
    for record in events:
        as_documented(record)


TICK = {
    "behaviour": "none", "cps": 1, "entropy": 0.5, "hrv_sdnn_ms": None, "hrv_warmup": True,
    "latent": 0.25, "level": 3, "n1": 4, "n2": 0, "nps": 2, "perf": 1.0,
    "posterior": [0.1, 0.2, 0.4, 0.2, 0.1], "pupil_z": -0.0, "record": "tick", "t": 7,
    "td": None,
}
STATE = {"level": 3, "posterior": [0.1, 0.2, 0.4, 0.2, 0.1], "t": 7}


@pytest.mark.parametrize("record", [TICK, STATE], ids=["tick", "state"])
def test_non_finite_floats_and_numpy_ints_still_raise(record):
    as_documented(record)
    for key, value in record.items():
        if key == "posterior":
            for i, bad in itertools.product(range(5), (math.nan, math.inf, -math.inf)):
                with pytest.raises(ValueError, match="not JSON compliant"):
                    dumps_record({**record, key: value[:i] + [bad] + value[i + 1:]})
        elif type(value) is float:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="not JSON compliant"):
                    dumps_record({**record, key: bad})
        elif type(value) is int:
            with pytest.raises(TypeError, match="int64"):
                dumps_record({**record, key: np.int64(value)})


def test_a_raising_record_leaves_the_encoder_clean():
    # the encoder is built once; a record that raises must not mark the
    # address of its dict for the records after it
    for _ in range(100):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps_record({**STATE, "posterior": [math.nan] * 5})
        assert dumps_record(dict(STATE)) == as_documented(STATE)
    looped = dict(STATE)
    looped["self"] = looped
    with pytest.raises(RecursionError):
        dumps_record(looped)


def test_record_writer_without_the_c_encoder():
    code = ("import json.encoder; json.encoder.c_make_encoder = None\n"
            "from oft import jsonl\n"
            "assert jsonl.dumps_record == jsonl._RECORD_ENCODER.encode\n"
            f"print(jsonl.dumps_record({STATE!r}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env(), check=True)
    assert out.stdout == as_documented(STATE) + "\n"


# ---------------------------------------------------------------------------
# the writers on an existing path: each case holds under open(path, "w") too


def _write_jsonl(path, n, bad=False):
    dump_jsonl([{"i": i} for i in range(n)] + ([{"i": math.nan}] if bad else []), path)


def _write_json(path, n, bad=False):
    dump_json({"a": list(range(n)), "b": object() if bad else None}, path)


def _write_csv(path, n, bad=False):
    write_csv(path, ["i"], [[i] for i in range(n)] + ([5] if bad else []))


def _json_before_error(n):
    buf = io.StringIO()
    with pytest.raises(TypeError):
        json.dump({"a": list(range(n)), "b": object()}, buf, indent=2, sort_keys=True)
    return buf.getvalue()


# writer -> (write(path, n, bad), the text left when the item after n raises)
WRITERS = {
    "dump_jsonl": (_write_jsonl, lambda n: "".join(f'{{"i":{i}}}\n' for i in range(n))),
    "dump_json": (_write_json, _json_before_error),
    "write_csv": (_write_csv, lambda n: "i\r\n" + "".join(f"{i}\r\n" for i in range(n))),
}


def _fresh(tmp_path, write, n):
    """The bytes `write` puts in a new file."""
    path = tmp_path / "fresh"
    write(path, n)
    return path.read_bytes()


@pytest.mark.parametrize("writer", WRITERS)
class TestWriterOnExistingPath:
    def test_shorter_rewrite_leaves_only_the_new_bytes(self, tmp_path, writer):
        write, _ = WRITERS[writer]
        out = tmp_path / "out"
        write(out, 500)
        write(out, 3)
        assert out.read_bytes() == _fresh(tmp_path, write, 3)

    def test_hard_link_sees_the_new_bytes(self, tmp_path, writer):
        write, _ = WRITERS[writer]
        out, other = tmp_path / "out", tmp_path / "other"
        write(out, 500)
        os.link(out, other)
        write(out, 3)
        assert other.read_bytes() == _fresh(tmp_path, write, 3)
        assert os.stat(other).st_ino == os.stat(out).st_ino

    def test_symlink_is_followed_and_kept(self, tmp_path, writer):
        write, _ = WRITERS[writer]
        target, link = tmp_path / "target", tmp_path / "link"
        write(target, 500)
        link.symlink_to(target)
        write(link, 3)
        assert link.is_symlink()
        assert target.read_bytes() == _fresh(tmp_path, write, 3)

    def test_mode_is_kept(self, tmp_path, writer):
        write, _ = WRITERS[writer]
        out = tmp_path / "out"
        write(out, 500)
        out.chmod(0o600)
        write(out, 3)
        assert stat.S_IMODE(out.stat().st_mode) == 0o600

    def test_dev_null(self, writer):
        write, _ = WRITERS[writer]
        write(os.devnull, 3)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_raising_item_leaves_what_was_written_before_it(self, tmp_path, writer):
        """A NaN record (dump_jsonl), an unencodable value (dump_json) or a
        row that is not a sequence (write_csv) raises mid-file."""
        write, before_error = WRITERS[writer]
        out = tmp_path / "out"
        write(out, 500)
        with pytest.raises((ValueError, TypeError, csv.Error)):
            write(out, 3, bad=True)
        assert out.read_bytes().decode("utf-8") == before_error(3)


def test_writers_never_open_with_o_trunc(tmp_path, monkeypatch):
    """A non-empty file truncated to zero on open makes ext4 flush it, and
    the next such rewrite waits on the disk: the writers open without
    O_TRUNC and cut the file to length when done."""
    flags_seen = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        flags_seen.append(flags)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    for name, (write, _) in WRITERS.items():
        out = tmp_path / name
        write(out, 500)
        write(out, 3)
    assert len(flags_seen) == 2 * len(WRITERS)
    assert all(flags & os.O_WRONLY and flags & os.O_CREAT for flags in flags_seen)
    assert not any(flags & os.O_TRUNC for flags in flags_seen)


def _write_opens(tree):
    """(line, call) of every call in `tree` that opens a file for writing:
    open, io.open or Path.open with a mode holding w, a, x or +, or one
    that is not a string literal; os.open; write_text; write_bytes."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        owner = getattr(getattr(func, "value", None), "id", None)
        if name in ("write_text", "write_bytes") or (name == "open" and owner == "os"):
            found.append((node.lineno, ast.unparse(func)))
            continue
        if name != "open":
            continue
        # builtin open(file, mode) and io.open; otherwise Path.open(mode)
        position = 1 if isinstance(func, ast.Name) or owner == "io" else 0
        mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
        if mode is None and len(node.args) > position:
            mode = node.args[position]
        if mode is None:
            continue
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                or set(mode.value) & set("wax+"):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_only_jsonl_opens_files_for_writing():
    package = Path(oft.__file__).parent
    offenders = {}
    for module in sorted(package.glob("*.py")):
        if module.name != "jsonl.py":
            found = _write_opens(ast.parse(module.read_text(encoding="utf-8")))
            if found:
                offenders[module.name] = found
    assert offenders == {}


def test_write_open_finder_sees_each_form():
    source = "\n".join([
        "open(p, 'w')", "open(p, mode='a')", "open(p, 'rb')", "open(p)", "open(p, m)",
        "io.open(p, 'x')", "q.open('r+')", "q.open()", "q.write_text(s)", "q.write_bytes(b)",
        "os.open(p, f)",
    ])
    lines = [line for line, _ in _write_opens(ast.parse(source))]
    assert sorted(lines) == [1, 2, 5, 6, 7, 9, 10, 11]


# ---------------------------------------------------------------------------
# the one rule that turns a malformed document or argument into a ConfigError


@pytest.mark.parametrize("raised,message", [
    (KeyError("x"), "doc: missing key 'x'"),
    (TypeError("unhashable type: 'list'"), "doc: unhashable type: 'list'"),
    (ValueError("not enough values to unpack"), "doc: not enough values to unpack"),
    (AttributeError("'list' object has no attribute 'items'"),
     "doc: 'list' object has no attribute 'items'"),
    (OverflowError("int too large to convert to float"), "doc: int too large to convert to float"),
    (DataError("knn: points must be finite"), "doc: knn: points must be finite"),
])
def test_config_errors_refuses_with_a_config_error(raised, message):
    with pytest.raises(ConfigError) as info:
        with config_errors("doc"):
            raise raised
    assert str(info.value) == message and info.value.__cause__ is raised


def test_config_errors_lets_a_config_error_through_unchanged():
    refusal = ConfigError("partition effort: empty domain")
    with pytest.raises(ConfigError) as info:
        with config_errors("doc"):
            raise refusal
    assert info.value is refusal


def test_config_errors_lets_other_errors_through():
    with pytest.raises(RecursionError):
        with config_errors("doc"):
            raise RecursionError("too deep")


# JSON values, with the ids and labels of the bundled files among the strings
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([10**400, "F1-H", "F1-M", "H", "S1", "low", "expected"])
                | st.text(max_size=3))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


def either(valid):
    """A valid argument, or any JSON value in its place."""
    return st.just(valid) | json_values


def loads_or_refuses(build, *args, **kwargs):
    """`build` returns, or raises ConfigError; any other error fails the test."""
    try:
        build(*args, **kwargs)
    except ConfigError:
        pass


BIKE = dfaplan.default_bike_model()
DOCUMENTS = {
    "network": (fusion.MwlNetwork.from_dict, json.loads((DATA / "mwl_net.json").read_text())),
    "allocation": (dfaplan.model_from_dict, json.loads((DATA / "bike.json").read_text())),
    "knn": (effortclass.model_from_dict, {
        "kind": "knn", "k": 1, "metric": "euclidean", "points": [[0.0, 1.0], [1.0, 0.0]],
        "labels": [0, 1]}),
    "rf": (effortclass.model_from_dict, {"kind": "rf", "n_features": 2, "trees": [
        {"feature": 0, "threshold": 0.5, "left": {"label": 0}, "right": {"label": 1}}]}),
}


class TestArgumentsAndDocumentsRefuseWithConfigError:
    """JSON values in place of each argument of the model types, and of any
    value of the bundled documents, build the object or raise ConfigError."""

    @settings(max_examples=300, deadline=None)
    @given(variable=either("effort"), labels=either(["low", "high"]), domain=either([0.0, 1.0]),
           overlaps=either([[0.4, 0.6]]))
    @example(variable="v", labels=[[1], [2]], domain=[0.0, 1.0], overlaps=[[0.4, 0.6]])
    @example(variable="v", labels=["low", "high"], domain=[0.0, 1.0], overlaps=[[0.4]])
    @example(variable="v", labels=["low", "high"], domain=None, overlaps=[[0.4, 0.6]])
    def test_fuzzy_partition(self, variable, labels, domain, overlaps):
        loads_or_refuses(fusion.FuzzyPartition, variable, labels, domain, overlaps)

    @settings(max_examples=300, deadline=None)
    @given(functions=either(BIKE.functions), resources=either(BIKE.resources),
           couples=either(BIKE.couples),
           situations=either(BIKE.situations) | st.dictionaries(
               st.sampled_from(["S1", "S2"]),
               json_values | st.dictionaries(st.sampled_from(BIKE.couple_ids), json_values)),
           xor_groups=either(((BIKE.couple_ids[2], BIKE.couple_ids[3]),)),
           constraints=either(BIKE.constraints), costs=either(BIKE.costs))
    @example(functions=5, resources=BIKE.resources, couples=BIKE.couples,
             situations=BIKE.situations, xor_groups=(), constraints=(), costs={})
    @example(functions=BIKE.functions, resources=BIKE.resources, couples=(1,),
             situations=BIKE.situations, xor_groups=(), constraints=(), costs={})
    @example(functions=BIKE.functions, resources=BIKE.resources, couples=BIKE.couples,
             situations={"S": 5}, xor_groups=(), constraints=(), costs={})
    @example(functions=BIKE.functions, resources=BIKE.resources, couples=BIKE.couples,
             situations=BIKE.situations, xor_groups=(), constraints=(), costs={"w": {"F1-H": "1"}})
    def test_allocation_model(self, functions, resources, couples, situations, xor_groups,
                              constraints, costs):
        loads_or_refuses(dfaplan.AllocationModel, functions, resources, couples, situations,
                         xor_groups, constraints, costs)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(dfaplan.CONSTRAINT_KINDS) | json_values,
           fields=st.dictionaries(
               st.sampled_from(["couples", "couple", "requires", "after", "resource",
                                "max_functions", "allowed"]),
               json_values | st.lists(st.sampled_from(BIKE.couple_ids), max_size=2),
               max_size=4))
    def test_constraint_spec(self, kind, fields):
        loads_or_refuses(dfaplan.ConstraintSpec, kind, **fields)

    @settings(max_examples=300, deadline=None)
    @given(document=st.sampled_from(sorted(DOCUMENTS)), slot=st.integers(0, 10**6),
           value=json_values)
    def test_document(self, document, slot, value):
        from_dict, raw = DOCUMENTS[document]
        holder, slots = json_slots(json.loads(json.dumps(raw)))
        parent, key = slots[slot % len(slots)]  # the root slot replaces the whole document
        parent[key] = value
        loads_or_refuses(from_dict, holder[0])


# ---------------------------------------------------------------------------
# the one rule that reads a number: ints and floats, numpy's too, nothing else

numpy_scalars = (st.builds(np.float64, st.floats()) | st.builds(np.float32, st.floats(width=32))
                 | st.builds(np.int64, st.integers(-2**63, 2**63 - 1))
                 | st.builds(np.uint8, st.integers(0, 255)) | st.sampled_from(
                     [np.bool_(True), np.bool_(False)]))
number_candidates = (json_values | numpy_scalars
                     | st.sampled_from([-10**400, 2**1024, "0.5", "1", "-6", "nan", "1e400", " 2"]))


@settings(max_examples=500, deadline=None)
@given(value=number_candidates)
@example(value=True)
@example(value=np.bool_(False))
@example(value=10**400)
@example(value="0.5")
def test_number_reads_ints_and_floats_only(value):
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))
    assert is_integer(value) is integer
    if not (integer or isinstance(value, (float, np.floating))):
        with pytest.raises(TypeError, match="is not a number$"):
            number(value)
        return
    try:
        want = float(value)
    except OverflowError:  # an integer past the float range
        with pytest.raises(OverflowError):
            number(value)
        return
    got = number(value)
    assert type(got) is float and got.hex() == want.hex()


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.integers(-2**53, 2**53)))
@example(values=[0.1, 0.2, 0.3])  # 0.6000000000000001, where a compensated sum gives 0.6
@example(values=[-0.0])
@example(values=[])
def test_float_sum_adds_left_to_right_from_zero(values):
    total = 0.0
    for value in values:
        total += value
    got = float_sum(values)
    assert type(got) is float and got.hex() == total.hex()
    assert float_sum(iter(values)).hex() == total.hex()


BAD_ARRAYS = {"a string": ["a"], "a numeric string": ["1.5"], "a bool": [True], "a null": [None]}
# each public array argument, with what its DataError names
ARRAY_ARGUMENTS = {
    "beats: timestamps": lambda bad: physio.RRSeries(bad, [800.0]),
    "beats: RR intervals": lambda bad: physio.RRSeries([0.0], bad),
    "pupil: timestamps": lambda bad: physio.PupilSeries(bad, [3.0]),
    "pupil: diameters": lambda bad: physio.PupilSeries([0.0], bad),
    "tank trace: tank_a": lambda bad: cocom.TankTrace(bad, [2500.0]),
    "tank trace: tank_b": lambda bad: cocom.TankTrace([2500.0], bad),
    "knn: points": lambda bad: effortclass.KnnModel([bad], [0]),
    "knn: labels": lambda bad: effortclass.KnnModel([[0.0]], bad),
    "rf: X": lambda bad: effortclass.rf_train([bad], [0]),
    "rf: y": lambda bad: effortclass.rf_train([[0.0]], bad),
    "transition matrix: counts": lambda bad: cocom.TransitionMatrix([bad * 4] * 4),
    "binarize: labels": lambda bad: effortclass.binarize(bad),
    "sdnn: RR intervals": lambda bad: physio.sdnn(bad),
    "z-score: values": lambda bad: physio.normalize(bad),
    "bandpass: timestamps": lambda bad: physio.bandpass(bad, [0.0], 0.1, 0.2),
    "bandpass: values": lambda bad: physio.bandpass([0.0], bad, 0.1, 0.2),
    "spatial_entropy: positions": lambda bad: taskload.spatial_entropy(bad),
    "spearman: a": lambda bad: pipeline.spearman(bad, [0.0]),
    "spearman: b": lambda bad: pipeline.spearman([0.0], bad),
}


@pytest.mark.parametrize("case", BAD_ARRAYS)
@pytest.mark.parametrize("what", ARRAY_ARGUMENTS)
def test_array_arguments_that_hold_no_numbers_are_a_data_error(what, case):
    with pytest.raises(DataError, match=f"^{what} must be"):
        ARRAY_ARGUMENTS[what](BAD_ARRAYS[case])


@pytest.mark.parametrize("bad", [[[800.0, 810.0], [790.0, 800.0]], 800.0])
@pytest.mark.parametrize("what", ["sdnn: RR intervals", "z-score: values"])
def test_flat_array_arguments_refuse_other_shapes(what, bad):
    """A 2-d window is not pooled into one series, nor a lone number read."""
    with pytest.raises(DataError, match=f"^{what} must be a flat sequence"):
        ARRAY_ARGUMENTS[what](bad)


# the array arguments whose dimensions numeric_array checks: (how many, and
# whether NaN and the infinities are refused too)
ARRAY_RULES = {
    "beats: timestamps": (1, True),
    "beats: RR intervals": (1, True),
    "pupil: timestamps": (1, True),
    "tank trace: tank_a": (1, True),
    "tank trace: tank_b": (1, True),
    "knn: points": (2, True),
    "knn: labels": (1, False),
    "rf: X": (2, True),
    "rf: y": (1, False),
    "sdnn: RR intervals": (1, True),
    "z-score: values": (1, True),
    "bandpass: timestamps": (1, True),
    "bandpass: values": (1, True),
    "spearman: a": (1, True),
    "spearman: b": (1, True),
}
SHAPE_WORDS = {1: r"a flat sequence \(1-d\)", 2: "2-d"}
NON_FINITE = [math.nan, math.inf, -math.inf]


# a nested value makes every argument one dimension too deep, a lone
# number one too shallow: the rows of knn points and rf X are wrapped
@pytest.mark.parametrize("bad", [[[0]], 0], ids=["deeper", "shallower"])
@pytest.mark.parametrize("what", ARRAY_RULES)
def test_array_arguments_of_other_dimensions_are_a_data_error(what, bad):
    ndim, _ = ARRAY_RULES[what]
    with pytest.raises(DataError, match=f"^{what} must be {SHAPE_WORDS[ndim]}, got [0-9]-d$"):
        ARRAY_ARGUMENTS[what](bad)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("what", [what for what, (_, finite) in ARRAY_RULES.items() if finite])
def test_array_arguments_that_must_be_finite_refuse_nan_and_infinities(what, value):
    with pytest.raises(DataError, match=f"^{what} must be finite$"):
        ARRAY_ARGUMENTS[what]([800.0, value, 810.0])


def test_pupil_diameters_may_hold_nan_but_not_another_shape():
    """Cleansing drops a NaN diameter; the diameters' shape is held to the
    timestamps' by the equal-length rule."""
    assert len(physio.PupilSeries([0.0, 0.5], [math.nan, 3.0])) == 2
    with pytest.raises(DataError, match="1-d and equal length"):
        physio.PupilSeries([0.0], [[3.0]])


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
def test_a_non_finite_value_is_refused_where_it_once_gave_nan(value):
    """Series long enough for every other check: NaN or an infinity in them
    gave a NaN result, or a band-pass sample rate of nan."""
    with pytest.raises(DataError, match="^sdnn: RR intervals must be finite$"):
        physio.sdnn([800.0, value, 810.0])
    with pytest.raises(DataError, match="^z-score: values must be finite$"):
        physio.normalize([1.0, value, 2.0])
    t = np.arange(0.0, 10.0, 0.1)
    x = np.sin(t)
    for what, args in (("bandpass: values", (t, np.where(t == t[40], value, x))),
                       ("bandpass: timestamps", (np.where(t == t[40], value, t), x))):
        with pytest.raises(DataError, match=f"^{what} must be finite$"):
            physio.bandpass(*args, 0.1, 1.0)


@pytest.mark.parametrize("what", ["knn: labels", "rf: y", "transition matrix: counts",
                                  "binarize: labels"])
def test_float_labels_are_refused_not_cut(what):
    with pytest.raises(DataError, match=f"^{what} must be integers, got an array of float64"):
        ARRAY_ARGUMENTS[what]([1.7])


def _knn():
    return effortclass.KnnModel([[0.0], [1.0]], [0, 1])


def _forest():
    return effortclass.rf_train([[0.0], [1.0], [0.2], [0.8]], [0, 1, 0, 1], n_trees=3, seed=1)


# each classifier entry point that takes a probe, with what its DataError names
PROBE_ARGUMENTS = {
    "KnnModel.predict": ("knn: probes", lambda bad: _knn().predict([bad])),
    "KnnModel.predict_one": ("knn: probe", lambda bad: _knn().predict_one(bad)),
    "knn_predict": ("knn: probe", lambda bad: effortclass.knn_predict(_knn(), bad)),
    "ForestModel.predict": ("forest: probes", lambda bad: _forest().predict([bad])),
    "ForestModel.predict_one": ("forest: probe", lambda bad: _forest().predict_one(bad)),
}


@pytest.mark.parametrize("case", BAD_ARRAYS)
@pytest.mark.parametrize("entry", PROBE_ARGUMENTS)
def test_probes_that_hold_no_numbers_are_a_data_error(entry, case):
    what, call = PROBE_ARGUMENTS[entry]
    with pytest.raises(DataError, match=f"^{what} must be numbers"):
        call(BAD_ARRAYS[case])


# the name the refusal of a non-finite probe gives: predict_one hands its
# probe to predict as one row
FINITE_PROBE_NAMES = {
    "KnnModel.predict": "knn: probes",
    "KnnModel.predict_one": "knn: probes",
    "knn_predict": "knn: probe",
    "ForestModel.predict": "forest: probes",
    "ForestModel.predict_one": "forest: probes",
}


@pytest.mark.parametrize("entry", PROBE_ARGUMENTS)
def test_probes_of_other_dimensions_are_a_data_error(entry):
    """A probe is one flat row, a batch of probes a 2-d array: one level
    deeper, kNN voted on it and the forest raised IndexError."""
    what, call = PROBE_ARGUMENTS[entry]
    shape = "2-d" if what.endswith("probes") else r"a flat sequence \(1-d\)"
    with pytest.raises(DataError, match=f"^{what} must be {shape}, got [0-9]-d$"):
        call([[0.0]])


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("entry", PROBE_ARGUMENTS)
def test_non_finite_probes_are_a_data_error(entry, value):
    _, call = PROBE_ARGUMENTS[entry]
    with pytest.raises(DataError, match=f"^{FINITE_PROBE_NAMES[entry]} must be finite$"):
        call([value])


@pytest.mark.parametrize("ndim", [1, 2])
def test_numeric_array_keeps_the_dtype_rule_first(ndim):
    """A wrong dtype is named before a wrong shape or a NaN."""
    with pytest.raises(DataError, match="^x must be numbers, got an array of <U3$"):
        numeric_array([["nan"]], "x", ndim=ndim, finite=True)
    assert numeric_array([[math.nan]], "x", ndim=2).shape == (1, 1)
    assert numeric_array([1, 2], "x", int, ndim=1, finite=True).tolist() == [1, 2]
    assert numeric_array(np.array([], dtype=str), "x", ndim=1, finite=True).dtype == np.float64


def test_numeric_array_copies_only_to_change_the_dtype():
    floats, ints = np.array([0.5, 2.0]), np.array([1, 2])
    assert numeric_array(floats, "x") is floats
    assert numeric_array(ints, "x", int) is ints
    assert numeric_array(ints, "x").tolist() == [1.0, 2.0]
    assert numeric_array(np.float32([0.5]), "x").dtype == np.float64
    with pytest.raises(DataError, match="^x: setting an array element with a sequence"):
        numeric_array([[1.0, 2.0], [3.0]], "x")
