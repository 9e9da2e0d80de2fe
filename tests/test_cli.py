"""Command line round-trips and exit codes, mostly in-process."""

import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import src_env
from oft import __version__, pipeline
from oft.cli import main
from oft.effortclass import ForestModel, load_model
from oft.jsonl import DATA, dump_jsonl, load_jsonl
from oft.microworld import generate_beats, generate_pupil
from test_dfaplan import BAD_CONSTRAINTS, EXAMPLES


def write_streams(dirpath, duration=240, load=0.2, seed=5):
    rng = np.random.default_rng(seed)
    bt, rr = generate_beats(lambda t: load, float(duration), rng)
    pt, pv = generate_pupil(lambda t: load, float(duration), rng)
    beats = dirpath / "beats.csv"
    with open(beats, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "rr_ms"])
        for t, v in zip(bt, rr):
            w.writerow([repr(float(t)), repr(float(v))])
    pupil = dirpath / "pupil.csv"
    with open(pupil, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "pupil_mm", "valid"])
        for t, v in zip(pt, pv):
            w.writerow([repr(float(t)), repr(float(v)), 1])
    return str(beats), str(pupil)


def overwrite_rows(path, column, value, rows=slice(100, 180)):
    """Set `column` of the given data rows of a CSV to the literal `value`."""
    with open(path, newline="") as fh:
        records = list(csv.DictReader(fh))
    for record in records[rows]:
        record[column] = value
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(records[0]))
        w.writeheader()
        w.writerows(records)


def write_ticks(path, n=240):
    records = [
        {"t": t, "at": {"watch": 1}, "ot": {"watch": 1}, "perf": 0.9}
        for t in range(n)
    ]
    dump_jsonl(records, path)
    return str(path)


def write_dataset(path, n_per=40, seed=2):
    rng = np.random.default_rng(seed)
    centers = {1: (20.0, -1.0), 2: (45.0, 0.0), 3: (80.0, 1.5)}
    subjects = ("s1", "s2", "s3", "s4")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subject", "t_s", "hrv", "pupil_z", "td"])
        t = 0
        for label, (cx, cy) in centers.items():
            for i in range(n_per):
                w.writerow([
                    subjects[i % len(subjects)], t,
                    repr(cx + 1.5 * rng.standard_normal()),
                    repr(cy + 0.05 * rng.standard_normal()),
                    label,
                ])
                t += 1
    return str(path)


def write_trace(path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "tank_a", "tank_b", "period"])
        for i in range(120):
            w.writerow([i, 2400 + 200 * math.sin(i / 6), 2500 + 150 * math.cos(i / 7), "low"])
        for i in range(120):
            w.writerow([i, 2800 + 30 * math.sin(i / 9), 2790 + 20 * math.cos(i / 9), "high"])
    return str(path)


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # --log is required
        assert exc.value.code == 2

    def test_console_script_installed(self):
        out = subprocess.run(
            [sys.executable, "-c", "from oft.cli import main; raise SystemExit(main(['--version']))"],
            capture_output=True, text=True, env=src_env(),
        )
        assert out.returncode == 0
        assert __version__ in out.stdout


class TestPhysioCommand:
    def test_frames_round_trip(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        out = tmp_path / "frames.csv"
        jsonl = tmp_path / "frames.jsonl"
        manifest = tmp_path / "manifest.json"
        code = main([
            "physio", "--beats", beats, "--pupil", pupil,
            "--out", str(out), "--jsonl", str(jsonl), "--manifest", str(manifest),
        ])
        assert code == 0
        assert "framed" in capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 230
        assert set(rows[0]) == {"t_s", "hrv_sdnn_ms", "pupil_z"}
        meta = next(load_jsonl(jsonl))["meta"]
        assert meta["normalization"] == "session"
        digests = json.loads(manifest.read_text())["inputs"]
        assert [d["path"] for d in digests] == ["beats.csv", "pupil.csv"]

    def test_rerun_is_byte_identical(self, tmp_path):
        beats, pupil = write_streams(tmp_path)
        outs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            assert main(["physio", "--beats", beats, "--pupil", pupil, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_bad_stream_exits_3(self, tmp_path, capsys):
        _, pupil = write_streams(tmp_path)
        bad = tmp_path / "bad_beats.csv"
        bad.write_text("wrong,header\n1,2\n")
        code = main(["physio", "--beats", str(bad), "--pupil", pupil,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "beats" in capsys.readouterr().err

    @pytest.mark.parametrize("jsonl", [False, True])
    @pytest.mark.parametrize("stream,column,value", [
        ("beats", "rr_ms", "nan"),
        ("beats", "rr_ms", "inf"),
        ("beats", "t_s", "nan"),
        ("pupil", "t_s", "nan"),
        ("pupil", "t_s", "-inf"),
        ("beats", "rr_ms", "1e200"),  # finite, but its SDNN overflows
    ])
    def test_non_finite_values_exit_3(self, tmp_path, capsys, stream, column, value, jsonl):
        paths = dict(zip(("beats", "pupil"), write_streams(tmp_path)))
        overwrite_rows(paths[stream], column, value)
        out = tmp_path / "frames.csv"
        argv = ["physio", "--beats", paths["beats"], "--pupil", paths["pupil"], "--out", str(out)]
        if jsonl:
            argv += ["--jsonl", str(tmp_path / "frames.jsonl")]
        assert main(argv) == 3
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["yes", "2", ""])
    def test_pupil_valid_flag_outside_its_values_exits_3(self, tmp_path, capsys, flag):
        beats, pupil = write_streams(tmp_path)
        overwrite_rows(pupil, "valid", flag, rows=slice(100, 101))
        out = tmp_path / "frames.csv"
        assert main(["physio", "--beats", beats, "--pupil", pupil, "--out", str(out)]) == 3
        assert f"bad row {{'t_s': '25.0', 'pupil_mm': " in capsys.readouterr().err
        assert not out.exists()

    def test_nan_pupil_diameter_is_cleansed_away(self, tmp_path):
        beats, pupil = write_streams(tmp_path)
        overwrite_rows(pupil, "pupil_mm", "nan")
        jsonl = tmp_path / "frames.jsonl"
        assert main(["physio", "--beats", beats, "--pupil", pupil,
                     "--out", str(tmp_path / "frames.csv"), "--jsonl", str(jsonl)]) == 0
        frames = list(load_jsonl(jsonl))[1:]
        assert [f["pupil_z"] for f in frames[25:45]] == [None] * 20  # samples 100..179
        assert all(f["pupil_z"] is not None for f in frames[:25] + frames[45:240])

    @pytest.mark.parametrize("command", ["physio", "monitor"])
    def test_epoch_second_beat_times_exit_3(self, tmp_path, capsys, command):
        # framing these would take one slot per second since 1970
        beats, pupil = write_streams(tmp_path)
        with open(beats, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(beats, "w", newline="") as fh:
            csv.writer(fh).writerows(
                [rows[0]] + [[repr(1.7e9 + float(t)), rr] for t, rr in rows[1:]])
        out = tmp_path / "out"
        argv = ["physio", "--out", str(out)] if command == "physio" else [
            "monitor", "--ticks", write_ticks(tmp_path / "ticks.jsonl"), "--out-dir", str(out)]
        assert main(argv + ["--beats", beats, "--pupil", pupil]) == 3
        assert "past one day" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jsonl", [False, True])
    def test_overflowing_pupil_z_exits_3(self, tmp_path, capsys, jsonl):
        beats, pupil = write_streams(tmp_path)
        out, frames = tmp_path / "frames.csv", tmp_path / "frames.jsonl"
        argv = ["physio", "--beats", beats, "--pupil", pupil, "--out", str(out),
                "--normalization", "reference", "--reference", "3.4", "1e-320"]
        if jsonl:
            argv += ["--jsonl", str(frames)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: second 0: pupil z is ") and err.count("\n") == 1
        assert not out.exists() and not frames.exists()

    def test_overflowing_sdnn_names_second_and_feature(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        overwrite_rows(beats, "rr_ms", "1e200", rows=slice(100, 101))
        assert main(["physio", "--beats", beats, "--pupil", pupil,
                     "--out", str(tmp_path / "frames.csv")]) == 3
        assert capsys.readouterr().err == "error: second 76: SDNN is inf ms, not a finite number\n"

    def test_manifest_records_window_and_reference(self, tmp_path):
        beats, pupil = write_streams(tmp_path)
        argv = ["physio", "--beats", beats, "--pupil", pupil, "--out", str(tmp_path / "f.csv")]
        runs = {
            "plain": [],
            "window": ["--normalization", "window", "--window", "0", "30"],
            "ref_a": ["--normalization", "reference", "--reference", "3.0", "0.3"],
            "ref_b": ["--normalization", "reference", "--reference", "3.6", "0.5"],
        }
        manifests = {}
        for name, extra in runs.items():
            path = tmp_path / f"{name}.json"
            assert main(argv + extra + ["--manifest", str(path)]) == 0
            manifests[name] = json.loads(path.read_text())["args"]
        assert "window" not in manifests["plain"] and "reference" not in manifests["plain"]
        assert manifests["window"]["window"] == [0.0, 30.0]
        assert manifests["ref_a"]["reference"] == [3.0, 0.3]
        assert manifests["ref_b"]["reference"] == [3.6, 0.5]


class TestMonitorCommand:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        ticks = write_ticks(tmp_path / "ticks.jsonl")
        out_dir = tmp_path / "mon"
        code = main([
            "monitor", "--beats", beats, "--pupil", pupil,
            "--ticks", ticks, "--out-dir", str(out_dir),
        ])
        assert code == 0
        assert "monitored 240 s" in capsys.readouterr().out
        for name in ("mwl.jsonl", "events.jsonl", "report.json", "manifest.json"):
            assert (out_dir / name).exists()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["ticks"] == 240
        assert report["compliance"] == 1.0

    def test_huge_interval_exits_3(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        overwrite_rows(beats, "rr_ms", "1e200", rows=slice(100, 101))
        out_dir = tmp_path / "mon"
        assert main(["monitor", "--beats", beats, "--pupil", pupil,
                     "--ticks", write_ticks(tmp_path / "ticks.jsonl"),
                     "--out-dir", str(out_dir)]) == 3
        assert "SDNN is" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_clamped_pupil_z_warns_in_plain_lines(self, tmp_path, capsys):
        # a reference far below the stream puts every second's z past the effort domain
        beats, pupil = write_streams(tmp_path)
        assert main(["monitor", "--beats", beats, "--pupil", pupil,
                     "--ticks", write_ticks(tmp_path / "ticks.jsonl"),
                     "--out-dir", str(tmp_path / "mon"),
                     "--normalization", "reference", "--reference", "2.0", "0.01"]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 240
        for line in lines:
            value = line.removeprefix("warning: partition effort: ").split(" ", 1)
            assert value[1] == "outside domain, clamped" and float(value[0]) > 0

    def test_demand_stream_and_determinism(self, tmp_path):
        beats, pupil = write_streams(tmp_path)
        ticks = write_ticks(tmp_path / "ticks.jsonl")
        demand = tmp_path / "demand.csv"
        with open(demand, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_s", "n1", "n2", "entropy"])
            for t in range(240):
                w.writerow([t, 3, 1, 0.6])
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code = main([
                "monitor", "--beats", beats, "--pupil", pupil, "--ticks", ticks,
                "--demand", str(demand), "--out-dir", str(out_dir),
            ])
            assert code == 0
            blobs.append(b"".join(
                (out_dir / n).read_bytes()
                for n in ("mwl.jsonl", "events.jsonl", "report.json", "manifest.json")
            ))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("column,value,message", [
        ("entropy", "nan", "finite"),
        ("entropy", "inf", "finite"),
        ("t_s", "inf", "bad row"),
    ])
    def test_non_finite_demand_exits_3(self, tmp_path, capsys, column, value, message):
        beats, pupil = write_streams(tmp_path)
        ticks = write_ticks(tmp_path / "ticks.jsonl")
        demand = tmp_path / "demand.csv"
        with open(demand, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t_s", "n1", "n2", "entropy"])
            for t in range(240):
                w.writerow([t, 12, 3, 0.6])
        overwrite_rows(demand, column, value, rows=slice(100, 101))
        out_dir = tmp_path / "mon"
        code = main(["monitor", "--beats", beats, "--pupil", pupil, "--ticks", ticks,
                     "--demand", str(demand), "--out-dir", str(out_dir)])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_infinite_tick_time_exits_3(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        ticks = tmp_path / "ticks.jsonl"
        ticks.write_text('{"t": Infinity, "at": {"watch": 1}, "ot": {"watch": 1}, "perf": 0.9}\n')
        code = main(["monitor", "--beats", beats, "--pupil", pupil, "--ticks", str(ticks),
                     "--out-dir", str(tmp_path / "mon")])
        assert code == 3
        assert "bad record" in capsys.readouterr().err

    @pytest.mark.parametrize("second,shown,message", [
        # a t of 1.9 read as second 1, and "2" as second 2
        ('{"t": 1.9, "at": {"a": 1}, "ot": {"a": 1}, "perf": "0.5"}', "'t': 1.9",
         "t is not an integer"),
        ('{"t": 1, "at": {"a": 1}, "ot": {"a": 1}, "perf": 0.5}', "'t': '2'",
         "t is not an integer"),
        ('{"t": true, "at": {"a": 1}, "ot": {"a": 1}, "perf": 0.5}', "'t': True",
         "t is not an integer"),
        ('{"t": 1, "at": [["a", 1]], "ot": {"a": 1}, "perf": 0.5}', "'at': [['a', 1]]",
         "at and ot must be JSON objects"),
        ('{"t": 1, "at": {"a": 0}, "ot": [], "perf": 0.5}', "'ot': []",
         "at and ot must be JSON objects"),
        # perf, at and ot values are taken as written, never coerced
        ('{"t": 1, "at": {"a": 1}, "ot": {"a": 1}, "perf": "0.5"}', "'perf': '0.5'",
         "perf is not a number"),
        ('{"t": 1, "at": {"a": 1}, "ot": {"a": 1}, "perf": true}', "'perf': True",
         "perf is not a number"),
        ('{"t": 1, "at": {"a": 1}, "ot": {"a": 1}, "perf": " 1e-1 "}', "'perf': ' 1e-1 '",
         "perf is not a number"),
        ('{"t": 1, "at": {"a": 1}, "ot": {"a": 1}, "perf": null}', "'perf': None",
         "perf is not a number"),
        ('{"t": 1, "at": {"a": 1}, "ot": {"a": 1}}', "'ot': {'a': 1}}",
         "perf is not a number"),
        ('{"t": 1, "at": {"a": true}, "ot": {"a": 1}, "perf": 0.5}', "'at': {'a': True}",
         "tick t=1: at values must be the integers 0 or 1"),
        ('{"t": 1, "at": {"a": 1}, "ot": {"a": 1.0}, "perf": 0.5}', "'ot': {'a': 1.0}",
         "tick t=1: ot values must be the integers 0 or 1"),
        ('{"t": 1, "at": {"a": 2}, "ot": {"a": 1}, "perf": 0.5}', "'at': {'a': 2}",
         "tick t=1: at values must be the integers 0 or 1"),
    ], ids=["fractional t", "string t", "boolean t", "list at", "list ot", "string perf",
            "boolean perf", "padded string perf", "null perf", "missing perf", "boolean at",
            "float ot", "at of 2"])
    def test_malformed_tick_exits_3(self, tmp_path, capsys, second, shown, message):
        beats, pupil = write_streams(tmp_path)
        ticks = tmp_path / "ticks.jsonl"
        ticks.write_text('{"t": 0, "at": {"a": 1}, "ot": {"a": 1}, "perf": 0.9}\n' + second
                         + '\n{"t": "2", "at": {"a": 1}, "ot": {"a": 1}, "perf": 0.9}\n')
        code = main(["monitor", "--beats", beats, "--pupil", pupil, "--ticks", str(ticks),
                     "--out-dir", str(tmp_path / "mon")])
        assert code == 3
        err = capsys.readouterr().err
        assert f"stream 'ticks' ({ticks}): bad record" in err
        assert shown in err and message in err
        assert not (tmp_path / "mon").exists()

    def test_window_normalization_is_not_a_choice(self, tmp_path, capsys):
        # monitor has no --window to anchor it
        beats, pupil = write_streams(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["monitor", "--beats", beats, "--pupil", pupil,
                  "--ticks", write_ticks(tmp_path / "ticks.jsonl"),
                  "--out-dir", str(tmp_path / "mon"), "--normalization", "window"])
        assert exc.value.code == 2
        assert "invalid choice: 'window'" in capsys.readouterr().err
        assert not (tmp_path / "mon").exists()

    def test_ticks_line_not_json_exits_3(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        ticks = write_ticks(tmp_path / "ticks.jsonl")
        with open(ticks, "a") as fh:
            fh.write("{not json\n")
        code = main(["monitor", "--beats", beats, "--pupil", pupil, "--ticks", ticks,
                     "--out-dir", str(tmp_path / "mon")])
        assert code == 3
        assert "line 241" in capsys.readouterr().err

    def test_ticks_line_nested_too_deep_exits_3(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        ticks = tmp_path / "ticks.jsonl"
        ticks.write_text("[" * 100_000 + "\n")
        code = main(["monitor", "--beats", beats, "--pupil", pupil, "--ticks", str(ticks),
                     "--out-dir", str(tmp_path / "mon")])
        assert code == 3
        assert "line 1" in capsys.readouterr().err

    def test_ticks_integer_past_digit_limit_exits_3(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        ticks = tmp_path / "ticks.jsonl"
        ticks.write_text('{"t": ' + "1" * 5000 + ', "at": {}, "ot": {}, "perf": 0.5}\n')
        code = main(["monitor", "--beats", beats, "--pupil", pupil, "--ticks", str(ticks),
                     "--out-dir", str(tmp_path / "mon")])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 1: not JSON (" in err and err.count("\n") == 1

    def test_missing_ticks_file_exits_3(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        code = main(["monitor", "--beats", beats, "--pupil", pupil,
                     "--ticks", str(tmp_path / "absent.jsonl"), "--out-dir", str(tmp_path / "mon")])
        assert code == 3
        assert "absent.jsonl" in capsys.readouterr().err

    def test_disjoint_streams_exit_3(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        ticks = tmp_path / "ticks.jsonl"
        dump_jsonl(
            [{"t": t, "at": {"watch": 0}, "ot": {}, "perf": 1.0} for t in range(5000, 5050)],
            ticks,
        )
        code = main(["monitor", "--beats", beats, "--pupil", pupil,
                     "--ticks", str(ticks), "--out-dir", str(tmp_path / "mon")])
        assert code == 3
        assert "overlap" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["performance", "effort"])
    def test_net_without_a_partition_exits_2(self, tmp_path, monkeypatch, capsys, missing):
        from importlib.resources import files

        net = json.loads(files("oft.data").joinpath("mwl_net.json").read_text())
        del net["partitions"][missing]
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"fusion_net": str(net_path)}))
        beats, pupil = write_streams(tmp_path)
        ticks = write_ticks(tmp_path / "ticks.jsonl")
        code = main(["--config", str(settings), "monitor", "--beats", beats, "--pupil", pupil,
                     "--ticks", ticks, "--out-dir", str(tmp_path / "mon")])
        assert code == 2
        assert missing in capsys.readouterr().err
        # the simulator reads the same file the same way
        code = main(["--config", str(settings), "simulate", "--duration", "60",
                     "--log", str(tmp_path / "run.jsonl")])
        assert code == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("section,name,labels", [
        ("children", "effort", "lmh"),
        ("partitions", "effort", "lmh"),
        ("partitions", "performance", ["poor", "bad", "good"]),
    ])
    def test_net_with_bad_labels_exits_2(self, tmp_path, capsys, section, name, labels):
        net = json.loads((DATA / "mwl_net.json").read_text())
        net[section][name]["labels"] = labels
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"fusion_net": str(net_path)}))
        beats, pupil = write_streams(tmp_path)
        ticks = write_ticks(tmp_path / "ticks.jsonl")
        code = main(["--config", str(settings), "monitor", "--beats", beats, "--pupil", pupil,
                     "--ticks", ticks, "--out-dir", str(tmp_path / "mon")])
        assert code == 2
        assert f"{name}: labels" in capsys.readouterr().err

    @staticmethod
    def settings_with_net(tmp_path, edit):
        """A settings file naming the bundled network as `edit` leaves it."""
        net = json.loads((DATA / "mwl_net.json").read_text())
        edit(net)
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"fusion_net": str(net_path)}))
        return str(settings)

    def test_net_without_the_behaviour_child_exits_2(self, tmp_path, capsys):
        settings = self.settings_with_net(tmp_path, lambda net: net["children"].pop("behaviour"))
        log = tmp_path / "run.jsonl"
        assert main(["--config", settings, "simulate", "--duration", "60", "--log", str(log)]) == 2
        assert capsys.readouterr().err == "error: fusion model must carry a child 'behaviour'\n"
        assert not log.exists()

    def test_net_with_renamed_constraint_labels_exits_2(self, tmp_path, capsys):
        def rename(net):
            net["children"]["constraint"]["labels"] = ["low", "medium", "high"]

        settings = self.settings_with_net(tmp_path, rename)
        log = tmp_path / "run.jsonl"
        assert main(["--config", settings, "simulate", "--duration", "60", "--log", str(log)]) == 2
        assert capsys.readouterr().err == (
            "error: fusion model: child 'constraint' lacks labels ['td1', 'td2', 'td3']\n")
        assert not log.exists()

    def test_net_without_the_constraint_child_exits_2_only_with_demand(self, tmp_path, capsys):
        settings = self.settings_with_net(tmp_path, lambda net: net["children"].pop("constraint"))
        beats, pupil = write_streams(tmp_path)
        ticks = write_ticks(tmp_path / "ticks.jsonl")
        demand = tmp_path / "demand.csv"
        demand.write_text("t_s,n1,n2,entropy\n" + "".join(f"{t},1,0,0.5\n" for t in range(240)))
        argv = ["--config", settings, "monitor", "--beats", beats, "--pupil", pupil,
                "--ticks", ticks, "--out-dir", str(tmp_path / "mon")]
        assert main(argv + ["--demand", str(demand)]) == 2
        assert capsys.readouterr().err == "error: fusion model must carry a child 'constraint'\n"
        assert not (tmp_path / "mon").exists()
        assert main(argv) == 0

    def test_net_with_an_unknown_partition_key_exits_2(self, tmp_path, capsys):
        net = json.loads((DATA / "mwl_net.json").read_text())
        net["partitions"]["effort"]["domian"] = [-6.0, 6.0]
        net_path = tmp_path / "net.json"
        net_path.write_text(json.dumps(net))
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"fusion_net": str(net_path)}))
        beats, pupil = write_streams(tmp_path)
        ticks = write_ticks(tmp_path / "ticks.jsonl")
        code = main(["--config", str(settings), "monitor", "--beats", beats, "--pupil", pupil,
                     "--ticks", ticks, "--out-dir", str(tmp_path / "mon")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: workload network config: ") and "'domian'" in err
        assert not (tmp_path / "mon").exists()


class TestClassifyCommands:
    def test_train_predict_cv(self, tmp_path, capsys):
        data = write_dataset(tmp_path / "data.csv")
        model_path = tmp_path / "model.json"
        assert main(["classify", "train", "--data", data,
                     "--model-out", str(model_path), "--kind", "knn", "--k", "3"]) == 0
        pred_path = tmp_path / "pred.csv"
        assert main(["classify", "predict", "--model", str(model_path),
                     "--data", data, "--out", str(pred_path)]) == 0
        with open(pred_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        assert set(rows[0]) == {"row", "subject", "label"}
        # the model was trained on the folded low/high labels
        assert {r["label"] for r in rows} <= {"0", "1"}

        report_path = tmp_path / "cv.json"
        assert main(["classify", "cv", "--data", data, "--scheme", "per-subject-75-25",
                     "--report", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        report = json.loads(report_path.read_text())
        assert report["scheme"].startswith("per-subject")
        assert report["accuracy"] >= 0.9
        assert report["n_train"] + report["n_test"] == 120

    def test_cv_test_subjects_drop_blank_items(self, tmp_path):
        data = write_dataset(tmp_path / "data.csv")
        reports = []
        for subjects in ("s1,s3", "s1,,s3,", " s3 , s1 "):
            report = tmp_path / "cv.json"
            assert main(["classify", "cv", "--data", data, "--scheme", "leave-subjects-out",
                         f"--test-subjects={subjects}", "--report", str(report)]) == 0
            reports.append(report.read_text())
        assert reports[0] == reports[1] == reports[2]
        assert "held out ['s1', 's3']" in json.loads(reports[0])["scheme"]

    def test_raw_labels_kept_when_asked(self, tmp_path):
        data = write_dataset(tmp_path / "data.csv")
        model_path = tmp_path / "model.json"
        assert main(["classify", "train", "--data", data, "--model-out", str(model_path),
                     "--raw-labels"]) == 0
        pred_path = tmp_path / "pred.csv"
        assert main(["classify", "predict", "--model", str(model_path),
                     "--data", data, "--out", str(pred_path)]) == 0
        with open(pred_path, newline="") as fh:
            labels = {r["label"] for r in csv.DictReader(fh)}
        assert labels == {"1", "2", "3"}

    def test_leave_subjects_out(self, tmp_path):
        data = write_dataset(tmp_path / "data.csv")
        report_path = tmp_path / "cv.json"
        assert main(["classify", "cv", "--data", data, "--scheme", "leave-subjects-out",
                     "--test-subjects", "s1,s3", "--report", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["n_test"] == 60

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["train", "--kind", "rf"], ["train", "--kind", "knn"], ["cv", "--kind", "rf"],
        ["predict"],
    ], ids=["train-rf", "train-knn", "cv-rf", "predict"])
    def test_non_finite_feature_exits_3(self, tmp_path, capsys, argv, value):
        model = _trained_model(tmp_path)
        data = write_dataset(tmp_path / "bad.csv")
        overwrite_rows(data, "hrv", value, rows=slice(7, 8))
        outputs = {"train": ["--model-out", tmp_path / "m.json"], "cv": [],
                   "predict": ["--model", model, "--out", tmp_path / "pred.csv"]}
        argv = ["classify", argv[0], "--data", data, *outputs[argv[0]], *argv[1:]]
        assert main([str(a) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite feature" in err and f"'hrv': '{value}'" in err
        assert not (tmp_path / "m.json").exists() and not (tmp_path / "pred.csv").exists()

    def test_empty_dataset_exits_3(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("subject,t_s,hrv,pupil_z,td\n")
        code = main(["classify", "train", "--data", str(data),
                     "--model-out", str(tmp_path / "m.json")])
        assert code == 3


    @pytest.mark.parametrize("values", [
        ["1e-300", "1.0000000000000002e-300"] * 3,  # their midpoint rounds up to the larger
        ["1", "2", "1e308", "1.5e308", "1.6e308", "3"],  # 1e308 + 1.5e308 overflows
    ], ids=["adjacent-floats", "near-the-float-limit"])
    def test_forest_splits_neighbouring_and_huge_values(self, tmp_path, values):
        data = tmp_path / "data.csv"
        data.write_text("subject,t_s,hrv,pupil_z,td\n" + "".join(
            f"s1,{t},{v},{v},{1 + t % 2}\n" for t, v in enumerate(values)))
        model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
        assert main(["classify", "train", "--kind", "rf", "--data", str(data),
                     "--model-out", str(model)]) == 0
        assert isinstance(load_model(model), ForestModel)
        assert main(["classify", "predict", "--model", str(model), "--data", str(data),
                     "--out", str(pred)]) == 0
        with open(pred, newline="") as fh:
            assert [r["label"] for r in csv.DictReader(fh)] == ["0", "1"] * 3

    @pytest.mark.parametrize("raw", [[], ["--raw-labels"]], ids=["folded", "raw"])
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_label_beyond_int64_exits_3(self, tmp_path, capsys, command, raw):
        data = write_dataset(tmp_path / "data.csv")
        overwrite_rows(data, "td", str(10**20), rows=slice(5, 6))
        out = tmp_path / "out.json"
        argv = ["classify", command, "--data", data, *raw,
                "--model-out" if command == "train" else "--report", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "label outside the 64-bit integer range" in err and f"'td': '{10**20}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("metric", ["euclidean", "squared_euclidean"])
    def test_knn_distance_overflow_exits_3(self, tmp_path, capsys, metric):
        data = write_dataset(tmp_path / "data.csv", n_per=12)
        overwrite_rows(data, "hrv", "1e308", rows=slice(2, 30, 12))
        overwrite_rows(data, "hrv", "-1e308", rows=slice(7, 8))
        out = tmp_path / "report.json"
        argv = ["classify", "cv", "--data", data, "--kind", "knn", "--k", "5",
                "--metric", metric, "--raw-labels", "--report", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: knn: the ") and err.endswith("to its neighbour number 5 overflows\n")
        assert not out.exists()


def write_fixed_dataset(path):
    """120 rows from integer arithmetic alone: the same bytes everywhere."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["subject", "t_s", "hrv", "pupil_z", "td"])
        for i in range(120):
            hrv = 30 + (i * 37) % 41
            pupil = (i * 53) % 29 - 14
            td = 1 + ((hrv - 30) // 14 + (i % 5 == 0) + (pupil > 8)) % 3
            w.writerow([f"s{i % 4}", i, f"{hrv}.{(i * 13) % 10}", f"{pupil / 10}", td])
    return str(path)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# written by the per-threshold tree builder and per-row forest voter
MODEL_SHA256 = "82e09d52c4cf4bab355f43daea56d8aa73f0d27afc0303221c141adaddd68043"
PREDICT_SHA256 = "258646342ed333c81b1a219645b0b196b12b7399b85dc34c8452d58ef0603b75"
CV_REPORT_SHA256 = "e41f0ee30218ab2794df754e8b1f556132010c25a4ae7b09f0012036fa056c3c"


class TestClassifyDigests:
    """Forest training, prediction and cross-validation write the same bytes
    as the per-threshold builder and per-row voter they replaced."""

    def test_forest_outputs(self, tmp_path):
        data = write_fixed_dataset(tmp_path / "data.csv")
        model, pred, report = tmp_path / "model.json", tmp_path / "pred.csv", tmp_path / "cv.json"
        assert main(["classify", "train", "--data", data, "--model-out", str(model),
                     "--kind", "rf", "--raw-labels"]) == 0
        assert main(["classify", "predict", "--model", str(model), "--data", data,
                     "--out", str(pred)]) == 0
        assert main(["classify", "cv", "--data", data, "--scheme", "leave-subjects-out",
                     "--kind", "rf", "--trees", "9", "--seed", "3", "--report", str(report)]) == 0
        assert sha256(model) == MODEL_SHA256
        assert sha256(pred) == PREDICT_SHA256
        assert sha256(report) == CV_REPORT_SHA256


def write_fixed_recording(folder, duration=300):
    """Beats, 4 Hz pupil, ticks and demand from integer arithmetic alone.

    The pupil has blinks, invalid samples and a dropout; perf and the pupil
    level sweep the fuzzy overlaps; task activity makes every kind of
    regulation event; demand skips every 13th second.
    """
    beats, pupil, ticks, demand = (folder / n for n in
                                   ("beats.csv", "pupil.csv", "ticks.jsonl", "demand.csv"))
    with open(beats, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "rr_ms"])
        t_ms = 0
        for i in range(duration * 2):
            rr = 650 + (i * 37) % 211 + 40 * ((i // 90) % 3)
            t_ms += rr
            if t_ms >= duration * 1000:
                break
            w.writerow([f"{t_ms // 1000}.{t_ms % 1000:03d}", rr])
    with open(pupil, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "pupil_mm", "valid"])
        for i in range(duration * 4):
            if 400 <= i < 416:
                continue  # a four-second dropout
            mm = 300 + 40 * ((i // 160) % 5) + (i * 7) % 23
            mm = 0 if i % 97 == 0 else mm  # blinks
            w.writerow([f"{i // 4}.{(i % 4) * 25:02d}", f"{mm // 100}.{mm % 100:02d}",
                        int(i % 53 != 0)])
    records = []
    for t in range(duration):
        at = {"A": int((t // 7) % 3 != 0), "B": int((t // 5) % 4 < 2), "C": int(t % 11 < 6)}
        ot = {task: int((t * (3 + n)) % 5 < 3) for n, task in enumerate(at) if at[task]}
        records.append({"t": t, "at": at, "ot": ot, "perf": ((t * 13) % 101) / 100})
    dump_jsonl(records, ticks)
    with open(demand, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "n1", "n2", "entropy"])
        for t in range(duration):
            if t % 13 != 5:
                w.writerow([t, (t * 3) % 17, (t // 11) % 5, ((t * 17) % 250) / 100])
    return str(beats), str(pupil), str(ticks), str(demand)


# written by the fixed-order posterior (labels summed left to right in
# Python floats, as numpy's OpenBLAS did only on CPUs without FMA) and the
# csv.reader input path; the manifests of the two reference runs record
# their --reference
MONITOR_SHA256 = {
    ("session", False): "3d5cf08d2c5b905721ecc04dbe411b74c9c4d0c4d2501de00577e12ec18b3cfb",
    ("session", True): "79014601849d2a50a88f86cad3394a268d9b7d8efedaccfe7329e9fe727a5d4d",
    ("reference", False): "309a8be6434a2d47f7275496a4c403c3a93ba5a81c766c47460b4545e6f14998",
    ("reference", True): "591e43073e18c6bc2725d9e7bb66aff3ef8f9944096e0f7503ee9c03eeba2c21",
}
SIMULATE_SHA256 = {
    (2, "off"): "271c16968b111dfa78c6910d65f0b8f4be900b2ab66413939247eb844cbd36f1",
    (2, "on"): "fedce421b6f19cce2320c24435fcbc9701e9c93983f23cfb532f007f6b2bd22a",
    (9, "off"): "594c0ea95cff7dbe89678f5ef985de79faaa86d94b8db342143f577d5efa5e7c",
    (9, "on"): "56f20cbaf7846c6d4160e14e083755c6dcaed59d53970e19cfff3c42afcf3d4d",
}

# 1200 s sessions that reach the automation's machine pass (seeds 2 and 9,
# counts in the summary) and the prioritizer's load shedding (seed 5)
FULL_SESSION_SHA256 = {
    ("degrading-overload", 2): "44eec73084fba8d71950268b16bc01036de8af7312bb775e11b253af76429c27",
    ("degrading-overload", 9): "4c12c57999e6d948dcccff2a082f3c6e91a0c5fb97edd8d4054264d506a27c42",
    ("prioritizer", 5): "32f3ac2b5dbfcc30306f1be9c27a0762a8618a6b878b2f855c6a92acb994c05d",
}
# long sessions, degrading-overload, seed 1, by --dfa and duration: 4800 s,
# four times the length of every other pinned session, and 19200 s
LONG_SESSION_SHA256 = {
    ("off", 4800): "55e96c09f1e702d5ca641bcedb733b04088d9f4d4295e6a990f5f9e478cdacc3",
    ("on", 4800): "2159bf9057f857742648bf1819905e4428edfabdc209581374f42ee9cefbb811",
    ("on", 19200): "15e3d2323bd958b8b9421db4770aeea0ebce3b24e3cbf5e48e81e5aca566362d",
}
MACHINE_DONE = {2: {"ManageEmptyZone": 11, "InspectLock": 1},
                9: {"ManageEmptyZone": 4, "InspectLock": 8}}

# 1200 s sessions of the two operators the pins above leave out, seed 1,
# and one endtoend report: they pin the scenario's fixed rates, periods,
# budgets and pupil reference as a whole run sees them
CALM_SESSION_SHA256 = {
    ("diligent", "off"): "20f4c79b553c51c1b547a0d9cfcbff9da046de37ba5ca570075dafe1625a54da",
    ("diligent", "on"): "23bf2b695c361b9b5eea8fb0c3d4a5784cb7c5befda677b1d253984e7f2c2025",
    ("flat", "off"): "0f93c6d7ec6c1a932c4b1f5fdcfbcf80e5c1f6162d43633514161941bd88f465",
    ("flat", "on"): "8373993a364b233c0c4a9dea0690335f41e15fec868b0b4dd3f35e29dde08d4d",
}
# degrading-overload, seed 1, --dfa on, 1200 s
ENDTOEND_SHA256 = "bc56f7ae9ff9d33bfd31468d530436c87741b39eb9656257623d4f41802d7c7f"


class TestFusionDigests:
    """Offline monitoring and the closed loop write the same bytes as the
    fusion and CSV input paths they replaced."""

    @pytest.mark.parametrize("normalization,with_demand", list(MONITOR_SHA256))
    def test_monitor_outputs(self, tmp_path, normalization, with_demand):
        beats, pupil, ticks, demand = write_fixed_recording(tmp_path)
        out = tmp_path / "mon"
        argv = ["monitor", "--beats", beats, "--pupil", pupil, "--ticks", ticks,
                "--out-dir", str(out), "--normalization", normalization]
        if normalization == "reference":
            argv += ["--reference", "3.2", "0.3"]
        if with_demand:
            argv += ["--demand", demand]
        assert main(argv) == 0
        blob = b"".join((out / n).read_bytes()
                        for n in ("mwl.jsonl", "events.jsonl", "report.json", "manifest.json"))
        assert hashlib.sha256(blob).hexdigest() == MONITOR_SHA256[(normalization, with_demand)]

    def test_monitor_outputs_on_two_blas_kernels(self, tmp_path):
        """`oft monitor` writes the same bytes with OpenBLAS's kernel for this
        CPU as with its Sandybridge kernel, which has no fused multiply-add.
        With a numpy not built on OpenBLAS, OPENBLAS_CORETYPE does nothing
        and this test proves nothing."""
        beats, pupil, ticks, demand = write_fixed_recording(tmp_path)
        out = tmp_path / "mon"
        argv = ["monitor", "--beats", beats, "--pupil", pupil, "--ticks", ticks,
                "--demand", demand, "--out-dir", str(out)]
        code = "import sys; from oft.cli import main; raise SystemExit(main(sys.argv[1:]))"
        blobs = []
        for coretype in (None, "Sandybridge"):
            env = src_env()
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                           capture_output=True)
            blobs.append(b"".join((out / n).read_bytes()
                                  for n in ("mwl.jsonl", "events.jsonl", "report.json")))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("seed,dfa", list(SIMULATE_SHA256))
    def test_simulate_log(self, tmp_path, seed, dfa):
        log = tmp_path / "run.jsonl"
        assert main(["simulate", "--operator", "degrading-overload", "--seed", str(seed),
                     "--dfa", dfa, "--duration", "240", "--log", str(log)]) == 0
        assert sha256(log) == SIMULATE_SHA256[(seed, dfa)]

    @pytest.mark.parametrize("operator,seed", list(FULL_SESSION_SHA256))
    def test_full_session_log(self, tmp_path, operator, seed):
        log = tmp_path / "run.jsonl"
        assert main(["simulate", "--operator", operator, "--seed", str(seed),
                     "--dfa", "on", "--duration", "1200", "--log", str(log)]) == 0
        assert sha256(log) == FULL_SESSION_SHA256[(operator, seed)]
        summary = list(load_jsonl(log))[-1]
        for task, count in MACHINE_DONE.get(seed, {}).items():
            assert summary["machine_done"][task] == count

    @pytest.mark.parametrize("dfa,duration", list(LONG_SESSION_SHA256),
                             ids=[dfa if duration == 4800 else f"{dfa}-{duration}"
                                  for dfa, duration in LONG_SESSION_SHA256])
    def test_long_session_log(self, tmp_path, dfa, duration):
        log = tmp_path / "run.jsonl"
        assert main(["simulate", "--operator", "degrading-overload", "--seed", "1",
                     "--dfa", dfa, "--duration", str(duration), "--log", str(log)]) == 0
        assert sha256(log) == LONG_SESSION_SHA256[(dfa, duration)]

    @pytest.mark.parametrize("operator,dfa", list(CALM_SESSION_SHA256))
    def test_calm_session_log(self, tmp_path, operator, dfa):
        log = tmp_path / "run.jsonl"
        assert main(["simulate", "--operator", operator, "--seed", "1",
                     "--dfa", dfa, "--duration", "1200", "--log", str(log)]) == 0
        assert sha256(log) == CALM_SESSION_SHA256[(operator, dfa)]

    def test_endtoend_report(self, tmp_path):
        report = tmp_path / "report.json"
        assert main(["endtoend", "--operator", "degrading-overload", "--seed", "1",
                     "--dfa", "on", "--duration", "1200", "--report", str(report)]) == 0
        assert sha256(report) == ENDTOEND_SHA256


@pytest.mark.usefixtures("sum_as_in_python_3_12")
class TestFusionDigestsUnderCompensatingSum(TestFusionDigests):
    """The same bytes when builtin sum() adds floats as Python 3.12's does,
    with Neumaier's compensation: no output rests on sum()."""

    test_monitor_outputs_on_two_blas_kernels = None  # child interpreters, unshadowed


class TestCocomCommands:
    def test_code_trace(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "trace.csv")
        out = tmp_path / "coded.csv"
        assert main(["cocom", "code", "--trace", trace, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "low: TACTICAL" in printed
        assert "high: STRATEGIC" in printed
        with open(out, newline="") as fh:
            coded = {r["period"]: r["mode"] for r in csv.DictReader(fh)}
        assert coded == {"low": "TACTICAL", "high": "STRATEGIC"}

    def test_nan_level_exits_3(self, tmp_path, capsys):
        trace = write_trace(tmp_path / "trace.csv")
        overwrite_rows(trace, "tank_a", "nan", rows=slice(10, 11))
        out = tmp_path / "coded.csv"
        assert main(["cocom", "code", "--trace", trace, "--out", str(out)]) == 3
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_transitions_bundled_roster(self, tmp_path):
        out = tmp_path / "transitions.json"
        assert main(["cocom", "transitions", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["participants"] == 56
        assert payload["first_period_marginals"] == [4, 3, 26, 23]
        assert payload["second_period_marginals"] == [15, 10, 3, 28]

    @pytest.mark.parametrize("command,stream,header", [
        ("code", "trace", "t_s,tank_a,tank_b,period"),
        ("transitions", "roster", "participant,mode_low,mode_high"),
    ])
    def test_header_only_input_exits_3(self, tmp_path, capsys, command, stream, header):
        path = tmp_path / f"{stream}.csv"
        path.write_text(header + "\n")
        out = tmp_path / "out.csv"
        assert main(["cocom", command, f"--{stream}", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: stream '{stream}' ({path}): empty\n"
        assert not out.exists()

    def test_transitions_custom_roster(self, tmp_path):
        roster = tmp_path / "roster.csv"
        roster.write_text(
            "participant,mode_low,mode_high\n"
            "p1,TACTICAL,TACTICAL\n"
            "p2,TACTICAL,STRATEGIC\n"
            "p3,SCRAMBLED,OPPORTUNISTIC\n"
        )
        out = tmp_path / "transitions.json"
        assert main(["cocom", "transitions", "--roster", str(roster), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["participants"] == 3
        assert sum(sum(row) for row in payload["counts"]) == 3


class TestDfaCommands:
    def test_check_feasible_situations(self, capsys):
        assert main(["dfa", "check", "--situations", "S1,S4,S6"]) == 0
        out = capsys.readouterr().out
        assert "F1-H" in out and "F4-H" in out
        assert "feasible: yes" in out

    def test_check_prints_the_prerequisites_of_two_conditionals(self, tmp_path, capsys):
        model = {
            "functions": ["A", "B"],
            "resources": ["H", "M"],
            "couples": ["A-H", "A-M", "B-H"],
            "situations": {"S1": {"expected": ["A-H"], "optional": ["A-M", "B-H"]}},
            "constraints": [
                {"kind": "conditional", "couple": "B-H", "requires": ["A-M"]},
                {"kind": "conditional", "couple": "B-H", "requires": ["A-H"]},
            ],
            "costs": {"w": {"A-H": 1.0, "A-M": 2.0, "B-H": 0.5}},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["dfa", "check", "--model", str(path), "--situations", "S1"]) == 0
        assert capsys.readouterr().out == (
            "min config:\n  A-H\npot:\n  A-H\n  A-M\n  B-H if A-M and A-H\nfeasible: yes\n"
        )

    def test_check_infeasible_exits_4(self, capsys):
        assert main(["dfa", "check", "--situations", "S2,S7,S8"]) == 4
        out = capsys.readouterr().out
        assert "feasible: no" in out
        assert "F2" in out

    def test_solve_two_criteria(self, capsys):
        assert main(["dfa", "solve", "--situations", "S1,S4,S6",
                     "--criterion", "rider_load"]) == 0
        assert "cost 3" in capsys.readouterr().out
        assert main(["dfa", "solve", "--situations", "S1,S4,S6",
                     "--criterion", "energy"]) == 0
        out = capsys.readouterr().out
        assert "F1-H F4-H" in out and "cost 0" in out

    def test_solve_needs_a_target(self):
        assert main(["dfa", "solve", "--criterion", "energy"]) == 2

    def test_solve_infeasible_prints_core(self, capsys):
        assert main(["dfa", "solve", "--situations", "S2,S7,S8",
                     "--criterion", "energy"]) == 4
        err = capsys.readouterr().err
        assert "infeasible:" in err
        assert "core:" in err

    def test_solve_without_history_warns_in_one_fixed_line(self, tmp_path, capsys):
        model = {
            "functions": ["A", "B"],
            "resources": ["H", "M"],
            "couples": ["A-H", "A-M", "B-H"],
            "constraints": [{"kind": "antecedence", "couple": "B-H", "after": ["A-H"]}],
            "situations": {"S2": {"expected": ["A-M", "B-H"]}},
            "costs": {"w": {"A-H": 1.0, "A-M": 2.0, "B-H": 0.5}},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        for _ in range(2):  # the warning is not shown once per process only
            assert main(["dfa", "solve", "--model", str(path), "--situations", "S2",
                         "--criterion", "w"]) == 0
            captured = capsys.readouterr()
            assert captured.err == (
                "warning: ignoring antecedence constraint on B-H: no scenario history\n")
            assert captured.out == "solution: A-M B-H (cost 2.5)\n"

    def test_steps_sequence(self, capsys):
        assert main(["dfa", "solve", "--steps", "S1;S1,S4", "--criterion", "energy"]) == 0
        out = capsys.readouterr().out
        assert "step 1:" in out and "step 2:" in out

    @pytest.mark.parametrize("argv,message", [
        (["check", "--situations= , "], "--situations must name at least one situation"),
        (["solve", "--steps=;;", "--criterion", "energy"], "--steps must name at least one step"),
        (["solve", "--steps=S1; , ;S4", "--criterion", "energy"],
         "--steps must name at least one situation"),
        (["solve", "--situations=", "--criterion", "energy"],
         "--situations must name at least one situation"),
        (["solve", "--steps=", "--criterion", "energy"], "--steps must name at least one step"),
    ], ids=["situations", "steps", "one step", "empty solve situations", "empty steps"])
    def test_ids_left_blank_exit_2(self, capsys, argv, message):
        assert main(["dfa", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_custom_model_file(self, tmp_path, capsys):
        model = {
            "functions": ["A", "B"],
            "resources": ["H"],
            "couples": ["A-H", "B-H"],
            "situations": {"S1": {"expected": ["A-H"], "optional": ["B-H"]}},
            "costs": {"w": {"A-H": 1.0, "B-H": 2.0}},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["dfa", "solve", "--model", str(path),
                     "--situations", "S1", "--criterion", "w"]) == 0
        assert "A-H" in capsys.readouterr().out

    def test_unknown_situation_exits_3(self, capsys):
        assert main(["dfa", "check", "--situations", "S99"]) == 3
        assert "S99" in capsys.readouterr().err

    def test_unknown_constraint_kind_exits_2(self, tmp_path, capsys):
        model = {
            "functions": ["A", "B"],
            "resources": ["H"],
            "couples": ["A-H", "B-H"],
            "situations": {"S1": {"expected": ["A-H"], "optional": ["B-H"]}},
            "constraints": [{"kind": "exclusiv", "couples": ["A-H", "B-H"]}],
            "costs": {"w": {"A-H": 1.0, "B-H": 2.0}},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["dfa", "check", "--model", str(path), "--situations", "S1"]) == 2
        captured = capsys.readouterr()
        assert "exclusiv" in captured.err
        assert "feasible" not in captured.out

    @pytest.mark.parametrize("constraint,field", [
        ({"kind": "binary", "couple": "B-H", "allowed": "false"}, "allowed"),
        ({"kind": "binary", "couple": "B-H", "allowed": 0}, "allowed"),
        ({"kind": "capacity", "resource": "H", "max_functions": "1"}, "max_functions"),
        ({"kind": "capacity", "resource": "H", "max_functions": True}, "max_functions"),
        ({"kind": "capacity", "resource": "H", "max_functions": -1}, "max_functions"),
    ])
    def test_mistyped_constraint_field_exits_2(self, tmp_path, capsys, constraint, field):
        model = {
            "functions": ["A", "B"],
            "resources": ["H"],
            "couples": ["A-H", "B-H"],
            "situations": {"S1": {"expected": ["A-H"], "optional": ["B-H"]}},
            "constraints": [constraint],
            "costs": {"w": {"A-H": 1.0, "B-H": -2.0}},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["dfa", "solve", "--model", str(path),
                     "--situations", "S1", "--criterion", "w"]) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert "solution" not in captured.out

    @pytest.mark.parametrize("command", [["check"], ["solve", "--criterion", "rider_load"]])
    @pytest.mark.parametrize("case", BAD_CONSTRAINTS)
    def test_malformed_constraint_exits_2(self, tmp_path, capsys, command, case):
        model = json.loads((EXAMPLES / "bike.json").read_text())
        model["constraints"], message = BAD_CONSTRAINTS[case]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        assert main(["dfa", *command, "--model", str(path), "--situations", "S1,S4,S6"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("command", [["check"], ["solve", "--criterion", "rider_load"]])
    @pytest.mark.parametrize("case,message", [
        ("situations as a list", "'list' object has no attribute 'items'"),
        ("a null situation", "'NoneType' object has no attribute 'get'"),
        ("costs as a list", "'list' object has no attribute 'items'"),
        ("an int couple id", "'int' object has no attribute 'partition'"),
        ("an int cost past the floats", "int too large to convert to float"),
        ("costs that add up past the floats", "the costs add up past the largest float"),
    ])
    def test_mistyped_model_exits_2(self, tmp_path, capsys, command, case, message):
        model = json.loads((DATA / "bike.json").read_text())
        if case == "situations as a list":
            model["situations"] = [1, 2]
        elif case == "a null situation":
            model["situations"]["S1"] = None
        elif case == "costs as a list":
            model["costs"] = [1]
        elif case == "an int couple id":
            model["couples"].append(5)
        elif case == "an int cost past the floats":
            model["costs"]["rider_load"]["F1-H"] = 10**400
        else:
            model["costs"]["rider_load"].update({"F1-H": 1e308, "F1-M": 1e308})
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        argv = ["dfa", *command, "--model", str(path), "--situations", "S1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestSimulateCommand:
    def test_log_written_and_deterministic(self, tmp_path, capsys):
        logs = []
        for name in ("a.jsonl", "b.jsonl"):
            log = tmp_path / name
            code = main(["simulate", "--duration", "120", "--seed", "3",
                         "--log", str(log), "--manifest", str(tmp_path / ("m_" + name))])
            assert code == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        assert "simulated 120 s" in capsys.readouterr().out
        records = list(load_jsonl(tmp_path / "a.jsonl"))
        assert records[0]["record"] == "config"
        assert records[-1]["record"] == "summary"

    def test_dfa_flag_recorded(self, tmp_path):
        log = tmp_path / "run.jsonl"
        assert main(["simulate", "--duration", "90", "--operator", "degrading-overload",
                     "--dfa", "on", "--log", str(log)]) == 0
        assert next(load_jsonl(log))["dfa"] is True

    def test_bad_operator_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--operator", "nervous", "--log", str(tmp_path / "x.jsonl")])
        assert exc.value.code == 2


class TestEndtoendCommand:
    @pytest.mark.parametrize("duration", ["600", "271"])  # 271 s holds three self-ratings
    def test_report_written(self, tmp_path, capsys, duration):
        report_path = tmp_path / "report.json"
        code = main(["endtoend", "--duration", duration, "--operator", "degrading-overload",
                     "--seed", "0", "--report", str(report_path)])
        assert code == 0
        assert "spearman" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert report["operator"] == "degrading-overload"
        assert -1.0 <= report["spearman_level_vs_latent"] <= 1.0

    def test_flat_operator_exits_3(self, tmp_path, capsys):
        code = main(["endtoend", "--duration", "360", "--operator", "flat"])
        assert code == 3
        assert "rank variation" in capsys.readouterr().err

    @pytest.mark.parametrize("operator,duration,message", [
        ("flat", "360", "rank variation"),
        # ratings fall at t = 90 and 180 only: too few for spearman
        ("degrading-overload", "200", "at least three self-rating instants"),
        ("degrading-overload", "270", "a duration of at least 271 s"),
        ("degrading-overload", "100", "run too short"),
    ])
    def test_flat_operator_exits_3_before_the_first_tick(self, monkeypatch, capsys,
                                                          operator, duration, message):
        def no_session(*_args, **_kwargs):
            raise AssertionError("the session was simulated")

        monkeypatch.setattr(pipeline, "run_scenario", no_session)
        assert main(["endtoend", "--duration", duration, "--operator", operator]) == 3
        assert message in capsys.readouterr().err


class TestSettings:
    def test_env_var_supplies_defaults(self, tmp_path, monkeypatch, capsys):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"hold_s": 2.0}))
        monkeypatch.setenv("OFT_CONFIG", str(settings))
        log = tmp_path / "run.jsonl"
        assert main(["simulate", "--duration", "60", "--log", str(log)]) == 0

    def test_config_flag_beats_env(self, tmp_path, monkeypatch):
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        good = tmp_path / "good.json"
        good.write_text("{}")
        monkeypatch.setenv("OFT_CONFIG", str(broken))
        log = tmp_path / "run.jsonl"
        assert main(["--config", str(good), "simulate", "--duration", "60",
                     "--log", str(log)]) == 0

    def test_broken_settings_exit_2(self, tmp_path, monkeypatch, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text("{nope")
        monkeypatch.setenv("OFT_CONFIG", str(broken))
        code = main(["simulate", "--duration", "60", "--log", str(tmp_path / "x.jsonl")])
        assert code == 2
        assert "settings" in capsys.readouterr().err

    @pytest.mark.parametrize("doc,named", [
        ({"fusion-net": "/x.json"}, "'fusion-net'"),
        ({"hold_s": 2.0, "holds": 9, "Fusion_net": "/x.json"}, "'Fusion_net', 'holds'"),
    ], ids=["hyphen", "two typos"])
    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys, doc, named):
        # a typo would otherwise run on the defaults it meant to replace
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps(doc))
        log = tmp_path / "run.jsonl"
        code = main(["--config", str(settings), "simulate", "--duration", "60",
                     "--log", str(log)])
        assert code == 2
        assert f"settings file {settings}: unknown key {named}" in capsys.readouterr().err
        assert not log.exists()

    def test_pupil_reference_shape_checked(self, tmp_path, monkeypatch):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"pupil_reference": [3.45]}))
        monkeypatch.setenv("OFT_CONFIG", str(settings))
        beats, pupil = write_streams(tmp_path)
        code = main(["physio", "--beats", beats, "--pupil", pupil,
                     "--out", str(tmp_path / "frames.csv")])
        assert code == 2

    def test_fusion_net_from_settings(self, tmp_path, monkeypatch):
        from importlib.resources import as_file, files

        with as_file(files("oft.data").joinpath("mwl_net.json")) as src:
            net_path = tmp_path / "net.json"
            net_path.write_bytes(src.read_bytes())
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"fusion_net": str(net_path)}))
        monkeypatch.setenv("OFT_CONFIG", str(settings))
        beats, pupil = write_streams(tmp_path)
        ticks = write_ticks(tmp_path / "ticks.jsonl")
        assert main(["monitor", "--beats", beats, "--pupil", pupil,
                     "--ticks", ticks, "--out-dir", str(tmp_path / "mon")]) == 0

    def test_settings_must_be_a_json_object(self, tmp_path, capsys):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps([{"hold_s": 5.0}]))
        code = main(["--config", str(settings), "simulate", "--duration", "60",
                     "--log", str(tmp_path / "run.jsonl")])
        assert code == 2
        assert capsys.readouterr().err == f"error: settings file {settings}: expected a JSON object\n"

    # an int would reach open() as a file descriptor, which can block the
    # test run instead of failing it, so a float stands in for it
    @pytest.mark.parametrize("value", [5.0, ["net.json"], None])
    def test_fusion_net_must_be_a_string(self, tmp_path, capsys, value):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"fusion_net": value}))
        code = main(["--config", str(settings), "simulate", "--duration", "60",
                     "--log", str(tmp_path / "run.jsonl")])
        assert code == 2
        assert "fusion_net" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", -1.0, True, None, [5.0], 1e400])
    def test_hold_s_must_be_a_finite_non_negative_number(self, tmp_path, capsys, value):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"hold_s": value}))  # 1e400 is written as Infinity
        code = main(["--config", str(settings), "simulate", "--duration", "60",
                     "--log", str(tmp_path / "run.jsonl")])
        assert code == 2
        assert "hold_s" in capsys.readouterr().err

    def test_pupil_reference_only_anchors_reference_normalization(self, tmp_path):
        beats, pupil = write_streams(tmp_path)
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"pupil_reference": [3.2, 0.3]}))
        argv = ["physio", "--beats", beats, "--pupil", pupil, "--out"]
        assert main(argv + [str(tmp_path / "plain.csv")]) == 0
        assert main(["--config", str(settings), *argv, str(tmp_path / "set.csv")]) == 0
        # the default session normalization ignores the settings' reference
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "set.csv").read_bytes()

    @pytest.mark.parametrize("value", [
        [3.45, 0.0], [3.45, -0.45], ["3.45", 0.45], [3.45, float("nan")], [True, 0.45],
        [3.45, 0.45, 1.0], "3.45,0.45",
    ])
    def test_pupil_reference_must_be_two_finite_numbers(self, tmp_path, capsys, value):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"pupil_reference": value}))
        beats, pupil = write_streams(tmp_path)
        code = main(["--config", str(settings), "physio", "--beats", beats, "--pupil", pupil,
                     "--normalization", "reference", "--out", str(tmp_path / "frames.csv")])
        assert code == 2
        assert "pupil_reference" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["physio", "monitor", "simulate"])
    def test_manifest_digests_the_settings_in_effect(self, tmp_path, monkeypatch, command):
        from importlib.resources import as_file, files

        with as_file(files("oft.data").joinpath("mwl_net.json")) as src:
            net_path = tmp_path / "net.json"
            net_path.write_bytes(src.read_bytes())
        beats, pupil = write_streams(tmp_path)
        argv = {
            "physio": ["physio", "--beats", beats, "--pupil", pupil,
                       "--out", str(tmp_path / "f.csv"), "--manifest"],
            "monitor": ["monitor", "--beats", beats, "--pupil", pupil,
                        "--ticks", write_ticks(tmp_path / "ticks.jsonl"), "--out-dir"],
            "simulate": ["simulate", "--duration", "60", "--log", str(tmp_path / "run.jsonl"),
                         "--manifest"],
        }[command]

        def inputs(name, settings=None):
            if settings is None:
                monkeypatch.delenv("OFT_CONFIG", raising=False)
            else:
                path = tmp_path / "settings.json"
                path.write_text(json.dumps(settings))
                monkeypatch.setenv("OFT_CONFIG", str(path))
            out = tmp_path / name
            assert main(argv + [str(out)]) == 0
            manifest = out / "manifest.json" if command == "monitor" else out
            return [d["path"] for d in json.loads(manifest.read_text())["inputs"]]

        streams = {"physio": ["beats.csv", "pupil.csv"],
                   "monitor": ["beats.csv", "pupil.csv", "ticks.jsonl"],
                   "simulate": []}[command]
        assert inputs("none") == streams
        assert inputs("hold", {"hold_s": 60}) == streams + ["settings.json"]
        # physio fuses nothing, so the network is not among its inputs
        net = [] if command == "physio" else ["net.json"]
        assert inputs("net", {"fusion_net": str(net_path)}) == streams + ["settings.json"] + net

    def test_settings_that_change_a_run_change_its_manifest(self, tmp_path):
        manifests = []
        for hold in (0, 60):
            settings = tmp_path / f"hold{hold}.json"
            settings.write_text(json.dumps({"hold_s": hold}))
            manifest = tmp_path / f"m{hold}.json"
            assert main(["--config", str(settings), "simulate", "--duration", "120",
                         "--operator", "degrading-overload", "--dfa", "on",
                         "--log", str(tmp_path / "run.jsonl"), "--manifest", str(manifest)]) == 0
            manifests.append(json.loads(manifest.read_text()))
        assert manifests[0]["args"] == manifests[1]["args"]
        assert manifests[0]["inputs"][0]["sha256"] != manifests[1]["inputs"][0]["sha256"]


class TestMissingInputs:
    """A CSV or JSONL input that cannot be opened exits 3, naming the file."""

    def run(self, capsys, argv):
        code = main([str(a) for a in argv])
        assert code == 3
        assert "absent.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("stream", ["beats", "pupil"])
    def test_physio(self, tmp_path, capsys, stream):
        paths = dict(zip(("beats", "pupil"), write_streams(tmp_path)))
        paths[stream] = tmp_path / "absent.csv"
        self.run(capsys, ["physio", "--beats", paths["beats"], "--pupil", paths["pupil"],
                          "--out", tmp_path / "frames.csv"])

    def test_monitor_demand(self, tmp_path, capsys):
        beats, pupil = write_streams(tmp_path)
        ticks = write_ticks(tmp_path / "ticks.jsonl")
        self.run(capsys, ["monitor", "--beats", beats, "--pupil", pupil, "--ticks", ticks,
                          "--demand", tmp_path / "absent.csv", "--out-dir", tmp_path / "mon"])

    def test_classify_train(self, tmp_path, capsys):
        self.run(capsys, ["classify", "train", "--data", tmp_path / "absent.csv",
                          "--model-out", tmp_path / "model.json"])

    def test_classify_predict(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert main(["classify", "train", "--data", write_dataset(tmp_path / "data.csv"),
                     "--model-out", str(model)]) == 0
        self.run(capsys, ["classify", "predict", "--model", model,
                          "--data", tmp_path / "absent.csv", "--out", tmp_path / "pred.csv"])

    def test_classify_cv(self, tmp_path, capsys):
        self.run(capsys, ["classify", "cv", "--data", tmp_path / "absent.csv"])

    def test_cocom_code(self, tmp_path, capsys):
        self.run(capsys, ["cocom", "code", "--trace", tmp_path / "absent.csv",
                          "--out", tmp_path / "coded.csv"])

    def test_cocom_transitions(self, tmp_path, capsys):
        self.run(capsys, ["cocom", "transitions", "--roster", tmp_path / "absent.csv",
                          "--out", tmp_path / "transitions.json"])


NOT_UTF8 = b"\xff\xfe{}"
NOT_JSON = b"{not json"
TOO_DEEP = b"[" * 100_000  # the JSON decoder gives up with a RecursionError


class TestJsonInputs:
    """A settings, network or model file that is not UTF-8 JSON exits 2 with one line."""

    def settings(self, tmp_path, bad):
        return ["--config", bad, "simulate", "--duration", "60", "--log", tmp_path / "run.jsonl"]

    def fusion_net(self, tmp_path, bad):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"fusion_net": str(bad)}))
        return self.settings(tmp_path, settings)

    def dfa_model(self, tmp_path, bad):
        return ["dfa", "check", "--model", bad, "--situations", "S1"]

    def classify_model(self, tmp_path, bad):
        return ["classify", "predict", "--model", bad,
                "--data", write_dataset(tmp_path / "data.csv"), "--out", tmp_path / "pred.csv"]

    @pytest.mark.parametrize("blob", [NOT_UTF8, NOT_JSON, TOO_DEEP],
                             ids=["not-utf8", "not-json", "too-deep"])
    @pytest.mark.parametrize("case,prefix", [
        ("settings", "settings file"),
        ("fusion_net", "workload network config"),
        ("dfa_model", "allocation model"),
        ("classify_model", "model file"),
    ])
    def test_exits_2(self, tmp_path, capsys, case, prefix, blob):
        bad = tmp_path / "bad.json"
        bad.write_bytes(blob)
        argv = getattr(self, case)(tmp_path, bad)
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix} {bad}: ") and err.count("\n") == 1
        assert not (tmp_path / "run.jsonl").exists() and not (tmp_path / "pred.csv").exists()


def _set_prior(net, value):
    net["prior"] = [value, 0.0, 0.0, 0.0, 0.0]


def _set_cpt_entry(net, value):
    net["children"]["effort"]["cpt"][0] = [value, 0.0, 0.0]


def _set_domain(net, value):
    net["partitions"]["performance"]["domain"] = [0.0, value]


def _set_overlap(net, value):
    net["partitions"]["performance"]["overlaps"][1] = [0.65, value]


def _set_cost(model, value):
    model["costs"]["rider_load"]["F1-H"] = value


def _set_max_functions(model, value):
    model["constraints"].append({"kind": "capacity", "resource": "H", "max_functions": value})


def _set_point(model, value):
    model["points"][0][1] = value


class TestNumbersInFiles:
    """A numeric string or a boolean where a network or model file holds a
    number exits 2 with one line; read as the number 1, each of these
    documents is valid."""

    def fusion_net(self, tmp_path, path):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"fusion_net": str(path)}))
        return ["--config", settings, "simulate", "--duration", "60",
                "--log", tmp_path / "run.jsonl"]

    def dfa_model(self, tmp_path, path):
        return ["dfa", "solve", "--model", path, "--situations", "S1,S4,S6",
                "--criterion", "rider_load"]

    def classify_model(self, tmp_path, path):
        return ["classify", "predict", "--model", path,
                "--data", write_dataset(tmp_path / "data.csv"), "--out", tmp_path / "pred.csv"]

    def document(self, case):
        if case == "classify_model":
            return {"kind": "knn", "k": 1, "metric": "euclidean",
                    "points": [[0.0, 1.0], [1.0, 0.0]], "labels": [0, 1]}
        return json.loads((DATA / ("mwl_net.json" if case == "fusion_net" else "bike.json"))
                          .read_text())

    @pytest.mark.parametrize("value", ["1", True], ids=["string", "true"])
    @pytest.mark.parametrize("case,edit,message", [
        ("fusion_net", _set_prior, "is not a number"),
        ("fusion_net", _set_cpt_entry, "is not a number"),
        ("fusion_net", _set_domain, "is not a number"),
        ("fusion_net", _set_overlap, "is not a number"),
        ("dfa_model", _set_cost, "is not a number"),
        ("dfa_model", _set_max_functions, "max_functions must be a non-negative integer"),
        ("classify_model", _set_point, "is not a number"),
    ], ids=["prior", "cpt", "domain", "overlaps", "cost", "max_functions", "points"])
    def test_exits_2(self, tmp_path, capsys, case, edit, message, value):
        doc = self.document(case)
        edit(doc, value)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = getattr(self, case)(tmp_path, path)
        assert main([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert message in captured.err and captured.err.count("\n") == 1
        assert not (tmp_path / "run.jsonl").exists() and not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("case,edit", [
        ("fusion_net", _set_prior), ("fusion_net", _set_cpt_entry), ("fusion_net", _set_domain),
        ("fusion_net", _set_overlap), ("dfa_model", _set_cost), ("classify_model", _set_point),
    ], ids=["prior", "cpt", "domain", "overlaps", "cost", "points"])
    def test_the_same_documents_with_the_number_load(self, tmp_path, capsys, case, edit):
        doc = self.document(case)
        edit(doc, 1.0)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = getattr(self, case)(tmp_path, path)
        assert main([str(a) for a in argv]) == 0


def _streams(tmp_path):
    beats, pupil = write_streams(tmp_path)
    return ["--beats", beats, "--pupil", pupil]


def _trained_model(tmp_path):
    model = tmp_path / "model.json"
    assert main(["classify", "train", "--data", write_dataset(tmp_path / "data.csv"),
                 "--model-out", str(model)]) == 0
    return model


OUTPUT_FLAGS = {
    "physio --out": lambda d, bad: ["physio", *_streams(d), "--out", bad],
    "physio --jsonl": lambda d, bad: [
        "physio", *_streams(d), "--out", d / "f.csv", "--jsonl", bad],
    "physio --manifest": lambda d, bad: [
        "physio", *_streams(d), "--out", d / "f.csv", "--manifest", bad],
    "monitor --out-dir": lambda d, bad: [
        "monitor", *_streams(d), "--ticks", write_ticks(d / "ticks.jsonl"), "--out-dir", bad],
    "classify train --model-out": lambda d, bad: [
        "classify", "train", "--data", write_dataset(d / "data.csv"), "--model-out", bad],
    "classify predict --out": lambda d, bad: [
        "classify", "predict", "--model", _trained_model(d),
        "--data", d / "data.csv", "--out", bad],
    "classify cv --report": lambda d, bad: [
        "classify", "cv", "--data", write_dataset(d / "data.csv"), "--report", bad],
    "cocom code --out": lambda d, bad: [
        "cocom", "code", "--trace", write_trace(d / "trace.csv"), "--out", bad],
    "cocom transitions --out": lambda d, bad: ["cocom", "transitions", "--out", bad],
    "simulate --log": lambda d, bad: ["simulate", "--duration", "60", "--log", bad],
    "simulate --manifest": lambda d, bad: [
        "simulate", "--duration", "60", "--log", d / "run.jsonl", "--manifest", bad],
    "endtoend --report": lambda d, bad: ["endtoend", "--duration", "600", "--report", bad],
}


@pytest.mark.parametrize("flag,parent", [
    (flag, parent)
    for flag in OUTPUT_FLAGS
    for parent in ("absent", "a_file")
    if (flag, parent) != ("monitor --out-dir", "absent")  # monitor creates a missing --out-dir
])
def test_unwritable_output_exits_2(tmp_path, capsys, flag, parent):
    (tmp_path / "a_file").write_text("")
    bad = tmp_path / parent / "out"
    argv = OUTPUT_FLAGS[flag](tmp_path, bad)
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err


@pytest.mark.parametrize("flag", [flag for flag in OUTPUT_FLAGS if flag != "monitor --out-dir"])
def test_directory_at_output_path_exits_2(tmp_path, capsys, flag):
    bad = tmp_path / "out"
    bad.mkdir()
    argv = OUTPUT_FLAGS[flag](tmp_path, bad)
    assert main([str(a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err
    assert bad.is_dir() and not any(bad.iterdir())


class TestArgumentErrors:
    """Argument values the library rejects exit 2 with one line, before any output."""

    @pytest.mark.parametrize("extra,message", [
        (["--span", "1"], "span must be >= 2"),
        (["--normalization", "window"], "window normalization needs"),
        (["--normalization", "reference", "--reference", "3", "0"], "finite std > 0"),
        (["--normalization", "reference", "--reference", "3", "nan"], "finite std > 0"),
        (["--normalization", "window", "--window", "5", "2"], "start < end"),
        (["--normalization", "window", "--window", "2", "2"], "start < end"),
        (["--normalization", "window", "--window", "0", "nan"], "finite bounds"),
        (["--normalization", "window", "--window", "5", "inf"], "finite bounds"),
        (["--reference", "3.0", "0.5"], "'session' normalization takes no reference"),
        (["--window", "0", "30"], "'session' normalization takes no window"),
        (["--normalization", "window", "--window", "0", "30", "--reference", "3.0", "0.5"],
         "'window' normalization takes no reference"),
        (["--normalization", "reference", "--reference", "3.0", "0.5", "--window", "0", "30"],
         "'reference' normalization takes no window"),
        (["--normalization", "window"], "error: window normalization needs --window START END"),
        (["--normalization", "reference"], "error: --normalization reference needs --reference "
         "MEAN_MM SD_MM or pupil_reference in the settings file"),
    ])
    def test_physio(self, tmp_path, capsys, extra, message):
        out = tmp_path / "frames.csv"
        assert main([str(a) for a in ["physio", *_streams(tmp_path), "--out", out, *extra]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("extra,message", [
        (["--test-subjects", "s1"], "the 'per-subject-75-25' scheme takes no test subjects"),
        (["--scheme", "leave-subjects-out", "--test-subjects="],
         "--test-subjects must name at least one subject"),
        (["--scheme", "leave-subjects-out", "--test-subjects= , ,"],
         "--test-subjects must name at least one subject"),
    ], ids=["with per-subject-75-25", "empty", "blanks only"])
    def test_classify_cv_test_subjects(self, tmp_path, capsys, extra, message):
        report = tmp_path / "cv.json"
        argv = ["classify", "cv", "--data", write_dataset(tmp_path / "data.csv"),
                "--report", str(report), *extra]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not report.exists()

    @pytest.mark.parametrize("command", ["train", "cv"])
    @pytest.mark.parametrize("extra,message", [
        (["--kind", "rf", "--k", "3"], "--kind rf takes no --k"),
        (["--kind", "rf", "--metric", "manhattan"], "--kind rf takes no --metric"),
        (["--kind", "rf", "--k", "3", "--metric", "manhattan"],
         "--kind rf takes no --k or --metric"),
        (["--kind", "knn", "--trees", "5"], "--kind knn takes no --trees"),
        (["--trees", "5"], "--kind knn takes no --trees"),
    ], ids=["rf k", "rf metric", "rf k and metric", "knn trees", "default kind trees"])
    def test_classifier_flag_of_the_other_kind(self, tmp_path, capsys, command, extra, message):
        out = tmp_path / "out.json"
        argv = ["classify", command, "--data", tmp_path / "missing.csv",
                "--model-out" if command == "train" else "--report", out, *extra]
        assert main([str(a) for a in argv]) == 2  # before the data file is read
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["0", "4", "-1"])
    @pytest.mark.parametrize("kind", [[], ["--kind", "knn"]], ids=["default kind", "knn"])
    def test_knn_training_takes_no_seed(self, tmp_path, capsys, kind, seed):
        # kNN training draws nothing; cv splits with the seed, so it takes one
        out = tmp_path / "model.json"
        argv = ["classify", "train", "--data", tmp_path / "missing.csv", "--model-out", out,
                *kind, "--seed", seed]
        assert main([str(a) for a in argv]) == 2  # before the data file is read
        assert capsys.readouterr().err == "error: --kind knn takes no --seed\n"
        assert not out.exists()

    @pytest.mark.parametrize("extra,model", [
        ([], {"kind": "knn", "k": 5, "metric": "euclidean"}),
        (["--kind", "knn", "--k", "3", "--metric", "manhattan"],
         {"kind": "knn", "k": 3, "metric": "manhattan"}),
        (["--kind", "rf", "--trees", "3"], {"kind": "rf", "trees": 3, "seed": 0}),
        (["--kind", "rf", "--seed", "4"], {"kind": "rf", "trees": 23, "seed": 4}),
    ], ids=["knn defaults", "knn flags", "rf trees", "rf defaults"])
    def test_classifier_flags_of_the_chosen_kind(self, tmp_path, extra, model):
        report = tmp_path / "cv.json"
        argv = ["classify", "cv", "--data", write_dataset(tmp_path / "data.csv", n_per=12),
                "--report", report, *extra]
        assert main([str(a) for a in argv]) == 0
        assert json.loads(report.read_text())["model"] == model

    def test_dfa_solve_situations_with_steps(self, capsys):
        argv = ["dfa", "solve", "--situations", "S2,S7,S8", "--steps", "S1",
                "--criterion", "energy"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: dfa solve takes --situations or --steps, not both\n"

    @pytest.mark.parametrize("argv,code,message", [
        (["simulate", "--duration=--", "--log", "run.jsonl"], 2, "invalid int value: '--'"),
        (["classify", "cv", "--data", "data.csv", "--scheme=--"], 2, "invalid choice: '--'"),
        (["classify", "cv", "--data=--"], 3, "No such file or directory: '--'"),
        (["dfa", "check", "--situations=--"], 3, "unknown situation(s): --"),
    ], ids=["duration", "scheme", "data", "situations"])
    def test_double_dash_is_a_value(self, tmp_path, monkeypatch, capsys, argv, code, message):
        """`--flag=--` gives the flag the text '--', checked like any other value."""
        monkeypatch.chdir(tmp_path)
        write_dataset(tmp_path / "data.csv")
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse's own exit
            got = exc.code
        assert got == code
        assert message in capsys.readouterr().err

    def test_monitor(self, tmp_path, capsys):
        out = tmp_path / "mon"
        argv = ["monitor", *_streams(tmp_path), "--ticks", write_ticks(tmp_path / "ticks.jsonl"),
                "--out-dir", out, "--reference", "3.0", "0.5"]
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'session' normalization takes no reference" in err
        assert not out.exists()

    def test_monitor_reference_needs_a_source(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("OFT_CONFIG", raising=False)
        out = tmp_path / "mon"
        argv = ["monitor", *_streams(tmp_path), "--ticks", write_ticks(tmp_path / "ticks.jsonl"),
                "--out-dir", out, "--normalization", "reference"]
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err == ("error: --normalization reference needs --reference MEAN_MM SD_MM "
                       "or pupil_reference in the settings file\n")
        assert not out.exists()

    @pytest.mark.parametrize("points,labels,message", [
        ("[[0.0, 1.0], [1.0, 0.0]]", "[0]", "one label per row"),
        ("[[0.0, 1.0], [NaN, 0.0]]", "[0, 1]", "points must be finite"),
        ("[[0.0, 1.0], [Infinity, 0.0]]", "[0, 1]", "points must be finite"),
    ])
    def test_malformed_knn(self, tmp_path, capsys, points, labels, message):
        model = tmp_path / "model.json"
        model.write_text(f'{{"kind": "knn", "k": 1, "metric": "euclidean", '
                         f'"points": {points}, "labels": {labels}}}')
        out = tmp_path / "pred.csv"
        assert main(["classify", "predict", "--model", str(model),
                     "--data", write_dataset(tmp_path / "data.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model file: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("field,value,message", [
        ("k", 1.9, "knn k 1.9 is not an int"),
        ("k", "2", "knn k '2' is not an int"),
        ("k", True, "knn k True is not an int"),
        ("labels", [1.7, 0], "knn labels must be a list of 64-bit ints"),
        ("labels", [1e30, 0], "knn labels must be a list of 64-bit ints"),
        ("labels", [2**63, 0], "knn labels must be a list of 64-bit ints"),
        ("labels", [False, 0], "knn labels must be a list of 64-bit ints"),
        ("labels", {"0": 1}, "knn labels must be a list of 64-bit ints"),
        ("points", [[10**400, 1.0], [1.0, 0.0]], "int too large to convert to float"),
    ])
    def test_mistyped_knn(self, tmp_path, capsys, field, value, message):
        raw = {"kind": "knn", "k": 1, "metric": "euclidean", "points": [[0.0, 1.0], [1.0, 0.0]],
               "labels": [0, 1], field: value}
        model = tmp_path / "model.json"
        model.write_text(json.dumps(raw))
        out = tmp_path / "pred.csv"
        assert main(["classify", "predict", "--model", str(model),
                     "--data", write_dataset(tmp_path / "data.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: model file: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("n_features,label,message", [
        (2, 10**30, "leaf label 1000000000000000000000000000000 is not a 64-bit int"),
        (2, -2**63 - 1, "leaf label -9223372036854775809 is not a 64-bit int"),
        (2.5, 0, "rf n_features 2.5 is not an int"),
        ("2", 0, "rf n_features '2' is not an int"),
        (True, 0, "rf n_features True is not an int"),
    ])
    def test_mistyped_forest(self, tmp_path, capsys, n_features, label, message):
        trees = [{"feature": 0, "threshold": 0.0, "left": {"label": 0}, "right": {"label": label}}]
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "rf", "n_features": n_features, "trees": trees}))
        out = tmp_path / "pred.csv"
        assert main(["classify", "predict", "--model", str(model),
                     "--data", write_dataset(tmp_path / "data.csv"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: model file: {message}\n"
        assert not out.exists()

    def test_labels_at_the_int64_ends_load(self, tmp_path):
        lo, hi = -2**63, 2**63 - 1
        knn = {"kind": "knn", "k": 1, "metric": "euclidean", "points": [[0.0, 0.0], [90.0, 0.0]],
               "labels": [lo, hi]}
        rf = {"kind": "rf", "n_features": 2, "trees": [
            {"feature": 0, "threshold": 45.0, "left": {"label": lo}, "right": {"label": hi}}]}
        data = write_dataset(tmp_path / "data.csv")
        for raw in (knn, rf):
            model, out = tmp_path / "model.json", tmp_path / "pred.csv"
            model.write_text(json.dumps(raw))
            assert main(["classify", "predict", "--model", str(model), "--data", data,
                         "--out", str(out)]) == 0
            with open(out, newline="") as fh:
                assert {int(r["label"]) for r in csv.DictReader(fh)} == {lo, hi}

    @pytest.mark.parametrize("command", ["simulate", "endtoend"])
    def test_duration_beyond_one_day(self, tmp_path, capsys, command):
        log = tmp_path / "run.jsonl"
        argv = [command, "--duration", "100000000000"]
        if command == "simulate":
            argv += ["--log", str(log)]
        assert main(argv) == 2
        assert "at most 86400" in capsys.readouterr().err
        assert not log.exists()

    @pytest.mark.parametrize("command,seed,where", [
        (["simulate", "--duration", "60"], "-1", "scenario"),
        (["endtoend", "--duration", "360"], "-3", "scenario"),
        (["classify", "cv"], "-1", "cross_validate"),
        (["classify", "train", "--kind", "rf"], "-1", "rf"),
    ])
    def test_negative_seed(self, tmp_path, capsys, command, seed, where):
        out = tmp_path / "out.json"
        argv = command + ["--seed", seed]
        if command[0] == "simulate":
            argv += ["--log", str(out)]
        elif command[0] == "endtoend":
            argv += ["--report", str(out)]
        else:
            argv += ["--data", write_dataset(tmp_path / "data.csv"),
                     "--model-out" if command[1] == "train" else "--report", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {where}: seed must be an integer >= 0, got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("trees", [
        [],
        [{}],
        [{"feature": 5, "threshold": 0.0, "left": {"label": 0}, "right": {"label": 1}}],
    ])
    def test_malformed_forest(self, tmp_path, capsys, trees):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "rf", "n_features": 2, "trees": trees}))
        out = tmp_path / "pred.csv"
        assert main(["classify", "predict", "--model", str(model),
                     "--data", write_dataset(tmp_path / "data.csv"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model file: ") and err.count("\n") == 1
        assert not out.exists()


# ---------------------------------------------------------------------------
# fuzzing `oft monitor` and `oft physio` inputs, and seeds

FUZZ_SECONDS = 60
FUZZ_TASKS = ("ReadMessage", "DetectVehicle", "InspectLock")
FUZZ_CSV_COLUMNS = {"pupil": ("t_s", "pupil_mm", "valid"), "demand": ("t_s", "n1", "n2", "entropy")}
# what a mutated field holds, as CSV text and as a JSON value
FUZZ_FIELDS = (("nan", float("nan")), ("inf", float("inf")), ("-1", -1),
               ("text", "text"), ("1e308", 1e308))
# a tick field may also hold a fractional second, a second as a string, a
# list where an object belongs, or an integer past the int digit limit, which
# json cannot write: the line gets its text in place of the marker
HUGE_INT = "\x00huge int\x00"
FUZZ_TICK_FIELDS = FUZZ_FIELDS + (("1.5", 1.5), ('"2"', "2"), ("[[...]]", [["ReadMessage", 1]]),
                                  ("1" * 5000, HUGE_INT))
# a beat interval may also be finite but so large that its SDNN overflows
FUZZ_BEAT_FIELDS = FUZZ_FIELDS + (("1e200", 1e200),)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A valid one-minute recording: beats path, pupil rows, tick records."""
    folder = tmp_path_factory.mktemp("fuzz")
    beats, pupil = write_streams(folder, duration=FUZZ_SECONDS)
    with open(pupil, newline="") as fh:
        rows = list(csv.reader(fh))
    rng = np.random.default_rng(3)
    ticks = []
    for t in range(FUZZ_SECONDS):
        at = {task: int(rng.random() < 0.5) for task in FUZZ_TASKS}
        ot = {task: int(rng.random() < 0.8) for task in FUZZ_TASKS if at[task]}
        ticks.append({"t": t, "at": at, "ot": ot, "perf": round(float(rng.random()), 3)})
    return beats, rows, ticks


@pytest.fixture(scope="module")
def fuzz_demand():
    """The rows of a valid demand CSV for the recording, header first."""
    rng = np.random.default_rng(5)
    return [list(FUZZ_CSV_COLUMNS["demand"])] + [
        [str(t), str(int(rng.integers(0, 6))), str(int(rng.integers(0, 4))),
         repr(round(float(rng.random()) * 2.0, 6))]
        for t in range(FUZZ_SECONDS)
    ]


@pytest.fixture(scope="module")
def fuzz_beats(fuzz_inputs):
    """The rows of the valid recording's beats CSV, header first."""
    with open(fuzz_inputs[0], newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    return write_dataset(tmp_path_factory.mktemp("fuzz_data") / "data.csv", n_per=12)


@st.composite
def beats_mutations(draw):
    """(kind, args) for one mutation of beats.csv; a field's row is given as
    a fraction of the data rows, 0.0 the first and 1.0 the last."""
    kind = draw(st.sampled_from(["truncate", "field", "drop_header"]))
    if kind == "truncate":
        return kind, draw(st.floats(0.0, 1.0))
    if kind == "field":
        row = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
        column = draw(st.sampled_from(["t_s", "rr_ms"]))
        return kind, (row, column, draw(st.sampled_from(FUZZ_BEAT_FIELDS)))
    return kind, None


@st.composite
def monitor_mutations(draw):
    """(stream, kind, args) for one mutation of ticks.jsonl, pupil.csv or demand.csv."""
    stream = draw(st.sampled_from(["ticks", "pupil", "demand"]))
    kinds = ["truncate", "field", "duplicate", "reorder"]
    kinds += ["drop_header", "rename_header"] if stream != "ticks" else ["at_value", "break_json"]
    kind = draw(st.sampled_from(kinds))
    last = FUZZ_SECONDS * (4 if stream == "pupil" else 1) - 1
    row = draw(st.one_of(st.sampled_from([0, last]), st.integers(0, last)))
    if kind == "truncate":
        return stream, kind, draw(st.floats(0.0, 1.0))
    if kind == "field":
        if stream != "ticks":
            column = draw(st.sampled_from(FUZZ_CSV_COLUMNS[stream]))
            return stream, kind, (row, column, draw(st.sampled_from(FUZZ_FIELDS)))
        column = draw(st.sampled_from(["t", "perf", "at"]))
        return stream, kind, (row, column, draw(st.sampled_from(FUZZ_TICK_FIELDS)))
    if kind == "duplicate":
        return stream, kind, row
    if kind == "reorder":
        return stream, kind, (row, draw(st.integers(0, FUZZ_SECONDS - 1)))
    if kind == "rename_header":
        return stream, kind, draw(st.sampled_from(FUZZ_CSV_COLUMNS[stream]))
    if kind == "at_value":
        return stream, kind, (row, draw(st.sampled_from(FUZZ_TASKS)),
                              draw(st.sampled_from([[1], "1", None])))
    if kind == "break_json":
        return stream, kind, (row, draw(st.integers(0, 80)))
    return stream, kind, None


def mutated_text(stream, kind, args, csv_rows, ticks):
    """The mutated file's text: the ticks, or the CSV stream whose rows are given."""
    if stream != "ticks":
        header, rows = list(csv_rows[0]), [list(r) for r in csv_rows[1:]]
    else:
        header, rows = None, json.loads(json.dumps(ticks))
    if kind == "field":
        row, column, (text, value) = args
        if stream != "ticks":
            rows[row][header.index(column)] = text
        else:
            rows[row][column] = value
    elif kind == "duplicate":
        rows.insert(args, rows[args])
    elif kind == "reorder":
        a, b = args
        rows[a], rows[b] = rows[b], rows[a]
    elif kind == "drop_header":
        header = None
    elif kind == "rename_header":
        header[header.index(args)] = args + "_x"
    elif kind == "at_value":
        row, task, value = args
        rows[row]["at"][task] = value
    if stream != "ticks":
        out = io.StringIO()
        csv.writer(out).writerows(([header] if header else []) + rows)
        text = out.getvalue()
    else:
        lines = [json.dumps(r).replace(json.dumps(HUGE_INT), "1" * 5000) for r in rows]
        if kind == "break_json":
            row, cut = args
            lines[row] = lines[row][:cut] + lines[row][cut + 1:]
        text = "\n".join(lines) + "\n"
    if kind == "truncate":
        text = text[:int(args * len(text))]
    return text


class TestMonitorFuzz:
    """Mutated ticks, pupil, demand and beats inputs, and any integer seed,
    end in a documented exit code."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutation=monitor_mutations())
    # a last pupil sample far past one day
    @example(mutation=("pupil", "field", (4 * FUZZ_SECONDS - 1, "t_s", ("1e308", 1e308))))
    # a fractional and a string second, and a list of pairs as `at`
    @example(mutation=("ticks", "field", (1, "t", FUZZ_TICK_FIELDS[-4])))
    @example(mutation=("ticks", "field", (2, "t", FUZZ_TICK_FIELDS[-3])))
    @example(mutation=("ticks", "field", (3, "at", FUZZ_TICK_FIELDS[-2])))
    # an integer too long to read
    @example(mutation=("ticks", "field", (4, "t", FUZZ_TICK_FIELDS[-1])))
    # a NaN entropy, and a second past one day
    @example(mutation=("demand", "field", (5, "entropy", FUZZ_FIELDS[0])))
    @example(mutation=("demand", "field", (FUZZ_SECONDS - 1, "t_s", FUZZ_FIELDS[-1])))
    def test_exit_code_is_documented(self, fuzz_inputs, fuzz_demand, mutation):
        beats, pupil_rows, ticks = fuzz_inputs
        stream, kind, args = mutation
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            paths = {"pupil": folder / "pupil.csv", "ticks": folder / "ticks.jsonl",
                     "demand": folder / "demand.csv"}
            for name, rows in (("pupil", pupil_rows), ("ticks", None), ("demand", fuzz_demand)):
                paths[name].write_text(mutated_text(
                    name, kind if stream == name else None, args, rows, ticks))
            argv = ["monitor", "--beats", beats, "--pupil", str(paths["pupil"]),
                    "--ticks", str(paths["ticks"]), "--demand", str(paths["demand"]),
                    "--out-dir", str(folder / "out")]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
        assert code in (0, 2, 3, 4)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutation=beats_mutations())
    # a finite interval whose SDNN overflows
    @example(mutation=("field", (0.5, "rr_ms", FUZZ_BEAT_FIELDS[-1])))
    def test_beats_exit_code_is_documented(self, fuzz_inputs, fuzz_beats, mutation):
        _, pupil_rows, ticks = fuzz_inputs
        kind, args = mutation
        if kind == "field":
            fraction, column, value = args
            args = (round(fraction * (len(fuzz_beats) - 2)), column, value)
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            paths = {"beats": folder / "beats.csv", "pupil": folder / "pupil.csv",
                     "ticks": folder / "ticks.jsonl"}
            paths["beats"].write_text(mutated_text("beats", kind, args, fuzz_beats, ticks))
            paths["pupil"].write_text(mutated_text("pupil", None, None, pupil_rows, ticks))
            paths["ticks"].write_text(mutated_text("ticks", None, None, None, ticks))
            streams = ["--beats", str(paths["beats"]), "--pupil", str(paths["pupil"])]
            for argv in (["physio", *streams, "--out", str(folder / "frames.csv"),
                          "--jsonl", str(folder / "frames.jsonl")],
                         ["monitor", *streams, "--ticks", str(paths["ticks"]),
                          "--out-dir", str(folder / "out")]):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code in (0, 2, 3, 4), argv[0]

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(["simulate", "endtoend", "cv", "train"]),
           seed=st.one_of(st.sampled_from([-1, 0, 2**64]), st.integers(-2**70, 2**70)))
    @example(command="simulate", seed=-1)
    def test_seed_exit_code_is_documented(self, fuzz_dataset, command, seed):
        with tempfile.TemporaryDirectory() as folder:
            out = str(Path(folder) / "out")
            argv = {
                "simulate": ["simulate", "--duration", "30", "--log", out],
                "endtoend": ["endtoend", "--duration", "200", "--report", out],
                "cv": ["classify", "cv", "--data", fuzz_dataset, "--kind", "rf",
                       "--trees", "2", "--report", out],
                "train": ["classify", "train", "--data", fuzz_dataset, "--kind", "rf",
                          "--trees", "2", "--model-out", out],
            }[command]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv + ["--seed", str(seed)])
        assert code == (2 if seed < 0 else code)
        assert code in (0, 2, 3, 4)


# a dataset field may also hold a label past the 64-bit range
FUZZ_DATASET_FIELDS = FUZZ_FIELDS + ((str(10**20), 10**20),)
FUZZ_DATASET_COLUMNS = ("subject", "t_s", "hrv", "pupil_z", "td")
# what a mutated forest node becomes
FUZZ_BAD_NODES = (
    [], {"label": 1.5}, {"label": None},
    {"feature": 2, "threshold": 0.0, "left": {"label": 0}, "right": {"label": 1}},
    {"feature": 0, "threshold": "0", "left": {"label": 0}, "right": {"label": 1}},
    {"feature": 0, "threshold": float("inf"), "left": {"label": 0}, "right": {"label": 1}},
    {"feature": 0, "threshold": 0.0, "left": {"label": 0}},
)


@pytest.fixture(scope="module")
def fuzz_dataset_rows(fuzz_dataset):
    """The rows of the valid fuzz dataset, header first."""
    with open(fuzz_dataset, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def fuzz_model(fuzz_dataset, tmp_path_factory):
    """A three-tree forest trained on the fuzz dataset, as parsed JSON."""
    path = tmp_path_factory.mktemp("fuzz_model") / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["classify", "train", "--data", fuzz_dataset, "--kind", "rf",
                     "--trees", "3", "--model-out", str(path)]) == 0
    return json.loads(path.read_text())


@st.composite
def classify_mutations(draw):
    """(target, kind, args) for one mutation of the dataset CSV or the
    model file; a row is given as a fraction of the data rows."""
    target = draw(st.sampled_from(["dataset", "model"]))
    if target == "model":
        kind = draw(st.sampled_from(["truncate", "break_json", "bad_node", "n_features"]))
        if kind == "bad_node":
            node = draw(st.integers(0, 10**6))  # taken modulo the node count
            return target, kind, (node, draw(st.sampled_from(FUZZ_BAD_NODES)))
        if kind == "n_features":
            return target, kind, draw(st.sampled_from([0, 1, 3, -1, "2", None, 2.5]))
        return target, kind, draw(st.floats(0.0, 1.0))
    kind = draw(st.sampled_from(["truncate", "field", "duplicate", "reorder", "drop_header",
                                 "rename_header"]))
    row = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    if kind == "truncate":
        return target, kind, row
    if kind == "field":
        column = draw(st.sampled_from(FUZZ_DATASET_COLUMNS))
        return target, kind, (row, column, draw(st.sampled_from(FUZZ_DATASET_FIELDS)))
    if kind == "duplicate":
        return target, kind, row
    if kind == "reorder":
        return target, kind, (row, draw(st.floats(0.0, 1.0)))
    if kind == "rename_header":
        return target, kind, draw(st.sampled_from(FUZZ_DATASET_COLUMNS))
    return target, kind, None


def mutated_model_text(model, kind, args):
    """The model file's text after one mutation of the parsed forest."""
    model = json.loads(json.dumps(model))
    if kind == "bad_node":
        index, bad = args
        nodes = []  # (parent, key): every slot that holds a node
        stack = [(model["trees"], i) for i in range(len(model["trees"]))]
        while stack:
            parent, key = stack.pop()
            nodes.append((parent, key))
            node = parent[key]
            if "label" not in node:
                stack += [(node, "left"), (node, "right")]
        parent, key = nodes[index % len(nodes)]
        parent[key] = bad
    elif kind == "n_features":
        model["n_features"] = args
    text = json.dumps(model)
    if kind == "truncate":
        text = text[:int(args * len(text))]
    elif kind == "break_json":
        cut = int(args * (len(text) - 1))
        text = text[:cut] + text[cut + 1:]
    return text


class TestClassifyFuzz:
    """Mutated datasets and model files end in a documented exit code in
    `classify train`, `predict` and `cv`, and a trained model loads back."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutation=classify_mutations(), kind=st.sampled_from(["rf", "knn"]),
           scheme=st.sampled_from(["per-subject-75-25", "leave-subjects-out"]),
           raw=st.booleans())
    # a label past the 64-bit range, and features at the float limit
    @example(mutation=("dataset", "field", (0.5, "td", FUZZ_DATASET_FIELDS[-1])),
             kind="rf", scheme="leave-subjects-out", raw=True)
    @example(mutation=("dataset", "field", (0.5, "hrv", FUZZ_FIELDS[-1])),
             kind="rf", scheme="per-subject-75-25", raw=False)
    def test_exit_code_is_documented(self, fuzz_dataset_rows, fuzz_model, mutation, kind,
                                     scheme, raw):
        target, mutation_kind, args = mutation
        if target == "dataset" and mutation_kind in ("field", "duplicate", "reorder"):
            last = len(fuzz_dataset_rows) - 2
            if mutation_kind == "field":
                args = (round(args[0] * last), *args[1:])
            elif mutation_kind == "duplicate":
                args = round(args * last)
            else:
                args = (round(args[0] * last), round(args[1] * last))
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            data, model, out = folder / "data.csv", folder / "model.json", folder / "out"
            data.write_text(mutated_text("dataset", mutation_kind if target == "dataset" else None,
                                         args, fuzz_dataset_rows, None))
            model.write_text(mutated_model_text(
                fuzz_model, mutation_kind if target == "model" else None, args))
            labels = ["--raw-labels"] if raw else []
            learner = ["--kind", kind, *(["--trees", "3"] if kind == "rf" else []), *labels]
            runs = [["classify", "predict", "--model", str(model), "--data", str(data),
                     "--out", str(out)]]
            if target == "dataset":
                runs += [["classify", "train", "--data", str(data), *learner,
                          "--model-out", str(model)],
                         ["classify", "cv", "--data", str(data), "--scheme", scheme, *learner]]
            for argv in runs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = main(argv)
                assert code in (0, 2, 3, 4), argv[1]
                if argv[1] == "train" and code == 0:
                    assert load_model(model).predict([[40.0, 0.0]]).shape == (1,)


# ---------------------------------------------------------------------------
# fuzzing the settings file, the allocation and classifier model files, and
# the cocom trace and roster CSVs

# what a mutated JSON value becomes: the values of FUZZ_FIELDS, an int past
# the 64-bit range and one past the floats, a fraction, and each wrong JSON type
FUZZ_JSON_VALUES = tuple(value for _, value in FUZZ_FIELDS) + (
    10**30, 10**400, 1.7, True, None, "", [], [1, 2], {})
FUZZ_COCOM_COLUMNS = {"trace": ("t_s", "tank_a", "tank_b", "period"),
                      "roster": ("participant", "mode_low", "mode_high")}
FUZZ_COCOM_FIELDS = FUZZ_FIELDS + ((str(10**30), 10**30),)
FUZZ_SETTINGS = {"fusion_net": str(DATA / "mwl_net.json"), "pupil_reference": [3.45, 0.45],
                 "hold_s": 2.0}


def json_slots(doc):
    """The one-item list that holds `doc`, and every (container, key) that
    holds a value of it, the root first."""
    holder = [doc]
    slots, stack = [], [(holder, 0)]
    while stack:
        parent, key = stack.pop()
        slots.append((parent, key))
        value = parent[key]
        if isinstance(value, dict):
            stack += [(value, k) for k in value]
        elif isinstance(value, list):
            stack += [(value, i) for i in range(len(value))]
    return holder, slots


@st.composite
def json_mutations(draw):
    """(kind, args) for one mutation of a JSON file; the slot it changes is
    an index, taken modulo the count of the slots the kind applies to."""
    kind = draw(st.sampled_from(["truncate", "value", "drop_key", "rename_key", "duplicate",
                                 "reorder"]))
    if kind == "truncate":
        return kind, draw(st.floats(0.0, 1.0))
    slot = draw(st.integers(0, 10**6))
    if kind == "value":
        return kind, (slot, draw(st.sampled_from(FUZZ_JSON_VALUES)))
    return kind, slot


def mutated_json_text(doc, kind, args):
    """The text of `doc` after one mutation: a value replaced, a key of an
    object dropped or renamed, or an item of a list duplicated or swapped
    with the next one. A slot may also be given as the path of keys to it."""
    holder, slots = json_slots(json.loads(json.dumps(doc)))
    if kind == "truncate":
        text = json.dumps(holder[0])
        return text[:int(args * len(text))]
    slot, value = args if kind == "value" else (args, None)
    if isinstance(slot, tuple):
        parent, key = holder, 0
        for step in slot:
            parent, key = parent[key], step
    else:
        if kind != "value":
            slots = [(p, k) for p, k in slots[1:] if isinstance(p, dict) == kind.endswith("_key")]
            if not slots:
                return json.dumps(holder[0])
        parent, key = slots[slot % len(slots)]
    if kind == "value":
        parent[key] = value
    elif kind == "drop_key":
        del parent[key]
    elif kind == "rename_key":
        parent[key + "_x"] = parent.pop(key)
    elif kind == "duplicate":
        parent.insert(key, parent[key])
    else:
        other = (key + 1) % len(parent)
        parent[key], parent[other] = parent[other], parent[key]
    return json.dumps(holder[0])


@st.composite
def cocom_mutations(draw):
    """(stream, kind, args) for one mutation of a trace or roster CSV; a row
    is given as a fraction of the data rows."""
    stream = draw(st.sampled_from(["trace", "roster"]))
    kind = draw(st.sampled_from(["truncate", "field", "duplicate", "reorder", "drop_header",
                                 "rename_header"]))
    row = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    if kind in ("truncate", "duplicate"):
        return stream, kind, row
    if kind == "field":
        column = draw(st.sampled_from(FUZZ_COCOM_COLUMNS[stream]))
        return stream, kind, (row, column, draw(st.sampled_from(FUZZ_COCOM_FIELDS)))
    if kind == "reorder":
        return stream, kind, (row, draw(st.floats(0.0, 1.0)))
    if kind == "rename_header":
        return stream, kind, draw(st.sampled_from(FUZZ_COCOM_COLUMNS[stream]))
    return stream, kind, None


@pytest.fixture(scope="module")
def fuzz_knn_model(fuzz_dataset, tmp_path_factory):
    """A k=3 kNN model trained on the fuzz dataset, as parsed JSON."""
    path = tmp_path_factory.mktemp("fuzz_knn") / "model.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["classify", "train", "--data", fuzz_dataset, "--kind", "knn", "--k", "3",
                     "--model-out", str(path)]) == 0
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def fuzz_cocom_rows(tmp_path_factory):
    """The rows of a valid trace CSV and of the bundled roster, header first."""
    trace = write_trace(tmp_path_factory.mktemp("fuzz_cocom") / "trace.csv")
    rows = {}
    for stream, path in (("trace", trace), ("roster", DATA / "cocom_roster.csv")):
        with open(path, newline="") as fh:
            rows[stream] = list(csv.reader(fh))
    return rows


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


class TestInputFileFuzz:
    """Mutated settings, fusion network, allocation model, classifier model,
    trace and roster files end in a documented exit code."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutation=json_mutations())
    def test_settings_file(self, fuzz_inputs, mutation):
        beats, pupil_rows, _ = fuzz_inputs
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            config, pupil = folder / "settings.json", folder / "pupil.csv"
            config.write_text(mutated_json_text(FUZZ_SETTINGS, *mutation))
            pupil.write_text(mutated_text("pupil", None, None, pupil_rows, None))
            for argv in (["simulate", "--duration", "20", "--log", folder / "run.jsonl"],
                         ["physio", "--beats", beats, "--pupil", pupil, "--normalization",
                          "reference", "--out", folder / "frames.csv"]):
                assert quiet_main(["--config", config, *argv]) in (0, 2, 3, 4), argv[0]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutation=json_mutations())
    # partitions as a list, a prior past the floats, an empty domain, a list
    # as a label
    @example(mutation=("value", (("partitions",), [1, 2])))
    @example(mutation=("value", (("prior", 0), 10**400)))
    @example(mutation=("value", (("partitions", "effort", "domain"), "")))
    @example(mutation=("value", (("children", "effort", "labels", 0), [1, 2])))
    def test_fusion_network_file(self, fuzz_inputs, mutation):
        beats, pupil_rows, ticks = fuzz_inputs
        net = json.loads((DATA / "mwl_net.json").read_text())
        with tempfile.TemporaryDirectory() as folder:
            folder = Path(folder)
            paths = {name: folder / name for name in
                     ("net.json", "settings.json", "pupil.csv", "ticks.jsonl")}
            paths["net.json"].write_text(mutated_json_text(net, *mutation))
            paths["settings.json"].write_text(json.dumps({"fusion_net": str(paths["net.json"])}))
            paths["pupil.csv"].write_text(mutated_text("pupil", None, None, pupil_rows, None))
            paths["ticks.jsonl"].write_text(mutated_text("ticks", None, None, None, ticks))
            for argv in (["simulate", "--duration", "20", "--log", folder / "run.jsonl"],
                         ["monitor", "--beats", beats, "--pupil", paths["pupil.csv"],
                          "--ticks", paths["ticks.jsonl"], "--out-dir", folder / "out"]):
                assert quiet_main(["--config", paths["settings.json"], *argv]) in (0, 2, 3, 4), \
                    argv[0]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutation=json_mutations())
    # situations as a list, a null situation, costs as a list, an int couple
    # id, and an int cost past the floats
    @example(mutation=("value", (("situations",), [1, 2])))
    @example(mutation=("value", (("situations", "S1"), None)))
    @example(mutation=("value", (("costs",), [1, 2])))
    @example(mutation=("value", (("couples", 0), -1)))
    @example(mutation=("value", (("costs", "rider_load", "F1-H"), 10**400)))
    # a null prerequisite
    @example(mutation=("value", (("constraints", 0, "requires", 0), None)))
    def test_allocation_model_file(self, mutation):
        model = json.loads((DATA / "bike.json").read_text())
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "model.json"
            path.write_text(mutated_json_text(model, *mutation))
            for argv in (["check", "--situations", "S1,S4"],
                         ["solve", "--situations", "S1,S4", "--criterion", "rider_load"],
                         ["solve", "--steps", "S1;S1,S4", "--criterion", "energy"]):
                assert quiet_main(["dfa", *argv, "--model", path]) in (0, 2, 3, 4), argv

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutation=json_mutations(), kind=st.sampled_from(["knn", "rf"]))
    # a kNN label past the int64 range, and a forest leaf label past it
    @example(mutation=("value", (("labels", 0), 1e308)), kind="knn")
    @example(mutation=("value", (("trees", 0, "label"), 10**30)), kind="rf")
    def test_classifier_model_file(self, fuzz_dataset, fuzz_model, fuzz_knn_model, mutation,
                                   kind):
        model = fuzz_knn_model if kind == "knn" else fuzz_model
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "model.json"
            path.write_text(mutated_json_text(model, *mutation))
            argv = ["classify", "predict", "--model", path, "--data", fuzz_dataset,
                    "--out", Path(folder) / "labels.csv"]
            assert quiet_main(argv) in (0, 2, 3, 4)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutation=cocom_mutations())
    def test_cocom_csv(self, fuzz_cocom_rows, mutation):
        stream, kind, args = mutation
        rows = fuzz_cocom_rows[stream]
        last = len(rows) - 2
        if kind == "field":
            args = (round(args[0] * last), *args[1:])
        elif kind == "duplicate":
            args = round(args * last)
        elif kind == "reorder":
            args = (round(args[0] * last), round(args[1] * last))
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / f"{stream}.csv"
            path.write_text(mutated_text(stream, kind, args, rows, None))
            out = Path(folder) / "out"
            argv = (["code", "--trace", path, "--out", out] if stream == "trace"
                    else ["transitions", "--roster", path, "--out", out])
            assert quiet_main(["cocom", *argv]) in (0, 2, 3, 4)


# free text for the id flags: real and unknown ids, separators, blanks,
# dashes and non-ASCII characters
FUZZ_ID_PIECES = ("S1", "S4", "S7", "S99", "s1", "s2", "s4", "x", ",", ";", " ", "\t", "-",
                  "--seed", "=", "é", "\x00")
free_text = st.one_of(st.lists(st.sampled_from(FUZZ_ID_PIECES), max_size=8).map("".join),
                      st.text(max_size=12))


class TestFreeTextFuzz:
    """Any text given to --situations, --steps or --test-subjects ends in a
    documented exit code, and a flag the chosen mode would not use exits 2.
    Each text is passed as --flag=TEXT, so that argparse never reads it as
    an option."""

    @staticmethod
    def exit_code(argv):
        try:
            return quiet_main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            return exc.code

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=free_text, command=st.sampled_from(["check", "solve", "steps"]))
    @example(text=",", command="check")
    @example(text=";;", command="steps")
    @example(text=" , ;S1", command="steps")
    @example(text="--", command="check")  # argparse alone would store [] for it
    def test_allocation_ids(self, text, command):
        argv = {
            "check": ["dfa", "check", f"--situations={text}"],
            "solve": ["dfa", "solve", f"--situations={text}", "--criterion", "energy"],
            "steps": ["dfa", "solve", f"--steps={text}", "--criterion", "rider_load"],
        }[command]
        assert self.exit_code(argv) in (0, 2, 3, 4)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(situations=free_text, steps=free_text)
    def test_situations_with_steps(self, situations, steps):
        argv = ["dfa", "solve", f"--situations={situations}", f"--steps={steps}",
                "--criterion", "energy"]
        assert self.exit_code(argv) == 2

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(["train", "cv"]), kind=st.sampled_from([None, "knn", "rf"]),
           flags=st.sets(st.sampled_from(["--k", "--metric", "--trees", "--seed"])))
    @example(command="train", kind="knn", flags={"--seed"})
    @example(command="cv", kind=None, flags={"--seed"})
    def test_classifier_flags(self, fuzz_dataset, command, kind, flags):
        """A classifier flag exits 2 exactly when the run does not use it:
        the chosen kind (knn by default) does not, or, for --seed, kNN
        training, which draws nothing."""
        values = {"--k": "3", "--metric": "manhattan", "--trees": "3", "--seed": "2"}
        used = {"--trees", "--seed"} if kind == "rf" else {"--k", "--metric"}
        if command == "cv":
            used.add("--seed")
        with tempfile.TemporaryDirectory() as folder:
            argv = ["classify", command, "--data", fuzz_dataset,
                    "--model-out" if command == "train" else "--report", Path(folder) / "out",
                    *(["--kind", kind] if kind else []),
                    *(arg for flag in sorted(flags) for arg in (flag, values[flag]))]
            assert self.exit_code(argv) == (0 if flags <= used else 2)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=free_text, scheme=st.sampled_from(["leave-subjects-out", "per-subject-75-25"]))
    @example(text="", scheme="leave-subjects-out")
    @example(text="s1,,", scheme="leave-subjects-out")
    @example(text="s1,s2,s3,s4", scheme="leave-subjects-out")
    @example(text="--", scheme="leave-subjects-out")
    def test_test_subjects(self, fuzz_dataset, text, scheme):
        argv = ["classify", "cv", "--data", fuzz_dataset, "--scheme", scheme, "--k", "1",
                f"--test-subjects={text}"]
        code = self.exit_code(argv)
        assert code in (0, 2, 3, 4)
        if scheme == "per-subject-75-25":
            assert code == 2
