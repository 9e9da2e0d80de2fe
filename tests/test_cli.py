"""Command line round-trips and exit codes, mostly in-process."""

import csv
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import src_env
from oft import __version__
from oft.cli import main
from oft.jsonl import dump_jsonl, load_jsonl
from oft.microworld import generate_beats, generate_pupil


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

    def test_nan_pupil_diameter_is_cleansed_away(self, tmp_path):
        beats, pupil = write_streams(tmp_path)
        overwrite_rows(pupil, "pupil_mm", "nan")
        jsonl = tmp_path / "frames.jsonl"
        assert main(["physio", "--beats", beats, "--pupil", pupil,
                     "--out", str(tmp_path / "frames.csv"), "--jsonl", str(jsonl)]) == 0
        frames = list(load_jsonl(jsonl))[1:]
        assert [f["pupil_z"] for f in frames[25:45]] == [None] * 20  # samples 100..179
        assert all(f["pupil_z"] is not None for f in frames[:25] + frames[45:240])


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


# written by the SoftEvidence-checked fuzzify, the numpy posterior and the
# csv.DictReader input path
MONITOR_SHA256 = {
    ("session", False): "9be56fbfcd9ffe515037128eddec00804bdd8a2b7d303152e9486472177a0f90",
    ("session", True): "a1888eea0f45103baa0de9ecf509ea64e6ec547f1b25229dab0c5aa688f3a385",
    ("reference", False): "e8af174968d1bf9c4e66aac94cd62af92a59c833b0831a078584db9285cfdf8f",
    ("reference", True): "921d5ff2f1a58f4660f72d567de2cac825099c14bb337d24bd754923b7e5846f",
}
SIMULATE_SHA256 = {
    (2, "off"): "271c16968b111dfa78c6910d65f0b8f4be900b2ab66413939247eb844cbd36f1",
    (2, "on"): "fedce421b6f19cce2320c24435fcbc9701e9c93983f23cfb532f007f6b2bd22a",
    (9, "off"): "594c0ea95cff7dbe89678f5ef985de79faaa86d94b8db342143f577d5efa5e7c",
    (9, "on"): "56f20cbaf7846c6d4160e14e083755c6dcaed59d53970e19cfff3c42afcf3d4d",
}


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

    @pytest.mark.parametrize("seed,dfa", list(SIMULATE_SHA256))
    def test_simulate_log(self, tmp_path, seed, dfa):
        log = tmp_path / "run.jsonl"
        assert main(["simulate", "--operator", "degrading-overload", "--seed", str(seed),
                     "--dfa", dfa, "--duration", "240", "--log", str(log)]) == 0
        assert sha256(log) == SIMULATE_SHA256[(seed, dfa)]


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

    def test_steps_sequence(self, capsys):
        assert main(["dfa", "solve", "--steps", "S1;S1,S4", "--criterion", "energy"]) == 0
        out = capsys.readouterr().out
        assert "step 1:" in out and "step 2:" in out

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
    def test_report_written(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["endtoend", "--duration", "600", "--operator", "degrading-overload",
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
    ])
    def test_physio(self, tmp_path, capsys, extra, message):
        out = tmp_path / "frames.csv"
        assert main([str(a) for a in ["physio", *_streams(tmp_path), "--out", out, *extra]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
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

    @pytest.mark.parametrize("command", ["simulate", "endtoend"])
    def test_duration_beyond_one_day(self, tmp_path, capsys, command):
        log = tmp_path / "run.jsonl"
        argv = [command, "--duration", "100000000000"]
        if command == "simulate":
            argv += ["--log", str(log)]
        assert main(argv) == 2
        assert "at most 86400" in capsys.readouterr().err
        assert not log.exists()

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
