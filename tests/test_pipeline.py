"""Offline monitor, end-to-end reports, rank correlation, and manifests."""

import json
import subprocess
import sys
from dataclasses import replace

import jsonschema
import numpy as np
import pytest
import scipy.stats

from oft import __version__, microworld, physio, pipeline
from oft.errors import ConfigError, DataError
from oft.jsonl import DATA, load_json
from oft.microworld import ScenarioConfig, Session, generate_beats, generate_pupil, run_scenario
from conftest import src_env
from oft.pipeline import (
    _average_ranks,
    endtoend_report,
    file_sha256,
    monitor_offline,
    read_demand_csv,
    spearman,
    write_manifest,
    write_monitor_outputs,
    write_run_log,
)
from oft.regulation import TaskTick
from oft.taskload import ConstraintFrame


class TestSpearman:
    def test_perfect_and_reversed(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_one_swap(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, y ** 3) == pytest.approx(base, abs=1e-12)

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if np.ptp(x) == 0 or np.ptp(y) == 0:
                continue
            expect = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expect, abs=1e-12)

    def test_average_ranks_equal_scipy_rankdata(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            x = rng.integers(0, 8, size=n).astype(float)  # many ties
            if rng.random() < 0.5:
                x += np.where(rng.random(n) < 0.5, rng.standard_normal(n), 0.0)
            np.testing.assert_array_equal(_average_ranks(x), scipy.stats.rankdata(x))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            spearman([1.0, bad, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match="finite"):
            spearman([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, -bad, 4.0])

    def test_constant_series_rejected(self):
        with pytest.raises(DataError, match="rank variation"):
            spearman([2, 2, 2, 2], [1, 2, 3, 4])
        with pytest.raises(DataError, match="rank variation"):
            spearman([1, 2, 3, 4], [5, 5, 5, 5])

    def test_shape_validation(self):
        with pytest.raises(DataError, match="equal-length"):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(DataError, match="three"):
            spearman([1, 2], [2, 1])
        with pytest.raises(DataError, match="1-d"):
            spearman([[1, 2], [3, 4]], [[1, 2], [3, 4]])


class TestManifest:
    def test_reruns_are_byte_identical(self, tmp_path):
        data = tmp_path / "input.csv"
        data.write_text("t_s,rr_ms\n0.0,800\n")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        args = {"seed": 3, "out": "somewhere", "alpha": 0.5}
        write_manifest(first, "monitor", args, inputs=[data])
        write_manifest(second, "monitor", args, inputs=[data])
        assert first.read_bytes() == second.read_bytes()

    def test_contents(self, tmp_path):
        data = tmp_path / "beats.csv"
        data.write_text("t_s,rr_ms\n0.0,800\n")
        out = tmp_path / "manifest.json"
        write_manifest(out, "physio", {"b": 2, "a": 1}, inputs=[data])
        manifest = json.loads(out.read_text())
        assert manifest["command"] == "physio"
        assert list(manifest["args"]) == ["a", "b"]
        assert manifest["package_version"] == __version__
        assert manifest["inputs"] == [
            {"path": "beats.csv", "sha256": file_sha256(data)}
        ]
        assert not any("time" in k or "date" in k for k in manifest)


class TestDemandCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text(
            "t_s,n1,n2,entropy\n"
            "0,2,1,0.5\n"
            "1,3,0,0.75\n"
        )
        frames = read_demand_csv(path)
        assert set(frames) == {0, 1}
        assert frames[1] == ConstraintFrame(t=1, n1=3, n2=0, entropy=0.75)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("t_s,n1\n0,2\n")
        with pytest.raises(DataError, match="demand"):
            read_demand_csv(path)

    def test_bad_row(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("t_s,n1,n2,entropy\n0,two,1,0.5\n")
        with pytest.raises(DataError, match="bad row"):
            read_demand_csv(path)

    def test_whole_second_written_as_float_is_accepted(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("t_s,n1,n2,entropy\n0.0,2,1,0.5\n1.0,3,0,0.75\n")
        assert set(read_demand_csv(path)) == {0, 1}

    def test_fractional_second_rejected(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("t_s,n1,n2,entropy\n0,2,1,0.5\n0.6,3,0,0.75\n1.5,1,0,0.1\n")
        with pytest.raises(DataError, match="whole second"):
            read_demand_csv(path)

    def test_repeated_second_rejected(self, tmp_path):
        path = tmp_path / "demand.csv"
        path.write_text("t_s,n1,n2,entropy\n0,2,1,0.5\n1,3,0,0.75\n1,1,0,0.1\n")
        with pytest.raises(DataError, match="twice"):
            read_demand_csv(path)


def calm_streams(duration_s=240, seed=4):
    rng = np.random.default_rng(seed)
    bt, rr = generate_beats(lambda t: 0.1, float(duration_s), rng)
    pt, pv = generate_pupil(lambda t: 0.1, float(duration_s), rng)
    return physio.RRSeries(bt, rr), physio.PupilSeries(pt, pv)


def idle_ticks(n, start=0, perf=1.0):
    at = {"watch": 0}
    return [(TaskTick(t=t, at=dict(at), ot={}), perf) for t in range(start, start + n)]


class TestMonitorOffline:
    @pytest.mark.parametrize("t", [1.0, True, "1"], ids=repr)
    def test_non_integer_tick_second_is_a_data_error(self, t):
        # the ticks are made as the monitor reads them, past any caller check
        beats, pupil = calm_streams()
        ticks = ((TaskTick(t=s, at={"watch": 0}, ot={}), 1.0) for s in (0, t, 2))
        with pytest.raises(DataError, match="t is not an integer"):
            monitor_offline(beats, pupil, ticks)

    def test_calm_session_reads_low(self):
        beats, pupil = calm_streams()
        result = monitor_offline(beats, pupil, idle_ticks(240))
        assert result.report["ticks"] == 240
        assert result.report["seconds_at_or_above_4"] == 0
        assert result.report["mean_level"] <= 2.5
        assert result.compliance == pytest.approx(1.0)
        assert sum(result.report["level_counts"].values()) == 240
        assert result.report["normalization"] == "session"
        assert [s.t for s in result.states] == list(range(240))

    def test_demand_channel_changes_the_fusion(self):
        beats, pupil = calm_streams()
        plain = monitor_offline(beats, pupil, idle_ticks(240))
        crowded = {
            t: ConstraintFrame(t=t, n1=14, n2=5, entropy=1.4) for t in range(240)
        }
        loaded = monitor_offline(beats, pupil, idle_ticks(240), demand=crowded)
        assert loaded.report["mean_level"] > plain.report["mean_level"]

    def test_outputs_deterministic(self, tmp_path):
        beats, pupil = calm_streams()
        paths = []
        for name in ("one", "two"):
            result = monitor_offline(beats, pupil, idle_ticks(240))
            paths.append(write_monitor_outputs(result, tmp_path / name))
        for key in ("mwl", "events", "report"):
            assert paths[0][key].read_bytes() == paths[1][key].read_bytes()
        assert len(paths[0]["mwl"].read_text().splitlines()) == 240
        report = json.loads(paths[0]["report"].read_text())
        assert report["ticks"] == 240

    def test_no_overlap_is_an_error(self):
        beats, pupil = calm_streams()
        with pytest.raises(DataError, match="no tick second overlaps"):
            monitor_offline(beats, pupil, idle_ticks(50, start=9000))

    def test_no_ticks_is_an_error(self):
        beats, pupil = calm_streams()
        with pytest.raises(DataError, match="no activity ticks"):
            monitor_offline(beats, pupil, [])

    def test_reference_normalization_flows_through(self):
        beats, pupil = calm_streams()
        result = monitor_offline(
            beats, pupil, idle_ticks(240),
            normalization="reference", reference=(3.45, 0.45),
        )
        assert result.report["normalization"] == "reference"
        assert result.meta["pupil_center_mm"] == pytest.approx(3.45)

    @pytest.mark.parametrize("normalization", ["window", "zscore"])
    def test_only_session_and_reference_normalization(self, normalization):
        beats, pupil = calm_streams()
        with pytest.raises(ConfigError, match="'session' or 'reference', not '" + normalization):
            monitor_offline(beats, pupil, idle_ticks(240), normalization=normalization)

    def test_busy_degraded_session_reads_higher(self):
        rng = np.random.default_rng(10)
        bt, rr = generate_beats(lambda t: 0.9, 240.0, rng)
        pt, pv = generate_pupil(lambda t: 0.9, 240.0, rng)
        beats, pupil = physio.RRSeries(bt, rr), physio.PupilSeries(pt, pv)
        busy = monitor_offline(
            beats, pupil, idle_ticks(240, perf=0.2),
            normalization="reference", reference=(3.45, 0.45),
        )
        calm_b, calm_p = calm_streams()
        calm = monitor_offline(
            calm_b, calm_p, idle_ticks(240),
            normalization="reference", reference=(3.45, 0.45),
        )
        assert busy.report["mean_level"] > calm.report["mean_level"]


@pytest.mark.parametrize("dfa", [False, True])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("operator", ["degrading-overload", "diligent", "prioritizer"])
def test_replaying_a_session_gives_its_levels(operator, seed, dfa):
    """The README's promise: a simulated session's streams, replayed with
    the simulator's pupil reference, give the levels the session logged."""
    config = ScenarioConfig(operator=operator, seed=seed, dfa=dfa, duration_s=600,
                            phase_split_s=300)
    run = run_scenario(config)
    session = Session(config)
    seconds = list(session)
    replay = monitor_offline(
        session.beats, session.pupil, [(s.tick, s.perf) for s in seconds],
        demand={s.demand.t: s.demand for s in seconds}, normalization="reference",
        reference=(microworld.PUPIL_REF_MM, microworld.PUPIL_REF_SD),
    )
    logged = [(r["t"], r["level"], r["posterior"]) for r in run.records
              if r["record"] == "tick"]
    assert len(logged) == config.duration_s
    assert len({level for _t, level, _post in logged}) > 1
    assert [(s.t, s.level, [round(p, 9) for p in s.posterior])
            for s in replay.states] == logged
    assert replay.compliance == run.compliance
    assert replay.report["compliance"] == run.summary["compliance"]
    assert [(e.t, e.kind.name) for e in replay.events] == [
        (r["t"], r["kind"]) for r in run.records if r["record"] == "regulation"
    ]


class TestRunLog:
    def test_byte_identical_and_sorted_keys(self, tmp_path):
        cfg = ScenarioConfig(duration_s=90, phase_split_s=45, seed=13)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_run_log(run_scenario(cfg), a)
        write_run_log(run_scenario(cfg), b)
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        first = json.loads(lines[0])
        assert first["record"] == "config"
        for line in lines[:20]:
            keys = list(json.loads(line))
            assert keys == sorted(keys)


class TestEndToEnd:
    CFG = ScenarioConfig(duration_s=360, phase_split_s=180, seed=0)

    @pytest.fixture(autouse=True)
    def _rating_every_minute(self, monkeypatch):
        monkeypatch.setattr(microworld, "ISA_PERIOD_S", 60)

    def test_report_fields(self):
        report = endtoend_report(self.CFG)
        assert report["operator"] == "diligent"
        assert report["duration_s"] == 360
        assert -1.0 <= report["spearman_level_vs_latent"] <= 1.0
        assert -1.0 <= report["spearman_level_vs_isa"] <= 1.0
        assert 0.0 <= report["compliance"] <= 1.0
        assert "record" not in report["summary"]
        assert report["summary"]["messages"] >= 0

    def test_deterministic(self):
        assert endtoend_report(self.CFG) == endtoend_report(self.CFG)

    def test_flat_operator_has_no_rank_signal(self):
        cfg = replace(self.CFG, operator="flat")
        with pytest.raises(DataError, match="rank variation"):
            endtoend_report(cfg)

    def test_flat_operator_fails_before_the_first_tick(self, monkeypatch):
        def no_session(*_args, **_kwargs):
            raise AssertionError("the session was simulated")

        monkeypatch.setattr(pipeline, "run_scenario", no_session)
        with pytest.raises(DataError, match="rank variation"):
            endtoend_report(replace(self.CFG, operator="flat"))

    @pytest.mark.parametrize("operator", ["diligent", "prioritizer", "degrading-overload", "flat"])
    def test_scripted_load_is_the_run_latent(self, operator):
        cfg = replace(self.CFG, operator=operator)
        load = microworld.scripted_load(cfg)
        assert np.array_equal(load, run_scenario(cfg).latent)
        # round() of an np.float64 would round through numpy, not Python
        assert {type(v) for v in load} == {float}

    def test_needs_enough_self_ratings(self):
        cfg = ScenarioConfig(duration_s=100, phase_split_s=50)
        with pytest.raises(DataError):
            endtoend_report(cfg)

    def test_report_validates_against_bundled_schema(self):
        schema = load_json(DATA / "report_schema.json", "report schema")
        assert schema["type"] == "object"
        report = endtoend_report(self.CFG)
        jsonschema.validate(report, schema)
        broken = dict(report)
        del broken["compliance"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(broken, schema)


def test_import_leaves_scipy_unloaded():
    # no module imports scipy; it is only the oracle of some tests
    code = (
        "import sys, oft, oft.cli\n"
        "oft.MwlNetwork.default(); oft.default_bike_model()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=src_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
