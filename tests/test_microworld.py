"""Surveillance microworld: mechanics, generators, and the closed loop."""

import json
import re
import statistics
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oft import microworld
from oft.errors import ConfigError, DataError, SequencingError
from oft.fusion import MwlNetwork, fuzzify
from oft.jsonl import DATA
from oft.microworld import (
    BASE_SERVICE_S,
    BEHAVIOUR_WINDOW_S,
    EFFORT_SMOOTH_S,
    MAX_DURATION_S,
    PERF_WINDOW_S,
    SHED_ORDER,
    TASKS,
    Message,
    Monitor,
    ScenarioConfig,
    Session,
    Vehicle,
    World,
    compare_compliance,
    generate_beats,
    generate_pupil,
    operator_script,
    run_scenario,
)
from oft.physio import PupilSeries, RRSeries, per_second_frames
from oft.jsonl import load_jsonl
from oft.pipeline import monitor_offline, write_run_log
from oft.regulation import ActivityTracker, RegulationKind, TaskTick
from oft.taskload import (MESSAGE_BUDGET_S, T_REF_S, ConstraintFrame, performance_index,
                          spatial_entropy)
from conftest import job_item


class QuietWorld(World):
    """A world with no arrivals."""

    def arrival_rate(self, t):
        return 0.0


def quiet_world(operator="diligent"):
    """A world with no arrivals, for hand-fed job scenarios."""
    cfg = ScenarioConfig(duration_s=600, phase_split_s=300, operator=operator)
    return QuietWorld(cfg,
                      rng_spawn=np.random.default_rng(1),
                      rng_operator=np.random.default_rng(2))


class TestScenarioConfig:
    def test_defaults_are_valid(self):
        cfg = ScenarioConfig()
        assert cfg.duration_s == 1200
        assert cfg.phase_split_s == 600

    @pytest.mark.parametrize("kwargs", [
        {"phase_split_s": 0},
        {"duration_s": 100, "phase_split_s": 101},
        {"duration_s": 0, "phase_split_s": 0},
        {"phase_split_s": -1},
        {"duration_s": 1, "phase_split_s": 2},
        {"duration_s": -60, "phase_split_s": -60},
        {"duration_s": MAX_DURATION_S + 1},
        {"duration_s": 100_000_000_000},
        {"hold_s": float("nan")},
        {"hold_s": float("inf")},
        {"hold_s": -1.0},
        {"seed": -1},
        {"seed": 1.5},
        {"seed": True},
        {"seed": "3"},
        {"seed": np.float64(3.0)},
        {"duration_s": 100.5, "phase_split_s": 50},
        {"duration_s": 100.0, "phase_split_s": 50},
        {"duration_s": True, "phase_split_s": True},
        {"phase_split_s": 600.0},
        {"phase_split_s": "600"},
        {"dfa": "off"},
        {"dfa": 1},
        {"dfa": None},
        {"dfa": np.bool_(True)},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ScenarioConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,message", [
        ({"dfa": "off"}, "dfa must be True or False, got 'off'"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"duration_s": 100.5, "phase_split_s": 50}, "duration_s must be an integer, got 100.5"),
        ({"phase_split_s": 600.0}, "phase_split_s must be an integer, got 600.0"),
    ])
    def test_wrong_type_names_the_field(self, kwargs, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig(**kwargs)

    def test_numpy_integers_are_stored_as_python_ints(self, tmp_path):
        cfg = ScenarioConfig(duration_s=np.int64(30), phase_split_s=np.int32(15),
                             seed=np.int64(3))
        assert [type(v) for v in (cfg.duration_s, cfg.phase_split_s, cfg.seed)] == [int] * 3
        assert cfg == ScenarioConfig(duration_s=30, phase_split_s=15, seed=3)
        # the log's config record encodes them
        write_run_log(run_scenario(cfg), tmp_path / "run.jsonl")
        assert next(load_jsonl(tmp_path / "run.jsonl"))["seed"] == 3

    def test_unknown_operator_is_refused_when_built(self):
        with pytest.raises(ConfigError, match=re.escape("unknown operator script 'bogus'; choose from")):
            ScenarioConfig(operator="bogus")

    def test_one_day_is_the_longest_session(self):
        # only constructed: running it would simulate a whole day
        assert ScenarioConfig(duration_s=MAX_DURATION_S).duration_s == 86_400


class TestOperatorScripts:
    def test_diligent_ramps(self):
        s = operator_script("diligent", 1200, 600)
        assert s.load(0.0) == pytest.approx(0.15)
        assert s.load(600.0) == pytest.approx(0.30)
        assert s.load(1200.0) == pytest.approx(0.45)
        assert s.load(300.0) == pytest.approx(0.175)
        assert s.slip_probability(0.9) == 0.0
        assert s.shed_threshold is None

    def test_flat_is_flat(self):
        s = operator_script("flat", 1200, 600)
        assert {s.load(t) for t in (0.0, 313.0, 600.0, 1199.0)} == {0.25}

    def test_prioritizer_sheds(self):
        s = operator_script("prioritizer", 1200, 600)
        assert s.shed_threshold == 4
        assert s.load(0.0) == pytest.approx(0.15)

    def test_degrading_overload_profile(self):
        s = operator_script("degrading-overload", 1200, 600)
        assert s.load(600.0) == pytest.approx(0.45)
        assert s.load(1200.0) == pytest.approx(0.95)
        # service slows sharply and attention slips once load passes 0.65
        assert s.service_factor(1.0) == pytest.approx(4.0)
        assert s.slip_probability(0.65) == 0.0
        assert s.slip_probability(0.9) == pytest.approx(0.2)

    def test_unknown_script(self):
        with pytest.raises(ConfigError, match="diligent"):
            operator_script("heroic")


class TestWorldMechanics:
    def test_expiry_flips_ot_and_counts_miss(self):
        world = quiet_world()
        job = world.add_job("ReadMessage", 0.0, 3.0)
        job.slipped = True  # never picked up, so it must time out
        for t in range(3):
            tick = world.tick(t)
            assert world.miss_counts["ReadMessage"] == 0
            assert tick.ot.get("ReadMessage") == 1
        tick = world.tick(3)
        assert world.miss_counts["ReadMessage"] == 1
        assert world.queue == []
        # the task still shows as engaged this second, but violating budget
        assert tick.at["ReadMessage"] == 1
        assert tick.ot["ReadMessage"] == 0

    def test_message_chain_spawns_follow_ups(self):
        world = quiet_world()
        msg = Message(arrive_t=0.0)
        world.messages.append(msg)
        world.add_job("ReadMessage", 0.0, 120.0, msg)
        ticks = [world.tick(t) for t in range(12)]
        assert msg.read_t is not None
        assert msg.zone_t is not None
        assert msg.zone_t >= msg.read_t
        # the new zone's drone transfer was queued and done
        assert any(tick.at["ManageEmptyZone"] for tick in ticks)
        assert world.queue == []
        # zoning inherits the original message deadline
        assert world.miss_counts["DrawZone"] == 0

    def test_vehicle_chain_reaches_neutralized(self):
        world = quiet_world()
        veh = Vehicle(x=0.3, y=0.7)
        world.vehicles.append(veh)
        world.add_job("DetectVehicle", 0.0, 90.0, veh)
        for t in range(16):
            world.tick(t)
        # still hidden after the first second, neutralized by the last
        assert 0 < veh.detect_t <= veh.inspect_t <= veh.neutralize_t <= 15

    def test_earliest_deadline_first(self):
        world = quiet_world()
        late = world.add_job("InspectLock", 0.0, 500.0, job_item("InspectLock"))
        soon = world.add_job("Neutralize", 0.0, 50.0, job_item("Neutralize"))
        for t in range(10):
            world.tick(t)
            if soon not in world.queue:
                break
        assert soon not in world.queue
        assert late in world.queue or world.queue == []

    def test_slipped_jobs_sit_until_deadline(self):
        world = quiet_world()
        job = world.add_job("InspectLock", 0.0, 30.0)
        job.slipped = True
        for t in range(31):
            world.tick(t)
            if t < 30:
                assert job in world.queue
        assert job not in world.queue
        assert world.miss_counts["InspectLock"] == 1

    def test_machine_pass_handles_two_per_second(self):
        world = quiet_world()
        for _ in range(5):
            world.add_job("ManageEmptyZone", 0.0, 60.0)
        aids = frozenset({"auto_transfer_drones"})
        world.tick(0, aids)
        assert world.machine_done["ManageEmptyZone"] >= 2
        world.tick(1, aids)
        world.tick(2, aids)
        assert world.machine_done["ManageEmptyZone"] == 5
        assert world.queue == []

    def test_service_multiplier_table(self):
        world = quiet_world()
        mult = world._service_multiplier
        assert mult("ReadMessage", frozenset({"highlight_messages"})) == pytest.approx(0.6)
        assert mult("ManageEmptyZone", frozenset({"highlight_empty_zones"})) == pytest.approx(0.6)
        both = frozenset({"highlight_empty_zones", "auto_judge_zone_useful"})
        assert mult("ManageEmptyZone", both) == pytest.approx(0.3)
        assert mult("DetectVehicle", frozenset({"annotate_message_coords"})) == pytest.approx(0.5)
        assert mult("Neutralize", both) == pytest.approx(1.0)
        assert mult("ReadMessage", frozenset()) == pytest.approx(1.0)

    def test_unknown_task_rejected(self):
        world = quiet_world()
        with pytest.raises(ConfigError, match="unknown task"):
            world.add_job("FlyDrone", 0.0, 10.0)

    def test_demand_counts_and_entropy(self):
        world = quiet_world()
        world.messages.append(Message(arrive_t=0.0))
        world.messages.append(Message(arrive_t=0.0, read_t=5.0))
        coords = [(0.2, 0.2), (0.8, 0.8)]
        for x, y in coords:
            world.vehicles.append(Vehicle(x=x, y=y))
        frame = world.demand(10.0)
        assert frame.n1 == 2
        assert frame.n2 == 1  # the read message no longer needs an answer
        assert frame.entropy == pytest.approx(spatial_entropy(coords))
        # a caller's edit counts: the same two vehicles, now in one cell
        world.vehicles[1].x, world.vehicles[1].y = coords[0]
        assert world.demand(10.0)[1:] == (2, 1, 0.0)
        world.vehicles[0].neutralize_t = 11.0
        assert world.demand(12.0).n1 == 1
        # past its two-minute budget the unread message stops counting
        assert world.demand(130.0).n2 == 0

    def test_windowed_performance(self):
        world = quiet_world()
        assert world.windowed_performance(50.0) == pytest.approx(1.0)
        world.vehicles.append(Vehicle(x=0.5, y=0.5, detect_t=10.0, neutralize_t=20.0))
        high = world.windowed_performance(100.0)
        assert high > 0.9
        # an open vehicle past the reference time drags the window down
        world.vehicles.append(Vehicle(x=0.1, y=0.1, detect_t=20.0))
        low = world.windowed_performance(250.0)
        assert low < high
        # a message that blew its budget counts against the window...
        world.messages.append(Message(arrive_t=100.0))
        missed = world.windowed_performance(250.0)
        assert missed < low
        # ...and answering a later one in time pulls it partway back
        world.messages.append(Message(arrive_t=200.0, zone_t=240.0))
        assert missed < world.windowed_performance(250.0) < low


class TestShedding:
    def test_prioritizer_drops_low_priority_tasks_first(self):
        world = quiet_world(operator="prioritizer")
        layout = ["ReadMessage", "DetectVehicle", "ManageEmptyZone", "ManageEmptyZone",
                  "DrawZone", "DrawZone", "InspectLock"]
        for task in layout:
            job = world.add_job(task, 0.0, 1000.0)
            job.slipped = True
        world.tick(0)
        assert len(world.queue) == 4
        assert world.miss_counts["ManageEmptyZone"] == 2
        assert world.miss_counts["DrawZone"] == 1
        assert world.miss_counts["InspectLock"] == 0
        assert world.ot_flags["ManageEmptyZone"] == 0
        assert world.ot_flags["DrawZone"] == 0
        assert world.ot_flags["InspectLock"] == 1

    def test_shedding_registers_as_cost_saving_regulation(self):
        world = quiet_world(operator="prioritizer")
        tracker = ActivityTracker()
        for task in ("ReadMessage", "DetectVehicle", "ManageEmptyZone", "InspectLock"):
            job = world.add_job(task, 0.0, 1000.0)
            job.slipped = True
        events = []
        for t in range(4):
            if t == 2:
                # a burst of drone chores: shedding keeps one and abandons
                # the rest, so the task stays engaged but off-prescription
                for _ in range(3):
                    job = world.add_job("ManageEmptyZone", float(t), 1000.0)
                    job.slipped = True
            _, event = tracker.ingest(world.tick(t), perf=0.9)
            if event is not None:
                events.append(event.kind)
        assert RegulationKind.PRBR in events
        assert RegulationKind.COBR not in events


def shed_per_task(queue, threshold, ot_flags, miss_counts):
    """The shedding pass as first written, rebuilding the queue once per
    task of SHED_ORDER; returns the kept queue."""
    if len(queue) <= threshold:
        return queue
    for task in SHED_ORDER:
        if len(queue) <= threshold:
            break
        keep, dropped = [], 0
        for job in queue:
            if job.task == task and len(queue) - dropped > threshold:
                ot_flags[task] = 0
                miss_counts[task] += 1
                dropped += 1
            else:
                keep.append(job)
        queue = keep
    return queue


class TestOnePassShed:
    """The one-pass shed keeps and abandons the jobs the per-task loop did."""

    @settings(max_examples=300, deadline=None)
    @given(jobs=st.lists(st.tuples(st.sampled_from(TASKS), st.booleans()), max_size=14),
           threshold=st.integers(0, 6), order=st.randoms(use_true_random=False),
           ot=st.lists(st.sampled_from([0, 1]), min_size=len(TASKS), max_size=len(TASKS)))
    def test_same_jobs_kept_as_the_per_task_loop(self, jobs, threshold, order, ot):
        world = quiet_world(operator="prioritizer")
        world.script = replace(world.script, shed_threshold=threshold)
        world.ot_flags = dict(zip(TASKS, ot))
        for task, slipped in jobs:
            world.add_job(task, 0.0, 1000.0).slipped = slipped
        order.shuffle(world.queue)
        ot_flags, miss_counts = dict(world.ot_flags), dict(world.miss_counts)
        kept = shed_per_task(list(world.queue), threshold, ot_flags, miss_counts)
        world._shed(0.0)
        assert [job.id for job in world.queue] == [job.id for job in kept]
        assert world.ot_flags == ot_flags
        assert world.miss_counts == miss_counts


class TestSpawning:
    def test_arrival_rate_switches_at_split(self):
        cfg = ScenarioConfig(duration_s=600, phase_split_s=300)
        world = World(cfg,
                      rng_spawn=np.random.default_rng(1),
                      rng_operator=np.random.default_rng(2))
        assert world.arrival_rate(0.0) == pytest.approx(1.0 / 60.0)
        assert world.arrival_rate(299.0) == pytest.approx(1.0 / 60.0)
        assert world.arrival_rate(300.0) == pytest.approx(1.0 / 20.0)

    def test_poisson_streams_fill_the_scene(self):
        cfg = ScenarioConfig(duration_s=1200, phase_split_s=600)
        world = World(cfg,
                      rng_spawn=np.random.default_rng(42),
                      rng_operator=np.random.default_rng(43))
        for t in range(cfg.duration_s):
            world._spawn(t)
        # expectation is 600/60 + 600/20 = 40 arrivals per stream
        assert 20 <= len(world.messages) <= 65
        assert 20 <= len(world.vehicles) <= 65
        assert all(0.0 <= v.x < 1.0 and 0.0 <= v.y < 1.0 for v in world.vehicles)
        assert len(world.queue) == len(world.messages) + len(world.vehicles)

    def test_spawns_disabled_world_stays_empty(self):
        world = quiet_world()
        for t in range(100):
            tick = world.tick(t)
            assert tick.at == {task: 0 for task in TASKS}
            assert tick.ot == {}
        assert world.messages == [] and world.vehicles == []


class TestGenerators:
    def test_beats_track_load(self):
        calm_t, calm_rr = generate_beats(lambda t: 0.0, 300.0, np.random.default_rng(5))
        busy_t, busy_rr = generate_beats(lambda t: 1.0, 300.0, np.random.default_rng(5))
        assert np.all(np.diff(calm_t) > 0)
        assert abs(float(np.mean(calm_rr)) - 800.0) < 15.0
        assert abs(float(np.mean(busy_rr)) - 640.0) < 15.0
        assert np.all((calm_rr >= 300.0) & (calm_rr <= 2000.0))

    def test_beats_deterministic_per_seed(self):
        a = generate_beats(lambda t: 0.5, 60.0, np.random.default_rng(9))
        b = generate_beats(lambda t: 0.5, 60.0, np.random.default_rng(9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_pupil_track_load_and_blinks(self):
        ts, values = generate_pupil(lambda t: 0.0, 300.0, np.random.default_rng(6))
        assert len(ts) == 1200
        open_eye = values[values > 0]
        assert abs(float(np.mean(open_eye)) - 3.0) < 0.05
        _, dilated = generate_pupil(lambda t: 1.0, 300.0, np.random.default_rng(6))
        assert float(np.mean(dilated[dilated > 0])) > 4.2
        # blinks are rare zeros: 0.005 of the samples on average
        assert 0 < np.sum(values == 0.0) < 20

    def test_rolling_sdnn_matches_stdev(self):
        # the simulator frames its generated beats with per_second_frames
        rng = np.random.default_rng(11)
        intervals = 800.0 + 40.0 * rng.standard_normal(400)
        times = np.cumsum(intervals) / 1000.0
        ts = np.arange(0.0, times[-1], 0.25)
        pupil = PupilSeries(ts, np.full(len(ts), 3.0))
        frames = per_second_frames(RRSeries(times, intervals), pupil, span=100,
                                   normalization="reference", reference=(3.0, 0.5)).frames
        for t in range(0, int(times[-1]) + 1, 25):
            frame = frames[t]
            consumed = int(np.searchsorted(times, t + 1.0))
            assert frame.warmup == (consumed < 100)
            if consumed < 2:
                assert frame.hrv_sdnn_ms is None
                continue
            window = intervals[max(0, consumed - 100):consumed]
            assert frame.hrv_sdnn_ms == pytest.approx(statistics.stdev(window), abs=1e-9)

    def test_pupil_per_second_filters_and_holds(self):
        ts = np.array([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
        values = np.array([3.0, 0.0, 3.4, 9.0, 3.8, 3.2])
        beats = RRSeries(np.arange(0.0, 7.5, 0.8), np.full(10, 800.0))
        frames = per_second_frames(beats, PupilSeries(ts, values),
                                   normalization="reference", reference=(3.0, 0.5)).frames
        assert frames[0].pupil_z == pytest.approx((3.2 - 3.0) / 0.5)  # 0.0 is a blink, dropped
        assert frames[1].pupil_z == pytest.approx((3.8 - 3.0) / 0.5)  # 9.0 is a glint, dropped
        assert frames[2].pupil_z is None
        assert frames[3].pupil_z == pytest.approx((3.2 - 3.0) / 0.5)
        # the monitor step holds the last z over seconds without one and
        # averages the held values over EFFORT_SMOOTH_S seconds
        monitor = Monitor(MwlNetwork.default())
        held = [0.4, 1.6, 1.6, 0.4, 0.4, 0.4, 0.4]
        for t, frame in enumerate(frames[:4] + [None] * 3):
            pupil_z = None if frame is None else frame.pupil_z
            step = monitor.step(TaskTick(t=t, at={}, ot={}), 0.8, pupil_z, None)
            window = held[max(0, t + 1 - EFFORT_SMOOTH_S):t + 1]
            assert step.pupil_z == pytest.approx(sum(window) / len(window))
        # before the first pupil sample the held z is 0.0
        first = Monitor(MwlNetwork.default()).step(TaskTick(t=0, at={}, ot={}), 0.8,
                                                   frames[2].pupil_z, None)
        assert first.pupil_z == 0.0


@pytest.mark.parametrize("pupil_z", [True, "1.0", [0.5], 10**400], ids=repr)
def test_monitor_step_reads_pupil_z_as_a_number(pupil_z):
    """A bad pupil z is refused before the step folds its tick; perf is read
    by the tracker's rule."""
    monitor = Monitor(MwlNetwork.default())
    tick = TaskTick(t=0, at={}, ot={})
    with pytest.raises(DataError, match="^tick t=0: pupil z is not a number, got "):
        monitor.step(tick, 0.8, pupil_z, None)
    with pytest.raises(DataError, match="^tick t=0: perf is not a number, got "):
        monitor.step(tick, True, 0.5, None)
    assert monitor.tracker.prev is None
    assert monitor.step(tick, 0.8, np.float64(1.5), None).pupil_z == 1.5


def test_monitor_fuzzifies_a_repeated_performance_reading_once(monkeypatch):
    """An unchanged performance reading reuses its likelihood; every second's
    evidence is still fuzzify's, and effort is fuzzified every second."""
    net = MwlNetwork.default()
    calls = []

    def counted(x, partition):
        calls.append(partition.variable)
        return fuzzify(x, partition)

    monkeypatch.setattr(microworld, "fuzzify", counted)
    monitor = Monitor(net)
    readings = [0.3, 0.3, 0.3, 0.6, 0.6, 0.3, 1, 1.0, np.float64(1.0), 0.45]
    for t, perf in enumerate(readings):
        step = monitor.step(TaskTick(t=t, at={}, ot={}), perf, 0.5, None)
        assert step.evidence["performance"] == fuzzify(perf, net.partitions["performance"])
    assert calls.count("performance") == 5  # 0.3, 0.6, 0.3, 1 and 0.45
    assert calls.count("effort") == len(readings)


def test_monitor_warns_of_a_repeated_reading_outside_the_domain_every_second():
    raw = json.loads((DATA / "mwl_net.json").read_text())
    raw["partitions"]["performance"]["domain"] = [0.2, 0.9]
    net = MwlNetwork.from_dict(raw)
    monitor = Monitor(net)
    for t, perf in enumerate([0.95, 0.95, 0.95, 0.5, 0.5, 0.1, 0.1]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            step = monitor.step(TaskTick(t=t, at={}, ot={}), perf, 0.5, None)
            want = fuzzify(min(max(perf, 0.2), 0.9), net.partitions["performance"])
        clamped = [w for w in caught if "partition performance: " in str(w.message)]
        assert len(clamped) == (perf != 0.5), (t, perf)
        assert step.evidence["performance"] == want


#: The README's behaviour label: cost oriented if a regulation event of
#: the window shed compliance, else performance oriented if one raised it.
COST_KINDS = {RegulationKind.COBR, RegulationKind.PRBR}


def readme_behaviour(events, t):
    recent = [kind for et, kind in events if t - BEHAVIOUR_WINDOW_S <= et <= t]
    if any(kind in COST_KINDS for kind in recent):
        return "cost_oriented"
    return "performance_oriented" if recent else "none"


class TestMonitorBehaviour:
    def test_behaviour_follows_the_event_kinds_of_the_window(self, rng):
        seen = set()
        for _ in range(40):
            length = int(rng.integers(20, 160))
            # tasks change state rarely, so every label shows up
            states = [0, 0, 0]
            monitor, tracker = Monitor(MwlNetwork.default()), ActivityTracker()
            for t in range(length):
                for i in range(3):
                    if rng.random() < 0.04:
                        states[i] = int(rng.integers(0, 3))  # 0 inactive, 1 unmet, 2 met
                at = {f"T{i}": int(s > 0) for i, s in enumerate(states)}
                ot = {f"T{i}": s - 1 for i, s in enumerate(states) if s > 0}
                tick, perf = TaskTick(t=t, at=at, ot=ot), float(rng.random())
                tracker.ingest(tick, perf)
                step = monitor.step(tick, perf, None, None)
                want = readme_behaviour([(e.t, e.kind) for e in tracker.events], t)
                assert step.behaviour == want, (t, tracker.events)
                seen.add(want)
        assert seen == {"cost_oriented", "performance_oriented", "none"}

    def test_ticks_before_the_first_frame_overlap_nothing(self):
        rng = np.random.default_rng(1)
        beats = RRSeries(*generate_beats(lambda t: 0.3, 60.0, rng))
        pupil = PupilSeries(*generate_pupil(lambda t: 0.3, 60.0, rng))
        ticks = [(TaskTick(t=t, at={}, ot={}), 1.0) for t in range(-50, 0)]
        with pytest.raises(DataError, match="overlap"):
            monitor_offline(beats, pupil, ticks)


class TestRunScenario:
    def test_short_run_shape(self):
        cfg = ScenarioConfig(duration_s=120, phase_split_s=60, seed=7)
        result = run_scenario(cfg)
        assert result.records[0]["record"] == "config"
        assert result.records[-1]["record"] == "summary"
        ticks = [r for r in result.records if r["record"] == "tick"]
        assert len(ticks) == 120
        assert [r["t"] for r in ticks] == list(range(120))
        assert len(result.levels) == 120
        assert set(int(v) for v in result.levels) <= {1, 2, 3, 4, 5}
        script = operator_script("diligent", 120, 60)
        for t in (0, 30, 60, 119):
            assert result.latent[t] == pytest.approx(script.load(float(t)))

    def test_isa_probe_schedule(self, monkeypatch):
        monkeypatch.setattr(microworld, "ISA_PERIOD_S", 30)
        cfg = ScenarioConfig(duration_s=120, phase_split_s=60, seed=7)
        result = run_scenario(cfg)
        assert [t for t, _, _ in result.isa] == [30, 60, 90]
        assert result.records[0]["isa_period_s"] == 30
        script = operator_script("diligent", 120, 60)
        for t, rating, level in result.isa:
            assert rating == min(5, 1 + int(5.0 * script.load(float(t))))
            assert 1 <= level <= 5

    def test_zero_arrivals_mean_idle_perfection(self, monkeypatch):
        monkeypatch.setattr(microworld, "CALM_RATE_PER_S", 0.0)
        monkeypatch.setattr(microworld, "BUSY_RATE_PER_S", 0.0)
        result = run_scenario(ScenarioConfig(duration_s=90, phase_split_s=45, seed=3))
        assert result.records[0]["calm_rate_per_s"] == result.records[0]["busy_rate_per_s"] == 0.0
        assert result.summary["messages"] == 0
        assert result.summary["vehicles"] == 0
        assert result.summary["performance"] == pytest.approx(1.0)
        assert result.compliance == pytest.approx(1.0)
        ticks = [r for r in result.records if r["record"] == "tick"]
        assert all(r["nps"] == 0 for r in ticks)

    def test_same_seed_same_records(self):
        cfg = ScenarioConfig(duration_s=150, phase_split_s=75, seed=21, dfa=True,
                             operator="degrading-overload")
        first = run_scenario(cfg)
        second = run_scenario(cfg)
        assert first.records == second.records
        assert np.array_equal(first.levels, second.levels)

    def test_different_seeds_differ(self):
        base = ScenarioConfig(duration_s=200, phase_split_s=100)
        a = run_scenario(replace(base, seed=1))
        b = run_scenario(replace(base, seed=2))
        assert a.records != b.records

    def test_dfa_off_never_commands(self):
        cfg = ScenarioConfig(duration_s=120, phase_split_s=60, seed=5, dfa=False,
                             operator="degrading-overload")
        result = run_scenario(cfg)
        assert [r for r in result.records if r["record"] == "assistance"] == []
        assert result.summary["assistance_commands"] == 0

    def test_net_must_carry_both_partitions(self):
        net = MwlNetwork.default()
        slim = MwlNetwork(prior=net.prior, children=net.children,
                          partitions={"performance": net.partitions["performance"]})
        with pytest.raises(ConfigError, match="effort"):
            run_scenario(ScenarioConfig(duration_s=30, phase_split_s=15), net=slim)

    def test_diligent_first_half_is_calm(self):
        cfg = ScenarioConfig(duration_s=300, phase_split_s=150, seed=0)
        result = run_scenario(cfg)
        assert float(np.median(result.levels[:150])) <= 2.0
        assert result.compliance > 0.9


class TestSession:
    """The per-second stream that run_scenario folds into the run log."""

    @pytest.mark.parametrize("dfa", [False, True])
    @pytest.mark.parametrize("operator", microworld.OPERATORS)
    def test_seconds_are_the_run_log(self, operator, dfa):
        cfg = ScenarioConfig(duration_s=240, phase_split_s=120, seed=3, operator=operator, dfa=dfa)
        session = Session(cfg)
        seconds = list(session)
        records = run_scenario(cfg).records
        assert len(seconds) == 240

        def logged(kind, *keys):
            return [tuple(r[k] for k in keys) for r in records if r["record"] == kind]

        assert [(s.t, s.level, [round(p, 9) for p in s.posterior]) for s in seconds] == \
            logged("tick", "t", "level", "posterior")
        commands = [(s.t, c.directive, c.task, c.active, s.level)
                    for s in seconds for c in s.commands]
        assert commands == logged("assistance", "t", "directive", "task", "active", "level")
        assert bool(commands) == (dfa and operator == "degrading-overload")
        assert [(s.t, s.rating, s.level) for s in seconds if s.rating is not None] == \
            logged("isa", "t", "rating", "level")
        assert session.summary() == records[-1]
        # World.tick and World.demand build their records unchecked (`_make`);
        # what they build must pass the checked constructors
        for s in seconds:
            assert type(s.tick) is TaskTick and TaskTick(*s.tick) == s.tick
            assert type(s.demand) is ConstraintFrame and ConstraintFrame(*s.demand) == s.demand

    def test_a_second_pass_is_refused(self):
        session = Session(ScenarioConfig(duration_s=30, phase_split_s=15))
        assert len(list(session)) == 30
        with pytest.raises(SequencingError, match="tick t=0 does not follow"):
            next(iter(session))


def scanned_demand(world, t):
    """The oracle of World.demand: a full scan of the scene at `t`."""
    active = [(v.x, v.y) for v in world.vehicles if v.neutralize_t is None]
    pending = sum(1 for m in world.messages
                  if m.read_t is None and t <= m.arrive_t + MESSAGE_BUDGET_S)
    return ConstraintFrame(int(t), len(active), pending, spatial_entropy(active))


def scanned_performance(world, t):
    """The oracle of World.windowed_performance: a full scan of the window
    that ends at `t`, scored."""
    lo = t - PERF_WINDOW_S
    neutralizations = [
        (v.detect_t, v.neutralize_t if v.neutralize_t is not None else v.detect_t + T_REF_S)
        for v in world.vehicles
        if v.detect_t is not None and v.detect_t >= lo
        and (v.neutralize_t is not None or t - v.detect_t >= T_REF_S)
    ]
    messages = [
        (m.arrive_t, m.zone_t) for m in world.messages
        if m.arrive_t >= lo and (m.zone_t is not None or t > m.arrive_t + MESSAGE_BUDGET_S)
    ]
    return performance_index(neutralizations, messages).overall


def outcome(observe, world, t):
    """The repr of what `observe(world, t)` returns, which tells -0.0 from
    0.0 and 1 from 1.0, or of the DataError it raises."""
    try:
        return repr(observe(world, t))
    except DataError as exc:
        return repr(exc)


def observed_as_scanned(world, t):
    """Both observables at `t` equal their oracles bit for bit, or raise
    the same error."""
    assert outcome(World.demand, world, t) == outcome(scanned_demand, world, t), t
    assert outcome(World.windowed_performance, world, t) == \
        outcome(scanned_performance, world, t), t


class TestCachedObservables:
    """demand and windowed_performance return their last scan while the
    scene stands and no time test flipped; every second must still equal a
    full scan."""

    @pytest.mark.parametrize("dfa", [False, True])
    @pytest.mark.parametrize("operator", ["degrading-overload", "diligent", "prioritizer"])
    def test_every_tick_equals_a_direct_computation(self, operator, dfa):
        cfg = ScenarioConfig(seed=4, operator=operator, dfa=dfa)
        session = Session(cfg)
        world = session.world
        entropies = set()
        for second in session:  # the world stands as it did when the second was observed
            t = float(second.t)
            assert repr(second.demand) == repr(scanned_demand(world, t))
            assert repr(second.perf) == repr(scanned_performance(world, t))
            entropies.add(round(second.demand.entropy, 6))
        assert second.t == cfg.duration_s - 1
        assert len(entropies) > (10 if operator == "degrading-overload" else 3)
        if operator == "prioritizer":
            assert sum(world.miss_counts.values()) > 0  # it shed jobs

    # one step of the drawn script: world ticks, each observed at its own t;
    # a caller's append (of an item built before or after the last
    # observation) or in-place edit; or observations at t values that
    # repeat, rise or fall
    EDIT_FIELDS = {"detect_t": Vehicle, "neutralize_t": Vehicle, "x": Vehicle, "y": Vehicle,
                   "read_t": Message, "zone_t": Message}
    instants = st.one_of(st.integers(-10, 700),
                         st.floats(-10.0, 700.0, allow_nan=False, allow_infinity=False))
    times = st.one_of(st.none(), instants)
    steps = st.one_of(
        st.tuples(st.just("tick"), st.integers(1, 30)),
        st.tuples(st.just("append message"), st.booleans(), instants, times, times),
        st.tuples(st.just("append vehicle"), st.booleans(),
                  st.floats(0.0, 1.0), st.floats(0.0, 1.0), times, times),
        st.tuples(st.just("edit"), st.sampled_from(sorted(EDIT_FIELDS)), st.integers(0, 10 ** 6),
                  st.one_of(times, st.floats(0.0, 1.0))),
        st.tuples(st.just("observe"), st.lists(st.one_of(st.none(), st.integers(0, 1000),
                                                         st.floats(0.0, 1000.0)),
                                               min_size=1, max_size=4)),
    )

    @settings(max_examples=300, deadline=None)
    @given(operator=st.sampled_from(["degrading-overload", "prioritizer"]),
           seed=st.integers(0, 50), busy=st.booleans(), script=st.lists(steps, max_size=40))
    def test_drawn_edits_and_times_equal_a_full_scan(self, operator, seed, busy, script):
        cfg = ScenarioConfig(duration_s=900, phase_split_s=300, operator=operator)
        world = World(cfg, rng_spawn=np.random.default_rng(seed),
                      rng_operator=np.random.default_rng(seed + 1))
        if busy:
            world.arrival_rate = lambda t: 0.3
        clock = 0  # the world's next tick
        last = 0.0
        for step in script:
            kind = step[0]
            if kind == "tick":
                for _ in range(step[1]):
                    world.tick(clock)
                    last = float(clock)
                    clock += 1
                    observed_as_scanned(world, last)
            elif kind.startswith("append"):
                items, cls = ((world.messages, Message) if kind == "append message"
                              else (world.vehicles, Vehicle))
                item = cls(*step[2:])
                if step[1]:
                    observed_as_scanned(world, last)
                items.append(item)
            elif kind == "edit":
                name, pick, value = step[1:]
                items = world.vehicles if self.EDIT_FIELDS[name] is Vehicle else world.messages
                if not items:
                    continue
                if name in ("x", "y"):  # a position, in the unit square
                    value = 0.5 if value is None else min(max(value, 0.0), 1.0)
                setattr(items[pick % len(items)], name, value)
            else:  # the last t again (None), or a later or earlier one
                for t in step[1]:
                    last = last if t is None else t
                    observed_as_scanned(world, last)


class ListPickWorld(World):
    """A world whose earliest-deadline picks build the candidate list and
    call min with a lambda key, as they were first written."""

    def _machine_pass(self, t, directives, completed):
        for directive, task in (("auto_transfer_drones", "ManageEmptyZone"),
                                ("auto_inspect", "InspectLock")):
            if directive not in directives:
                continue
            for _ in range(2):
                candidates = [j for j in self.queue if j.task == task]
                if not candidates:
                    break
                job = min(candidates, key=lambda j: (j.deadline_t, j.id))
                self.queue.remove(job)
                self.machine_done[task] += 1
                self._complete(job, t, completed)

    def _serve(self, t, directives, completed):
        budget = 1.0
        factor = self.script.service_factor(self.script.load(t))
        while budget > 1e-9:
            live = [j for j in self.queue if not j.slipped]
            if not live:
                break
            job = min(live, key=lambda j: (j.deadline_t, j.id))
            if job.remaining_s is None:
                job.remaining_s = (BASE_SERVICE_S[job.task] * factor
                                   * self._service_multiplier(job.task, directives))
            spend = min(budget, job.remaining_s)
            job.remaining_s -= spend
            budget -= spend
            if job.remaining_s <= 1e-9:
                self.queue.remove(job)
                self._complete(job, t, completed)


def crowded_world(cls, seed, jobs):
    """A degrading-overload world with steady arrivals, fed `jobs` as
    (task, deadline_t, slipped) at t=0."""
    cfg = ScenarioConfig(duration_s=600, phase_split_s=300, operator="degrading-overload")
    world = cls(cfg, rng_spawn=np.random.default_rng(seed),
                rng_operator=np.random.default_rng(seed + 1))
    world.arrival_rate = lambda t: 0.2
    for task, deadline, slipped in jobs:
        world.add_job(task, 0.0, deadline, job_item(task)).slipped = slipped
    return world


def world_state(world, tick):
    return (tick.at, tick.ot, [(j.id, j.task, j.remaining_s, j.slipped) for j in world.queue],
            world.machine_done, world.miss_counts, world.ot_flags)


class TestEarliestDeadlinePick:
    """The generator-and-attrgetter picks choose the job the list-and-lambda
    min chose, ties on deadline going to the lower id, slipped jobs left for
    their deadline, in both the operator's queue and the automation's."""

    @pytest.mark.parametrize("seed", range(12))
    def test_same_picks_as_the_list_min(self, seed):
        rng = np.random.default_rng(seed)
        jobs = [(TASKS[rng.integers(len(TASKS))], float(rng.integers(3, 12)), bool(rng.random() < 0.3))
                for _ in range(int(rng.integers(5, 30)))]
        order = rng.permutation(len(jobs))
        worlds = [crowded_world(cls, seed, jobs) for cls in (World, ListPickWorld)]
        for world in worlds:
            world.queue = [world.queue[i] for i in order]
        directives = ["auto_transfer_drones", "auto_inspect", "highlight_messages",
                      "highlight_empty_zones", "auto_judge_zone_useful", "annotate_message_coords"]
        for t in range(40):
            aids = frozenset(d for d in directives if rng.random() < 0.5)
            fast, slow = (world_state(w, w.tick(t, aids)) for w in worlds)
            assert fast == slow, t
        assert sum(worlds[0].machine_done.values()) > 0


class TestCompareCompliance:
    def test_report_shape(self):
        base = ScenarioConfig(duration_s=240, phase_split_s=120,
                              operator="degrading-overload")
        out = compare_compliance([0, 1], base=base)
        assert out["seeds"] == [0, 1]
        assert len(out["compliance_off"]) == 2
        assert len(out["compliance_on"]) == 2
        for key in ("median_off", "median_on"):
            assert 0.0 <= out[key] <= 1.0

    def test_seeds_are_read_once(self):
        base = ScenarioConfig(duration_s=60, phase_split_s=30, operator="degrading-overload")
        out = compare_compliance(iter([1, 2]), base=base)
        assert out["seeds"] == [1, 2]
        assert out == compare_compliance([1, 2], base=base)

    @pytest.mark.parametrize("seeds", [[], iter([]), ()])
    def test_no_seeds_is_a_config_error(self, seeds):
        with pytest.raises(ConfigError, match="at least one seed"):
            compare_compliance(seeds)
