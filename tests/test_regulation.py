"""Regulation event detection against a test-local restatement of the rules."""

import itertools
import json
import re

import numpy as np
import pytest

from oft.errors import DataError, SequencingError
from oft.jsonl import load_jsonl
from oft.regulation import (
    ActivityTracker,
    RegulationKind,
    TaskTick,
    read_ticks_jsonl,
    write_events_jsonl,
)


def reference_events(nps_seq, cps_seq, perf_seq, threshold=0.5):
    """Literal re-statement of the decision tree, written against the raw
    count sequences instead of snapshots. Returns {t: kind_name}."""
    out = {}
    for t in range(1, len(cps_seq)):
        dcps = cps_seq[t] - cps_seq[t - 1]
        if dcps == 0:
            continue
        prev_dcps = cps_seq[t - 1] - cps_seq[t - 2] if t >= 2 else 0
        prev_dnps = nps_seq[t - 1] - nps_seq[t - 2] if t >= 2 else 0
        if dcps > 0:
            if perf_seq[t] < threshold:
                out[t] = "PBR"
            elif prev_dcps < 0:
                out[t] = "CBR"
            else:
                out[t] = "OTHER_PERFORMANCE"
        else:
            out[t] = "COBR" if prev_dnps > 0 else "PRBR"
    return out


def tick_from_states(t, states):
    """states: per-task value in {None (inactive), 0 (active, not met), 1}."""
    at = {f"T{i}": 0 if s is None else 1 for i, s in enumerate(states)}
    ot = {f"T{i}": s for i, s in enumerate(states) if s is not None}
    return TaskTick(t=t, at=at, ot=ot)


def run_tracker(state_rows, perf_seq):
    tracker = ActivityTracker()
    for t, states in enumerate(state_rows):
        tracker.ingest(tick_from_states(t, states), perf_seq[t])
    return tracker


class TestBranches:
    def test_pbr_low_performance_gain(self):
        tr = run_tracker([(0,), (1,)], [1.0, 0.3])
        assert [(e.t, e.kind) for e in tr.events] == [(1, RegulationKind.PBR)]

    def test_cbr_recovery_after_loss(self):
        tr = run_tracker([(1,), (0,), (1,)], [1.0, 1.0, 0.9])
        assert [e.kind for e in tr.events] == [RegulationKind.PRBR, RegulationKind.CBR]

    def test_other_performance_plain_gain(self):
        tr = run_tracker([(0,), (1,)], [1.0, 1.0])
        assert [e.kind for e in tr.events] == [RegulationKind.OTHER_PERFORMANCE]

    def test_cobr_shed_under_rising_demand(self):
        rows = [(1, None), (1, 0), (0, 0)]
        tr = run_tracker(rows, [1.0, 1.0, 1.0])
        assert [(e.t, e.kind) for e in tr.events] == [(2, RegulationKind.COBR)]

    def test_prbr_shed_without_demand_rise(self):
        tr = run_tracker([(1,), (0,)], [1.0, 1.0])
        assert [e.kind for e in tr.events] == [RegulationKind.PRBR]

    def test_no_event_when_cps_flat(self):
        tr = run_tracker([(1,), (1,), (1,)], [1.0, 0.2, 0.7])
        assert tr.events == []

    def test_threshold_boundary_is_strict(self):
        # perf exactly at the threshold is NOT "low"
        tr = run_tracker([(0,), (1,)], [1.0, 0.5])
        assert tr.events[0].kind == RegulationKind.OTHER_PERFORMANCE


class TestReferenceEquivalence:
    def test_exhaustive_two_tasks_three_ticks(self):
        per_task = (None, 0, 1)
        per_tick = list(itertools.product(per_task, repeat=2))
        mismatches = 0
        for rows in itertools.product(per_tick, repeat=3):
            for perf_bits in itertools.product((0.0, 1.0), repeat=3):
                tr = run_tracker(rows, perf_bits)
                got = {e.t: e.kind.value for e in tr.events}
                nps = [sum(1 for s in r if s is not None) for r in rows]
                cps = [sum(s for s in r if s) for r in rows]
                if got != reference_events(nps, cps, perf_bits):
                    mismatches += 1
        assert mismatches == 0

    def test_random_longer_traces(self, rng):
        per_task = (None, 0, 1)
        for _ in range(300):
            length = int(rng.integers(5, 40))
            rows = [tuple(per_task[i] for i in rng.integers(0, 3, 3)) for _ in range(length)]
            perf = [float(p) for p in rng.random(length)]
            tr = run_tracker(rows, perf)
            nps = [sum(1 for s in r if s is not None) for r in rows]
            cps = [sum(s for s in r if s) for r in rows]
            assert {e.t: e.kind.value for e in tr.events} == reference_events(nps, cps, perf)


class TestCompliance:
    def test_rate_is_cps_over_nps(self):
        tr = run_tracker([(1, 0), (1, 1), (None, 0)], [1.0, 1.0, 1.0])
        # nps: 2, 2, 1 = 5; cps: 1, 2, 0 = 3
        assert tr.compliance_rate() == pytest.approx(3 / 5)

    def test_idle_session_is_vacuously_compliant(self):
        tr = run_tracker([(None,), (None,)], [1.0, 1.0])
        assert tr.compliance_rate() == 1.0


class TestValidation:
    def test_ot_keys_must_match_active(self):
        with pytest.raises(DataError):
            TaskTick(t=0, at={"a": 1, "b": 0}, ot={"b": 1})
        with pytest.raises(DataError):
            TaskTick(t=0, at={"a": 1}, ot={})

    @pytest.mark.parametrize("t", [1.0, True, "1"], ids=repr)
    def test_t_must_be_an_int(self, t):
        with pytest.raises(DataError, match="t is not an integer"):
            TaskTick(t=t, at={"a": 1}, ot={"a": 1})

    def test_binary_values_only(self):
        with pytest.raises(DataError):
            TaskTick(t=0, at={"a": 2}, ot={"a": 1})
        with pytest.raises(DataError):
            TaskTick(t=0, at={"a": 1}, ot={"a": 0.5})

    def test_perf_out_of_range(self):
        with pytest.raises(DataError):
            ActivityTracker().ingest(tick_from_states(0, (1,)), 1.5)

    @pytest.mark.parametrize("perf", [True, "0.5", None, 10**400], ids=repr)
    def test_perf_must_be_a_number(self, perf):
        tracker = ActivityTracker()
        with pytest.raises(DataError, match="^tick t=0: perf is not a number, got "):
            tracker.ingest(tick_from_states(0, (1,)), perf)
        assert tracker.prev is None and tracker.compliance_rate() == 1.0

    @pytest.mark.parametrize("perf", [1, np.float64(0.25), np.float32(0.5)], ids=repr)
    def test_perf_is_read_as_a_float(self, perf):
        snap, _ = ActivityTracker().ingest(tick_from_states(0, (1,)), perf)
        assert type(snap.perf) is float and snap.perf == float(perf)

    def test_tick_gap_detected(self):
        tracker = ActivityTracker()
        tracker.ingest(tick_from_states(0, (1,)), 1.0)
        with pytest.raises(SequencingError):
            tracker.ingest(tick_from_states(2, (1,)), 1.0)


def test_events_jsonl_round_trip(tmp_path):
    tr = run_tracker([(0,), (1,), (0,)], [1.0, 0.2, 1.0])
    path = tmp_path / "events.jsonl"
    write_events_jsonl(tr.events, path)
    rows = list(load_jsonl(path))
    assert rows == [{"t": 1, "kind": "PBR"}, {"t": 2, "kind": "PRBR"}]


def test_ticks_jsonl_reader(tmp_path):
    path = tmp_path / "ticks.jsonl"
    path.write_text(
        '{"t": 0, "at": {"a": 1}, "ot": {"a": 0}, "perf": 1.0}\n'
        '{"t": 1, "at": {"a": 1}, "ot": {"a": 1}, "perf": 0.4}\n'
    )
    pairs = list(read_ticks_jsonl(path))
    assert [p[0].t for p in pairs] == [0, 1]
    assert pairs[1][1] == 0.4
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t": 0, "at": {"a": 1}}\n')
    with pytest.raises(DataError, match="ticks"):
        list(read_ticks_jsonl(bad))


def tick_check_by_comprehensions(t, at, ot):
    """The tick contract as three comprehension scans: the error message
    TaskTick raises, or None when the tick is accepted. A value is the int 0
    or 1, never True or 1.0."""
    def binary(v):
        return type(v) is int and v in (0, 1)

    active = {k for k, v in at.items() if binary(v) and v == 1}
    if not all(binary(v) for v in at.values()):
        return f"tick t={t}: at values must be the integers 0 or 1"
    if not all(binary(v) for v in ot.values()):
        return f"tick t={t}: ot values must be the integers 0 or 1"
    if set(ot) != active:
        return f"tick t={t}: ot must be reported for exactly the active tasks"
    return None


TICK_VALUES = (0, 1, True, False, 1.0, 0.0, None, "1", [1], float("nan"))


def tick_outcome(t, at, ot):
    try:
        TaskTick(t=t, at=at, ot=ot)
    except DataError as exc:
        return str(exc)
    return None


def ot_variants(at):
    """ot dicts over the tasks of `at` plus one unknown task "c": every key
    subset of at most two keys, each key with every test value."""
    keys = list(at) + ["c"]
    yield {}
    for size in (1, 2):
        for chosen in itertools.combinations(keys, size):
            for values in itertools.product(TICK_VALUES, repeat=size):
                yield dict(zip(chosen, values))


class TestTickValidationOracle:
    """One loop over at and one over ot accept and reject what the three
    scans do, with the same message, in a tick made in the library or read
    from a file."""

    def test_every_value_pair(self):
        checked = rejected = 0
        for a, b in itertools.product(TICK_VALUES, repeat=2):
            at = {"a": a, "b": b}
            for ot in ot_variants(at):
                want = tick_check_by_comprehensions(7, at, ot)
                assert tick_outcome(7, at, ot) == want, (at, ot)
                checked += 1
                rejected += want is not None
        assert checked > 20_000 and 0 < rejected < checked

    @pytest.mark.parametrize("value", TICK_VALUES, ids=repr)
    @pytest.mark.parametrize("where", ["at", "ot", "missing ot", "extra ot"])
    def test_through_the_ticks_reader(self, tmp_path, value, where):
        at, ot = {"a": 1, "b": 0}, {"a": 1}
        if where == "at":
            at["b"] = value
            if value == 1:
                ot["b"] = 1
        elif where == "ot":
            ot["a"] = value
        elif where == "missing ot":
            at["b"] = value
        else:
            ot["c"] = value
        want = tick_check_by_comprehensions(0, at, ot)
        rec = {"t": 0, "at": at, "ot": ot, "perf": 1.0}
        path = tmp_path / "ticks.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        if want is None:
            (tick, perf), = read_ticks_jsonl(path)
            assert (tick.at, tick.ot, perf) == (at, ot, 1.0)
        else:
            # the reader adds its file and record to TaskTick's message
            with pytest.raises(DataError) as info:
                list(read_ticks_jsonl(path))
            assert str(info.value) == f"stream 'ticks' ({path}): bad record {rec!r}: {want}"
