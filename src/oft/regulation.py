"""Regulation-loop detection from per-second task activity.

Each task carries one prescription. At every second a task is either
inactive (no object waiting) or active; an active task reports whether its
prescription is currently met. Two counts summarize the second:

    nps = number of active tasks (prescriptions to comply with)
    cps = number of active tasks whose prescription is met

cps never exceeds nps. Changes of cps from one second to the next signal a
regulation event, classified by this decision tree:

    dcps(t) > 0 and perf(t) < PERF_THRESHOLD    -> PBR   (performance-based)
    dcps(t) > 0 and dcps(t-1) < 0               -> CBR   (compliance-based)
    dcps(t) > 0 otherwise                       -> OTHER_PERFORMANCE
    dcps(t) < 0 and dnps(t-1) > 0               -> COBR  (cost-based)
    dcps(t) < 0 and dnps(t-1) <= 0              -> PRBR  (priority-based)
    dcps(t) == 0                                -> no event

The first second has no deltas, and so no event. `ActivityTracker.ingest`
is the one fold of a tick: it checks the tick's perf and that the tick
follows the previous one, builds the second's `ActivitySnapshot`,
classifies the event by the tree above and adds to the compliance sums.
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .errors import DataError, SequencingError
from .jsonl import dump_jsonl, load_jsonl, number

PERF_THRESHOLD = 0.5


class RegulationKind(Enum):
    PBR = "PBR"
    CBR = "CBR"
    COBR = "COBR"
    PRBR = "PRBR"
    OTHER_PERFORMANCE = "OTHER_PERFORMANCE"


class _TaskTick(NamedTuple):
    t: int
    at: dict
    ot: dict


class TaskTick(_TaskTick):
    """One second of activity: t is an int (not True or 1.0), every at and ot
    value is the int 0 or 1, and ot names exactly the active tasks, those
    at 1.

    A tuple, checked once when made; `_make` and `_replace` skip the check.
    """

    __slots__ = ()

    def __new__(cls, t: int, at: dict, ot: dict):
        if type(t) is not int:
            raise DataError(f"tick t={t!r}: t is not an integer")
        active = set()
        for task, value in at.items():
            if type(value) is not int or not 0 <= value <= 1:
                raise DataError(f"tick t={t}: at values must be the integers 0 or 1")
            if value:
                active.add(task)
        for value in ot.values():
            if type(value) is not int or not 0 <= value <= 1:
                raise DataError(f"tick t={t}: ot values must be the integers 0 or 1")
        if ot.keys() != active:
            raise DataError(f"tick t={t}: ot must be reported for exactly the active tasks")
        return tuple.__new__(cls, (t, at, ot))


class ActivitySnapshot(NamedTuple):
    """Counts at second t plus their deltas against t-1."""

    t: int
    nps: int
    cps: int
    dcps: int
    dnps: int
    perf: float


class RegulationEvent(NamedTuple):
    t: int
    kind: RegulationKind


class ActivityTracker:
    """Single-writer fold of a tick stream into snapshots, events and the
    compliance sums: feed ticks in order via ingest(), the one fold of a
    tick. The tree reads the deltas of the previous snapshot, `prev`."""

    def __init__(self):
        self.prev: Optional[ActivitySnapshot] = None
        self.events: list[RegulationEvent] = []
        self._sum_nps = 0
        self._sum_cps = 0

    def ingest(self, tick: TaskTick, perf: float):
        """Fold one tick; returns (snapshot, event or None). perf is a number in [0, 1]."""
        t = tick.t
        try:
            perf = number(perf)
        except (TypeError, OverflowError) as exc:  # an integer past the float range too
            raise DataError(f"tick t={t}: perf is not a number, got {perf!r}") from exc
        if not (0.0 <= perf <= 1.0):
            raise DataError(f"tick t={t}: perf must be in [0,1], got {perf}")
        nps = sum(tick.at.values())
        cps = sum(tick.ot.values())
        prev = self.prev
        # the snapshots and events are NamedTuples without checks: each is
        # made without its generated __new__ frame
        new = tuple.__new__
        if prev is None:  # the first second has no deltas, and so no event
            prev = new(ActivitySnapshot, (t - 1, nps, cps, 0, 0, perf))
        elif t != prev.t + 1:
            raise SequencingError(f"tick t={t} does not follow snapshot t={prev.t}")
        self._sum_nps += nps
        self._sum_cps += cps
        dcps = cps - prev.cps
        self.prev = snap = new(ActivitySnapshot, (t, nps, cps, dcps, nps - prev.nps, perf))
        if dcps > 0 and perf < PERF_THRESHOLD:
            kind = RegulationKind.PBR
        elif dcps > 0 and prev.dcps < 0:
            kind = RegulationKind.CBR
        elif dcps > 0:
            kind = RegulationKind.OTHER_PERFORMANCE
        elif dcps < 0 and prev.dnps > 0:
            kind = RegulationKind.COBR
        elif dcps < 0:
            kind = RegulationKind.PRBR
        else:
            return snap, None
        event = new(RegulationEvent, (t, kind))
        self.events.append(event)
        return snap, event

    def compliance_rate(self) -> float:
        if self._sum_nps == 0:
            return 1.0
        return self._sum_cps / self._sum_nps


# ---------------------------------------------------------------------------
# file formats


def read_ticks_jsonl(path: str | Path):
    """Tick stream: {"t", "at": {...}, "ot": {...}, "perf"} per line.

    `at` and `ot` must be JSON objects and `perf` a JSON number; nothing is
    coerced (not `true`, `1.0` or `"0.5"`). Each tick is made by TaskTick
    from the decoded values themselves; TaskTick checks `t` and every `at`
    and `ot` value, and its DataError gains the file and the record.
    """
    where = f"stream 'ticks' ({path})"
    for rec in load_jsonl(path):
        try:
            t, at, ot = rec["t"], rec["at"], rec["ot"]
        except (KeyError, TypeError) as exc:
            raise DataError(f"{where}: bad record {rec!r}") from exc
        if type(at) is not dict or type(ot) is not dict:
            raise DataError(f"{where}: bad record {rec!r}: at and ot must be JSON objects")
        try:
            tick = TaskTick(t, at, ot)
        except DataError as exc:
            raise DataError(f"{where}: bad record {rec!r}: {exc}") from exc
        try:
            perf = number(rec.get("perf"))
        except (TypeError, OverflowError) as exc:  # an integer past the float range too
            raise DataError(f"{where}: bad record {rec!r}: perf is not a number") from exc
        yield tick, perf


def write_events_jsonl(events: Iterable[RegulationEvent], path: str | Path) -> None:
    dump_jsonl(({"t": e.t, "kind": e.kind.value} for e in events), path)
