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
"""

from __future__ import annotations

from enum import Enum
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .errors import DataError, SequencingError
from .jsonl import dump_jsonl, load_jsonl

PERF_THRESHOLD = 0.5


class RegulationKind(Enum):
    PBR = "PBR"
    CBR = "CBR"
    COBR = "COBR"
    PRBR = "PRBR"
    OTHER_PERFORMANCE = "OTHER_PERFORMANCE"


#: Kinds that raise compliance (cps went up) vs kinds that shed it.
PERFORMANCE_ORIENTED = frozenset(
    {RegulationKind.PBR, RegulationKind.CBR, RegulationKind.OTHER_PERFORMANCE}
)
COST_ORIENTED = frozenset({RegulationKind.COBR, RegulationKind.PRBR})


_OT_NOT_ACTIVE = "tick t={}: ot must be reported for exactly the active tasks"


class _TaskTick(NamedTuple):
    t: int
    at: dict
    ot: dict


class TaskTick(_TaskTick):
    """One second of activity: at[task] in {0,1}; ot only for active tasks.

    A tuple, checked once when made; `_make` and `_replace` skip the check.
    """

    __slots__ = ()

    def __new__(cls, t: int, at: dict, ot: dict):
        active = set()
        for task, value in at.items():
            if value == 1:
                active.add(task)
            elif value != 0:
                raise DataError(f"tick t={t}: at values must be 0 or 1")
        for value in ot.values():
            if value not in (0, 1):
                raise DataError(f"tick t={t}: ot values must be 0 or 1")
        if ot.keys() != active:
            raise DataError(_OT_NOT_ACTIVE.format(t))
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


def snapshot(tick: TaskTick, prev: Optional[ActivitySnapshot], perf: float) -> ActivitySnapshot:
    """Fold one tick into a snapshot. prev=None only for the first second."""
    if not (0.0 <= perf <= 1.0):
        raise DataError(f"tick t={tick.t}: perf must be in [0,1], got {perf}")
    if prev is not None and tick.t != prev.t + 1:
        raise SequencingError(
            f"tick t={tick.t} does not follow snapshot t={prev.t}"
        )
    nps = sum(tick.at.values())
    cps = sum(tick.ot.values())
    dcps = cps - prev.cps if prev is not None else 0
    dnps = nps - prev.nps if prev is not None else 0
    return ActivitySnapshot(tick.t, nps, cps, dcps, dnps, perf)


def classify_regulation(curr: ActivitySnapshot, prev: ActivitySnapshot) -> Optional[RegulationKind]:
    """Classify the regulation event at curr.t, if any.

    prev must be the snapshot at curr.t - 1; its dcps/dnps fields are the
    deltas of the PREVIOUS second, which the tree consults.
    """
    if prev is None:
        raise SequencingError("classification needs the previous snapshot")
    if curr.t != prev.t + 1:
        raise SequencingError(
            f"snapshot t={curr.t} does not follow snapshot t={prev.t}"
        )
    if curr.dcps == 0:
        return None
    if curr.dcps > 0:
        if curr.perf < PERF_THRESHOLD:
            return RegulationKind.PBR
        if prev.dcps < 0:
            return RegulationKind.CBR
        return RegulationKind.OTHER_PERFORMANCE
    # dcps < 0: compliance was shed; look at how the demand was moving
    if prev.dnps > 0:
        return RegulationKind.COBR
    return RegulationKind.PRBR


class ActivityTracker:
    """Single-writer fold of a tick stream into snapshots and events.

    Feed ticks in order via ingest(); the tracker keeps the rolling
    snapshot, classifies events, and accumulates the compliance sums.
    """

    def __init__(self):
        self.prev: Optional[ActivitySnapshot] = None
        self.events: list[RegulationEvent] = []
        self._sum_nps = 0
        self._sum_cps = 0

    def ingest(self, tick: TaskTick, perf: float):
        snap = snapshot(tick, self.prev, perf)
        event = None
        if self.prev is not None and snap.dcps != 0:
            kind = classify_regulation(snap, self.prev)
            event = RegulationEvent(snap.t, kind)
            self.events.append(event)
        self._sum_nps += snap.nps
        self._sum_cps += snap.cps
        self.prev = snap
        return snap, event

    def compliance_rate(self) -> float:
        if self._sum_nps == 0:
            return 1.0
        return self._sum_cps / self._sum_nps


# ---------------------------------------------------------------------------
# file formats


def read_ticks_jsonl(path: str | Path):
    """Tick stream: {"t", "at": {...}, "ot": {...}, "perf"} per line.

    `t` must be a JSON integer, `at` and `ot` JSON objects whose values are
    the JSON integers 0 or 1, and `perf` a JSON number; nothing is coerced
    (not `true`, `1.0` or `"0.5"`). The tick holds the decoded `at` and
    `ot` dicts themselves. Each value is checked once, here; `ot` must then
    name exactly the active tasks, with TaskTick's message.
    """
    where = f"stream 'ticks' ({path})"
    make_tick = TaskTick._make
    for rec in load_jsonl(path):
        try:
            t, at, ot = rec["t"], rec["at"], rec["ot"]
        except (KeyError, TypeError) as exc:
            raise DataError(f"{where}: bad record {rec!r}") from exc
        if type(t) is not int:
            raise DataError(f"{where}: bad record {rec!r}: t is not an integer")
        if type(at) is not dict or type(ot) is not dict:
            raise DataError(f"{where}: bad record {rec!r}: at and ot must be JSON objects")
        active = set()
        for task, value in at.items():
            if type(value) is not int or not 0 <= value <= 1:
                raise DataError(f"{where}: bad record {rec!r}: at and ot values must be 0 or 1")
            if value:
                active.add(task)
        for value in ot.values():
            if type(value) is not int or not 0 <= value <= 1:
                raise DataError(f"{where}: bad record {rec!r}: at and ot values must be 0 or 1")
        if ot.keys() != active:
            raise DataError(_OT_NOT_ACTIVE.format(t))
        tick = make_tick((t, at, ot))
        perf = rec.get("perf")
        if type(perf) not in (int, float):
            raise DataError(f"{where}: bad record {rec!r}: perf is not a number")
        try:
            perf = float(perf)
        except OverflowError as exc:  # an integer past the float range
            raise DataError(f"{where}: bad record {rec!r}") from exc
        yield tick, perf


def write_events_jsonl(events: Iterable[RegulationEvent], path: str | Path) -> None:
    dump_jsonl(({"t": e.t, "kind": e.kind.value} for e in events), path)
