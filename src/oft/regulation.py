"""Regulation-loop detection from per-second task activity.

Each task carries one prescription. At every second a task is either
inactive (no object waiting) or active; an active task reports whether its
prescription is currently met. Two counts summarize the second:

    nps = number of active tasks (prescriptions to comply with)
    cps = number of active tasks whose prescription is met

cps never exceeds nps. Changes of cps from one second to the next signal a
regulation event, classified by this decision tree:

    dcps(t) > 0 and perf(t) < threshold         -> PBR   (performance-based)
    dcps(t) > 0 and dcps(t-1) < 0               -> CBR   (compliance-based)
    dcps(t) > 0 otherwise                       -> OTHER_PERFORMANCE
    dcps(t) < 0 and dnps(t-1) > 0               -> COBR  (cost-based)
    dcps(t) < 0 and dnps(t-1) <= 0              -> PRBR  (priority-based)
    dcps(t) == 0                                -> no event
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional

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


@dataclass(frozen=True)
class TaskSpec:
    """A task with its prescription and per-object time budget."""

    id: str
    prescribed_strategy: str
    time_budget_s: float

    def __post_init__(self):
        if self.time_budget_s <= 0:
            raise ValueError(f"task {self.id}: time budget must be positive")


@dataclass(frozen=True)
class TaskTick:
    """One second of activity: at[task] in {0,1}; ot only for active tasks."""

    t: int
    at: dict
    ot: dict

    def __post_init__(self):
        active = {k for k, v in self.at.items() if v == 1}
        if any(v not in (0, 1) for v in self.at.values()):
            raise DataError(f"tick t={self.t}: at values must be 0 or 1")
        if any(v not in (0, 1) for v in self.ot.values()):
            raise DataError(f"tick t={self.t}: ot values must be 0 or 1")
        if set(self.ot) != active:
            raise DataError(
                f"tick t={self.t}: ot must be reported for exactly the active tasks"
            )


@dataclass(frozen=True)
class ActivitySnapshot:
    """Counts at second t plus their deltas against t-1."""

    t: int
    nps: int
    cps: int
    dcps: int
    dnps: int
    perf: float


@dataclass(frozen=True)
class RegulationEvent:
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
    return ActivitySnapshot(t=tick.t, nps=nps, cps=cps, dcps=dcps, dnps=dnps, perf=perf)


def classify_regulation(
    curr: ActivitySnapshot,
    prev: ActivitySnapshot,
    perf_threshold: float = PERF_THRESHOLD,
) -> Optional[RegulationKind]:
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
        if curr.perf < perf_threshold:
            return RegulationKind.PBR
        if prev.dcps < 0:
            return RegulationKind.CBR
        return RegulationKind.OTHER_PERFORMANCE
    # dcps < 0: compliance was shed; look at how the demand was moving
    if prev.dnps > 0:
        return RegulationKind.COBR
    return RegulationKind.PRBR


def compliance_rate(snapshots: Iterable[ActivitySnapshot]) -> float:
    """Overall sum(cps) / sum(nps); 1.0 when no task was ever active."""
    total_nps = 0
    total_cps = 0
    for snap in snapshots:
        total_nps += snap.nps
        total_cps += snap.cps
    if total_nps == 0:
        return 1.0
    return total_cps / total_nps


class ActivityTracker:
    """Single-writer fold of a tick stream into snapshots and events.

    Feed ticks in order via ingest(); the tracker keeps the rolling
    snapshot, classifies events, and accumulates the compliance sums.
    """

    def __init__(self, perf_threshold: float = PERF_THRESHOLD):
        self.perf_threshold = perf_threshold
        self.prev: Optional[ActivitySnapshot] = None
        self.events: list[RegulationEvent] = []
        self._sum_nps = 0
        self._sum_cps = 0

    def ingest(self, tick: TaskTick, perf: float):
        snap = snapshot(tick, self.prev, perf)
        event = None
        if self.prev is not None and snap.dcps != 0:
            kind = classify_regulation(snap, self.prev, self.perf_threshold)
            event = RegulationEvent(t=snap.t, kind=kind)
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


def load_task_specs(path: str | Path) -> list[TaskSpec]:
    """Task roster JSON: {"tasks": [{"id", "strategy", "budget_s"}, ...]}."""
    with open(path) as fh:
        raw = json.load(fh)
    try:
        return [
            TaskSpec(t["id"], t["strategy"], float(t["budget_s"]))
            for t in raw["tasks"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"task roster {path}: {exc}") from exc


def read_ticks_jsonl(path: str | Path):
    """Tick stream: {"t", "at": {...}, "ot": {...}, "perf"} per line."""
    for rec in load_jsonl(path):
        try:
            yield TaskTick(t=int(rec["t"]), at=dict(rec["at"]), ot=dict(rec["ot"])), float(
                rec["perf"]
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"stream 'ticks' ({path}): bad record {rec!r}") from exc


def write_events_jsonl(events: Iterable[RegulationEvent], path: str | Path) -> None:
    dump_jsonl(({"t": e.t, "kind": e.kind.value} for e in events), path)
