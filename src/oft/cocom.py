"""Control-mode coding of dual-tank supervision traces.

Operators keep two tank levels inside the prescribed band [2000, 3000]
around the 2500 target. A whole trace (one scenario period) is coded into
one of four ordered modes by checking predicates in priority order:

    SCRAMBLED      any level below 1950 or above 3050
    OPPORTUNISTIC  any tank bottomed in the error band [1950, 2000)
    STRATEGIC      compliant throughout with high margin: some tank
                   peaked in [2750, 3000]
    TACTICAL       everything else

The order makes the coding total and deterministic; an excursion above the
band that stays at or below 3050 falls through to TACTICAL.

Modes carry an ordinal (scrambled < opportunistic < tactical < strategic)
used for the adjacency share of period-to-period transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .jsonl import numeric_array, read_csv, write_csv

BAND = (2000.0, 3000.0)
SCRAMBLED_FLOOR = 1950.0
SCRAMBLED_CEIL = 3050.0
STRATEGIC_MARGIN = 2750.0


class ControlMode(Enum):
    SCRAMBLED = 0
    OPPORTUNISTIC = 1
    TACTICAL = 2
    STRATEGIC = 3


MODE_ORDER = tuple(ControlMode)


@dataclass(frozen=True)
class TankTrace:
    """Per-second levels of the two tanks for one period."""

    tank_a: np.ndarray
    tank_b: np.ndarray
    period: str = ""

    def __post_init__(self):
        a = numeric_array(self.tank_a, "tank trace: tank_a", ndim=1, finite=True)
        b = numeric_array(self.tank_b, "tank trace: tank_b", ndim=1, finite=True)
        if a.shape != b.shape:
            raise DataError("tank trace: the two level series must be 1-d and equal length")
        if len(a) == 0:
            raise DataError("tank trace: empty")
        object.__setattr__(self, "tank_a", a)
        object.__setattr__(self, "tank_b", b)


def code_mode(trace: TankTrace) -> ControlMode:
    """Code one trace into its control mode (see module docstring)."""
    mins = (float(trace.tank_a.min()), float(trace.tank_b.min()))
    maxs = (float(trace.tank_a.max()), float(trace.tank_b.max()))
    if any(m < SCRAMBLED_FLOOR for m in mins) or any(m > SCRAMBLED_CEIL for m in maxs):
        return ControlMode.SCRAMBLED
    if any(SCRAMBLED_FLOOR <= m < BAND[0] for m in mins):
        return ControlMode.OPPORTUNISTIC
    compliant = all(m >= BAND[0] for m in mins) and all(m <= BAND[1] for m in maxs)
    if compliant and any(m >= STRATEGIC_MARGIN for m in maxs):
        return ControlMode.STRATEGIC
    return ControlMode.TACTICAL


@dataclass(frozen=True)
class TransitionMatrix:
    """Mode counts across two periods: rows first period, columns second."""

    counts: np.ndarray  # 4x4, MODE_ORDER both ways

    def __post_init__(self):
        counts = numeric_array(self.counts, "transition matrix: counts", int)
        if counts.shape != (4, 4) or np.any(counts < 0):
            raise DataError("transition matrix must be 4x4 with non-negative counts")
        object.__setattr__(self, "counts", counts)

    @property
    def first_period_marginals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def second_period_marginals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def adjacency_fraction(self) -> float:
        """Share of actual transitions that moved one ordinal step.

        Diagonal entries are stays, not transitions. With no transitions at
        all the share is vacuously 1.0.
        """
        counts = self.counts
        moved = int(counts.sum() - np.trace(counts))
        if moved == 0:
            return 1.0
        return int(np.trace(counts, 1) + np.trace(counts, -1)) / moved


def transitions(pairs: Iterable[tuple[ControlMode, ControlMode]]) -> TransitionMatrix:
    """Count (first period mode, second period mode) pairs."""
    counts = np.zeros((4, 4), dtype=int)
    for first, second in pairs:
        counts[first.value, second.value] += 1
    return TransitionMatrix(counts=counts)


# ---------------------------------------------------------------------------
# file formats


def read_trace_csv(path: str | Path) -> dict[str, TankTrace]:
    """Trace CSV with header t_s,tank_a,tank_b,period; one trace per period."""
    rows = read_csv(
        path, "trace", ("t_s", "tank_a", "tank_b", "period"),
        lambda t_s, tank_a, tank_b, period: (period, float(t_s), float(tank_a), float(tank_b)),
    )
    if not rows:
        raise DataError(f"stream 'trace' ({path}): empty")
    buckets: dict[str, list[list[float]]] = {}
    for period, *levels in rows:
        buckets.setdefault(period, []).append(levels)
    out = {}
    for period, levels in buckets.items():
        levels.sort(key=lambda r: r[0])
        out[period] = TankTrace(
            tank_a=np.array([r[1] for r in levels]),
            tank_b=np.array([r[2] for r in levels]),
            period=period,
        )
    return out


def write_coded_csv(coded: Sequence[tuple[str, ControlMode]], path: str | Path) -> None:
    write_csv(path, ("period", "mode"), ((period, mode.name) for period, mode in coded))


def read_roster_csv(path: str | Path) -> list[tuple[str, ControlMode, ControlMode]]:
    """Roster CSV with header participant,mode_low,mode_high."""
    by_name = {m.name: m for m in ControlMode}
    rows = read_csv(
        path, "roster", ("participant", "mode_low", "mode_high"),
        lambda participant, low, high: (participant, by_name[low], by_name[high]),
    )
    if not rows:
        raise DataError(f"stream 'roster' ({path}): empty")
    return rows
