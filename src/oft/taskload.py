"""Task-demand indicators: constraint discretization, spatial entropy,
difficulty grading, and the two-part performance index.

The constraint frame carries the per-second demand numbers: n1 (targets
awaiting processing), n2 (messages awaiting processing) and the spatial
entropy of target positions. Each is cut into ordinal levels:

    n1:      low <= 5 < medium <= 11 < high
    n2:      low <= 2 < high
    entropy: low <= 0.45 < medium <= 1.0 < high

Difficulty (1..3) is graded from those levels by `task_difficulty`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import DataError
from .jsonl import float_sum, number

LOW, MEDIUM, HIGH = "low", "medium", "high"

ENTROPY_GRID = (8, 8)

#: A message counts as answered when its zone is drawn within this many seconds.
MESSAGE_BUDGET_S = 120.0
#: A neutralization scores 1 when instant, falling linearly to 0 at this many seconds.
T_REF_S = 180.0


class _ConstraintFrame(NamedTuple):
    t: int
    n1: int
    n2: int
    entropy: float


class ConstraintFrame(_ConstraintFrame):
    """One second of task-demand numbers.

    A tuple, checked once when made; `_make` and `_replace` skip the check.
    """

    __slots__ = ()

    def __new__(cls, t: int, n1: int, n2: int, entropy: float):
        if n1 < 0 or n2 < 0:
            raise DataError(f"constraint frame t={t}: counts must be >= 0")
        if not math.isfinite(entropy):
            raise DataError(f"constraint frame t={t}: entropy must be finite")
        if entropy < 0:
            raise DataError(f"constraint frame t={t}: entropy must be >= 0")
        return tuple.__new__(cls, (t, n1, n2, entropy))


class DiscretizedConstraints(NamedTuple):
    n1_level: str
    n2_level: str
    entropy_level: str


@dataclass(frozen=True)
class PerformanceIndex:
    p1: float
    p2: float
    overall: float


def discretize(frame: ConstraintFrame) -> DiscretizedConstraints:
    """Cut the three demand numbers into their ordinal levels."""
    if frame.n1 <= 5:
        n1 = LOW
    elif frame.n1 <= 11:
        n1 = MEDIUM
    else:
        n1 = HIGH
    n2 = LOW if frame.n2 <= 2 else HIGH
    if frame.entropy <= 0.45:
        ent = LOW
    elif frame.entropy <= 1.0:
        ent = MEDIUM
    else:
        ent = HIGH
    return tuple.__new__(DiscretizedConstraints, (n1, n2, ent))  # unchecked: no __new__ frame


def spatial_entropy(positions: Sequence[tuple[float, float]]) -> float:
    """Shannon entropy (nats) of target positions over an occupancy grid.

    `positions` is a sequence of (x, y) pairs of numbers, or a numpy array
    of shape (n, 2). The unit square is split into ENTROPY_GRID cells;
    entropy is taken over the fraction of targets per occupied cell. No
    targets, or all targets in one cell, gives 0. Positions outside the
    square are clamped to the border cell and a warning is emitted; a NaN
    position is a DataError, and so is anything but a pair of numbers (a
    flat list of coordinates too). The terms are added by jsonl.float_sum
    over the occupied cells in cell order, in Python floats.
    """
    rows, cols = ENTROPY_GRID
    if isinstance(positions, np.ndarray):
        positions = positions.tolist()
    try:
        n = len(positions)
    except TypeError:
        raise _not_pairs(positions) from None
    counts: dict = {}
    outside = 0
    for point in positions:
        try:
            x, y = point
            x, y = number(x), number(y)
        except (TypeError, ValueError, OverflowError):  # not a pair, or not of numbers
            raise _not_pairs(point) from None
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            if x != x or y != y:
                raise DataError("spatial_entropy: a target position is NaN")
            outside += 1
            x, y = min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)
        cell = min(int(y * rows), rows - 1) * cols + min(int(x * cols), cols - 1)
        counts[cell] = counts.get(cell, 0) + 1
    if outside:
        warnings.warn(f"spatial_entropy: {outside} position(s) outside the area, clamped",
                      stacklevel=2)
    shares = [counts[cell] / n for cell in sorted(counts)]
    return -float_sum(p * math.log(p) for p in shares) + 0.0  # no -0.0 for one cell


def _not_pairs(got) -> DataError:
    return DataError(f"spatial_entropy: positions must be (x, y) pairs of numbers, got {got!r}")


# ---------------------------------------------------------------------------
# difficulty


def task_difficulty(d: DiscretizedConstraints) -> int:
    """Difficulty level 1..3 of one second's demand levels.

    High demand (3) needs saturated target and message counts plus at least
    medium spread; the easy level (1) needs everything at its minimum rank;
    every other combination is 2.
    """
    if d.n1_level == HIGH and d.n2_level == HIGH and d.entropy_level != LOW:
        return 3
    if d.n1_level == LOW and d.n2_level == LOW and d.entropy_level == LOW:
        return 1
    return 2


# ---------------------------------------------------------------------------
# performance


def performance_index(
    neutralizations: Sequence[tuple[float, float]],
    messages: Sequence[tuple[float, Optional[float]]],
) -> PerformanceIndex:
    """Two-part performance score in [0,1], the mean of p1 and p2.

    p1 scores neutralization speed: each (detect_t, neutralize_t) pair
    contributes max(0, 1 - duration / T_REF_S). p2 is the fraction of
    messages answered in time: each (appear_t, zone_t) pair counts when
    zone_t - appear_t <= MESSAGE_BUDGET_S; zone_t of None is a miss.
    Components with no observations are vacuously 1.0.
    """
    if neutralizations:
        scores = []
        for detect_t, neutralize_t in neutralizations:
            if neutralize_t < detect_t:
                raise DataError(
                    f"neutralization at {neutralize_t} precedes detection at {detect_t}"
                )
            scores.append(max(0.0, 1.0 - (neutralize_t - detect_t) / T_REF_S))
        p1 = float(np.mean(scores))
    else:
        p1 = 1.0

    if messages:
        ok = sum(
            1
            for appear_t, zone_t in messages
            if zone_t is not None and zone_t - appear_t <= MESSAGE_BUDGET_S
        )
        p2 = ok / len(messages)
    else:
        p2 = 1.0

    return PerformanceIndex(p1=p1, p2=p2, overall=0.5 * p1 + 0.5 * p2)
