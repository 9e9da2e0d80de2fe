"""Task-demand indicators: constraint discretization, spatial entropy,
rule-based difficulty, and the two-part performance index.

The constraint frame carries the per-second demand numbers: n1 (targets
awaiting processing), n2 (messages awaiting processing) and the spatial
entropy of target positions. Each is cut into ordinal levels:

    n1:      low <= 5 < medium <= 11 < high
    n2:      low <= 2 < high
    entropy: low <= 0.45 < medium <= 1.0 < high

Difficulty (1..3) is read from a first-match rule table over those levels;
the table must be total and is validated at load time.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError

LOW, MEDIUM, HIGH = "low", "medium", "high"
N1_LEVELS = (LOW, MEDIUM, HIGH)
N2_LEVELS = (LOW, HIGH)
ENTROPY_LEVELS = (LOW, MEDIUM, HIGH)

ENTROPY_GRID = (8, 8)


@dataclass(frozen=True)
class ConstraintFrame:
    """One second of task-demand numbers."""

    t: int
    n1: int
    n2: int
    entropy: float

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise DataError(f"constraint frame t={self.t}: counts must be >= 0")
        if not math.isfinite(self.entropy):
            raise DataError(f"constraint frame t={self.t}: entropy must be finite")
        if self.entropy < 0:
            raise DataError(f"constraint frame t={self.t}: entropy must be >= 0")


@dataclass(frozen=True)
class DiscretizedConstraints:
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
    return DiscretizedConstraints(n1_level=n1, n2_level=n2, entropy_level=ent)


def spatial_entropy(
    positions: Sequence[tuple[float, float]],
    bounds: tuple[float, float],
    grid: tuple[int, int] = ENTROPY_GRID,
) -> float:
    """Shannon entropy (nats) of target positions over an occupancy grid.

    The area [0,w] x [0,h] is split into grid cells; entropy is taken over
    the fraction of targets per occupied cell. No targets, or all targets in
    one cell, gives 0. Positions outside the area are clamped to the border
    cell and a warning is emitted.
    """
    w, h = bounds
    rows, cols = grid
    if w <= 0 or h <= 0 or rows < 1 or cols < 1:
        raise ValueError("spatial_entropy: bounds and grid must be positive")
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        return 0.0
    xs, ys = pts[:, 0], pts[:, 1]
    outside = (xs < 0) | (xs > w) | (ys < 0) | (ys > h)
    if np.any(outside):
        warnings.warn(
            f"spatial_entropy: {int(outside.sum())} position(s) outside the area, clamped",
            stacklevel=2,
        )
    col = np.clip((np.clip(xs, 0, w) / w) * cols, 0, cols - 1e-9).astype(int)
    row = np.clip((np.clip(ys, 0, h) / h) * rows, 0, rows - 1e-9).astype(int)
    cells = row * cols + col
    _, counts = np.unique(cells, return_counts=True)
    p = counts / counts.sum()
    return float(-np.sum(p * np.log(p))) + 0.0  # avoid -0.0 for single-cell layouts


# ---------------------------------------------------------------------------
# difficulty rule table


@dataclass(frozen=True)
class DifficultyRule:
    """First-match rule: unspecified inputs match anything."""

    td: int
    n1: Optional[frozenset] = None
    n2: Optional[frozenset] = None
    entropy: Optional[frozenset] = None

    def matches(self, d: DiscretizedConstraints) -> bool:
        return (
            (self.n1 is None or d.n1_level in self.n1)
            and (self.n2 is None or d.n2_level in self.n2)
            and (self.entropy is None or d.entropy_level in self.entropy)
        )


def _validate_rules(rules: Sequence[DifficultyRule]) -> tuple[DifficultyRule, ...]:
    for rule in rules:
        if rule.td not in (1, 2, 3):
            raise ConfigError(f"difficulty rule: td must be 1..3, got {rule.td}")
        for name, levels, allowed in (
            ("n1", rule.n1, N1_LEVELS),
            ("n2", rule.n2, N2_LEVELS),
            ("entropy", rule.entropy, ENTROPY_LEVELS),
        ):
            if levels is not None and not set(levels) <= set(allowed):
                raise ConfigError(f"difficulty rule: bad {name} levels {sorted(levels)}")
    for combo in product(N1_LEVELS, N2_LEVELS, ENTROPY_LEVELS):
        d = DiscretizedConstraints(*combo)
        if not any(rule.matches(d) for rule in rules):
            raise ConfigError(f"difficulty rules are not total: no rule matches {combo}")
    return tuple(rules)


#: High demand needs saturated target and message counts plus at least medium
#: spread; the easy level needs everything at its minimum rank.
DEFAULT_DIFFICULTY_RULES = _validate_rules(
    [
        DifficultyRule(td=3, n1=frozenset({HIGH}), n2=frozenset({HIGH}),
                       entropy=frozenset({MEDIUM, HIGH})),
        DifficultyRule(td=1, n1=frozenset({LOW}), n2=frozenset({LOW}),
                       entropy=frozenset({LOW})),
        DifficultyRule(td=2),
    ]
)


def load_difficulty_rules(path: str | Path) -> tuple[DifficultyRule, ...]:
    """Rule table JSON: {"rules": [{"td": 3, "n1": [...], ...}, ...]}."""
    with open(path) as fh:
        raw = json.load(fh)
    try:
        rules = [
            DifficultyRule(
                td=int(r["td"]),
                n1=frozenset(r["n1"]) if "n1" in r else None,
                n2=frozenset(r["n2"]) if "n2" in r else None,
                entropy=frozenset(r["entropy"]) if "entropy" in r else None,
            )
            for r in raw["rules"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"difficulty rules {path}: {exc}") from exc
    return _validate_rules(rules)


def task_difficulty(
    d: DiscretizedConstraints,
    rules: Sequence[DifficultyRule] = DEFAULT_DIFFICULTY_RULES,
) -> int:
    """Difficulty level 1..3 from the first matching rule."""
    for rule in rules:
        if rule.matches(d):
            return rule.td
    raise ConfigError(f"difficulty rules are not total: no rule matches {d}")


# ---------------------------------------------------------------------------
# performance


def performance_index(
    neutralizations: Sequence[tuple[float, float]],
    messages: Sequence[tuple[float, Optional[float]]],
    weights: tuple[float, float] = (0.5, 0.5),
    t_ref_s: float = 180.0,
    message_budget_s: float = 120.0,
) -> PerformanceIndex:
    """Two-part performance score in [0,1].

    p1 scores neutralization speed: each (detect_t, neutralize_t) pair
    contributes max(0, 1 - duration / t_ref_s). p2 is the fraction of
    messages answered in time: each (appear_t, zone_t) pair counts when
    zone_t - appear_t <= message_budget_s; zone_t of None is a miss.
    Components with no observations are vacuously 1.0.
    """
    w1, w2 = weights
    if w1 < 0 or w2 < 0 or abs(w1 + w2 - 1.0) > 1e-9:
        raise ConfigError(f"performance weights must be >= 0 and sum to 1, got {weights}")
    if t_ref_s <= 0 or message_budget_s <= 0:
        raise ConfigError("performance: t_ref_s and message_budget_s must be positive")

    if neutralizations:
        scores = []
        for detect_t, neutralize_t in neutralizations:
            if neutralize_t < detect_t:
                raise DataError(
                    f"neutralization at {neutralize_t} precedes detection at {detect_t}"
                )
            scores.append(max(0.0, 1.0 - (neutralize_t - detect_t) / t_ref_s))
        p1 = float(np.mean(scores))
    else:
        p1 = 1.0

    if messages:
        ok = sum(
            1
            for appear_t, zone_t in messages
            if zone_t is not None and zone_t - appear_t <= message_budget_s
        )
        p2 = ok / len(messages)
    else:
        p2 = 1.0

    return PerformanceIndex(p1=p1, p2=p2, overall=w1 * p1 + w2 * p2)
