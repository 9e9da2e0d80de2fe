"""Workload-triggered assistance with hysteresis.

DEFAULT_RULES is the assistance policy. Each rule names a directive, the
task it helps with, the stage of automation it intervenes at (gathering,
analysis, decision, action; after Parasuraman, Sheridan & Wickens 2000) and
the workload level that switches it on. A directive is active at level L
when its trigger level is <= L, so aids gained at level 4 stay on at level
5. The table is the only place an aid is written down: the microworld
reads each aid's task and stage from it, and the stage decides what the
aid does there (`microworld.SERVICE_FACTOR`, `microworld.MACHINE_ITEMS_PER_S`).

The engine is edge-triggered: feeding it a timestamped level yields only
the activate/deactivate commands for directives whose state changed.
Deactivation is held back until the level has stayed below the trigger for
hold_s seconds, which stops a level bouncing on a boundary from toggling
aids every tick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, DataError, SequencingError
from .jsonl import is_finite_number, is_integer

STAGES = ("gathering", "analysis", "decision", "action")
HOLD_S = 5.0  # the default release hold, seconds


@dataclass(frozen=True)
class AssistanceRule:
    directive: str
    task: str
    stage: str  # one of STAGES
    trigger_level: int  # 1..5


DEFAULT_RULES = (
    AssistanceRule("highlight_messages", "ReadMessage", "gathering", 4),
    AssistanceRule("highlight_empty_zones", "ManageEmptyZone", "gathering", 4),
    AssistanceRule("annotate_message_coords", "DetectVehicle", "analysis", 5),
    AssistanceRule("auto_judge_zone_useful", "ManageEmptyZone", "decision", 5),
    AssistanceRule("auto_transfer_drones", "ManageEmptyZone", "action", 5),
    AssistanceRule("auto_inspect", "InspectLock", "action", 5),
)


def assistance_for_level(level: int) -> tuple:
    """Directives that should be on at a workload level, in rule order."""
    if not (is_integer(level) and 1 <= level <= 5):
        raise ConfigError(f"workload level must be 1..5, got {level}")
    return tuple(r.directive for r in DEFAULT_RULES if r.trigger_level <= level)


@dataclass(frozen=True)
class AssistanceCommand:
    """One switching edge; streams serialize as {t, directive, task, active}."""

    t: float
    directive: str
    task: str
    active: bool


class AdaptationEngine:
    """Turns a level stream into activation edges, with release hysteresis."""

    def __init__(self, hold_s: float = HOLD_S):
        if not (is_finite_number(hold_s) and hold_s >= 0):
            raise ConfigError(f"hold_s must be a finite number >= 0, got {hold_s!r}")
        self.hold_s = hold_s
        self._active: set = set()
        self._last_high: dict = {}  # directive -> last t at/above trigger
        self._last_t: Optional[float] = None

    @property
    def active(self) -> frozenset:
        return frozenset(self._active)

    def step(self, t: float, level: int) -> list:
        if not (is_integer(level) and 1 <= level <= 5):
            raise ConfigError(f"workload level must be 1..5, got {level}")
        if not is_finite_number(t):
            raise DataError(f"time must be a finite number, got {t!r}")
        if self._last_t is not None and t <= self._last_t:
            raise SequencingError(f"time went backwards: {t} after {self._last_t}")
        self._last_t = t
        commands = []
        for rule in DEFAULT_RULES:
            name = rule.directive
            if level >= rule.trigger_level:
                self._last_high[name] = t
                if name not in self._active:
                    self._active.add(name)
                    commands.append(
                        AssistanceCommand(t=t, directive=name, task=rule.task, active=True)
                    )
            elif name in self._active:
                if t - self._last_high[name] > self.hold_s:
                    self._active.discard(name)
                    commands.append(
                        AssistanceCommand(t=t, directive=name, task=rule.task, active=False)
                    )
        return commands
