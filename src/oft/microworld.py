"""Deterministic surveillance microworld with a closed monitoring loop.

A 20-minute session in two halves: a calm first half and a busier second
half where message and vehicle arrivals speed up. Two Poisson streams feed
the scene: intel messages that should each be answered with a search zone
within two minutes, and suspect vehicles that go hidden -> detected ->
inspected -> neutralized. The operator is a single server working
earliest-deadline-first on six task kinds, with a scripted latent load that
slows service and, for some scripts, makes jobs slip entirely.

Every run is reproducible: all randomness flows from numpy Generators
derived from the scenario seed, and the log writer sorts keys, so the same
seed gives byte-identical logs.

Per second the run emits activity counts (which tasks are engaged, which
were handled per their prescription), demand numbers, a windowed
performance score, synthetic heart-beat and pupil channels driven by the
latent load, the fused workload level, and, when adaptation is on, the
assistance directives switched by that level. A self-rating on a 1..5
scale is logged every ISA_PERIOD_S seconds for external comparison.

The aids act by their stage of automation, read from `adapt.DEFAULT_RULES`:
an action-stage aid takes up to MACHINE_ITEMS_PER_S of its task's jobs off
the operator's queue each second; any other aid multiplies its task's
service time by SERVICE_FACTOR of its stage. This module names no aid.

A scenario varies only in the fields of ScenarioConfig. The arrival rates,
self-rating period, performance window and pupil reference are constants
below; the message budget and neutralization reference time come from
`taskload`.

The physiology is framed by `physio.per_second_frames` against the fixed
pupil reference (PUPIL_REF_MM, PUPIL_REF_SD), and each second goes through
`Monitor.step`, the policy `pipeline.monitor_offline` runs on recordings:
replaying a session's streams with that reference gives its levels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import physio
from .adapt import DEFAULT_RULES, AdaptationEngine
from .errors import ConfigError
from .fusion import MwlNetwork, fuzzify, mwl_level, posterior
from .jsonl import is_finite_number, is_seed
from .regulation import (COST_ORIENTED, PERFORMANCE_ORIENTED, ActivitySnapshot, ActivityTracker,
                         RegulationEvent, TaskTick)
from .taskload import (MESSAGE_BUDGET_S, T_REF_S, ConstraintFrame, discretize, performance_index,
                       spatial_entropy, task_difficulty)

TASKS = (
    "ReadMessage",
    "DrawZone",
    "ManageEmptyZone",
    "DetectVehicle",
    "InspectLock",
    "Neutralize",
)

# DrawZone has no budget of its own: its deadline is the message's
TASK_BUDGET_S = {
    "ReadMessage": MESSAGE_BUDGET_S,
    "ManageEmptyZone": 60.0,
    "DetectVehicle": 90.0,
    "InspectLock": 60.0,
    "Neutralize": 90.0,
}

BASE_SERVICE_S = {
    "ReadMessage": 2.0,
    "DrawZone": 2.5,
    "ManageEmptyZone": 2.0,
    "DetectVehicle": 3.0,
    "InspectLock": 2.5,
    "Neutralize": 2.5,
}

# what a load-shedding operator abandons first
SHED_ORDER = ("ManageEmptyZone", "DrawZone", "ReadMessage", "DetectVehicle", "InspectLock", "Neutralize")

# longest session a scenario may ask for; the run keeps per-second records in memory
MAX_DURATION_S = physio.MAX_RECORDING_S
# earliest deadline first, ties to the older job
_EDF_KEY = attrgetter("deadline_t", "id")

#: Poisson rate of each arrival stream (messages, vehicles) before and after the phase split.
CALM_RATE_PER_S = 1.0 / 60.0
BUSY_RATE_PER_S = 1.0 / 20.0
#: A self-rating is logged every this many seconds.
ISA_PERIOD_S = 90
#: Pupil reference (mean, sd in mm) that z-scores the simulated pupil trace.
PUPIL_REF_MM = 3.45
PUPIL_REF_SD = 0.45
#: The windowed performance looks back this many seconds.
PERF_WINDOW_S = 300.0

#: What an aid does, by its stage (see the module docstring).
MACHINE_ITEMS_PER_S = 2
SERVICE_FACTOR = {"gathering": 0.6, "analysis": 0.5, "decision": 0.5}
# the aids of DEFAULT_RULES, in rule order
_TAKEOVERS = tuple((r.directive, r.task) for r in DEFAULT_RULES if r.stage == "action")
_SPEEDUPS = tuple((r.directive, r.task, SERVICE_FACTOR[r.stage])
                  for r in DEFAULT_RULES if r.stage != "action")


@dataclass(frozen=True)
class ScenarioConfig:
    duration_s: int = 1200
    phase_split_s: int = 600
    seed: int = 0
    operator: str = "diligent"
    dfa: bool = False
    hold_s: float = 5.0

    def __post_init__(self):
        if self.duration_s < 1 or not 0 < self.phase_split_s <= self.duration_s:
            raise ConfigError("scenario: need 0 < phase_split_s <= duration_s")
        if self.duration_s > MAX_DURATION_S:
            raise ConfigError(f"scenario: duration_s must be at most {MAX_DURATION_S} (one day)")
        if not (is_finite_number(self.hold_s) and self.hold_s >= 0):
            raise ConfigError(f"scenario: hold_s must be a finite number >= 0, got {self.hold_s!r}")
        if not is_seed(self.seed):
            raise ConfigError(f"scenario: seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class OperatorScript:
    """How the simulated operator behaves and how loaded they feel.

    load(t) is the latent load trace in [0,1]. service_factor scales base
    service times. slip_probability is the chance a newly arrived job is
    never noticed (it then times out). shed_threshold, when set, makes the
    operator abandon low-priority pending jobs once the queue grows past it.
    """

    name: str
    load: Callable[[float], float]
    service_factor: Callable[[float], float]
    slip_probability: Callable[[float], float]
    shed_threshold: Optional[int] = None


def _two_ramp(a0: float, a1: float, b0: float, b1: float, split: float, duration: float):
    def load(t: float) -> float:
        if t < split:
            return a0 + (a1 - a0) * (t / split)
        tail = max(duration - split, 1.0)
        return b0 + (b1 - b0) * ((t - split) / tail)

    return load


OPERATORS = ("diligent", "prioritizer", "degrading-overload", "flat")


def operator_script(name: str, duration_s: int = 1200, phase_split_s: int = 600) -> OperatorScript:
    """The built-in operator behaviour called `name`, one of OPERATORS.

    degrading-overload slows sharply and starts to slip jobs as its load
    climbs. The other three share a gentle service curve and never slip;
    flat feels a constant load, and prioritizer sheds past four queued jobs.
    """
    if name not in OPERATORS:
        raise ConfigError(f"unknown operator script {name!r}; choose from {', '.join(OPERATORS)}")
    split, dur = float(phase_split_s), float(duration_s)
    if name == "degrading-overload":
        return OperatorScript(
            name=name,
            load=_two_ramp(0.15, 0.25, 0.45, 0.95, split, dur),
            service_factor=lambda L: 1.0 + 3.0 * L,
            slip_probability=lambda L: max(0.0, L - 0.65) * 0.8,
        )
    return OperatorScript(
        name=name,
        load=(lambda t: 0.25) if name == "flat" else _two_ramp(0.15, 0.20, 0.30, 0.45, split, dur),
        service_factor=lambda L: 1.0 + 0.5 * L,
        slip_probability=lambda L: 0.0,
        shed_threshold=4 if name == "prioritizer" else None,
    )


# ---------------------------------------------------------------------------
# world objects


@dataclass
class Message:
    id: int
    arrive_t: float
    read_t: Optional[float] = None
    zone_t: Optional[float] = None


@dataclass
class Vehicle:
    id: int
    spawn_t: float
    x: float
    y: float
    detect_t: Optional[float] = None
    inspect_t: Optional[float] = None
    neutralize_t: Optional[float] = None

    @property
    def state(self) -> str:
        if self.neutralize_t is not None:
            return "neutralized"
        if self.inspect_t is not None:
            return "inspected"
        if self.detect_t is not None:
            return "detected"
        return "hidden"


@dataclass
class Zone:
    id: int
    created_t: float
    has_drone: bool = False


@dataclass
class Job:
    id: int
    task: str
    created_t: float
    deadline_t: float
    remaining_s: Optional[float] = None  # set when first picked up
    slipped: bool = False
    message: Optional[Message] = None
    vehicle: Optional[Vehicle] = None
    zone: Optional[Zone] = None


class World:
    """Scene state plus the operator queue. One tick is one second."""

    def __init__(self, config: ScenarioConfig, script: OperatorScript,
                 rng_spawn: np.random.Generator, rng_operator: np.random.Generator):
        self.config = config
        self.script = script
        self.rng_spawn = rng_spawn
        self.rng_operator = rng_operator
        self.messages: list[Message] = []
        self.vehicles: list[Vehicle] = []
        self.zones: list[Zone] = []
        self.queue: list[Job] = []
        self.ot_flags = {task: 1 for task in TASKS}
        self.miss_counts = {task: 0 for task in TASKS}
        self.machine_done = {task: 0 for task in TASKS}
        self._next_id = 0
        # last inputs and outputs of the two per-tick observables; vehicles
        # are only ever appended and neutralised, so (vehicles, still active)
        # changes whenever the active set does
        self._entropy_key: Optional[tuple] = None
        self._entropy = 0.0
        self._perf_key: Optional[tuple] = None
        self._perf = 0.0

    # -- plumbing ----------------------------------------------------------

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def arrival_rate(self, t: float) -> float:
        if t < self.config.phase_split_s:
            return CALM_RATE_PER_S
        return BUSY_RATE_PER_S

    def add_job(self, task: str, t: float, deadline_t: float, *,
                message: Optional[Message] = None, vehicle: Optional[Vehicle] = None,
                zone: Optional[Zone] = None) -> Job:
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}")
        job = Job(id=self._new_id(), task=task, created_t=t, deadline_t=deadline_t,
                  message=message, vehicle=vehicle, zone=zone)
        load = self.script.load(t)
        if self.rng_operator.random() < self.script.slip_probability(load):
            job.slipped = True
        self.queue.append(job)
        return job

    # -- per-tick phases ----------------------------------------------------

    def _expire(self, t: float):
        kept = []
        for job in self.queue:
            if job.deadline_t <= t:
                self.ot_flags[job.task] = 0
                self.miss_counts[job.task] += 1
            else:
                kept.append(job)
        self.queue = kept

    def _shed(self, t: float):
        threshold = self.script.shed_threshold
        if threshold is None or len(self.queue) <= threshold:
            return
        for task in SHED_ORDER:
            if len(self.queue) <= threshold:
                break
            keep, dropped = [], 0
            for job in self.queue:
                if job.task == task and len(self.queue) - dropped > threshold:
                    self.ot_flags[task] = 0
                    self.miss_counts[task] += 1
                    dropped += 1
                else:
                    keep.append(job)
            self.queue = keep

    def _spawn(self, t: float):
        rate = self.arrival_rate(t)
        for _ in range(int(self.rng_spawn.poisson(rate))):
            msg = Message(id=self._new_id(), arrive_t=t)
            self.messages.append(msg)
            self.add_job("ReadMessage", t, t + TASK_BUDGET_S["ReadMessage"], message=msg)
        for _ in range(int(self.rng_spawn.poisson(rate))):
            x, y = self.rng_spawn.random(2)
            veh = Vehicle(id=self._new_id(), spawn_t=t, x=float(x), y=float(y))
            self.vehicles.append(veh)
            self.add_job("DetectVehicle", t, t + TASK_BUDGET_S["DetectVehicle"], vehicle=veh)

    def _machine_pass(self, t: float, directives: frozenset, completed: set):
        for directive, task in _TAKEOVERS:
            if directive not in directives:
                continue
            for _ in range(MACHINE_ITEMS_PER_S):
                job = min((j for j in self.queue if j.task == task), key=_EDF_KEY, default=None)
                if job is None:
                    break
                self.queue.remove(job)
                self.machine_done[task] += 1
                self._complete(job, t, completed)

    def _service_multiplier(self, task: str, directives: frozenset) -> float:
        mult = 1.0
        for directive, aided, factor in _SPEEDUPS:
            if aided == task and directive in directives:
                mult *= factor
        return mult

    def _serve(self, t: float, directives: frozenset, completed: set):
        budget = 1.0
        load = self.script.load(t)
        factor = self.script.service_factor(load)
        while budget > 1e-9:
            job = min((j for j in self.queue if not j.slipped), key=_EDF_KEY, default=None)
            if job is None:
                break
            if job.remaining_s is None:
                job.remaining_s = BASE_SERVICE_S[job.task] * factor * self._service_multiplier(job.task, directives)
            spend = min(budget, job.remaining_s)
            job.remaining_s -= spend
            budget -= spend
            if job.remaining_s <= 1e-9:
                self.queue.remove(job)
                self._complete(job, t, completed)

    def _complete(self, job: Job, t: float, completed: set):
        self.ot_flags[job.task] = 1
        completed.add(job.task)
        if job.task == "ReadMessage" and job.message is not None:
            job.message.read_t = t
            self.add_job("DrawZone", t, job.message.arrive_t + MESSAGE_BUDGET_S,
                         message=job.message)
        elif job.task == "DrawZone" and job.message is not None:
            job.message.zone_t = t
            zone = Zone(id=self._new_id(), created_t=t)
            self.zones.append(zone)
            self.add_job("ManageEmptyZone", t, t + TASK_BUDGET_S["ManageEmptyZone"], zone=zone)
        elif job.task == "ManageEmptyZone" and job.zone is not None:
            job.zone.has_drone = True
        elif job.task == "DetectVehicle" and job.vehicle is not None:
            job.vehicle.detect_t = t
            self.add_job("InspectLock", t, t + TASK_BUDGET_S["InspectLock"], vehicle=job.vehicle)
        elif job.task == "InspectLock" and job.vehicle is not None:
            job.vehicle.inspect_t = t
            self.add_job("Neutralize", t, t + TASK_BUDGET_S["Neutralize"], vehicle=job.vehicle)
        elif job.task == "Neutralize" and job.vehicle is not None:
            job.vehicle.neutralize_t = t

    def tick(self, t: int, directives: frozenset = frozenset()) -> TaskTick:
        """Advance one second; returns the activity tick for regulation."""
        seen = {job.task for job in self.queue}
        completed: set = set()
        self._expire(t)
        self._shed(t)
        self._spawn(t)
        seen |= {job.task for job in self.queue}
        self._machine_pass(t, directives, completed)
        self._serve(t, directives, completed)
        seen |= completed
        at, ot = {}, {}
        for task in TASKS:
            if task in seen:
                at[task] = 1
                ot[task] = self.ot_flags[task]
            else:
                at[task] = 0
        return TaskTick(t=t, at=at, ot=ot)

    # -- observables --------------------------------------------------------

    def demand(self, t: float) -> ConstraintFrame:
        """Targets and messages awaiting processing, and the target spread.

        The entropy is recomputed only when the active vehicle set changed.
        """
        active = [v for v in self.vehicles if v.neutralize_t is None]
        pending_msgs = sum(
            1 for m in self.messages
            if m.read_t is None and t <= m.arrive_t + MESSAGE_BUDGET_S
        )
        key = (len(self.vehicles), len(active))
        if key != self._entropy_key:
            self._entropy = spatial_entropy([(v.x, v.y) for v in active])
            self._entropy_key = key
        return ConstraintFrame(t=int(t), n1=len(active), n2=pending_msgs, entropy=self._entropy)

    def windowed_performance(self, t: float) -> float:
        """Blend of recent neutralization speed and message answering.

        Vehicles detected but still open past the reference time count as
        zero-score entries so an overload shows up while it is happening.
        The window is rescanned every call, but scored only when it changed.
        """
        lo = t - PERF_WINDOW_S
        neutralizations = []
        for v in self.vehicles:
            if v.detect_t is None or v.detect_t < lo:
                continue
            if v.neutralize_t is not None:
                neutralizations.append((v.detect_t, v.neutralize_t))
            elif t - v.detect_t >= T_REF_S:
                neutralizations.append((v.detect_t, v.detect_t + T_REF_S))
        messages = []
        for m in self.messages:
            if m.arrive_t < lo:
                continue
            if m.zone_t is not None:
                messages.append((m.arrive_t, m.zone_t))
            elif t > m.arrive_t + MESSAGE_BUDGET_S:
                messages.append((m.arrive_t, None))
        key = (neutralizations, messages)
        if key != self._perf_key:
            self._perf = performance_index(neutralizations, messages).overall
            self._perf_key = key
        return self._perf

    def final_performance(self):
        neutralizations = [
            (v.detect_t, v.neutralize_t)
            for v in self.vehicles
            if v.detect_t is not None and v.neutralize_t is not None
        ]
        messages = [(m.arrive_t, m.zone_t) for m in self.messages]
        return performance_index(neutralizations, messages)


# ---------------------------------------------------------------------------
# physiological channels


def generate_beats(load: Callable[[float], float], duration_s: float,
                   rng: np.random.Generator) -> tuple:
    """Simulated beat times and beat-to-beat intervals under a load trace.

    The mean interval shortens with load: 800 * (1 - 0.2 * L) ms, with 3%
    multiplicative jitter, clipped to a physiological band.
    """
    times, intervals = [], []
    t = 0.0
    while t < duration_s:
        L = load(t)
        rr = 800.0 * (1.0 - 0.2 * L) * (1.0 + 0.03 * rng.standard_normal())
        rr = float(min(max(rr, 300.0), 2000.0))
        times.append(t)
        intervals.append(rr)
        t += rr / 1000.0
    return np.asarray(times), np.asarray(intervals)


def generate_pupil(load: Callable[[float], float], duration_s: float,
                   rng: np.random.Generator) -> tuple:
    """4 Hz pupil trace: 3.0 + 1.5 * L mm, noise 0.1 mm, and a blink (a
    zero) at each sample with probability 0.005."""
    n = int(duration_s * 4.0)
    ts = np.arange(n) / 4.0
    base = np.asarray([3.0 + 1.5 * load(float(t)) for t in ts])
    values = base + 0.1 * rng.standard_normal(n)
    blinks = rng.random(n) < 0.005
    values[blinks] = 0.0
    return ts, values


# ---------------------------------------------------------------------------
# per-second monitoring policy

#: A regulation event colours the behaviour evidence for this many seconds.
BEHAVIOUR_WINDOW_S = 30
#: The effort reading is the held pupil z averaged over this many seconds.
EFFORT_SMOOTH_S = 5
#: The hard evidence of each behaviour label and each task difficulty.
BEHAVIOUR_EVIDENCE = {
    label: {label: 1.0} for label in ("cost_oriented", "performance_oriented", "none")
}
CONSTRAINT_EVIDENCE = {td: {f"td{td}": 1.0} for td in (1, 2, 3)}


class MonitorStep(NamedTuple):
    snapshot: ActivitySnapshot
    event: Optional[RegulationEvent]
    behaviour: str  # "cost_oriented", "performance_oriented" or "none"
    pupil_z: float  # held pupil z smoothed over EFFORT_SMOOTH_S seconds
    td: Optional[int]  # task difficulty; None when the second has no demand
    evidence: dict  # variable -> {label: weight}, ready to fuse


class Monitor:
    """One second of operator monitoring, the same live and on replay.

    Each step folds the activity tick into the regulation tracker, holds
    the last pupil z over seconds without one (0.0 before the first),
    averages it over EFFORT_SMOOTH_S seconds, and labels the behaviour by
    the regulation events of the last BEHAVIOUR_WINDOW_S seconds: cost
    oriented if any of them sheds compliance, else performance oriented if
    any raises it. The evidence maps constraint (only when the second has a
    demand frame), behaviour, performance and effort, in that order, to
    their likelihoods; fusing it is left to the caller.
    """

    def __init__(self, net: MwlNetwork):
        for var in ("performance", "effort"):
            if var not in net.partitions:
                raise ConfigError(f"fusion model must carry a partition for {var!r}")
        self.net = net
        self.tracker = ActivityTracker()
        self._recent_z: deque = deque(maxlen=EFFORT_SMOOTH_S)
        self._last_z = 0.0
        # events come in time order (the tracker rejects out-of-order
        # ticks), so the newest event of each orientation decides the label
        self._last_cost_t = float("-inf")
        self._last_perf_t = float("-inf")

    def step(self, tick: TaskTick, perf: float,
             frame: Optional[physio.FeatureFrame],
             demand: Optional[ConstraintFrame]) -> MonitorStep:
        snap, event = self.tracker.ingest(tick, perf)
        if event is not None:
            if event.kind in COST_ORIENTED:
                self._last_cost_t = event.t
            elif event.kind in PERFORMANCE_ORIENTED:
                self._last_perf_t = event.t
        if frame is not None and frame.pupil_z is not None:
            self._last_z = frame.pupil_z
        self._recent_z.append(self._last_z)
        z_smooth = sum(self._recent_z) / len(self._recent_z)

        since = tick.t - BEHAVIOUR_WINDOW_S
        if self._last_cost_t >= since:
            behaviour = "cost_oriented"
        elif self._last_perf_t >= since:
            behaviour = "performance_oriented"
        else:
            behaviour = "none"

        # the insertion order is the order posterior multiplies in
        evidence = {}
        td = None
        if demand is not None:
            td = task_difficulty(discretize(demand))
            evidence["constraint"] = CONSTRAINT_EVIDENCE[td]
        evidence["behaviour"] = BEHAVIOUR_EVIDENCE[behaviour]
        evidence["performance"] = fuzzify(perf, self.net.partitions["performance"])
        evidence["effort"] = fuzzify(z_smooth, self.net.partitions["effort"])
        return MonitorStep(snap, event, behaviour, z_smooth, td, evidence)


# ---------------------------------------------------------------------------
# closed-loop run


@dataclass
class RunResult:
    config: ScenarioConfig
    records: list  # chronological JSONL-ready dicts
    levels: np.ndarray  # per-second fused level
    latent: np.ndarray  # per-second scripted load
    isa: list  # (t, rating, level) triples
    compliance: float
    summary: dict

    @property
    def activations(self) -> list:
        return [r for r in self.records if r.get("record") == "assistance"]


def run_scenario(config: ScenarioConfig, net: Optional[MwlNetwork] = None) -> RunResult:
    """Run the microworld end to end and fuse workload each second."""
    if net is None:
        net = MwlNetwork.default()
    monitor = Monitor(net)
    script = operator_script(config.operator, config.duration_s, config.phase_split_s)
    ss = np.random.SeedSequence(config.seed)
    child = ss.spawn(3)
    world = World(config, script,
                  rng_spawn=np.random.default_rng(child[0]),
                  rng_operator=np.random.default_rng(child[1]))
    rng_physio = np.random.default_rng(child[2])
    beat_times, beat_intervals = generate_beats(script.load, config.duration_s, rng_physio)
    pupil_ts, pupil_values = generate_pupil(script.load, config.duration_s, rng_physio)
    frames = physio.per_second_frames(
        physio.RRSeries(beat_times, beat_intervals),
        physio.PupilSeries(pupil_ts, pupil_values),
        normalization="reference",
        reference=(PUPIL_REF_MM, PUPIL_REF_SD),
    ).frames

    engine = AdaptationEngine(hold_s=config.hold_s)
    directives: frozenset = frozenset()
    records: list[dict] = [{
        "record": "config",
        "duration_s": config.duration_s,
        "phase_split_s": config.phase_split_s,
        "calm_rate_per_s": round(CALM_RATE_PER_S, 9),
        "busy_rate_per_s": round(BUSY_RATE_PER_S, 9),
        "seed": config.seed,
        "operator": config.operator,
        "dfa": config.dfa,
        "isa_period_s": ISA_PERIOD_S,
    }]
    levels = np.zeros(config.duration_s, dtype=int)
    latent = np.zeros(config.duration_s, dtype=float)
    isa: list[tuple] = []

    for t in range(config.duration_s):
        load = script.load(float(t))
        latent[t] = load
        task_tick = world.tick(t, directives)
        perf = world.windowed_performance(float(t))
        demand = world.demand(float(t))
        frame = frames[t]
        step = monitor.step(task_tick, perf, frame, demand)
        if step.event is not None:
            records.append({"record": "regulation", "t": t, "kind": step.event.kind.name})
        post = posterior(net, step.evidence)
        level = mwl_level(post)
        levels[t] = level

        if config.dfa:
            for cmd in engine.step(float(t), level):
                records.append({
                    "record": "assistance", "t": t, "directive": cmd.directive,
                    "task": cmd.task, "active": cmd.active, "level": level,
                })
            directives = engine.active

        records.append({
            "record": "tick",
            "t": t,
            "latent": round(load, 6),
            "nps": step.snapshot.nps,
            "cps": step.snapshot.cps,
            "perf": round(perf, 6),
            "n1": demand.n1,
            "n2": demand.n2,
            "entropy": round(demand.entropy, 6),
            "td": step.td,
            "hrv_sdnn_ms": None if frame.hrv_sdnn_ms is None else round(frame.hrv_sdnn_ms, 6),
            "hrv_warmup": frame.warmup,
            "pupil_z": round(step.pupil_z, 6),
            "behaviour": step.behaviour,
            "level": level,
            "posterior": [round(p, 9) for p in post],
        })

        if t > 0 and t % ISA_PERIOD_S == 0:
            rating = min(5, 1 + int(5.0 * load))
            isa.append((t, rating, level))
            records.append({"record": "isa", "t": t, "rating": rating, "level": level})

    final = world.final_performance()
    compliance = monitor.tracker.compliance_rate()
    summary = {
        "record": "summary",
        "compliance": round(compliance, 6),
        "p1": round(final.p1, 6),
        "p2": round(final.p2, 6),
        "performance": round(final.overall, 6),
        "messages": len(world.messages),
        "messages_zoned_in_time": sum(
            1 for m in world.messages
            if m.zone_t is not None and m.zone_t - m.arrive_t <= MESSAGE_BUDGET_S
        ),
        "vehicles": len(world.vehicles),
        "neutralized": sum(1 for v in world.vehicles if v.neutralize_t is not None),
        "misses": dict(world.miss_counts),
        "machine_done": dict(world.machine_done),
        "regulation_events": len(monitor.tracker.events),
        "assistance_commands": sum(1 for r in records if r.get("record") == "assistance"),
    }
    records.append(summary)
    return RunResult(
        config=config,
        records=records,
        levels=levels,
        latent=latent,
        isa=isa,
        compliance=compliance,
        summary=summary,
    )


def compare_compliance(seeds: Sequence[int], base: Optional[ScenarioConfig] = None) -> dict:
    """Median compliance over seeds, adaptation off vs on, same worlds."""
    if base is None:
        base = ScenarioConfig(operator="degrading-overload")
    off, on = [], []
    for seed in seeds:
        off.append(run_scenario(replace(base, seed=seed, dfa=False)).compliance)
        on.append(run_scenario(replace(base, seed=seed, dfa=True)).compliance)
    return {
        "seeds": list(seeds),
        "compliance_off": off,
        "compliance_on": on,
        "median_off": float(np.median(off)),
        "median_on": float(np.median(on)),
    }
