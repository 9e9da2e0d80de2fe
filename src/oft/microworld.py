"""Deterministic surveillance microworld with a closed monitoring loop.

A 20-minute session in two halves: a calm first half and a busier second
half where message and vehicle arrivals speed up. Two Poisson streams feed
the scene: intel messages that should each be answered with a search zone
within two minutes, and suspect vehicles that go hidden -> detected ->
inspected -> neutralized. The operator is a single server working
earliest-deadline-first on six task kinds, with a scripted latent load that
slows service and, for some scripts, makes jobs slip entirely.

A job carries its task, its deadline and the one scene item it works on:
the Message for ReadMessage and DrawZone, the Vehicle for DetectVehicle,
InspectLock and Neutralize, and none for ManageEmptyZone, the drone
transfer to a new zone, which nothing reads back. Completing a job stamps
its item and queues the task that follows. Ids number the jobs in the order
they were queued, and only break ties between equal deadlines.

Every run is reproducible: all randomness flows from numpy Generators
derived from the scenario seed, and the log writer sorts keys, so the same
seed gives byte-identical logs.

The closed loop is a `Session`, iterated once: it yields a `Second` per
simulated second with the activity tick, demand numbers, windowed
performance, synthetic heart-beat and pupil features driven by the latent
load, the fused workload level, the assistance directives that level
switched (when adaptation is on), and a 1..5 self-rating every
ISA_PERIOD_S seconds for external comparison. `run_scenario` folds the
seconds into the run log.

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
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import physio
from .adapt import DEFAULT_RULES, HOLD_S, AdaptationEngine
from .errors import ConfigError, DataError
from .fusion import MwlNetwork, fuzzify, mwl_level, posterior
from .jsonl import float_sum, is_finite_number, is_integer, number
from .regulation import ActivitySnapshot, ActivityTracker, RegulationEvent, TaskTick
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
    hold_s: float = HOLD_S

    def __post_init__(self):
        for name in ("duration_s", "phase_split_s", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigError(f"scenario: {name} must be an integer, got {value!r}")
            # stored as a Python int: the run log cannot encode an np.int64
            object.__setattr__(self, name, int(value))
        if type(self.dfa) is not bool:
            raise ConfigError(f"scenario: dfa must be True or False, got {self.dfa!r}")
        if self.duration_s < 1 or not 0 < self.phase_split_s <= self.duration_s:
            raise ConfigError("scenario: need 0 < phase_split_s <= duration_s")
        if self.duration_s > MAX_DURATION_S:
            raise ConfigError(f"scenario: duration_s must be at most {MAX_DURATION_S} (one day)")
        if not (is_finite_number(self.hold_s) and self.hold_s >= 0):
            raise ConfigError(f"scenario: hold_s must be a finite number >= 0, got {self.hold_s!r}")
        if self.seed < 0:
            raise ConfigError(f"scenario: seed must be an integer >= 0, got {self.seed!r}")
        operator_script(self.operator)  # an unknown operator is refused here, not at run time


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


def scripted_load(config: ScenarioConfig) -> list:
    """The session's per-second latent load, as Python floats."""
    load = operator_script(config.operator, config.duration_s, config.phase_split_s).load
    return [load(float(t)) for t in range(config.duration_s)]


# ---------------------------------------------------------------------------
# world objects


@dataclass
class Message:
    arrive_t: float
    read_t: Optional[float] = None
    zone_t: Optional[float] = None


@dataclass
class Vehicle:
    x: float
    y: float
    detect_t: Optional[float] = None
    inspect_t: Optional[float] = None
    neutralize_t: Optional[float] = None


@dataclass
class Job:
    id: int
    task: str
    deadline_t: float
    item: Optional[Message | Vehicle] = None  # see the module docstring
    remaining_s: Optional[float] = None  # set when first picked up
    slipped: bool = False


class World:
    """Scene state plus the operator queue. One tick is one second."""

    def __init__(self, config: ScenarioConfig,
                 rng_spawn: np.random.Generator, rng_operator: np.random.Generator):
        self.config = config
        self.script = operator_script(config.operator, config.duration_s, config.phase_split_s)
        self.rng_spawn = rng_spawn
        self.rng_operator = rng_operator
        self.messages: list[Message] = []
        self.vehicles: list[Vehicle] = []
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

    def arrival_rate(self, t: float) -> float:
        if t < self.config.phase_split_s:
            return CALM_RATE_PER_S
        return BUSY_RATE_PER_S

    def add_job(self, task: str, t: float, deadline_t: float,
                item: Optional[Message | Vehicle] = None) -> Job:
        if task not in TASKS:
            raise ConfigError(f"unknown task {task!r}")
        self._next_id += 1
        job = Job(self._next_id, task, deadline_t, item)
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
        """Abandon the jobs past the shed threshold: first by SHED_ORDER,
        then in queue order within a task."""
        threshold = self.script.shed_threshold
        if threshold is None or len(self.queue) <= threshold:
            return
        excess = len(self.queue) - threshold
        shed = sorted(self.queue, key=lambda job: SHED_ORDER.index(job.task))[:excess]
        for job in shed:
            self.ot_flags[job.task] = 0
            self.miss_counts[job.task] += 1
        gone = {job.id for job in shed}
        self.queue = [job for job in self.queue if job.id not in gone]

    def _spawn(self, t: float):
        rate = self.arrival_rate(t)
        for _ in range(int(self.rng_spawn.poisson(rate))):
            msg = Message(t)
            self.messages.append(msg)
            self.add_job("ReadMessage", t, t + TASK_BUDGET_S["ReadMessage"], msg)
        for _ in range(int(self.rng_spawn.poisson(rate))):
            x, y = self.rng_spawn.random(2)
            veh = Vehicle(float(x), float(y))
            self.vehicles.append(veh)
            self.add_job("DetectVehicle", t, t + TASK_BUDGET_S["DetectVehicle"], veh)

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
        task, item = job.task, job.item
        self.ot_flags[task] = 1
        completed.add(task)
        if task == "ReadMessage":
            item.read_t = t
            self.add_job("DrawZone", t, item.arrive_t + MESSAGE_BUDGET_S, item)
        elif task == "DrawZone":
            item.zone_t = t
            self.add_job("ManageEmptyZone", t, t + TASK_BUDGET_S["ManageEmptyZone"])
        elif task == "DetectVehicle":
            item.detect_t = t
            self.add_job("InspectLock", t, t + TASK_BUDGET_S["InspectLock"], item)
        elif task == "InspectLock":
            item.inspect_t = t
            self.add_job("Neutralize", t, t + TASK_BUDGET_S["Neutralize"], item)
        elif task == "Neutralize":
            item.neutralize_t = t

    def tick(self, t: int, directives: frozenset = frozenset()) -> TaskTick:
        """Advance one second; returns the activity tick for regulation."""
        seen = {job.task for job in self.queue}
        completed: set = set()
        self._expire(t)
        self._shed(t)
        n = len(self.queue)  # expiry and shedding only remove; _spawn appends
        self._spawn(t)
        seen.update(job.task for job in self.queue[n:])
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
        # 0/1 ints, and ot names exactly the active tasks: TaskTick's check holds
        return TaskTick._make((t, at, ot))

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
        # two counts and an entropy, finite and >= 0: ConstraintFrame's check holds
        return ConstraintFrame._make((int(t), len(active), pending_msgs, self._entropy))

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
    base = np.asarray([3.0 + 1.5 * load(t) for t in ts.tolist()])
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
    """One second of `Monitor.step`, which takes that second's pupil z."""

    snapshot: ActivitySnapshot
    event: Optional[RegulationEvent]
    behaviour: str  # "cost_oriented", "performance_oriented" or "none"
    pupil_z: float  # held pupil z smoothed over EFFORT_SMOOTH_S seconds
    td: Optional[int]  # task difficulty; None when the second has no demand
    evidence: dict  # variable -> {label: weight}, ready to fuse


class Monitor:
    """One second of operator monitoring, the same live and on replay.

    Each step folds the second's activity tick into the regulation tracker,
    holds the second's pupil z (None if it has none) over seconds without
    one (0.0 before the first), averages it over EFFORT_SMOOTH_S seconds,
    and labels the behaviour by the regulation events of the last
    BEHAVIOUR_WINDOW_S seconds: cost oriented if any of them shed compliance
    (COBR, PRBR), else performance oriented if any raised it. The evidence
    maps constraint (only when the second has a demand frame), behaviour,
    performance and effort, in that order, to their likelihoods; fusing it
    is left to the caller. The network must take that evidence: a
    ConfigError says so before the first step, and `require_demand` before
    the first demand frame. A pupil z that is not a number changes nothing.
    """

    def __init__(self, net: MwlNetwork):
        self.net = net
        for var in ("performance", "effort"):
            if var not in net.partitions:
                raise ConfigError(f"fusion model must carry a partition for {var!r}")
            self._require(var)
        self._require("behaviour", BEHAVIOUR_EVIDENCE.values())
        self.tracker = ActivityTracker()
        self._recent_z: deque = deque(maxlen=EFFORT_SMOOTH_S)
        self._last_z = 0.0
        # events come in time order (the tracker rejects out-of-order
        # ticks), so the newest event of each orientation (the sign of its
        # dcps) decides the label
        self._last_cost_t = float("-inf")
        self._last_perf_t = float("-inf")

    def _require(self, variable: str, evidence=()) -> None:
        """ConfigError unless the network has a child `variable` with every
        label of the `evidence` likelihoods."""
        if variable not in self.net.children:
            raise ConfigError(f"fusion model must carry a child {variable!r}")
        labels, _ = self.net.children[variable]
        missing = sorted({label for likelihood in evidence for label in likelihood} - set(labels))
        if missing:
            raise ConfigError(f"fusion model: child {variable!r} lacks labels {missing}")

    def require_demand(self) -> None:
        """ConfigError unless the network takes the demand evidence: a
        `constraint` child with the labels td1..td3."""
        self._require("constraint", CONSTRAINT_EVIDENCE.values())

    def step(self, tick: TaskTick, perf: float, pupil_z: Optional[float],
             demand: Optional[ConstraintFrame]) -> MonitorStep:
        try:
            z = self._last_z if pupil_z is None else number(pupil_z)
        except (TypeError, OverflowError) as exc:
            raise DataError(f"tick t={tick.t}: pupil z is not a number, got {pupil_z!r}") from exc
        snap, event = self.tracker.ingest(tick, perf)
        if snap.dcps < 0:
            self._last_cost_t = snap.t
        elif snap.dcps > 0:
            self._last_perf_t = snap.t
        self._last_z = z
        self._recent_z.append(z)
        z_smooth = float_sum(self._recent_z) / len(self._recent_z)

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


class Second(NamedTuple):
    """One simulated second of a Session, in the order the loop makes it."""

    t: int
    load: float  # the scripted latent load
    tick: TaskTick
    perf: float  # windowed performance
    demand: ConstraintFrame
    frame: physio.FeatureFrame
    step: MonitorStep
    posterior: tuple
    level: int
    commands: Sequence  # the engine's switching edges; empty with adaptation off
    rating: Optional[int]  # the self-rating, every ISA_PERIOD_S seconds from t > 0


class Session:
    """One closed-loop session, iterated once: a Second per simulated second.

    Setting up draws the world and the physiology from the seed: `beats`
    and `pupil` are the generated streams, `frames` their per-second
    features. Each second ticks the world under the engine's directives,
    steps the monitor, fuses the evidence and, when adaptation is on, steps
    the engine, counting its commands in `assistance_commands`. A second
    pass over the same session is refused by the regulation tracker
    (SequencingError at t=0). `summary()` is the run log's last record.
    """

    def __init__(self, config: ScenarioConfig, net: Optional[MwlNetwork] = None):
        self.config = config
        self.net = MwlNetwork.default() if net is None else net
        self.monitor = Monitor(self.net)
        self.monitor.require_demand()  # every second has a demand frame
        child = np.random.SeedSequence(config.seed).spawn(3)
        self.world = World(config,
                           rng_spawn=np.random.default_rng(child[0]),
                           rng_operator=np.random.default_rng(child[1]))
        rng_physio = np.random.default_rng(child[2])
        load = self.world.script.load
        self.beats = physio.RRSeries(*generate_beats(load, config.duration_s, rng_physio))
        self.pupil = physio.PupilSeries(*generate_pupil(load, config.duration_s, rng_physio))
        self.frames = physio.per_second_frames(
            self.beats, self.pupil,
            normalization="reference", reference=(PUPIL_REF_MM, PUPIL_REF_SD),
        ).frames
        self.loads = scripted_load(config)
        self.engine = AdaptationEngine(hold_s=config.hold_s)
        self.assistance_commands = 0

    def __iter__(self) -> Iterator[Second]:
        world, monitor, engine, net = self.world, self.monitor, self.engine, self.net
        frames, dfa, period = self.frames, self.config.dfa, ISA_PERIOD_S
        directives: frozenset = frozenset()
        commands: Sequence = ()
        new = tuple.__new__  # every field is made below as Second declares it: build it unchecked
        for t, load in enumerate(self.loads):
            ft = float(t)
            tick = world.tick(t, directives)
            perf = world.windowed_performance(ft)
            demand = world.demand(ft)
            frame = frames[t]
            step = monitor.step(tick, perf, frame.pupil_z, demand)
            post = posterior(net, step.evidence)
            level = mwl_level(post)
            if dfa:
                commands = engine.step(ft, level)
                self.assistance_commands += len(commands)
                directives = engine.active
            rating = min(5, 1 + int(5.0 * load)) if t > 0 and t % period == 0 else None
            yield new(Second, (t, load, tick, perf, demand, frame, step, post, level, commands, rating))

    def summary(self) -> dict:
        """The run log's summary record, from the world and the tracker."""
        world, tracker = self.world, self.monitor.tracker
        final = world.final_performance()
        return {
            "record": "summary",
            "compliance": round(tracker.compliance_rate(), 6),
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
            "regulation_events": len(tracker.events),
            "assistance_commands": self.assistance_commands,
        }


@dataclass
class RunResult:
    records: list  # chronological JSONL-ready dicts
    levels: np.ndarray  # per-second fused level
    latent: np.ndarray  # per-second scripted load
    isa: list  # (t, rating, level) triples
    compliance: float
    summary: dict


def run_scenario(config: ScenarioConfig, net: Optional[MwlNetwork] = None) -> RunResult:
    """Run the microworld end to end: the Session folded into the run log."""
    session = Session(config, net)
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
    levels: list[int] = []
    isa: list[tuple] = []
    append = records.append
    # the world reuses its entropy and perf floats while they stand still: round each once
    last_entropy = last_perf = None

    for t, load, _tick, perf, demand, frame, step, post, level, commands, rating in session:
        if demand.entropy is not last_entropy:
            last_entropy, rounded_entropy = demand.entropy, round(demand.entropy, 6)
        if perf is not last_perf:
            last_perf, rounded_perf = perf, round(perf, 6)
        if step.event is not None:
            append({"record": "regulation", "t": t, "kind": step.event.kind.name})
        levels.append(level)
        for cmd in commands:
            append({
                "record": "assistance", "t": t, "directive": cmd.directive,
                "task": cmd.task, "active": cmd.active, "level": level,
            })
        snap = step.snapshot
        append({  # keys in sorted order: the log writer's sort is one pass
            "behaviour": step.behaviour,
            "cps": snap.cps,
            "entropy": rounded_entropy,
            "hrv_sdnn_ms": None if frame.hrv_sdnn_ms is None else round(frame.hrv_sdnn_ms, 6),
            "hrv_warmup": frame.warmup,
            "latent": round(load, 6),
            "level": level,
            "n1": demand.n1,
            "n2": demand.n2,
            "nps": snap.nps,
            "perf": rounded_perf,
            "posterior": [round(p, 9) for p in post],
            "pupil_z": round(step.pupil_z, 6),
            "record": "tick",
            "t": t,
            "td": step.td,
        })
        if rating is not None:
            isa.append((t, rating, level))
            append({"record": "isa", "t": t, "rating": rating, "level": level})

    summary = session.summary()
    append(summary)
    return RunResult(records=records, levels=np.array(levels, dtype=int),
                     latent=np.array(session.loads), isa=isa,
                     compliance=session.monitor.tracker.compliance_rate(), summary=summary)


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
