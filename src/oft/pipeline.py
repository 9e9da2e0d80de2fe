"""Offline monitoring runs, end-to-end reports, and reproducibility helpers.

The offline monitor replays recorded streams (beats, pupil, activity ticks,
optionally demand counts) through the simulator's per-second monitor step
(`microworld.Monitor`) and writes the per-second workload states, the
regulation events, and a summary report. The end-to-end path runs the
microworld, then checks how well the fused level tracks the scripted
latent load and the periodic self-ratings by Spearman rank correlation.

Output manifests carry the command, its arguments, and input digests, and
deliberately no timestamps, so rerunning a command writes byte-identical
files.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import physio
from .errors import ConfigError, DataError
# fuzzify and task_difficulty are used by microworld.Monitor, not here; the
# traced benchmark (bench/spans.py) rebinds them in both modules
from .fusion import MwlNetwork, MwlState, fuse, fuzzify, write_states_jsonl  # noqa: F401
from .jsonl import dump_json, dump_jsonl, numeric_array, read_csv
from .microworld import (ISA_PERIOD_S, Monitor, RunResult, ScenarioConfig, run_scenario,
                         scripted_load)
from .regulation import write_events_jsonl
from .taskload import ConstraintFrame, task_difficulty  # noqa: F401


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, ties sharing the mean of their ranks.

    The ranks are whole or half numbers, exact in floating point.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


_NO_RANK_VARIATION = "correlation undefined: a series has no rank variation"


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties.

    Raises DataError when either series is constant (the ranks carry no
    order, so the coefficient is undefined), when lengths differ, or when
    a value is not finite.
    """
    x = numeric_array(a, "spearman: a", ndim=1, finite=True)
    y = numeric_array(b, "spearman: b", ndim=1, finite=True)
    if x.shape != y.shape:
        raise DataError("correlation needs two equal-length 1-d series")
    if len(x) < 3:
        raise DataError("correlation needs at least three observations")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.ptp(rx) == 0 or np.ptp(ry) == 0:
        raise DataError(_NO_RANK_VARIATION)
    return float(np.corrcoef(rx, ry)[0, 1])


def file_sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path: str | Path, command: str, args: dict,
                   inputs: Sequence[str | Path] = ()) -> None:
    """Reproducibility sidecar: command, arguments, input digests. No clock."""
    from . import __version__

    manifest = {
        "command": command,
        "args": {k: args[k] for k in sorted(args)},
        "inputs": [
            {"path": Path(p).name, "sha256": file_sha256(p)} for p in inputs
        ],
        "package_version": __version__,
    }
    dump_json(manifest, path)


# ---------------------------------------------------------------------------
# offline monitor


def read_demand_csv(path: str | Path) -> dict:
    """Demand counts per second: t_s,n1,n2,entropy -> {t: ConstraintFrame}.

    Each t_s must be a whole second (1.0 reads as 1) and appear only once.
    """
    def parse(t_s, n1, n2, entropy):
        t = float(t_s)
        second = int(t)
        if second != t:
            raise DataError(f"stream 'demand' ({path}): t_s {t_s} is not a whole second")
        return ConstraintFrame(second, int(n1), int(n2), float(entropy))

    frames = {}
    for frame in read_csv(path, "demand", ("t_s", "n1", "n2", "entropy"), parse):
        if frame.t in frames:
            raise DataError(f"stream 'demand' ({path}): second {frame.t} appears twice")
        frames[frame.t] = frame
    return frames


#: Normalizations monitor_offline takes: it has no window to anchor "window".
MONITOR_NORMALIZATIONS = ("session", "reference")


@dataclass
class MonitorResult:
    states: list  # MwlState per tick
    events: list  # RegulationEvent
    compliance: float
    report: dict
    meta: dict = field(default_factory=dict)


def monitor_offline(
    beats: physio.RRSeries,
    pupil: physio.PupilSeries,
    ticks,  # iterable of (TaskTick, perf)
    demand: Optional[dict] = None,
    net: Optional[MwlNetwork] = None,
    normalization: str = "session",
    reference: Optional[tuple] = None,
) -> MonitorResult:
    """Fuse recorded streams into per-second workload states.

    Physiology is framed per second first; each activity tick then goes
    through the same monitor step as the simulator (`microworld.Monitor`)
    with the pupil z of its own second's frame, or None past the frames.
    Ticks must be contiguous integers. Demand counts are optional; a second
    without them leaves the difficulty channel out of the fusion. Normalization is one of
    MONITOR_NORMALIZATIONS.
    """
    if normalization not in MONITOR_NORMALIZATIONS:
        raise ConfigError(
            f"monitor_offline: normalization is {' or '.join(map(repr, MONITOR_NORMALIZATIONS))}, "
            f"not {normalization!r}"
        )
    if net is None:
        net = MwlNetwork.default()
    monitor = Monitor(net)
    if demand is not None:
        monitor.require_demand()
    framed = physio.per_second_frames(
        beats, pupil, normalization=normalization, reference=reference
    )
    frames = framed.frames  # frames[t] is second t, from 0
    demand = demand or {}
    states: list[MwlState] = []
    overlap = 0
    for tick, perf in ticks:
        t = tick.t
        framed_second = 0 <= t < len(frames)
        overlap += framed_second
        step = monitor.step(tick, perf, frames[t].pupil_z if framed_second else None,
                            demand.get(t))
        states.append(fuse(net, t, step.evidence))

    if not states:
        raise DataError("stream 'ticks': no activity ticks")
    if overlap == 0:
        raise DataError(
            "stream 'ticks': no tick second overlaps the physiological frames; "
            "streams must share t=0"
        )
    tracker = monitor.tracker
    levels = np.asarray([s.level for s in states])
    compliance = tracker.compliance_rate()
    event_counts: dict = {}
    for ev in tracker.events:
        event_counts[ev.kind.value] = event_counts.get(ev.kind.value, 0) + 1
    report = {
        "ticks": len(states),
        "compliance": round(compliance, 6),
        "mean_level": round(float(levels.mean()), 6),
        "level_counts": {str(k): int((levels == k).sum()) for k in range(1, 6)},
        "seconds_at_or_above_4": int((levels >= 4).sum()),
        "regulation_events": event_counts,
        "normalization": framed.meta.get("normalization"),
    }
    return MonitorResult(
        states=states,
        events=list(tracker.events),
        compliance=compliance,
        report=report,
        meta=framed.meta,
    )


def write_monitor_outputs(result: MonitorResult, out_dir: str | Path) -> dict:
    """Write mwl.jsonl, events.jsonl, report.json under out_dir; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "mwl": out / "mwl.jsonl",
        "events": out / "events.jsonl",
        "report": out / "report.json",
    }
    write_states_jsonl(result.states, paths["mwl"])
    write_events_jsonl(result.events, paths["events"])
    dump_json(result.report, paths["report"])
    return paths


# ---------------------------------------------------------------------------
# simulation logs and end-to-end reports


def write_run_log(result: RunResult, path: str | Path) -> None:
    dump_jsonl(result.records, path)


def endtoend_report(config: ScenarioConfig, net: Optional[MwlNetwork] = None) -> dict:
    """Run the microworld and score how well the fused level tracks load.

    Correlates the per-second level against the scripted latent load, and
    the level at self-rating instants against the 1..5 ratings. Raises
    DataError when a series is constant and the correlation is undefined,
    or when the run is too short to hold three self-ratings; a constant
    scripted load and a short run fail before the session is simulated.
    """
    latent = scripted_load(config)
    # where spearman(levels, latent) would raise it: both are finite
    if len(latent) >= 3 and min(latent) == max(latent):
        raise DataError(_NO_RANK_VARIATION)
    # a rating falls on every t > 0 divisible by ISA_PERIOD_S, and spearman needs three
    if (config.duration_s - 1) // ISA_PERIOD_S < 3:
        raise DataError(f"run too short: need at least three self-rating instants, "
                        f"so a duration of at least {3 * ISA_PERIOD_S + 1} s")
    result = run_scenario(config, net=net)
    rho_latent = spearman(result.levels, result.latent)
    ratings = [r for (_t, r, _lvl) in result.isa]
    at_isa = [lvl for (_t, _r, lvl) in result.isa]
    rho_isa = spearman(at_isa, ratings)
    report = {
        "operator": config.operator,
        "seed": config.seed,
        "duration_s": config.duration_s,
        "dfa": config.dfa,
        "spearman_level_vs_latent": round(rho_latent, 6),
        "spearman_level_vs_isa": round(rho_isa, 6),
        "compliance": round(result.compliance, 6),
        "summary": {k: v for k, v in result.summary.items() if k != "record"},
    }
    return report
